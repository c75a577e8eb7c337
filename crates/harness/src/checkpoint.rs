//! Append-only JSONL checkpoint log.
//!
//! Line 1 is a [`Header`] recording every parameter that shapes the trial
//! schedule; each further line is one completed [`BatchRecord`], one
//! finished selection profile ([`ProfileRecord`], written before the
//! campaign's trials start), one program's golden counts ([`GoldenRecord`],
//! written when a unit over it reports), or one unit's region profiles
//! ([`RegionRecord`], written at a clean finish). Because
//! every batch is a pure function of `(seed, trial indices)`, replaying
//! the log into a fresh engine reproduces the interrupted run exactly —
//! `--resume` validates the header, preloads the batches, and only
//! executes what is missing. A torn final line (process killed mid-write)
//! is detected and ignored.
//!
//! During a run the log is append-only in completion order (crash safety);
//! at a clean end it is [`compact`]ed into the **canonical form**: the
//! header, the profile records sorted by program, the golden records sorted
//! by `(layer, content key)`, the batch records sorted by `(unit key, batch
//! index)` and the region records sorted by unit key —
//! duplicates dropped after checking they are identical, and batches beyond
//! each unit's decided prefix discarded. The canonical form is a pure
//! function of the campaign parameters, so a local run, an interrupt/resume
//! split of it, and shard logs concatenated and resumed (one header per
//! shard; see [`load_full`]) all produce byte-identical files, which a
//! resume answers from without a snapshot store or a golden run.

use crate::engine::HarnessConfig;
use crate::plan::{Layer, UnitKey};
use crate::progress::{BatchOutcome, UnitProgress};
use flowery_faultmodel::{DetectorSpec, ModelSpec};
use flowery_inject::OutcomeCounts;
use flowery_ir::value::{FuncId, InstId};
use flowery_passes::select::SdcProfile;
use flowery_regions::RegionProfile;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

pub const MAGIC: &str = "flowery-harness-checkpoint";
pub const VERSION: u32 = 1;

/// The campaign's declared parameters and provenance. What each field
/// binds is declared once, in [`HEADER_FIELDS`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    pub magic: String,
    pub version: u32,
    pub seed: u64,
    pub batch_size: u64,
    pub max_trials: u64,
    pub min_trials: u64,
    pub ci_target: Option<f64>,
    /// Legacy: pre-model logs selected the double-bit model with this
    /// switch. Writers emit `false` (header bytes stay stable); [`load_full`]
    /// folds a `true` into `fault_model` and nothing else reads it.
    pub double_bit: bool,
    /// Fault model the schedule's trials are sampled from. Absent in
    /// pre-model checkpoints, which were all single-bit-reg.
    #[serde(default)]
    pub fault_model: ModelSpec,
    /// Modeled hardware detectors post-classifying outcomes. Absent in
    /// older checkpoints (none were modeled).
    #[serde(default)]
    pub detectors: Vec<DetectorSpec>,
    /// Execution engine the campaign ran under. Absent in pre-engine
    /// checkpoints, which all ran the interpreter-equivalent semantics.
    #[serde(default)]
    pub exec_mode: flowery_ir::interp::ExecMode,
    /// Region partition/hash recipe version of the log's [`RegionRecord`]s;
    /// writers stamp [`flowery_regions::REGION_SCHEMA_VERSION`]. 0 =
    /// pre-region log (no region records).
    #[serde(default)]
    pub region_schema: u32,
    /// Static-prune recipe signature ([`crate::prior::prune_signature`])
    /// when the campaign rejection-skips proven-masked (site, bit) pairs;
    /// 0 = pruning off, as in every pre-prune checkpoint.
    #[serde(default)]
    pub static_prune: u64,
}

impl HarnessConfig {
    /// The checkpoint header this configuration demands.
    pub fn header(&self) -> Header {
        Header {
            magic: MAGIC.to_string(),
            version: VERSION,
            seed: self.seed,
            batch_size: self.batch_size,
            max_trials: self.max_trials,
            min_trials: self.min_trials,
            ci_target: self.ci_target,
            double_bit: false,
            fault_model: self.fault_model,
            detectors: self.detectors.clone(),
            exec_mode: self.exec.executor,
            region_schema: flowery_regions::REGION_SCHEMA_VERSION,
            static_prune: if self.static_prune { crate::prior::prune_signature() } else { 0 },
        }
    }
}

/// How a [`Header`] field binds whoever pairs with a log: a `--resume`, a
/// `diff --baseline`, the other shards of a concatenated log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldClass {
    /// Shapes the trial schedule; a difference describes another campaign.
    Schedule,
    /// Outcome-neutral provenance that one log must still not mix, or it
    /// could not be audited; refused exactly like a schedule difference.
    RefuseOnMix,
    /// Provenance that annotates results; never compared.
    Informational,
    /// Kept in the bytes for old readers, consumed by the loader, never
    /// compared.
    LegacyReadOnly,
}

macro_rules! field {
    ($name:ident, $class:ident) => {
        (stringify!($name), FieldClass::$class, |h| format!("{:?}", h.$name))
    };
}

/// One row of the header's field table: name, class, and how to show the
/// field's value in a refusal.
pub type HeaderField = (&'static str, FieldClass, fn(&Header) -> String);

/// Every [`Header`] field, in declaration order. [`Header::same_schedule`]
/// and [`Header::describe_mismatch`] are derived from this table; a unit
/// test fails when a field has no row.
pub const HEADER_FIELDS: [HeaderField; 13] = [
    field!(magic, Schedule),
    field!(version, Schedule),
    field!(seed, Schedule),
    field!(batch_size, Schedule),
    field!(max_trials, Schedule),
    field!(min_trials, Schedule),
    field!(ci_target, Schedule),
    field!(double_bit, LegacyReadOnly),
    field!(fault_model, Schedule),
    field!(detectors, Schedule),
    // Engines are bit-identical, so a campaign begun under one may be
    // resumed — or sharded across processes running — under another.
    field!(exec_mode, Informational),
    // Region records annotate batch results; they never change which
    // trials run. 0 = pre-region log.
    field!(region_schema, Informational),
    // Pruned and unpruned runs tally identically by construction, but a
    // log mixing them could not be audited: per-batch `pruned` counters
    // and proof-table hashes would disagree.
    field!(static_prune, RefuseOnMix),
];

/// Why [`Header::admit`] turned a batch record away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Sampled under another fault model (e.g. logs concatenated across a
    /// sweep): foreign data, never a replayable batch.
    FaultModel,
    /// Prune provenance disagrees with the header: outcomes would match,
    /// but one log must not mix audited and unaudited trials.
    PruneProvenance,
    /// Batch index beyond the schedule (e.g. written under a larger
    /// `max_trials`).
    OutOfSchedule,
    /// Counts that do not add up: a tally of other than the trials the
    /// schedule gives the batch, or more pruned trials than benign ones
    /// (a record edited or written by another build).
    Miscounted,
}

/// What `header` will refuse among `records`, as a status-line suffix:
/// ` (N refused: …)` by reason, or nothing when every record is admitted.
pub fn refused_note(header: &Header, records: &[BatchRecord]) -> String {
    let mut by_reason = [0u64; 4];
    for why in records.iter().filter_map(|rec| header.admit(rec).err()) {
        by_reason[why as usize] += 1;
    }
    let [model, prune, schedule, miscounted] = by_reason;
    match model + prune + schedule + miscounted {
        0 => String::new(),
        n => format!(
            " ({n} refused: {model} fault-model, {prune} prune-provenance, {schedule} out-of-schedule, \
             {miscounted} miscounted)"
        ),
    }
}

impl Header {
    /// Schedule length per unit, in batches.
    pub fn max_batches(&self) -> u64 {
        self.max_trials.div_ceil(self.batch_size)
    }

    /// True when `other` describes the same campaign: every
    /// [`FieldClass::Schedule`] and [`FieldClass::RefuseOnMix`] field agrees.
    pub fn same_schedule(&self, other: &Header) -> bool {
        self.describe_mismatch(other).is_none()
    }

    /// When `self` (a checkpoint's header) describes a different campaign
    /// than `requested`, name the first differing field and both values —
    /// never a bare "mismatch".
    pub fn describe_mismatch(&self, requested: &Header) -> Option<String> {
        self.first_difference(requested)
            .map(|(name, ckpt, req)| format!("{name}: checkpoint has {ckpt}, this campaign wants {req}"))
    }

    /// The first binding field ([`FieldClass::Schedule`] or
    /// [`FieldClass::RefuseOnMix`]) on which `self` and `other` differ,
    /// with both values shown.
    fn first_difference(&self, other: &Header) -> Option<(&'static str, String, String)> {
        HEADER_FIELDS
            .iter()
            .filter(|(_, class, _)| matches!(class, FieldClass::Schedule | FieldClass::RefuseOnMix))
            .map(|(name, _, show)| (*name, show(self), show(other)))
            .find(|(_, mine, theirs)| mine != theirs)
    }

    /// Refuse, naming the field, when `self` — the header of the `what` at
    /// `path` — describes a different campaign than `requested`.
    pub fn require(&self, requested: &Header, path: &Path, what: &str) -> Result<(), String> {
        self.describe_mismatch(requested).map_or(Ok(()), |why| {
            Err(format!(
                "{}: {what} was written with different campaign parameters — {why}",
                path.display()
            ))
        })
    }

    /// The stopping and admission rule of a region-scoped re-run of
    /// `trials` trials: its own schedule length and no early stop. Its
    /// faults are ordinary ones, so prune provenance is the campaign's.
    pub fn for_region(&self, trials: u64) -> Header {
        Header { max_trials: trials, ci_target: None, ..self.clone() }
    }

    /// Trials the schedule gives batch `batch` (< [`Header::max_batches`]):
    /// a whole batch, or what is left of `max_trials` for the last one.
    pub fn batch_trials(&self, batch: u64) -> u64 {
        self.batch_size.min(self.max_trials - batch * self.batch_size)
    }

    /// The one record-admission rule: may `rec` be folded into a campaign
    /// this header describes? Loaders skip what it refuses.
    pub fn admit(&self, rec: &BatchRecord) -> Result<(), Refusal> {
        // Only assembly units prune; IR records carry 0 under both modes.
        let prunes = self.static_prune != 0 && rec.unit.layer == Layer::Asm;
        if rec.batch >= self.max_batches() {
            Err(Refusal::OutOfSchedule)
        } else if rec.fault_model != self.fault_model {
            Err(Refusal::FaultModel)
        } else if (rec.prune_table != 0) != prunes || (rec.pruned != 0 && rec.prune_table == 0) {
            Err(Refusal::PruneProvenance)
        } else if rec.counts.total() != self.batch_trials(rec.batch) || rec.pruned > rec.counts.benign {
            Err(Refusal::Miscounted)
        } else {
            Ok(())
        }
    }
}

/// One completed batch of one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRecord {
    pub unit: UnitKey,
    pub batch: u64,
    pub counts: OutcomeCounts,
    /// IR layer: SDC attributions by static instruction, in this batch.
    pub sdc_by_inst: HashMap<(FuncId, InstId), u64>,
    /// Assembly layer: program indices of SDC injections, in trial order.
    pub sdc_insts: Vec<u32>,
    /// The fault model this batch's trials were sampled from; defaults to
    /// `single-bit-reg` when absent so pre-model logs keep loading, and
    /// keeps `--resume` from ever conflating trials from different models.
    #[serde(default)]
    pub fault_model: ModelSpec,
    /// Per-region outcome tallies for this batch, keyed by function name
    /// and sorted by it (see `flowery-regions`). Absent in pre-region
    /// logs, which load with an empty list.
    #[serde(default)]
    pub region_counts: Vec<(String, OutcomeCounts)>,
    /// Fingerprint of the static bit-verdict table the batch's trials were
    /// pruned against ([`flowery_analysis::statline::BitTable::fingerprint`]
    /// over the unit's program hash); 0 = batch ran unpruned. Provenance
    /// for the prune soundness claim: a canonical log records exactly
    /// which proofs every batch trusted.
    #[serde(default)]
    pub prune_table: u64,
    /// Trials of this batch resolved virtually (proven-masked pair →
    /// Benign without execution). Subset of `counts.benign`.
    #[serde(default)]
    pub pruned: u64,
}

impl BatchRecord {
    /// The checkpoint record of one executed batch (drops the
    /// metrics-only instruction counters, which are not part of the result).
    pub fn new(unit: UnitKey, batch: u64, fault_model: ModelSpec, out: &BatchOutcome) -> BatchRecord {
        BatchRecord {
            unit,
            batch,
            counts: out.counts,
            sdc_by_inst: out.sdc_by_inst.clone(),
            sdc_insts: out.sdc_insts.clone(),
            fault_model,
            region_counts: out.region_counts.clone(),
            prune_table: out.prune_table,
            pruned: out.pruned,
        }
    }

    /// The tally this record carries (instruction counters come back as 0:
    /// the work happened in an earlier run).
    pub fn outcome(&self) -> BatchOutcome {
        BatchOutcome {
            counts: self.counts,
            sdc_by_inst: self.sdc_by_inst.clone(),
            sdc_insts: self.sdc_insts.clone(),
            region_counts: self.region_counts.clone(),
            pruned: self.pruned,
            prune_table: self.prune_table,
            ..BatchOutcome::default()
        }
    }
}

/// Per-region campaign results for one unit — the versioned region
/// section of the log, written once at a clean finalize. A composed
/// checkpoint (from `flowery diff`) may carry *only* region records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionRecord {
    pub unit: UnitKey,
    /// [`flowery_regions::REGION_SCHEMA_VERSION`] the profiles were built
    /// under; records from a foreign schema are dropped on canonicalize.
    pub schema: u32,
    /// Profiles in region-name order, covering every region of the unit.
    pub regions: Vec<RegionProfile>,
}

/// One program's finished selection profile (see [`crate::plan_matrix`]):
/// the SDC profile of its raw IR under the profile schedule, which picks
/// what its partial protection levels duplicate. A `--resume` or a merged
/// shard log serves it instead of re-running the profile — but only for
/// the same program content, seed and trial count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileRecord {
    pub program: String,
    /// [`crate::module_hash`] of the raw program the profile ran on.
    pub module_hash: u64,
    pub seed: u64,
    pub trials: u64,
    pub profile: SdcProfile,
}

/// One program content's golden counts, what every unit over it reports
/// beside its tally ([`crate::UnitResult`]'s `golden_*` fields). A resume
/// or a merged shard log serves them instead of a stored snapshot set or a
/// golden run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenRecord {
    pub layer: Layer,
    /// The program's content key ([`crate::TrialUnit::content_key`]).
    pub key: u64,
    pub dyn_insts: u64,
    pub fault_sites: u64,
    /// Assembly layer only; 0 at IR.
    pub cycles: u64,
    /// FNV-1a of the golden output.
    pub output_hash: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Record {
    Header(Header),
    Batch(BatchRecord),
    Regions(RegionRecord),
    Profile(ProfileRecord),
    Golden(GoldenRecord),
}

/// Writer half: shared by workers, flushed per line so a kill loses at
/// most the line being written.
pub struct CheckpointLog {
    file: Mutex<File>,
    /// The golden records of a resumed log, by `(layer, content key)`, as
    /// [`open`] read them.
    goldens: HashMap<(Layer, u64), GoldenRecord>,
}

impl CheckpointLog {
    /// Start a fresh log (truncates), writing the header line.
    pub fn create(path: &Path, header: &Header) -> Result<CheckpointLog, String> {
        let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let log = CheckpointLog { file: Mutex::new(file), goldens: HashMap::new() };
        log.write(&Record::Header(header.clone()))?;
        Ok(log)
    }

    /// Reopen an existing log for appending (after [`load`]).
    ///
    /// A write interrupted mid-line leaves the file without a trailing
    /// newline; appending after it would weld the next record onto the
    /// fragment, corrupting a line [`load`] only tolerated while it was
    /// last. So the tail is repaired first: an unparseable fragment is
    /// truncated away (exactly the bytes `load` ignored), while a
    /// complete record that merely lost its newline keeps its data and
    /// gains the newline.
    pub fn append_to(path: &Path) -> Result<CheckpointLog, String> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut bytes = Vec::new();
        std::io::Read::read_to_end(&mut file, &mut bytes).map_err(|e| format!("read {}: {e}", path.display()))?;
        if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
            let cut = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            let intact = std::str::from_utf8(&bytes[cut..])
                .ok()
                .is_some_and(|tail| serde_json::from_str::<Record>(tail).is_ok());
            if intact {
                writeln!(file).map_err(|e| format!("repair {}: {e}", path.display()))?;
            } else {
                file.set_len(cut as u64)
                    .map_err(|e| format!("repair {}: {e}", path.display()))?;
            }
        }
        Ok(CheckpointLog { file: Mutex::new(file), goldens: HashMap::new() })
    }

    pub fn record_batch(&self, rec: &BatchRecord) -> Result<(), String> {
        self.write(&Record::Batch(rec.clone()))
    }

    pub fn record_regions(&self, rec: &RegionRecord) -> Result<(), String> {
        self.write(&Record::Regions(rec.clone()))
    }

    pub fn record_profile(&self, rec: &ProfileRecord) -> Result<(), String> {
        self.write(&Record::Profile(rec.clone()))
    }

    pub fn record_golden(&self, rec: &GoldenRecord) -> Result<(), String> {
        self.write(&Record::Golden(rec.clone()))
    }

    /// The golden record of the program `key` at `layer`, when the log held
    /// one as [`open`] resumed it.
    pub fn golden(&self, layer: Layer, key: u64) -> Option<&GoldenRecord> {
        self.goldens.get(&(layer, key))
    }

    fn write(&self, rec: &Record) -> Result<(), String> {
        let line = serde_json::to_string(rec).map_err(|e| format!("checkpoint encode: {e:?}"))?;
        let mut f = self.file.lock().unwrap();
        writeln!(f, "{line}")
            .and_then(|_| f.flush())
            .map_err(|e| format!("checkpoint write: {e}"))
    }
}

/// Read a log back: the header plus every intact batch record, in file
/// order. The final line is allowed to be torn; a corrupt line anywhere
/// else is an error (the log is otherwise append-only).
pub fn load(path: &Path) -> Result<(Header, Vec<BatchRecord>), String> {
    let (header, batches, _) = load_full(path)?;
    Ok((header, batches))
}

/// [`load`], plus the region records (empty for pre-region logs).
///
/// A file may carry several header lines — shard logs joined with `cat` —
/// as long as they describe one campaign. The first is the file's header;
/// a later one may differ from it in non-binding fields only (shards may
/// run different engines) and is otherwise an error naming the line, the
/// field and both values: records of another seed or schedule must never
/// be sealed under this one's header.
pub fn load_full(path: &Path) -> Result<(Header, Vec<BatchRecord>, Vec<RegionRecord>), String> {
    read(path).map(|(header, batches, regions, ..)| (header, batches, regions))
}

/// A log's header and its batch, region, profile and golden records.
type Records = (Header, Vec<BatchRecord>, Vec<RegionRecord>, Vec<ProfileRecord>, Vec<GoldenRecord>);

/// Every record of a log, by kind, in file order (see [`load_full`]).
fn read(path: &Path) -> Result<Records, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let lines: Vec<String> = BufReader::new(f)
        .lines()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut header: Option<Header> = None;
    let mut batches = Vec::new();
    let mut regions = Vec::new();
    let mut profiles = Vec::new();
    let mut goldens = Vec::new();
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: Record = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(_) if i == last => break, // torn tail from an interrupted write
            Err(e) => return Err(format!("{}:{}: corrupt record: {e:?}", path.display(), i + 1)),
        };
        match rec {
            Record::Header(h) => {
                if h.magic != MAGIC {
                    return Err(format!("{}: not a harness checkpoint", path.display()));
                }
                if h.version != VERSION {
                    return Err(format!("{}: unsupported version {}", path.display(), h.version));
                }
                if h.batch_size == 0 {
                    return Err(format!("{}:{}: header schedules batches of 0 trials", path.display(), i + 1));
                }
                match &header {
                    None => header = Some(h),
                    Some(first) => {
                        if let Some((field, there, here)) = first.first_difference(&h) {
                            return Err(format!(
                                "{}:{}: header of another campaign — {field}: {here} here, {there} in the file's first header",
                                path.display(),
                                i + 1
                            ));
                        }
                    }
                }
            }
            Record::Batch(b) => batches.push(b),
            Record::Regions(r) => regions.push(r),
            Record::Profile(p) => profiles.push(p),
            Record::Golden(g) => goldens.push(g),
        }
    }
    let mut header = header.ok_or_else(|| format!("{}: missing header line", path.display()))?;
    // Pre-model logs carry only the legacy `double_bit` switch; normalize
    // so they resume under the equivalent explicit model. (New writers
    // always stamp the resolved model, so this only rewrites the default.)
    if std::mem::take(&mut header.double_bit) && header.fault_model == ModelSpec::SingleBitReg {
        header.fault_model = ModelSpec::DoubleBitReg;
        for b in &mut batches {
            if b.fault_model == ModelSpec::SingleBitReg {
                b.fault_model = ModelSpec::DoubleBitReg;
            }
        }
    }
    Ok((header, batches, regions, profiles, goldens))
}

/// Insert `rec`, or check it against the identical record already there:
/// every record is a pure re-run, so a differing duplicate means corrupt
/// data or a diverging shard — it is handed back as the error.
fn insert_unique<K: Ord, V: PartialEq>(slot: Entry<'_, K, V>, rec: V) -> Result<(), V> {
    match slot {
        Entry::Occupied(o) if *o.get() != rec => return Err(rec),
        Entry::Occupied(_) => {}
        Entry::Vacant(v) => _ = v.insert(rec),
    }
    Ok(())
}

/// Reduce `records` to the canonical set: sorted by `(unit key, batch)`,
/// duplicates dropped, records [`Header::admit`] refuses dropped, and — for
/// every unit the stopping rule decides — batches beyond the decided
/// prefix discarded (they are scheduling jitter, not results). Duplicate
/// records must be identical: every batch is a pure re-run, so a mismatch
/// means corrupt data or a diverging shard and is an error.
pub fn canonicalize(header: &Header, records: Vec<BatchRecord>) -> Result<Vec<BatchRecord>, String> {
    let mut by_unit: BTreeMap<UnitKey, BTreeMap<u64, BatchRecord>> = BTreeMap::new();
    for rec in records {
        if header.admit(&rec).is_err() {
            continue;
        }
        insert_unique(by_unit.entry(rec.unit.clone()).or_default().entry(rec.batch), rec)
            .map_err(|rec| format!("conflicting duplicate for batch {} of {}", rec.batch, rec.unit))?;
    }
    let mut out = Vec::new();
    for (_, batches) in by_unit {
        let mut progress = UnitProgress::new(header.max_batches());
        for (&b, rec) in &batches {
            progress.insert(b, rec.outcome(), header);
        }
        let keep = progress.decided().unwrap_or(u64::MAX);
        out.extend(batches.into_values().filter(|r| r.batch < keep));
    }
    Ok(out)
}

/// Reduce region records to the canonical set: one per unit, sorted by
/// unit key, duplicates dropped after checking identity, and records
/// built under a foreign region schema discarded (they describe a
/// different partition recipe, not this log's regions).
pub fn canonicalize_regions(header: &Header, records: Vec<RegionRecord>) -> Result<Vec<RegionRecord>, String> {
    let current = records
        .into_iter()
        .filter(|r| r.schema == header.region_schema && r.schema != 0);
    one_per_key(current, |r| r.unit.clone()).map_err(|rec| format!("conflicting region records for {}", rec.unit))
}

/// `records` one per `key`, sorted by it, duplicates dropped after
/// [`insert_unique`] checked them.
fn one_per_key<K: Ord, V: PartialEq>(records: impl IntoIterator<Item = V>, key: impl Fn(&V) -> K) -> Result<Vec<V>, V> {
    let mut by_key = BTreeMap::new();
    for rec in records {
        insert_unique(by_key.entry(key(&rec)), rec)?;
    }
    Ok(by_key.into_values().collect())
}

/// Write a canonical log: the header line, the profile and golden records,
/// `records` in the order given (callers pass [`canonicalize`]d records),
/// then the region records. The file is written to a temporary sibling and
/// renamed into place, so a kill mid-write never clobbers an existing log.
pub fn write_canonical_full(
    path: &Path,
    header: &Header,
    profiles: &[ProfileRecord],
    goldens: &[GoldenRecord],
    records: &[BatchRecord],
    regions: &[RegionRecord],
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    {
        let log = CheckpointLog::create(&tmp, header)?;
        for rec in profiles {
            log.record_profile(rec)?;
        }
        for rec in goldens {
            log.record_golden(rec)?;
        }
        for rec in records {
            log.record_batch(rec)?;
        }
        for rec in regions {
            log.record_regions(rec)?;
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// [`write_canonical_full`] with batch records only.
pub fn write_canonical(path: &Path, header: &Header, records: &[BatchRecord]) -> Result<(), String> {
    write_canonical_full(path, header, &[], &[], records, &[])
}

/// An opened log and its batch, profile and region records (see [`open`]).
pub type Opened = (CheckpointLog, Vec<BatchRecord>, Vec<ProfileRecord>, Vec<RegionRecord>);

/// Open a campaign's log — the first step of the open → run → [`seal`]
/// lifecycle. Fresh: truncate and write `header`. Resume: load the log,
/// refuse one whose header describes a different campaign (naming the
/// field), repair a torn tail and reopen for appending; the loaded batch
/// records come back for preloading (consumers fold them through
/// [`Header::admit`]; [`refused_note`] reports what that will drop), the
/// profile records for the selection profile pass to serve from, and the
/// region records of this log's region schema, which the seal keeps. The
/// reopened log holds the golden records ([`CheckpointLog::golden`]) for
/// the campaign's results to take their counts from.
pub fn open(path: &Path, header: &Header, resume: bool) -> Result<Opened, String> {
    if !resume {
        return Ok((CheckpointLog::create(path, header)?, Vec::new(), Vec::new(), Vec::new()));
    }
    let (found, batches, regions, profiles, goldens) = read(path)?;
    found.require(header, path, "checkpoint")?;
    let regions = regions.into_iter().filter(|r| r.schema == header.region_schema).collect();
    let log = CheckpointLog {
        goldens: goldens.into_iter().map(|g| ((g.layer, g.key), g)).collect(),
        ..CheckpointLog::append_to(path)?
    };
    Ok((log, batches, profiles, regions))
}

/// Seal a campaign's log: append `regions` (the per-region profiles of a
/// clean finish — pass none for an interrupted run, whose partial units
/// would compose wrongly), close the writer, and [`compact`] the file into
/// canonical form.
pub fn seal(path: &Path, log: CheckpointLog, regions: &[RegionRecord]) -> Result<(), String> {
    for rec in regions {
        log.record_regions(rec)?;
    }
    drop(log);
    compact(path)
}

/// Rewrite the log at `path` in canonical form (see [`canonicalize`] and
/// [`canonicalize_regions`]; profile and golden records are kept one per
/// program, sorted, duplicates dropped after checking identity). Called at
/// the clean end of a campaign; the result is byte-identical for any
/// execution of the same schedule — local, resumed, or sharded.
pub fn compact(path: &Path) -> Result<(), String> {
    let (header, records, regions, profiles, goldens) = read(path)?;
    let records = canonicalize(&header, records)?;
    let regions = canonicalize_regions(&header, regions)?;
    let profiles = one_per_key(profiles, |r| r.program.clone())
        .map_err(|rec| format!("conflicting profile records for {}", rec.program))?;
    let goldens = one_per_key(goldens, |r| (r.layer, r.key))
        .map_err(|rec| format!("conflicting golden records for {:?} program {:016x}", rec.layer, rec.key))?;
    write_canonical_full(path, &header, &profiles, &goldens, &records, &regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Variant;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("flowery-ckpt-{}-{name}.jsonl", std::process::id()))
    }

    fn header() -> Header {
        Header {
            magic: MAGIC.into(),
            version: VERSION,
            seed: 42,
            batch_size: 250,
            max_trials: 1000,
            min_trials: 500,
            ci_target: Some(0.02),
            double_bit: false,
            fault_model: ModelSpec::SingleBitReg,
            detectors: Vec::new(),
            exec_mode: Default::default(),
            region_schema: 0,
            static_prune: 0,
        }
    }

    fn record(batch: u64) -> BatchRecord {
        BatchRecord {
            unit: UnitKey::new("crc32", Variant::Raw, 0.0, Layer::Asm),
            batch,
            counts: OutcomeCounts { benign: 200, sdc: 30, detected: 0, due: 20 },
            sdc_by_inst: HashMap::new(),
            sdc_insts: vec![3, 17, 17],
            fault_model: ModelSpec::SingleBitReg,
            region_counts: Vec::new(),
            prune_table: 0,
            pruned: 0,
        }
    }

    #[test]
    fn roundtrip_and_resume_load() {
        let path = tmp("roundtrip");
        let log = CheckpointLog::create(&path, &header()).unwrap();
        log.record_batch(&record(0)).unwrap();
        drop(log);
        let log = CheckpointLog::append_to(&path).unwrap();
        log.record_batch(&record(1)).unwrap();
        drop(log);
        let (h, batches) = load(&path).unwrap();
        assert_eq!(h, header());
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], record(0));
        assert_eq!(batches[1].batch, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored_mid_file_corruption_is_not() {
        let path = tmp("torn");
        let log = CheckpointLog::create(&path, &header()).unwrap();
        log.record_batch(&record(0)).unwrap();
        drop(log);
        // Simulate a kill mid-write: a truncated final line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"Batch\":{{\"unit\"").unwrap();
        drop(f);
        let (_, batches) = load(&path).unwrap();
        assert_eq!(batches.len(), 1, "torn tail dropped, intact records kept");

        // But garbage before the end must fail loudly.
        std::fs::write(&path, "{\"Header\"garbage}\n{}\n").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_to_repairs_a_torn_tail_before_appending() {
        let path = tmp("torn-append");
        let log = CheckpointLog::create(&path, &header()).unwrap();
        log.record_batch(&record(0)).unwrap();
        drop(log);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"Batch\":{{\"unit\"").unwrap();
        drop(f);
        // Appending after the torn write must not weld the new record
        // onto the fragment: the fragment is truncated away and the log
        // stays fully loadable — no tolerated-torn-tail line left behind.
        let log = CheckpointLog::append_to(&path).unwrap();
        log.record_batch(&record(1)).unwrap();
        drop(log);
        let (_, batches) = load(&path).unwrap();
        assert_eq!(batches.len(), 2, "fragment dropped, both real records kept");
        assert!(std::fs::read_to_string(&path).unwrap().ends_with('\n'));

        // A complete record that only lost its newline keeps its data.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end()).unwrap();
        let log = CheckpointLog::append_to(&path).unwrap();
        log.record_batch(&record(2)).unwrap();
        drop(log);
        let (_, batches) = load(&path).unwrap();
        assert_eq!(batches.len(), 3, "unterminated final record survives the repair");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn canonicalize_sorts_dedups_and_truncates() {
        let h = header(); // batch 250, max 1000 -> 4 batches
        let unit_a = UnitKey::new("a", Variant::Raw, 0.0, Layer::Ir);
        let unit_b = UnitKey::new("b", Variant::Raw, 0.0, Layer::Asm);
        let mk = |unit: &UnitKey, batch: u64| BatchRecord {
            unit: unit.clone(),
            batch,
            counts: OutcomeCounts { benign: 250, ..Default::default() },
            sdc_by_inst: HashMap::new(),
            sdc_insts: Vec::new(),
            fault_model: ModelSpec::SingleBitReg,
            region_counts: Vec::new(),
            prune_table: 0,
            pruned: 0,
        };
        // Completion-order jumble with a duplicate and an out-of-schedule
        // batch (e.g. from a checkpoint written under a larger max_trials).
        let records = vec![mk(&unit_b, 1), mk(&unit_a, 3), mk(&unit_a, 0), mk(&unit_a, 0), mk(&unit_b, 9)];
        let canon = canonicalize(&h, records).unwrap();
        let ids: Vec<(String, u64)> = canon.iter().map(|r| (r.unit.id(), r.batch)).collect();
        assert_eq!(
            ids,
            vec![
                ("a/Raw@0/Ir".to_string(), 0),
                ("a/Raw@0/Ir".to_string(), 3),
                ("b/Raw@0/Asm".to_string(), 1)
            ]
        );

        // A conflicting duplicate is corrupt data, not jitter.
        let mut bad = mk(&unit_a, 0);
        (bad.counts.benign, bad.counts.sdc) = (151, 99);
        assert!(canonicalize(&h, vec![mk(&unit_a, 0), bad])
            .unwrap_err()
            .contains("conflicting duplicate"));
    }

    #[test]
    fn canonicalize_truncates_beyond_decided_prefix() {
        // With a loose CI target, batch 0+1 decide the unit; a batch-3
        // record (in-flight when the unit decided) must be dropped.
        let mut h = header();
        h.ci_target = Some(0.2);
        h.min_trials = 250;
        let unit = UnitKey::new("a", Variant::Raw, 0.0, Layer::Ir);
        let quiet = |batch: u64| BatchRecord {
            unit: unit.clone(),
            batch,
            counts: OutcomeCounts { benign: 250, ..Default::default() },
            sdc_by_inst: HashMap::new(),
            sdc_insts: Vec::new(),
            fault_model: ModelSpec::SingleBitReg,
            region_counts: Vec::new(),
            prune_table: 0,
            pruned: 0,
        };
        let canon = canonicalize(&h, vec![quiet(0), quiet(3)]).unwrap();
        assert_eq!(canon.iter().map(|r| r.batch).collect::<Vec<_>>(), vec![0]);
        // An undecided unit keeps everything: resume still needs it.
        let canon = canonicalize(&header(), vec![quiet(3), quiet(1)]).unwrap();
        assert_eq!(canon.iter().map(|r| r.batch).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn compact_is_idempotent_and_order_insensitive() {
        let a = tmp("compact-a");
        let b = tmp("compact-b");
        for (path, order) in [(&a, [0u64, 1]), (&b, [1u64, 0])] {
            let log = CheckpointLog::create(path, &header()).unwrap();
            for &batch in &order {
                log.record_batch(&record(batch)).unwrap();
            }
            drop(log);
            compact(path).unwrap();
        }
        let bytes_a = std::fs::read(&a).unwrap();
        assert_eq!(bytes_a, std::fs::read(&b).unwrap(), "canonical form is order-insensitive");
        compact(&a).unwrap();
        assert_eq!(bytes_a, std::fs::read(&a).unwrap(), "compact is idempotent");
        let (h, records) = load(&a).unwrap();
        assert_eq!(h, header());
        assert_eq!(records.len(), 2, "records survive compaction");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn pre_model_records_default_to_single_bit_reg() {
        // A checkpoint line written before the fault-model field existed
        // must load as single-bit-reg with no detectors. Reconstruct the
        // legacy encoding by writing today's log and stripping the fields.
        let path = tmp("legacy");
        let log = CheckpointLog::create(&path, &header()).unwrap();
        log.record_batch(&record(0)).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("fault_model"), "new logs carry the field");
        let legacy: String = text
            .replace(",\"fault_model\":\"single-bit-reg\"", "")
            .replace(",\"detectors\":[]", "");
        assert!(!legacy.contains("fault_model"));
        std::fs::write(&path, legacy).unwrap();
        let (h, batches) = load(&path).unwrap();
        assert_eq!(h.fault_model, ModelSpec::SingleBitReg);
        assert!(h.detectors.is_empty());
        assert_eq!(h, header(), "legacy header equals today's default-model header");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].fault_model, ModelSpec::SingleBitReg);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn canonicalize_never_conflates_models() {
        // Records sampled under a different model are foreign data: they
        // are dropped, not merged into this schedule's tally.
        let h = header();
        let mut foreign = record(0);
        foreign.fault_model = ModelSpec::FlagsPc;
        let canon = canonicalize(&h, vec![record(0), foreign.clone()]).unwrap();
        assert_eq!(canon.len(), 1);
        assert_eq!(canon[0].fault_model, ModelSpec::SingleBitReg);
        // Even alone, a foreign-model record contributes nothing.
        let canon = canonicalize(&h, vec![foreign]).unwrap();
        assert!(canon.is_empty());
        // And headers for different models are unequal, so a resume under
        // a different model refuses the file outright.
        let mut h2 = header();
        h2.fault_model = ModelSpec::FlagsPc;
        assert_ne!(h, h2);
    }

    #[test]
    fn exec_mode_is_provenance_not_schedule() {
        use flowery_ir::interp::ExecMode;
        // Headers that differ only in engine still describe the same
        // schedule — mixed-executor resumes and shards are allowed —
        // while any schedule-shaping difference still refuses.
        let mut interp = header();
        interp.exec_mode = ExecMode::Interp;
        let compiled = Header { exec_mode: ExecMode::Compiled, ..interp.clone() };
        let native = Header { exec_mode: ExecMode::Native, ..interp.clone() };
        assert_ne!(interp, compiled);
        assert!(interp.same_schedule(&compiled));
        // The native JIT is a third engine on the same schedule: a run may
        // resume a compiled (or interp) checkpoint under `native` and vice
        // versa.
        assert_ne!(interp, native);
        assert!(interp.same_schedule(&native));
        assert!(compiled.same_schedule(&native));
        assert!(native.same_schedule(&compiled));
        let mut other_seed = compiled.clone();
        other_seed.seed += 1;
        assert!(!interp.same_schedule(&other_seed));
        let mut native_other_seed = native.clone();
        native_other_seed.seed += 1;
        assert!(!native.same_schedule(&native_other_seed));

        // Pre-engine checkpoint lines (no exec_mode field) load with the
        // default and keep pairing with either engine.
        let path = tmp("pre-engine");
        CheckpointLog::create(&path, &header()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("exec_mode"), "new logs carry the engine");
        let legacy = text.replace(",\"exec_mode\":\"compiled\"", "");
        assert!(!legacy.contains("exec_mode"));
        std::fs::write(&path, legacy).unwrap();
        let (h, _) = load(&path).unwrap();
        assert_eq!(h.exec_mode, ExecMode::default());
        assert!(h.same_schedule(&interp));
        assert!(h.same_schedule(&native));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_schema_is_provenance_not_schedule() {
        // A pre-region checkpoint (region_schema 0) must resume under a
        // region-stamping campaign: the schema annotates results, it never
        // changes the schedule.
        let pre = header();
        let stamped = Header {
            region_schema: flowery_regions::REGION_SCHEMA_VERSION,
            ..pre.clone()
        };
        assert_ne!(pre, stamped);
        assert!(pre.same_schedule(&stamped));
        assert!(pre.describe_mismatch(&stamped).is_none());
        // A genuine schedule change names the field and both values.
        let mut other = stamped.clone();
        other.max_trials += 500;
        let msg = pre.describe_mismatch(&other).unwrap();
        assert!(msg.contains("max_trials"), "{msg}");
        assert!(msg.contains("1000") && msg.contains("1500"), "{msg}");
    }

    #[test]
    fn region_records_roundtrip_and_canonicalize() {
        let schema = flowery_regions::REGION_SCHEMA_VERSION;
        let h = Header { region_schema: schema, ..header() };
        let unit = UnitKey::new("a", Variant::Raw, 0.0, Layer::Ir);
        let profile = flowery_regions::RegionProfile {
            name: "main".into(),
            hash: 7,
            site_mass: 100,
            trials: 10,
            counts: OutcomeCounts { benign: 8, sdc: 2, detected: 0, due: 0 },
            sdc_by_inst: HashMap::new(),
            sdc_insts: Vec::new(),
        };
        let rec = RegionRecord { unit: unit.clone(), schema, regions: vec![profile] };
        let path = tmp("regions");
        let log = CheckpointLog::create(&path, &h).unwrap();
        log.record_batch(&record(0)).unwrap();
        log.record_regions(&rec).unwrap();
        drop(log);
        let (h2, batches, regions) = load_full(&path).unwrap();
        assert_eq!(h2, h);
        assert_eq!(batches.len(), 1);
        assert_eq!(regions, vec![rec.clone()]);
        // Compaction keeps the canonical region set; duplicates dedup,
        // foreign-schema records drop, conflicts error.
        compact(&path).unwrap();
        let (_, _, regions) = load_full(&path).unwrap();
        assert_eq!(regions, vec![rec.clone()]);
        let foreign = RegionRecord { schema: schema + 1, ..rec.clone() };
        let canon = canonicalize_regions(&h, vec![rec.clone(), rec.clone(), foreign]).unwrap();
        assert_eq!(canon, vec![rec.clone()]);
        let mut conflict = rec.clone();
        conflict.regions[0].trials += 1;
        assert!(canonicalize_regions(&h, vec![rec, conflict])
            .unwrap_err()
            .contains("conflicting region records"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_records_roundtrip_and_canonicalize() {
        let profile = |hits: u64| SdcProfile {
            trials: 300,
            entries: vec![flowery_passes::select::SdcEntry {
                func: FuncId(0),
                inst: InstId(4),
                sdc_hits: hits,
                exec_count: 20,
            }],
        };
        let rec = |program: &str, hits: u64| ProfileRecord {
            program: program.into(),
            module_hash: 7,
            seed: 9,
            trials: 300,
            profile: profile(hits),
        };
        // Appended mid-run in completion order, duplicated by a shard merge.
        let path = tmp("profiles");
        let log = CheckpointLog::create(&path, &header()).unwrap();
        log.record_batch(&record(0)).unwrap();
        for r in [rec("zeta", 3), rec("alpha", 5), rec("zeta", 3)] {
            log.record_profile(&r).unwrap();
        }
        drop(log);
        let (log, batches, profiles, _) = open(&path, &header(), true).unwrap();
        assert_eq!((batches.len(), profiles.len()), (1, 3));
        assert_eq!(profiles[1], rec("alpha", 5));
        // The seal keeps one record per program, sorted, ahead of the batches.
        seal(&path, log, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let kinds: Vec<&str> = text.lines().map(|l| &l[2..l.find("\":").unwrap()]).collect();
        assert_eq!(kinds, ["Header", "Profile", "Profile", "Batch"]);
        let (_, _, profiles, _) = open(&path, &header(), true).unwrap();
        assert_eq!(profiles, vec![rec("alpha", 5), rec("zeta", 3)]);
        // Two different profiles of one program are corrupt data.
        let log = CheckpointLog::append_to(&path).unwrap();
        log.record_profile(&rec("alpha", 6)).unwrap();
        drop(log);
        let err = compact(&path).unwrap_err();
        assert!(err.contains("conflicting profile records for alpha"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn golden_records_are_served_by_the_opened_log_and_canonicalized() {
        let rec = |layer, key, dyn_insts| GoldenRecord {
            layer,
            key,
            dyn_insts,
            fault_sites: 9,
            cycles: 0,
            output_hash: 5,
        };
        // Appended per unit in completion order, duplicated by a shard merge.
        let path = tmp("goldens");
        let log = CheckpointLog::create(&path, &header()).unwrap();
        log.record_batch(&record(0)).unwrap();
        for r in [rec(Layer::Asm, 3, 70), rec(Layer::Ir, 8, 60), rec(Layer::Asm, 3, 70)] {
            log.record_golden(&r).unwrap();
        }
        assert!(log.golden(Layer::Asm, 3).is_none(), "a fresh log serves nothing");
        drop(log);
        let (log, ..) = open(&path, &header(), true).unwrap();
        assert_eq!(log.golden(Layer::Asm, 3), Some(&rec(Layer::Asm, 3, 70)));
        assert!(log.golden(Layer::Ir, 3).is_none(), "the layer is part of the key");
        // The seal keeps one record per key, sorted, between profiles and batches.
        seal(&path, log, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let kinds: Vec<&str> = text.lines().map(|l| &l[2..l.find("\":").unwrap()]).collect();
        assert_eq!(kinds, ["Header", "Golden", "Golden", "Batch"]);
        assert!(text.find("\"Ir\"").unwrap() < text.find("\"Asm\"").unwrap());
        // Two different records of one program are corrupt data.
        let log = CheckpointLog::append_to(&path).unwrap();
        log.record_golden(&rec(Layer::Ir, 8, 61)).unwrap();
        drop(log);
        let err = compact(&path).unwrap_err();
        assert!(err.contains("conflicting golden records for Ir program 0000000000000008"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_header_field_has_a_class() {
        // The table is what `same_schedule` / `describe_mismatch` are
        // derived from: a field added to `Header` without a row would
        // silently never be compared. The serialized header is the ground
        // truth for "every field", in declaration order.
        let json = serde_json::to_string(&header()).unwrap();
        let at = |name: &str| json.find(&format!("\"{name}\":"));
        let mut cursor = 0;
        for (name, ..) in &HEADER_FIELDS {
            let pos = at(name).unwrap_or_else(|| panic!("table row `{name}` is not a Header field"));
            assert!(pos >= cursor, "table row `{name}` is out of declaration order");
            cursor = pos;
        }
        let keys = json.matches("\":").count() - json.matches("\\\":").count();
        assert_eq!(keys, HEADER_FIELDS.len(), "a Header field has no row in HEADER_FIELDS: {json}");

        // Every binding row, flipped alone, refuses and is named; every
        // non-binding row, flipped alone, still pairs.
        let base = header();
        let flips: [(&str, Header); 13] = [
            ("magic", Header { magic: "other".into(), ..base.clone() }),
            ("version", Header { version: 9, ..base.clone() }),
            ("seed", Header { seed: 1, ..base.clone() }),
            ("batch_size", Header { batch_size: 1, ..base.clone() }),
            ("max_trials", Header { max_trials: 1, ..base.clone() }),
            ("min_trials", Header { min_trials: 1, ..base.clone() }),
            ("ci_target", Header { ci_target: None, ..base.clone() }),
            ("double_bit", Header { double_bit: true, ..base.clone() }),
            ("fault_model", Header { fault_model: ModelSpec::MemCell, ..base.clone() }),
            ("detectors", Header { detectors: vec![DetectorSpec::Parity], ..base.clone() }),
            (
                "exec_mode",
                Header {
                    exec_mode: flowery_ir::interp::ExecMode::Native,
                    ..base.clone()
                },
            ),
            ("region_schema", Header { region_schema: 7, ..base.clone() }),
            ("static_prune", Header { static_prune: 7, ..base.clone() }),
        ];
        for ((row, class, _), (name, flipped)) in HEADER_FIELDS.iter().zip(&flips) {
            assert_eq!(row, name);
            assert_ne!(&base, flipped, "{name}");
            let binds = matches!(class, FieldClass::Schedule | FieldClass::RefuseOnMix);
            assert_eq!(base.same_schedule(flipped), !binds, "{name}");
            match base.describe_mismatch(flipped) {
                Some(msg) => assert!(binds && msg.starts_with(&format!("{name}: checkpoint has ")), "{msg}"),
                None => assert!(!binds, "{name}"),
            }
        }
    }

    #[test]
    fn admit_is_the_one_record_rule() {
        let h = header(); // 4 batches, single-bit-reg, unpruned
        assert_eq!(h.admit(&record(3)), Ok(()));
        assert_eq!(h.admit(&record(4)), Err(Refusal::OutOfSchedule));
        let foreign = BatchRecord { fault_model: ModelSpec::FlagsPc, ..record(0) };
        assert_eq!(h.admit(&foreign), Err(Refusal::FaultModel));
        let pruned = BatchRecord { prune_table: 9, pruned: 2, ..record(0) };
        assert_eq!(h.admit(&pruned), Err(Refusal::PruneProvenance));
        let phantom = BatchRecord { pruned: 2, ..record(0) };
        assert_eq!(h.admit(&phantom), Err(Refusal::PruneProvenance), "pruned trials need a table");
        // Under a pruning header the same asm record is the admitted one,
        // an unpruned asm record is not, and IR records never carry a table.
        let hp = Header { static_prune: 1, ..header() };
        assert_eq!(hp.admit(&pruned), Ok(()));
        assert_eq!(hp.admit(&record(0)), Err(Refusal::PruneProvenance));
        let ir = BatchRecord {
            unit: UnitKey::new("crc32", Variant::Raw, 0.0, Layer::Ir),
            ..record(0)
        };
        assert_eq!(hp.admit(&ir), Ok(()));
        assert_eq!(hp.admit(&BatchRecord { prune_table: 9, ..ir.clone() }), Err(Refusal::PruneProvenance));
        // A scoped re-run brings its own schedule and prunes like the campaign.
        let scoped = hp.for_region(300); // batches of 250 and 50
        let last = |counts| BatchRecord { batch: 1, counts, ..pruned.clone() };
        let fifty = OutcomeCounts { benign: 45, sdc: 5, ..Default::default() };
        assert_eq!(scoped.admit(&last(fifty)), Ok(()));
        assert_eq!(scoped.admit(&BatchRecord { batch: 2, ..last(fifty) }), Err(Refusal::OutOfSchedule));
        assert_eq!(scoped.admit(&record(1)), Err(Refusal::PruneProvenance));
        // Counts must add up to the batch's scheduled trials, and pruned
        // trials are benign ones.
        assert_eq!(
            scoped.admit(&last(record(0).counts)),
            Err(Refusal::Miscounted),
            "a whole batch in the last slot"
        );
        assert_eq!(h.admit(&BatchRecord { counts: fifty, ..record(0) }), Err(Refusal::Miscounted));
        let huge = OutcomeCounts { benign: u64::MAX, ..record(0).counts };
        assert_eq!(h.admit(&BatchRecord { counts: huge, ..record(0) }), Err(Refusal::Miscounted));
        assert_eq!(scoped.admit(&BatchRecord { pruned: 46, ..last(fifty) }), Err(Refusal::Miscounted));
        // Status lines count refusals by reason, and stay quiet without any.
        assert_eq!(refused_note(&h, &[record(0)]), "");
        let miscounted = BatchRecord { counts: fifty, ..record(2) };
        let note = refused_note(&h, &[record(0), record(4), foreign.clone(), foreign, pruned, miscounted]);
        assert_eq!(note, " (5 refused: 2 fault-model, 1 prune-provenance, 1 out-of-schedule, 1 miscounted)");
    }

    #[test]
    fn pre_model_double_bit_header_loads_as_the_explicit_model() {
        // A pre-model log selected double-bit faults with the header switch
        // alone; it must load — and resume — as `double-bit-reg`, with the
        // switch folded away so the re-sealed header is today's.
        let path = tmp("legacy-double");
        let log = CheckpointLog::create(&path, &header()).unwrap();
        log.record_batch(&record(0)).unwrap();
        drop(log);
        let legacy = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"double_bit\":false", "\"double_bit\":true")
            .replace(",\"fault_model\":\"single-bit-reg\"", "");
        std::fs::write(&path, legacy).unwrap();
        let today = Header { fault_model: ModelSpec::DoubleBitReg, ..header() };
        let (log, batches, ..) = open(&path, &today, true).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(today.admit(&batches[0]), Ok(()));
        seal(&path, log, &[]).unwrap();
        let (h, batches) = load(&path).unwrap();
        assert_eq!(h, today);
        assert_eq!(batches[0].fault_model, ModelSpec::DoubleBitReg);
        // And a single-bit campaign is refused by name.
        let err = open(&path, &header(), true).err().unwrap();
        assert!(err.contains("fault_model"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_headers_load_only_when_they_describe_one_campaign() {
        use flowery_ir::interp::ExecMode;
        // `cat a.jsonl b.jsonl`: two shards of one campaign, each with its
        // own header line. The first header is the file's.
        let path = tmp("shards");
        let cat = |second: &Header| {
            let part = tmp("shard-part");
            let mut text = String::new();
            for (h, batch) in [(&header(), 0), (second, 1)] {
                let log = CheckpointLog::create(&part, h).unwrap();
                log.record_batch(&record(batch)).unwrap();
                drop(log);
                text += &std::fs::read_to_string(&part).unwrap();
            }
            std::fs::remove_file(&part).ok();
            std::fs::write(&path, text).unwrap();
            load(&path)
        };
        let (h, batches) = cat(&header()).unwrap();
        assert_eq!((h, batches.len()), (header(), 2));
        // Shards may run different engines: the field binds nothing.
        let (h, batches) = cat(&Header { exec_mode: ExecMode::Native, ..header() }).unwrap();
        assert_eq!((h, batches.len()), (header(), 2), "the first header is kept");
        // Another seed, schedule length or prune provenance is another
        // campaign: refused by file, line and field, never sealed under
        // the first header.
        let refusals = [
            ("seed", Header { seed: 43, ..header() }),
            ("max_trials", Header { max_trials: 2000, ..header() }),
            ("static_prune", Header { static_prune: 7, ..header() }),
        ];
        for (field, second) in refusals {
            let err = cat(&second).unwrap_err();
            assert!(err.contains(&format!("{}:3: ", path.display())), "{err}");
            assert!(err.contains(&format!("{field}: ")) && err.contains("first header"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmp("magic");
        let mut h = header();
        h.magic = "something-else".into();
        CheckpointLog::create(&path, &h).unwrap();
        assert!(load(&path).unwrap_err().contains("not a harness checkpoint"));
        std::fs::remove_file(&path).ok();
    }
}
