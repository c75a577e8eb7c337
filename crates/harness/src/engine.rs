//! The work-stealing campaign engine.
//!
//! Every unit's trial schedule is cut into fixed-size batches; worker
//! threads claim batches from a shared per-unit cursor, preferring "their"
//! unit but stealing from any unfinished one, so a single pool drains the
//! whole matrix without per-campaign barriers. Trial `i` of a unit is a
//! pure function of `(seed, i)`, which makes three properties fall out:
//!
//! * **thread independence** — results are identical for any worker count;
//! * **resumability** — completed batches replayed from a checkpoint log
//!   are indistinguishable from freshly executed ones;
//! * **deterministic early stop** — the adaptive rule walks completed
//!   batches in index order and keeps the shortest prefix whose Wilson
//!   95% half-width on the SDC rate meets the target, so the stop point
//!   never depends on execution order. Batches that finished beyond the
//!   chosen prefix are simply discarded.
//!
//! Batch execution is also exposed as a library call ([`UnitRunner`]):
//! the distributed workers in `flowery-dist` lease batch indices from a
//! coordinator and run them through exactly the code path the in-process
//! workers use, which is what makes a sharded campaign byte-identical to
//! a local one.

use crate::cache::GoldenCache;
use crate::checkpoint::{CheckpointLog, Header, MAGIC, VERSION};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan::{Layer, TrialUnit, UnitKey};
use crate::prior::StaticPrior;
use crate::progress::{merge_region_counts, BatchOutcome, UnitProgress};
use flowery_faultmodel::{DetectorSpec, ModelSpec};
use flowery_inject::campaign::{AsmTrialRunner, IrTrialRunner};
use flowery_inject::{Estimate, Outcome, OutcomeCounts};
use flowery_ir::interp::{ExecConfig, Interpreter};
use flowery_ir::value::{FuncId, InstId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

pub use crate::checkpoint::BatchRecord;

/// Engine parameters. Everything here (except `threads`) shapes the trial
/// schedule and is recorded in checkpoint headers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarnessConfig {
    /// Trials per scheduling batch (also the early-stop granularity).
    pub batch_size: u64,
    /// Trial cap per unit (the paper's 3,000).
    pub max_trials: u64,
    /// Floor below which the adaptive rule never stops.
    pub min_trials: u64,
    /// Target half-width of the 95% CI on the SDC rate; `None` disables
    /// adaptive stopping (every unit runs `max_trials`).
    pub ci_target: Option<f64>,
    /// Base seed; trial `i` of every unit derives from `(seed, i)`.
    pub seed: u64,
    /// Worker threads (0 = all cores). Does not affect results.
    pub threads: usize,
    /// Two bit flips per fault instead of one. Legacy switch: shorthand
    /// for `fault_model: double-bit-reg`, kept for config compatibility.
    pub double_bit: bool,
    /// Fault model every unit's trials are sampled from (one schedule =
    /// one model; sweeps run the engine once per model).
    #[serde(default)]
    pub fault_model: ModelSpec,
    /// Modeled hardware detectors post-classifying outcomes.
    #[serde(default)]
    pub detectors: Vec<DetectorSpec>,
    /// Fast-forward trials from cached golden-run snapshots instead of
    /// re-executing the golden prefix. Bit-identical results either way
    /// (and therefore not part of the checkpoint header); default on.
    pub snapshots: bool,
    /// Rejection-skip (site, bit) pairs the static bit-lattice analysis
    /// proves masked: the sampler draws the identical trial stream, but
    /// proven-masked draws resolve as Benign without execution (so counts
    /// and Wilson CIs stay bit-identical to an unpruned run), and units
    /// are seeded flagged-first by static vulnerable-bit density. Assembly
    /// layer only; recorded in the checkpoint header (mixed-prune resumes
    /// are refused). Default off.
    #[serde(default)]
    pub static_prune: bool,
    pub exec: ExecConfig,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            batch_size: 250,
            max_trials: 3000,
            min_trials: 500,
            ci_target: None,
            seed: 0x0F10_EE41,
            threads: 0,
            double_bit: false,
            fault_model: ModelSpec::SingleBitReg,
            detectors: Vec::new(),
            snapshots: true,
            static_prune: false,
            exec: ExecConfig::default(),
        }
    }
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
            double_bit: self.double_bit,
            fault_model: self.effective_model(),
            detectors: self.detectors.clone(),
            exec_mode: self.exec.executor,
            region_schema: flowery_regions::REGION_SCHEMA_VERSION,
            static_prune: if self.static_prune { crate::prior::prune_signature() } else { 0 },
        }
    }

    /// The model trials are sampled from, resolving the legacy
    /// `double_bit` switch against the explicit `fault_model` field.
    pub fn effective_model(&self) -> ModelSpec {
        if self.double_bit && self.fault_model == ModelSpec::SingleBitReg {
            ModelSpec::DoubleBitReg
        } else {
            self.fault_model
        }
    }

    /// Schedule length per unit, in batches.
    pub fn max_batches(&self) -> u64 {
        self.max_trials.div_ceil(self.batch_size)
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// Verdict of the progress callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    Continue,
    /// Stop claiming new batches; in-flight batches finish and are
    /// checkpointed, then the engine returns with `interrupted = true`.
    Stop,
}

/// Optional engine inputs.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Log to append completed batches to.
    pub checkpoint: Option<&'a CheckpointLog>,
    /// Batches replayed from a previous run (see [`crate::checkpoint::load`]).
    pub preloaded: Vec<BatchRecord>,
    /// Called after every batch with fresh metrics; may stop the run.
    pub progress: Option<&'a (dyn Fn(&MetricsSnapshot) -> Control + Sync)>,
    /// Fold `preloaded` and report without executing anything: units whose
    /// replayed batches do not decide them are listed as `pending`. Used by
    /// the distributed coordinator, which merges remotely executed batches
    /// and only needs the deterministic fold.
    pub replay_only: bool,
}

/// Final tally for one completed unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitResult {
    pub key: UnitKey,
    /// Trials actually counted (a batch-aligned prefix of the schedule).
    pub trials: u64,
    pub counts: OutcomeCounts,
    /// SDC rate with Wilson 95% half-width.
    pub sdc: Estimate,
    pub stopped_early: bool,
    /// IR layer: SDC attributions by static instruction.
    pub sdc_by_inst: HashMap<(FuncId, InstId), u64>,
    /// Assembly layer: program indices of SDC injections, in trial order.
    pub sdc_insts: Vec<u32>,
    /// Per-region outcome tallies, keyed by function name and sorted by
    /// it; `flowery_regions::OTHER_REGION` collects unattributable trials.
    #[serde(default)]
    pub region_counts: Vec<(String, OutcomeCounts)>,
    /// Trials resolved virtually by the static prune (subset of
    /// `counts.benign`); 0 when pruning was off.
    #[serde(default)]
    pub pruned: u64,
    pub golden_dyn_insts: u64,
    pub golden_sites: u64,
    /// Assembly layer only; 0 at IR.
    pub golden_cycles: u64,
}

/// Outcome of one engine run.
pub struct CampaignReport {
    /// Completed units, in input order. When `interrupted`, units whose
    /// schedule did not finish are listed in `pending` instead.
    pub units: Vec<UnitResult>,
    pub pending: Vec<UnitKey>,
    pub metrics: MetricsSnapshot,
    pub interrupted: bool,
    /// First checkpoint I/O error, if any (the run stops on one).
    pub error: Option<String>,
}

struct UnitState {
    cursor: AtomicU64,
    done: AtomicBool,
    /// Batches recorded (executed or reused) — feeds the ETA estimate.
    recorded: AtomicU64,
    progress: Mutex<UnitProgress>,
}

struct Shared<'a> {
    units: &'a [TrialUnit],
    states: Vec<UnitState>,
    /// Unit indices in seeding order. Identity order normally; with
    /// static pruning on, units sort by descending static vulnerable-bit
    /// density (flagged-first), so the densest campaigns start earliest.
    /// Scheduling only — results are order-independent by construction.
    order: Vec<usize>,
    cfg: &'a HarnessConfig,
    header: Header,
    max_batches: u64,
    cache: &'a GoldenCache,
    metrics: Metrics,
    checkpoint: Option<&'a CheckpointLog>,
    progress: Option<&'a (dyn Fn(&MetricsSnapshot) -> Control + Sync)>,
    stop: AtomicBool,
    error: Mutex<Option<String>>,
}

impl Shared<'_> {
    fn snapshot(&self) -> MetricsSnapshot {
        let mut remaining = 0u64;
        for st in &self.states {
            if !st.done.load(Ordering::Relaxed) {
                let rec = st.recorded.load(Ordering::Relaxed).min(self.max_batches);
                remaining += (self.max_batches - rec) * self.cfg.batch_size;
            }
        }
        self.metrics.snapshot(self.units.len(), remaining, self.cache.stats())
    }

    /// Record a finished batch: checkpoint it, fold it into the unit's
    /// progress, update metrics, and poll the progress callback.
    fn finish_batch(&self, ui: usize, batch: u64, data: BatchOutcome) {
        if let Some(log) = self.checkpoint {
            let rec = data.to_record(self.units[ui].key.clone(), batch, self.cfg.effective_model());
            if let Err(e) = log.record_batch(&rec) {
                self.error.lock().unwrap().get_or_insert(e);
                self.stop.store(true, Ordering::Relaxed);
            }
        }
        let engine = self.units[ui].engine(&self.cfg.exec, false);
        self.metrics.record_batch(&data.counts, data.ff_insts, data.exec_insts, engine);
        if data.pruned > 0 {
            self.metrics.record_pruned(data.pruned);
        }
        let st = &self.states[ui];
        st.recorded.fetch_add(1, Ordering::Relaxed);
        let newly_done = st.progress.lock().unwrap().insert(batch, data, &self.header);
        if newly_done {
            st.done.store(true, Ordering::Relaxed);
            self.metrics.record_unit_done();
        }
        if let Some(cb) = self.progress {
            if cb(&self.snapshot()) == Control::Stop {
                self.stop.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// A per-worker trial executor for one unit, built on the cached golden.
enum RunnerInner<'u> {
    Ir(IrTrialRunner<'u>),
    Asm(AsmTrialRunner<'u>),
}

/// Executes one unit's trial batches. This is the engine's inner loop
/// exposed as a library call: the distributed workers of `flowery-dist`
/// build one per leased unit (goldens and snapshot sets come from the
/// worker-local [`GoldenCache`]) and produce [`BatchOutcome`]s that merge
/// byte-identically with locally executed ones.
pub struct UnitRunner<'u> {
    inner: RunnerInner<'u>,
    unit: &'u TrialUnit,
    /// Static prune oracle, present when `cfg.static_prune` and this is
    /// an assembly unit (the bit lattice is an assembly-layer analysis).
    prior: Option<StaticPrior>,
}

impl<'u> UnitRunner<'u> {
    pub fn new(unit: &'u TrialUnit, cache: &GoldenCache, cfg: &HarnessConfig) -> UnitRunner<'u> {
        let exec = &cfg.exec;
        let inner = match unit.key.layer {
            Layer::Ir => {
                let raw = unit.raw.as_deref().map(Interpreter::new);
                RunnerInner::Ir(cache.runner(Interpreter::new(&unit.module), raw, cfg.snapshots, exec))
            }
            Layer::Asm => RunnerInner::Asm(cache.runner(unit.machine(), unit.raw_machine(), cfg.snapshots, exec)),
        };
        let prior = (cfg.static_prune && unit.key.layer == Layer::Asm).then(|| {
            let p = unit.program.as_ref().expect("asm unit has a program");
            let table = cache.asm_bits(&unit.module, p);
            let map = cache.asm_site_map(&unit.module, p, exec);
            let hash = table.fingerprint(crate::cache::program_hash(p));
            StaticPrior::new(table, map, hash)
        });
        UnitRunner { inner, unit, prior }
    }

    /// Run batch `batch` of the schedule `cfg` defines: trial indices
    /// `[batch * batch_size, min((batch+1) * batch_size, max_trials))`.
    pub fn run_batch(&mut self, cfg: &HarnessConfig, batch: u64) -> BatchOutcome {
        let start = batch * cfg.batch_size;
        let end = (start + cfg.batch_size).min(cfg.max_trials);
        let model = cfg.effective_model();
        let mut data = BatchOutcome {
            prune_table: self.prior.as_ref().map_or(0, |p| p.table_hash()),
            ..BatchOutcome::default()
        };
        // Each trial is attributed to the region (function) containing its
        // injection site; trials whose fault never landed (e.g. crash in
        // the prefix) fall into the OTHER_REGION bucket.
        let attribute = |data: &mut BatchOutcome, name: &str, outcome: Outcome| {
            let i = match data.region_counts.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => i,
                Err(i) => {
                    data.region_counts.insert(i, (name.to_string(), OutcomeCounts::default()));
                    i
                }
            };
            data.region_counts[i].1.record(outcome);
        };
        for i in start..end {
            let t = match (&mut self.inner, &self.prior) {
                (RunnerInner::Ir(r), _) => r.run_trial_model(cfg.seed, i, model, &cfg.detectors),
                (RunnerInner::Asm(r), None) => r.run_trial_model(cfg.seed, i, model, &cfg.detectors),
                (RunnerInner::Asm(r), Some(prior)) => {
                    let (t, pruned) =
                        r.run_trial_model_pruned(cfg.seed, i, model, &cfg.detectors, &|s| prior.masked_inst(s));
                    data.pruned += u64::from(pruned);
                    t
                }
            };
            data.counts.record(t.outcome);
            data.ff_insts += t.ff_insts;
            data.exec_insts += t.exec_insts;
            let ir_func = t.injected_at.map(|loc| self.unit.module.func(loc.0).name.as_str());
            let asm_func = t.injected_inst.and_then(|idx| {
                let program = self.unit.program.as_ref().expect("asm unit has a program");
                let func = program.funcs.iter().find(|f| (f.entry..f.end).contains(&idx));
                func.map(|f| f.name.as_str())
            });
            attribute(&mut data, ir_func.or(asm_func).unwrap_or(flowery_regions::OTHER_REGION), t.outcome);
            if t.outcome == Outcome::Sdc {
                if let Some(loc) = t.injected_at {
                    *data.sdc_by_inst.entry(loc).or_insert(0) += 1;
                }
                data.sdc_insts.extend(t.injected_inst);
            }
        }
        data
    }
}

fn worker(windex: usize, sh: &Shared<'_>) {
    let mut runners: HashMap<usize, UnitRunner<'_>> = HashMap::new();
    let n = sh.units.len();
    loop {
        if sh.stop.load(Ordering::Relaxed) {
            return;
        }
        // Prefer unit `windex % n` of the seeding order, steal from the
        // rest in round-robin (flagged-first when pruning is on).
        let mut claimed = None;
        'scan: for off in 0..n {
            let ui = sh.order[(windex + off) % n];
            let st = &sh.states[ui];
            if st.done.load(Ordering::Relaxed) {
                continue;
            }
            loop {
                let b = st.cursor.fetch_add(1, Ordering::Relaxed);
                if b >= sh.max_batches {
                    continue 'scan;
                }
                // Batches satisfied by a checkpoint are skipped, not re-run.
                if sh.states[ui].progress.lock().unwrap().has_batch(b) {
                    continue;
                }
                claimed = Some((ui, b));
                break 'scan;
            }
        }
        let Some((ui, b)) = claimed else { return };
        let runner = runners
            .entry(ui)
            .or_insert_with(|| UnitRunner::new(&sh.units[ui], sh.cache, sh.cfg));
        let data = runner.run_batch(sh.cfg, b);
        sh.finish_batch(ui, b, data);
    }
}

/// Run every unit's campaign under one scheduler. See the module docs for
/// the determinism guarantees.
pub fn run_units(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    opts: RunOptions<'_>,
) -> CampaignReport {
    assert!(cfg.batch_size > 0 && cfg.max_trials > 0, "empty schedule");
    let max_batches = cfg.max_batches();
    let metrics = Metrics::with_mode(cfg.exec.executor);
    if units.is_empty() {
        return CampaignReport {
            units: Vec::new(),
            pending: Vec::new(),
            metrics: metrics.snapshot(0, 0, cache.stats()),
            interrupted: false,
            error: None,
        };
    }

    let states: Vec<UnitState> = units
        .iter()
        .map(|_| UnitState {
            cursor: AtomicU64::new(0),
            done: AtomicBool::new(false),
            recorded: AtomicU64::new(0),
            progress: Mutex::new(UnitProgress::new(max_batches)),
        })
        .collect();

    // Seeding order: identity normally; with static pruning, assembly
    // units sort by descending mean vulnerable-bit density (statically
    // flagged-dense programs first — the lint drives the sampler). IR
    // units rank as fully vulnerable (no bit proofs at that layer). The
    // bit tables computed here are cached, so the per-unit runners reuse
    // them for the prune oracle itself.
    let order: Vec<usize> = if cfg.static_prune {
        let density: Vec<f64> = units
            .iter()
            .map(|u| match (&u.key.layer, u.program.as_ref()) {
                (Layer::Asm, Some(p)) => {
                    let table = cache.asm_bits(&u.module, p);
                    metrics.record_bits_proven(table.proven_pairs);
                    table.mean_vulnerable()
                }
                _ => 1.0,
            })
            .collect();
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by(|&a, &b| {
            density[b]
                .partial_cmp(&density[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    } else {
        (0..units.len()).collect()
    };

    let sh = Shared {
        units,
        states,
        order,
        cfg,
        header: cfg.header(),
        max_batches,
        cache,
        metrics,
        checkpoint: opts.checkpoint,
        progress: opts.progress,
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
    };

    // Replay checkpointed batches before any worker starts.
    let key_index: HashMap<&UnitKey, usize> = units.iter().enumerate().map(|(i, u)| (&u.key, i)).collect();
    for rec in &opts.preloaded {
        let Some(&ui) = key_index.get(&rec.unit) else { continue };
        if rec.batch >= max_batches {
            continue;
        }
        // Batches sampled under a different fault model belong to a
        // different schedule; replaying them would conflate models.
        if rec.fault_model != cfg.effective_model() {
            continue;
        }
        // Same for prune provenance: outcome-identical, but a canonical
        // log must not mix audited and unaudited trials (see checkpoint).
        // Only assembly units carry a prune table — IR records are 0
        // under both modes.
        if rec.unit.layer == Layer::Asm && (rec.prune_table != 0) != cfg.static_prune {
            continue;
        }
        let st = &sh.states[ui];
        let mut p = st.progress.lock().unwrap();
        if p.has_batch(rec.batch) {
            continue;
        }
        sh.metrics.record_reused(&rec.counts);
        if rec.pruned > 0 {
            sh.metrics.record_pruned(rec.pruned);
        }
        st.recorded.fetch_add(1, Ordering::Relaxed);
        if p.insert(rec.batch, BatchOutcome::from_record(rec), &sh.header) {
            st.done.store(true, Ordering::Relaxed);
            sh.metrics.record_unit_done();
        }
    }

    if !opts.replay_only {
        std::thread::scope(|scope| {
            for w in 0..cfg.effective_threads() {
                let sh = &sh;
                scope.spawn(move || worker(w, sh));
            }
        });
    }

    // Merge: for each decided unit, fold batches 0..k in index order.
    let mut results = Vec::new();
    let mut pending = Vec::new();
    for (ui, unit) in units.iter().enumerate() {
        let p = sh.states[ui].progress.lock().unwrap();
        let Some(k) = p.decided() else {
            pending.push(unit.key.clone());
            continue;
        };
        let mut counts = OutcomeCounts::default();
        let mut sdc_by_inst: HashMap<(FuncId, InstId), u64> = HashMap::new();
        let mut sdc_insts = Vec::new();
        let mut region_counts = Vec::new();
        let mut pruned = 0;
        for b in 0..k {
            let data = p.batch(b).expect("decided prefix is complete");
            counts.merge(&data.counts);
            pruned += data.pruned;
            for (loc, n) in &data.sdc_by_inst {
                *sdc_by_inst.entry(*loc).or_insert(0) += n;
            }
            sdc_insts.extend_from_slice(&data.sdc_insts);
            merge_region_counts(&mut region_counts, &data.region_counts);
        }
        let trials = (k * cfg.batch_size).min(cfg.max_trials);
        let (golden_dyn_insts, golden_sites, golden_cycles) = match unit.key.layer {
            Layer::Ir => {
                let g = cache.ir_golden(&unit.module, &cfg.exec);
                (g.dyn_insts, g.fault_sites, 0)
            }
            Layer::Asm => {
                let prog = unit.program.as_ref().expect("asm unit has a program");
                let g = cache.asm_golden(&unit.module, prog, &cfg.exec);
                (g.dyn_insts, g.fault_sites, g.cycles)
            }
        };
        results.push(UnitResult {
            key: unit.key.clone(),
            trials,
            counts,
            sdc: Estimate::proportion(counts.sdc, trials),
            stopped_early: trials < cfg.max_trials,
            sdc_by_inst,
            sdc_insts,
            region_counts,
            pruned,
            golden_dyn_insts,
            golden_sites,
            golden_cycles,
        });
    }

    let interrupted = sh.stop.load(Ordering::Relaxed);
    let metrics = sh.snapshot();
    let error = sh.error.lock().unwrap().clone();
    CampaignReport { units: results, pending, metrics, interrupted, error }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_rule_is_order_independent() {
        let cfg = HarnessConfig {
            batch_size: 10,
            max_trials: 40,
            min_trials: 20,
            ci_target: Some(0.2),
            ..Default::default()
        };
        let rule = cfg.header();
        let quiet = || BatchOutcome {
            counts: OutcomeCounts { benign: 10, ..Default::default() },
            ..Default::default()
        };
        // In-order completion: batch 1 decides (20 trials, 0 SDC).
        let mut a = UnitProgress::new(4);
        assert!(!a.insert(0, quiet(), &rule));
        assert!(a.insert(1, quiet(), &rule));
        // Out-of-order completion decides identically.
        let mut b = UnitProgress::new(4);
        assert!(!b.insert(3, quiet(), &rule));
        assert!(!b.insert(1, quiet(), &rule));
        assert!(b.insert(0, quiet(), &rule));
        assert_eq!(a.decided(), b.decided());
        // 0 SDC in 20 trials: Wilson half-width ~0.087 <= 0.2.
        assert_eq!(a.decided(), Some(2));
    }

    #[test]
    fn executed_instructions_are_booked_under_the_engine_that_ran_them() {
        use crate::plan::Variant;
        use flowery_ir::interp::ExecMode;
        use std::sync::Arc;
        let m = Arc::new(
            flowery_lang::compile(
                "t",
                "int main() { int s = 0; int i; for (i = 0; i < 40; i = i + 1) { s = s + i * i; } output(s); return 0; }",
            )
            .unwrap(),
        );
        let p = Arc::new(flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default()));
        let units = [
            TrialUnit::asm(UnitKey::new("t", Variant::Raw, 0.0, Layer::Asm), m.clone(), p),
            TrialUnit::ir(UnitKey::new("t", Variant::Raw, 0.0, Layer::Ir), m),
        ];
        for mode in [ExecMode::Interp, ExecMode::Compiled, ExecMode::Native] {
            let cfg = HarnessConfig {
                batch_size: 20,
                max_trials: 40,
                threads: 1,
                exec: ExecConfig { executor: mode, ..ExecConfig::default() },
                ..Default::default()
            };
            let buckets = |s: &MetricsSnapshot| [s.interp_insts, s.compiled_insts, s.native_insts];
            // An assembly-only matrix books everything under the configured engine.
            let asm = run_units(&units[..1], &cfg, &GoldenCache::new(), RunOptions::default()).metrics;
            assert!(asm.exec_insts > 0);
            let mut want = [0; 3];
            want[mode as usize] = asm.exec_insts;
            assert_eq!(buckets(&asm), want, "{mode}");
            // IR units always run on the IR interpreter, whatever the engine.
            let ir = run_units(&units[1..], &cfg, &GoldenCache::new(), RunOptions::default()).metrics;
            assert_eq!(buckets(&ir), [ir.exec_insts, 0, 0], "{mode}");
        }
    }

    #[test]
    fn without_ci_target_only_the_full_schedule_decides() {
        let cfg = HarnessConfig {
            batch_size: 10,
            max_trials: 25,
            ci_target: None,
            ..Default::default()
        };
        let rule = cfg.header();
        let mut p = UnitProgress::new(3);
        let full = |n| BatchOutcome {
            counts: OutcomeCounts { benign: n, ..Default::default() },
            ..Default::default()
        };
        assert!(!p.insert(0, full(10), &rule));
        assert!(!p.insert(1, full(10), &rule));
        assert!(p.insert(2, full(5), &rule));
        assert_eq!(p.decided(), Some(3));
    }
}
