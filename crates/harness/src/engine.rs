//! The work-stealing campaign engine.
//!
//! Every unit's trial schedule is cut into fixed-size batches; worker
//! threads claim batches from a shared per-unit cursor, preferring "their"
//! stretch of units but stealing from any unfinished one, so a single pool
//! drains the whole matrix without per-campaign barriers. Trial `i` of a unit is a
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
//! any process may run any batch of the schedule through exactly the code
//! path the in-process workers use, which is what makes a campaign sharded
//! across processes or hosts byte-identical to a local one (DESIGN §6).

use crate::cache::GoldenCache;
use crate::checkpoint::{BatchRecord, CheckpointLog, GoldenRecord, Header};
use crate::incremental::{observed, Scope};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan::{Layer, TrialUnit, UnitKey};
use crate::progress::{BatchOutcome, UnitProgress};
use flowery_backend::AsmLayer;
use flowery_faultmodel::{DetectorSpec, ModelSpec};
use flowery_inject::campaign::{AsmTrialRunner, IrTrialRunner};
use flowery_inject::{Estimate, OutcomeCounts};
use flowery_ir::fnv1a;
use flowery_ir::interp::substrate::{RunHead, RunResult};
use flowery_ir::interp::{ExecConfig, Interpreter, IrLayer};
use flowery_ir::value::{FuncId, InstId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Engine parameters. Everything here (except `threads`) shapes the trial
/// schedule and is recorded in checkpoint headers.
#[derive(Debug, Clone, PartialEq)]
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
    /// Fault model every unit's trials are sampled from (one schedule =
    /// one model; sweeps run the engine once per model).
    pub fault_model: ModelSpec,
    /// Modeled hardware detectors post-classifying outcomes.
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
            fault_model: ModelSpec::SingleBitReg,
            detectors: Vec::new(),
            snapshots: true,
            static_prune: false,
            exec: ExecConfig::default(),
        }
    }
}

impl HarnessConfig {
    /// The model trials are sampled from.
    pub fn effective_model(&self) -> ModelSpec {
        self.fault_model
    }

    /// Schedule length per unit, in batches.
    pub fn max_batches(&self) -> u64 {
        self.max_trials.div_ceil(self.batch_size)
    }

    /// Worker threads to start: `threads`, or every available core for 0.
    pub(crate) fn workers(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
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

/// The progress callback: called after every batch with fresh metrics.
pub type Progress<'a> = &'a (dyn Fn(&MetricsSnapshot) -> Control + Sync);

/// The stock progress callback: print `tag` and a status line to stderr at
/// most once a second, and stop the run once a shutdown was requested
/// (after [`crate::shutdown::install`], the first Ctrl-C) — in-flight
/// batches finish and are checkpointed, then the engine returns.
pub fn status_printer(tag: &'static str) -> impl Fn(&MetricsSnapshot) -> Control + Sync {
    let last_print = Mutex::new(std::time::Instant::now());
    move |snap| {
        if crate::shutdown::requested() {
            return Control::Stop;
        }
        let mut last = last_print.lock().unwrap();
        if last.elapsed().as_secs_f64() >= 1.0 {
            eprintln!("{tag} {}", snap.render());
            *last = std::time::Instant::now();
        }
        Control::Continue
    }
}

/// Optional engine inputs.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Log to append completed batches and golden records to, and whose
    /// golden records a resumed log serves.
    pub checkpoint: Option<&'a CheckpointLog>,
    /// Batches replayed from a previous run (see [`crate::checkpoint::open`]).
    pub preloaded: Vec<BatchRecord>,
    /// Called after every batch with fresh metrics; may stop the run.
    pub progress: Option<Progress<'a>>,
    /// Fold `preloaded` and report without executing anything: units whose
    /// replayed batches do not decide them are listed as `pending`. No
    /// caller sets it; `benchmark/src/staged.rs` names it in an exhaustive
    /// literal, so it stays until ROADMAP 1(a) retires it.
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
    /// Trials resolved by the static prune (subset of
    /// `counts.benign`); 0 when pruning was off.
    #[serde(default)]
    pub pruned: u64,
    pub golden_dyn_insts: u64,
    pub golden_sites: u64,
    /// Assembly layer only; 0 at IR.
    pub golden_cycles: u64,
}

/// Outcome of one engine run.
#[derive(Default)]
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

impl CampaignReport {
    /// Every unit's result, in input order — or an `Err` for a run that hit
    /// a checkpoint error or was stopped before every unit finished.
    pub fn complete(self) -> Result<Vec<UnitResult>, String> {
        match self.error {
            Some(e) => Err(e),
            None if self.pending.is_empty() => Ok(self.units),
            None => Err(format!("interrupted: {} unit(s) unfinished", self.pending.len())),
        }
    }
}

/// One schedulable item: a unit's whole campaign or — with a scope — a
/// re-run of one of its regions under the scope's own seed and trial
/// count. Both kinds are cut into batches and claimed by the same workers.
#[derive(Clone, Copy)]
pub(crate) struct WorkItem<'a> {
    pub unit: &'a TrialUnit,
    pub scope: Option<&'a Scope>,
}

/// What [`run_items`] hands back, per item in input order: the decided
/// prefix folded into one tally, or `None` for an item the run left
/// undecided.
pub(crate) struct Drained {
    pub tallies: Vec<Option<BatchOutcome>>,
    pub metrics: MetricsSnapshot,
    pub interrupted: bool,
    pub error: Option<String>,
}

struct ItemState {
    cursor: AtomicU64,
    /// Batches claimed and not yet finished.
    in_flight: AtomicU64,
    done: AtomicBool,
    /// Batches recorded (executed or reused) — feeds the ETA estimate.
    recorded: AtomicU64,
    progress: Mutex<UnitProgress>,
    /// Stopping and admission rule: the campaign header, or its
    /// [`Header::for_region`] form for a scoped item.
    rule: Header,
}

impl ItemState {
    /// Claim the item's next batch that no checkpoint holds, counting it in
    /// flight; `None` once the cursor has passed the schedule.
    fn claim(&self) -> Option<u64> {
        loop {
            let b = self.cursor.fetch_add(1, Ordering::Relaxed);
            if b >= self.rule.max_batches() {
                return None;
            }
            // Batches satisfied by a checkpoint are skipped, not re-run.
            if !self.progress.lock().unwrap().has_batch(b) {
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                return Some(b);
            }
        }
    }
}

struct Shared<'a> {
    items: &'a [WorkItem<'a>],
    states: Vec<ItemState>,
    /// Item indices in [`seeding_order`]. Scheduling only — results are
    /// order-independent by construction.
    order: Vec<usize>,
    cfg: &'a HarnessConfig,
    cache: &'a GoldenCache,
    metrics: Metrics,
    checkpoint: Option<&'a CheckpointLog>,
    progress: Option<Progress<'a>>,
    stop: AtomicBool,
    error: Mutex<Option<String>>,
}

impl Shared<'_> {
    /// Stop the run on its first error.
    fn fail(&self, error: String) {
        self.error.lock().unwrap().get_or_insert(error);
        self.stop.store(true, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut remaining = 0u64;
        for st in &self.states {
            if !st.done.load(Ordering::Relaxed) {
                let max = st.rule.max_batches();
                remaining += (max - st.recorded.load(Ordering::Relaxed).min(max)) * self.cfg.batch_size;
            }
        }
        self.metrics.snapshot(self.items.len(), remaining, self.cache.stats())
    }

    /// Record a finished batch: checkpoint it, fold it into the item's
    /// progress, update metrics, and poll the progress callback.
    fn finish_batch(&self, ii: usize, batch: u64, data: BatchOutcome) {
        let WorkItem { unit, scope } = &self.items[ii];
        // Scoped tallies describe one region, not the unit's schedule:
        // they never enter a batch log.
        if let (Some(log), None) = (self.checkpoint, scope) {
            let rec = BatchRecord::new(unit.key.clone(), batch, self.cfg.fault_model, &data);
            if let Err(e) = log.record_batch(&rec) {
                self.fail(e);
            }
        }
        let engine = unit.engine(&self.cfg.exec);
        self.metrics.record_batch(&data, engine);
        self.metrics.record_pruned(data.pruned);
        let st = &self.states[ii];
        st.recorded.fetch_add(1, Ordering::Relaxed);
        let newly_done = st.progress.lock().unwrap().insert(batch, data, &st.rule);
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
/// exposed as a library call: goldens and snapshot sets come from the
/// caller's [`GoldenCache`], and the [`BatchOutcome`]s merge
/// byte-identically with ones executed by any other process.
pub struct UnitRunner<'u> {
    inner: RunnerInner<'u>,
    unit: &'u TrialUnit,
    /// Batch records' fingerprint of the machine's bit table; 0 unpruned.
    prune_table: u64,
    scope: Option<Scope>,
}

impl<'u> UnitRunner<'u> {
    /// The runner of `unit` on `cache`'s golden. Panics on a program no
    /// trial can run against, which a campaign refuses instead.
    pub fn new(unit: &'u TrialUnit, cache: &GoldenCache, cfg: &HarnessConfig) -> UnitRunner<'u> {
        UnitRunner::for_item(unit, cache, cfg, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The runner of one work item: [`UnitRunner::new`] — refusing, naming
    /// the unit, a program whose golden run does not complete or has no
    /// fault sites at its layer — and with a scope its trials confined to
    /// the region — batches index `scope.trials`,
    /// drawn from `scope.seed` over the fault sites *inside the region*
    /// ([`TrialRunner::restrict`](flowery_inject::campaign::TrialRunner::restrict)),
    /// every trial attributed to it. Refuses a scope planned against
    /// another program: one whose `mass` is not what this build of the unit
    /// executes inside the region (0 for a region it does not have).
    pub(crate) fn for_item(
        unit: &'u TrialUnit,
        cache: &GoldenCache,
        cfg: &HarnessConfig,
        scope: Option<&Scope>,
    ) -> Result<UnitRunner<'u>, String> {
        let (exec, mut prune_table) = (&cfg.exec, 0);
        let trials = scope.map_or(cfg.max_trials, |s| s.trials);
        let key = unit.content_key(cache);
        let inner = match &unit.program {
            Some(p) => {
                let mut machine = unit.machine();
                if cfg.static_prune {
                    // The machine decides each draw where it lands.
                    let table = cache.asm_bits(&unit.module, p, key);
                    prune_table = table.fingerprint(key);
                    machine = machine.pruning(table.verdicts.iter().map(|v| v.proven_masked).collect());
                }
                cache.runner(machine, key, cfg.snapshots, exec, trials).map(RunnerInner::Asm)
            }
            None => cache
                .runner(Interpreter::new(&unit.module), key, cfg.snapshots, exec, trials)
                .map(RunnerInner::Ir),
        };
        let inner = inner.map_err(|e| format!("{}: {e}", unit.key))?;
        let mut runner = UnitRunner { inner, unit, prune_table, scope: None };
        let Some(scope) = scope else { return Ok(runner) };
        let sites = observed(unit, cache, cfg);
        let region = unit.region_id(&scope.region).unwrap_or(usize::MAX);
        let mass = sites.mass(region);
        if mass == 0 || mass != scope.mass {
            return Err(format!(
                "{}: region `{}` executes {mass} fault sites in this build, the scope was planned for {}",
                unit.key, scope.region, scope.mass
            ));
        }
        match &mut runner.inner {
            RunnerInner::Ir(r) => r.restrict(sites, region),
            RunnerInner::Asm(r) => r.restrict(sites, region),
        }
        runner.scope = Some(scope.clone());
        Ok(runner)
    }

    /// Run batch `batch` of the schedule `cfg` defines: trial indices
    /// `[batch * batch_size, min((batch+1) * batch_size, max_trials))`
    /// (of the scope's own seed and trial count for a scoped runner).
    pub fn run_batch(&mut self, cfg: &HarnessConfig, batch: u64) -> BatchOutcome {
        let (seed, trials) = match &self.scope {
            Some(s) => (s.seed, s.trials),
            None => (cfg.seed, cfg.max_trials),
        };
        let start = batch * cfg.batch_size;
        let end = (start + cfg.batch_size).min(trials);
        let (model, detectors) = (cfg.fault_model, cfg.detectors.as_slice());
        let mut data = BatchOutcome { prune_table: self.prune_table, ..BatchOutcome::default() };
        for i in start..end {
            let t = match &mut self.inner {
                RunnerInner::Ir(r) => r.run_trial_model(seed, i, model, detectors),
                RunnerInner::Asm(r) => r.run_trial_model(seed, i, model, detectors),
            };
            // Attribute the trial to its scope, else to the region (function)
            // holding its injection site; a fault that never landed (e.g.
            // crash in the prefix) falls into OTHER_REGION.
            let site = t.injected_at.map(|loc| self.unit.module.func(loc.0).name.as_str());
            let site = site.or(t.injected_inst.map(|idx| self.unit.inst_region(idx)));
            let region = self.scope.as_ref().map(|s| s.region.as_str()).or(site);
            data.record(&t, Some(region.unwrap_or(flowery_regions::OTHER_REGION)));
        }
        data
    }
}

fn worker(home: usize, sh: &Shared<'_>) {
    let mut runners: HashMap<usize, UnitRunner<'_>> = HashMap::new();
    let n = sh.items.len();
    loop {
        if sh.stop.load(Ordering::Relaxed) {
            return;
        }
        // Drain the seeding order from `home` on, wrapping round. Homes are
        // spread evenly, so a worker keeps a stretch of items — and the
        // runners it builds for them — to itself until another worker has
        // run dry and steals from that stretch. Of the items that can stop
        // early, a thief takes one no one is running before it joins one
        // that is: a batch run beside another of the same item is thrown
        // away when the other decides the item.
        let scan = |join_busy: bool| {
            (0..n).map(|off| sh.order[(home + off) % n]).find_map(|ii| {
                let st = &sh.states[ii];
                let busy = st.rule.ci_target.is_some() && st.in_flight.load(Ordering::Relaxed) > 0;
                let skip = st.done.load(Ordering::Relaxed) || (busy && !join_busy);
                if skip {
                    None
                } else {
                    st.claim().map(|b| (ii, b))
                }
            })
        };
        let Some((ii, b)) = scan(false).or_else(|| scan(true)) else {
            return;
        };
        let runner = match runners.entry(ii) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let WorkItem { unit, scope } = sh.items[ii];
                match UnitRunner::for_item(unit, sh.cache, sh.cfg, scope) {
                    Ok(runner) => v.insert(runner),
                    Err(e) => return sh.fail(e),
                }
            }
        };
        let data = runner.run_batch(sh.cfg, b);
        sh.finish_batch(ii, b, data);
        let st = &sh.states[ii];
        st.in_flight.fetch_sub(1, Ordering::Relaxed);
        // With no batch of the item left to claim, its runner — and the
        // scratch image it pins — is never needed again.
        if st.done.load(Ordering::Relaxed) || st.cursor.load(Ordering::Relaxed) >= st.rule.max_batches() {
            runners.remove(&ii);
        }
    }
}

/// Seeding order: identity normally; with static pruning, unscoped
/// assembly units sort by descending mean vulnerable-bit density
/// (statically flagged-dense programs first — the lint drives the
/// sampler). Everything else ranks as fully vulnerable (no bit proofs
/// apply). The bit tables are computed here, on the campaign's threads,
/// and cached, so the per-unit runners reuse them for the prune oracle
/// itself.
fn seeding_order(items: &[WorkItem<'_>], cfg: &HarnessConfig, cache: &GoldenCache, metrics: &Metrics) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    if cfg.static_prune {
        let density = par_map(items, cfg.workers(), |item| match (item.scope, item.unit.program.as_ref()) {
            (None, Some(p)) => {
                let table = cache.asm_bits(&item.unit.module, p, item.unit.content_key(cache));
                metrics.record_bits_proven(table.proven_pairs);
                table.mean_vulnerable()
            }
            _ => 1.0,
        });
        order.sort_by(|&a, &b| {
            density[b]
                .partial_cmp(&density[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }
    order
}

/// `f` of every item, in item order, computed on up to `threads` threads
/// that each claim the next item.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut built = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return built };
            built.push((i, f(item)));
        }
    };
    let mut built: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(items.len())).map(|_| scope.spawn(work)).collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        joined.flatten().collect()
    });
    built.sort_unstable_by_key(|&(i, _)| i);
    built.into_iter().map(|(_, r)| r).collect()
}

/// The one scheduler: drain every item's batches with one worker pool.
/// `metrics` arrives from the caller so plan-level counters recorded
/// before the run land in the same snapshot.
pub(crate) fn run_items(
    items: &[WorkItem<'_>],
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    metrics: Metrics,
    opts: RunOptions<'_>,
) -> Drained {
    assert!(cfg.batch_size > 0 && cfg.max_trials > 0, "empty schedule");
    let header = cfg.header();
    let states: Vec<ItemState> = items
        .iter()
        .map(|item| {
            let rule = item.scope.map_or_else(|| header.clone(), |s| header.for_region(s.trials));
            ItemState {
                cursor: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                done: AtomicBool::new(false),
                recorded: AtomicU64::new(0),
                progress: Mutex::new(UnitProgress::new(rule.max_batches())),
                rule,
            }
        })
        .collect();
    let sh = Shared {
        items,
        states,
        order: seeding_order(items, cfg, cache, &metrics),
        cfg,
        cache,
        metrics,
        checkpoint: opts.checkpoint,
        progress: opts.progress,
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
    };

    // Replay checkpointed batches before any worker starts. Records the
    // campaign's admission rule refuses are skipped (and counted): they
    // belong to another schedule.
    let by_key: HashMap<&UnitKey, usize> = items
        .iter()
        .enumerate()
        .filter(|(_, item)| item.scope.is_none())
        .map(|(i, item)| (&item.unit.key, i))
        .collect();
    for rec in &opts.preloaded {
        let Some(&ii) = by_key.get(&rec.unit) else { continue };
        let st = &sh.states[ii];
        if st.rule.admit(rec).is_err() {
            sh.metrics.record_refused();
            continue;
        }
        let mut p = st.progress.lock().unwrap();
        if p.has_batch(rec.batch) {
            continue;
        }
        sh.metrics.record_reused(&rec.counts);
        sh.metrics.record_pruned(rec.pruned);
        st.recorded.fetch_add(1, Ordering::Relaxed);
        if p.insert(rec.batch, rec.outcome(), &st.rule) {
            st.done.store(true, Ordering::Relaxed);
            sh.metrics.record_unit_done();
        }
    }

    if !opts.replay_only {
        // The one worker pool; a `threads` of 0 means all available cores.
        // Joining, unlike a scope's wait, covers each thread's teardown, so
        // the next pool reuses its allocator arena instead of opening fresh
        // ones that strand the old one's memory.
        let workers = cfg.workers();
        std::thread::scope(|scope| {
            let sh = &sh;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || worker(w * items.len() / workers, sh)))
                .collect();
            handles
                .into_iter()
                .for_each(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        });
    }

    let tallies = sh
        .states
        .iter()
        .map(|st| {
            let p = st.progress.lock().unwrap();
            p.decided().map(|_| p.merged())
        })
        .collect();
    let error = sh.error.lock().unwrap().clone();
    Drained {
        tallies,
        metrics: sh.snapshot(),
        interrupted: sh.stop.load(Ordering::Relaxed),
        error,
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
    run_units_after(&MetricsSnapshot::default(), units, cfg, cache, opts)
}

/// One campaign of `trials` trials per unit under the default schedule's
/// seed, on a cache of its own: what a single-program command runs.
pub fn run_plain(units: &[TrialUnit], trials: u64) -> Result<Vec<UnitResult>, String> {
    let cfg = HarnessConfig { max_trials: trials, ..HarnessConfig::default() };
    run_units(units, &cfg, &GoldenCache::new(), RunOptions::default()).complete()
}

/// [`run_units`], its metrics going on from `earlier`'s: a pass run before
/// it on the same cache, such as the campaign's selection profile
/// ([`crate::plan_matrix`]), so that one report counts both. A unit's golden
/// counts come from `opts.checkpoint`'s golden records; a program they lack
/// is looked up in the cache and its record appended to the log.
pub fn run_units_after(
    earlier: &MetricsSnapshot,
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    opts: RunOptions<'_>,
) -> CampaignReport {
    let items: Vec<WorkItem<'_>> = units.iter().map(|unit| WorkItem { unit, scope: None }).collect();
    let log = opts.checkpoint;
    let drained = run_items(&items, cfg, cache, Metrics::with_mode(cfg.exec.executor).after(earlier), opts);

    let mut results = Vec::new();
    let mut pending = Vec::new();
    let mut error = drained.error;
    for (unit, tally) in units.iter().zip(drained.tallies) {
        let Some(total) = tally else {
            pending.push(unit.key.clone());
            continue;
        };
        let trials = total.counts.total();
        let key = unit.content_key(cache);
        let golden = match log.and_then(|log| log.golden(unit.key.layer, key)) {
            Some(rec) => rec.clone(),
            None => {
                let rec = golden_record(unit, key, cache, &cfg.exec);
                if let Some(Err(e)) = log.map(|log| log.record_golden(&rec)) {
                    error.get_or_insert(e);
                }
                rec
            }
        };
        results.push(UnitResult {
            key: unit.key.clone(),
            trials,
            counts: total.counts,
            sdc: Estimate::proportion(total.counts.sdc, trials),
            stopped_early: trials < cfg.max_trials,
            sdc_by_inst: total.sdc_by_inst,
            sdc_insts: total.sdc_insts,
            region_counts: total.region_counts,
            pruned: total.pruned,
            golden_dyn_insts: golden.dyn_insts,
            golden_sites: golden.fault_sites,
            golden_cycles: golden.cycles,
        });
    }
    CampaignReport {
        units: results,
        pending,
        // Re-sampled: the golden lookups above count as cache traffic.
        metrics: drained.metrics.with_cache(cache.stats()),
        interrupted: drained.interrupted,
        error,
    }
}

/// The golden record of `unit`'s program (content key `key`), from the cache.
fn golden_record(unit: &TrialUnit, key: u64, cache: &GoldenCache, exec: &ExecConfig) -> GoldenRecord {
    let record = |head: RunHead<'_>, cycles| GoldenRecord {
        layer: unit.key.layer,
        key,
        dyn_insts: head.dyn_insts,
        fault_sites: head.fault_sites,
        cycles,
        output_hash: fnv1a(head.output),
    };
    match unit.key.layer {
        Layer::Ir => record(cache.golden::<IrLayer>(&Interpreter::new(&unit.module), key, exec).head(), 0),
        Layer::Asm => {
            let g = cache.golden::<AsmLayer>(&unit.machine(), key, exec);
            record(g.head(), g.cycles)
        }
    }
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
            // A region-scoped re-run is ordinary work: it books under the
            // same engine and restores snapshots like any other trial.
            let empty = crate::Baseline {
                header: cfg.header(),
                regions: HashMap::new(),
                pre_region: true,
            };
            let cache = GoldenCache::new();
            let scoped = crate::run_diff(&units[..1], &cfg, &cache, &empty, None).metrics;
            assert!(scoped.exec_insts > 0 && scoped.ff_insts > 0, "{mode}: {scoped:?}");
            let mut want = [0; 3];
            want[mode as usize] = scoped.exec_insts;
            assert_eq!(buckets(&scoped), want, "{mode} (scoped)");
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
