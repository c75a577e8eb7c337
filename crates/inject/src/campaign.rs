//! Fault-injection campaigns at both layers, with parallel execution.
//!
//! Each campaign (paper §4.3): pick a random executed *fault site*, pick a
//! random bit of its destination, run to completion, classify the outcome
//! against the golden run. Every trial's fault spec is derived purely from
//! `(base seed, trial index)` — see [`ir_fault_spec`] / [`asm_fault_spec`] —
//! so campaign results are **bit-identical regardless of thread count,
//! shard layout, or early-stop point**. The large-matrix scheduler in
//! `flowery-harness` builds on the same per-trial primitives, and every
//! study, sweep and figure runs on it. [`run_ir_campaign`] /
//! [`run_asm_campaign`] and the chunk-cursor pool under them stay for what
//! sits below or beside that scheduler: [`crate::profile_sdc`], which
//! `harness::plan` calls while it *builds* a matrix (the harness depends on
//! this crate, not the reverse; the ledger times it as `inject.profile_s`),
//! and the single-program commands `flowery inject`, `flowery vuln` and
//! `flowery lint --validate`, which have one campaign and no matrix.

use crate::outcome::{classify, Outcome, OutcomeCounts};
use flowery_backend::{AsmFaultSpec, AsmLayer, AsmProgram, MachResult, Machine};
use flowery_faultmodel::{any_catches, classify_asm_fault, classify_ir_fault, flip_count, DetectorSpec, ModelSpec};
use flowery_faultmodel::{ASM_STREAM, IR_STREAM};
use flowery_ir::interp::substrate::{self, RunResult};
use flowery_ir::interp::{ExecConfig, ExecResult, FaultSpec, Interpreter, IrLayer, Profile};
use flowery_ir::interp::{Scratch, SiteLog, SnapshotSet, Substrate};
use flowery_ir::module::Module;
use flowery_ir::value::{FuncId, InstId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Campaign parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of fault injections (the paper uses 3,000 per configuration).
    pub trials: u64,
    /// Base RNG seed; trial `i` derives its fault from `(seed, i)`.
    pub seed: u64,
    /// Worker threads (0 = use all available cores).
    pub threads: usize,
    /// The fault model to sample trials from. Defaults to
    /// [`ModelSpec::SingleBitReg`], the classic single-bit register flip.
    #[serde(default)]
    pub fault_model: ModelSpec,
    /// Modeled hardware detectors running alongside the software
    /// protection; a would-be SDC in a class a detector covers is
    /// reclassified as a detection. Default: none.
    #[serde(default)]
    pub detectors: Vec<DetectorSpec>,
    /// Fast-forward trials from golden-run snapshots instead of
    /// re-executing the golden prefix (bit-identical results; default on).
    pub snapshots: bool,
    /// Collect the golden run's per-instruction execution profile during
    /// the capture run (IR campaigns only). The profile rides along in
    /// [`IrCampaign::golden_profile`] without a second golden execution.
    #[serde(default)]
    pub golden_profile: bool,
    /// Execution limits for each run.
    pub exec: ExecConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            trials: 3000,
            seed: 0x0F10_EE41,
            threads: 0,
            fault_model: ModelSpec::SingleBitReg,
            detectors: Vec::new(),
            snapshots: true,
            golden_profile: false,
            exec: ExecConfig::default(),
        }
    }
}

impl CampaignConfig {
    pub fn with_trials(trials: u64) -> CampaignConfig {
        CampaignConfig { trials, ..Default::default() }
    }
}

/// Resolve a `threads` knob: 0 means all available cores.
pub fn worker_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Run `work(w)` for each worker `w` in `0..n` on its own thread; return
/// once every one has exited. Joining, unlike a scope's wait, covers each
/// thread's teardown, so the caller's next threads reuse its allocator
/// arena instead of opening fresh ones that strand the old one's memory.
pub fn run_workers(n: usize, work: impl Fn(usize) + Sync) {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..n).map(|w| scope.spawn(move || work(w))).collect();
        for h in handles {
            h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

/// Result of an IR-level campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IrCampaign {
    pub counts: OutcomeCounts,
    /// SDC-causing injections attributed to their static instruction.
    pub sdc_by_inst: HashMap<(FuncId, InstId), u64>,
    /// Golden-run dynamic instruction count.
    pub golden_dyn_insts: u64,
    /// Golden-run fault-site count.
    pub golden_sites: u64,
    /// Golden-prefix instructions skipped across all trials by snapshot
    /// fast-forward (0 when snapshots are disabled).
    pub ff_insts: u64,
    /// Instructions actually executed across all trials.
    pub exec_insts: u64,
    /// The golden run's per-instruction execution counts, when
    /// [`CampaignConfig::golden_profile`] was set.
    #[serde(default)]
    pub golden_profile: Option<Profile>,
}

/// Result of an assembly-level campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsmCampaign {
    pub counts: OutcomeCounts,
    /// Program instruction index of every SDC-causing injection — the
    /// input to penetration root-cause classification.
    pub sdc_insts: Vec<u32>,
    pub golden_dyn_insts: u64,
    pub golden_sites: u64,
    pub golden_cycles: u64,
    /// Golden-prefix instructions skipped across all trials by snapshot
    /// fast-forward (0 when snapshots are disabled).
    pub ff_insts: u64,
    /// Instructions actually executed across all trials.
    pub exec_insts: u64,
}

/// The single-bit register fault injected by IR-level trial `trial_index`
/// — a pure function of `(seed, trial_index)`. Other models go through
/// [`ModelSpec::sample_ir`](flowery_faultmodel::ModelSpec::sample_ir).
pub fn ir_fault_spec(seed: u64, trial_index: u64, sites: u64) -> FaultSpec {
    ModelSpec::SingleBitReg.sample_ir(seed, trial_index, sites)
}

/// The single-bit register fault injected by assembly-level trial
/// `trial_index`.
pub fn asm_fault_spec(seed: u64, trial_index: u64, sites: u64) -> AsmFaultSpec {
    ModelSpec::SingleBitReg.sample_asm(seed, trial_index, sites)
}

/// Outcome of one trial, at either layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    pub outcome: Outcome,
    /// IR layer: static location of the injection when it landed.
    pub injected_at: Option<(FuncId, InstId)>,
    /// Assembly layer: program instruction index of the injection when it
    /// landed.
    pub injected_inst: Option<u32>,
    /// Golden-prefix instructions skipped by snapshot fast-forward.
    pub ff_insts: u64,
    /// Instructions actually executed by this trial.
    pub exec_insts: u64,
}

pub type AsmTrialOutcome = TrialOutcome;

/// What trial running needs from a layer on top of its [`Substrate`]: how a
/// fault is drawn, where it landed, and which modeled detectors cover it.
pub trait InjectLayer: Substrate {
    /// The layer's tag in per-trial seeds: trial `i`'s fault is a pure
    /// function of `(seed, i)` on the layer's own stream.
    const STREAM: u64;

    /// Record where `result`'s injection landed in the layer's field of
    /// `out`.
    fn locate(result: &Self::Golden, out: &mut TrialOutcome);

    /// Whether one of `detectors` covers `fault` as it landed in `result`.
    fn caught(exec: &Self::Exec<'_>, detectors: &[DetectorSpec], fault: &FaultSpec, result: &Self::Golden) -> bool;
}

impl InjectLayer for IrLayer {
    const STREAM: u64 = IR_STREAM;

    fn locate(result: &ExecResult, out: &mut TrialOutcome) {
        out.injected_at = result.injected_at;
    }

    fn caught(_: &Interpreter<'_>, detectors: &[DetectorSpec], spec: &FaultSpec, _: &ExecResult) -> bool {
        any_catches(detectors, classify_ir_fault(spec.effect), flip_count(spec.second_bit, spec.effect))
    }
}

impl InjectLayer for AsmLayer {
    const STREAM: u64 = ASM_STREAM;

    fn locate(result: &MachResult, out: &mut TrialOutcome) {
        out.injected_inst = result.injected_inst;
    }

    /// Detector coverage is decided against the *architected destination*
    /// of the instruction the fault actually landed on.
    fn caught(mach: &Machine<'_>, detectors: &[DetectorSpec], spec: &AsmFaultSpec, result: &MachResult) -> bool {
        result.injected_inst.is_some_and(|idx| {
            let dest = mach.program().insts[idx as usize].kind.fault_dest();
            any_catches(detectors, classify_asm_fault(spec.effect, dest), flip_count(spec.second_bit, spec.effect))
        })
    }
}

/// Reusable single-trial executor for one layer. Construct once per
/// (program, golden) pair, then run any subset of trial indices in any
/// order — results depend only on the trial index and seed.
pub struct TrialRunner<'a, S: InjectLayer> {
    exec: S::Exec<'a>,
    golden: S::Golden,
    cfg: ExecConfig,
    /// Golden-run snapshots for fast-forwarded trials (shared read-only
    /// across the worker threads of a campaign).
    snapshots: Option<Arc<SnapshotSet<S>>>,
    /// The region of this program's site log trials are confined to (see
    /// [`TrialRunner::restrict`]); `None` draws over the whole run.
    region: Option<(Arc<SiteLog>, usize)>,
    /// Per-runner reusable memory image, output buffer, and layer pool.
    scratch: Scratch<S>,
}

/// Reusable single-trial executor for IR-level injections.
pub type IrTrialRunner<'m> = TrialRunner<'m, IrLayer>;

/// Reusable single-trial executor for assembly-level injections.
pub type AsmTrialRunner<'p> = TrialRunner<'p, AsmLayer>;

impl<'m> IrTrialRunner<'m> {
    /// Runs the golden execution.
    pub fn new(module: &'m Module, exec: &ExecConfig) -> IrTrialRunner<'m> {
        Self::with_golden(module, Interpreter::new(module).run(exec, None), exec)
    }

    /// See [`TrialRunner::from_golden`].
    pub fn with_golden(module: &'m Module, golden: ExecResult, exec: &ExecConfig) -> IrTrialRunner<'m> {
        Self::from_golden(Interpreter::new(module), golden, exec)
    }
}

impl<'p> AsmTrialRunner<'p> {
    /// Runs the golden execution.
    pub fn new(module: &'p Module, program: &'p AsmProgram, exec: &ExecConfig) -> AsmTrialRunner<'p> {
        Self::with_golden(module, program, Machine::new(module, program).run(exec, None), exec)
    }

    /// See [`TrialRunner::from_golden`].
    pub fn with_golden(
        module: &'p Module,
        program: &'p AsmProgram,
        golden: MachResult,
        exec: &ExecConfig,
    ) -> AsmTrialRunner<'p> {
        Self::from_golden(Machine::new(module, program), golden, exec)
    }

    /// Like [`TrialRunner::run_trial_model`], but with a static prune
    /// oracle: `prune(spec)` returns the instruction index the fault would
    /// land on when the (site, bit) pair is *statically proven masked*.
    /// Such trials resolve as Benign with golden-identical attribution
    /// without executing — the sample draw itself is unchanged, so the
    /// trial stream (and therefore every count and Wilson interval) stays
    /// bit-identical to the unpruned campaign. Returns the outcome and
    /// whether the trial was pruned.
    pub fn run_trial_model_pruned(
        &mut self,
        seed: u64,
        trial_index: u64,
        model: ModelSpec,
        detectors: &[DetectorSpec],
        prune: &dyn Fn(&AsmFaultSpec) -> Option<u32>,
    ) -> (AsmTrialOutcome, bool) {
        let spec = self.draw(seed, trial_index, model);
        if let Some(inst) = prune(&spec) {
            let out = TrialOutcome {
                outcome: Outcome::Benign,
                injected_at: None,
                injected_inst: Some(inst),
                ff_insts: 0,
                exec_insts: 0,
            };
            return (out, true);
        }
        (self.run_spec(spec, detectors), false)
    }
}

impl<'a, S: InjectLayer> TrialRunner<'a, S> {
    /// Build from an already-computed golden run (e.g. the harness's
    /// golden-run cache). `cfg` supplies the base limits; the dynamic
    /// instruction budget is tightened around the golden run to catch
    /// fault-induced livelock quickly.
    pub fn from_golden(exec: S::Exec<'a>, golden: S::Golden, cfg: &ExecConfig) -> TrialRunner<'a, S> {
        let head = golden.head();
        assert!(head.status.is_completed(), "golden run must complete: {:?}", head.status);
        assert!(head.fault_sites > 0, "program has no {} fault sites", S::NAME);
        let cfg = ExecConfig {
            max_dyn_insts: head.dyn_insts.saturating_mul(4).max(100_000),
            ..cfg.clone()
        };
        TrialRunner {
            exec,
            golden,
            cfg,
            snapshots: None,
            region: None,
            scratch: Scratch::new(),
        }
    }

    pub fn golden(&self) -> &S::Golden {
        &self.golden
    }

    pub fn sites(&self) -> u64 {
        self.golden.head().fault_sites
    }

    /// Capture a snapshot set from this runner's golden execution, with the
    /// self-tuning site-spaced cadence. The set can be shared across the
    /// campaign's worker threads via [`TrialRunner::attach_snapshots`].
    pub fn build_snapshots(&self) -> SnapshotSet<S> {
        let set = substrate::capture_auto::<S>(&self.exec, &self.cfg);
        debug_assert_eq!(set.golden().head().output, self.golden.head().output, "capture run diverged from golden");
        set
    }

    /// Fast-forward subsequent trials from `set`. The set must stem from
    /// the same program content as this runner's golden run.
    pub fn attach_snapshots(&mut self, set: Arc<SnapshotSet<S>>) {
        debug_assert_eq!(
            set.golden().head().dyn_insts,
            self.golden.head().dyn_insts,
            "snapshot set golden mismatch"
        );
        self.snapshots = Some(set);
    }

    /// Capture and attach in one step (single-threaded convenience).
    pub fn enable_snapshots(&mut self) {
        let set = Arc::new(self.build_snapshots());
        self.attach_snapshots(set);
    }

    /// The attached snapshot set, for sharing with sibling runners.
    pub fn snapshots(&self) -> Option<Arc<SnapshotSet<S>>> {
        self.snapshots.clone()
    }

    /// Execute trial `trial_index` of the campaign identified by `seed`,
    /// under the single-bit register model with no detectors.
    pub fn run_trial(&mut self, seed: u64, trial_index: u64) -> TrialOutcome {
        self.run_trial_model(seed, trial_index, ModelSpec::SingleBitReg, &[])
    }

    /// Execute trial `trial_index` under an arbitrary fault model, with a
    /// set of modeled hardware detectors post-classifying the outcome.
    pub fn run_trial_model(
        &mut self,
        seed: u64,
        trial_index: u64,
        model: ModelSpec,
        detectors: &[DetectorSpec],
    ) -> TrialOutcome {
        let spec = self.draw(seed, trial_index, model);
        self.run_spec(spec, detectors)
    }

    /// Confine subsequent trials to `region` of `log`, this program's site
    /// log: the model draws over the region's own sites, and the drawn one
    /// is addressed by its global index — so a region-scoped trial is an
    /// ordinary trial, with snapshots, every engine and the static prune
    /// applying unchanged.
    pub fn restrict(&mut self, log: Arc<SiteLog>, region: usize) {
        assert!(log.mass(region) > 0, "a region without fault sites has nothing to draw");
        self.region = Some((log, region));
    }

    fn draw(&self, seed: u64, trial_index: u64, model: ModelSpec) -> FaultSpec {
        let Some((log, region)) = &self.region else {
            return model.sample(S::STREAM, seed, trial_index, self.sites());
        };
        let spec = model.sample(S::STREAM, seed, trial_index, log.mass(*region));
        let site_index = log
            .index(*region, spec.site_index)
            .expect("the model draws below the region's mass");
        FaultSpec { site_index, ..spec }
    }

    fn run_spec(&mut self, spec: FaultSpec, detectors: &[DetectorSpec]) -> TrialOutcome {
        let (r, skipped) = substrate::trial(&self.exec, &self.cfg, spec, self.snapshots.as_deref(), &mut self.scratch);
        let (head, golden) = (r.head(), self.golden.head());
        let mut out = TrialOutcome {
            outcome: classify(head.status, head.output, golden.status, golden.output),
            injected_at: None,
            injected_inst: None,
            ff_insts: skipped,
            exec_insts: head.dyn_insts - skipped,
        };
        S::locate(&r, &mut out);
        if out.outcome == Outcome::Sdc && !detectors.is_empty() && S::caught(&self.exec, detectors, &spec, &r) {
            out.outcome = Outcome::Detected;
        }
        self.scratch.recycle_output(r.into_output());
        out
    }
}

/// Everything a run of trials contributes to its unit's tally — one
/// scheduling batch in the harness, one whole campaign here. The single
/// fold every entry point shares: trials enter through
/// [`record`](BatchOutcome::record), batches through
/// [`merge`](BatchOutcome::merge).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    pub counts: OutcomeCounts,
    /// IR layer: SDC attributions by static instruction.
    pub sdc_by_inst: HashMap<(FuncId, InstId), u64>,
    /// Assembly layer: program indices of SDC injections, in trial order.
    pub sdc_insts: Vec<u32>,
    /// Per-region outcome tallies, keyed by region (function) name and
    /// sorted by it — see `flowery-regions`.
    pub region_counts: Vec<(String, OutcomeCounts)>,
    /// Golden-prefix instructions skipped by snapshot fast-forward.
    /// Metrics-only: not checkpointed (replayed batches report 0).
    pub ff_insts: u64,
    /// Instructions actually executed.
    pub exec_insts: u64,
    /// Trials resolved virtually by the static prune (proven-masked
    /// (site, bit) pair → Benign without execution). Checkpointed: the
    /// saved work is part of the run's provenance, not a transient metric.
    pub pruned: u64,
    /// Fingerprint of the bit-verdict table the batch was pruned against;
    /// 0 when the unit ran unpruned.
    pub prune_table: u64,
}

impl BatchOutcome {
    /// Tally one trial. `region` names the region (function) holding its
    /// injection site for the per-region split; `None` keeps no split.
    pub fn record(&mut self, t: &TrialOutcome, region: Option<&str>) {
        self.counts.record(t.outcome);
        self.ff_insts += t.ff_insts;
        self.exec_insts += t.exec_insts;
        if let Some(name) = region {
            region_slot(&mut self.region_counts, name).record(t.outcome);
        }
        if t.outcome == Outcome::Sdc {
            if let Some(loc) = t.injected_at {
                *self.sdc_by_inst.entry(loc).or_insert(0) += 1;
            }
            self.sdc_insts.extend(t.injected_inst);
        }
    }

    /// Fold `later` in. Merging in trial-index order keeps `sdc_insts` in
    /// trial order, so the total is bit-identical to one contiguous run.
    pub fn merge(&mut self, later: &BatchOutcome) {
        self.counts.merge(&later.counts);
        for (loc, n) in &later.sdc_by_inst {
            *self.sdc_by_inst.entry(*loc).or_insert(0) += n;
        }
        self.sdc_insts.extend_from_slice(&later.sdc_insts);
        for (name, counts) in &later.region_counts {
            region_slot(&mut self.region_counts, name).merge(counts);
        }
        self.ff_insts += later.ff_insts;
        self.exec_insts += later.exec_insts;
        self.pruned += later.pruned;
    }
}

/// The tally of region `name` in a name-sorted list, inserted on first use.
fn region_slot<'a>(list: &'a mut Vec<(String, OutcomeCounts)>, name: &str) -> &'a mut OutcomeCounts {
    let i = list.binary_search_by(|(n, _)| n.as_str().cmp(name)).unwrap_or_else(|i| {
        list.insert(i, (name.to_string(), OutcomeCounts::default()));
        i
    });
    &mut list[i].1
}

/// Run one campaign at layer `S`: the golden result plus the tally of every
/// trial, folded in trial order (so aggregates are deterministic); `bind`
/// makes each worker's executor. A single execution under `capture_cfg`
/// provides the golden result and the snapshot set (and, when that config
/// profiles, the golden profile): the capture run *is* the golden run, so
/// enabling snapshots or profiling never adds a second pass.
fn run_campaign<'a, S: InjectLayer>(
    bind: impl Fn() -> S::Exec<'a> + Sync,
    cfg: &CampaignConfig,
    capture_cfg: &ExecConfig,
) -> (S::Golden, BatchOutcome)
where
    S::Golden: Send + Sync,
    SnapshotSet<S>: Send + Sync,
{
    let (golden, snaps) = if cfg.snapshots {
        let set = substrate::capture_auto::<S>(&bind(), capture_cfg);
        (set.golden().clone(), Some(Arc::new(set)))
    } else {
        (substrate::run::<S>(&bind(), capture_cfg, None), None)
    };
    // Threads claim fixed-size chunks of the trial-index space from a
    // shared cursor, so a slow chunk on one thread never leaves the others
    // idle.
    const CHUNK: u64 = 32;
    let cursor = AtomicU64::new(0);
    let chunks = std::sync::Mutex::new(Vec::new());
    run_workers(worker_threads(cfg.threads), |_| {
        let mut local = TrialRunner::<S>::from_golden(bind(), golden.clone(), &cfg.exec);
        if let Some(set) = &snaps {
            local.attach_snapshots(set.clone());
        }
        loop {
            let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= cfg.trials {
                return;
            }
            let mut chunk = BatchOutcome::default();
            for i in start..(start + CHUNK).min(cfg.trials) {
                chunk.record(&local.run_trial_model(cfg.seed, i, cfg.fault_model, &cfg.detectors), None);
            }
            chunks.lock().unwrap().push((start, chunk));
        }
    });
    let mut chunks = chunks.into_inner().unwrap();
    chunks.sort_unstable_by_key(|(start, _)| *start);
    let mut total = BatchOutcome::default();
    for (_, chunk) in &chunks {
        total.merge(chunk);
    }
    (golden, total)
}

/// Run an IR-level ("LLVM level") campaign.
pub fn run_ir_campaign(m: &Module, cfg: &CampaignConfig) -> IrCampaign {
    let capture_cfg = ExecConfig { profile: cfg.golden_profile, ..cfg.exec.clone() };
    let (mut golden, total) = run_campaign::<IrLayer>(|| Interpreter::new(m), cfg, &capture_cfg);
    IrCampaign {
        counts: total.counts,
        sdc_by_inst: total.sdc_by_inst,
        golden_dyn_insts: golden.dyn_insts,
        golden_sites: golden.fault_sites,
        ff_insts: total.ff_insts,
        exec_insts: total.exec_insts,
        golden_profile: golden.profile.take(),
    }
}

/// Run an assembly-level campaign on a compiled program.
pub fn run_asm_campaign(m: &Module, program: &AsmProgram, cfg: &CampaignConfig) -> AsmCampaign {
    let (golden, total) = run_campaign::<AsmLayer>(|| Machine::new(m, program), cfg, &cfg.exec);
    AsmCampaign {
        counts: total.counts,
        sdc_insts: total.sdc_insts,
        golden_dyn_insts: golden.dyn_insts,
        golden_sites: golden.fault_sites,
        golden_cycles: golden.cycles,
        ff_insts: total.ff_insts,
        exec_insts: total.exec_insts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str =
        "int main() { int s = 0; int i; for (i = 0; i < 20; i = i + 1) { s = s + i * i; } output(s); return s % 251; }";

    fn module() -> Module {
        flowery_lang::compile("t", SRC).unwrap()
    }

    #[test]
    fn fault_specs_are_pure_functions_of_seed_and_index() {
        for trial in [0u64, 1, 7, 2999] {
            let a = ir_fault_spec(42, trial, 100);
            let b = ir_fault_spec(42, trial, 100);
            assert_eq!(a, b);
            assert!(a.site_index < 100 && a.bit < 64 && a.second_bit.is_none());
            let d = ModelSpec::DoubleBitReg.sample_ir(42, trial, 100);
            assert!(d.second_bit.is_some());
        }
        // The layers draw from distinct streams.
        let ir = ir_fault_spec(42, 0, 1000);
        let asm = asm_fault_spec(42, 0, 1000);
        assert!(ir.site_index != asm.site_index || ir.bit != asm.bit);
    }

    #[test]
    fn batch_outcome_record_and_merge_are_one_fold() {
        // Folding trials one by one, or batch by batch in trial order, is
        // the same tally: region lists stay name-sorted, SDC attributions
        // keep trial order, and only SDC trials are attributed.
        let trial = |outcome, inst: u32| TrialOutcome {
            outcome,
            injected_at: Some((FuncId(0), InstId(inst))),
            injected_inst: Some(inst),
            ff_insts: 10,
            exec_insts: 5,
        };
        let trials = [
            (trial(Outcome::Sdc, 7), "main"),
            (trial(Outcome::Benign, 1), "helper"),
            (trial(Outcome::Sdc, 3), "helper"),
            (trial(Outcome::Due, 9), "aux"),
            (trial(Outcome::Sdc, 7), "main"),
        ];
        let mut whole = BatchOutcome::default();
        let (mut first, mut second) = (BatchOutcome::default(), BatchOutcome::default());
        for (i, (t, region)) in trials.iter().enumerate() {
            whole.record(t, Some(region));
            if i < 2 { &mut first } else { &mut second }.record(t, Some(region));
        }
        second.pruned = 2;
        first.merge(&second);
        whole.pruned = 2;
        assert_eq!(first, whole);
        assert_eq!(whole.counts, OutcomeCounts { benign: 1, sdc: 3, detected: 0, due: 1 });
        assert_eq!(whole.sdc_insts, vec![7, 3, 7]);
        assert_eq!(whole.sdc_by_inst[&(FuncId(0), InstId(7))], 2);
        let names: Vec<&str> = whole.region_counts.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["aux", "helper", "main"]);
        assert_eq!((whole.ff_insts, whole.exec_insts), (50, 25));
        // Without a region the split is simply not kept.
        let mut plain = BatchOutcome::default();
        plain.record(&trials[0].0, None);
        assert!(plain.region_counts.is_empty());
    }

    #[test]
    fn ir_campaign_is_deterministic_across_thread_counts() {
        let m = module();
        let mut c1 = CampaignConfig::with_trials(200);
        c1.threads = 1;
        let mut c4 = CampaignConfig::with_trials(200);
        c4.threads = 4;
        let r1 = run_ir_campaign(&m, &c1);
        let r4 = run_ir_campaign(&m, &c4);
        // Trials are seeded by index, not by shard: any thread count gives
        // exactly the same campaign.
        assert_eq!(r1.counts, r4.counts);
        assert_eq!(r1.sdc_by_inst, r4.sdc_by_inst);
        assert_eq!(r1.golden_sites, r4.golden_sites);

        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let a1 = run_asm_campaign(&m, &prog, &c1);
        let a4 = run_asm_campaign(&m, &prog, &c4);
        assert_eq!(a1.counts, a4.counts);
        assert_eq!(a1.sdc_insts, a4.sdc_insts);
    }

    #[test]
    fn snapshot_campaigns_match_scratch_campaigns() {
        // Long enough that the auto-tuned cadence (>= 512 insts) captures
        // snapshots; the short `module()` program finishes before the first.
        let m = flowery_lang::compile(
            "t",
            "int main() { int s = 0; int i; for (i = 0; i < 1500; i = i + 1) { s = s + i * i; } output(s); return s % 251; }",
        )
        .unwrap();
        let mut on = CampaignConfig::with_trials(200);
        on.threads = 2;
        let mut off = on.clone();
        off.snapshots = false;
        let r_on = run_ir_campaign(&m, &on);
        let r_off = run_ir_campaign(&m, &off);
        assert_eq!(r_on.counts, r_off.counts);
        assert_eq!(r_on.sdc_by_inst, r_off.sdc_by_inst);
        // Fast-forward must actually skip work, and the totals must agree:
        // a trial's skipped + executed instructions is independent of path.
        assert!(r_on.ff_insts > 0, "expected fast-forwarded instructions");
        assert_eq!(r_off.ff_insts, 0);
        assert_eq!(r_on.ff_insts + r_on.exec_insts, r_off.exec_insts);

        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let a_on = run_asm_campaign(&m, &prog, &on);
        let a_off = run_asm_campaign(&m, &prog, &off);
        assert_eq!(a_on.counts, a_off.counts);
        assert_eq!(a_on.sdc_insts, a_off.sdc_insts);
        assert!(a_on.ff_insts > 0);
        assert_eq!(a_on.ff_insts + a_on.exec_insts, a_off.exec_insts);
    }

    #[test]
    fn ir_campaign_produces_all_outcome_kinds() {
        let m = module();
        let r = run_ir_campaign(&m, &CampaignConfig::with_trials(400));
        assert_eq!(r.counts.total(), 400);
        assert!(r.counts.sdc > 0, "unprotected program must show SDCs: {:?}", r.counts);
        assert!(r.counts.benign > 0);
        assert_eq!(r.counts.detected, 0, "no checkers -> no detections");
        assert!(!r.sdc_by_inst.is_empty());
    }

    #[test]
    fn asm_campaign_runs_and_records_sdc_sites() {
        let m = module();
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let r = run_asm_campaign(&m, &prog, &CampaignConfig::with_trials(400));
        assert_eq!(r.counts.total(), 400);
        assert!(r.counts.sdc > 0);
        assert_eq!(r.sdc_insts.len() as u64, r.counts.sdc);
        assert!(r.golden_cycles > 0);
        for &idx in &r.sdc_insts {
            assert!((idx as usize) < prog.insts.len());
        }
    }

    #[test]
    fn protected_program_detects_faults() {
        let mut m = module();
        let plan = flowery_passes::ProtectionPlan::full(&m);
        flowery_passes::duplicate_module(&mut m, &plan, &flowery_passes::DupConfig::default());
        let r = run_ir_campaign(&m, &CampaignConfig::with_trials(400));
        assert!(r.counts.detected > 0, "{:?}", r.counts);
        assert_eq!(r.counts.sdc, 0, "full IR protection leaves no SDC: {:?}", r.counts);
    }
}
