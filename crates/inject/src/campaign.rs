//! The trial primitives of a fault-injection campaign, at both layers.
//!
//! Each trial (paper §4.3): pick a random executed *fault site*, pick a
//! random bit of its destination, run to completion, classify the outcome
//! against the golden run. Every trial's fault spec is derived purely from
//! `(base seed, trial index)` — see [`ir_fault_spec`] / [`asm_fault_spec`] —
//! so campaign results are **bit-identical regardless of thread count,
//! shard layout, or early-stop point**. This module runs single trials
//! ([`TrialRunner`]) and folds them ([`BatchOutcome`]); the one loop that
//! schedules them — every campaign, study, sweep, selection profile and
//! single-program command — is `flowery-harness`'s `run_units`.

use crate::outcome::{classify, Outcome, OutcomeCounts};
use flowery_backend::{AsmFaultSpec, AsmLayer, AsmProgram, MachResult, Machine};
use flowery_faultmodel::{any_catches, classify_asm_fault, classify_ir_fault, flip_count, DetectorSpec, ModelSpec};
use flowery_faultmodel::{ASM_STREAM, IR_STREAM};
use flowery_ir::interp::substrate::{self, RunResult};
use flowery_ir::interp::{ExecConfig, ExecResult, FaultSpec, Interpreter, IrLayer};
use flowery_ir::interp::{Scratch, SiteLog, SnapshotSet, Substrate};
use flowery_ir::module::Module;
use flowery_ir::value::{FuncId, InstId};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// The trial ended at a snapshot where it had rejoined the golden run
    /// (its tail is in `ff_insts`).
    pub rejoined: bool,
    /// Assembly layer: the drawn flip is proven masked where it lands, so
    /// the trial is Benign by proof (see [`Machine::pruning`]).
    pub pruned: bool,
}

pub type AsmTrialOutcome = TrialOutcome;

/// What trial running needs from a layer on top of its [`Substrate`]: how a
/// fault is drawn, where it landed, and which modeled detectors cover it.
pub trait InjectLayer: Substrate {
    /// The layer's tag in per-trial seeds: trial `i`'s fault is a pure
    /// function of `(seed, i)` on the layer's own stream.
    const STREAM: u64;

    /// Record where `result`'s injection landed in the layer's field of
    /// `out`; a run pruned there is Benign by proof.
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
        out.pruned = result.pruned;
        if result.pruned {
            out.outcome = Outcome::Benign;
        }
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
    /// whether the trial was pruned. Kept for `benchmark/src/trace.rs` until
    /// ROADMAP 1(a), as the check of the in-run prune ([`Machine::pruning`]).
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
                rejoined: false,
                pruned: true,
            };
            return (out, true);
        }
        (self.run_spec(spec, detectors), false)
    }
}

impl<'a, S: InjectLayer> TrialRunner<'a, S> {
    /// Why no trial can run against `golden`: a run that did not complete
    /// leaves no outcome to classify against, and one without fault sites
    /// leaves nothing to draw. `None` when trials can run.
    pub fn refusal(golden: &S::Golden) -> Option<String> {
        let head = golden.head();
        let incomplete = (!head.status.is_completed()).then(|| format!("golden run must complete: {:?}", head.status));
        incomplete.or_else(|| (head.fault_sites == 0).then(|| format!("program has no {} fault sites", S::NAME)))
    }

    /// Build from an already-computed golden run (e.g. the harness's
    /// golden-run cache). `cfg` supplies the base limits; the dynamic
    /// instruction budget is tightened around the golden run to catch
    /// fault-induced livelock quickly. Panics on a golden
    /// [`TrialRunner::refusal`] refuses.
    pub fn from_golden(exec: S::Exec<'a>, golden: S::Golden, cfg: &ExecConfig) -> TrialRunner<'a, S> {
        if let Some(why) = Self::refusal(&golden) {
            panic!("{why}");
        }
        let cfg = ExecConfig {
            max_dyn_insts: ExecConfig::with_budget_for(golden.head().dyn_insts).max_dyn_insts,
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
        let set = substrate::capture_for::<S>(&self.exec, &self.cfg, u64::MAX);
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
        let (r, skipped, rejoined) =
            substrate::trial(&self.exec, &self.cfg, spec, self.snapshots.as_deref(), &mut self.scratch);
        let (head, golden) = (r.head(), self.golden.head());
        let mut out = TrialOutcome {
            outcome: classify(head.status, head.output, golden.status, golden.output),
            injected_at: None,
            injected_inst: None,
            ff_insts: skipped,
            exec_insts: head.dyn_insts - skipped,
            rejoined,
            pruned: false,
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
/// scheduling batch in the harness. The single fold every entry point
/// shares: trials enter through
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
    /// Trials that ended where they rejoined the golden run. Metrics-only,
    /// like `ff_insts`.
    pub rejoined: u64,
    /// Trials resolved by the static prune (proven-masked (site, bit) pair
    /// → Benign without executing the suffix). Checkpointed: the saved work
    /// is part of the run's provenance, not a transient metric.
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
        self.rejoined += u64::from(t.rejoined);
        self.pruned += u64::from(t.pruned);
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
        self.rejoined += later.rejoined;
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
            rejoined: outcome == Outcome::Benign,
            pruned: false,
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
        assert_eq!((whole.ff_insts, whole.exec_insts, whole.rejoined), (50, 25, 1));
        // Without a region the split is simply not kept.
        let mut plain = BatchOutcome::default();
        plain.record(&trials[0].0, None);
        assert!(plain.region_counts.is_empty());
    }

    /// Trials `0..n` on one runner, folded in trial order.
    fn fold<S: InjectLayer>(runner: &mut TrialRunner<'_, S>, n: u64) -> BatchOutcome {
        let mut total = BatchOutcome::default();
        for i in 0..n {
            total.record(&runner.run_trial(0x0F10_EE41, i), None);
        }
        total
    }

    #[test]
    fn snapshot_trials_match_scratch_trials() {
        // Long enough that the auto-tuned cadence (>= 512 insts) captures
        // snapshots; the short `module()` program finishes before the first.
        let m = flowery_lang::compile(
            "t",
            "int main() { int s = 0; int i; for (i = 0; i < 1500; i = i + 1) { s = s + i * i; } output(s); return s % 251; }",
        )
        .unwrap();
        let exec = ExecConfig::default();
        let mut on = IrTrialRunner::new(&m, &exec);
        on.enable_snapshots();
        let (r_on, r_off) = (fold(&mut on, 200), fold(&mut IrTrialRunner::new(&m, &exec), 200));
        assert_eq!((r_on.counts, &r_on.sdc_by_inst), (r_off.counts, &r_off.sdc_by_inst));
        // Fast-forward must actually skip work, and the totals must agree:
        // a trial's skipped + executed instructions is independent of path.
        assert!(r_on.ff_insts > 0, "expected fast-forwarded instructions");
        assert_eq!(r_off.ff_insts, 0);
        assert_eq!(r_on.ff_insts + r_on.exec_insts, r_off.exec_insts);

        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let mut on = AsmTrialRunner::new(&m, &prog, &exec);
        on.enable_snapshots();
        let (a_on, a_off) = (fold(&mut on, 200), fold(&mut AsmTrialRunner::new(&m, &prog, &exec), 200));
        assert_eq!((a_on.counts, &a_on.sdc_insts), (a_off.counts, &a_off.sdc_insts));
        assert!(a_on.ff_insts > 0);
        assert_eq!(a_on.ff_insts + a_on.exec_insts, a_off.exec_insts);
    }

    #[test]
    fn ir_trials_produce_all_outcome_kinds() {
        let m = module();
        let r = fold(&mut IrTrialRunner::new(&m, &ExecConfig::default()), 400);
        assert_eq!(r.counts.total(), 400);
        assert!(r.counts.sdc > 0, "unprotected program must show SDCs: {:?}", r.counts);
        assert!(r.counts.benign > 0);
        assert_eq!(r.counts.detected, 0, "no checkers -> no detections");
        assert!(!r.sdc_by_inst.is_empty());
    }

    #[test]
    fn asm_trials_record_sdc_sites() {
        let m = module();
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let mut runner = AsmTrialRunner::new(&m, &prog, &ExecConfig::default());
        assert!(runner.golden().cycles > 0);
        let r = fold(&mut runner, 400);
        assert_eq!(r.counts.total(), 400);
        assert!(r.counts.sdc > 0);
        assert_eq!(r.sdc_insts.len() as u64, r.counts.sdc);
        for &idx in &r.sdc_insts {
            assert!((idx as usize) < prog.insts.len());
        }
    }

    #[test]
    fn protected_program_detects_faults() {
        let mut m = module();
        let plan = flowery_passes::ProtectionPlan::full(&m);
        flowery_passes::duplicate_module(&mut m, &plan, &flowery_passes::DupConfig::default());
        let r = fold(&mut IrTrialRunner::new(&m, &ExecConfig::default()), 400);
        assert!(r.counts.detected > 0, "{:?}", r.counts);
        assert_eq!(r.counts.sdc, 0, "full IR protection leaves no SDC: {:?}", r.counts);
    }

    #[test]
    fn goldens_without_an_outcome_or_a_site_are_refused() {
        let exec = ExecConfig::default();
        let run = |src: &str, cfg: &ExecConfig| {
            let m = flowery_lang::compile("t", src).unwrap();
            IrTrialRunner::refusal(&Interpreter::new(&m).run(cfg, None))
        };
        assert_eq!(run(SRC, &exec), None);
        let why = run("int main() { return 0; }", &exec).unwrap();
        assert_eq!(why, "program has no ir fault sites");
        let short = ExecConfig { max_dyn_insts: 50, ..exec };
        let why = run(SRC, &short).unwrap();
        assert!(why.starts_with("golden run must complete: Trapped("), "{why}");
    }
}
