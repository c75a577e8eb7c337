//! Differential pinning for the fault-model refactor.
//!
//! The `FaultModel` trait indirection must leave the default single-bit
//! (and legacy double-bit) campaigns **bit-identical** to the pre-refactor
//! hard-wired injector. The constants below were captured by running the
//! pre-refactor code on two fixed programs with a fixed seed; the suite
//! replays the same campaigns through the trait path, with snapshots both
//! on and off, and demands the exact same aggregate outcome counts and
//! golden-run statistics (status/output equality is what the outcome
//! classifier aggregates, and cycles/site counts pin the execution path).

use flowery_faultmodel::{ModelSpec, REGISTERED_MODELS};
use flowery_inject::campaign::{run_asm_campaign, run_ir_campaign, AsmTrialRunner, CampaignConfig, IrTrialRunner};
use flowery_inject::{asm_fault_spec, ir_fault_spec, OutcomeCounts};
use flowery_ir::interp::ExecConfig;
use proptest::prelude::*;

const SEED: u64 = 0xDEAD_0FA1;
const TRIALS: u64 = 300;

/// Short program: finishes before the first auto-cadence snapshot, so the
/// snapshot path degenerates to scratch execution.
const PROG_A: &str =
    "int main() { int s = 0; int i; for (i = 0; i < 20; i = i + 1) { s = s + i * i; } output(s); return s % 251; }";

/// Long program: long enough that snapshot fast-forward actually engages.
const PROG_B: &str =
    "int main() { int s = 0; int i; for (i = 0; i < 1500; i = i + 1) { s = s + i * i; } output(s); return s % 251; }";

fn counts(benign: u64, sdc: u64, detected: u64, due: u64) -> OutcomeCounts {
    OutcomeCounts { benign, sdc, detected, due }
}

fn config(fault_model: ModelSpec, snapshots: bool) -> CampaignConfig {
    CampaignConfig {
        trials: TRIALS,
        seed: SEED,
        threads: 2,
        fault_model,
        snapshots,
        ..Default::default()
    }
}

struct Pin {
    src: &'static str,
    model: ModelSpec,
    ir: OutcomeCounts,
    asm: OutcomeCounts,
    ir_golden: (u64, u64),       // (dyn_insts, fault_sites)
    asm_golden: (u64, u64, u64), // (dyn_insts, fault_sites, cycles)
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            src: PROG_A,
            model: ModelSpec::SingleBitReg,
            ir: counts(12, 288, 0, 0),
            asm: counts(104, 163, 0, 33),
            ir_golden: (293, 185),
            asm_golden: (614, 549, 1254),
        },
        Pin {
            src: PROG_A,
            model: ModelSpec::DoubleBitReg,
            ir: counts(47, 252, 0, 1),
            asm: counts(95, 155, 0, 50),
            ir_golden: (293, 185),
            asm_golden: (614, 549, 1254),
        },
        Pin {
            src: PROG_B,
            model: ModelSpec::SingleBitReg,
            ir: counts(10, 290, 0, 0),
            asm: counts(113, 154, 0, 33),
            ir_golden: (21013, 13505),
            asm_golden: (43534, 39029, 88574),
        },
        Pin {
            src: PROG_B,
            model: ModelSpec::DoubleBitReg,
            ir: counts(32, 267, 0, 1),
            asm: counts(105, 156, 0, 39),
            ir_golden: (21013, 13505),
            asm_golden: (43534, 39029, 88574),
        },
    ]
}

#[test]
fn default_models_are_bit_identical_to_pre_refactor_injector() {
    for pin in pins() {
        let m = flowery_lang::compile("pin", pin.src).unwrap();
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        for snapshots in [true, false] {
            let cfg = config(pin.model, snapshots);
            let ir = run_ir_campaign(&m, &cfg);
            assert_eq!(ir.counts, pin.ir, "IR counts diverged (model={}, snapshots={snapshots})", pin.model);
            assert_eq!((ir.golden_dyn_insts, ir.golden_sites), pin.ir_golden);
            let asm = run_asm_campaign(&m, &prog, &cfg);
            assert_eq!(asm.counts, pin.asm, "asm counts diverged (model={}, snapshots={snapshots})", pin.model);
            assert_eq!(asm.sdc_insts.len() as u64, asm.counts.sdc);
            assert_eq!((asm.golden_dyn_insts, asm.golden_sites, asm.golden_cycles), pin.asm_golden);
        }
    }
}

#[test]
fn every_model_is_snapshot_path_independent() {
    // Snapshot fast-forward must be invisible to every fault model, not
    // just the default: each effect applies at the site using only
    // at-site state.
    let m = flowery_lang::compile("snap", PROG_B).unwrap();
    let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    let exec = ExecConfig::default();

    let mut ir_scratch = IrTrialRunner::new(&m, &exec);
    let mut ir_snap = IrTrialRunner::new(&m, &exec);
    ir_snap.enable_snapshots();
    let mut asm_scratch = AsmTrialRunner::new(&m, &prog, &exec);
    let mut asm_snap = AsmTrialRunner::new(&m, &prog, &exec);
    asm_snap.enable_snapshots();

    for &model in REGISTERED_MODELS {
        let mut ff = 0u64;
        for trial in 0..40 {
            let a = ir_scratch.run_trial_model(SEED, trial, model, &[]);
            let b = ir_snap.run_trial_model(SEED, trial, model, &[]);
            assert_eq!(a.outcome, b.outcome, "IR {model} trial {trial}");
            assert_eq!(a.injected_at, b.injected_at, "IR {model} trial {trial}");
            assert_eq!(a.ff_insts + a.exec_insts, b.ff_insts + b.exec_insts, "IR {model} trial {trial}");
            let c = asm_scratch.run_trial_model(SEED, trial, model, &[]);
            let d = asm_snap.run_trial_model(SEED, trial, model, &[]);
            assert_eq!(c.outcome, d.outcome, "asm {model} trial {trial}");
            assert_eq!(c.injected_inst, d.injected_inst, "asm {model} trial {trial}");
            assert_eq!(c.ff_insts + c.exec_insts, d.ff_insts + d.exec_insts, "asm {model} trial {trial}");
            ff += b.ff_insts + d.ff_insts;
        }
        assert!(ff > 0, "snapshots never engaged for {model}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The legacy spec-derivation entry points and the trait path must
    /// produce identical specs for any (seed, trial, sites) — the RNG
    /// draw order through the indirection is unchanged.
    #[test]
    fn spec_derivation_matches_legacy((seed, trial, sites) in (0u64..u64::MAX, 0u64..u64::MAX, 1u64..100_000)) {
        let model = ModelSpec::SingleBitReg;
        prop_assert_eq!(ir_fault_spec(seed, trial, sites), model.sample_ir(seed, trial, sites));
        prop_assert_eq!(asm_fault_spec(seed, trial, sites), model.sample_asm(seed, trial, sites));
    }

    /// Trials under the default model with no detectors are identical
    /// through `run_trial` (legacy) and `run_trial_model` (trait path).
    #[test]
    fn trial_path_matches_legacy((seed, trial) in (0u64..u64::MAX, 0u64..5_000)) {
        let m = flowery_lang::compile("pp", PROG_A).unwrap();
        let exec = ExecConfig::default();
        let mut a = IrTrialRunner::new(&m, &exec);
        let mut b = IrTrialRunner::new(&m, &exec);
        let x = a.run_trial(seed, trial);
        let y = b.run_trial_model(seed, trial, ModelSpec::SingleBitReg, &[]);
        prop_assert_eq!(x, y);
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let mut c = AsmTrialRunner::new(&m, &prog, &exec);
        let mut d = AsmTrialRunner::new(&m, &prog, &exec);
        let x = c.run_trial(seed, trial);
        let y = d.run_trial_model(seed, trial, ModelSpec::SingleBitReg, &[]);
        prop_assert_eq!(x, y);
    }
}
