//! Differential tests for snapshot fast-forward: a trial restored from a
//! golden-run snapshot must be **byte-identical** to the same trial
//! executed from scratch — status, output, counters, and injection
//! attribution — at both the IR and the assembly layer.
//!
//! The generator varies program shape (loop extents, call density, global
//! array traffic) and then samples fault sites across the whole dynamic
//! range, so late injection sites (the fast-forward win) and pre-snapshot
//! sites (the fallback path) are both exercised.

use flowery_ir::interp::substrate;
use flowery_ir::interp::{ExecConfig, FaultSpec, Interpreter};
use proptest::prelude::*;

/// A loop/call/store-heavy program whose golden run is long enough for
/// several snapshots at the test cadence.
fn program(outer: u32, inner: u32, modulus: u32) -> String {
    format!(
        "global int arr[16] = {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}};\n\
         int work(int x) {{\n\
           int j; int t = x;\n\
           for (j = 0; j < {inner}; j = j + 1) {{\n\
             t = t + arr[((t + j) % 16 + 16) % 16] * (j + 1);\n\
             arr[(t % 16 + 16) % 16] = t % {modulus};\n\
           }}\n\
           return t;\n\
         }}\n\
         int main() {{\n\
           int i; int s = 0;\n\
           for (i = 0; i < {outer}; i = i + 1) {{\n\
             s = s + work(i);\n\
             if (s % 7 == 0) {{ output(s); }}\n\
           }}\n\
           output(s);\n\
           return s & 65535;\n\
         }}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, max_shrink_iters: 50, ..ProptestConfig::default() })]

    #[test]
    fn fast_forwarded_trials_are_bit_identical(
        ((outer, inner), modulus, interval, faults) in (
            (15u32..90, 4u32..30),
            97u32..9973,
            64u64..512,
            prop::collection::vec((0.0f64..1.0, 0u8..64), 4..8),
        )
    ) {
        let src = program(outer, inner, modulus);
        let m = flowery_lang::compile("snap", &src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));

        // IR layer.
        let interp = Interpreter::new(&m);
        let golden = interp.run(&ExecConfig::default(), None);
        prop_assert!(golden.status.is_completed(), "golden must complete: {:?}", golden.status);
        // Tight budget: livelocked fault trials run it out in BOTH paths.
        let exec = ExecConfig {
            max_dyn_insts: golden.dyn_insts * 2 + 10_000,
            ..ExecConfig::default()
        };
        let set = interp.capture_snapshots(&exec, interval);
        prop_assert_eq!(set.golden().output.clone(), golden.output.clone());
        let mut scratch = flowery_ir::interp::IrScratch::new();
        for &(frac, bit) in &faults {
            let site = ((frac * golden.fault_sites as f64) as u64).min(golden.fault_sites - 1);
            let spec = FaultSpec::single(site, bit as u32);
            let plain = interp.run(&exec, Some(spec));
            let (ff, skipped, _) = substrate::trial(&interp, &exec, spec, Some(&set), &mut scratch);
            prop_assert_eq!(ff.status, plain.status, "IR status @ site {} bit {}\n{}", site, bit, &src);
            prop_assert_eq!(&ff.output, &plain.output, "IR output @ site {}\n{}", site, &src);
            prop_assert_eq!(ff.dyn_insts, plain.dyn_insts, "IR dyn_insts @ site {}\n{}", site, &src);
            prop_assert_eq!(ff.fault_sites, plain.fault_sites, "IR fault_sites @ site {}\n{}", site, &src);
            prop_assert_eq!(ff.injected_at, plain.injected_at, "IR injected_at @ site {}\n{}", site, &src);
            prop_assert!(skipped <= ff.dyn_insts, "cannot skip more than the trial ran");
            scratch.recycle_output(ff.output);
        }

        // Assembly layer.
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let mach = flowery_backend::Machine::new(&m, &prog);
        let g = mach.run(&ExecConfig::default(), None);
        prop_assert!(g.status.is_completed());
        let exec = ExecConfig { max_dyn_insts: g.dyn_insts * 2 + 10_000, ..ExecConfig::default() };
        let set = mach.capture_snapshots(&exec, interval);
        prop_assert_eq!(set.golden().output.clone(), g.output.clone());
        let mut scratch = flowery_backend::AsmScratch::new();
        for &(frac, bit) in &faults {
            let site = ((frac * g.fault_sites as f64) as u64).min(g.fault_sites - 1);
            let spec = flowery_backend::AsmFaultSpec::single(site, bit as u32);
            let plain = mach.run(&exec, Some(spec));
            let (ff, ..) = substrate::trial(&mach, &exec, spec, Some(&set), &mut scratch);
            prop_assert_eq!(ff.status, plain.status, "asm status @ site {} bit {}\n{}", site, bit, &src);
            prop_assert_eq!(&ff.output, &plain.output, "asm output @ site {}\n{}", site, &src);
            prop_assert_eq!(ff.dyn_insts, plain.dyn_insts, "asm dyn_insts @ site {}\n{}", site, &src);
            prop_assert_eq!(ff.fault_sites, plain.fault_sites, "asm fault_sites @ site {}\n{}", site, &src);
            prop_assert_eq!(ff.cycles, plain.cycles, "asm cycles @ site {}\n{}", site, &src);
            prop_assert_eq!(ff.injected_inst, plain.injected_inst, "asm injected_inst @ site {}\n{}", site, &src);
            scratch.recycle_output(ff.output);
        }
    }
}

/// Whole-campaign differential over trial indices: the runner with
/// snapshots attached must reproduce the scratch runner trial for trial,
/// including the outcome classification.
#[test]
fn trial_runner_indices_match_with_and_without_snapshots() {
    let src = program(60, 12, 1009);
    let m = flowery_lang::compile("snap", &src).unwrap();
    let exec = ExecConfig::default();

    let mut plain = flowery_inject::IrTrialRunner::new(&m, &exec);
    let mut ff = flowery_inject::IrTrialRunner::new(&m, &exec);
    ff.enable_snapshots();
    let mut skipped_any = false;
    for i in 0..150 {
        let a = plain.run_trial(0xFEED, i);
        let b = ff.run_trial(0xFEED, i);
        assert_eq!(a.outcome, b.outcome, "IR trial {i}");
        assert_eq!(a.injected_at, b.injected_at, "IR trial {i}");
        assert_eq!(a.ff_insts + a.exec_insts, b.ff_insts + b.exec_insts, "IR trial {i}");
        skipped_any |= b.ff_insts > 0;
    }
    assert!(skipped_any, "a long program must fast-forward some trials");

    let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    let mut plain = flowery_inject::AsmTrialRunner::new(&m, &prog, &exec);
    let mut ff = flowery_inject::AsmTrialRunner::new(&m, &prog, &exec);
    ff.enable_snapshots();
    let mut skipped_any = false;
    for i in 0..150 {
        let a = plain.run_trial(0xFEED, i);
        let b = ff.run_trial(0xFEED, i);
        assert_eq!(a.outcome, b.outcome, "asm trial {i}");
        assert_eq!(a.injected_inst, b.injected_inst, "asm trial {i}");
        assert_eq!(a.ff_insts + a.exec_insts, b.ff_insts + b.exec_insts, "asm trial {i}");
        skipped_any |= b.ff_insts > 0;
    }
    assert!(skipped_any, "a long program must fast-forward some trials");
}
