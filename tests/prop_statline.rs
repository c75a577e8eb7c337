//! Property tests for the static penetration analyzer (`flowery lint`).
//!
//! Two properties over randomly generated MiniC programs (generator shared
//! with `prop_equivalence.rs` via `tests/common/mod.rs`):
//!
//! 1. **Soundness** — at full instruction duplication, with or without the
//!    Flowery patches, every assembly-level SDC site an injection campaign
//!    finds must be statically flagged. The campaign is a sampled lower
//!    bound of the true vulnerable set, so any site it proves vulnerable
//!    that the lint calls `Protected` is a hard counterexample to the
//!    engine's over-approximation.
//! 2. **Flowery convergence** — after the three Flowery patches the lint
//!    must predict zero *branch* penetrations (the postponed branch check
//!    guards every at-risk branch), and zero *comparison* penetrations
//!    whenever the Layer-2 lint confirms no shadow survives compare folding
//!    (`anti_cmp` can miss exotic compare shapes — stringsearch — in which
//!    case the Layer-1 predictions and Layer-2 `foldable-checker` findings
//!    must agree that a residual exists). Store penetration legitimately
//!    persists under Flowery (a corrupted store *address* re-reads the same
//!    wrong cell it wrote, so the load-back check passes) and is not gated.

mod common;
#[path = "common/serial_fold.rs"]
mod serial_fold;

use common::program_strategy;
use flowery_analysis::statline::{lint_module, predict_program, InvariantKind};
use flowery_backend::{compile_module, BackendConfig};
use flowery_inject::{AsmTrialRunner, ModelSpec};
use flowery_ir::interp::ExecConfig;
use flowery_ir::Module;
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use proptest::prelude::*;

fn protect(src: &str, flowery: bool) -> Module {
    let mut m = flowery_lang::compile("prop", src).unwrap();
    let plan = ProtectionPlan::full(&m);
    duplicate_module(&mut m, &plan, &DupConfig::default());
    if flowery {
        apply_flowery(&mut m, &FloweryConfig::default());
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 0, ..ProptestConfig::default() })]

    #[test]
    fn campaign_sdc_sites_are_statically_flagged((src, flowery) in (program_strategy(), prop_oneof![Just(false), Just(true)])) {
        let m = protect(&src, flowery);
        let bcfg = BackendConfig::default();
        let prog = compile_module(&m, &bcfg);
        let report = predict_program(&m, &prog, bcfg.fold_compares);
        let mut runner = AsmTrialRunner::new(&m, &prog, &ExecConfig::default());
        let camp = serial_fold::serial_fold(&mut runner, serial_fold::SEED, 250, ModelSpec::SingleBitReg);
        for &idx in &camp.sdc_insts {
            prop_assert!(
                report.is_flagged(idx),
                "measured SDC site {idx} ({:?}, flowery {flowery}) escaped the static pass\n{src}",
                prog.insts[idx as usize].kind
            );
        }
    }

    #[test]
    fn flowery_predicts_no_branch_and_fold_free_comparison(src in program_strategy()) {
        let m = protect(&src, true);
        let bcfg = BackendConfig::default();
        let prog = compile_module(&m, &bcfg);
        let report = predict_program(&m, &prog, bcfg.fold_compares);
        prop_assert_eq!(
            report.breakdown.branch, 0,
            "Flowery's postponed branch check must close every branch shape\n{}", &src
        );
        let foldable = lint_module(&m)
            .iter()
            .filter(|f| f.kind == InvariantKind::FoldableChecker)
            .count();
        if foldable == 0 {
            prop_assert_eq!(
                report.breakdown.comparison, 0,
                "no foldable checker survives, yet comparison predicted\n{}", &src
            );
        }
    }
}
