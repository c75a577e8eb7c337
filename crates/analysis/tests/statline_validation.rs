//! Acceptance gate for the static penetration analyzer: on every Table-1
//! workload at full instruction duplication, the lint must statically flag
//! at least 90% of the SDC sites an injection campaign measures in each of
//! the store / branch / comparison categories (the paper's three dominant
//! penetrations), and the cross-validation report must carry the evidence.
//!
//! At Flowery-100 the analyzer must also agree with the patches: no branch
//! predictions anywhere, and no comparison predictions unless the Layer-2
//! lint proves a shadow still folds (the stringsearch residual).
//!
//! Over all 48 programs (raw, ID-100, Flowery-100) the engine's two queries
//! must agree with each other and flag every stack/frame-pointer site.

use flowery_analysis::rootcause::Penetration;
use flowery_analysis::statline::{
    analyze_bits, cross_validate, lint_module, predict_program, render_validation, InvariantKind, Sink, StaticReport,
};
use flowery_backend::mir::{FaultDest, Reg};
use flowery_backend::{compile_module, AsmProgram, BackendConfig};
use flowery_inject::{AsmTrialRunner, BatchOutcome, ModelSpec};
use flowery_ir::interp::ExecConfig;
use flowery_ir::Module;
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::{workload, Scale, NAMES};
use std::sync::OnceLock;

#[path = "../../../tests/common/serial_fold.rs"]
mod serial_fold;

/// The default-seed single-bit campaign of `trials` trials over `prog`,
/// fast-forwarded from golden-run snapshots.
fn campaign(m: &Module, prog: &AsmProgram, trials: u64) -> BatchOutcome {
    let mut runner = AsmTrialRunner::new(m, prog, &ExecConfig::default());
    runner.enable_snapshots();
    serial_fold::serial_fold(&mut runner, serial_fold::SEED, trials, ModelSpec::SingleBitReg)
}

fn protect(name: &str, flowery: bool) -> Module {
    let mut m = workload(name, Scale::Standard).compile();
    let plan = ProtectionPlan::full(&m);
    duplicate_module(&mut m, &plan, &DupConfig::default());
    if flowery {
        apply_flowery(&mut m, &FloweryConfig::default());
    }
    m
}

/// The 48 programs — every workload raw, at ID-100 and at Flowery-100 —
/// with their lint reports, built once for the tests that share them.
fn all_programs() -> &'static [(String, Module, AsmProgram, StaticReport)] {
    static ALL: OnceLock<Vec<(String, Module, AsmProgram, StaticReport)>> = OnceLock::new();
    ALL.get_or_init(|| {
        let bcfg = BackendConfig::default();
        let mut all = Vec::new();
        for name in NAMES {
            let raw = workload(name, Scale::Standard).compile();
            for (pass, m) in [("raw", raw), ("id", protect(name, false)), ("flowery", protect(name, true))] {
                let prog = compile_module(&m, &bcfg);
                let report = predict_program(&m, &prog, bcfg.fold_compares);
                all.push((format!("{name}/{pass}"), m, prog, report));
            }
        }
        all
    })
}

#[test]
fn stack_and_frame_pointer_sites_are_flagged_control_image() {
    let mut seen = 0;
    for (name, _, prog, report) in all_programs() {
        for (idx, inst) in prog.insts.iter().enumerate() {
            if matches!(inst.kind.fault_dest(), FaultDest::Gpr(Reg::Rsp | Reg::Rbp, _)) {
                seen += 1;
                let p = report.flagged.iter().find(|p| p.idx == idx as u32);
                assert_eq!(p.map(|p| p.sink), Some(Sink::ControlImage), "{name} site {idx}: {:?}", inst.kind);
            }
        }
    }
    assert!(seen > 300, "every function sets up and tears down a frame ({seen} sites)");
}

#[test]
fn sites_the_prune_proves_fully_masked_are_lint_protected() {
    let mut proven = 0;
    for (name, m, prog, report) in all_programs() {
        let table = analyze_bits(m, prog);
        for (idx, v) in table.verdicts.iter().enumerate() {
            if prog.insts[idx].kind.is_fault_site() && v.proven_masked == u64::MAX {
                proven += 1;
                assert!(!report.is_flagged(idx as u32), "{name} site {idx}: all 64 bits masked, yet flagged");
            }
        }
    }
    assert!(proven > 0, "some sites are masked in every bit");
}

#[test]
fn id_full_recall_at_least_90_percent_on_all_workloads() {
    let bcfg = BackendConfig::default();
    for name in NAMES {
        let m = protect(name, false);
        let prog = compile_module(&m, &bcfg);
        let report = predict_program(&m, &prog, bcfg.fold_compares);
        let camp = campaign(&m, &prog, 800);
        let v = cross_validate(&m, &prog, &report, &camp.sdc_insts, bcfg.fold_compares);
        for cat in [Penetration::Store, Penetration::Branch, Penetration::Comparison] {
            assert!(
                v.recall_of(cat) >= 0.9,
                "{name}: {} recall {:.2} below gate\n{}",
                cat.name(),
                v.recall_of(cat),
                render_validation(&v)
            );
        }
        // Report structure: one row per classification bucket, and the
        // totals must be consistent with the rows.
        assert_eq!(v.rows.len(), 7, "{name}");
        assert_eq!(v.measured_sites, v.rows.iter().map(|r| r.measured).sum::<u64>(), "{name}");
        assert_eq!(v.flagged_measured, v.rows.iter().map(|r| r.flagged).sum::<u64>(), "{name}");
        assert_eq!(v.flagged_total, report.flagged.len() as u64, "{name}");
        let text = render_validation(&v);
        assert!(text.contains("recall") && text.contains("overall:"), "{name}:\n{text}");
    }
}

#[test]
fn flowery_full_closes_branch_and_fold_guarded_comparison() {
    let bcfg = BackendConfig::default();
    for name in NAMES {
        let m = protect(name, true);
        let prog = compile_module(&m, &bcfg);
        let report = predict_program(&m, &prog, bcfg.fold_compares);
        assert_eq!(report.breakdown.branch, 0, "{name}: branch predictions at Flowery-100");
        let foldable = lint_module(&m)
            .iter()
            .filter(|f| f.kind == InvariantKind::FoldableChecker)
            .count();
        if foldable == 0 {
            assert_eq!(report.breakdown.comparison, 0, "{name}: comparison predictions without foldable checkers");
        } else {
            assert!(
                report.breakdown.comparison > 0,
                "{name}: Layer 2 proves {foldable} foldable checkers but Layer 1 predicts none"
            );
        }
    }
}
