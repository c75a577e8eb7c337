//! Reproducibility: identical seeds must give identical campaigns, and the
//! study results must round-trip through JSON.

use flowery_backend::{compile_module, BackendConfig};
use flowery_inject::{run_asm_campaign, run_ir_campaign, CampaignConfig};
use flowery_workloads::{workload, Scale};

#[test]
fn campaigns_reproduce_with_same_seed() {
    let m = workload("is", Scale::Tiny).compile();
    let mut cfg = CampaignConfig::with_trials(300);
    cfg.threads = 2;
    let a = run_ir_campaign(&m, &cfg);
    let b = run_ir_campaign(&m, &cfg);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.sdc_by_inst, b.sdc_by_inst);

    let prog = compile_module(&m, &BackendConfig::default());
    let c = run_asm_campaign(&m, &prog, &cfg);
    let d = run_asm_campaign(&m, &prog, &cfg);
    assert_eq!(c.counts, d.counts);
    let mut ci = c.sdc_insts.clone();
    let mut di = d.sdc_insts.clone();
    ci.sort();
    di.sort();
    assert_eq!(ci, di);
}

#[test]
fn different_seeds_differ() {
    let m = workload("is", Scale::Tiny).compile();
    let a = run_ir_campaign(&m, &CampaignConfig { seed: 1, ..CampaignConfig::with_trials(400) });
    let b = run_ir_campaign(&m, &CampaignConfig { seed: 2, ..CampaignConfig::with_trials(400) });
    assert_ne!(
        (a.counts.sdc, a.counts.benign, a.counts.due),
        (b.counts.sdc, b.counts.benign, b.counts.due),
        "different seeds should explore different fault sites"
    );
}

#[test]
fn study_results_round_trip_json() {
    use flowery_harness::{HarnessConfig, MatrixSpec, RunOptions};
    let spec = MatrixSpec {
        benches: vec!["is".into()],
        scale: Scale::Tiny,
        ..Default::default()
    };
    let cfg = HarnessConfig { max_trials: 150, ..Default::default() };
    let study = flowery_core::run_study(&spec, &cfg, RunOptions::default()).unwrap();
    let json = serde_json::to_string(&study).expect("serialize");
    let back: flowery_core::StudyResults = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.benches.len(), study.benches.len());
    assert_eq!(back.benches[0].name, "is");
    assert_eq!(back.benches[0].levels.len(), study.benches[0].levels.len());
    assert_eq!(back.benches[0].full_level().id_asm_counts, study.benches[0].full_level().id_asm_counts);
}

#[test]
fn asm_program_serializes() {
    let m = workload("crc32", Scale::Tiny).compile();
    let prog = compile_module(&m, &BackendConfig::default());
    let json = serde_json::to_string(&prog).expect("serialize program");
    let back: flowery_backend::AsmProgram = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.insts.len(), prog.insts.len());
    assert_eq!(back.main_entry, prog.main_entry);
}

#[test]
fn module_serializes() {
    let m = workload("bfs", Scale::Tiny).compile();
    let json = serde_json::to_string(&m).expect("serialize module");
    let back: flowery_ir::Module = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, m);
}
