//! Reproducibility: identical seeds must give identical campaigns, and the
//! study results must round-trip through JSON.

use flowery_backend::{compile_module, BackendConfig};
use flowery_harness::Variant;
use flowery_harness::{run_units, GoldenCache, HarnessConfig, Layer, RunOptions, TrialUnit, UnitKey, UnitResult};
use flowery_workloads::{workload, Scale};
use std::sync::Arc;

/// One campaign of `trials` trials from `seed` over tiny `is`, at the IR
/// layer and at the assembly layer.
fn campaign(seed: u64, trials: u64) -> Vec<UnitResult> {
    let m = Arc::new(workload("is", Scale::Tiny).compile());
    let prog = Arc::new(compile_module(&m, &BackendConfig::default()));
    let units = [
        TrialUnit::ir(UnitKey::new("is", Variant::Raw, 0.0, Layer::Ir), m.clone()),
        TrialUnit::asm(UnitKey::new("is", Variant::Raw, 0.0, Layer::Asm), m, prog),
    ];
    let cfg = HarnessConfig {
        max_trials: trials,
        seed,
        threads: 2,
        ..HarnessConfig::default()
    };
    run_units(&units, &cfg, &GoldenCache::new(), RunOptions::default())
        .complete()
        .unwrap()
}

#[test]
fn campaigns_reproduce_with_same_seed() {
    let (a, b) = (campaign(7, 300), campaign(7, 300));
    assert_eq!(a[0].counts, b[0].counts);
    assert_eq!(a[0].sdc_by_inst, b[0].sdc_by_inst);
    assert_eq!(a[1].counts, b[1].counts);
    assert_eq!(a[1].sdc_insts, b[1].sdc_insts, "SDC sites in trial order");
}

#[test]
fn different_seeds_differ() {
    let (a, b) = (&campaign(1, 400)[0], &campaign(2, 400)[0]);
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
