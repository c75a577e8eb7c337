//! Integration tests for the paper's central claims (Observations 1-3 in
//! §5.1 and the Flowery results in §7.1), at smoke scale — and the pins
//! that hold the study and the extension studies to the numbers they
//! produced before they became views over `build_matrix` → `run_units`.

use flowery_backend::{compile_module, AsmLayer, ExecMode, Machine};
use flowery_core::ablation::ablation_study;
use flowery_core::extension::{asm_hardening_study, multi_bit_study};
use flowery_core::figures::{table1, Table1Row};
use flowery_core::{run_study, study, BenchResults, StudyResults};
use flowery_harness::{
    build_matrix, protect, run_units, Control, GoldenCache, HarnessConfig, MatrixSpec, MetricsSnapshot, RunOptions,
};
use flowery_inject::OutcomeCounts;
use flowery_ir::interp::{ExecConfig, Interpreter, Substrate};
use flowery_workloads::{workload, Scale};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

fn matrix(benches: &[&str], levels: &[f64]) -> MatrixSpec {
    MatrixSpec {
        benches: benches.iter().map(|b| b.to_string()).collect(),
        scale: Scale::Tiny,
        levels: levels.to_vec(),
        profile_trials: 80,
        ..Default::default()
    }
}

fn schedule(trials: u64) -> HarnessConfig {
    HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() }
}

fn smoke(name: &str) -> BenchResults {
    let study = run_study(&matrix(&[name], &[1.0]), &schedule(400), RunOptions::default()).unwrap();
    study.benches.into_iter().next().unwrap()
}

#[test]
fn observation3_full_protection_is_complete_at_ir_level() {
    // "at LLVM level fault injection ... instruction duplication with full
    //  protection can effectively detect all the SDCs"
    for name in ["is", "pathfinder", "crc32"] {
        let r = smoke(name);
        let full = r.full_level();
        assert_eq!(
            full.id_ir_counts.sdc, 0,
            "{name}: full protection must leave zero IR-level SDCs: {:?}",
            full.id_ir_counts
        );
        assert!(full.id_ir.coverage > 0.999, "{name}: {:?}", full.id_ir);
    }
}

#[test]
fn observation2_assembly_coverage_falls_short() {
    for name in ["quicksort", "needle"] {
        let r = smoke(name);
        let full = r.full_level();
        assert!(
            full.id_asm.coverage < full.id_ir.coverage - 0.05,
            "{name}: expected a clear cross-layer gap, got IR {:.3} vs asm {:.3}",
            full.id_ir.coverage,
            full.id_asm.coverage
        );
        assert!(full.id_asm_counts.sdc > 0, "{name}: assembly-level SDCs must exist under full protection");
    }
}

#[test]
fn flowery_closes_most_of_the_gap() {
    for name in ["is", "quicksort"] {
        let r = smoke(name);
        let full = r.full_level();
        let gap_id = full.id_ir.coverage - full.id_asm.coverage;
        let gap_fl = full.id_ir.coverage - full.flowery_asm.coverage;
        assert!(
            gap_fl < gap_id * 0.6,
            "{name}: Flowery should close more than 40% of the gap: ID gap {gap_id:.3}, Flowery gap {gap_fl:.3}"
        );
    }
}

#[test]
fn protection_levels_trade_off_coverage_for_overhead() {
    let spec = matrix(&["pathfinder"], &[0.3, 1.0]);
    let r = run_study(&spec, &schedule(400), RunOptions::default())
        .unwrap()
        .benches
        .remove(0);
    let l30 = r.at_level(0.3).unwrap();
    let l100 = r.at_level(1.0).unwrap();
    let duplicated = protect(&workload("pathfinder", Scale::Tiny).compile(), &spec);
    assert!(
        duplicated[0].1.static_size() < duplicated[1].1.static_size(),
        "a lower level duplicates less"
    );
    assert!(l30.id_dyn < l100.id_dyn, "higher level costs more dynamic instructions");
    assert!(
        l30.id_ir.coverage <= l100.id_ir.coverage + 0.05,
        "IR coverage grows with level: {:.3} vs {:.3}",
        l30.id_ir.coverage,
        l100.id_ir.coverage
    );
}

#[test]
fn rootcause_distribution_shape_matches_paper() {
    // Aggregated over a few benchmarks, store+branch+comparison must
    // dominate the deficiency cases (paper: 94.5%).
    let mut agg = flowery_analysis::PenetrationBreakdown::default();
    for name in ["is", "quicksort", "needle"] {
        let r = smoke(name);
        agg.merge(&r.full_level().rootcause);
    }
    let defic = agg.deficiency_total();
    assert!(defic > 0);
    let big3 = agg.store + agg.branch + agg.comparison;
    assert!(big3 as f64 >= 0.7 * defic as f64, "store/branch/comparison must dominate: {agg:?}");
    // Store penetration is the single largest category in the paper (39.1%).
    assert!(agg.store > 0);
}

#[test]
fn detected_rate_rises_with_protection() {
    let r = smoke("crc32");
    let full = r.full_level();
    assert!(
        full.id_ir_counts.detected_rate() > 0.1,
        "checkers must catch a sizable share at IR level: {:?}",
        full.id_ir_counts
    );
    assert!(
        full.flowery_asm_counts.detected_rate() >= full.id_asm_counts.detected_rate(),
        "Flowery adds detection at assembly level"
    );
}

// ------------------------------------------------------------------ pins
//
// Recorded on the tree where the study had its own matrix builder
// (`core::pipeline::prepare`) and the extension studies ran sequential
// `run_asm_campaign`s: `Scale::Tiny`, seed `0x51C2_3001`, 200 trials, a
// 150-trial profile. Counts are `[benign, sdc, detected, due]`.

const STUDY_PIN: &str = "\
is static 117 raw ir [16, 104, 0, 80] asm [62, 63, 0, 75] dyn 3168 8007
is@0.5 ir [28, 41, 91, 40] asm [69, 44, 23, 64] fl [76, 23, 53, 48] rc [15, 2, 12, 0, 0, 15, 0] dyn [8007, 10780, 13395] cyc [14984, 19769, 23914]
is@1 ir [11, 0, 147, 42] asm [52, 22, 82, 44] fl [54, 6, 88, 52] rc [8, 1, 12, 0, 0, 1, 0] dyn [8007, 17014, 21036] cyc [14984, 31904, 38684]
pathfinder static 152 raw ir [76, 71, 0, 53] asm [107, 34, 0, 59] dyn 3537 8803
pathfinder@0.5 ir [46, 28, 100, 26] asm [94, 29, 31, 46] fl [79, 14, 64, 43] rc [11, 0, 8, 1, 0, 9, 0] dyn [8803, 11889, 15262] cyc [16573, 21664, 27315]
pathfinder@1 ir [14, 0, 142, 44] asm [71, 16, 65, 48] fl [80, 8, 73, 39] rc [11, 0, 3, 1, 0, 1, 0] dyn [8803, 17117, 22863] cyc [16573, 31302, 41487]
";

const ABLATION_PIN: &str = "\
AblationRow { benchmark: \"is\", config: \"default\", coverage_pct: 65.07936507936508, golden_dyn: 17014, rootcause: PenetrationBreakdown { store: 8, branch: 1, comparison: 12, call: 0, mapping: 0, unprotected: 1, other: 0 } }
AblationRow { benchmark: \"is\", config: \"no-reg-cache\", coverage_pct: 87.20930232558139, golden_dyn: 20991, rootcause: PenetrationBreakdown { store: 8, branch: 1, comparison: 2, call: 0, mapping: 0, unprotected: 0, other: 0 } }
AblationRow { benchmark: \"is\", config: \"no-fold\", coverage_pct: 80.95238095238095, golden_dyn: 18545, rootcause: PenetrationBreakdown { store: 9, branch: 0, comparison: 0, call: 0, mapping: 0, unprotected: 3, other: 0 } }
AblationRow { benchmark: \"is\", config: \"no-fuse\", coverage_pct: 77.35849056603774, golden_dyn: 18577, rootcause: PenetrationBreakdown { store: 7, branch: 0, comparison: 1, call: 0, mapping: 0, unprotected: 4, other: 0 } }
AblationRow { benchmark: \"is\", config: \"gpr-4\", coverage_pct: 77.94117647058823, golden_dyn: 17449, rootcause: PenetrationBreakdown { store: 9, branch: 0, comparison: 4, call: 0, mapping: 0, unprotected: 2, other: 0 } }
AblationRow { benchmark: \"is\", config: \"gpr-6\", coverage_pct: 82.08955223880598, golden_dyn: 17167, rootcause: PenetrationBreakdown { store: 8, branch: 0, comparison: 3, call: 0, mapping: 0, unprotected: 1, other: 0 } }
";

const HARDENING_PIN: &str = "\
HardeningRow { benchmark: \"crc32\", id_pct: 59.32203389830508, flowery_pct: 91.52542372881355, hardened_pct: 93.22033898305084, id_ir_pct: 100.0, harden_overhead: 0.11841318856459807, checks: 16 }
";

const MULTI_BIT_PIN: &str = "\
MultiBitRow { benchmark: \"is\", raw_sdc_single: 0.315, raw_sdc_double: 0.23, cov_single_pct: 90.47619047619048, cov_double_pct: 93.47826086956522 }
";

/// The pinned projection of a study (`{:?}` of an `f64` round-trips, so
/// equal text is equal bits).
fn study_lines(s: &StudyResults) -> String {
    let counts = |c: &OutcomeCounts| [c.benign, c.sdc, c.detected, c.due];
    let mut out = String::new();
    for b in &s.benches {
        let (ir, asm) = (counts(&b.raw_ir_counts), counts(&b.raw_asm_counts));
        let (name, dyn_ir, dyn_asm) = (&b.name, b.raw_ir_dyn, b.raw_asm_dyn);
        writeln!(out, "{name} static {} raw ir {ir:?} asm {asm:?} dyn {dyn_ir} {dyn_asm}", b.static_insts).unwrap();
        for l in &b.levels {
            let r = &l.rootcause;
            writeln!(
                out,
                "{name}@{} ir {:?} asm {:?} fl {:?} rc {:?} dyn {:?} cyc {:?}",
                l.level,
                counts(&l.id_ir_counts),
                counts(&l.id_asm_counts),
                counts(&l.flowery_asm_counts),
                [r.store, r.branch, r.comparison, r.call, r.mapping, r.unprotected, r.other],
                [l.raw_dyn, l.id_dyn, l.flowery_dyn],
                [l.raw_cycles, l.id_cycles, l.flowery_cycles],
            )
            .unwrap();
        }
    }
    out
}

fn row_lines<R: std::fmt::Debug>(rows: &[R]) -> String {
    rows.iter().map(|r| format!("{r:?}\n")).collect()
}

/// Every executor × snapshots setting of the pinned schedule.
fn every_engine() -> Vec<HarnessConfig> {
    let mut all = Vec::new();
    for executor in [ExecMode::Interp, ExecMode::Compiled, ExecMode::Native] {
        for snapshots in [true, false] {
            let mut cfg = HarnessConfig { snapshots, threads: 2, ..schedule(200) };
            cfg.exec.executor = executor;
            all.push(cfg);
        }
    }
    all
}

/// Whether assembly trials under `cfg` run as native code on this host.
fn runs_native(cfg: &HarnessConfig) -> bool {
    AsmLayer::engine(&cfg.exec) == ExecMode::Native
}

/// Runs `pass` under every engine setting with a progress callback that
/// notes whether any batch ran native code or fast-forwarded, and checks
/// the setting was not vacuous.
fn under_every_engine(pass: impl Fn(&HarnessConfig, &(dyn Fn(&MetricsSnapshot) -> Control + Sync), &str)) {
    for cfg in every_engine() {
        let what = format!("{} snapshots={}", cfg.exec.executor, cfg.snapshots);
        let (native, fast_forward) = (AtomicBool::new(false), AtomicBool::new(false));
        let watch = |m: &MetricsSnapshot| {
            native.fetch_or(m.native_insts > 0, Ordering::Relaxed);
            fast_forward.fetch_or(m.ff_insts > 0, Ordering::Relaxed);
            Control::Continue
        };
        pass(&cfg, &watch, &what);
        assert_eq!(native.load(Ordering::Relaxed), runs_native(&cfg), "[{what}]");
        assert_eq!(fast_forward.load(Ordering::Relaxed), cfg.snapshots, "[{what}]");
    }
}

#[test]
fn pinned_study_reproduces_under_every_engine_snapshot_and_prune_setting() {
    let spec = MatrixSpec {
        profile_trials: 150,
        ..matrix(&["is", "pathfinder"], &[0.5, 1.0])
    };
    let units = build_matrix(&spec);
    under_every_engine(|cfg, watch, what| {
        // Pruning resolves a trial before it would restore a snapshot, so the
        // two settings cannot interact: the pruned legs ride on the
        // snapshot-on settings only, which keeps this binary under 25 s.
        for static_prune in [false, true].into_iter().take(1 + usize::from(cfg.snapshots)) {
            let cfg = HarnessConfig { static_prune, ..cfg.clone() };
            let opts = RunOptions { progress: Some(watch), ..Default::default() };
            let report = run_units(&units, &cfg, &GoldenCache::new(), opts);
            let got = study(&units, &report.units, &spec.backend).unwrap();
            assert_eq!(study_lines(&got), STUDY_PIN, "[{what} prune={static_prune}]");
            assert_eq!((got.trials, got.levels.as_slice()), (200, &[0.5, 1.0][..]));
            let pruned: u64 = report.units.iter().map(|u| u.pruned).sum();
            assert_eq!(pruned > 0, static_prune, "[{what} prune={static_prune}]");
        }
    });
}

/// Table 1 is a projection of the study's Raw@IR and Raw@Asm goldens. Its
/// oracle is what `figures::table1` did before it read the study: run each
/// raw program once at both layers, outside any campaign.
#[test]
fn table1_is_the_studys_raw_goldens_at_both_layers() {
    let spec = MatrixSpec {
        profile_trials: 150,
        ..matrix(&["is", "pathfinder"], &[0.5, 1.0])
    };
    let got = table1(&run_study(&spec, &schedule(40), RunOptions::default()).unwrap());
    let oracle: Vec<Table1Row> = ["is", "pathfinder"]
        .iter()
        .map(|name| {
            let w = workload(name, Scale::Tiny);
            let m = w.compile();
            let ir = Interpreter::new(&m).run(&ExecConfig::default(), None);
            let prog = compile_module(&m, &spec.backend);
            let asm = Machine::new(&m, &prog).run(&ExecConfig::default(), None);
            Table1Row {
                benchmark: w.name.to_string(),
                suite: w.suite.name().to_string(),
                domain: w.domain.to_string(),
                di_ir: ir.dyn_insts,
                di_asm: asm.dyn_insts,
            }
        })
        .collect();
    assert_eq!(got, oracle);
    // The same goldens STUDY_PIN holds (`dyn 3168 8007`, `dyn 3537 8803`).
    assert_eq!(got.iter().map(|r| (r.di_ir, r.di_asm)).collect::<Vec<_>>(), [(3168, 8007), (3537, 8803)]);
}

#[test]
fn pinned_ablation_rows_reproduce_under_every_engine_and_snapshot_setting() {
    under_every_engine(|cfg, watch, what| {
        let rows = ablation_study(&matrix(&["is"], &[1.0]), cfg, Some(watch)).unwrap();
        assert_eq!(row_lines(&rows), ABLATION_PIN, "[{what}]");
    });
}

#[test]
fn pinned_hardening_and_multi_bit_rows_reproduce_under_every_engine_and_snapshot_setting() {
    under_every_engine(|cfg, watch, what| {
        let rows = asm_hardening_study(&matrix(&["crc32"], &[1.0]), cfg, Some(watch)).unwrap();
        assert_eq!(row_lines(&rows), HARDENING_PIN, "[{what}]");
        let rows = multi_bit_study(&matrix(&["is"], &[1.0]), cfg, Some(watch)).unwrap();
        assert_eq!(row_lines(&rows), MULTI_BIT_PIN, "[{what}]");
    });
}
