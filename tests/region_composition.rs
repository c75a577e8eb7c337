//! Differential guarantees for region-level composition (`flowery diff`).
//!
//! Three claims, checked on randomly generated MiniC programs and on all
//! 16 Table-1 workloads:
//!
//! 1. **Exact attribution** — the monolithic engine attributes every
//!    trial to exactly one region: per unit, the per-region tallies sum
//!    bit-for-bit to the unit's outcome counts, for any snapshot setting
//!    and either machine-layer executor.
//! 2. **Deterministic re-sampling** — a region-scoped trial is an ordinary
//!    trial whose site is the region's `k`-th on the golden site stream, so
//!    an incremental run's region profiles are bit-identical across all
//!    three executors, snapshots on or off (scoped trials fast-forward like
//!    any other) and static pruning on or off — and, on two workloads at
//!    both layers, equal to the tallies pinned from the implementation
//!    this replaced (region-local site counters on the reference
//!    interpreter, from scratch).
//! 3. **Statistical composition** — a fresh incremental run (empty
//!    baseline, region-scoped trial streams) composes a whole-program SDC
//!    estimate that agrees with the monolithic campaign's ground truth
//!    within the combined 95% Wilson intervals. The two runs sample
//!    *different* trial streams, so this is the claim the paper-level
//!    composition rule actually needs.

mod common;

use common::program_strategy;
use flowery_backend::ExecMode;
use flowery_harness::{
    build_matrix, run_diff, run_units, Baseline, DiffReport, GoldenCache, HarnessConfig, MatrixSpec, RunOptions,
    TrialUnit,
};
use flowery_inject::OutcomeCounts;
use flowery_workloads::{Scale, NAMES};
use proptest::prelude::*;
use std::collections::HashMap;

fn cfg(snapshots: bool, executor: ExecMode) -> HarnessConfig {
    let mut c = HarnessConfig {
        batch_size: 25,
        max_trials: 50,
        min_trials: 50,
        ci_target: None,
        seed: 0x9E61_0221,
        threads: 2,
        snapshots,
        ..HarnessConfig::default()
    };
    c.exec.executor = executor;
    c
}

fn source_matrix(src: &str) -> Vec<TrialUnit> {
    build_matrix(&MatrixSpec {
        sources: vec![("prop".into(), src.into())],
        scale: Scale::Tiny,
        levels: vec![1.0],
        threads: 2,
        ..Default::default()
    })
}

fn bench_matrix(bench: &str) -> Vec<TrialUnit> {
    build_matrix(&MatrixSpec {
        benches: vec![bench.into()],
        scale: Scale::Tiny,
        levels: vec![1.0],
        threads: 2,
        ..Default::default()
    })
}

/// Claim 1: per-region tallies are an exact partition of the unit tallies.
fn assert_exact_attribution(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    cache: &GoldenCache,
) -> flowery_harness::CampaignReport {
    let mono = run_units(units, cfg, cache, RunOptions::default());
    assert!(!mono.interrupted && mono.error.is_none());
    for u in &mono.units {
        let mut sum = OutcomeCounts::default();
        for (_, c) in &u.region_counts {
            sum.merge(c);
        }
        assert_eq!(sum.total(), u.trials, "{}: unattributed trials", u.key);
        assert_eq!(sum, u.counts, "{}: region tallies are not a partition of the unit tallies", u.key);
    }
    mono
}

/// Claim 3: the composed estimate agrees with the monolithic ground truth
/// within the combined 95% Wilson intervals (different trial streams).
fn assert_composition_within_ci(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    mono: &flowery_harness::CampaignReport,
) {
    let diff = fresh_diff(units, cfg, cache);
    assert_eq!(diff.units.len(), mono.units.len());
    for (m, d) in mono.units.iter().zip(&diff.units) {
        assert_eq!(m.key, d.key);
        assert!(d.trials_run > 0 || d.composed.mass == 0, "{}: fresh diff ran nothing", d.key);
        let gap = (d.composed.value - m.sdc.value).abs();
        let tol = d.composed.ci95 + m.sdc.ci95;
        assert!(
            gap <= tol,
            "{}: composed sdc {:.4} vs monolithic {:.4} (gap {:.4} > combined ci {:.4})",
            d.key,
            d.composed.value,
            m.sdc.value,
            gap,
            tol
        );
    }
}

/// An incremental run against an empty baseline: every region runs fresh.
fn fresh_diff(units: &[TrialUnit], cfg: &HarnessConfig, cache: &GoldenCache) -> DiffReport {
    let empty = Baseline {
        header: cfg.header(),
        regions: HashMap::new(),
        pre_region: true,
    };
    let diff = run_diff(units, cfg, cache, &empty, None);
    assert!(!diff.interrupted && diff.error.is_none(), "{:?}", diff.error);
    diff
}

/// Every executor x snapshots x static-prune setting.
fn every_config() -> Vec<HarnessConfig> {
    let mut all = Vec::new();
    for exec in [ExecMode::Interp, ExecMode::Compiled, ExecMode::Native] {
        for snapshots in [true, false] {
            for static_prune in [false, true] {
                all.push(HarnessConfig { static_prune, ..cfg(snapshots, exec) });
            }
        }
    }
    all
}

/// Claim 2: incremental region profiles are executor-, snapshot- and
/// prune-independent bit for bit.
fn assert_diff_is_config_independent(units: &[TrialUnit], cache: &GoldenCache) {
    let runs: Vec<DiffReport> = every_config().iter().map(|c| fresh_diff(units, c, cache)).collect();
    let first = &runs[0];
    for r in &runs[1..] {
        for (a, b) in first.units.iter().zip(&r.units) {
            assert_eq!(
                a.regions, b.regions,
                "{}: diff profiles diverged across executor/snapshot/prune settings",
                a.key
            );
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.composed, b.composed);
        }
    }
}

/// One region of a pinned unit: name, site mass, `[benign, sdc, detected,
/// due]`, `sdc_insts` in trial order, and `sdc_by_inst` as sorted
/// `(func, inst, hits)`.
type RegionPin = (&'static str, u64, [u64; 4], &'static [u32], &'static [(u32, u32, u64)]);

/// Per-region results of [`fresh_diff`] under [`cfg`] (seed `0x9E61_0221`,
/// two 25-trial batches per region) for `quicksort` and `patricia` at
/// `Scale::Tiny`, recorded on the tree before region-scoped faults became
/// ordinary faults — when they were counted by a region-local site index
/// inside the hot loops, always from scratch, on the reference interpreter.
#[rustfmt::skip]
const PINNED: &[(&str, &[RegionPin])] = &[
    ("quicksort/Raw@0/Ir", &[
        ("main", 353, [7, 12, 0, 6], &[], &[(1, 9, 1), (1, 12, 1), (1, 13, 2), (1, 14, 3), (1, 16, 3), (1, 26, 1), (1, 31, 1)]),
        ("qsort", 1135, [12, 16, 0, 11], &[], &[(0, 6, 2), (0, 22, 1), (0, 23, 1), (0, 25, 1), (0, 30, 3), (0, 38, 2), (0, 53, 2), (0, 57, 1), (0, 59, 1), (0, 66, 1), (0, 78, 1)]),
    ]),
    ("quicksort/Raw@0/Asm", &[
        ("main", 1039, [10, 9, 0, 6], &[275, 367, 286, 300, 299, 300, 273, 351, 268], &[]),
        ("qsort", 4015, [19, 9, 0, 12], &[85, 161, 196, 217, 123, 127, 101, 30, 98], &[]),
    ]),
    ("quicksort/Id@1000/Ir", &[
        ("main", 791, [5, 0, 16, 4], &[], &[]),
        ("qsort", 2657, [5, 0, 29, 5], &[], &[]),
    ]),
    ("quicksort/Id@1000/Asm", &[
        ("main", 1920, [10, 2, 6, 7], &[664, 578], &[]),
        ("qsort", 7175, [18, 4, 9, 9], &[24, 112, 364, 535], &[]),
    ]),
    ("quicksort/Flowery@1000/Asm", &[
        ("main", 3051, [7, 2, 12, 4], &[758, 954], &[]),
        ("qsort", 10066, [17, 2, 15, 5], &[389, 389], &[]),
    ]),
    ("patricia/Raw@0/Ir", &[
        ("insert", 3940, [10, 7, 0, 14], &[], &[(0, 17, 1), (0, 18, 1), (0, 26, 2), (0, 27, 1), (0, 31, 1), (0, 35, 1)]),
        ("lookup", 2382, [13, 9, 0, 3], &[], &[(1, 7, 3), (1, 16, 1), (1, 17, 3), (1, 18, 1), (1, 19, 1)]),
        ("main", 229, [1, 19, 0, 5], &[], &[(2, 7, 2), (2, 10, 1), (2, 13, 2), (2, 15, 1), (2, 21, 1), (2, 22, 1), (2, 23, 4), (2, 24, 1), (2, 26, 1), (2, 31, 5)]),
    ]),
    ("patricia/Raw@0/Asm", &[
        ("insert", 13290, [13, 5, 0, 12], &[134, 99, 24, 99, 72], &[]),
        ("lookup", 8328, [12, 5, 0, 8], &[279, 239, 254, 235, 232], &[]),
        ("main", 848, [13, 8, 0, 4], &[360, 316, 366, 381, 345, 418, 337, 345], &[]),
    ]),
    ("patricia/Id@1000/Ir", &[
        ("insert", 9810, [6, 0, 23, 2], &[], &[]),
        ("lookup", 5800, [7, 0, 17, 1], &[], &[]),
        ("main", 561, [0, 0, 25, 0], &[], &[]),
    ]),
    ("patricia/Id@1000/Asm", &[
        ("insert", 27590, [17, 0, 8, 6], &[], &[]),
        ("lookup", 16348, [12, 3, 6, 4], &[564, 588, 582], &[]),
        ("main", 1663, [4, 3, 15, 3], &[781, 837, 872], &[]),
    ]),
    ("patricia/Flowery@1000/Asm", &[
        ("insert", 38360, [9, 0, 16, 5], &[], &[]),
        ("lookup", 23895, [9, 2, 8, 6], &[610, 725], &[]),
        ("main", 2059, [7, 2, 13, 3], &[1126, 1126], &[]),
    ]),
];

#[test]
fn pinned_region_tallies_reproduce_under_every_engine_snapshot_and_prune_setting() {
    for bench in ["quicksort", "patricia"] {
        let units = bench_matrix(bench);
        for c in every_config() {
            let what = format!("{} snapshots={} prune={}", c.exec.executor, c.snapshots, c.static_prune);
            let diff = fresh_diff(&units, &c, &GoldenCache::new());
            for u in &diff.units {
                let (_, want) = PINNED.iter().find(|(id, _)| *id == u.key.id()).expect("unit is pinned");
                let got: Vec<_> = u
                    .regions
                    .iter()
                    .map(|r| {
                        let (p, c) = (&r.profile, r.profile.counts);
                        let mut by_inst: Vec<_> = p.sdc_by_inst.iter().map(|((f, i), n)| (f.0, i.0, *n)).collect();
                        by_inst.sort_unstable();
                        (
                            r.name.as_str(),
                            p.site_mass,
                            [c.benign, c.sdc, c.detected, c.due],
                            p.sdc_insts.clone(),
                            by_inst,
                        )
                    })
                    .collect();
                let want: Vec<_> = want
                    .iter()
                    .map(|&(n, m, c, insts, by)| (n, m, c, insts.to_vec(), by.to_vec()))
                    .collect();
                assert_eq!(got, want, "{} [{what}]", u.key);
            }
            // The settings are not vacuous: scoped trials fast-forward and prune.
            assert_eq!(diff.metrics.ff_insts > 0, c.snapshots, "{bench} [{what}]");
            assert_eq!(diff.metrics.bits_pruned_trials_saved > 0, c.static_prune, "{bench} [{what}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 50, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_compose_exactly_and_within_ci(src in program_strategy()) {
        let units = source_matrix(&src);
        let cache = GoldenCache::new();
        // Attribution is exact for every snapshot/executor combination,
        // and the monolithic tallies are identical across all four.
        let mut monos = Vec::new();
        for snapshots in [true, false] {
            for exec in [ExecMode::Interp, ExecMode::Compiled] {
                monos.push(assert_exact_attribution(&units, &cfg(snapshots, exec), &cache));
            }
        }
        for m in &monos[1..] {
            for (a, b) in monos[0].units.iter().zip(&m.units) {
                prop_assert_eq!(&a.counts, &b.counts, "monolithic counts diverged: {}\n{}", &a.key, &src);
                prop_assert_eq!(&a.region_counts, &b.region_counts, "region tallies diverged: {}\n{}", &a.key, &src);
            }
        }
        assert_diff_is_config_independent(&units, &cache);
        let c = cfg(true, ExecMode::Compiled);
        assert_composition_within_ci(&units, &c, &cache, &monos[3]);
    }
}

#[test]
fn all_sixteen_workloads_compose_within_ci() {
    assert_eq!(NAMES.len(), 16);
    let c = cfg(true, ExecMode::Compiled);
    for bench in NAMES {
        let units = bench_matrix(bench);
        let cache = GoldenCache::new();
        let mono = assert_exact_attribution(&units, &c, &cache);
        assert_composition_within_ci(&units, &c, &cache, &mono);
    }
}
