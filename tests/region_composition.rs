//! Differential guarantees for region-level composition (`flowery diff`).
//!
//! Three claims, checked on randomly generated MiniC programs and on all
//! 16 Table-1 workloads:
//!
//! 1. **Exact attribution** — the monolithic engine attributes every
//!    trial to exactly one region: per unit, the per-region tallies sum
//!    bit-for-bit to the unit's outcome counts, for any snapshot setting
//!    and either machine-layer executor.
//! 2. **Deterministic re-sampling** — an incremental run's region
//!    profiles are bit-identical across executors and snapshot settings
//!    (scoped trials never fast-forward, and engines are bit-identical).
//! 3. **Statistical composition** — a fresh incremental run (empty
//!    baseline, region-scoped trial streams) composes a whole-program SDC
//!    estimate that agrees with the monolithic campaign's ground truth
//!    within the combined 95% Wilson intervals. The two runs sample
//!    *different* trial streams, so this is the claim the paper-level
//!    composition rule actually needs.

mod common;

use common::program_strategy;
use flowery_harness::{
    build_matrix, run_diff, run_units, Baseline, GoldenCache, HarnessConfig, MatrixSpec, RunOptions, TrialUnit,
};
use flowery_inject::OutcomeCounts;
use flowery_workloads::{Scale, NAMES};
use proptest::prelude::*;
use std::collections::HashMap;

fn cfg(snapshots: bool, executor: flowery_backend::ExecMode) -> HarnessConfig {
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
    let empty = Baseline {
        header: cfg.header(),
        regions: HashMap::new(),
        pre_region: true,
    };
    let diff = run_diff(units, cfg, cache, &empty, &HashMap::new(), None);
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

/// Claim 2: incremental region profiles are executor- and snapshot-
/// independent bit for bit.
fn assert_diff_is_config_independent(units: &[TrialUnit], cache: &GoldenCache) {
    let mut runs = Vec::new();
    for snapshots in [true, false] {
        for exec in [flowery_backend::ExecMode::Interp, flowery_backend::ExecMode::Compiled] {
            let cfg = cfg(snapshots, exec);
            let empty = Baseline {
                header: cfg.header(),
                regions: HashMap::new(),
                pre_region: true,
            };
            runs.push(run_diff(units, &cfg, cache, &empty, &HashMap::new(), None));
        }
    }
    let first = &runs[0];
    for r in &runs[1..] {
        for (a, b) in first.units.iter().zip(&r.units) {
            assert_eq!(
                a.regions, b.regions,
                "{}: diff profiles diverged across executor/snapshot settings",
                a.key
            );
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.composed, b.composed);
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
            for exec in [flowery_backend::ExecMode::Interp, flowery_backend::ExecMode::Compiled] {
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
        let c = cfg(true, flowery_backend::ExecMode::Compiled);
        assert_composition_within_ci(&units, &c, &cache, &monos[3]);
    }
}

#[test]
fn all_sixteen_workloads_compose_within_ci() {
    assert_eq!(NAMES.len(), 16);
    let c = cfg(true, flowery_backend::ExecMode::Compiled);
    for bench in NAMES {
        let units = bench_matrix(bench);
        let cache = GoldenCache::new();
        let mono = assert_exact_attribution(&units, &c, &cache);
        assert_composition_within_ci(&units, &c, &cache, &mono);
    }
}
