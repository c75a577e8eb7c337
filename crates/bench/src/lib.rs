//! # flowery-bench
//!
//! Criterion benchmark harness: one bench target per paper table/figure
//! (`table1`, `fig2_coverage`, `fig3_rootcause`, `fig17_flowery`,
//! `overhead`, `pass_time`).
//!
//! Each figure bench *prints* its artifact (the same rows/series the paper
//! reports) before Criterion measures a representative unit of its
//! pipeline. By default a six-benchmark subset with reduced trials keeps
//! `cargo bench` tractable; set `FLOWERY_BENCH_FULL=1` for all 16
//! benchmarks at higher trial counts (and see
//! `examples/paper_study.rs` for the full 3,000-trial protocol).

use flowery_core::harness::{HarnessConfig, MatrixSpec, RunOptions};
use flowery_core::{run_study, StudyResults};

/// The default bench subset: moderate dynamic sizes, covering all three
/// suites and both integer- and float-heavy codes.
pub const SUBSET: [&str; 6] = ["bfs", "pathfinder", "is", "quicksort", "crc32", "knn"];

/// Is the full 16-benchmark mode requested?
pub fn full_mode() -> bool {
    std::env::var("FLOWERY_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// The matrix and trial schedule for bench-time figure generation: the
/// paper's four levels over [`SUBSET`] (every benchmark in full mode).
pub fn bench_config() -> (MatrixSpec, HarnessConfig) {
    let (trials, profile_trials) = if full_mode() { (1000, 400) } else { (200, 120) };
    let spec = MatrixSpec {
        benches: if full_mode() {
            Vec::new()
        } else {
            SUBSET.map(String::from).to_vec()
        },
        levels: vec![0.3, 0.5, 0.7, 1.0],
        profile_trials,
        ..Default::default()
    };
    let cfg = HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() };
    (spec, cfg)
}

/// Run the study used for figure printing in benches.
pub fn bench_study() -> StudyResults {
    let (spec, cfg) = bench_config();
    run_study(&spec, &cfg, RunOptions::default()).expect("an uninterrupted study is complete")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_names_are_valid() {
        for n in SUBSET {
            assert!(flowery_core::workloads::NAMES.contains(&n), "{n}");
        }
    }

    #[test]
    fn bench_config_is_light_by_default() {
        if !full_mode() {
            assert!(bench_config().1.max_trials <= 200);
        }
    }
}
