//! Extension experiment: the protection design space as a Pareto problem.
//!
//! The paper fixes one fault model (single-bit register) and one detector
//! budget (none) and compares ID against Flowery. This example sweeps the
//! axes the paper holds still — fault model × protection (variant, level)
//! × modeled hardware detector set — and reduces each workload to its
//! cost/coverage Pareto frontier: which configurations are worth paying
//! for once register parity or control-flow signatures are on the table?
//!
//! ```sh
//! cargo run --release --example explore_pareto -- [trials] [bench ...]
//! ```
//!
//! The frontiers print as tables and land in `BENCH_explore.json` as a
//! machine-readable record.

use flowery_faultmodel::{DetectorSpec, ModelSpec};
use flowery_harness::{explore, render_table, status_printer, ExploreSpec, GoldenCache, HarnessConfig, MatrixSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(600);
    let mut benches: Vec<String> = args.iter().skip(2).cloned().collect();
    if benches.is_empty() {
        benches = ["crc32", "quicksort", "is"].map(String::from).to_vec();
    }

    let matrix = MatrixSpec { benches, ..Default::default() };
    let cfg = HarnessConfig { max_trials: trials, ..Default::default() };
    let spec = ExploreSpec {
        models: vec![
            ModelSpec::SingleBitReg,
            ModelSpec::MultiBit(4),
            ModelSpec::FlagsPc,
            ModelSpec::ControlFlow,
        ],
        detector_sets: vec![
            vec![],
            vec![DetectorSpec::Parity],
            vec![DetectorSpec::CfSig],
            vec![DetectorSpec::Parity, DetectorSpec::CfSig],
        ],
    };
    eprintln!(
        "[explore_pareto] {} bench(es) x {} model(s) x {} detector set(s), {trials} trials each",
        matrix.benches.len(),
        spec.models.len(),
        spec.detector_sets.len()
    );
    let progress = status_printer("[explore_pareto]");
    let report = explore(&spec, &matrix, &cfg, &GoldenCache::new(), Some(&progress)).expect("an uninterrupted sweep");
    print!("{}", render_table(&report));

    let json = flowery::serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_explore.json", json + "\n").expect("write BENCH_explore.json");
    println!("wrote BENCH_explore.json");
}
