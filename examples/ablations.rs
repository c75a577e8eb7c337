//! Ablation sweep: switch off each backend mechanism behind the paper's
//! penetrations and watch the corresponding category respond.
//!
//! ```sh
//! cargo run --release --example ablations -- [trials] [bench ...]
//! ```

use flowery_core::ablation::{ablation_study, render_ablation};
use flowery_harness::{status_printer, HarnessConfig, MatrixSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(800);
    let mut benches: Vec<String> = args.iter().skip(2).cloned().collect();
    if benches.is_empty() {
        benches = vec!["is".into(), "quicksort".into()];
    }
    let spec = MatrixSpec { benches, ..Default::default() };
    let cfg = HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() };
    let rows = ablation_study(&spec, &cfg, Some(&status_printer("[ablate]"))).expect("an uninterrupted sweep");
    print!("{}", render_ablation(&rows));
}
