//! Extension experiment: assembly-level read-back hardening on top of
//! Flowery — the implementation option the paper mentions (§8) but leaves
//! unbuilt because "one rarely has a convenient backend compiler".
//! This repository has one, so here is the ladder:
//!
//!   ID  ->  ID+Flowery  ->  ID+Flowery+AsmHarden  (vs the ID-IR bound)
//!
//! ```sh
//! cargo run --release --example asm_hardening -- [trials] [bench...]
//! ```

use flowery_core::extension::{asm_hardening_study, render_hardening};
use flowery_harness::{status_printer, HarnessConfig, MatrixSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let mut benches: Vec<String> = args.iter().skip(2).cloned().collect();
    if benches.is_empty() {
        benches = ["quicksort", "is", "needle", "patricia"].map(String::from).to_vec();
    }
    let spec = MatrixSpec { benches, ..Default::default() };
    let cfg = HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() };
    let rows = asm_hardening_study(&spec, &cfg, Some(&status_printer("[harden]"))).expect("an uninterrupted ladder");
    print!("{}", render_hardening(&rows));
}
