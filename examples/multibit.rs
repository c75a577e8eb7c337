//! Extension experiment: does the cross-layer protection story survive the
//! emerging multi-bit fault model (paper §2.2 cites it and stays
//! single-bit)? Two random bits are flipped in the same destination.
//!
//! ```sh
//! cargo run --release --example multibit -- [trials] [bench ...]
//! ```

use flowery_core::extension::{multi_bit_study, render_multi_bit};
use flowery_harness::{status_printer, HarnessConfig, MatrixSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let mut benches: Vec<String> = args.iter().skip(2).cloned().collect();
    if benches.is_empty() {
        benches = ["is", "quicksort", "needle"].map(String::from).to_vec();
    }
    let spec = MatrixSpec { benches, ..Default::default() };
    let cfg = HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() };
    let rows = multi_bit_study(&spec, &cfg, Some(&status_printer("[multibit]"))).expect("an uninterrupted study");
    print!("{}", render_multi_bit(&rows));
}
