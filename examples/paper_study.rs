//! The full paper study: every benchmark, every protection level, both
//! layers, all three configurations (ID-IR, ID-Assembly, Flowery), plus
//! root-cause classification and overhead — i.e. Table 1, Figures 2/3/17,
//! §7.2 and §7.3 in one run.
//!
//! ```sh
//! cargo run --release --example paper_study                 # 3000 trials (paper scale)
//! cargo run --release --example paper_study -- 500          # fewer trials
//! cargo run --release --example paper_study -- 500 out.json # also dump JSON
//! ```
//!
//! The study itself is `flowery study --trials N`, which also takes
//! `--checkpoint`/`--resume`, `--executor native` and `--static-prune`;
//! this example adds Table 1, the per-benchmark tables and §7.3 around it.

use flowery_core::figures::{
    fig17, fig2, fig3, overhead, pass_time, render_fig17, render_fig2, render_fig3, render_overhead, render_pass_time,
    render_table1, table1,
};
use flowery_core::run_study;
use flowery_harness::{status_printer, HarnessConfig, MatrixSpec, RunOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3000);
    let json_path = args.get(2);

    // `flowery study --trials N`'s matrix and schedule: the same cells.
    let spec = MatrixSpec {
        levels: vec![0.3, 0.5, 0.7, 1.0],
        profile_trials: (trials / 3).max(100),
        ..Default::default()
    };
    let cfg = HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() };

    println!("=== Table 1: benchmarks (simulation scale) ===");
    let t1 = table1(spec.scale, &spec.backend);
    println!("{}", render_table1(&t1));

    eprintln!("running the full study ({trials} trials per configuration)...");
    let t0 = std::time::Instant::now();
    let progress = status_printer("[harness]");
    let opts = RunOptions { progress: Some(&progress), ..Default::default() };
    let study = run_study(&spec, &cfg, opts).expect("an uninterrupted study is complete");
    eprintln!("study completed in {:.1}s", t0.elapsed().as_secs_f64());

    println!("\n=== Figure 2: ID coverage, IR vs assembly ===");
    println!("{}", render_fig2(&fig2(&study)));

    println!("\n=== Figure 3: penetration root causes (full protection) ===");
    let f3 = fig3(&study);
    println!("{}", render_fig3(&f3));
    println!("per-benchmark shares:");
    println!("{}", flowery_core::figures::render_fig3_per_bench(&f3));

    println!("\n=== Figure 17: Flowery vs ID ===");
    println!("{}", render_fig17(&fig17(&study)));

    println!("\n=== Outcome distributions (full protection) ===");
    println!("{}", flowery_core::figures::render_outcomes(&flowery_core::figures::outcomes(&study)));

    println!("\n=== §7.2: runtime overhead ===");
    println!("{}", render_overhead(&overhead(&study)));

    println!("\n=== §7.3: Flowery pass time ===");
    println!("{}", render_pass_time(&pass_time(spec.scale)));

    println!(
        "headline: average cross-layer coverage gap {:.2}% (paper 31.21%); \
         average Flowery gain {:.2}%",
        study.average_gap() * 100.0,
        study.average_flowery_gain() * 100.0
    );

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&study).expect("serialize study");
        std::fs::write(path, json).expect("write JSON");
        eprintln!("wrote {path}");
    }
}
