//! Cross-layer gap demo on one benchmark: reproduces the paper's central
//! observation for a single program — IR-level evaluation is
//! over-optimistic, the assembly level reveals the deficiency, and Flowery
//! closes most of it.
//!
//! ```sh
//! cargo run --release --example cross_layer_gap [benchmark] [trials]
//! ```

use flowery::analysis::render_breakdown;
use flowery_core::run_study;
use flowery_harness::{status_printer, HarnessConfig, MatrixSpec, RunOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(|s| s.as_str()).unwrap_or("quicksort");
    let trials: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1000);

    let spec = MatrixSpec {
        benches: vec![name.to_string()],
        levels: vec![0.3, 0.5, 0.7, 1.0],
        profile_trials: (trials / 2).max(100),
        ..Default::default()
    };
    let cfg = HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() };

    println!("benchmark: {name}, {trials} trials per configuration\n");
    let progress = status_printer("[harness]");
    let opts = RunOptions { progress: Some(&progress), ..Default::default() };
    let study = run_study(&spec, &cfg, opts).expect("an uninterrupted study is complete");
    let r = &study.benches[0];

    println!(
        "\nraw SDC rate: IR {:.2}%  asm {:.2}%",
        r.raw_ir_counts.sdc_rate() * 100.0,
        r.raw_asm_counts.sdc_rate() * 100.0
    );
    println!("{:<8} {:>10} {:>12} {:>12} {:>9}", "level", "ID-IR", "ID-Assembly", "Flowery", "gap");
    for l in &r.levels {
        println!(
            "{:<8} {:>9.2}% {:>11.2}% {:>11.2}% {:>8.2}%",
            format!("{:.0}%", l.level * 100.0),
            l.id_ir.percent(),
            l.id_asm.percent(),
            l.flowery_asm.percent(),
            l.id_ir.percent() - l.id_asm.percent(),
        );
    }

    let full = r.full_level();
    println!("\nroot causes of assembly-level SDCs under full ID protection:");
    println!("{}", render_breakdown(&full.rootcause));
    println!(
        "overhead: ID {:+.1}% dyn over raw; Flowery {:+.1}% dyn over ID",
        flowery::inject::relative_overhead(full.raw_dyn, full.id_dyn) * 100.0,
        flowery::inject::relative_overhead(full.id_dyn, full.flowery_dyn) * 100.0,
    );
}
