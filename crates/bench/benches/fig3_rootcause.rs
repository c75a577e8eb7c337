//! Figure 3: penetration root-cause distribution over the deficiency
//! cases observed at full protection.
//!
//! Prints the regenerated distribution next to the paper's reference
//! numbers, then measures classification throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use flowery_analysis::classify_campaign;
use flowery_backend::compile_module;
use flowery_bench::{bench_config, bench_study};
use flowery_core::figures::{fig3, render_fig3};
use flowery_inject::{run_asm_campaign, CampaignConfig};
use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};
use flowery_workloads::workload;

fn bench(c: &mut Criterion) {
    println!("\n=== Figure 3 (regenerated) ===");
    let study = bench_study();
    println!("{}", render_fig3(&fig3(&study)));

    let (spec, _) = bench_config();
    let mut m = workload("quicksort", spec.scale).compile();
    let plan = ProtectionPlan::full(&m);
    duplicate_module(&mut m, &plan, &DupConfig::default());
    let prog = compile_module(&m, &spec.backend);
    let camp = run_asm_campaign(&m, &prog, &CampaignConfig::with_trials(400));

    c.bench_function("fig3_classify_400_cases", |b| b.iter(|| classify_campaign(&m, &prog, &camp.sdc_insts)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
