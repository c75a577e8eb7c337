//! Figure 2: SDC coverage of instruction duplication at the IR and
//! assembly layers across protection levels.
//!
//! Prints the regenerated figure, then measures one fault-injection
//! campaign per layer (the unit of work behind every figure cell).

use criterion::{criterion_group, criterion_main, Criterion};
use flowery_backend::compile_module;
use flowery_bench::{bench_config, bench_study};
use flowery_core::figures::{fig2, render_fig2};
use flowery_inject::{run_asm_campaign, run_ir_campaign, CampaignConfig};
use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};
use flowery_workloads::workload;

fn bench(c: &mut Criterion) {
    println!("\n=== Figure 2 (regenerated) ===");
    let study = bench_study();
    println!("{}", render_fig2(&fig2(&study)));

    let (spec, _) = bench_config();
    let mut m = workload("is", spec.scale).compile();
    let plan = ProtectionPlan::full(&m);
    duplicate_module(&mut m, &plan, &DupConfig::default());
    let prog = compile_module(&m, &spec.backend);
    let camp = CampaignConfig::with_trials(100);

    let mut group = c.benchmark_group("fig2_campaigns");
    group.bench_function("ir_campaign_100", |b| b.iter(|| run_ir_campaign(&m, &camp)));
    group.bench_function("asm_campaign_100", |b| b.iter(|| run_asm_campaign(&m, &prog, &camp)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
