//! Figure 17: SDC coverage of Flowery vs plain instruction duplication
//! (assembly level) vs the over-optimistic IR-level estimate.
//!
//! Prints the regenerated three-way comparison, then measures the Flowery
//! protection pipeline (duplicate + patches) as the unit of work.

use criterion::{criterion_group, criterion_main, Criterion};
use flowery_bench::{bench_config, bench_study};
use flowery_core::figures::{fig17, render_fig17};
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::workload;

fn bench(c: &mut Criterion) {
    println!("\n=== Figure 17 (regenerated) ===");
    let study = bench_study();
    println!("{}", render_fig17(&fig17(&study)));

    let (spec, _) = bench_config();
    let raw = workload("needle", spec.scale).compile();
    c.bench_function("fig17_protect_pipeline", |b| {
        b.iter(|| {
            let mut m = raw.clone();
            let plan = ProtectionPlan::full(&m);
            duplicate_module(&mut m, &plan, &DupConfig::default());
            apply_flowery(&mut m, &FloweryConfig::default());
            m
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
