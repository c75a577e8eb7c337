//! §7.3: execution time of the Flowery transformation itself — this bench
//! *is* the experiment: Criterion measures `apply_flowery` per benchmark,
//! which the paper reports as 0.08-0.51s (linear in static instructions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowery_bench::bench_config;
use flowery_core::figures::{pass_time, render_pass_time};
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::workload;

fn bench(c: &mut Criterion) {
    let (spec, _) = bench_config();
    println!("\n=== §7.3 pass time (regenerated) ===");
    println!("{}", render_pass_time(&pass_time(spec.scale)));

    let mut group = c.benchmark_group("flowery_pass");
    for name in ["quicksort", "cg", "susan"] {
        let raw = workload(name, spec.scale).compile();
        let mut id = raw.clone();
        let plan = ProtectionPlan::full(&id);
        duplicate_module(&mut id, &plan, &DupConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(name), &id, |b, id| {
            b.iter(|| {
                let mut m = id.clone();
                apply_flowery(&mut m, &FloweryConfig::default())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
