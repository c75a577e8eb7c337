//! §7.2: runtime overhead of Flowery on top of instruction duplication
//! (dynamic instructions and modelled cycles).
//!
//! Prints the regenerated per-level overhead table, then measures the
//! golden executions whose counts feed it.

use criterion::{criterion_group, criterion_main, Criterion};
use flowery_backend::{compile_module, Machine};
use flowery_bench::{bench_config, bench_study};
use flowery_core::figures::{overhead, render_overhead};
use flowery_ir::interp::ExecConfig;
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::workload;

fn bench(c: &mut Criterion) {
    println!("\n=== §7.2 overhead (regenerated) ===");
    let study = bench_study();
    println!("{}", render_overhead(&overhead(&study)));

    let (spec, _) = bench_config();
    let raw = workload("pathfinder", spec.scale).compile();
    let mut id = raw.clone();
    let plan = ProtectionPlan::full(&id);
    duplicate_module(&mut id, &plan, &DupConfig::default());
    let mut fl = id.clone();
    apply_flowery(&mut fl, &FloweryConfig::default());

    let mut group = c.benchmark_group("overhead_golden");
    for (label, m) in [("raw", &raw), ("id", &id), ("flowery", &fl)] {
        let prog = compile_module(m, &spec.backend);
        group.bench_function(label, |b| {
            let mach = Machine::new(m, &prog);
            b.iter(|| mach.run(&ExecConfig::default(), None))
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
