//! Table 1: benchmark inventory + dynamic instruction counts.
//!
//! Prints the regenerated table, then measures golden-run execution time
//! per benchmark at both layers (the quantity behind the DI counts).

use criterion::{criterion_group, criterion_main, Criterion};
use flowery_backend::{compile_module, Machine};
use flowery_bench::bench_config;
use flowery_core::figures::{render_table1, table1};
use flowery_ir::interp::{ExecConfig, Interpreter};
use flowery_workloads::workload;

fn bench(c: &mut Criterion) {
    let (spec, _) = bench_config();
    println!("\n=== Table 1 (regenerated) ===");
    println!("{}", render_table1(&table1(spec.scale, &spec.backend)));

    let mut group = c.benchmark_group("table1_golden_runs");
    for name in ["is", "quicksort", "bfs"] {
        let m = workload(name, spec.scale).compile();
        let prog = compile_module(&m, &spec.backend);
        group.bench_function(format!("{name}/ir"), |b| {
            let interp = Interpreter::new(&m);
            b.iter(|| interp.run(&ExecConfig::default(), None))
        });
        group.bench_function(format!("{name}/asm"), |b| {
            let mach = Machine::new(&m, &prog);
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
