//! Snapshot fast-forward throughput: injection trials per second with and
//! without golden-run snapshots, at both layers. The win scales with how
//! much golden prefix the average trial can skip, so a loop-heavy
//! workload with late fault sites is the representative case.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flowery_backend::{compile_module, BackendConfig};
use flowery_inject::{AsmTrialRunner, IrTrialRunner};
use flowery_ir::interp::ExecConfig;
use flowery_workloads::{workload, Scale};

const SEED: u64 = 0x51C2_3001;

fn bench(c: &mut Criterion) {
    let m = workload("crc32", Scale::Standard).compile();
    let exec = ExecConfig::default();

    let mut group = c.benchmark_group("ir_trials");
    group.throughput(Throughput::Elements(1));
    group.bench_function("scratch", |b| {
        let mut runner = IrTrialRunner::new(&m, &exec);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            runner.run_trial(SEED, i % 3000)
        })
    });
    group.bench_function("fast_forward", |b| {
        let mut runner = IrTrialRunner::new(&m, &exec);
        runner.enable_snapshots();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            runner.run_trial(SEED, i % 3000)
        })
    });
    group.finish();

    let prog = compile_module(&m, &BackendConfig::default());
    let mut group = c.benchmark_group("asm_trials");
    group.throughput(Throughput::Elements(1));
    group.bench_function("scratch", |b| {
        let mut runner = AsmTrialRunner::new(&m, &prog, &exec);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            runner.run_trial(SEED, i % 3000)
        })
    });
    group.bench_function("fast_forward", |b| {
        let mut runner = AsmTrialRunner::new(&m, &prog, &exec);
        runner.enable_snapshots();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            runner.run_trial(SEED, i % 3000)
        })
    });
    group.finish();

    // Capture cost: what one snapshot pass over the golden run costs —
    // amortised across every trial of every campaign on that content.
    let mut group = c.benchmark_group("snapshot_capture");
    group.bench_function("ir", |b| {
        let runner = IrTrialRunner::new(&m, &exec);
        b.iter(|| runner.build_snapshots())
    });
    group.bench_function("asm", |b| {
        let runner = AsmTrialRunner::new(&m, &prog, &exec);
        b.iter(|| runner.build_snapshots())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
