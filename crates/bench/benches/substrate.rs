//! Substrate micro-benchmarks: the building blocks' own throughput
//! (simulator speed, not paper metrics).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use lba::{Run, RunMode, RunOutcome};
use lba_isa::Program;
use lba_workloads::Benchmark;

fn unmonitored(program: &Program) -> RunOutcome {
    Run::new(program)
        .mode(RunMode::Unmonitored)
        .run()
        .expect("runs")
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);

    // Raw machine throughput (instructions simulated per second).
    let program = Benchmark::Bc.build();
    let insts = unmonitored(&program).trace.instructions();
    group.throughput(Throughput::Elements(insts));
    group.bench_function("machine_steps_bc", |b| b.iter(|| unmonitored(&program)));

    // Cache-hostile case.
    let mcf = Benchmark::Mcf.build();
    group.bench_function("machine_steps_mcf", |b| b.iter(|| unmonitored(&mcf)));
    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
