//! Ablation benchmarks: decoupling, buffer sizing, compression on/off,
//! filtering and parallel lifeguards. Prints the ablation tables, then
//! times the most interesting configurations.

use criterion::{criterion_group, criterion_main, Criterion};

use lba::experiment;
use lba::{LifeguardKind, Run, RunMode, SystemConfig};
use lba_bench as render;
use lba_workloads::Benchmark;

fn print_tables() {
    let config = SystemConfig::default();
    println!(
        "{}",
        render::render_decoupling(
            &experiment::ablation_decoupling(&config, 1).expect("ablation A"),
        )
    );
    println!(
        "{}",
        render::render_buffer(&experiment::ablation_buffer(&config, 1).expect("ablation B"))
    );
    println!(
        "{}",
        render::render_compression_ablation(
            &experiment::ablation_compression(&config, 1).expect("ablation C"),
        )
    );
    println!(
        "{}",
        render::render_filtering(&experiment::ext_filtering(&config, 1).expect("filtering"))
    );
    println!(
        "{}",
        render::render_parallel(&experiment::ext_parallel(&config, 1).expect("parallel"))
    );
}

fn bench_ablations(c: &mut Criterion) {
    print_tables();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    let program = Benchmark::Gzip.build();
    for (label, decoupled) in [("decoupled", true), ("lockstep", false)] {
        let mut config = SystemConfig::default();
        config.log.decoupled = decoupled;
        group.bench_function(format!("dispatch/{label}"), |b| {
            b.iter(|| {
                Run::new(&program)
                    .monitor(LifeguardKind::AddrCheck)
                    .config(&config)
                    .run()
                    .expect("runs")
            })
        });
    }

    let zchaff = Benchmark::Zchaff.build();
    for shards in [1usize, 4] {
        let config = SystemConfig::default();
        group.bench_function(format!("parallel/{shards}_shards"), |b| {
            b.iter(|| {
                Run::new(&zchaff)
                    .mode(RunMode::LbaParallel)
                    .monitor(LifeguardKind::LockSet)
                    .workers(shards)
                    .config(&config)
                    .run()
                    .expect("runs")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
