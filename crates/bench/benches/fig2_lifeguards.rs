//! Figure 2 benchmarks: end-to-end LBA and DBI runs per lifeguard.
//!
//! Before timing, the harness prints the full Figure 2 panels (the paper's
//! reported series); Criterion then measures representative
//! benchmark × lifeguard × mode simulations.

use criterion::{criterion_group, criterion_main, Criterion};

use lba::experiment;
use lba::{LifeguardKind, Run, RunMode, SystemConfig};
use lba_bench::{render_fig2, render_summary};
use lba_workloads::Benchmark;

fn print_figures() {
    let config = SystemConfig::default();
    let mut summaries = Vec::new();
    for kind in LifeguardKind::ALL {
        let rows = experiment::figure2(kind, &config, 1).expect("figure 2 panel");
        println!("{}", render_fig2(kind, &rows));
        summaries.push(experiment::summarize(kind, &rows));
    }
    println!("{}", render_summary(&summaries));
}

fn bench_modes(c: &mut Criterion) {
    print_figures();
    let config = SystemConfig::default();
    let pairs = [
        (Benchmark::Gzip, LifeguardKind::AddrCheck),
        (Benchmark::Gzip, LifeguardKind::TaintCheck),
        (Benchmark::Water, LifeguardKind::LockSet),
    ];
    let mut group = c.benchmark_group("fig2_lifeguards");
    group.sample_size(10);
    let mut baselines_done = std::collections::HashSet::new();
    for (benchmark, kind) in pairs {
        let program = benchmark.build();
        let request = |mode| Run::new(&program).mode(mode).monitor(kind).config(&config);
        // Benchmark IDs must be unique: gzip appears with two lifeguards,
        // but its unmonitored baseline only needs timing once.
        if baselines_done.insert(benchmark) {
            group.bench_function(format!("unmonitored/{benchmark}"), |b| {
                b.iter(|| request(RunMode::Unmonitored).run().expect("runs"))
            });
        }
        group.bench_function(format!("lba/{}/{benchmark}", kind.name()), |b| {
            b.iter(|| request(RunMode::Lba).run().expect("runs"))
        });
        group.bench_function(format!("dbi/{}/{benchmark}", kind.name()), |b| {
            b.iter(|| request(RunMode::Dbi).run().expect("runs"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
