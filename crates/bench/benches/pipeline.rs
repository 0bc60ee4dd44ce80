//! End-to-end pipeline throughput: events/sec through `RunMode::Lba` and
//! `RunMode::Live` for all four lifeguards, with the pre-batching
//! per-record consumption path (`LogConfig::batch_dispatch = false`) kept
//! callable as the baseline; the sharded `RunMode::LiveParallel` series
//! across shard counts for the lifeguards that support address
//! interleaving; plus an isolated consumption-path pair that contrasts
//! `pop_record`+`deliver` against `pop_frame`+`deliver_batch` directly.
//!
//! `cargo bench -p lba-bench --bench pipeline` prints a best-of-N summary
//! with the batched-over-per-record speedups before the Criterion samples;
//! `cargo bench -p lba-bench -- --test` runs everything once as a smoke
//! check (see the vendored criterion's test mode).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use lba::{LifeguardKind, Run, RunMode, RunOutcome, SystemConfig};
use lba_bench::pipeline::{self, PipelineRow, EPOCH_WORKER_COUNTS, SHARD_COUNTS};
use lba_workloads::Benchmark;

fn config(batched: bool) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.batch_dispatch = batched;
    config
}

fn bench_pipeline(c: &mut Criterion) {
    let samples = if criterion::is_test_mode() { 1 } else { 5 };

    // Headline summary, printed before the Criterion samples: best-of-N
    // events/sec for every mode × lifeguard × path, with the
    // batched-over-per-record speedup per pair.
    let rows = pipeline::measure_pipeline(samples);
    println!("{}", pipeline::render_pipeline(&rows));

    let records: u64 = rows.iter().find(|r| r.records > 0).map_or(0, |r| r.records);
    let program = Benchmark::Gzip.build();

    let mut group = c.benchmark_group("pipeline");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(records));
    for PipelineRow {
        mode,
        lifeguard,
        batched,
        ..
    } in rows.iter().filter(|r| {
        (r.mode == "lba" || r.mode == "live")
            && r.window == 0
            && (r.batched || r.lifeguard == "addrcheck")
    }) {
        let id = format!(
            "{mode}_{lifeguard}_{}",
            if *batched { "batched" } else { "per_record" }
        );
        let monitor = pipeline::lifeguards()
            .into_iter()
            .find(|m| m.name == *lifeguard)
            .expect("known lifeguard");
        let mode = if *mode == "lba" {
            RunMode::Lba
        } else {
            RunMode::Live
        };
        let cfg = config(*batched);
        let request = || Run::new(&program).mode(mode).monitor(monitor).config(&cfg);
        group.bench_function(id, |b| {
            b.iter(|| request().run().expect("runs").log.records)
        });
    }
    group.finish();

    // The sharded live pipeline: 1 producer + N consumer threads, each
    // shard decoding its own compressed frame stream.
    let mut group = c.benchmark_group("live_parallel");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(records));
    for monitor in pipeline::sharded_lifeguards() {
        for shards in SHARD_COUNTS {
            let cfg = config(true);
            let request = || {
                Run::new(&program)
                    .mode(RunMode::LiveParallel)
                    .monitor(monitor)
                    .workers(shards)
                    .config(&cfg)
            };
            group.bench_function(format!("{}_x{shards}", monitor.name), |b| {
                b.iter(|| {
                    // Retired records, not per-shard shipped records: the
                    // group's Throughput::Elements is the single-stream
                    // count, and broadcasts are transport duplication.
                    request().run().expect("runs").trace.instructions()
                })
            });
        }
    }
    group.finish();

    // The epoch-parallel TaintCheck pipeline: whole epochs to summarizer
    // workers, symbolic transfer functions stitched in order on a merge
    // core — the one lifeguard address sharding cannot split. Both the
    // modeled mode (whose deterministic clocks carry the speedup claim)
    // and the real-thread mode ride the same router and summarizer.
    let mut group = c.benchmark_group("epoch_taint");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(records));
    for workers in EPOCH_WORKER_COUNTS {
        let cfg = config(true);
        let request = |mode| {
            Run::new(&program)
                .mode(mode)
                .monitor(LifeguardKind::TaintCheck)
                .workers(workers)
                .config(&cfg)
        };
        group.bench_function(format!("modeled_x{workers}"), |b| {
            b.iter(
                || match request(RunMode::EpochParallel).run().expect("runs") {
                    RunOutcome::Run(report) => report.total_cycles,
                    _ => unreachable!("the modeled epoch mode reports modeled clocks"),
                },
            )
        });
        group.bench_function(format!("live_x{workers}"), |b| {
            b.iter(|| {
                request(RunMode::LiveEpochParallel)
                    .run()
                    .expect("runs")
                    .log
                    .records
            })
        });
    }
    group.finish();

    // The filtered pipeline: the capture-side idempotency window on, for
    // the one lifeguard pair that shows both contracts (AddrCheck drops
    // duplicates outright, MemProfile folds them into Repeat summaries).
    let mut group = c.benchmark_group("filtered");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(records));
    for monitor in pipeline::idempotent_lifeguards()
        .into_iter()
        .filter(|m| m.name == "addrcheck" || m.name == "memprofile")
    {
        let mut cfg = config(true);
        cfg.log.idempotency_window = pipeline::IDEMPOTENT_WINDOW;
        let request = || Run::new(&program).monitor(monitor).config(&cfg);
        group.bench_function(format!("lba_{}_window", monitor.name), |b| {
            b.iter(|| request().run().expect("runs").log.records)
        });
    }
    group.finish();

    // The isolated consumption path: same pre-captured stream, channel
    // filled identically, only the consumption granularity differs.
    let stream = pipeline::capture_stream();
    let mut group = c.benchmark_group("consume");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("addrcheck_per_record", |b| {
        b.iter(|| pipeline::consume_per_record(&stream))
    });
    group.bench_function("addrcheck_batched", |b| {
        b.iter(|| pipeline::consume_batched(&stream))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
