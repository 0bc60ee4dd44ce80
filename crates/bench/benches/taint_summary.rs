//! Epoch-parallel TaintCheck, stage by stage, on the two programs with
//! the longest per-epoch taint chains (gzip and mcf): sequential
//! TaintCheck dispatch over the whole stream, the summarizer over the
//! same stream cut into epochs, and the merge-side absorb of those
//! summaries. Each series reports per-record throughput, so the
//! summarize-over-sequential ratio reads straight off the output.
//!
//! `cargo bench -p lba-bench --bench taint_summary` samples each series;
//! `cargo bench -p lba-bench -- --test` runs each once as a smoke check.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use lba::{ConsumerTopology, EpochRouted, Route, SystemConfig};
use lba_cache::MemSystem;
use lba_cpu::Machine;
use lba_lifeguard::{DispatchEngine, EpochLifeguard, EpochSummarizer, HandlerCtx};
use lba_lifeguards::{TaintCheck, TaintSummary};
use lba_record::EventRecord;
use lba_workloads::Benchmark;

/// The program's record stream, cut into epochs as the epoch router
/// cuts it (at syscalls and every `epoch_records` records).
fn epochs(program: &lba_isa::Program, config: &SystemConfig) -> Vec<Vec<EventRecord>> {
    let mut machine = Machine::new(program, config.machine);
    let mut mem = MemSystem::new(config.mem_single());
    let mut router = EpochRouted::new(1, config.log.epoch_records);
    let mut epochs = vec![Vec::new()];
    machine
        .run(&mut mem, |r| {
            let Route::Epoch { end_epoch, .. } = router.route(&r.record) else {
                unreachable!("the epoch router only yields epoch routes")
            };
            epochs.last_mut().expect("one open epoch").push(r.record);
            if end_epoch {
                epochs.push(Vec::new());
            }
        })
        .expect("benchmark programs run clean");
    epochs.retain(|epoch| !epoch.is_empty());
    epochs
}

fn summarize(
    epochs: &[Vec<EventRecord>],
    engine: &DispatchEngine,
    config: &SystemConfig,
) -> Vec<TaintSummary> {
    let mut summarizer = TaintCheck::new().summarizer();
    let mut mem = MemSystem::new(config.mem_dual());
    let mut none = Vec::new();
    epochs
        .iter()
        .map(|epoch| {
            engine.deliver_batch(&mut summarizer, epoch, &mut mem, 1, &mut none);
            summarizer.finish_epoch()
        })
        .collect()
}

fn bench_taint_summary(c: &mut Criterion) {
    let config = SystemConfig::default();
    let engine = DispatchEngine::new(config.dispatch);
    let mut group = c.benchmark_group("taint_summary");
    group.sample_size(10);
    for benchmark in [Benchmark::Gzip, Benchmark::Mcf] {
        let program = benchmark.build();
        let name = program.name();
        let epochs = epochs(&program, &config);
        let records: Vec<EventRecord> = epochs.iter().flatten().copied().collect();
        group.throughput(Throughput::Elements(records.len() as u64));

        group.bench_function(format!("sequential_{name}"), |b| {
            b.iter(|| {
                let mut lg = TaintCheck::new();
                let mut mem = MemSystem::new(config.mem_dual());
                let mut findings = Vec::new();
                engine.deliver_batch(&mut lg, &records, &mut mem, 1, &mut findings);
                findings.len()
            })
        });
        group.bench_function(format!("summarize_{name}"), |b| {
            b.iter(|| summarize(&epochs, &engine, &config).len())
        });
        group.bench_function(format!("absorb_{name}"), |b| {
            b.iter_batched(
                || summarize(&epochs, &engine, &config),
                |summaries| {
                    let mut master = TaintCheck::new();
                    let mut mem = MemSystem::new(config.mem_dual());
                    let mut findings = Vec::new();
                    for summary in summaries {
                        let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
                        master.absorb(summary, &mut ctx);
                    }
                    findings.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_taint_summary);
criterion_main!(benches);
