//! Live-channel throughput: the framed, compressed transport at several
//! batch sizes.
//!
//! The framed channel amortises one queue operation over
//! `records_per_frame` records and ships < 1 B/record on the wire, so
//! records/second should grow with the batch size.

use std::thread;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use lba_compress::FrameConfig;
use lba_lifeguard::ShadowMemory;
use lba_record::EventRecord;
use lba_transport::live;

const RECORDS: u64 = 120_000;

fn synthetic_stream() -> Vec<EventRecord> {
    // The hot-loop pattern: alu, strided load, taken branch.
    let mut out = Vec::with_capacity(RECORDS as usize);
    for i in 0..RECORDS / 3 + 1 {
        out.push(EventRecord::alu(0x1000, 0, Some(1), Some(2), Some(1)));
        out.push(EventRecord::load(
            0x1008,
            0,
            Some(3),
            Some(4),
            0x4000_0000 + i * 8,
            8,
        ));
        out.push(EventRecord {
            pc: 0x1010,
            kind: lba_record::EventKind::Branch,
            tid: 0,
            in1: Some(1),
            in2: Some(0),
            out: None,
            addr: 0x1000,
            size: 1,
        });
    }
    out.truncate(RECORDS as usize);
    out
}

/// Pumps the stream through the framed channel at `records_per_frame`;
/// returns the consumer-side record count.
fn pump_framed(records: &[EventRecord], records_per_frame: usize) -> u64 {
    let (mut tx, mut rx) = live::frame_channel(
        256,
        FrameConfig {
            records_per_frame,
            compress: true,
        },
    );
    thread::scope(|scope| {
        scope.spawn(move || {
            for rec in records {
                tx.push(rec);
            }
        });
        let mut seen = 0u64;
        while rx.recv_ref().is_some() {
            seen += 1;
        }
        seen
    })
}

fn bench_transport(c: &mut Criterion) {
    let records = synthetic_stream();

    // Best-of-3 sanity numbers, printed alongside the samples (the
    // min-time estimator is robust to scheduler noise).
    for batch in [64, 256] {
        let mut best = f64::INFINITY;
        for _ in 0..if criterion::is_test_mode() { 1 } else { 3 } {
            let start = std::time::Instant::now();
            let seen = pump_framed(&records, batch);
            assert_eq!(seen, RECORDS);
            best = best.min(start.elapsed().as_secs_f64());
        }
        let label = format!("framed x{batch}");
        println!("{label:>16}: {:.1} Mrecords/s", RECORDS as f64 / best / 1e6);
    }

    let mut group = c.benchmark_group("live_transport");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(RECORDS));
    group.bench_function("framed_compressed_x64", |b| {
        b.iter(|| pump_framed(&records, 64))
    });
    group.bench_function("framed_compressed_x256", |b| {
        b.iter(|| pump_framed(&records, 256))
    });
    group.finish();

    bench_shadow_range(c);
}

/// The shadow-range fast path behind TaintCheck's syscall-argument sweep:
/// `range_any_nonzero` answers "any taint in this buffer?" from per-page
/// nonzero counters — clean pages are dismissed with one counter load —
/// where the general `range_is(.., 0)` must scan every byte to prove the
/// same thing. TaintCheck's syscall handler asks this question over a
/// mostly-clean heap on every syscall, so the sweep sits on the epoch
/// workers' critical path.
fn bench_shadow_range(c: &mut Criterion) {
    const SPAN: u64 = 1 << 20;
    let mut shadow: ShadowMemory<u8> = ShadowMemory::new();
    // A mostly-clean megabyte: touch every page so residency is equal for
    // both paths, then taint a single late byte.
    shadow.set_range(0, SPAN, 0);
    shadow.set(SPAN - 17, 1);

    let mut group = c.benchmark_group("shadow_range");
    group.sample_size(10).throughput(Throughput::Bytes(SPAN));
    group.bench_function("range_is_zero_scan", |b| {
        b.iter(|| !shadow.range_is(0, SPAN, 0))
    });
    group.bench_function("range_any_nonzero_counters", |b| {
        b.iter(|| shadow.range_any_nonzero(0, SPAN))
    });
    group.finish();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
