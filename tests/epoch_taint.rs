//! Epoch-parallel TaintCheck acceptance: the summarize-then-stitch
//! pipeline is *byte-identical* to the sequential lifeguard — same
//! findings in the same order with the same messages, same final taint
//! accounting — across programs, epoch sizes, worker counts, and the
//! modeled/live execution models; degenerate configurations (one epoch,
//! one worker) collapse to the sequential behaviour; and a recorded
//! epoch run replays to the same findings offline.

use proptest::collection::vec;
use proptest::prelude::*;

use lba::{
    run_epoch_parallel, run_lba, run_live_epoch_parallel, run_replay_epoch, RecordConfig,
    RunReport, SystemConfig,
};
use lba_cache::{MemSystem, MemSystemConfig};
use lba_lifeguard::{DispatchEngine, EpochLifeguard, EpochSummarizer, HandlerCtx};
use lba_lifeguards::TaintCheck;
use lba_record::{EventKind, EventRecord};
use lba_workloads::{bugs, Benchmark};

/// The sequential ground truth: `run_lba` with a concrete TaintCheck.
fn sequential(program: &lba_isa::Program, config: &SystemConfig) -> (RunReport, u64) {
    let mut lg = TaintCheck::new();
    let report = run_lba(program, &mut lg, config).expect("sequential run");
    (report, lg.tainted_bytes_introduced())
}

fn program_for(idx: usize) -> lba_isa::Program {
    match idx {
        0 => bugs::exploit(),
        1 => bugs::tainted_syscall(),
        2 => bugs::memory_bugs(), // no taint findings: the clean case
        _ => Benchmark::Gzip.build(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The equivalence grid: programs × epoch sizes × worker counts ×
    /// modeled/live. Findings (order, pc, kind, tid, message), the
    /// master's final taint accounting, and the record totals all match
    /// the sequential run — epochs partition the stream, so the workers
    /// together carry exactly the sequential record stream.
    #[test]
    fn epoch_parallel_equals_sequential_across_the_grid(
        program_idx in 0usize..4,
        epoch_records in prop_oneof![Just(1usize), Just(7), Just(64), Just(1024)],
        workers in 1usize..5,
        live in any::<bool>(),
    ) {
        let program = program_for(program_idx);
        let mut config = SystemConfig::default();
        config.log.epoch_records = epoch_records;
        let (seq, seq_tainted) = sequential(&program, &config);

        if live {
            let mut master = TaintCheck::new();
            let report = run_live_epoch_parallel(&program, &mut master, workers, &config)
                .expect("live epoch run");
            prop_assert_eq!(&report.findings, &seq.findings);
            prop_assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
            prop_assert_eq!(report.log.records, seq.log.records);
            prop_assert_eq!(report.channels.len(), workers);
        } else {
            let mut master = TaintCheck::new();
            let report = run_epoch_parallel(&program, &mut master, workers, &config)
                .expect("modeled epoch run");
            prop_assert_eq!(&report.findings, &seq.findings);
            prop_assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
            prop_assert_eq!(report.log.records, seq.log.records);
            prop_assert_eq!(report.log.captured, seq.log.records);
            prop_assert_eq!(report.lifeguard_cycles.len(), workers);
        }
    }
}

#[test]
fn degenerate_single_epoch_single_worker_still_matches() {
    // One epoch (cap larger than any trace here) on one worker: the
    // pipeline collapses to summarize-everything-then-absorb-once, the
    // purest test of the symbolic transfer function.
    let mut config = SystemConfig::default();
    config.log.epoch_records = usize::MAX >> 1;
    for program in [bugs::exploit(), bugs::tainted_syscall()] {
        let (seq, seq_tainted) = sequential(&program, &config);
        let mut master = TaintCheck::new();
        let report = run_epoch_parallel(&program, &mut master, 1, &config).expect("epoch run");
        // Syscalls still close epochs (the containment boundary), so the
        // count is the syscall count, not 1 — but with a single worker the
        // stitch order is trivially sequential either way.
        assert!(report.epochs >= 1);
        assert_eq!(report.findings, seq.findings, "{}", report.program);
        assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
    }
}

#[test]
fn single_record_epochs_are_the_other_degenerate_end() {
    // Every record its own epoch: maximal stitch traffic, zero symbolic
    // slack — each summary resolves against fully concrete state.
    let mut config = SystemConfig::default();
    config.log.epoch_records = 1;
    let program = bugs::exploit();
    let (seq, seq_tainted) = sequential(&program, &config);
    let mut master = TaintCheck::new();
    let report = run_epoch_parallel(&program, &mut master, 3, &config).expect("epoch run");
    assert_eq!(report.epochs, seq.log.records, "one epoch per record");
    assert_eq!(report.findings, seq.findings);
    assert_eq!(master.tainted_bytes_introduced(), seq_tainted);
}

#[test]
fn modeled_and_live_epoch_modes_agree_with_each_other() {
    // The two execution models share the router and summarizer; their
    // findings and aggregate record totals must agree record-for-record.
    let program = Benchmark::Gzip.build();
    let mut config = SystemConfig::default();
    config.log.epoch_records = 128;
    let mut modeled_master = TaintCheck::new();
    let modeled =
        run_epoch_parallel(&program, &mut modeled_master, 3, &config).expect("modeled run");
    let mut live_master = TaintCheck::new();
    let live = run_live_epoch_parallel(&program, &mut live_master, 3, &config).expect("live run");
    assert_eq!(modeled.findings, live.findings);
    assert_eq!(modeled.epochs, live.epochs);
    assert_eq!(modeled.log.records, live.log.records);
    assert_eq!(
        modeled_master.tainted_bytes_introduced(),
        live_master.tainted_bytes_introduced()
    );
}

#[test]
fn recorded_epoch_run_replays_byte_identical() {
    // Both epoch modes leave one recorded stream per worker with the
    // epoch marks in the frame headers; offline replay rebuilds the
    // epochs from the marks and stitches to the same findings.
    let program = bugs::exploit();
    for live in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "lba-epoch-replay-{}-{}",
            std::process::id(),
            if live { "live" } else { "modeled" }
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = SystemConfig::default();
        config.log.epoch_records = 16;
        config.log.record_to = Some(RecordConfig::new(&dir));
        let (seq, seq_tainted) = sequential(&program, &config);

        let mut master = TaintCheck::new();
        let (findings, workers) = if live {
            let r = run_live_epoch_parallel(&program, &mut master, 2, &config).expect("live run");
            (r.findings, r.channels.len())
        } else {
            let r = run_epoch_parallel(&program, &mut master, 2, &config).expect("modeled run");
            (r.pipeline.findings, r.pipeline.channels.len())
        };
        assert_eq!(findings, seq.findings);

        let mut replay_master = TaintCheck::new();
        let replay = run_replay_epoch(&dir, &mut replay_master, &config).expect("replay");
        assert_eq!(replay.findings, seq.findings, "live={live}");
        assert_eq!(replay.streams.len(), workers, "one stream per worker");
        assert_eq!(
            replay.streams.iter().map(|s| s.records).sum::<u64>(),
            seq.log.records
        );
        assert_eq!(replay_master.tainted_bytes_introduced(), seq_tainted);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// First byte of the generated records' address window: the window
/// straddles a 4 KiB shadow-page boundary.
const WINDOW: u64 = 0x4000_0000 - 0x100;
/// Bytes a generated access may start at past `WINDOW`.
const WINDOW_SPAN: u64 = 0x200;
/// Bytes checked past `WINDOW`: the span plus the longest access.
const WINDOW_CHECKED: u64 = WINDOW_SPAN + 64;

/// One generated TaintCheck record from its drawn fields: ALU chains
/// (two, one or no inputs), loads and stores of 1–8 bytes at strided or
/// unaligned (page-crossing) addresses, `recv` of 1–64 bytes, alloc,
/// indirect jumps and syscalls, on two threads.
fn taint_record(
    (op, tid, a, b, c, pc, offset, strided, width, recv_len): (
        u8,
        u8,
        u8,
        u8,
        u8,
        u64,
        u64,
        bool,
        u32,
        u32,
    ),
) -> EventRecord {
    let pc = 0x1000 + pc * 8;
    let addr = WINDOW + if strided { offset / 8 * 8 } else { offset };
    let maybe = |r: u8| (r < 14).then_some(r);
    match op {
        0..=2 => EventRecord::alu(pc, tid, Some(b), maybe(c), Some(a)),
        3 => EventRecord::alu(pc, tid, maybe(b), None, Some(a)),
        4 | 5 => EventRecord::load(pc, tid, Some(b), Some(a), addr, width),
        6 | 7 => EventRecord::store(pc, tid, maybe(a), Some(b), addr, width),
        8 => EventRecord {
            pc,
            kind: EventKind::Recv,
            tid,
            in1: Some(1),
            in2: Some(2),
            out: None,
            addr,
            size: recv_len,
        },
        9 => EventRecord {
            pc,
            kind: EventKind::Alloc,
            tid,
            in1: Some(b),
            in2: None,
            out: Some(a),
            addr,
            size: 32,
        },
        10 => EventRecord {
            pc,
            kind: EventKind::IndirectJump,
            tid,
            in1: Some(a),
            in2: None,
            out: None,
            addr: 0x3000 + u64::from(b),
            size: 0,
        },
        _ => EventRecord {
            pc,
            kind: EventKind::Syscall,
            tid,
            in1: None,
            in2: None,
            out: None,
            addr: 0,
            size: u32::from(c),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Summarize-then-absorb over random record streams equals the
    /// sequential lifeguard in findings, tainted-byte accounting, every
    /// register and every byte of the address window. Epochs have random
    /// lengths and alternate between two summarizers, as two workers
    /// would take them.
    #[test]
    fn random_streams_summarize_then_absorb_like_sequential(
        fields in vec(
            (
                0u8..12,
                0u8..2,
                0u8..16,
                0u8..16,
                0u8..16,
                0u64..8,
                0u64..WINDOW_SPAN,
                any::<bool>(),
                1u32..9,
                1u32..65,
            ),
            1..400,
        ),
        epoch_lens in vec(1usize..65, 1..8),
    ) {
        let records: Vec<EventRecord> = fields.into_iter().map(taint_record).collect();
        let engine = DispatchEngine::default();

        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut seq = TaintCheck::new();
        let mut seq_findings = Vec::new();
        for rec in &records {
            engine.deliver(&mut seq, rec, &mut mem, 1, &mut seq_findings);
        }

        let mut mem = MemSystem::new(MemSystemConfig::dual_core());
        let mut master = TaintCheck::new();
        let mut workers = [master.summarizer(), master.summarizer()];
        let mut findings = Vec::new();
        let mut rest = &records[..];
        let mut epoch = 0;
        while !rest.is_empty() {
            let len = epoch_lens[epoch % epoch_lens.len()].min(rest.len());
            let (chunk, tail) = rest.split_at(len);
            let worker = &mut workers[epoch % 2];
            let mut none = Vec::new();
            engine.deliver_batch(worker, chunk, &mut mem, 1, &mut none);
            prop_assert!(none.is_empty(), "summarizers never report directly");
            let summary = worker.finish_epoch();
            let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
            master.absorb(summary, &mut ctx);
            rest = tail;
            epoch += 1;
        }

        prop_assert_eq!(&findings, &seq_findings);
        prop_assert_eq!(master.tainted_bytes_introduced(), seq.tainted_bytes_introduced());
        for tid in 0..2u8 {
            for reg in 0..16u8 {
                prop_assert_eq!(
                    master.reg_is_tainted(tid, reg),
                    seq.reg_is_tainted(tid, reg),
                    "t{}.r{}",
                    tid,
                    reg
                );
            }
        }
        for addr in WINDOW..WINDOW + WINDOW_CHECKED {
            prop_assert_eq!(
                master.byte_is_tainted(addr),
                seq.byte_is_tainted(addr),
                "byte {:#x}",
                addr
            );
        }
    }
}

#[test]
fn live_epochs_match_sequential_on_the_long_chain_programs() {
    // gzip and mcf build the longest taint dependence chains per epoch:
    // tiny epochs stress the stitch, large ones the summarizer's DAG.
    for program in [Benchmark::Gzip.build(), Benchmark::Mcf.build()] {
        for epoch_records in [7, 1024] {
            let mut config = SystemConfig::default();
            config.log.epoch_records = epoch_records;
            let (seq, seq_tainted) = sequential(&program, &config);
            for workers in [1, 2] {
                let mut master = TaintCheck::new();
                let report = run_live_epoch_parallel(&program, &mut master, workers, &config)
                    .expect("live epoch run");
                let at = format!("{} epoch {epoch_records} workers {workers}", program.name());
                assert_eq!(report.findings, seq.findings, "{at}");
                assert_eq!(master.tainted_bytes_introduced(), seq_tainted, "{at}");
            }
        }
    }
}
