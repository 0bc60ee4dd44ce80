//! Epoch-parallel TaintCheck acceptance: the summarize-then-stitch
//! pipeline is *byte-identical* to the sequential lifeguard — same
//! findings in the same order with the same messages, same record
//! totals — across programs, epoch sizes, worker counts, and the
//! modeled/live execution models; degenerate configurations (one epoch,
//! one worker) collapse to the sequential behaviour; and a recorded
//! epoch run replays to the same findings offline. The epoch master's
//! final taint accounting is checked against the sequential lifeguard's
//! in `lba-core`'s own tests, where the generic epoch runners are
//! visible; here every mode runs through the public `Run` builder.

use proptest::collection::vec;
use proptest::prelude::*;

use lba::{LifeguardKind, RecordConfig, Run, RunMode, RunOutcome, SystemConfig};
use lba_cache::{MemSystem, MemSystemConfig};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, EpochLifeguard, EpochSummarizer, HandlerCtx};
use lba_lifeguards::TaintCheck;
use lba_record::{EventKind, EventRecord};
use lba_workloads::{bugs, Benchmark};

/// TaintCheck over `program` in `mode` with `workers` epoch workers.
fn run(program: &Program, mode: RunMode, workers: usize, config: &SystemConfig) -> RunOutcome {
    let request = Run::new(program)
        .mode(mode)
        .monitor(LifeguardKind::TaintCheck);
    let outcome = request.workers(workers).config(config).run();
    outcome.unwrap_or_else(|e| panic!("{mode} x{workers}: {e}"))
}

/// The sequential ground truth: TaintCheck under `RunMode::Lba`.
fn sequential(program: &Program, config: &SystemConfig) -> RunOutcome {
    run(program, RunMode::Lba, 1, config)
}

fn program_for(idx: usize) -> Program {
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
    /// modeled/live. Findings (order, pc, kind, tid, message) and the
    /// record totals match the sequential run — epochs partition the
    /// stream, so the workers together carry exactly the sequential
    /// record stream.
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
        let seq = sequential(&program, &config);

        let mode = if live { RunMode::LiveEpochParallel } else { RunMode::EpochParallel };
        let report = run(&program, mode, workers, &config);
        prop_assert_eq!(&report.findings, &seq.findings);
        prop_assert_eq!(report.log.records, seq.log.records);
        match &report {
            RunOutcome::Run(modeled) => {
                prop_assert_eq!(modeled.log.captured, seq.log.records);
                prop_assert_eq!(modeled.lifeguard_cycles.len(), workers);
            }
            _ => prop_assert_eq!(report.channels.len(), workers),
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
        let seq = sequential(&program, &config);
        let report = run(&program, RunMode::EpochParallel, 1, &config);
        // Syscalls still close epochs (the containment boundary), so the
        // count is the syscall count, not 1 — but with a single worker the
        // stitch order is trivially sequential either way.
        assert!(report.epochs >= 1);
        assert_eq!(report.findings, seq.findings, "{}", report.program);
    }
}

#[test]
fn single_record_epochs_are_the_other_degenerate_end() {
    // Every record its own epoch: maximal stitch traffic, zero symbolic
    // slack — each summary resolves against fully concrete state.
    let mut config = SystemConfig::default();
    config.log.epoch_records = 1;
    let program = bugs::exploit();
    let seq = sequential(&program, &config);
    let report = run(&program, RunMode::EpochParallel, 3, &config);
    assert_eq!(report.epochs, seq.log.records, "one epoch per record");
    assert_eq!(report.findings, seq.findings);
}

#[test]
fn modeled_and_live_epoch_modes_agree_with_each_other() {
    // The two execution models share the router and summarizer; their
    // findings and aggregate record totals must agree record-for-record,
    // and each worker's wire stream must be the same frames bit for bit.
    // Cases are (program, epoch_records, workers).
    let cases = [
        (Benchmark::Gzip.build(), 128, 3),
        (bugs::exploit(), 16, 2),
        (Benchmark::Mcf.build(), 7, 2),
        (Benchmark::Gzip.build(), 1024, 1),
    ];
    for (program, epoch_records, workers) in cases {
        let mut config = SystemConfig::default();
        config.log.epoch_records = epoch_records;
        let modeled = run(&program, RunMode::EpochParallel, workers, &config);
        let live = run(&program, RunMode::LiveEpochParallel, workers, &config);
        let at = format!("{} epoch {epoch_records} x{workers}", program.name());
        assert_eq!(modeled.findings, live.findings, "{at}");
        assert_eq!(modeled.epochs, live.epochs, "{at}");
        assert_eq!(modeled.log.records, live.log.records, "{at}");
        assert_eq!(modeled.channels.len(), workers, "{at}");
        assert_eq!(live.channels.len(), workers, "{at}");
        for (worker, (m, l)) in modeled.channels.iter().zip(&live.channels).enumerate() {
            assert_eq!(
                (m.records, m.frames, m.wire_bits, m.payload_bits),
                (l.records, l.frames, l.wire_bits, l.payload_bits),
                "{at}: worker {worker} wire stream"
            );
        }
    }
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
        let seq = sequential(&program, &config);

        let mode = if live {
            RunMode::LiveEpochParallel
        } else {
            RunMode::EpochParallel
        };
        let recorded = run(&program, mode, 2, &config);
        assert_eq!(recorded.findings, seq.findings);

        let request = Run::new(&program).mode(RunMode::ReplayEpoch);
        let replayed = request.monitor(LifeguardKind::TaintCheck).config(&config);
        let RunOutcome::Replay(replay) = replayed.replay_from(&dir).run().expect("replay") else {
            panic!("a replay reports a ReplayReport");
        };
        assert_eq!(replay.findings, seq.findings, "live={live}");
        assert_eq!(
            replay.streams.len(),
            recorded.channels.len(),
            "one stream per worker"
        );
        assert_eq!(
            replay.streams.iter().map(|s| s.records).sum::<u64>(),
            seq.log.records
        );
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
            let seq = sequential(&program, &config);
            for workers in [1, 2] {
                let report = run(&program, RunMode::LiveEpochParallel, workers, &config);
                let at = format!("{} epoch {epoch_records} workers {workers}", program.name());
                assert_eq!(report.findings, seq.findings, "{at}");
            }
        }
    }
}
