//! Batched-vs-per-record equivalence: frame-granular consumption
//! (`pop_frame` + `deliver_batch`, the default) must be observationally
//! identical to the per-record baseline (`batch_dispatch = false`) — same
//! findings, same modeled cycle totals, same wire stream — across
//! programs, lifeguards, frame sizes and buffer budgets.

use proptest::prelude::*;

use lba::{
    LifeguardKind, LogStats, MonitorSpec, Run, RunMode, RunOutcome, RunReport, SystemConfig,
    MONITORS,
};
use lba_isa::Program;
use lba_workloads::{bugs, Benchmark};

/// Every registry row opted into sharding. Granularity equivalence is a
/// determinism property, so it holds even for TaintCheck and MemProfile,
/// whose registry rows keep them out of the sharded modes because their
/// sharded findings diverge from the sequential run's.
static SHARDED: [MonitorSpec; 4] = [sharded(0), sharded(1), sharded(2), sharded(3)];

const fn sharded(idx: usize) -> MonitorSpec {
    MonitorSpec {
        shardable: true,
        ..MONITORS[idx]
    }
}

/// A modeled run of `monitor` in `mode` over `shards` shards.
fn modeled(
    program: &Program,
    mode: RunMode,
    monitor: &'static MonitorSpec,
    shards: usize,
    config: &SystemConfig,
) -> RunReport {
    let request = Run::new(program).mode(mode).monitor(monitor);
    match request.workers(shards).config(config).run() {
        Ok(RunOutcome::Run(report)) => report,
        other => panic!("{mode} reports modeled clocks: {other:?}"),
    }
}

fn make_program(idx: usize) -> Program {
    match idx {
        0 => bugs::memory_bugs(),
        1 => bugs::exploit(),
        2 => bugs::data_race(),
        3 => bugs::tainted_syscall(),
        _ => Benchmark::Bc.build(),
    }
}

/// The log statistics that must be bit-identical between the two paths.
fn wire_view(log: &LogStats) -> (u64, u64, u64, u64, u64) {
    (
        log.records,
        log.filtered,
        log.frames,
        log.compressed_bits,
        log.wire_bits,
    )
}

fn assert_paths_equivalent(
    program: &Program,
    lifeguard_idx: usize,
    records_per_frame: usize,
    buffer_bytes: u64,
) {
    let mut batched_cfg = SystemConfig::default();
    batched_cfg.log.records_per_frame = records_per_frame;
    batched_cfg.log.buffer_bytes = buffer_bytes;
    batched_cfg.log.batch_dispatch = true;
    let mut per_record_cfg = batched_cfg.clone();
    per_record_cfg.log.batch_dispatch = false;

    let monitor = &MONITORS[lifeguard_idx];
    let batched = modeled(program, RunMode::Lba, monitor, 1, &batched_cfg);
    let per_record = modeled(program, RunMode::Lba, monitor, 1, &per_record_cfg);

    let what = format!(
        "{} / lifeguard {lifeguard_idx} / frame {records_per_frame} / buffer {buffer_bytes}",
        program.name()
    );
    assert_eq!(batched.findings, per_record.findings, "findings: {what}");
    assert_eq!(
        batched.total_cycles, per_record.total_cycles,
        "total_cycles: {what}"
    );
    assert_eq!(
        batched.app_cycles, per_record.app_cycles,
        "app_cycles: {what}"
    );
    assert_eq!(
        batched.lifeguard_cycles, per_record.lifeguard_cycles,
        "lifeguard_cycles: {what}"
    );
    assert_eq!(batched.stalls, per_record.stalls, "stalls: {what}");
    assert_eq!(
        wire_view(&batched.log),
        wire_view(&per_record.log),
        "channel stats: {what}"
    );
}

/// The sharded counterpart of [`assert_paths_equivalent`]: frame-granular
/// and per-record consumption must be observationally identical through
/// `RunMode::LbaParallel` too — per-shard cycles, merged findings, and
/// per-shard `ChannelStats` (the modeled channel is deterministic, so the
/// high-water mark must match as well).
fn assert_parallel_paths_equivalent(
    program: &Program,
    lifeguard_idx: usize,
    shards: usize,
    records_per_frame: usize,
) {
    let mut batched_cfg = SystemConfig::default();
    batched_cfg.log.records_per_frame = records_per_frame;
    batched_cfg.log.batch_dispatch = true;
    let mut per_record_cfg = batched_cfg.clone();
    per_record_cfg.log.batch_dispatch = false;

    let (mode, monitor) = (RunMode::LbaParallel, &SHARDED[lifeguard_idx]);
    let batched = modeled(program, mode, monitor, shards, &batched_cfg);
    let per_record = modeled(program, mode, monitor, shards, &per_record_cfg);

    let what = format!(
        "{} / lifeguard {lifeguard_idx} / {shards} shards / frame {records_per_frame}",
        program.name()
    );
    assert_eq!(batched.findings, per_record.findings, "findings: {what}");
    assert_eq!(
        batched.app_cycles, per_record.app_cycles,
        "app_cycles: {what}"
    );
    assert_eq!(
        batched.lifeguard_cycles, per_record.lifeguard_cycles,
        "lifeguard_cycles: {what}"
    );
    assert_eq!(
        batched.total_cycles, per_record.total_cycles,
        "total_cycles: {what}"
    );
    assert_eq!(batched.channels, per_record.channels, "shard stats: {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core equivalence property over random programs, lifeguards,
    /// frame sizes and buffer budgets (small budgets force parked-frame
    /// back-pressure through the batched consume path too).
    #[test]
    fn batched_consumption_is_observationally_identical(
        program_idx in 0usize..4,
        lifeguard_idx in 0usize..4,
        records_per_frame in 1usize..400,
        buffer_shift in 6u32..17,
    ) {
        let program = make_program(program_idx);
        assert_paths_equivalent(&program, lifeguard_idx, records_per_frame, 1 << buffer_shift);
    }

    /// The same property through the sharded mode: consumption
    /// granularity must not change per-shard cycles, findings, or channel
    /// statistics, whatever the shard count or frame size. (Sharding
    /// TaintCheck is unsound versus the sequential run, but both
    /// granularities of the *same* sharded computation are still
    /// deterministic and must agree.)
    #[test]
    fn batched_parallel_consumption_is_observationally_identical(
        program_idx in 0usize..4,
        lifeguard_idx in 0usize..4,
        shards in 1usize..5,
        records_per_frame in 1usize..400,
    ) {
        let program = make_program(program_idx);
        assert_parallel_paths_equivalent(&program, lifeguard_idx, shards, records_per_frame);
    }
}

#[test]
fn batched_consumption_matches_on_a_real_benchmark() {
    // One deterministic heavyweight case outside proptest: a real
    // workload with syscall flushes, odd frame size, tight buffer.
    let program = make_program(4);
    assert_paths_equivalent(&program, 0, 7, 1 << 10);
    assert_paths_equivalent(&program, 1, 256, 64 << 10);
    assert_parallel_paths_equivalent(&program, 0, 4, 7);
    assert_parallel_paths_equivalent(&program, 2, 3, 256);
}

#[test]
fn live_mode_agrees_across_consumption_granularities() {
    // The live pipeline has no modeled clock; findings and wire stream
    // must still be identical between the two consumption paths.
    let program = bugs::memory_bugs();
    let mut batched_cfg = SystemConfig::default();
    batched_cfg.log.batch_dispatch = true;
    let mut per_record_cfg = batched_cfg.clone();
    per_record_cfg.log.batch_dispatch = false;

    let live = |config| {
        let request = Run::new(&program).mode(RunMode::Live);
        request
            .monitor(LifeguardKind::AddrCheck)
            .config(config)
            .run()
    };
    let batched = live(&batched_cfg).expect("live batched");
    let per_record = live(&per_record_cfg).expect("live per-record");
    assert_eq!(batched.findings, per_record.findings);
    assert_eq!(wire_view(&batched.log), wire_view(&per_record.log));
}

#[test]
fn zero_copy_channel_survives_verified_round_trip() {
    // verify_compression decodes every frame with the real codec and
    // cross-checks it against the zero-copy records — a codec regression
    // panics here.
    let program = make_program(4);
    let mut config = SystemConfig::default();
    config.log.verify_compression = true;
    let report = modeled(&program, RunMode::Lba, &MONITORS[0], 1, &config); // AddrCheck
    assert!(report.log.records > 0);
}
