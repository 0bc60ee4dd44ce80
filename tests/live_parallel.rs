//! Live-parallel ≡ modeled-parallel: `RunMode::LiveParallel` (real
//! threads, real SPSC frame channels) and `RunMode::LbaParallel`
//! (deterministic model)
//! share the router and the frame codec, so for every shard count they
//! must produce identical merged findings and — because the per-shard
//! record streams and frame boundaries match — byte-identical per-shard
//! wire streams.

use lba::{ChannelStats, LifeguardKind, Run, RunMode, RunOutcome, SystemConfig};
use lba_isa::Program;
use lba_workloads::{bugs, Benchmark};

/// `kind` over `program` in a sharded `mode` with `shards` shards.
fn sharded(
    program: &Program,
    mode: RunMode,
    kind: LifeguardKind,
    shards: usize,
    config: &SystemConfig,
) -> RunOutcome {
    let request = Run::new(program).mode(mode).monitor(kind);
    let outcome = request.workers(shards).config(config).run();
    outcome.unwrap_or_else(|e| panic!("{mode}/{kind} x{shards}: {e}"))
}

/// The per-shard statistics that must be identical between the modeled
/// and live transports (the high-water mark is timing-dependent in live
/// mode and deliberately excluded).
fn wire_view(stats: &ChannelStats) -> (u64, u64, u64, u64) {
    (
        stats.records,
        stats.frames,
        stats.payload_bits,
        stats.wire_bits,
    )
}

#[test]
fn live_parallel_matches_modeled_parallel_on_bug_workloads() {
    let config = SystemConfig::default();
    for (kind, program) in [
        (LifeguardKind::AddrCheck, bugs::memory_bugs()),
        (LifeguardKind::LockSet, bugs::data_race()),
    ] {
        for shards in [1, 2, 4] {
            let live = sharded(&program, RunMode::LiveParallel, kind, shards, &config);
            let modeled = sharded(&program, RunMode::LbaParallel, kind, shards, &config);
            let what = format!("{kind} / {} / {shards} shards", program.name());
            assert_eq!(live.findings, modeled.findings, "findings: {what}");
            assert!(!live.findings.is_empty(), "bug workload finds bugs: {what}");
            assert_eq!(live.channels.len(), shards);
            for (idx, (l, m)) in live.channels.iter().zip(&modeled.channels).enumerate() {
                assert_eq!(
                    wire_view(l),
                    wire_view(m),
                    "shard {idx} wire stream: {what}"
                );
                assert!(l.frames > 0, "shard {idx} must ship frames: {what}");
                assert!(l.wire_bits >= l.payload_bits, "shard {idx}: {what}");
            }
        }
    }
}

#[test]
fn live_parallel_matches_modeled_parallel_on_a_clean_benchmark() {
    // A real workload: lots of frames per shard, no findings — the wire
    // equality is the whole assertion.
    let config = SystemConfig::default();
    let program = Benchmark::Gzip.build();
    let kind = LifeguardKind::AddrCheck;
    let live = sharded(&program, RunMode::LiveParallel, kind, 3, &config);
    let modeled = sharded(&program, RunMode::LbaParallel, kind, 3, &config);
    assert!(live.findings.is_empty());
    assert_eq!(live.findings, modeled.findings);
    for (l, m) in live.channels.iter().zip(&modeled.channels) {
        assert_eq!(wire_view(l), wire_view(m));
        assert!(l.frames > 1, "gzip fills multiple frames per shard");
    }
    assert_eq!(live.trace.instructions(), modeled.trace.instructions());
}

#[test]
fn live_parallel_consumption_granularities_agree() {
    // The per-record consumption baseline must see the same stream the
    // frame-batched default does — per shard.
    let program = bugs::memory_bugs();
    let mut batched_cfg = SystemConfig::default();
    batched_cfg.log.batch_dispatch = true;
    let mut per_record_cfg = batched_cfg.clone();
    per_record_cfg.log.batch_dispatch = false;

    let kind = LifeguardKind::AddrCheck;
    let batched = sharded(&program, RunMode::LiveParallel, kind, 3, &batched_cfg);
    let per_record = sharded(&program, RunMode::LiveParallel, kind, 3, &per_record_cfg);
    assert_eq!(batched.findings, per_record.findings);
    for (b, p) in batched.channels.iter().zip(&per_record.channels) {
        assert_eq!(wire_view(b), wire_view(p));
    }
}
