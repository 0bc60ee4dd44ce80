//! Socket-transport equivalence at the integration level:
//! `RunMode::Remote` moves each shard's sealed frames across a real
//! Unix-domain socket under the credit window, and must be
//! *observationally identical* to the in-process `RunMode::LiveParallel`
//! — same merged findings, and the
//! same per-shard wire accounting bit for bit, at every worker count.
//! The socket is a transport, not a re-encode.

use proptest::prelude::*;

use lba::{LifeguardKind, Run, RunMode, RunOutcome, SystemConfig};
use lba_workloads::{bugs, Benchmark};

/// The shardable (program, lifeguard) grid the socket modes are exercised
/// over — one case per sharding-eligible lifeguard, plus a real benchmark.
fn case(index: usize) -> (lba_isa::Program, LifeguardKind) {
    match index {
        0 => (bugs::memory_bugs(), LifeguardKind::AddrCheck),
        1 => (bugs::data_race(), LifeguardKind::LockSet),
        _ => (Benchmark::Gzip.build(), LifeguardKind::AddrCheck),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Remote ≡ live-parallel across worker counts: identical merged
    /// findings, identical per-shard frame/record/wire accounting. The
    /// shard topology is keyed by worker count alone, so each remote
    /// worker's socket must carry exactly the stream the in-process
    /// consumer thread would have drained.
    #[test]
    fn remote_workers_are_observationally_identical_to_in_process_shards(
        case_index in 0usize..3
    ) {
        let (program, kind) = case(case_index);
        let config = SystemConfig::default();
        for workers in [1usize, 2, 4] {
            let run = |mode| {
                let request = Run::new(&program).mode(mode).monitor(kind);
                let outcome = request.workers(workers).config(&config).run();
                outcome.unwrap_or_else(|e| panic!("{mode} runs clean: {e}"))
            };
            let live = run(RunMode::LiveParallel);
            let remote = run(RunMode::Remote);
            let what = format!("{}/{} at {workers} workers", program.name(), kind.name());
            prop_assert_eq!(
                &remote.findings, &live.findings,
                "{}: findings diverge over the socket", &what
            );
            prop_assert_eq!(
                remote.channels.len(), live.channels.len(),
                "{}: shard count diverges", &what
            );
            for (shard, (r, l)) in remote.channels.iter().zip(&live.channels).enumerate() {
                prop_assert_eq!(
                    (r.records, r.frames, r.wire_bits, r.payload_bits),
                    (l.records, l.frames, l.wire_bits, l.payload_bits),
                    "{}: shard {} wire accounting diverges over the socket",
                    &what, shard
                );
            }
            prop_assert_eq!(remote.trace.instructions(), live.trace.instructions(), "{}", &what);
        }
    }
}

#[test]
fn builder_remote_mode_is_the_same_run() {
    // The builder's `RunMode::Remote` reports the live shape, with one
    // channel per worker, and matches the in-process shards' findings
    // and wire accounting.
    let program = bugs::memory_bugs();
    let config = SystemConfig::default();
    let request = |mode| {
        Run::new(&program)
            .mode(mode)
            .monitor(LifeguardKind::AddrCheck)
            .workers(2)
            .config(&config)
    };
    let direct = request(RunMode::LiveParallel)
        .run()
        .expect("live-parallel runs clean");
    let built = request(RunMode::Remote).run().expect("builder runs clean");
    assert_eq!(built.findings, direct.findings);
    assert_eq!(built.log.wire_bits, direct.log.wire_bits);
    let RunOutcome::Live(report) = &built else {
        panic!("RunMode::Remote produced a non-live outcome");
    };
    assert_eq!(report.mode, RunMode::Remote);
    assert_eq!(report.channels.len(), 2);
}
