//! Sharded live lifeguards: one producer thread, N consumer threads, N
//! independent compressed frame streams.
//!
//! [`run_lba_parallel`](crate::parallel::run_lba_parallel) *models*
//! splitting a lifeguard across cores; this module actually does it on OS
//! threads. The producer runs the machine and routes each load/store
//! record to the shard owning its cache line (broadcasting everything
//! else — the identical [`ShardedByLine`] topology the modeled mode uses),
//! pushing into one [`FrameSender`](lba_transport::FrameSender) per
//! shard. Because every shard owns a full compressor/decompressor pair,
//! the value predictors never thread state across shards, and the N
//! consumers decode their frame streams *concurrently* — closing the
//! ROADMAP's "parallel value decompression" item as a by-product of
//! sharding: the per-stream codec stays sequential, but there are now N
//! streams.
//!
//! [`run_sharded`] is the fan-out runner ([`run_fanout`]) over any kind of
//! consumer end: the first shard drains on the calling thread and the
//! others on one thread each, every shard through [`deliver_all`] with its
//! own lifeguard instance, and the findings merge (deduplicated) at join.
//! `LiveParallel` runs it over in-process channels; `Remote`
//! (`remote.rs`) over sockets.
//!
//! Fidelity contract with the modeled mode: the router, the per-shard
//! record order, and the frame boundaries (seal every
//! `records_per_frame`, flush only at end of program; no range filter,
//! mirroring the modeled parallel study) are identical — both modes drive
//! [`Producer::sharded`] — so each shard's wire stream matches
//! `run_lba_parallel`'s shard byte for byte, and the merged findings are
//! equal. Integration tests pin both.
//!
//! Like the modeled mode, TaintCheck is unsupported: its register state is
//! a sequential dependence chain through every instruction, so address
//! interleaving is unsound for it — use the epoch-parallel mode
//! ([`run_live_epoch_parallel`](crate::epoch_parallel::run_live_epoch_parallel))
//! for taint on real threads.

use lba_isa::Program;
use lba_lifeguard::Lifeguard;
use lba_transport::{CreditWindow, FrameSender};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::fanout::{deliver_all, live_senders, run_fanout, BatchSource, FanOut, Feedback};
use crate::parallel::merge_shard_findings;
use crate::pipeline::{Producer, ShardedByLine};
use crate::report::PipelineReport;
use crate::runner::RunMode;

/// Runs `program` on one thread with the lifeguard sharded `shards` ways
/// by address, each shard with its own framed compressed channel,
/// dispatch engine, and lifeguard instance, and all but the first on
/// their own OS thread.
///
/// `make_lifeguard` builds one (identical) lifeguard instance per shard;
/// it is called on each consumer's thread, so the instances never
/// migrate. The channel depth per shard comes from
/// [`LogConfig::live_channel_frames`](crate::LogConfig::live_channel_frames),
/// the same budget-derived depth `run_live` uses.
///
/// Unlike [`run_live`](crate::live::run_live), this mode mirrors the modeled
/// parallel study exactly, so two `LogConfig` fields are deliberately
/// **ignored**: `filter` (the address-range filter has no sharded
/// soundness story) and `syscall_stall` (frames seal only when full or at
/// end of program; there is no containment flush). The
/// `idempotency_window` **does** apply: the capture pass runs on the
/// producer before routing — a suppressed duplicate would have landed on
/// the same shard as its first occurrence, so the per-lifeguard soundness
/// contract carries over unchanged — and `run_lba_parallel` runs the
/// identical pass, which keeps each shard's wire stream byte-identical
/// between the two modes.
///
/// [`Run`](crate::Run) drives this runner for `RunMode::LiveParallel`.
///
/// # Errors
///
/// See [`run_sharded`].
///
/// # Panics
///
/// Panics if `shards` is zero.
pub(crate) fn run_live_parallel(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    shards: usize,
    config: &SystemConfig,
) -> Result<PipelineReport, LbaError> {
    assert!(shards > 0, "need at least one shard");
    let ends = live_senders(shards, config)?;
    run_sharded(program, RunMode::LiveParallel, make_lifeguard, config, ends)
}

/// The sharded pipeline over one sender and one consumer end per shard,
/// reporting as `mode`.
///
/// # Errors
///
/// Propagates any error from the machine, a stalled or torn transport, a
/// frame that fails to decode, and
/// [`RunError::WorkerPanicked`](lba_cpu::RunError::WorkerPanicked) when a
/// pipeline thread panicked (a codec or lifeguard bug, not an I/O
/// condition).
pub(crate) fn run_sharded<W, S>(
    program: &Program,
    mode: RunMode,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    config: &SystemConfig,
    (senders, mut ends): (Vec<FrameSender<W>>, Vec<S>),
) -> Result<PipelineReport, LbaError>
where
    W: CreditWindow + Send,
    S: BatchSource + Send,
{
    let run = FanOut {
        program,
        config,
        mode,
        // The shared capture pass, identical to `run_lba_parallel`'s.
        producer: Producer::sharded(make_lifeguard().as_ref(), config),
        topology: ShardedByLine::new(ends.len()),
        senders,
        spawned_thread: "consumer",
        local_thread: "consumer",
    };
    let first = ends.remove(0);
    let consume = |mut end: S, feedback: &Feedback| {
        deliver_all(&mut end, make_lifeguard().as_mut(), config, feedback, false)
    };
    let (mut report, rest) = run_fanout(run, ends, consume, |feedback| consume(first, feedback))?;
    report.findings = merge_shard_findings(std::iter::once(report.findings).chain(rest));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::LifeguardKind;
    use lba_lifeguard::FindingKind;
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn sharded_live_addrcheck_detects_bugs_once() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report =
            run_live_parallel(&program, LifeguardKind::AddrCheck.spec().make, 4, &config).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind} in sharded live run"
            );
        }
        // Broadcast duplicates were merged away.
        let doubles = report
            .findings
            .iter()
            .filter(|f| f.kind == DoubleFree)
            .count();
        assert_eq!(doubles, 1);
    }

    #[test]
    fn every_shard_ships_real_compressed_frames() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let report =
            run_live_parallel(&program, LifeguardKind::AddrCheck.spec().make, 3, &config).unwrap();
        assert_eq!(report.channels.len(), 3);
        // Broadcast records count once per shard, so together the shards
        // carry at least the retired event stream.
        assert!(report.log.records >= report.trace.instructions());
        for stats in &report.channels {
            assert!(stats.frames > 0, "every shard must ship frames");
            assert!(stats.wire_bits >= stats.payload_bits);
            assert!(stats.high_water_bits > 0);
        }
    }

    #[test]
    fn one_shard_degenerates_to_the_whole_stream() {
        let program = bugs::data_race();
        let config = SystemConfig::default();
        let report =
            run_live_parallel(&program, LifeguardKind::LockSet.spec().make, 1, &config).unwrap();
        assert_eq!(report.channels.len(), 1);
        // A single shard owns every record: no routing, no broadcast dups.
        assert_eq!(report.channels[0].records, report.trace.instructions());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DataRace));
    }

    #[test]
    fn tiny_buffer_budget_still_completes() {
        // A sub-frame budget leaves each shard a one-deep queue: the
        // producer blocks more, but nothing deadlocks or drops.
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64;
        assert_eq!(config.log.live_channel_frames(), 1);
        let report =
            run_live_parallel(&program, LifeguardKind::AddrCheck.spec().make, 2, &config).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DoubleFree));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let program = bugs::memory_bugs();
        let _ = run_live_parallel(
            &program,
            LifeguardKind::AddrCheck.spec().make,
            0,
            &SystemConfig::default(),
        );
    }

    #[test]
    fn zero_records_per_frame_is_a_config_error() {
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.records_per_frame = 0;
        let err = run_live_parallel(&program, LifeguardKind::AddrCheck.spec().make, 2, &config)
            .unwrap_err();
        assert!(
            matches!(err, LbaError::Run(lba_cpu::RunError::ZeroRecordsPerFrame)),
            "got: {err}"
        );
    }
}
