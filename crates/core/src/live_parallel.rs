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
//! consumer threads decode their frame streams *concurrently* — closing
//! the ROADMAP's "parallel value decompression" item as a by-product of
//! sharding: the per-stream codec stays sequential, but there are now N
//! streams.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use lba_cache::MemSystem;
use lba_cpu::{Machine, RunError};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, Finding, Lifeguard};
use lba_transport::ChannelStats;

use crate::config::SystemConfig;
use crate::fanout::{finish_senders, join_thread, live_senders, FanOutLink};
use crate::pipeline::{Producer, ProducerFinish, ShardedByLine};
use crate::report::PipelineReport;
use crate::runner::RunMode;

/// The lifeguard-core MemSystem index used by every consumer thread (each
/// thread owns a private dual-core memory system; live mode reports no
/// modeled clocks, so the geometry only feeds shadow-cost accounting).
const LG_CORE: usize = 1;

/// Runs `program` on one thread with the lifeguard sharded `shards` ways
/// by address, each shard on its own OS thread with its own framed
/// compressed channel, dispatch engine, and lifeguard instance.
///
/// `make_lifeguard` builds one (identical) lifeguard instance per shard;
/// it is called on each consumer thread, so the instances never migrate.
/// The channel depth per shard comes from
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
/// Propagates any [`RunError`] from the machine thread, and
/// [`RunError::WorkerPanicked`] when a consumer thread panicked (a codec
/// or lifeguard bug, not an I/O condition).
///
/// # Panics
///
/// Panics if `shards` is zero.
pub(crate) fn run_live_parallel(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    shards: usize,
    config: &SystemConfig,
) -> Result<PipelineReport, RunError> {
    assert!(shards > 0, "need at least one shard");
    config.log.validate_framing()?;
    let (senders, receivers) = live_senders(shards, config)?;
    let make_lifeguard = &make_lifeguard;
    // The finding-snapback signal: consumers accumulate their finding
    // counts here; any growth the producer's controller observes snaps
    // capture back to full fidelity.
    let finding_count = AtomicU64::new(0);
    let finding_count = &finding_count;

    thread::scope(|scope| {
        let consumers: Vec<_> = receivers
            .into_iter()
            .map(|mut rx| {
                scope.spawn(move || -> Vec<Finding> {
                    let mut lifeguard = make_lifeguard();
                    let engine = DispatchEngine::new(config.dispatch);
                    let mut mem = MemSystem::new(config.mem_dual());
                    let mut findings = Vec::new();
                    let mut published = 0usize;
                    let publish = |findings: &Vec<Finding>, published: &mut usize| {
                        if findings.len() > *published {
                            finding_count
                                .fetch_add((findings.len() - *published) as u64, Ordering::Relaxed);
                            *published = findings.len();
                        }
                    };
                    if config.log.batch_dispatch {
                        while let Some(batch) = rx.recv_batch() {
                            engine.deliver_batch(
                                lifeguard.as_mut(),
                                batch,
                                &mut mem,
                                LG_CORE,
                                &mut findings,
                            );
                            publish(&findings, &mut published);
                        }
                    } else {
                        while let Some(record) = rx.recv_ref() {
                            engine.deliver(
                                lifeguard.as_mut(),
                                record,
                                &mut mem,
                                LG_CORE,
                                &mut findings,
                            );
                            publish(&findings, &mut published);
                        }
                    }
                    engine.finish(lifeguard.as_mut(), &mut mem, LG_CORE, &mut findings);
                    findings
                })
            })
            .collect();

        // Produce on this thread: run the machine, apply the shared
        // capture pass (identical to `run_lba_parallel`'s) and fan the
        // log out. The link — and with it every sender — drops when this
        // closure returns, closing the shard streams so the consumers can
        // finish whether or not the run errored.
        let produced = (|| -> Result<(ProducerFinish, Vec<ChannelStats>), RunError> {
            let mut machine = Machine::new(program, config.machine);
            let mut mem = MemSystem::new(config.mem_single());
            let seed = make_lifeguard();
            let mut producer = Producer::sharded(seed.as_ref(), config);
            drop(seed);
            let mut link = FanOutLink {
                topology: ShardedByLine::new(shards),
                senders,
                finding_count,
            };
            machine.run(&mut mem, |r| producer.observe(&r.record, &mut link))?;
            // Snap back out of degradation, settle fold counts, ship the
            // tail, then close every shard stream.
            let finish = producer.finish(&mut link);
            finish_senders(link.senders).map(|channels| (finish, channels))
        })();

        // Join every consumer before returning (the scope re-raises the
        // panic of any thread left unjoined).
        let joined: Vec<_> = consumers
            .into_iter()
            .map(|handle| join_thread(handle, "consumer"))
            .collect();
        let shard_findings = joined.into_iter().collect::<Result<Vec<_>, _>>()?;
        let findings = crate::parallel::merge_shard_findings(shard_findings);
        let (finish, channels) = produced?;
        Ok(PipelineReport::shipped(
            program,
            RunMode::LiveParallel,
            finish,
            findings,
            channels,
        ))
    })
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
        assert_eq!(err, RunError::ZeroRecordsPerFrame);
    }
}
