//! Remote lifeguard workers: sealed frames over real sockets, one
//! lifeguard worker per shard — the production topology for heavy
//! traffic.
//!
//! [`run_live_parallel`](crate::live_parallel::run_live_parallel) shards
//! the lifeguard across OS threads sharing an address space; this module
//! keeps the identical sharded pipeline but moves each shard's frame
//! stream onto a Unix-domain socket speaking the `lbas/1` wire protocol
//! ([`lba_transport::socket`]) — the shape where capture and lifeguards
//! run in different *processes* (and, with the TCP `WireStream`, on
//! different hosts). Each worker owns a full decoder, dispatch engine and
//! lifeguard instance and drives its socket exactly as replay drives a
//! recorded stream: the wire is the flight-recorder format, minus the
//! disk.
//!
//! Back-pressure crosses the wire as an explicit credit window sized from
//! [`LogConfig::live_channel_frames`](crate::LogConfig::live_channel_frames)
//! — the same budget-derived depth the in-process channels use — so
//! `buffer_bytes` semantics,
//! [`LoadSample`](lba_transport::LoadSample)-driven adaptive degradation,
//! and the stall-timeout discipline all survive the socket hop: the
//! socket is just another credit window under the shared frame sender.
//!
//! Fidelity contract: the router ([`ShardedByLine`]), per-shard record
//! order, frame boundaries, and capture pass are identical to
//! `run_live_parallel` — both drive [`Producer::sharded`] and the same
//! [`FrameEncoder`](lba_compress::FrameEncoder) per shard — so each
//! shard's wire stream is byte-identical to the in-process live mode's
//! and the merged findings are equal. `tests/remote.rs` pins both across
//! worker counts.
//!
//! Like the other sharded modes, TaintCheck is unsupported here (use
//! [`run_live_epoch_parallel`](crate::epoch_parallel::run_live_epoch_parallel));
//! the registry's capability flags enforce this through the unified
//! [`Run`](crate::Run) entry point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use lba_cache::MemSystem;
use lba_compress::FrameDecoder;
use lba_cpu::Machine;
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::socket::{socket_pair, SocketSource};
use lba_transport::{ChannelStats, FrameSource};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::fanout::{drain_drag, finish_senders, join_thread, open_senders, FanOutLink};
use crate::pipeline::{Producer, ProducerFinish, ShardedByLine};
use crate::replay::ReplayError;
use crate::report::PipelineReport;
use crate::runner::RunMode;

/// The lifeguard-core MemSystem index used by every worker (shadow-cost
/// accounting only; the socket modes report no modeled clocks).
const LG_CORE: usize = 1;

/// Runs `program` on one thread with the lifeguard sharded `workers` ways
/// by address, each shard's sealed frames crossing a Unix-domain socket
/// (credit-windowed, `lbas/1`-framed) to its own worker thread with its
/// own decoder, dispatch engine, and lifeguard instance.
///
/// The workers here are threads for test determinism, but they speak the
/// real socket protocol end to end — handing a listener-accepted
/// [`UnixStream`](std::os::unix::net::UnixStream) (or `TcpStream`) from
/// another process to the same worker loop is deployment, not new code.
///
/// Configuration mirrors [`run_live_parallel`](crate::live_parallel::run_live_parallel):
/// `filter` and `syscall_stall` are ignored, `idempotency_window` and the
/// adaptive controller apply on the producer, `record_to` tees each
/// shard's stream to disk, `channel_stall_timeout` bounds how long the
/// producer parks on an exhausted credit window, and
/// `fault.drain_drag` slows the workers' drain for overload experiments.
///
/// # Errors
///
/// [`LbaError::Run`] for machine/config failures, a stalled credit
/// window ([`RunError::ChannelStalled`](lba_cpu::RunError::ChannelStalled))
/// and a panicked worker thread
/// ([`RunError::WorkerPanicked`](lba_cpu::RunError::WorkerPanicked));
/// [`LbaError::Socket`] when a wire tears (a worker died mid-run);
/// [`LbaError::Replay`] when a frame that crossed the wire intact fails to
/// decode.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub(crate) fn run_remote(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    workers: usize,
    config: &SystemConfig,
) -> Result<PipelineReport, LbaError> {
    assert!(workers > 0, "need at least one remote worker");
    config.log.validate_framing()?;
    let window = u32::try_from(config.log.live_channel_frames()).expect("window fits u32");
    // One socket per shard; each shard's stream is recorded exactly as
    // the live mode records it.
    let (senders, sources) = open_senders(workers, config, |stream| {
        socket_pair(stream, window).map_err(LbaError::from)
    })?;
    let drag = drain_drag(config);
    let make_lifeguard = &make_lifeguard;
    // The finding-snapback signal, published by workers exactly as the
    // in-process consumers publish theirs.
    let finding_count = AtomicU64::new(0);
    let finding_count = &finding_count;

    thread::scope(|scope| {
        let consumers: Vec<_> = sources
            .into_iter()
            .map(|source| {
                scope
                    .spawn(move || worker_loop(source, drag, make_lifeguard, config, finding_count))
            })
            .collect();

        // Produce on this thread. The link — and with it every sender —
        // drops when this closure returns, closing the sockets so the
        // workers see EOF and finish whether or not the run errored.
        let produced = (|| -> Result<(ProducerFinish, Vec<ChannelStats>), LbaError> {
            let mut machine = Machine::new(program, config.machine);
            let mut mem = MemSystem::new(config.mem_single());
            let seed = make_lifeguard();
            let mut producer = Producer::sharded(seed.as_ref(), config);
            drop(seed);
            let mut link = FanOutLink {
                topology: ShardedByLine::new(workers),
                senders,
                finding_count,
            };
            machine.run(&mut mem, |r| producer.observe(&r.record, &mut link))?;
            // Snap back out of degradation, settle fold counts, ship the
            // tail, then close each stream with its End record.
            let finish = producer.finish(&mut link);
            finish_senders(link.senders).map(|channels| (finish, channels))
        })();

        // Join every worker before returning (the scope re-raises the
        // panic of any thread left unjoined). A panic is a bug no producer
        // error explains, so it wins; a producer-side error explains any
        // worker-side tear, so it wins over those.
        let joined: Vec<_> = consumers
            .into_iter()
            .map(|handle| join_thread(handle, "worker"))
            .collect();
        let mut shard_findings = Vec::with_capacity(workers);
        let mut worker_err: Option<LbaError> = None;
        for outcome in joined.into_iter().collect::<Result<Vec<_>, _>>()? {
            match outcome {
                Ok(findings) => shard_findings.push(findings),
                Err(e) => {
                    worker_err.get_or_insert(e);
                }
            }
        }
        let (finish, channels) = produced?;
        if let Some(e) = worker_err {
            return Err(e);
        }
        let findings = crate::parallel::merge_shard_findings(shard_findings);
        Ok(PipelineReport::shipped(
            program,
            RunMode::Remote,
            finish,
            findings,
            channels,
        ))
    })
}

/// One worker: drain the socket to its End record, decode each frame,
/// and deliver the records — structurally the replay consumer over a
/// live wire.
fn worker_loop(
    mut source: SocketSource,
    drag: u32,
    make_lifeguard: &(impl Fn() -> Box<dyn Lifeguard> + Sync),
    config: &SystemConfig,
    finding_count: &AtomicU64,
) -> Result<Vec<Finding>, LbaError> {
    let stream = source.stream_id();
    let mut decoder = FrameDecoder::new(config.log.frame_config());
    let mut lifeguard = make_lifeguard();
    let engine = DispatchEngine::new(config.dispatch);
    let mut mem = MemSystem::new(config.mem_dual());
    let mut findings = Vec::new();
    let mut batch: Vec<EventRecord> = Vec::new();
    let mut frames = 0u64;
    let mut published = 0usize;
    loop {
        // Fault injection: a worker that drains slowly, so the credit
        // window fills and the producer's LoadSample climbs.
        for _ in 0..drag {
            std::hint::spin_loop();
        }
        let bytes = match source.next_frame_bytes() {
            Ok(Some(bytes)) => bytes,
            Ok(None) => break,
            Err(e) => return Err(LbaError::from_sink(e)),
        };
        batch.clear();
        decoder
            .decode_frame(&bytes, &mut batch)
            .map_err(|source| ReplayError::Decode {
                stream,
                frame: frames,
                source,
            })?;
        frames += 1;
        engine.deliver_batch(lifeguard.as_mut(), &batch, &mut mem, LG_CORE, &mut findings);
        if findings.len() > published {
            finding_count.fetch_add((findings.len() - published) as u64, Ordering::Relaxed);
            published = findings.len();
        }
    }
    engine.finish(lifeguard.as_mut(), &mut mem, LG_CORE, &mut findings);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::LifeguardKind;
    use crate::live_parallel::run_live_parallel;
    use lba_cpu::RunError;
    use lba_lifeguard::FindingKind;
    use lba_workloads::bugs;

    #[test]
    fn remote_addrcheck_detects_bugs_once() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report =
            run_remote(&program, LifeguardKind::AddrCheck.spec().make, 4, &config).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind} in remote run"
            );
        }
        let doubles = report
            .findings
            .iter()
            .filter(|f| f.kind == DoubleFree)
            .count();
        assert_eq!(doubles, 1, "broadcast duplicates must merge away");
    }

    #[test]
    fn per_shard_wire_streams_match_the_in_process_live_mode() {
        let program = bugs::data_race();
        let config = SystemConfig::default();
        let remote = run_remote(&program, LifeguardKind::LockSet.spec().make, 2, &config).unwrap();
        let live =
            run_live_parallel(&program, LifeguardKind::LockSet.spec().make, 2, &config).unwrap();
        assert_eq!(remote.channels.len(), live.channels.len());
        for (shard, (r, l)) in remote.channels.iter().zip(&live.channels).enumerate() {
            assert_eq!(
                (r.records, r.frames, r.wire_bits, r.payload_bits),
                (l.records, l.frames, l.wire_bits, l.payload_bits),
                "shard {shard} wire must be byte-identical to live-parallel"
            );
        }
        assert_eq!(remote.trace.instructions(), live.trace.instructions());
    }

    #[test]
    fn stalled_credit_window_is_a_run_error_not_a_hang() {
        // A one-frame window and a worker dragged hard enough to out-wait
        // the stall timeout: the producer must park, latch, and error.
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64; // one-frame credit window
        config.log.records_per_frame = 8;
        config.log.channel_stall_timeout = Some(std::time::Duration::from_millis(20));
        config.log.fault = Some(lba_transport::FaultProfile {
            drain_drag: 100_000_000,
            ..lba_transport::FaultProfile::default()
        });
        let start = std::time::Instant::now();
        let err =
            run_remote(&program, LifeguardKind::AddrCheck.spec().make, 1, &config).unwrap_err();
        assert!(
            matches!(err, LbaError::Run(RunError::ChannelStalled)),
            "got: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "the stall must latch once, not hang"
        );
    }

    #[test]
    #[should_panic(expected = "at least one remote worker")]
    fn zero_workers_rejected() {
        let program = bugs::memory_bugs();
        let _ = run_remote(
            &program,
            LifeguardKind::AddrCheck.spec().make,
            0,
            &SystemConfig::default(),
        );
    }
}
