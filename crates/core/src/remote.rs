//! Remote lifeguard workers: sealed frames over real sockets, one
//! lifeguard worker per shard — the production topology for heavy
//! traffic.
//!
//! `Remote` is the sharded live pipeline
//! ([`run_sharded`](crate::live_parallel::run_sharded)) over sockets
//! instead of in-process channels: each shard's frame stream crosses a
//! Unix-domain socket speaking the `lbas/1` wire protocol
//! ([`lba_transport::socket`]) — the shape where capture and lifeguards
//! run in different *processes* (and, with the TCP `WireStream`, on
//! different hosts). This module supplies only the socket ends: a
//! [`SocketSink`](lba_transport::SocketSink) credit window under each
//! shard's frame sender, and [`SocketBatches`], which decodes each frame
//! off the wire exactly as replay decodes a recorded stream — the wire is
//! the flight-recorder format, minus the disk.
//!
//! Back-pressure crosses the wire as an explicit credit window sized from
//! [`LogConfig::live_channel_frames`](crate::LogConfig::live_channel_frames)
//! — the same budget-derived depth the in-process channels use — so
//! `buffer_bytes` semantics,
//! [`LoadSample`](lba_transport::LoadSample)-driven adaptive degradation,
//! and the stall-timeout discipline all survive the socket hop.
//!
//! Fidelity contract: router, per-shard record order, frame boundaries,
//! capture pass and consumer loop are `LiveParallel`'s, so each shard's
//! wire stream is byte-identical to the in-process live mode's and the
//! merged findings are equal. `tests/remote.rs` pins both across worker
//! counts.
//!
//! Like the other sharded modes, TaintCheck is unsupported here (use
//! [`run_live_epoch_parallel`](crate::epoch_parallel::run_live_epoch_parallel));
//! the registry's capability flags enforce this through the unified
//! [`Run`](crate::Run) entry point.

use lba_compress::{Frame, FrameDecoder};
use lba_isa::Program;
use lba_lifeguard::Lifeguard;
use lba_record::EventRecord;
use lba_transport::socket::{socket_pair, SocketSource};
use lba_transport::FrameSource;

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::fanout::{drain_drag, open_senders, BatchSource};
use crate::live_parallel::run_sharded;
use crate::replay::ReplayError;
use crate::report::PipelineReport;
use crate::runner::RunMode;

/// A worker's end of a socket: drains the wire to its End record and
/// decodes each frame, burning the fault profile's drain drag first.
pub(crate) struct SocketBatches {
    source: SocketSource,
    decoder: FrameDecoder,
    batch: Vec<EventRecord>,
    drag: u32,
}

impl BatchSource for SocketBatches {
    fn next_batch(&mut self) -> Result<Option<(&[EventRecord], bool)>, LbaError> {
        // Fault injection: a worker that drains slowly, so the credit
        // window fills and the producer's LoadSample climbs.
        for _ in 0..self.drag {
            std::hint::spin_loop();
        }
        let frame = self.source.stats().frames;
        let Some(bytes) = self
            .source
            .next_frame_bytes()
            .map_err(LbaError::from_sink)?
        else {
            return Ok(None);
        };
        self.batch.clear();
        self.decoder
            .decode_frame(&bytes, &mut self.batch)
            .map_err(|source| ReplayError::Decode {
                stream: self.source.stream_id(),
                frame,
                source,
            })?;
        Ok(Some((&self.batch, Frame::header_epoch_end(&bytes))))
    }
}

/// Runs `program` on one thread with the lifeguard sharded `workers` ways
/// by address, each shard's sealed frames crossing a Unix-domain socket
/// (credit-windowed, `lbas/1`-framed) to its own worker with its own
/// decoder, dispatch engine, and lifeguard instance.
///
/// The workers here are threads for test determinism, but they speak the
/// real socket protocol end to end — handing a listener-accepted
/// [`UnixStream`](std::os::unix::net::UnixStream) (or `TcpStream`) from
/// another process to the same consumer loop is deployment, not new code.
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
/// and a panicked pipeline thread
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
    let window = u32::try_from(config.log.live_channel_frames()).expect("window fits u32");
    let drag = drain_drag(config);
    let ends = open_senders(workers, config, |stream| {
        let (sink, source) = socket_pair(stream, window)?;
        let end = SocketBatches {
            source,
            decoder: FrameDecoder::new(config.log.frame_config()),
            batch: Vec::new(),
            drag,
        };
        Ok((sink, end))
    })?;
    run_sharded(program, RunMode::Remote, make_lifeguard, config, ends)
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
