//! Epoch-parallel lifeguards: symbolic transfer-function summaries for
//! order-sensitive lifeguards.
//!
//! Address-interleaved sharding ([`run_lba_parallel`](crate::parallel))
//! deliberately excludes TaintCheck: its register taint forms a sequential
//! dependence chain through every instruction. This module closes that gap
//! with the follow-up LBA literature's *epoch* technique:
//!
//! * the producer — [`Producer::passthrough`] driving an [`EpochRouted`]
//!   topology — cuts the record stream into contiguous **epochs** at
//!   every syscall (the natural containment point, where the log flushes
//!   anyway) and every `epoch_records` records; whole epochs fan out
//!   to `workers` workers round-robin, riding the existing framed
//!   transport — the epoch boundary is a one-bit mark in the sealed
//!   frame's wire header, so frames never straddle epochs;
//! * each **worker** consumes its epochs through the unmodified dispatch
//!   engine, but drives an
//!   [`EpochSummarizer`] instead of the
//!   concrete lifeguard: it computes a *symbolic transfer function* —
//!   per-register and per-touched-shadow-range out-state over unknown
//!   epoch-entry state, plus findings guarded by symbolic taint values —
//!   charging the same handler costs the concrete lifeguard would;
//! * a **merge** step stitches the summaries back in global epoch order,
//!   resolving each against the master's concrete state
//!   ([`EpochLifeguard::absorb`](lba_lifeguard::EpochLifeguard)). Because
//!   every summary is expressed over epoch-entry state and summaries are
//!   absorbed in order, the findings and final shadow state are
//!   byte-identical to the sequential run — proptest-pinned in this
//!   module's tests (master state) and `tests/epoch_taint.rs` (findings
//!   through the public builder).
//!
//! Three runners share the machinery, and every one of them drives its
//! workers through the one [`EpochWorker`] step: [`run_epoch_parallel`]
//! (the modeled mode: deterministic worker/stitch clocks, reporting the
//! cycle-level speedup), [`run_live_epoch_parallel`] (the fan-out runner
//! over an [`EpochRouted`] topology: one producer thread, `workers`
//! summarizer threads, and the merge on the calling thread), and
//! [`run_replay_epoch`] (offline: rebuild epochs from the recorded frame
//! marks of an epoch run and re-stitch). Like the sharded parallel
//! study, the modeled mode isolates lifeguard-side scaling: no
//! back-pressure, syscall-stall, or line-transfer charges — compare
//! against `run_lba`'s lifeguard-bound totals. The passthrough producer
//! ships every retired record: epoch summaries are computed over the full
//! stream, so no capture filter or adaptive controller may drop records.
//!
//! The modeled mode's speedup is a **modeled-only** figure; the wall-clock
//! numbers that qualify it are on
//! [`RunMode::EpochParallel`](crate::RunMode::EpochParallel).

use std::collections::VecDeque;
use std::sync::mpsc;

use lba_cache::{MemSystem, MemSystemConfig};
use lba_cpu::{Machine, RunError, StepOutcome};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, EpochLifeguard, EpochSummarizer, Finding, HandlerCtx};
use lba_record::EventRecord;
use lba_transport::{modeled_channel, ChannelStats, LogChannel, ModeledFrameChannel};

use crate::config::{SystemConfig, LG_CORE};
use crate::error::LbaError;
use crate::fanout::{live_senders, run_fanout, BatchSource, FanOut};
use crate::pipeline::{ConsumerTopology, EpochRouted, Producer, ProducerLink, Route};
use crate::replay::ReplayError;
use crate::report::{PipelineReport, ReplayReport, ReplayStreamStats, RunReport, StallBreakdown};
use crate::runner::RunMode;

/// Per-worker channel byte budget in the modeled mode. Epochs drain as
/// their frames seal, so this bounds transport memory, not the log; like
/// the sharded study, no back-pressure is modelled.
const EPOCH_BUFFER_BYTES: u64 = 1 << 20;

/// One epoch worker's step, written once for the modeled, live and replay
/// runners: each frame goes through the dispatch engine into the
/// summarizer, an epoch-end mark seals a summary, and the stream's
/// unmarked tail is finalized once it ends.
struct EpochWorker<S> {
    summarizer: S,
    engine: DispatchEngine,
    core: usize,
    /// Whether records arrived since the last epoch-end mark — the open
    /// tail epoch. Tracked here rather than via
    /// [`EpochSummarizer::is_open`] because the dispatch engine masks
    /// unsubscribed records before the summarizer sees them, yet the
    /// router still counts them toward the epoch.
    open: bool,
}

impl<S: EpochSummarizer> EpochWorker<S> {
    /// A worker summarizing into `summarizer`, charging `core`.
    fn new(summarizer: S, engine: DispatchEngine, core: usize) -> Self {
        EpochWorker {
            summarizer,
            engine,
            core,
            open: false,
        }
    }

    /// Delivers one frame's `records`, charging `core` of `mem`. Returns
    /// the cycles charged and, when the frame carries the epoch-end mark,
    /// the epoch's summary.
    fn consume(
        &mut self,
        mem: &mut MemSystem,
        records: &[EventRecord],
        epoch_end: bool,
    ) -> (u64, Option<S::Summary>) {
        // Summarizers pend findings symbolically instead of reporting, so
        // this sink stays empty; the master reports at absorb time.
        let mut no_findings = Vec::new();
        self.open |= !records.is_empty();
        let cycles = self.engine.deliver_batch(
            &mut self.summarizer,
            records,
            mem,
            self.core,
            &mut no_findings,
        );
        debug_assert!(no_findings.is_empty(), "summarizers never report directly");
        (cycles, epoch_end.then(|| self.seal()))
    }

    /// Finalizes the open tail epoch, if any: the stream tail ships
    /// unmarked.
    fn finish_tail(&mut self) -> Option<S::Summary> {
        (self.open || self.summarizer.is_open()).then(|| self.seal())
    }

    fn seal(&mut self) -> S::Summary {
        self.open = false;
        self.summarizer.finish_epoch()
    }
}

/// One modeled worker: its channel, its [`EpochWorker`] step, its clock,
/// and the summaries it has sealed (with their completion times), oldest
/// first.
struct ModeledWorker<S: EpochSummarizer> {
    channel: ModeledFrameChannel,
    worker: EpochWorker<S>,
    clock: u64,
    done: VecDeque<(S::Summary, u64)>,
}

impl<S: EpochSummarizer> ModeledWorker<S> {
    /// Drains every available frame into the summarizer, sealing a
    /// summary at each epoch-end mark.
    fn drain(&mut self, mem: &mut MemSystem) {
        while let Some(frame) = self.channel.pop_frame() {
            self.clock = self.clock.max(frame.ready_at);
            let (cycles, summary) = self.worker.consume(mem, frame.records, frame.epoch_end);
            self.clock += cycles;
            if let Some(summary) = summary {
                self.done.push_back((summary, self.clock));
            }
        }
    }
}

/// The modeled epoch mode's [`ProducerLink`]: the [`EpochRouted`]
/// topology fans whole epochs out to the modeled workers, each ship
/// opportunistically drains sealed frames into the owning summarizer, and
/// the merge core stitches completed summaries into the master in global
/// epoch order as soon as they become available.
struct EpochModelLink<'m, E: EpochLifeguard> {
    topology: EpochRouted,
    pool: Vec<ModeledWorker<E::Summarizer>>,
    mem: MemSystem,
    master: &'m mut E,
    merge_core: usize,
    findings: Vec<Finding>,
    app_cycles: u64,
    stitch_clock: u64,
    next_epoch: u64,
}

impl<E: EpochLifeguard> EpochModelLink<'_, E> {
    /// Absorbs every summary that is next in global epoch order.
    fn stitch(&mut self) {
        loop {
            let w = (self.next_epoch % self.pool.len() as u64) as usize;
            let Some((summary, t_done)) = self.pool[w].done.pop_front() else {
                break;
            };
            self.stitch_clock = self.stitch_clock.max(t_done);
            let mut ctx = HandlerCtx::new(&mut self.mem, self.merge_core, &mut self.findings);
            self.master.absorb(summary, &mut ctx);
            self.stitch_clock += ctx.cycles();
            self.next_epoch += 1;
        }
    }
}

impl<E: EpochLifeguard> ProducerLink for EpochModelLink<'_, E> {
    fn ship(&mut self, rec: &EventRecord) {
        match self.topology.route(rec) {
            Route::Epoch { worker, end_epoch } => {
                self.pool[worker]
                    .channel
                    .push_record_epoch(rec, self.app_cycles, end_epoch);
                self.pool[worker].drain(&mut self.mem);
                self.stitch();
            }
            _ => unreachable!("EpochRouted only yields epoch routes"),
        }
    }
}

/// Runs `program` under the modeled epoch-parallel pipeline: `master` is
/// the concrete lifeguard (it ends the run holding the same state a
/// sequential run would), `workers` summarizers consume whole epochs
/// round-robin, and the merge core stitches their summaries in epoch
/// order.
///
/// The clock model: worker cycles follow the ordinary dispatch charges
/// over each worker's frames (a frame is consumable once shipped, so the
/// worker clock first catches up to the frame's `ready_at`); each epoch's
/// absorb on the merge core starts at
/// `max(previous stitch, this epoch's summary completion)` and costs the
/// resolve/apply work [`EpochLifeguard::absorb`] charges. End-to-end time
/// is `max(app, stitch)`.
///
/// Epoch boundaries come from [`LogConfig::epoch_records`](crate::LogConfig)
/// and syscalls; see [`EpochRouted`].
///
/// [`Run`](crate::Run) drives this runner for `RunMode::EpochParallel`.
///
/// # Errors
///
/// Propagates any [`RunError`] from the machine.
///
/// # Panics
///
/// Panics if `workers` or `config.log.epoch_records` is zero.
pub(crate) fn run_epoch_parallel<E: EpochLifeguard>(
    program: &Program,
    master: &mut E,
    workers: usize,
    config: &SystemConfig,
) -> Result<RunReport, RunError> {
    assert!(workers > 0, "need at least one epoch worker");
    config.log.validate_framing()?;
    let mut machine = Machine::new(program, config.machine);
    let engine = DispatchEngine::new(config.dispatch);
    // Core 0: application. Cores 1..=workers: summarizers. Last: merge.
    let mut pool: Vec<ModeledWorker<E::Summarizer>> = (0..workers)
        .map(|idx| ModeledWorker {
            channel: modeled_channel(
                EPOCH_BUFFER_BYTES,
                config.log.frame_config(),
                config.log.batch_dispatch,
                false,
            ),
            worker: EpochWorker::new(master.summarizer(), engine, 1 + idx),
            clock: 0,
            done: VecDeque::new(),
        })
        .collect();
    // Flight recorder: one segmented stream per worker, so replay can
    // rebuild each worker's epoch sequence from the recorded frame marks.
    if let Some(record) = &config.log.record_to {
        for (idx, worker) in pool.iter_mut().enumerate() {
            let stream = u32::try_from(idx).expect("worker count fits u32");
            worker
                .channel
                .tee_into(crate::recorder::open_sink(record, stream)?);
        }
    }

    // The passthrough producer: every retired record ships (summaries are
    // computed over the full stream), so no filter or controller.
    let mut producer = Producer::passthrough();
    let mut link = EpochModelLink::<E> {
        topology: EpochRouted::new(workers, config.log.epoch_records),
        pool,
        mem: MemSystem::new(MemSystemConfig::multi_core(workers + 2)),
        master,
        merge_core: workers + 1,
        findings: Vec::new(),
        app_cycles: 0,
        stitch_clock: 0,
        next_epoch: 0,
    };

    loop {
        match machine.step(&mut link.mem)? {
            StepOutcome::Finished => break,
            StepOutcome::Retired(r) => {
                link.app_cycles += r.cycles;
                producer.observe(&r.record, &mut link);
            }
        }
    }
    let finish = producer.finish(&mut link);

    // End of program: the tail epoch (if open) ships via a plain unmarked
    // flush; its worker finalises the dangling summary after draining.
    let app_cycles = link.app_cycles;
    for worker in &mut link.pool {
        worker.channel.flush(app_cycles);
        worker.drain(&mut link.mem);
        if let Some(summary) = worker.worker.finish_tail() {
            worker.done.push_back((summary, worker.clock));
        }
    }
    link.stitch();
    debug_assert_eq!(
        link.next_epoch,
        link.topology.epochs(),
        "every epoch stitched"
    );
    let mut findings = link.findings;
    let mut stitch_clock = link.stitch_clock;
    stitch_clock += engine.finish(link.master, &mut link.mem, link.merge_core, &mut findings);

    // Close each worker's flight recording (End records + flush).
    for worker in &mut link.pool {
        crate::recorder::finish_tee(worker.channel.take_tee())?;
    }

    let channels: Vec<ChannelStats> = link.pool.iter().map(|w| w.channel.stats()).collect();
    let mut pipeline =
        PipelineReport::shipped(program, RunMode::EpochParallel, finish, findings, channels);
    pipeline.epochs = link.topology.epochs();
    // The stitch clock already dominates every worker clock it waited on.
    Ok(RunReport {
        total_cycles: app_cycles.max(stitch_clock),
        app_cycles,
        lifeguard_cycles: link.pool.iter().map(|w| w.clock).collect(),
        stitch_cycles: stitch_clock,
        stalls: StallBreakdown::default(),
        pipeline,
    })
}

/// Runs `program` under the live epoch-parallel pipeline: the fan-out
/// runner's producer thread fans whole epochs out to `workers` summarizer
/// threads (each decoding its own compressed frame stream), and the
/// calling thread stitches the summaries into `master` in global epoch
/// order — epochs go round-robin, so the merge polls the worker summary
/// queues round-robin and stops at the first disconnect (a closed worker
/// can hold no later epoch).
///
/// Functional, not timed (like the other live modes); findings and final
/// master state are byte-identical to the sequential run.
///
/// [`Run`](crate::Run) drives this runner for `RunMode::LiveEpochParallel`.
///
/// Like the other live modes, `record_to` tees each worker's stream to
/// disk, `channel_stall_timeout` bounds how long the producer parks on a
/// worker's full queue, and `fault.drain_drag` slows the workers' drain.
///
/// # Errors
///
/// Propagates any error from the machine thread,
/// [`RunError::ChannelStalled`] when a worker stopped draining for longer
/// than the stall timeout, and [`RunError::WorkerPanicked`] when a worker
/// or the merge panicked (a codec or lifeguard bug).
///
/// # Panics
///
/// Panics if `workers` or `config.log.epoch_records` is zero.
pub(crate) fn run_live_epoch_parallel<E: EpochLifeguard>(
    program: &Program,
    master: &mut E,
    workers: usize,
    config: &SystemConfig,
) -> Result<PipelineReport, LbaError> {
    assert!(workers > 0, "need at least one epoch worker");
    let (senders, receivers) = live_senders(workers, config)?;
    let engine = DispatchEngine::new(config.dispatch);
    let (sum_txs, sum_rxs): (Vec<_>, Vec<_>) = (0..workers).map(|_| mpsc::channel()).unzip();
    let ends: Vec<_> = receivers
        .into_iter()
        .zip(sum_txs)
        .map(|(rx, sum_tx)| {
            (
                rx,
                EpochWorker::new(master.summarizer(), engine, LG_CORE),
                sum_tx,
            )
        })
        .collect();
    let run = FanOut {
        program,
        config,
        mode: RunMode::LiveEpochParallel,
        // Every retired record ships: summaries cover the full stream.
        producer: Producer::passthrough(),
        topology: EpochRouted::new(workers, config.log.epoch_records),
        senders,
        spawned_thread: "epoch worker",
        local_thread: "epoch merge",
    };
    let mut epochs = 0u64;
    let (mut report, _) = run_fanout(
        run,
        ends,
        |(mut rx, mut worker, sum_tx), _| {
            let mut mem = MemSystem::new(config.mem_dual());
            while let Some((records, epoch_end)) = rx.next_batch()? {
                if let (_, Some(summary)) = worker.consume(&mut mem, records, epoch_end) {
                    let _ = sum_tx.send(summary);
                }
            }
            if let Some(summary) = worker.finish_tail() {
                let _ = sum_tx.send(summary);
            }
            Ok(())
        },
        |_| {
            let mut mem = MemSystem::new(config.mem_dual());
            let mut findings = Vec::new();
            // Epochs are contiguous round-robin: a disconnect at epoch `e`
            // means worker `e % workers` is done, and it would have
            // carried every later epoch's predecessor slot — no epoch ≥ e
            // exists anywhere.
            while let Ok(summary) = sum_rxs[(epochs % workers as u64) as usize].recv() {
                let mut ctx = HandlerCtx::new(&mut mem, LG_CORE, &mut findings);
                master.absorb(summary, &mut ctx);
                epochs += 1;
            }
            engine.finish(master, &mut mem, LG_CORE, &mut findings);
            Ok(findings)
        },
    )?;
    report.epochs = epochs;
    Ok(report)
}

/// Replays a recorded epoch-parallel stream set (one stream per worker,
/// left behind by [`run_epoch_parallel`] or [`run_live_epoch_parallel`]
/// with [`LogConfig::record_to`](crate::LogConfig) set) through a fresh
/// epoch pipeline: each stream's frames are decoded in order and cut back
/// into epochs at the recorded frame marks (a stream tail with no closing
/// mark is the run's final, open epoch), then the summaries are stitched
/// into `master` in global epoch order — worker count equals stream
/// count, epochs round-robin, exactly as they were recorded: the recorded
/// streams *are* the producer.
///
/// Findings and final `master` state are byte-identical to the recording
/// run's (and therefore to the sequential run's).
///
/// [`Run`](crate::Run) drives this runner for `RunMode::ReplayEpoch`.
///
/// # Errors
///
/// See [`ReplayError`]: stream-layer damage, a codec-version mismatch, or
/// a frame that fails to decode.
pub(crate) fn run_replay_epoch<E: EpochLifeguard>(
    dir: impl AsRef<std::path::Path>,
    master: &mut E,
    config: &SystemConfig,
) -> Result<ReplayReport, ReplayError> {
    use lba_compress::{Frame, FrameDecoder, CODEC_VERSION};
    use lba_record::{stream_ids, SegmentReader};

    let dir = dir.as_ref();
    let ids = stream_ids(dir)?;
    if ids.is_empty() {
        return Err(ReplayError::NoStreams {
            dir: dir.display().to_string(),
        });
    }

    let engine = DispatchEngine::new(config.dispatch);
    let mut mem = MemSystem::new(config.mem_dual());
    let mut codec_version = CODEC_VERSION;
    let mut queues: Vec<VecDeque<<E::Summarizer as EpochSummarizer>::Summary>> =
        Vec::with_capacity(ids.len());
    let mut streams = Vec::with_capacity(ids.len());
    for &stream in &ids {
        let mut reader = SegmentReader::open(dir, stream)?;
        if reader.codec_version() != CODEC_VERSION {
            return Err(ReplayError::CodecMismatch {
                stream,
                recorded: reader.codec_version(),
                running: CODEC_VERSION,
            });
        }
        codec_version = reader.codec_version();

        let mut decoder = FrameDecoder::new(config.log.frame_config());
        let mut worker = EpochWorker::new(master.summarizer(), engine, LG_CORE);
        let mut batch: Vec<EventRecord> = Vec::new();
        let mut done = VecDeque::new();
        let mut stats = ReplayStreamStats {
            stream,
            frames: 0,
            records: 0,
            wire_bits: 0,
            degraded_frames: 0,
        };
        while let Some(frame) = reader.next_frame()? {
            batch.clear();
            decoder
                .decode_frame(&frame.bytes, &mut batch)
                .map_err(|source| ReplayError::Decode {
                    stream,
                    frame: stats.frames,
                    source,
                })?;
            let epoch_end = Frame::header_epoch_end(&frame.bytes);
            done.extend(worker.consume(&mut mem, &batch, epoch_end).1);
            stats.frames += 1;
            stats.records += batch.len() as u64;
            stats.wire_bits += frame.wire_bits();
            if Frame::header_degraded(&frame.bytes) {
                stats.degraded_frames += 1;
            }
        }
        done.extend(worker.finish_tail());
        queues.push(done);
        streams.push(stats);
    }
    // Stitch in global epoch order: epochs went to streams round-robin.
    let mut findings = Vec::new();
    let mut epoch = 0u64;
    loop {
        let w = (epoch % queues.len() as u64) as usize;
        let Some(summary) = queues[w].pop_front() else {
            break;
        };
        let mut ctx = HandlerCtx::new(&mut mem, LG_CORE, &mut findings);
        master.absorb(summary, &mut ctx);
        epoch += 1;
    }
    debug_assert!(
        queues.iter().all(VecDeque::is_empty),
        "round-robin stitch must drain every stream"
    );
    engine.finish(master, &mut mem, LG_CORE, &mut findings);
    let mut report = ReplayReport::new(
        dir,
        codec_version,
        RunMode::ReplayEpoch,
        streams,
        Vec::new(),
        findings,
    );
    report.epochs = epoch;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecordConfig;
    use crate::cosim::run_lba;
    use lba_lifeguard::FindingKind;
    use lba_lifeguards::TaintCheck;
    use lba_workloads::{bugs, Benchmark};
    use proptest::prelude::*;

    /// A default config with `epoch_records`-record epochs.
    fn epochs(epoch_records: usize) -> SystemConfig {
        let mut config = SystemConfig::default();
        config.log.epoch_records = epoch_records;
        config
    }

    /// Runs TaintCheck epoch-parallel (`live` or modeled) into a fresh
    /// master and checks the findings, the record total and the master's
    /// final taint accounting against the sequential lifeguard's — and,
    /// when the run recorded, the same for a replay of the recording.
    fn assert_master_matches_sequential(
        program: &Program,
        config: &SystemConfig,
        workers: usize,
        live: bool,
    ) -> PipelineReport {
        let mut seq = TaintCheck::new();
        let sequential = run_lba(program, &mut seq, config).expect("sequential run");
        let seq_tainted = seq.tainted_bytes_introduced();
        let mut master = TaintCheck::new();
        let report = if live {
            run_live_epoch_parallel(program, &mut master, workers, config).unwrap()
        } else {
            run_epoch_parallel(program, &mut master, workers, config)
                .unwrap()
                .pipeline
        };
        let at = format!(
            "{} epoch {} workers {workers} live={live}",
            program.name(),
            config.log.epoch_records
        );
        assert_eq!(report.findings, sequential.findings, "{at}");
        assert_eq!(master.tainted_bytes_introduced(), seq_tainted, "{at}");
        assert_eq!(report.log.records, sequential.log.records, "{at}");
        if let Some(recording) = &config.log.record_to {
            let mut master = TaintCheck::new();
            let replay = run_replay_epoch(&recording.dir, &mut master, config).unwrap();
            assert_eq!(replay.findings, sequential.findings, "{at} replayed");
            assert_eq!(
                master.tainted_bytes_introduced(),
                seq_tainted,
                "{at} replayed"
            );
        }
        report
    }

    #[test]
    fn stalled_epoch_worker_is_a_run_error_not_a_hang() {
        // The epoch twin of the remote mode's stalled-credit-window test: a
        // one-frame queue and a worker dragged hard enough to out-wait the
        // stall timeout — the producer must park, latch, and error.
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64; // one-frame queue
        config.log.records_per_frame = 8;
        config.log.channel_stall_timeout = Some(std::time::Duration::from_millis(20));
        config.log.fault = Some(lba_transport::FaultProfile {
            drain_drag: 100_000_000,
            ..lba_transport::FaultProfile::default()
        });
        let start = std::time::Instant::now();
        let err =
            run_live_epoch_parallel(&program, &mut TaintCheck::new(), 1, &config).unwrap_err();
        assert!(
            matches!(err, LbaError::Run(RunError::ChannelStalled)),
            "got: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "the stall must latch once, not hang"
        );
    }

    /// An epoch lifeguard whose summarizer panics on its first record.
    struct Faulty;

    struct FaultySummary;

    impl lba_lifeguard::EpochSummary for FaultySummary {
        fn records(&self) -> u64 {
            0
        }
    }

    impl lba_lifeguard::Lifeguard for Faulty {
        fn name(&self) -> &'static str {
            "faulty"
        }

        fn subscriptions(&self) -> lba_record::EventMask {
            lba_record::EventMask::ALL
        }

        fn on_event(&mut self, _: &EventRecord, _: &mut HandlerCtx<'_>) {
            panic!("summarizer fault");
        }
    }

    impl EpochSummarizer for Faulty {
        type Summary = FaultySummary;

        fn finish_epoch(&mut self) -> FaultySummary {
            FaultySummary
        }

        fn is_open(&self) -> bool {
            false
        }
    }

    impl EpochLifeguard for Faulty {
        type Summarizer = Faulty;

        fn summarizer(&self) -> Faulty {
            Faulty
        }

        fn absorb(&mut self, _: FaultySummary, _: &mut HandlerCtx<'_>) {}
    }

    #[test]
    fn panicking_epoch_worker_is_a_run_error_not_a_crash() {
        let program = bugs::exploit();
        for workers in [1, 2] {
            let err =
                run_live_epoch_parallel(&program, &mut Faulty, workers, &SystemConfig::default())
                    .unwrap_err();
            assert!(
                matches!(
                    &err,
                    LbaError::Run(RunError::WorkerPanicked { thread: "epoch worker", message })
                        if message == "summarizer fault"
                ),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn epoch_parallel_taint_matches_sequential() {
        // (program, epoch_records, workers): the exploit at the default
        // epoch size; one epoch on one worker (syscalls still close
        // epochs), the purest test of the symbolic transfer function;
        // every record its own epoch, maximal stitch traffic; and gzip,
        // the modeled half of the modeled-vs-live agreement.
        let cases = [
            (bugs::exploit(), 1024, 1),
            (bugs::exploit(), 1024, 3),
            (bugs::exploit(), usize::MAX >> 1, 1),
            (bugs::tainted_syscall(), usize::MAX >> 1, 1),
            (bugs::exploit(), 1, 3),
            (Benchmark::Gzip.build(), 128, 3),
        ];
        for (program, epoch_records, workers) in cases {
            let report =
                assert_master_matches_sequential(&program, &epochs(epoch_records), workers, false);
            if program.name() == "exploit" {
                assert!(report
                    .findings
                    .iter()
                    .any(|f| f.kind == FindingKind::TaintedJump));
            }
        }
    }

    #[test]
    fn epoch_workers_split_the_record_stream_exactly() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let mut seq = TaintCheck::new();
        let sequential = run_lba(&program, &mut seq, &config).unwrap();
        let report = run_epoch_parallel(&program, &mut TaintCheck::new(), 4, &config).unwrap();
        // Epochs partition the stream: no broadcast, no duplication.
        assert_eq!(report.log.records, sequential.log.records);
        assert!(report.epochs >= 2, "gzip must decompose into epochs");
        assert_eq!(report.channels.len(), 4);
    }

    #[test]
    fn modeled_epoch_speedup_scales_with_workers() {
        let program = Benchmark::Gzip.build();
        let mut config = SystemConfig::default();
        config.log.epoch_records = 256;
        let one = run_epoch_parallel(&program, &mut TaintCheck::new(), 1, &config).unwrap();
        let four = run_epoch_parallel(&program, &mut TaintCheck::new(), 4, &config).unwrap();
        assert_eq!(one.findings, four.findings);
        let speedup = one.total_cycles as f64 / four.total_cycles as f64;
        assert!(
            speedup >= 1.5,
            "4 workers ({}) vs 1 ({}): {speedup:.2}x",
            four.total_cycles,
            one.total_cycles
        );
    }

    #[test]
    fn live_epoch_taint_matches_sequential() {
        // The exploit, gzip (the live half of the modeled-vs-live
        // agreement), and the long-chain programs gzip and mcf, where
        // tiny epochs stress the stitch and large ones the summarizer's
        // DAG.
        let mut cases = vec![
            (bugs::exploit(), 1024, 3),
            (Benchmark::Gzip.build(), 128, 3),
        ];
        for benchmark in [Benchmark::Gzip, Benchmark::Mcf] {
            for (epoch_records, workers) in [(7, 1), (7, 2), (1024, 1), (1024, 2)] {
                cases.push((benchmark.build(), epoch_records, workers));
            }
        }
        for (program, epoch_records, workers) in cases {
            assert_master_matches_sequential(&program, &epochs(epoch_records), workers, true);
        }
    }

    #[test]
    fn recorded_epoch_master_replays_to_sequential_taint() {
        for live in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "lba-core-epoch-replay-{}-{live}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let mut config = epochs(16);
            config.log.record_to = Some(RecordConfig::new(&dir));
            assert_master_matches_sequential(&bugs::exploit(), &config, 2, live);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The equivalence grid: programs × epoch sizes × worker counts ×
        /// modeled/live.
        #[test]
        fn epoch_master_matches_sequential_across_the_grid(
            program_idx in 0usize..4,
            epoch_records in prop_oneof![Just(1usize), Just(7), Just(64), Just(1024)],
            workers in 1usize..5,
            live in any::<bool>(),
        ) {
            let program = match program_idx {
                0 => bugs::exploit(),
                1 => bugs::tainted_syscall(),
                2 => bugs::memory_bugs(), // no taint findings: the clean case
                _ => Benchmark::Gzip.build(),
            };
            assert_master_matches_sequential(&program, &epochs(epoch_records), workers, live);
        }
    }

    #[test]
    #[should_panic(expected = "at least one epoch worker")]
    fn zero_workers_rejected() {
        let program = bugs::exploit();
        let _ = run_epoch_parallel(
            &program,
            &mut TaintCheck::new(),
            0,
            &SystemConfig::default(),
        );
    }
}
