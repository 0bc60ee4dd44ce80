//! The one live runner: every real-transport mode is one producer thread
//! fanning a log out to consumer ends, written once here.
//!
//! `RunMode::Live`, `LiveParallel`, `Remote` and `LiveEpochParallel` differ
//! only in three choices, and [`run_fanout`] takes each as a value:
//!
//! * the [`ConsumerTopology`] the [`FanOutLink`] routes shipped records
//!   through ([`SingleConsumer`](crate::SingleConsumer),
//!   [`ShardedByLine`](crate::ShardedByLine) or
//!   [`EpochRouted`](crate::EpochRouted));
//! * the per-consumer ends [`open_senders`] returns: a [`FrameSender`] over
//!   a credit window on the producer side, and on the consumer side a
//!   [`BatchSource`] — the in-process [`FrameReceiver`] ([`live_senders`])
//!   or the decoding socket end in `remote.rs`;
//! * the consumer closure: [`deliver_all`], the one delivery loop, for a
//!   lifeguard; the epoch worker step for a summarizer.
//!
//! The producer always runs on its own thread. The calling thread runs the
//! run's `local` share — the lent lifeguard of `Live`, the first shard of
//! the sharded modes, the epoch merge — so each mode keeps its thread
//! count (`Live` 2, sharded N+1, epoch N+2) and a non-`Send` lifeguard
//! never leaves the thread that lent it. The recording tee, the stall
//! timeout, the drain drag, the end-of-run checks, the syscall flush and
//! the degradation dial are applied here, once, and so is the join that
//! turns a panicking pipeline thread into a [`RunError`].

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, ScopedJoinHandle};

use lba_cache::MemSystem;
use lba_cpu::{Machine, RunError};
use lba_isa::Program;
use lba_lifeguard::{DegradationRequest, DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::live::{frame_queue, FrameReceiver};
use lba_transport::{ChannelStats, CreditWindow, FrameSender, LoadSample};

use crate::config::{SystemConfig, LG_CORE};
use crate::error::LbaError;
use crate::pipeline::{ConsumerTopology, Producer, ProducerLink, Route};
use crate::replay::ReplayError;
use crate::report::PipelineReport;
use crate::runner::RunMode;

/// Dial slot encoding: no request pending.
const DIAL_NONE: u64 = 0;
/// Dial slot: the lifeguard asked to engage degraded capture.
const DIAL_ENGAGE: u64 = 1;
/// Dial slot: the lifeguard asked to disengage degraded capture.
const DIAL_DISENGAGE: u64 = 2;

/// What the consumers publish back to the producer's capture controller:
/// their summed finding count (any growth snaps degraded capture back to
/// full fidelity) and the latest analysis-side dial request.
#[derive(Debug, Default)]
pub(crate) struct Feedback {
    findings: AtomicU64,
    dial: AtomicU64,
}

/// One consumer's end of the log: whole decoded frames, in order.
pub(crate) trait BatchSource {
    /// The next frame's records and whether the frame closes an epoch, or
    /// `None` once the producer closed the stream.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Decode`] for a frame that fails to decode, or the
    /// transport's error for a wire that failed.
    fn next_batch(&mut self) -> Result<Option<(&[EventRecord], bool)>, LbaError>;
}

impl BatchSource for FrameReceiver {
    fn next_batch(&mut self) -> Result<Option<(&[EventRecord], bool)>, LbaError> {
        let (stream, frame) = (self.stream_id(), self.frames());
        self.recv_batch_epoch().map_err(|source| {
            ReplayError::Decode {
                stream,
                frame,
                source,
            }
            .into()
        })
    }
}

/// The fan-out [`ProducerLink`]: the topology routes each shipped record
/// to one sender ([`Route::Shard`], [`Route::Epoch`]) or to all of them;
/// the consumers' [`Feedback`] is the snapback signal and the dial.
struct FanOutLink<'a, T, W: CreditWindow> {
    topology: T,
    senders: Vec<FrameSender<W>>,
    feedback: &'a Feedback,
}

impl<T: ConsumerTopology, W: CreditWindow> FanOutLink<'_, T, W> {
    /// Seals every open frame and sets or clears the degraded mark.
    fn mark_degraded(&mut self, on: bool) {
        for tx in &mut self.senders {
            tx.flush();
            tx.set_degraded(on);
        }
    }
}

impl<T: ConsumerTopology, W: CreditWindow> ProducerLink for FanOutLink<'_, T, W> {
    fn ship(&mut self, rec: &EventRecord) {
        match self.topology.route(rec) {
            Route::Shard(owner) => self.senders[owner].push(rec),
            Route::Epoch { worker, end_epoch } => self.senders[worker].push_epoch(rec, end_epoch),
            Route::Single | Route::Broadcast => {
                for tx in &mut self.senders {
                    tx.push(rec);
                }
            }
        }
    }

    fn on_engage(&mut self) {
        self.mark_degraded(true);
    }

    fn on_disengage(&mut self) {
        self.mark_degraded(false);
    }

    fn load_sample(&self) -> LoadSample {
        // The fullest window: one overloaded consumer is what blocks the
        // producer.
        self.senders
            .iter()
            .map(FrameSender::load_sample)
            .max_by_key(LoadSample::occupancy_permille)
            .unwrap_or_default()
    }

    fn finding_count(&self) -> u64 {
        self.feedback.findings.load(Ordering::Relaxed)
    }

    fn contain_syscall(&mut self) {
        // Real threads cannot stall a modeled clock; containment reduces
        // to sealing every open frame so the consumers can observe
        // everything that precedes the syscall.
        for tx in &mut self.senders {
            tx.flush();
        }
    }

    fn take_degradation_request(&mut self) -> Option<DegradationRequest> {
        match self.feedback.dial.swap(DIAL_NONE, Ordering::Relaxed) {
            DIAL_ENGAGE => Some(DegradationRequest::Engage),
            DIAL_DISENGAGE => Some(DegradationRequest::Disengage),
            _ => None,
        }
    }
}

/// Opens one frame sender per consumer: `open(stream)` connects consumer
/// `stream` and returns its credit window and its consumer end. Every
/// sender bounds its park by `channel_stall_timeout` and, when the run
/// records, mirrors its frames into recording stream `stream`.
///
/// # Errors
///
/// A framing configuration error, a recording that cannot be opened, or
/// whatever `open` reports.
pub(crate) fn open_senders<W: CreditWindow, C>(
    consumers: usize,
    config: &SystemConfig,
    mut open: impl FnMut(u32) -> Result<(W, C), LbaError>,
) -> Result<(Vec<FrameSender<W>>, Vec<C>), LbaError> {
    config.log.validate_framing()?;
    let mut senders = Vec::with_capacity(consumers);
    let mut ends = Vec::with_capacity(consumers);
    for idx in 0..consumers {
        let stream = u32::try_from(idx).expect("consumer count fits u32");
        let (window, end) = open(stream)?;
        let mut tx = FrameSender::new(window, config.log.frame_config());
        tx.set_stall_timeout(config.log.channel_stall_timeout);
        if let Some(record) = &config.log.record_to {
            tx.tee_into(crate::recorder::open_sink(record, stream)?);
        }
        senders.push(tx);
        ends.push(end);
    }
    Ok((senders, ends))
}

/// Opens `consumers` in-process frame channels, each as deep as the
/// buffer budget allows ([`LogConfig::live_channel_frames`]), with the
/// senders configured by [`open_senders`] and every receiver dragged by
/// the fault profile's `drain_drag`.
///
/// [`LogConfig::live_channel_frames`]: crate::LogConfig::live_channel_frames
pub(crate) fn live_senders(
    consumers: usize,
    config: &SystemConfig,
) -> Result<(Vec<FrameSender>, Vec<FrameReceiver>), LbaError> {
    let drag = drain_drag(config);
    open_senders(consumers, config, |stream| {
        let (queue, mut rx) = frame_queue(
            stream,
            config.log.live_channel_frames(),
            config.log.frame_config(),
        );
        rx.set_drag(drag);
        Ok((queue, rx))
    })
}

/// Spin iterations each consumer burns per frame (fault injection).
pub(crate) fn drain_drag(config: &SystemConfig) -> u32 {
    config.log.fault.as_ref().map_or(0, |f| f.drain_drag)
}

/// The one delivery loop: drains `source` into `lifeguard` frame by frame
/// — one batch per frame, or record by record when `log.batch_dispatch`
/// is off (the bench baseline) — publishing the finding count after each
/// frame and, when `dial` is set, the lifeguard's degradation request.
/// Runs the end-of-log hook once the stream closes.
///
/// # Errors
///
/// Whatever [`BatchSource::next_batch`] reports.
pub(crate) fn deliver_all(
    source: &mut impl BatchSource,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
    feedback: &Feedback,
    dial: bool,
) -> Result<Vec<Finding>, LbaError> {
    let engine = DispatchEngine::new(config.dispatch);
    let mut mem = MemSystem::new(config.mem_dual());
    let mut findings = Vec::new();
    let mut published = 0;
    while let Some((records, _)) = source.next_batch()? {
        if config.log.batch_dispatch {
            engine.deliver_batch(lifeguard, records, &mut mem, LG_CORE, &mut findings);
        } else {
            for record in records {
                engine.deliver(lifeguard, record, &mut mem, LG_CORE, &mut findings);
            }
        }
        let grown = findings.len() - published;
        if grown > 0 {
            feedback.findings.fetch_add(grown as u64, Ordering::Relaxed);
            published = findings.len();
        }
        if dial {
            if let Some(req) = engine.poll_degradation(lifeguard) {
                let slot = match req {
                    DegradationRequest::Engage => DIAL_ENGAGE,
                    DegradationRequest::Disengage => DIAL_DISENGAGE,
                };
                feedback.dial.store(slot, Ordering::Relaxed);
            }
        }
    }
    engine.finish(lifeguard, &mut mem, LG_CORE, &mut findings);
    Ok(findings)
}

/// One fan-out run's producer side: the program and configuration, the
/// mode it reports as, the capture stage, the topology, and one sender
/// per consumer.
pub(crate) struct FanOut<'a, T, W: CreditWindow> {
    pub(crate) program: &'a Program,
    pub(crate) config: &'a SystemConfig,
    pub(crate) mode: RunMode,
    pub(crate) producer: Producer,
    pub(crate) topology: T,
    pub(crate) senders: Vec<FrameSender<W>>,
    /// The thread name a panic of a spawned consumer reports.
    pub(crate) spawned_thread: &'static str,
    /// The thread name a panic of the calling thread's share reports.
    pub(crate) local_thread: &'static str,
}

/// Runs one fan-out pipeline: the producer on its own thread, one thread
/// per `spawned` end running `consume`, and `local` on the calling thread;
/// returns the report, holding `local`'s findings, and each spawned
/// consumer's result in end order.
///
/// `local` must own any consumer end it drains: a failing consumer's end
/// has to drop with it, so the producer sees nobody drains that stream
/// any more instead of waiting for credit.
///
/// Every thread is joined before the run returns. The first failure wins
/// in this order: a panic (a bug no other error explains), then a producer
/// error (which explains any consumer-side tear), then a consumer error.
///
/// # Errors
///
/// [`RunError::WorkerPanicked`] for a panicking thread, then any producer
/// error (machine, stall, recording, socket), then any consumer error.
pub(crate) fn run_fanout<T, W, C, R>(
    run: FanOut<'_, T, W>,
    spawned: Vec<C>,
    consume: impl Fn(C, &Feedback) -> Result<R, LbaError> + Sync,
    local: impl FnOnce(&Feedback) -> Result<Vec<Finding>, LbaError>,
) -> Result<(PipelineReport, Vec<R>), LbaError>
where
    T: ConsumerTopology + Send,
    W: CreditWindow + Send,
    C: Send,
    R: Send,
{
    let FanOut {
        program,
        config,
        mode,
        mut producer,
        topology,
        senders,
        spawned_thread,
        local_thread,
    } = run;
    let feedback = &Feedback::default();
    let consume = &consume;
    thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut machine = Machine::new(program, config.machine);
            let mut mem = MemSystem::new(config.mem_single());
            let mut link = FanOutLink {
                topology,
                senders,
                feedback,
            };
            machine.run(&mut mem, |r| producer.observe(&r.record, &mut link))?;
            // Snap back out of degradation, settle fold counts, ship the
            // tail, then close every stream. On an error the link drops
            // instead, which closes the streams so the consumers finish.
            let finish = producer.finish(&mut link);
            Ok::<_, LbaError>((finish, finish_senders(link.senders)?))
        });
        let consumers: Vec<_> = spawned
            .into_iter()
            .map(|end| scope.spawn(move || consume(end, feedback)))
            .collect();
        let local = panic::catch_unwind(AssertUnwindSafe(|| local(feedback)))
            .map_err(|payload| panicked(local_thread, &*payload));
        // Join every thread before returning: the scope re-raises the
        // panic of any thread left unjoined.
        let consumers: Vec<_> = consumers
            .into_iter()
            .map(|handle| join_thread(handle, spawned_thread))
            .collect();
        let produced = join_thread(producer, "producer");
        let consumers = consumers.into_iter().collect::<Result<Vec<_>, _>>()?;
        let (local, produced) = (local?, produced?);
        let (finish, channels) = produced?;
        let findings = local?;
        let results = consumers.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok((
            PipelineReport::shipped(program, mode, finish, findings, channels),
            results,
        ))
    })
}

/// The producer tail: seals every sender's final partial frame, fails the
/// run if any sender latched a stall (frames past the timeout were
/// discarded, so the run is no longer lossless; recordings stay torn, like
/// a crash), then closes each recording and ends each stream. Returns the
/// per-consumer statistics in sender order.
fn finish_senders<W: CreditWindow>(
    mut senders: Vec<FrameSender<W>>,
) -> Result<Vec<ChannelStats>, LbaError> {
    for tx in &mut senders {
        tx.flush();
    }
    if senders.iter().any(FrameSender::stalled) {
        return Err(RunError::ChannelStalled.into());
    }
    senders
        .into_iter()
        .map(|mut tx| {
            crate::recorder::finish_tee(tx.take_tee())?;
            tx.finish().map_err(LbaError::from_sink)
        })
        .collect()
}

/// Joins a pipeline thread, turning a panic into
/// [`RunError::WorkerPanicked`] so one faulty consumer fails its run
/// instead of crashing the process.
fn join_thread<T>(handle: ScopedJoinHandle<'_, T>, thread: &'static str) -> Result<T, RunError> {
    handle.join().map_err(|payload| panicked(thread, &*payload))
}

/// The [`RunError::WorkerPanicked`] for a panic payload caught on `thread`.
fn panicked(thread: &'static str, payload: &(dyn Any + Send)) -> RunError {
    RunError::WorkerPanicked {
        thread,
        message: payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_compress::{Frame, FrameConfig};

    #[test]
    fn undecodable_in_process_frame_is_a_decode_error_not_a_panic() {
        let config = FrameConfig::default();
        let (mut queue, mut rx) = frame_queue(3, 4, config);
        // A sealed-looking frame whose header claims records the payload
        // cannot hold.
        let frame = Frame {
            records: 8,
            bytes: vec![0xff; 64],
            payload_bits: 0,
            epoch_end: false,
            degraded: false,
        };
        assert!(queue.try_credit().unwrap());
        queue.admit(frame).unwrap();
        queue.close(&ChannelStats::default());
        let err = rx.next_batch().map(|_| ()).unwrap_err();
        assert!(
            matches!(
                err,
                LbaError::Replay(ReplayError::Decode {
                    stream: 3,
                    frame: 0,
                    ..
                })
            ),
            "got: {err}"
        );
    }
}
