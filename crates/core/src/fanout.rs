//! The producer side shared by every real-transport run mode: one
//! [`FrameSender`] per consumer, opened from the [`SystemConfig`], fed by
//! one [`ProducerLink`] that routes through a [`ConsumerTopology`], and
//! closed by one tail.
//!
//! `run_live`, `run_live_parallel`, `run_remote` and
//! `run_live_epoch_parallel` differ only in their credit window (the
//! in-process queue or the socket) and their topology; the recording tee,
//! the stall timeout, the drain drag and the end-of-run checks are applied
//! here, once.

use std::sync::atomic::{AtomicU64, Ordering};

use lba_cpu::RunError;
use lba_record::EventRecord;
use lba_transport::live::{frame_queue, FrameReceiver};
use lba_transport::{ChannelStats, CreditWindow, FrameSender, LoadSample, SinkError};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::pipeline::{ConsumerTopology, ProducerLink, Route};

/// The fan-out [`ProducerLink`]: the topology routes each shipped record
/// to one sender ([`Route::Shard`], [`Route::Epoch`]) or to all of them,
/// and the consumers' published finding count is the snapback signal.
pub(crate) struct FanOutLink<'a, T, W: CreditWindow> {
    pub(crate) topology: T,
    pub(crate) senders: Vec<FrameSender<W>>,
    pub(crate) finding_count: &'a AtomicU64,
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
        self.finding_count.load(Ordering::Relaxed)
    }
}

/// Opens one frame sender per consumer: `open(stream)` connects consumer
/// `stream` and returns its credit window and its consumer end. Every
/// sender bounds its park by `channel_stall_timeout` and, when the run
/// records, mirrors its frames into recording stream `stream`.
pub(crate) fn open_senders<W: CreditWindow, C, E: From<RunError>>(
    consumers: usize,
    config: &SystemConfig,
    mut open: impl FnMut(u32) -> Result<(W, C), E>,
) -> Result<(Vec<FrameSender<W>>, Vec<C>), E> {
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
) -> Result<(Vec<FrameSender>, Vec<FrameReceiver>), RunError> {
    let drag = drain_drag(config);
    open_senders(consumers, config, |_| {
        let (queue, mut rx) =
            frame_queue(config.log.live_channel_frames(), config.log.frame_config());
        rx.set_drag(drag);
        Ok((queue, rx))
    })
}

/// Spin iterations each consumer burns per frame (fault injection).
pub(crate) fn drain_drag(config: &SystemConfig) -> u32 {
    config.log.fault.as_ref().map_or(0, |f| f.drain_drag)
}

/// The error types a producer tail reports into.
pub(crate) trait TailError: From<RunError> {
    /// Folds a transport error from ending a stream.
    fn from_sink(e: SinkError) -> Self;
}

impl TailError for RunError {
    fn from_sink(e: SinkError) -> Self {
        RunError::Recording {
            detail: e.to_string(),
        }
    }
}

impl TailError for LbaError {
    fn from_sink(e: SinkError) -> Self {
        LbaError::from_sink(e)
    }
}

/// The producer tail: seals every sender's final partial frame, fails the
/// run if any sender latched a stall (frames past the timeout were
/// discarded, so the run is no longer lossless; recordings stay torn, like
/// a crash), then closes each recording and ends each stream. Returns the
/// per-consumer statistics in sender order.
pub(crate) fn finish_senders<W: CreditWindow, E: TailError>(
    mut senders: Vec<FrameSender<W>>,
) -> Result<Vec<ChannelStats>, E> {
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
            tx.finish().map_err(E::from_sink)
        })
        .collect()
}
