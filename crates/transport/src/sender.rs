//! The producer-side frame sender, written once over a credit window.
//!
//! The paper's capture stage compresses the log into a bounded buffer and
//! stalls the application when that buffer is full. [`FrameSender`] is
//! that stage for every real transport: it owns the [`FrameEncoder`], the
//! flight-recorder tee, the producer-side [`ChannelStats`] and the one
//! stall clock. What differs between transports — how a frame is admitted,
//! how the producer waits for room, how a vanished consumer shows — sits
//! behind the small [`CreditWindow`] trait, implemented by the in-process
//! frame queue ([`live::FrameQueue`](crate::live::FrameQueue)) and by the
//! socket sink ([`SocketSink`](crate::SocketSink)), whose credits are
//! returned over the wire.

use std::time::{Duration, Instant};

use lba_compress::{Frame, FrameConfig, FrameEncoder};
use lba_record::EventRecord;

use crate::channel::{ChannelStats, LoadSample};
use crate::sink::{ChannelTee, FrameSink, SealedFrame, SinkError};

/// A bounded transport that admits whole frames while it has credit: at
/// most `capacity` frames may be in flight, and the consumer frees one
/// slot per frame it drains.
pub trait CreditWindow {
    /// Whether one more frame can be admitted right now. Transports with
    /// remote credit absorb any returned credits first.
    ///
    /// # Errors
    ///
    /// A transport failure, e.g. a torn wire.
    fn try_credit(&mut self) -> Result<bool, SinkError>;

    /// Waits briefly for the consumer to free a slot. `attempt` counts the
    /// waits of the current park, so a transport can spin before it yields.
    ///
    /// # Errors
    ///
    /// A transport failure while waiting.
    fn wait(&mut self, attempt: u32) -> Result<(), SinkError>;

    /// Whether the consumer is gone for good, so no credit will ever come.
    fn consumer_gone(&self) -> bool;

    /// Admits one frame; call only after [`try_credit`](Self::try_credit)
    /// returned `true`. Returns the wire bits in flight with this frame
    /// included (the high-water candidate).
    ///
    /// # Errors
    ///
    /// A transport failure while shipping the frame.
    fn admit(&mut self, frame: Frame) -> Result<u64, SinkError>;

    /// In-flight frames against the window's capacity.
    fn load_sample(&self) -> LoadSample;

    /// A spent wire buffer the encoder may refill, sparing an allocation.
    fn spare_buffer(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Closes the stream without marking it complete (the sender was
    /// dropped); `stats` are the producer's final statistics.
    fn close(&mut self, _stats: &ChannelStats) {}

    /// Ends the stream cleanly once every frame is admitted.
    ///
    /// # Errors
    ///
    /// A transport failure while closing.
    fn finish(&mut self, stats: &ChannelStats) -> Result<(), SinkError> {
        self.close(stats);
        Ok(())
    }
}

/// How a park on a full window ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// Credit is available: admit the frame.
    Admit,
    /// The consumer is gone: discard the frame.
    Gone,
    /// The window stayed full for the whole stall timeout.
    Stalled,
}

/// Parks until `window` has credit, the consumer is gone, or `timeout`
/// elapses. The stall clock starts at the first failed attempt, so the
/// fast path never reads the OS clock; `None` waits without bound.
pub(crate) fn park<W: CreditWindow + ?Sized>(
    window: &mut W,
    timeout: Option<Duration>,
) -> Result<Park, SinkError> {
    let mut stall_start: Option<Instant> = None;
    let mut attempt = 0u32;
    loop {
        if window.try_credit()? {
            return Ok(Park::Admit);
        }
        if window.consumer_gone() {
            return Ok(Park::Gone);
        }
        if let Some(limit) = timeout {
            if stall_start.get_or_insert_with(Instant::now).elapsed() >= limit {
                return Ok(Park::Stalled);
            }
        }
        window.wait(attempt)?;
        attempt = attempt.saturating_add(1);
    }
}

/// The producer half of a frame transport: compresses records into
/// cache-line-multiple frames and ships each sealed frame through its
/// [`CreditWindow`], parking while the window is full.
///
/// Dropping the sender flushes the partial frame and closes the stream;
/// [`finish`](Self::finish) also ends it cleanly (the socket's End record)
/// and reports the first transport error.
pub struct FrameSender<W: CreditWindow = crate::live::FrameQueue> {
    encoder: FrameEncoder,
    pub(crate) window: W,
    /// Optional mirror of every shipped frame into a [`FrameSink`] (the
    /// flight recorder); see [`tee_into`](Self::tee_into).
    tee: ChannelTee,
    /// Statistics over admitted frames only.
    stats: ChannelStats,
    /// How long a ship may park on a full window before the consumer is
    /// declared stalled; `None` (the default) parks without bound.
    stall_timeout: Option<Duration>,
    /// Latched once a park exceeded `stall_timeout`. Every later frame is
    /// discarded at once: the run is reporting a fatal stall, so there is
    /// no consumer left worth waiting for.
    stalled: bool,
    /// The first transport error, latched: pushes cannot fail, so the
    /// error surfaces from [`finish`](Self::finish), and later frames are
    /// discarded like those of a gone consumer.
    error: Option<SinkError>,
}

impl<W: CreditWindow> FrameSender<W> {
    /// Wraps `window` with a fresh encoder.
    #[must_use]
    pub fn new(window: W, config: FrameConfig) -> Self {
        FrameSender {
            encoder: FrameEncoder::new(config),
            window,
            tee: ChannelTee::default(),
            stats: ChannelStats::default(),
            stall_timeout: None,
            stalled: false,
            error: None,
        }
    }

    /// Mirrors every subsequently shipped frame into `sink` — the
    /// flight-recorder hook. Frames are mirrored before they park, so the
    /// recording is the exact wire traffic in ship order with `sealed_at`
    /// 0 (real transports have no modeled clock). A failing sink never
    /// disturbs the transport: the first error is latched, the sink
    /// dropped, and the error surfaces from [`take_tee`](Self::take_tee).
    pub fn tee_into(&mut self, sink: Box<dyn FrameSink + Send>) {
        self.tee.install(sink);
    }

    /// Takes the tee sink back (for finishing), or reports the first
    /// mirror error if the sink failed mid-run.
    ///
    /// # Errors
    ///
    /// The first error a mirror write hit.
    pub fn take_tee(&mut self) -> Result<Option<Box<dyn FrameSink + Send>>, SinkError> {
        self.tee.take()
    }

    /// Bounds how long a ship may park on a full window before the
    /// consumer is declared stalled (see [`stalled`](Self::stalled)).
    /// `None` restores the unbounded park.
    pub fn set_stall_timeout(&mut self, timeout: Option<Duration>) {
        self.stall_timeout = timeout;
    }

    /// Whether a ship exceeded the stall timeout. Once set, the sender
    /// discards every further frame; the run mode surfaces the condition as
    /// a run error.
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// The producer-visible transport load: in-flight frames against the
    /// window — cheap enough to sample on every capture-controller step.
    #[must_use]
    pub fn load_sample(&self) -> LoadSample {
        self.window.load_sample()
    }

    /// Sets or clears the degraded-capture mark on subsequently sealed
    /// frames; callers flush first so the mark is frame-accurate.
    pub fn set_degraded(&mut self, on: bool) {
        self.encoder.set_degraded(on);
    }

    /// Appends one record; when it completes a frame, ships the frame.
    pub fn push(&mut self, record: &EventRecord) {
        if let Some(frame) = self.encoder.push(record) {
            self.ship(frame);
        }
    }

    /// Like [`push`](Self::push), but seals and ships the open frame
    /// immediately — with the epoch-end mark in its wire header — when
    /// `end_epoch` is set, so frames never straddle epoch boundaries (see
    /// [`EpochRouter`](crate::EpochRouter)). With `end_epoch` false this
    /// is exactly `push`.
    pub fn push_epoch(&mut self, record: &EventRecord, end_epoch: bool) {
        if let Some(frame) = self.encoder.push_epoch(record, end_epoch) {
            self.ship(frame);
        }
    }

    /// Seals and ships the open partial frame — call at syscalls so the
    /// consumer sees every preceding record (containment).
    pub fn flush(&mut self) {
        if let Some(frame) = self.encoder.flush() {
            self.ship(frame);
        }
    }

    /// Producer-side statistics over admitted frames.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Flushes the partial frame, ends the stream cleanly, and returns the
    /// final statistics.
    ///
    /// # Errors
    ///
    /// The first transport error, including one latched by an earlier push.
    pub fn finish(mut self) -> Result<ChannelStats, SinkError> {
        self.flush();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.window.finish(&self.stats)?;
        Ok(self.stats)
    }

    fn ship(&mut self, frame: Frame) {
        if self.stalled || self.error.is_some() {
            // The consumer is already written off: discard instead of
            // re-paying the timeout on every sealed frame (the Drop-driven
            // flush included).
            return;
        }
        self.tee.mirror(&SealedFrame {
            bytes: &frame.bytes,
            records: frame.records,
            sealed_at: 0,
        });
        let (records, payload_bits, wire_bits) =
            (frame.records, frame.payload_bits, frame.wire_bits());
        let admitted = match park(&mut self.window, self.stall_timeout) {
            Ok(Park::Admit) => self.window.admit(frame),
            Ok(Park::Gone) => return,
            Ok(Park::Stalled) => {
                self.stalled = true;
                return;
            }
            Err(e) => Err(e),
        };
        match admitted {
            Ok(inflight_bits) => {
                self.stats.records += u64::from(records);
                self.stats.frames += 1;
                self.stats.payload_bits += payload_bits;
                self.stats.wire_bits += wire_bits;
                self.stats.high_water_bits = self.stats.high_water_bits.max(inflight_bits);
                if let Some(buf) = self.window.spare_buffer() {
                    self.encoder.recycle(buf);
                }
            }
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: CreditWindow> Drop for FrameSender<W> {
    fn drop(&mut self) {
        self.flush();
        self.window.close(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::frame_channel;
    use crate::socket::socket_pair;

    fn rec(i: u64) -> EventRecord {
        EventRecord::alu(0x1000 + i * 8, 0, None, None, None)
    }

    /// With a consumer that never drains, a full window must latch the
    /// stall within the timeout — once — and later frames (the
    /// flush-on-drop included) must be discarded without touching the
    /// statistics.
    fn stall_latches_instead_of_hanging<W: CreditWindow>(mut tx: FrameSender<W>, window: u64) {
        tx.set_stall_timeout(Some(Duration::from_millis(20)));
        // Two records per frame: fill every slot of the window.
        for i in 0..2 * window {
            tx.push(&rec(i));
        }
        assert!(!tx.stalled());
        let full = tx.load_sample();
        assert_eq!((full.inflight, full.capacity), (window, window));
        assert_eq!(full.occupancy_permille(), 1000);
        assert_eq!(tx.stats().frames, window, "only windowed frames ship");
        // The next sealed frames cannot ship: the sender must latch the
        // stall once instead of parking unboundedly or per frame.
        let start = Instant::now();
        for i in 0..64 {
            tx.push(&rec(100 + i));
        }
        assert!(tx.stalled(), "stall must latch once the timeout elapses");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stall must latch once, not re-pay the timeout per frame"
        );
        let stats = tx.stats();
        assert_eq!(stats.frames, window, "discarded frames must not count");
        tx.push(&rec(200));
        tx.flush();
        assert_eq!(tx.stats(), stats, "discarded frames must not count");
    }

    #[test]
    fn stall_timeout_latches_on_both_credit_windows() {
        let config = FrameConfig {
            records_per_frame: 2,
            compress: true,
        };
        let (tx, rx) = frame_channel(1, config);
        stall_latches_instead_of_hanging(tx, 1);
        drop(rx);

        let (sink, source) = socket_pair(0, 2).unwrap();
        stall_latches_instead_of_hanging(FrameSender::new(sink, config), 2);
        drop(source);
    }
}
