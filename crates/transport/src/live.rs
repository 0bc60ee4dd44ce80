//! Real cross-thread log transport for live monitoring.
//!
//! The deterministic [`ModeledFrameChannel`](crate::ModeledFrameChannel)
//! gives exact timing; this module gives the *functional* equivalent with
//! genuine parallelism. [`frame_channel`] pairs a [`FrameSender`] over an
//! in-process [`FrameQueue`] with a [`FrameReceiver`]: the producer
//! compresses records into cache-line-multiple frames ([`FrameEncoder`])
//! and ships each frame as one byte buffer, amortising a queue operation
//! over `records_per_frame` records; the consumer decompresses on its own
//! thread. This is the live analogue of the paper's compressed log moving
//! through the cache hierarchy, and it measures real wire bytes per record.
//!
//! [`FrameEncoder`]: lba_compress::FrameEncoder
//!
//! # Examples
//!
//! ```
//! use lba_compress::FrameConfig;
//! use lba_record::EventRecord;
//! use lba_transport::live;
//!
//! let (mut tx, mut rx) = live::frame_channel(16, FrameConfig::default());
//! let writer = std::thread::spawn(move || {
//!     for i in 0..100 {
//!         tx.push(&EventRecord::alu(0x1000 + i * 8, 0, None, None, None));
//!     }
//!     // tx dropped here: flushes the partial frame and closes the channel
//! });
//! let mut seen = 0;
//! while let Some(_rec) = rx.recv() {
//!     seen += 1;
//! }
//! writer.join().unwrap();
//! assert_eq!(seen, 100);
//! assert!(rx.stats().frames >= 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crossbeam::queue::ArrayQueue;

use lba_compress::{Frame, FrameConfig, FrameDecodeError, FrameDecoder};
use lba_record::EventRecord;

use crate::channel::{ChannelStats, LoadSample};
use crate::sender::CreditWindow;
pub use crate::sender::FrameSender;
use crate::sink::SinkError;

/// Spin briefly before yielding to the scheduler: the peer is typically
/// mid-frame (microseconds away), so burning a few dozen pause
/// instructions is cheaper than a syscall per poll.
fn backoff(attempt: u32) {
    if attempt < 128 {
        std::hint::spin_loop();
    } else {
        thread::yield_now();
    }
}

struct Shared {
    queue: ArrayQueue<Vec<u8>>,
    /// Spent wire buffers returned by the consumer for the producer to
    /// refill, sparing an allocation (and a cross-thread free) per frame.
    pool: ArrayQueue<Vec<u8>>,
    closed: AtomicBool,
    /// Set when the receiver is dropped, so a sender parked on a full
    /// queue (including the flush in its own Drop) cannot hang.
    consumer_gone: AtomicBool,
    /// Frames and wire bits currently queued: the producer adds before
    /// each push and the consumer subtracts after each pop, so the credit
    /// check and the load sample never take the queue's lock.
    queued: AtomicUsize,
    inflight_bits: AtomicU64,
    /// The producer's final statistics, published when the sender closes.
    stats: Mutex<ChannelStats>,
}

/// The in-process [`CreditWindow`]: a bounded single-producer,
/// single-consumer queue of frame buffers, one slot of credit per queued
/// frame.
pub struct FrameQueue {
    shared: Arc<Shared>,
}

impl CreditWindow for FrameQueue {
    fn try_credit(&mut self) -> Result<bool, SinkError> {
        // `queued` never undercounts the queue, and only this (single)
        // producer raises it, so a free slot seen here stays free.
        Ok(self.shared.queued.load(Ordering::Acquire) < self.shared.queue.capacity())
    }

    fn wait(&mut self, attempt: u32) -> Result<(), SinkError> {
        backoff(attempt);
        Ok(())
    }

    fn consumer_gone(&self) -> bool {
        self.shared.consumer_gone.load(Ordering::Acquire)
    }

    fn admit(&mut self, frame: Frame) -> Result<u64, SinkError> {
        // Count the frame in flight before the push, so the consumer's
        // subtraction can never run first and underflow the counters.
        let bits = frame.wire_bits();
        self.shared.queued.fetch_add(1, Ordering::AcqRel);
        let inflight = self.shared.inflight_bits.fetch_add(bits, Ordering::Relaxed) + bits;
        self.shared
            .queue
            .push(frame.bytes)
            .map_err(|_| "frame queue full after credit was granted")?;
        Ok(inflight)
    }

    fn load_sample(&self) -> LoadSample {
        LoadSample {
            inflight: self.shared.queued.load(Ordering::Acquire) as u64,
            capacity: self.shared.queue.capacity() as u64,
        }
    }

    fn spare_buffer(&mut self) -> Option<Vec<u8>> {
        self.shared.pool.pop()
    }

    fn close(&mut self, stats: &ChannelStats) {
        *self.shared.stats.lock().expect("stats lock") = *stats;
        self.shared.closed.store(true, Ordering::Release);
    }
}

/// Consumer half of the framed live channel: owns the decompressor.
pub struct FrameReceiver {
    /// The stream this receiver drains (the consumer index in a fan-out).
    stream: u32,
    /// Frames decoded so far: the index of the next frame.
    frames: u64,
    decoder: FrameDecoder,
    /// Decoded records of the current frame, served from `cursor`; the
    /// buffer is reused across frames to avoid a per-frame allocation.
    pending: Vec<EventRecord>,
    cursor: usize,
    /// Whether the most recently decoded frame carried the epoch-end mark.
    frame_epoch_end: bool,
    /// Fault injection: spin iterations burned before each frame receive,
    /// simulating a lifeguard core that drains slowly (see
    /// [`set_drag`](Self::set_drag)).
    drag: u32,
    shared: Arc<Shared>,
}

impl FrameReceiver {
    /// Fault injection: burn `spins` pause iterations before every frame
    /// receive, simulating a slow-draining consumer so the queue fills
    /// and the producer's [`LoadSample`] climbs. Zero (the default)
    /// disables the drag.
    pub fn set_drag(&mut self, spins: u32) {
        self.drag = spins;
    }

    /// Burns the configured drag (no-op when disabled).
    fn apply_drag(&self) {
        for _ in 0..self.drag {
            std::hint::spin_loop();
        }
    }

    /// Receives the next record, blocking until a frame arrives. Returns
    /// `None` once the producer is dropped and the queue is drained.
    ///
    /// # Panics
    ///
    /// Panics if a frame fails to decode — the producer is in-process, so
    /// corruption is a codec bug, not an I/O condition.
    pub fn recv(&mut self) -> Option<EventRecord> {
        self.recv_ref().copied()
    }

    /// Like [`recv`](Self::recv), but lends the record out of the decode
    /// buffer instead of copying it — for consumers (like the lifeguard
    /// dispatch) that only need `&EventRecord`.
    pub fn recv_ref(&mut self) -> Option<&EventRecord> {
        while self.cursor >= self.pending.len() {
            let bytes = self.recv_frame()?;
            self.ingest_or_panic(bytes);
        }
        self.cursor += 1;
        self.pending.get(self.cursor - 1)
    }

    /// Receives a frame's worth of records as one slice, blocking until a
    /// frame arrives — the batch counterpart of [`recv`](Self::recv), one
    /// queue operation and one decode per `records_per_frame` records.
    /// Returns `None` once the producer is dropped and the queue drained.
    ///
    /// Mixing with [`recv`](Self::recv) is allowed: records already served
    /// record-by-record are not repeated.
    ///
    /// # Panics
    ///
    /// Panics if a frame fails to decode (see [`recv`](Self::recv)).
    pub fn recv_batch(&mut self) -> Option<&[EventRecord]> {
        self.recv_batch_epoch()
            .unwrap_or_else(|e| panic!("live frame failed to decode: {e}"))
            .map(|(records, _)| records)
    }

    /// Like [`recv_batch`](Self::recv_batch), but also reports whether the
    /// served frame carried the epoch-end mark — the consumer half of the
    /// epoch-parallel transport (see [`EpochRouter`](crate::EpochRouter)
    /// and [`FrameSender::push_epoch`]) — and returns a frame that fails
    /// to decode as an error instead of panicking. Driven exclusively,
    /// every call serves exactly one frame and the flag describes it.
    ///
    /// # Errors
    ///
    /// The decoder's error for a frame that fails to decode; its index is
    /// [`frames`](Self::frames).
    pub fn recv_batch_epoch(&mut self) -> Result<Option<(&[EventRecord], bool)>, FrameDecodeError> {
        if self.cursor >= self.pending.len() {
            let Some(bytes) = self.recv_frame() else {
                return Ok(None);
            };
            self.ingest(bytes)?;
        }
        let start = self.cursor;
        self.cursor = self.pending.len();
        Ok(Some((&self.pending[start..], self.frame_epoch_end)))
    }

    /// Non-blocking receive: `None` when no complete frame has arrived.
    pub fn try_recv(&mut self) -> Option<EventRecord> {
        while self.cursor >= self.pending.len() {
            self.apply_drag();
            let bytes = self.pop_frame()?;
            self.ingest_or_panic(bytes);
        }
        self.recv()
    }

    /// The stream this receiver drains, as given to [`frame_queue`].
    #[must_use]
    pub fn stream_id(&self) -> u32 {
        self.stream
    }

    /// Frames decoded so far — the index of the next frame.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The producer's statistics, published when the sender finishes or
    /// is dropped (all zero before that).
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        *self.shared.stats.lock().expect("stats lock")
    }

    fn pop_frame(&self) -> Option<Vec<u8>> {
        let bytes = self.shared.queue.pop()?;
        self.shared
            .inflight_bits
            .fetch_sub(bytes.len() as u64 * 8, Ordering::Relaxed);
        self.shared.queued.fetch_sub(1, Ordering::AcqRel);
        Some(bytes)
    }

    fn recv_frame(&self) -> Option<Vec<u8>> {
        self.apply_drag();
        let mut attempt = 0;
        loop {
            if let Some(bytes) = self.pop_frame() {
                return Some(bytes);
            }
            if self.shared.closed.load(Ordering::Acquire) {
                // Drain anything that raced with the close flag.
                return self.pop_frame();
            }
            backoff(attempt);
            attempt += 1;
        }
    }

    /// Decodes a received frame buffer (every earlier record has been
    /// served) and returns the buffer to the pool.
    fn ingest(&mut self, bytes: Vec<u8>) -> Result<(), FrameDecodeError> {
        self.pending.clear();
        self.cursor = 0;
        self.frame_epoch_end = Frame::header_epoch_end(&bytes);
        let decoded = self.decoder.decode_frame(&bytes, &mut self.pending);
        let _ = self.shared.pool.push(bytes); // return for reuse
        if let Err(e) = decoded {
            self.pending.clear(); // serve nothing of a corrupt frame
            return Err(e);
        }
        self.frames += 1;
        Ok(())
    }

    /// [`ingest`](Self::ingest) for the record-level receives, where the
    /// producer is in-process and corruption is a codec bug.
    fn ingest_or_panic(&mut self, bytes: Vec<u8>) {
        self.ingest(bytes)
            .unwrap_or_else(|e| panic!("live frame failed to decode: {e}"));
    }
}

impl Drop for FrameReceiver {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
    }
}

/// Creates the framed SPSC channel holding up to `capacity_frames`
/// in-flight frames.
///
/// Dropping the [`FrameSender`] flushes the partial frame and closes the
/// channel; [`FrameReceiver::recv`] then drains what remains and returns
/// `None`.
///
/// # Panics
///
/// Panics if `capacity_frames` is zero.
#[must_use]
pub fn frame_channel(capacity_frames: usize, config: FrameConfig) -> (FrameSender, FrameReceiver) {
    let (queue, receiver) = frame_queue(0, capacity_frames, config);
    (FrameSender::new(queue, config), receiver)
}

/// The two ends of [`frame_channel`] before a sender wraps the queue: the
/// [`FrameQueue`] credit window and the [`FrameReceiver`] that drains it
/// as stream `stream`.
///
/// # Panics
///
/// Panics if `capacity_frames` is zero.
#[must_use]
pub fn frame_queue(
    stream: u32,
    capacity_frames: usize,
    config: FrameConfig,
) -> (FrameQueue, FrameReceiver) {
    assert!(
        capacity_frames > 0,
        "live channel capacity must be non-zero"
    );
    let shared = Arc::new(Shared {
        queue: ArrayQueue::new(capacity_frames),
        pool: ArrayQueue::new(capacity_frames),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
        queued: AtomicUsize::new(0),
        inflight_bits: AtomicU64::new(0),
        stats: Mutex::new(ChannelStats::default()),
    });
    let queue = FrameQueue {
        shared: Arc::clone(&shared),
    };
    let receiver = FrameReceiver {
        stream,
        frames: 0,
        decoder: FrameDecoder::new(config),
        pending: Vec::new(),
        cursor: 0,
        frame_epoch_end: false,
        drag: 0,
        shared,
    };
    (queue, receiver)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u64) -> EventRecord {
        EventRecord::alu(pc, 0, None, None, None)
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = frame_channel(0, FrameConfig::default());
    }

    #[test]
    fn framed_records_arrive_in_order_across_threads() {
        let (mut tx, mut rx) = frame_channel(
            4,
            FrameConfig {
                records_per_frame: 64,
                compress: true,
            },
        );
        let writer = thread::spawn(move || {
            for i in 0..5000 {
                tx.push(&rec(0x1000 + i * 8));
            }
        });
        let mut expected = 0x1000;
        let mut count = 0u64;
        while let Some(r) = rx.recv() {
            assert_eq!(r.pc, expected);
            expected += 8;
            count += 1;
        }
        writer.join().unwrap();
        assert_eq!(count, 5000);
        let stats = rx.stats();
        assert_eq!(stats.records, 5000);
        // 5000 records at 64/frame, plus the flush-on-drop partial frame.
        assert_eq!(stats.frames, 5000 / 64 + 1);
        assert!(stats.wire_bits >= stats.payload_bits);
        assert!(stats.high_water_bits > 0);
    }

    #[test]
    fn framed_tiny_queue_exerts_back_pressure_without_loss() {
        let (mut tx, mut rx) = frame_channel(
            1,
            FrameConfig {
                records_per_frame: 8,
                compress: true,
            },
        );
        let writer = thread::spawn(move || {
            for i in 0..500 {
                tx.push(&rec(0x1000 + i * 8));
            }
        });
        let mut count = 0;
        while rx.recv().is_some() {
            count += 1;
        }
        writer.join().unwrap();
        assert_eq!(count, 500);
    }

    #[test]
    fn framed_raw_mode_round_trips() {
        let (mut tx, mut rx) = frame_channel(
            4,
            FrameConfig {
                records_per_frame: 16,
                compress: false,
            },
        );
        let writer = thread::spawn(move || {
            for i in 0..100 {
                tx.push(&rec(0x2000 + i * 4));
            }
        });
        let mut count = 0;
        while rx.recv().is_some() {
            count += 1;
        }
        writer.join().unwrap();
        assert_eq!(count, 100);
    }

    #[test]
    fn flush_makes_partial_frames_visible() {
        let (mut tx, mut rx) = frame_channel(
            4,
            FrameConfig {
                records_per_frame: 1000,
                compress: true,
            },
        );
        tx.push(&rec(0x1000));
        tx.push(&rec(0x1008));
        assert_eq!(rx.try_recv(), None, "partial frame not visible yet");
        tx.flush();
        assert_eq!(rx.try_recv().map(|r| r.pc), Some(0x1000));
        assert_eq!(rx.try_recv().map(|r| r.pc), Some(0x1008));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn discarded_frames_leave_stats_untouched() {
        // Regression: `ship` used to account records/frames/wire bits (and
        // add in-flight occupancy) *before* the enqueue, so a frame
        // discarded because the receiver vanished inflated the statistics
        // and leaked `inflight_bits`, skewing `high_water_bits` forever.
        let (mut tx, rx) = frame_channel(
            1,
            FrameConfig {
                records_per_frame: 4,
                compress: true,
            },
        );
        // Seal one frame: it occupies the queue's only slot.
        for i in 0..4 {
            tx.push(&rec(0x1000 + i * 8));
        }
        let queued = tx.stats();
        assert_eq!(queued.frames, 1);
        assert_eq!(queued.records, 4);

        // Receiver gone mid-stream: every further sealed frame hits the
        // full queue and is discarded.
        drop(rx);
        for i in 0..40 {
            tx.push(&rec(0x2000 + i * 8));
        }
        assert_eq!(tx.stats(), queued, "discarded frames must not count");

        // The flush of a partial frame is discarded the same way — and the
        // high-water mark cannot creep from leaked in-flight bits.
        tx.push(&rec(0x3000));
        tx.flush();
        assert_eq!(tx.stats(), queued);
    }

    #[test]
    fn epoch_marks_cross_the_live_channel() {
        let (mut tx, mut rx) = frame_channel(
            8,
            FrameConfig {
                records_per_frame: 4,
                compress: true,
            },
        );
        let writer = thread::spawn(move || {
            for i in 0..20u64 {
                // Epochs of 7: boundaries after records 6 and 13; the tail
                // (14..20) ships unmarked via the flush-on-drop.
                tx.push_epoch(&rec(0x1000 + i * 8), i % 7 == 6);
            }
        });
        let mut epochs = Vec::new();
        let mut current = 0u64;
        while let Some((records, epoch_end)) = rx.recv_batch_epoch().unwrap() {
            current += records.len() as u64;
            if epoch_end {
                epochs.push(current);
                current = 0;
            }
        }
        if current > 0 {
            epochs.push(current); // the unmarked tail epoch
        }
        writer.join().unwrap();
        assert_eq!(epochs, [7, 7, 6]);
        assert_eq!(rx.stats().records, 20);
    }

    #[test]
    fn shard_channels_are_independent_streams() {
        let config = FrameConfig {
            records_per_frame: 8,
            compress: true,
        };
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| frame_channel(4, config)).unzip();
        let writers: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(shard, mut tx)| {
                thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.push(&rec(0x1000 * (shard as u64 + 1) + i * 8));
                    }
                })
            })
            .collect();
        for (shard, mut rx) in rxs.into_iter().enumerate() {
            let mut expected = 0x1000 * (shard as u64 + 1);
            let mut count = 0;
            while let Some(r) = rx.recv() {
                assert_eq!(r.pc, expected, "shard {shard} stream stays in order");
                expected += 8;
                count += 1;
            }
            assert_eq!(count, 100);
            let stats = rx.stats();
            assert_eq!(stats.records, 100);
            assert!(stats.frames >= 100 / 8);
            assert!(stats.wire_bits >= stats.payload_bits);
        }
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn receiver_drag_slows_the_drain() {
        let (mut tx, mut rx) = frame_channel(
            4,
            FrameConfig {
                records_per_frame: 4,
                compress: true,
            },
        );
        rx.set_drag(10_000);
        let writer = thread::spawn(move || {
            for i in 0..40 {
                tx.push(&rec(0x1000 + i * 8));
            }
        });
        let mut count = 0;
        while rx.recv().is_some() {
            count += 1;
        }
        writer.join().unwrap();
        assert_eq!(count, 40, "drag slows the drain but loses nothing");
    }
}
