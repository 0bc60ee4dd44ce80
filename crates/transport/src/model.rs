//! Deterministic timed log-buffer model, accounted in frames.

use std::collections::VecDeque;
use std::fmt;

use lba_compress::{Frame, FrameConfig, FrameDecoder, FrameEncoder, FRAME_LINE_BYTES};
use lba_record::EventRecord;

use crate::channel::{
    ChannelStats, LoadSample, LogChannel, PoppedFrame, PoppedRecord, PushOutcome,
};
use crate::sink::{ChannelTee, FrameSink, FrameSource, SealedFrame, SinkError};

/// A sealed log frame annotated with its production time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFrame {
    /// The frame's wire image (header + payload + padding).
    pub bytes: Vec<u8>,
    /// Records carried.
    pub records: u32,
    /// Producer-core cycle at which the frame became available.
    pub ready_at: u64,
}

impl TimedFrame {
    /// Wire bits this frame occupies in the buffer.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }
}

/// Error returned by [`LogBufferModel::try_push`] when the buffer cannot
/// accept the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferFullError {
    /// The frame that was rejected, handed back to the caller.
    pub frame: TimedFrame,
    /// Bits currently free.
    pub free_bits: u64,
}

impl fmt::Display for BufferFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "log buffer full: need {} bits, {} free",
            self.frame.wire_bits(),
            self.free_bits
        )
    }
}

impl std::error::Error for BufferFullError {}

/// Occupancy statistics for a [`LogBufferModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames pushed over the buffer's lifetime.
    pub frames: u64,
    /// Total wire bits pushed.
    pub wire_bits: u64,
    /// High-water mark of occupancy, in bits.
    pub high_water_bits: u64,
}

/// The bounded log buffer connecting the two cores, with timestamped
/// frames for exact back-pressure simulation.
///
/// Capacity is a *byte* budget: the paper sizes the buffer as a memory
/// region in the cache hierarchy. Occupancy is accounted in whole frames —
/// the transport unit is a cache-line multiple, not a record.
///
/// # Examples
///
/// ```
/// use lba_transport::{LogBufferModel, TimedFrame};
///
/// let mut buf = LogBufferModel::new(256); // 256-byte budget: four lines
/// let frame = TimedFrame { bytes: vec![0; 64], records: 10, ready_at: 100 };
/// assert!(buf.try_push(frame).is_ok());
/// let frame = buf.pop().expect("one frame queued");
/// assert_eq!(frame.ready_at, 100);
/// ```
#[derive(Debug, Clone)]
pub struct LogBufferModel {
    capacity_bits: u64,
    queue: VecDeque<TimedFrame>,
    occupied_bits: u64,
    stats: TransportStats,
}

impl LogBufferModel {
    /// Creates a buffer with a capacity of `capacity_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    #[must_use]
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "log buffer capacity must be non-zero");
        LogBufferModel {
            capacity_bits: capacity_bytes * 8,
            queue: VecDeque::new(),
            occupied_bits: 0,
            stats: TransportStats::default(),
        }
    }

    /// Capacity in bits.
    #[must_use]
    pub fn capacity_bits(&self) -> u64 {
        self.capacity_bits
    }

    /// Occupied bits.
    #[must_use]
    pub fn occupied_bits(&self) -> u64 {
        self.occupied_bits
    }

    /// Whether a frame of `bits` fits right now.
    ///
    /// Oversized frames (larger than the whole buffer) are admitted when
    /// the buffer is empty, so a single huge frame cannot wedge the
    /// pipeline.
    #[must_use]
    pub fn fits(&self, bits: u64) -> bool {
        self.occupied_bits + bits <= self.capacity_bits || self.queue.is_empty()
    }

    /// Number of queued frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Pushes a sealed frame.
    ///
    /// # Errors
    ///
    /// Returns [`BufferFullError`] (carrying the frame back) when it does
    /// not fit; the caller must drain frames and retry, charging the
    /// producer core the stall time.
    pub fn try_push(&mut self, frame: TimedFrame) -> Result<(), BufferFullError> {
        let bits = frame.wire_bits();
        if !self.fits(bits) {
            return Err(BufferFullError {
                frame,
                // Saturating: an admitted oversized frame can leave the
                // buffer over-full.
                free_bits: self.capacity_bits.saturating_sub(self.occupied_bits),
            });
        }
        self.occupied_bits += bits;
        self.stats.frames += 1;
        self.stats.wire_bits += bits;
        self.stats.high_water_bits = self.stats.high_water_bits.max(self.occupied_bits);
        self.queue.push_back(frame);
        Ok(())
    }

    /// Removes and returns the oldest frame, freeing its bits.
    pub fn pop(&mut self) -> Option<TimedFrame> {
        let frame = self.queue.pop_front()?;
        self.occupied_bits -= frame.wire_bits();
        Some(frame)
    }

    /// Peeks at the oldest frame without removing it.
    #[must_use]
    pub fn front(&self) -> Option<&TimedFrame> {
        self.queue.front()
    }
}

/// The deterministic [`LogChannel`]: a real [`FrameEncoder`] feeding a
/// [`LogBufferModel`], with frames decoded back to records on the consumer
/// side by a [`FrameDecoder`].
///
/// The co-simulation drives this channel; because the encoder and decoder
/// are the genuine codec, the modeled path exercises the same wire format
/// as the live path, and `verify` cross-checks every decoded record against
/// the pushed original (with memory bounded by the frames in flight).
///
/// # Consume modes
///
/// The paper's decompressor is a *hardware* engine on the lifeguard core —
/// its cost is part of the dispatch cycle model, not host work. The
/// default constructor ([`new`](Self::new)) nevertheless software-decodes
/// every popped frame, which is the pre-batching behaviour and the
/// throughput-benchmark baseline. [`zero_copy`](Self::zero_copy) skips the
/// redundant host decode: sealed frames carry their records alongside the
/// wire bytes, so consuming hands back the originals while the wire
/// accounting (and back-pressure timing) still comes from the genuinely
/// encoded frames. Losslessness stays enforced by `verify` mode, the live
/// channel (which always decodes for real), and the round-trip suites.
#[derive(Debug)]
pub struct ModeledFrameChannel {
    encoder: FrameEncoder,
    decoder: FrameDecoder,
    buffer: LogBufferModel,
    /// Sealed frames awaiting space, oldest first.
    parked: VecDeque<Frame>,
    /// Records of the frame currently being consumed.
    open: VecDeque<EventRecord>,
    open_ready_at: u64,
    /// Whether the open frame carried the epoch-end mark.
    open_epoch_end: bool,
    /// Wire bits of the open frame: its buffer space stays occupied until
    /// the consumer takes its last record (the dispatch engine reads the
    /// frame's lines out of the buffer as it processes them).
    open_held_bits: u64,
    /// Originals awaiting verification (only populated when `verify`).
    originals: VecDeque<EventRecord>,
    verify: bool,
    scratch: Vec<EventRecord>,
    /// Decode buffer for [`pop_frame`](LogChannel::pop_frame): frames are
    /// decoded straight into it and lent out as a slice, so the batch path
    /// never copies records through the `open` queue.
    batch: Vec<EventRecord>,
    /// Zero-copy consume mode (see the type docs).
    zero_copy: bool,
    /// Zero-copy: records of the frame currently being staged (not yet
    /// sealed by the encoder).
    staging: Vec<EventRecord>,
    /// Zero-copy: sealed frames' record batches in seal order, which is
    /// also pop order (parked frames preserve FIFO).
    ready: VecDeque<Vec<EventRecord>>,
    /// Zero-copy: spent record batches recycled to avoid per-frame allocs.
    batch_pool: Vec<Vec<EventRecord>>,
    /// Optional mirror of every sealed frame into a [`FrameSink`] (the
    /// flight recorder); see [`tee_into`](Self::tee_into).
    tee: ChannelTee,
}

impl ModeledFrameChannel {
    /// Creates a channel with a `capacity_bytes` buffer budget that
    /// software-decodes every popped frame (the benchmark-baseline mode;
    /// see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one cache-line frame
    /// ([`FRAME_LINE_BYTES`]) — callers should reject such configurations
    /// with a proper error first.
    #[must_use]
    pub fn new(capacity_bytes: u64, config: FrameConfig, verify: bool) -> Self {
        Self::build(capacity_bytes, config, verify, false)
    }

    /// Creates a channel in zero-copy consume mode: popped frames hand
    /// back the pushed records, skipping the redundant host decode while
    /// shipping the identical wire bytes (see the type docs). With
    /// `verify` set, every frame is additionally decoded with the real
    /// codec and cross-checked.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one cache-line frame.
    #[must_use]
    pub fn zero_copy(capacity_bytes: u64, config: FrameConfig, verify: bool) -> Self {
        Self::build(capacity_bytes, config, verify, true)
    }

    fn build(capacity_bytes: u64, config: FrameConfig, verify: bool, zero_copy: bool) -> Self {
        assert!(
            capacity_bytes >= FRAME_LINE_BYTES as u64,
            "log buffer of {capacity_bytes} B cannot hold a single {FRAME_LINE_BYTES} B frame"
        );
        ModeledFrameChannel {
            encoder: FrameEncoder::new(config),
            decoder: FrameDecoder::new(config),
            buffer: LogBufferModel::new(capacity_bytes),
            parked: VecDeque::new(),
            open: VecDeque::new(),
            open_ready_at: 0,
            open_epoch_end: false,
            open_held_bits: 0,
            originals: VecDeque::new(),
            verify,
            scratch: Vec::new(),
            batch: Vec::new(),
            zero_copy,
            staging: Vec::new(),
            ready: VecDeque::new(),
            batch_pool: Vec::new(),
            tee: ChannelTee::default(),
        }
    }

    /// Mirrors every subsequently sealed frame into `sink` — the
    /// flight-recorder hook. The mirror happens at the moment of sealing
    /// (before admission), so the recorded stream is the exact wire
    /// traffic in seal order, back-pressure parking included. A failing
    /// sink never disturbs the channel: the first error is latched, the
    /// sink dropped, and the error surfaces from
    /// [`take_tee`](Self::take_tee).
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

    /// The underlying buffer, for occupancy inspection.
    #[must_use]
    pub fn buffer(&self) -> &LogBufferModel {
        &self.buffer
    }

    /// Whether a frame of `wire_bits` fits, counting the open frame's
    /// still-held space. The oversized escape hatch only applies when the
    /// channel is completely drained.
    fn frame_fits(&self, wire_bits: u64) -> bool {
        self.open_held_bits + self.buffer.occupied_bits() + wire_bits <= self.buffer.capacity_bits()
            || (self.buffer.is_empty() && self.open.is_empty())
    }

    /// Cross-checks freshly decoded records against the pushed originals
    /// (only called when `verify` is set).
    fn verify_decoded(originals: &mut VecDeque<EventRecord>, decoded: &[EventRecord]) {
        for decoded in decoded {
            let original = originals
                .pop_front()
                .expect("more decoded records than were pushed");
            assert_eq!(
                *decoded, original,
                "frame round-trip mismatch: decoded {decoded:?}, pushed {original:?}"
            );
        }
    }

    /// Zero-copy bookkeeping at frame seal: the staged records become the
    /// sealed frame's batch (pop order equals seal order, parked or not).
    fn seal_staging(&mut self) {
        if !self.zero_copy {
            return;
        }
        let empty = self.batch_pool.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut self.staging, empty);
        self.ready.push_back(batch);
    }

    /// Produces the records of a just-popped frame as an owned batch:
    /// zero-copy mode hands back the pushed originals (decoding only to
    /// cross-check under `verify`); decode mode runs the real decoder.
    fn take_frame_records(&mut self, frame: &TimedFrame) -> Vec<EventRecord> {
        if self.zero_copy {
            let records = self
                .ready
                .pop_front()
                .expect("a popped frame has a staged record batch");
            assert_eq!(
                records.len(),
                frame.records as usize,
                "staged batch must match the frame's record count"
            );
            if self.verify {
                self.scratch.clear();
                self.decoder
                    .decode_frame(&frame.bytes, &mut self.scratch)
                    .unwrap_or_else(|e| panic!("modeled frame failed to decode: {e}"));
                assert_eq!(
                    self.scratch, records,
                    "frame round-trip mismatch between decoded and pushed records"
                );
            }
            records
        } else {
            let mut records = self.batch_pool.pop().unwrap_or_default();
            records.clear();
            self.decoder
                .decode_frame(&frame.bytes, &mut records)
                .unwrap_or_else(|e| panic!("modeled frame failed to decode: {e}"));
            if self.verify {
                Self::verify_decoded(&mut self.originals, &records);
            }
            records
        }
    }

    /// Returns a spent record batch to the pool for reuse.
    fn recycle(&mut self, mut batch: Vec<EventRecord>) {
        if self.batch_pool.len() < 4 {
            batch.clear();
            self.batch_pool.push(batch);
        }
    }

    /// Like [`push_record`](LogChannel::push_record), but seals the open
    /// frame immediately — with the epoch-end mark in its wire header —
    /// when `end_epoch` is set, so frames never straddle epoch boundaries
    /// (see [`EpochRouter`](crate::EpochRouter)). With `end_epoch` false
    /// this is exactly `push_record`.
    pub fn push_record_epoch(
        &mut self,
        record: &EventRecord,
        now: u64,
        end_epoch: bool,
    ) -> PushOutcome {
        if self.verify && !self.zero_copy {
            self.originals.push_back(*record);
        }
        if self.zero_copy {
            self.staging.push(*record);
        }
        match self.encoder.push_epoch(record, end_epoch) {
            Some(frame) => {
                self.seal_staging();
                self.tee.mirror(&SealedFrame {
                    bytes: &frame.bytes,
                    records: frame.records,
                    sealed_at: now,
                });
                self.admit_or_park(frame, now)
            }
            None => PushOutcome::Buffered,
        }
    }

    fn admit_or_park(&mut self, frame: Frame, now: u64) -> PushOutcome {
        let wire_bits = frame.wire_bits();
        if !self.parked.is_empty() {
            // Preserve frame order behind earlier parked frames.
            self.parked.push_back(frame);
            return PushOutcome::BackPressure { wire_bits };
        }
        if !self.frame_fits(wire_bits) {
            self.parked.push_back(frame);
            return PushOutcome::BackPressure { wire_bits };
        }
        let timed = TimedFrame {
            bytes: frame.bytes,
            records: frame.records,
            ready_at: now,
        };
        self.buffer.try_push(timed).expect("frame_fits was checked");
        PushOutcome::Sealed { wire_bits }
    }
}

impl LogChannel for ModeledFrameChannel {
    fn push_record(&mut self, record: &EventRecord, now: u64) -> PushOutcome {
        self.push_record_epoch(record, now, false)
    }

    fn flush(&mut self, now: u64) -> PushOutcome {
        match self.encoder.flush() {
            Some(frame) => {
                self.seal_staging();
                self.tee.mirror(&SealedFrame {
                    bytes: &frame.bytes,
                    records: frame.records,
                    sealed_at: now,
                });
                self.admit_or_park(frame, now)
            }
            None => PushOutcome::Buffered,
        }
    }

    fn pop_record(&mut self) -> Option<PoppedRecord> {
        loop {
            if let Some(record) = self.open.pop_front() {
                if self.open.is_empty() {
                    // Last record consumed: the frame's lines are free.
                    self.open_held_bits = 0;
                }
                return Some(PoppedRecord {
                    record,
                    ready_at: self.open_ready_at,
                });
            }
            let frame = self.buffer.pop()?;
            self.open_held_bits = frame.wire_bits();
            self.open_epoch_end = Frame::header_epoch_end(&frame.bytes);
            let records = self.take_frame_records(&frame);
            self.open.extend(records.iter().copied());
            self.recycle(records);
            self.open_ready_at = frame.ready_at;
        }
    }

    fn pop_frame(&mut self) -> Option<PoppedFrame<'_>> {
        if !self.open.is_empty() {
            // Remainder of a frame partially consumed through pop_record:
            // hand it out whole and release the frame's lines.
            self.batch.clear();
            self.batch.extend(self.open.drain(..));
            self.open_held_bits = 0;
            return Some(PoppedFrame {
                records: &self.batch,
                ready_at: self.open_ready_at,
                epoch_end: self.open_epoch_end,
            });
        }
        let frame = self.buffer.pop()?;
        // The whole frame is consumed in one step, so its lines free now —
        // the same release point the per-record path reaches when the
        // frame's last record is popped.
        let epoch_end = Frame::header_epoch_end(&frame.bytes);
        let records = self.take_frame_records(&frame);
        let spent = std::mem::replace(&mut self.batch, records);
        self.recycle(spent);
        Some(PoppedFrame {
            records: &self.batch,
            ready_at: frame.ready_at,
            epoch_end,
        })
    }

    fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    fn drained(&self) -> bool {
        self.parked.is_empty() && self.buffer.is_empty() && self.open.is_empty()
    }

    fn retry_parked(&mut self, now: u64) -> Option<u64> {
        let frame = self.parked.front()?;
        if !self.frame_fits(frame.wire_bits()) {
            return None;
        }
        let frame = self.parked.pop_front().expect("checked above");
        let wire_bits = frame.wire_bits();
        let timed = TimedFrame {
            bytes: frame.bytes,
            records: frame.records,
            ready_at: now,
        };
        self.buffer.try_push(timed).expect("fits was checked");
        Some(wire_bits)
    }

    fn stats(&self) -> ChannelStats {
        let enc = self.encoder.stats();
        ChannelStats {
            records: enc.records,
            frames: enc.frames,
            payload_bits: enc.payload_bits,
            wire_bits: enc.wire_bits,
            high_water_bits: self.buffer.stats().high_water_bits,
        }
    }

    fn load_sample(&self) -> LoadSample {
        // Parked frames count as in-flight: they are sealed wire traffic
        // the consumer has not absorbed, and the clearest overload signal
        // (occupancy reads over 1000 permille while anything is parked).
        let parked_bits: u64 = self.parked.iter().map(Frame::wire_bits).sum();
        LoadSample {
            inflight: self.open_held_bits + self.buffer.occupied_bits() + parked_bits,
            capacity: self.buffer.capacity_bits(),
        }
    }

    fn mark_degraded(&mut self, on: bool) {
        self.encoder.set_degraded(on);
    }
}

/// The consumer half as a raw frame drain: sealed wire images in seal
/// order, admitted frames first, then parked ones. A raw drain bypasses
/// the record-level bookkeeping — do not interleave with
/// [`pop_record`](LogChannel::pop_record) /
/// [`pop_frame`](LogChannel::pop_frame).
impl FrameSource for ModeledFrameChannel {
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        let bytes = if let Some(timed) = self.buffer.pop() {
            Some(timed.bytes)
        } else {
            self.parked.pop_front().map(|frame| frame.bytes)
        };
        if bytes.is_some() && self.zero_copy {
            // Keep the staged record batches aligned with the frames.
            self.ready.pop_front();
        }
        Ok(bytes)
    }
}

/// Builds one modeled channel for a producer→consumer edge of a topology:
/// zero-copy consume mode when the run dispatches whole frames (the
/// hardware decompressor's work is modeled, not re-run in host software),
/// software-decode mode for the per-record baseline. Both ship identical
/// wire bytes; `verify` decodes and cross-checks either way.
///
/// # Panics
///
/// Panics if `capacity_bytes` is smaller than one cache-line frame
/// ([`FRAME_LINE_BYTES`]) — callers should reject such configurations
/// with a proper error first.
#[must_use]
pub fn modeled_channel(
    capacity_bytes: u64,
    config: FrameConfig,
    batch_dispatch: bool,
    verify: bool,
) -> ModeledFrameChannel {
    if batch_dispatch {
        ModeledFrameChannel::zero_copy(capacity_bytes, config, verify)
    } else {
        ModeledFrameChannel::new(capacity_bytes, config, verify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(bytes: usize, ready_at: u64) -> TimedFrame {
        TimedFrame {
            bytes: vec![0; bytes],
            records: 1,
            ready_at,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut buf = LogBufferModel::new(1024);
        for i in 0..10 {
            let mut f = frame(64, i);
            f.records = i as u32;
            buf.try_push(f).unwrap();
        }
        for i in 0..10 {
            let f = buf.pop().unwrap();
            assert_eq!(f.records, i as u32);
            assert_eq!(f.ready_at, i);
        }
        assert!(buf.pop().is_none());
    }

    #[test]
    fn occupancy_tracks_wire_bits() {
        let mut buf = LogBufferModel::new(128); // two lines
        buf.try_push(frame(64, 0)).unwrap();
        assert_eq!(buf.occupied_bits(), 512);
        buf.try_push(frame(64, 1)).unwrap();
        let err = buf.try_push(frame(64, 2)).unwrap_err();
        assert_eq!(err.free_bits, 0);
        assert_eq!(err.frame.ready_at, 2, "rejected frame is handed back");
        buf.pop().unwrap();
        assert_eq!(buf.occupied_bits(), 512);
        buf.try_push(frame(64, 2)).unwrap();
    }

    #[test]
    fn oversized_frame_admitted_when_empty() {
        let mut buf = LogBufferModel::new(64);
        assert!(
            buf.try_push(frame(192, 0)).is_ok(),
            "oversized frame must not wedge"
        );
        assert!(
            buf.try_push(frame(64, 0)).is_err(),
            "but the buffer is now over-full"
        );
        buf.pop().unwrap();
        assert!(buf.try_push(frame(64, 0)).is_ok());
    }

    #[test]
    fn high_water_mark_recorded() {
        let mut buf = LogBufferModel::new(256);
        buf.try_push(frame(64, 0)).unwrap();
        buf.try_push(frame(128, 0)).unwrap();
        buf.pop().unwrap();
        assert_eq!(buf.stats().high_water_bits, 192 * 8);
        assert_eq!(buf.stats().frames, 2);
        assert_eq!(buf.stats().wire_bits, 192 * 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = LogBufferModel::new(0);
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut buf = LogBufferModel::new(256);
        buf.try_push(frame(64, 3)).unwrap();
        assert_eq!(buf.front().unwrap().ready_at, 3);
        assert_eq!(buf.len(), 1);
    }

    mod channel {
        use super::*;

        fn rec(i: u64) -> EventRecord {
            EventRecord::load(0x1000, 0, Some(1), None, 0x4000_0000 + i * 8, 8)
        }

        fn config(records_per_frame: usize) -> FrameConfig {
            FrameConfig {
                records_per_frame,
                compress: true,
            }
        }

        #[test]
        fn push_pop_round_trips_with_frame_timestamps() {
            let mut ch = ModeledFrameChannel::new(1 << 16, config(4), true);
            for i in 0..10 {
                ch.push_record(&rec(i), 100 + i);
            }
            assert!(matches!(ch.flush(200), PushOutcome::Sealed { .. }));
            let mut seen = 0u64;
            while let Some(popped) = ch.pop_record() {
                assert_eq!(popped.record, rec(seen));
                // Records 0..3 sealed when record 3 was pushed (t=103), etc.
                let expected_ready = match seen {
                    0..=3 => 103,
                    4..=7 => 107,
                    _ => 200,
                };
                assert_eq!(popped.ready_at, expected_ready, "record {seen}");
                seen += 1;
            }
            assert_eq!(seen, 10);
            let stats = ch.stats();
            assert_eq!(stats.records, 10);
            assert_eq!(stats.frames, 3);
            assert!(stats.wire_bits >= stats.payload_bits);
        }

        #[test]
        fn back_pressure_parks_and_retries_in_order() {
            // One-line budget: the second frame must park.
            let mut ch = ModeledFrameChannel::new(64, config(2), false);
            ch.push_record(&rec(0), 0);
            assert!(matches!(
                ch.push_record(&rec(1), 1),
                PushOutcome::Sealed { .. }
            ));
            ch.push_record(&rec(2), 2);
            let outcome = ch.push_record(&rec(3), 3);
            assert!(matches!(outcome, PushOutcome::BackPressure { .. }));
            assert!(ch.has_parked());
            assert!(ch.retry_parked(4).is_none(), "no space freed yet");
            // The frame's space stays occupied until its *last* record is
            // consumed, so draining one record is not enough.
            assert_eq!(ch.pop_record().unwrap().record, rec(0));
            assert!(
                ch.retry_parked(4).is_none(),
                "open frame still holds its lines"
            );
            assert_eq!(ch.pop_record().unwrap().record, rec(1));
            assert!(ch.retry_parked(4).is_some());
            assert!(!ch.has_parked());
            assert_eq!(ch.pop_record().unwrap().record, rec(2));
            assert_eq!(ch.pop_record().unwrap().record, rec(3));
            assert!(ch.pop_record().is_none());
        }

        #[test]
        fn raw_mode_round_trips() {
            let mut ch = ModeledFrameChannel::new(
                1 << 16,
                FrameConfig {
                    records_per_frame: 3,
                    compress: false,
                },
                true,
            );
            for i in 0..7 {
                ch.push_record(&rec(i), i);
            }
            ch.flush(7);
            let mut n = 0;
            while ch.pop_record().is_some() {
                n += 1;
            }
            assert_eq!(n, 7);
        }

        #[test]
        #[should_panic(expected = "cannot hold a single")]
        fn sub_line_budget_rejected() {
            let _ = ModeledFrameChannel::new(1, config(4), false);
        }

        #[test]
        fn epoch_marks_survive_the_modeled_channel() {
            // Boundary after records 2 and 6; frames of 3 records, so the
            // epoch seals cut frames early and the marks must pop back out.
            for zero_copy in [false, true] {
                let mut ch = if zero_copy {
                    ModeledFrameChannel::zero_copy(1 << 16, config(3), true)
                } else {
                    ModeledFrameChannel::new(1 << 16, config(3), true)
                };
                for i in 0..10 {
                    let end = i == 2 || i == 6;
                    ch.push_record_epoch(&rec(i), i, end);
                }
                ch.flush(20);
                let mut marks = Vec::new();
                let mut total = 0;
                while let Some(frame) = ch.pop_frame() {
                    total += frame.records.len();
                    marks.push(frame.epoch_end);
                }
                assert_eq!(total, 10);
                // Frames: [0,1,2]*, [3,4,5], [6]*, [7,8,9] (capacity seal,
                // unmarked).
                assert_eq!(marks, [true, false, true, false]);
            }
        }
    }
}
