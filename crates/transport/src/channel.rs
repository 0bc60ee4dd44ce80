//! The `LogChannel` abstraction: one transport contract for both
//! execution models.
//!
//! The paper's log transport is a stream of compressed cache-line-multiple
//! frames flowing from the capture engine to the dispatch engine. This
//! trait captures that contract at record granularity for the
//! single-threaded co-simulation — push on the producer side, pop on the
//! consumer side, statistics in wire bytes — and
//! [`ModeledFrameChannel`](crate::ModeledFrameChannel) implements it with
//! timestamped frames queued against a byte budget, giving exact
//! back-pressure and lag accounting. Real transports, where producer and
//! consumer run on different threads, ship through a
//! [`FrameSender`](crate::FrameSender) instead.
//!
//! # Back-pressure protocol
//!
//! [`push_record`](LogChannel::push_record) returning
//! [`PushOutcome::BackPressure`] means a sealed frame did not fit and is
//! *parked*. The producer must free space — pop records via
//! [`pop_record`](LogChannel::pop_record) — and call
//! [`retry_parked`](LogChannel::retry_parked) until it succeeds.

use lba_record::{EventKind, EventRecord};

/// The shard owning `record` under address-interleaved routing, or `None`
/// for records every shard must see.
///
/// Load/store records belong to the shard owning their 64-byte cache line
/// (`(addr / 64) % shards`), and a capture-side `Repeat` fold summary
/// routes with the line-local accesses it summarizes; every other kind
/// (alloc/free, lock/unlock, syscalls, …) is broadcast because it updates
/// state all shards need. Both the modeled (`RunMode::LbaParallel`) and
/// live (`RunMode::LiveParallel`) sharded modes route with this function,
/// so their per-shard record streams — and therefore their per-shard wire
/// streams — are identical.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(record: &EventRecord, shards: usize) -> Option<usize> {
    assert!(shards > 0, "need at least one shard");
    match record.kind {
        EventKind::Load | EventKind::Store | EventKind::Repeat => {
            Some(((record.addr / 64) % shards as u64) as usize)
        }
        _ => None,
    }
}

/// Where one record goes under epoch routing: its worker, its epoch
/// number, and whether it is the epoch's last record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRoute {
    /// Worker index in `0..workers` (epochs go round-robin).
    pub worker: usize,
    /// Global epoch number, starting at zero.
    pub epoch: u64,
    /// Whether this record closes its epoch — the producer must seal the
    /// worker's frame with the epoch-end mark so the boundary survives the
    /// wire (`FrameEncoder::push_epoch`).
    pub end_epoch: bool,
}

/// Routes a sequential record stream to epoch workers — the
/// order-sensitive counterpart of [`shard_of`].
///
/// Where address-interleaved sharding splits by *address* (sound only for
/// lifeguards whose state is address-local), epoch routing splits by
/// *time*: the stream is cut into contiguous epochs at every syscall —
/// the natural containment point, where the log is flushed anyway — and
/// additionally every `epoch_records` records, so long syscall-free
/// stretches still parallelise. Whole epochs go to workers round-robin
/// (`epoch % workers`), so each worker sees complete epochs in increasing
/// epoch order and a merge thread can stitch summaries back in global
/// order by polling workers round-robin.
///
/// # Examples
///
/// ```
/// use lba_record::{EventKind, EventRecord};
/// use lba_transport::EpochRouter;
///
/// let mut router = EpochRouter::new(2, 4);
/// let rec = EventRecord::alu(0x1000, 0, None, None, None);
/// let route = router.route(&rec);
/// assert_eq!((route.worker, route.epoch), (0, 0));
/// assert!(!route.end_epoch);
/// let mut sys = rec;
/// sys.kind = EventKind::Syscall;
/// assert!(router.route(&sys).end_epoch, "syscalls close epochs");
/// assert_eq!(router.route(&rec).worker, 1, "next epoch, next worker");
/// ```
#[derive(Debug, Clone)]
pub struct EpochRouter {
    workers: usize,
    epoch_records: usize,
    epoch: u64,
    in_epoch: usize,
}

impl EpochRouter {
    /// Creates a router fanning epochs over `workers` workers, closing an
    /// epoch at every syscall and after every `epoch_records` records.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `epoch_records` is zero.
    #[must_use]
    pub fn new(workers: usize, epoch_records: usize) -> Self {
        assert!(workers > 0, "need at least one epoch worker");
        assert!(epoch_records > 0, "epochs must hold at least one record");
        EpochRouter {
            workers,
            epoch_records,
            epoch: 0,
            in_epoch: 0,
        }
    }

    /// Routes the next record of the sequential stream.
    pub fn route(&mut self, record: &EventRecord) -> EpochRoute {
        self.in_epoch += 1;
        let end_epoch = record.kind == EventKind::Syscall || self.in_epoch >= self.epoch_records;
        let route = EpochRoute {
            worker: (self.epoch % self.workers as u64) as usize,
            epoch: self.epoch,
            end_epoch,
        };
        if end_epoch {
            self.epoch += 1;
            self.in_epoch = 0;
        }
        route
    }

    /// Total epochs the routed stream decomposes into so far, the open
    /// tail epoch (if any) included.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epoch + u64::from(self.in_epoch > 0)
    }

    /// Whether the current epoch has routed records but no closing mark
    /// yet — the stream tail, which ships via a plain (unmarked) flush.
    #[must_use]
    pub fn open(&self) -> bool {
        self.in_epoch > 0
    }
}

/// A cheap producer-side snapshot of transport occupancy — the load
/// signal the adaptive capture controller steers by.
///
/// Units are transport-specific: bits for the modeled byte-budget buffer,
/// queue slots for the live frame queue. Only the *ratio* matters, which
/// is what [`occupancy_permille`](Self::occupancy_permille) exposes; the
/// controller's hysteresis thresholds are expressed in permille so they
/// apply uniformly to both transports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSample {
    /// Occupied transport units currently in flight toward the consumer
    /// (parked frames included — they are the clearest overload signal).
    pub inflight: u64,
    /// The transport's capacity in the same units.
    pub capacity: u64,
}

impl LoadSample {
    /// Occupancy as a permille ratio (0 = empty, 1000 = full). Exceeds
    /// 1000 when parked frames or an oversized admission leave the
    /// transport over-committed.
    #[must_use]
    pub fn occupancy_permille(&self) -> u32 {
        if self.capacity == 0 {
            return 0;
        }
        let ratio = u128::from(self.inflight) * 1000 / u128::from(self.capacity);
        u32::try_from(ratio).unwrap_or(u32::MAX)
    }
}

/// Aggregate statistics for one channel, in the units the paper cares
/// about: records, frames, and bytes on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Records carried by sealed frames.
    pub records: u64,
    /// Frames sealed and shipped.
    pub frames: u64,
    /// Compressed (or raw) payload bits, before framing.
    pub payload_bits: u64,
    /// Bits on the wire: payload plus frame headers and line padding.
    pub wire_bits: u64,
    /// High-water mark of in-flight wire bits (how full the buffer got).
    pub high_water_bits: u64,
}

impl ChannelStats {
    /// Average wire bytes per record, framing overhead included.
    #[must_use]
    pub fn wire_bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.wire_bits as f64 / 8.0 / self.records as f64
        }
    }
}

/// A record handed to the consumer, with the producer-clock cycle at which
/// its frame was shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoppedRecord {
    /// The event record.
    pub record: EventRecord,
    /// Producer-core cycle at which the record's frame became visible.
    pub ready_at: u64,
}

/// A frame's worth of decoded records handed to the consumer in one call,
/// borrowed from the channel's decode buffer — the batch counterpart of
/// [`PoppedRecord`].
///
/// All records in a frame became visible at the same instant (the frame
/// ships as a unit), so one `ready_at` stamp covers the whole slice. The
/// borrow ends before the next channel call, which is exactly the dispatch
/// engine's consumption pattern: take a frame, deliver it, come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoppedFrame<'a> {
    /// The frame's records, in capture order.
    pub records: &'a [EventRecord],
    /// Producer-core cycle at which the frame became visible.
    pub ready_at: u64,
    /// Whether this frame carries the epoch-end mark in its wire header —
    /// sealed by `FrameEncoder::push_epoch` at an epoch boundary. Always
    /// `false` on streams produced without epoch routing.
    pub epoch_end: bool,
}

/// Result of a producer-side push or flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The record joined the open partial frame; nothing shipped.
    Buffered,
    /// The record sealed a frame that was admitted to the transport.
    Sealed {
        /// Wire bits shipped (header and padding included).
        wire_bits: u64,
    },
    /// The record sealed a frame that does not fit: it is parked and the
    /// producer is stalled until space frees (see the module docs).
    BackPressure {
        /// Wire bits of the parked frame.
        wire_bits: u64,
    },
}

/// The framed log transport contract (see the module docs).
pub trait LogChannel {
    /// Pushes one captured record. `now` is the producer-core cycle used to
    /// timestamp the frame this record ends up in.
    fn push_record(&mut self, record: &EventRecord, now: u64) -> PushOutcome;

    /// Seals the open partial frame so every pushed record becomes visible
    /// to the consumer — called at syscalls (containment) and end of
    /// program.
    fn flush(&mut self, now: u64) -> PushOutcome;

    /// Pops the next record on the consumer side. `None` means no record is
    /// currently available.
    ///
    /// This is the record-granular legacy path, kept callable as the
    /// benchmark baseline; batch consumers use
    /// [`pop_frame`](LogChannel::pop_frame).
    fn pop_record(&mut self) -> Option<PoppedRecord>;

    /// Pops everything left of the oldest available frame as one slice with
    /// a single `ready_at` stamp, consuming the frame whole (its buffer
    /// space frees immediately). `None` means exactly what it means for
    /// [`pop_record`](LogChannel::pop_record): nothing available right now.
    ///
    /// Mixing granularities is allowed: after `k` `pop_record` calls into a
    /// frame of `n` records, `pop_frame` yields the remaining `n - k`.
    fn pop_frame(&mut self) -> Option<PoppedFrame<'_>>;

    /// Whether a sealed frame is parked awaiting space.
    fn has_parked(&self) -> bool;

    /// Attempts to admit the oldest parked frame, timestamped `now`;
    /// returns its wire bits on success.
    fn retry_parked(&mut self, now: u64) -> Option<u64>;

    /// Lifetime statistics over sealed frames.
    fn stats(&self) -> ChannelStats;

    /// Whether nothing remains for the consumer — no queued, parked, or
    /// partially-consumed frame. Drain loops use this to tell a transient
    /// pop refusal (fault injection modeling a stalled consumer) from a
    /// truly empty channel, so injected stalls can never truncate an
    /// end-of-run drain. The default `true` matches channels that resolve
    /// availability by blocking instead of refusing.
    fn drained(&self) -> bool {
        true
    }

    /// A cheap occupancy snapshot for the adaptive capture controller.
    /// Channels that cannot measure load return the default (empty)
    /// sample, which reads as zero occupancy — the controller never
    /// engages on them.
    fn load_sample(&self) -> LoadSample {
        LoadSample::default()
    }

    /// Sets or clears the degraded-capture mark carried by subsequently
    /// sealed frames (`FrameEncoder::set_degraded`), so degraded spans
    /// survive the flight recorder and replay. Callers flush before
    /// toggling, keeping the mark frame-accurate. Channels without a real
    /// encoder ignore the call.
    fn mark_degraded(&mut self, on: bool) {
        let _ = on;
    }
}
