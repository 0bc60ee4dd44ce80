//! Log transport between the application core and the lifeguard core.
//!
//! The paper transports the *compressed* log through the cache hierarchy;
//! the two cores are deliberately not synchronised and coordinate only
//! through the log buffer. Since the wire unit is a cache line, transport
//! here moves **frames** — cache-line-multiple byte buffers produced by
//! `lba_compress::FrameEncoder` — not individual records. Two producer
//! shapes move them:
//!
//! * [`ModeledFrameChannel`] — the deterministic timing model the
//!   co-simulation drives through the [`LogChannel`] trait: a real
//!   encoder/decoder pair around [`LogBufferModel`], a bounded byte-budget
//!   frame queue whose entries carry their production timestamps, giving
//!   exact back-pressure (producer stalls on full) and lag (consumer waits
//!   on empty) behaviour.
//! * [`FrameSender`] over a [`CreditWindow`] — the one producer of every
//!   real transport, the live cross-thread queue ([`live`]) and the socket
//!   wire ([`socket`]) alike. It owns the encoder, the recording tee, the
//!   statistics and the stall timeout; the window only admits frames
//!   while it has credit. Application and lifeguard genuinely run on
//!   different OS threads (or processes), and each frame is one queue or
//!   wire operation amortised over `records_per_frame` records.
//!
//! Consumption is frame-granular by default: [`LogChannel::pop_frame`]
//! (and the live [`FrameReceiver::recv_batch`](live::FrameReceiver::recv_batch))
//! lends a whole decoded frame out as one slice with a single `ready_at`
//! stamp, and the dispatch engine delivers it as a batch. The per-record
//! [`LogChannel::pop_record`] path is kept callable as the benchmark
//! baseline.
//!
//! # Examples
//!
//! ```
//! use lba_compress::FrameConfig;
//! use lba_record::EventRecord;
//! use lba_transport::{LogChannel, ModeledFrameChannel, PushOutcome};
//!
//! let mut ch = ModeledFrameChannel::new(4096, FrameConfig::default(), false);
//! let rec = EventRecord::alu(0x1000, 0, None, None, Some(1));
//! assert_eq!(ch.push_record(&rec, 100), PushOutcome::Buffered);
//! assert!(matches!(ch.flush(120), PushOutcome::Sealed { .. }));
//! let popped = ch.pop_record().expect("one record queued");
//! assert_eq!(popped.ready_at, 120); // visible when its frame shipped
//! ```

#![forbid(unsafe_code)]

mod channel;
pub mod fault;
pub mod live;
mod model;
mod sender;
pub mod sink;
pub mod socket;

pub use channel::{
    shard_of, ChannelStats, EpochRoute, EpochRouter, LoadSample, LogChannel, PoppedFrame,
    PoppedRecord, PushOutcome,
};
pub use fault::{FaultInjector, FaultProfile, FaultSink, RetrySink};
pub use model::{
    modeled_channel, BufferFullError, LogBufferModel, ModeledFrameChannel, TimedFrame,
    TransportStats,
};
pub use sender::{CreditWindow, FrameSender};
pub use sink::{
    ChannelTee, FrameSink, FrameSource, SealedFrame, SinkError, StreamSink, StreamSource, TeeSink,
    VecSink,
};
pub use socket::{socket_pair, SocketError, SocketSink, SocketSource, WireStream};
