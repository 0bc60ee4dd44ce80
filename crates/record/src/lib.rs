//! The LBA event-record format, per §2 of the paper.
//!
//! As each application instruction retires, the capture hardware creates an
//! event record containing the instruction's **(a)** program counter,
//! **(b)** type, **(c)** input and output operand identifiers, and **(d)**
//! load/store memory address if present. This crate defines that record
//! ([`EventRecord`]), the event vocabulary ([`EventKind`]), subscription
//! masks used by the dispatch hardware ([`EventMask`]), and running trace
//! statistics ([`TraceStats`]).
//!
//! # Examples
//!
//! ```
//! use lba_record::{EventKind, EventRecord, TraceStats};
//!
//! let rec = EventRecord::load(0x1000, 0, Some(1), Some(2), 0x4000_0000, 4);
//! assert!(rec.is_memory());
//!
//! let mut stats = TraceStats::new();
//! stats.observe(&rec);
//! assert_eq!(stats.count(EventKind::Load), 1);
//! ```

#![forbid(unsafe_code)]

mod event;
mod mask;
mod stats;
mod stream;
mod trace;

pub use event::{DecodeRecordError, EventKind, EventRecord, RAW_RECORD_BYTES};
pub use mask::EventMask;
pub use stats::TraceStats;
pub use stream::{
    payload_checksum, segment_file_name, stream_ids, SegmentReader, SegmentWriter, StreamConfig,
    StreamError, StreamFrame, StreamSummary, SEGMENT_HEADER_BYTES, STREAM_FORMAT,
};
pub use trace::{TraceError, TraceReader, TraceWriter};
