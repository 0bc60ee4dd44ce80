//! Socket transport: sealed frames over a Unix-domain (TCP-ready) wire.
//!
//! The in-process transports ship frames between threads; this module
//! ships them between *processes* (and, by construction, between hosts):
//! the production topology where one monitored application fans frame
//! streams out to a pool of lifeguard workers. It plugs into the existing
//! [`FrameSink`]/[`FrameSource`] seam, so everything upstream of the wire
//! (encoder, capture controller, flight-recorder tee) and everything
//! downstream (decoder, dispatch, lifeguards) is unchanged.
//!
//! # Wire protocol
//!
//! A connection is one frame stream, framed exactly like the durable
//! `lbas/1` segment format (`lba_record::stream`) so torn wires and torn
//! recordings corrupt — and salvage — identically:
//!
//! ```text
//! hello (24 B): b"lbas/1\n\0" | codec version u32 | stream id u32 |
//!               credit window u32 | reserved u32        (producer→consumer)
//! frame record: 0x01 | seal timestamp u64 | record count u32 |
//!               payload length u32 | FNV-1a checksum u32 | payload
//! end record:   0x02 | total frame count u64
//! credit:       one 0x06 byte per drained frame         (consumer→producer)
//! ```
//!
//! All integers are little-endian. The wire is a plain byte stream over
//! any full-duplex socket — the [`WireStream`] trait is implemented for
//! both [`UnixStream`] and [`std::net::TcpStream`], so moving a worker to
//! another host is a connect call, not a protocol change.
//!
//! # Credit window: `buffer_bytes` semantics survive the wire
//!
//! The in-process channels bound in-flight frames by queue capacity, which
//! is how `LogConfig::buffer_bytes` back-pressure reaches the producer. A
//! kernel socket buffer would hide that bound, so the wire carries an
//! explicit **credit window**: the producer may have at most `window`
//! un-acknowledged frames outstanding; the consumer returns one credit per
//! frame it drains; a producer out of credits parks, exactly like a push
//! against a full queue. [`SocketSink::load_sample`] reports
//! outstanding-frames/window, so [`crate::LoadSample`]-driven adaptive
//! degradation keeps working end-to-end across the socket. The sink is a
//! [`CreditWindow`], so a [`FrameSender`](crate::FrameSender) drives it
//! exactly like the live channel's queue: a consumer that stops returning
//! credits trips the sender's stall timeout
//! ([`FrameSender::stalled`](crate::FrameSender::stalled)) instead of
//! parking forever.
//!
//! # Examples
//!
//! ```
//! use lba_compress::FrameConfig;
//! use lba_record::EventRecord;
//! use lba_transport::socket::socket_pair;
//! use lba_transport::{FrameSender, FrameSource};
//!
//! let (sink, mut source) = socket_pair(0, 8).unwrap();
//! let mut tx = FrameSender::new(sink, FrameConfig::default());
//! for i in 0..100 {
//!     tx.push(&EventRecord::alu(0x1000 + i * 8, 0, None, None, None));
//! }
//! let stats = tx.finish().unwrap();
//! let mut frames = 0;
//! while let Some(_bytes) = source.next_frame_bytes().unwrap() {
//!     frames += 1;
//! }
//! assert_eq!(stats.frames, frames);
//! assert_eq!(source.stats().records, 100);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use lba_compress::Frame;
use lba_record::payload_checksum;

use crate::channel::{ChannelStats, LoadSample};
use crate::sender::{park, CreditWindow, Park};
use crate::sink::{FrameSink, FrameSource, SealedFrame, SinkError};

/// The 8-byte stream identifier opening every connection — the same ident
/// the durable segment format uses, so `head -c8` tells you what is
/// talking on either wire.
const IDENT: [u8; 8] = *b"lbas/1\n\0";

/// Size of the connection hello (ident + codec version + stream id +
/// credit window + reserved word).
pub const SOCKET_HELLO_BYTES: usize = 24;

/// Record tags, shared with the segment format.
const TAG_FRAME: u8 = 0x01;
const TAG_END: u8 = 0x02;
/// The credit byte the consumer returns per drained frame (ASCII ACK).
const CREDIT: u8 = 0x06;

/// Fixed part of a frame record (tag + timestamp + record count + payload
/// length + checksum).
const FRAME_HEADER_BYTES: usize = 1 + 8 + 4 + 4 + 4;

/// How long a credit wait blocks per read before re-checking the stall
/// clock — the socket analogue of the live channel's spin-then-yield.
const CREDIT_POLL: Duration = Duration::from_millis(5);

/// A full-duplex byte stream the socket transport can run over.
///
/// Implemented for [`UnixStream`] (the in-machine deployment) and
/// [`std::net::TcpStream`] (the multi-host one) — both expose the same
/// read-timeout and non-blocking controls, which the credit protocol
/// needs. Nothing in the transport names a socket family beyond this
/// trait, which is what makes the protocol TCP-ready by construction.
pub trait WireStream: Read + Write + Send {
    /// Bounds how long a blocking read may wait; `None` restores blocking.
    ///
    /// # Errors
    ///
    /// The underlying socket option call's error.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Switches the stream between blocking and non-blocking reads.
    ///
    /// # Errors
    ///
    /// The underlying socket option call's error.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// A human-readable name for the peer, used in error messages.
    fn endpoint(&self) -> String;
}

impl WireStream for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
    fn endpoint(&self) -> String {
        match self.peer_addr() {
            Ok(addr) => match addr.as_pathname() {
                Some(path) => format!("uds:{}", path.display()),
                None => "uds:<unnamed>".to_string(),
            },
            Err(_) => "uds:<disconnected>".to_string(),
        }
    }
}

impl WireStream for std::net::TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        std::net::TcpStream::set_nonblocking(self, nonblocking)
    }
    fn endpoint(&self) -> String {
        match self.peer_addr() {
            Ok(addr) => format!("tcp:{addr}"),
            Err(_) => "tcp:<disconnected>".to_string(),
        }
    }
}

/// Everything that can go wrong on the socket wire. Every variant names
/// the endpoint involved and, where it matters, how many frames made it
/// across first — the same descriptive discipline as
/// [`lba_record::StreamError`].
#[derive(Debug)]
pub enum SocketError {
    /// An underlying socket operation failed.
    Io {
        /// Peer the operation addressed.
        endpoint: String,
        /// The OS error.
        source: io::Error,
    },
    /// The connection does not open with the `lbas/` identifier.
    NotAStream {
        /// Offending peer.
        endpoint: String,
    },
    /// The peer speaks an `lbas/` protocol version this side does not
    /// understand.
    UnknownVersion {
        /// Offending peer.
        endpoint: String,
        /// The version string found after `lbas/`.
        version: String,
    },
    /// The connection tore mid-record — the peer died or the wire dropped
    /// before the stream's End record.
    Torn {
        /// Peer whose stream tore.
        endpoint: String,
        /// Complete frames received before the tear (the salvageable
        /// prefix — the credit protocol guarantees these were whole).
        frames: u64,
    },
    /// The wire's bytes are internally inconsistent (bad tag, checksum
    /// mismatch, End-count disagreement).
    Corrupt {
        /// Offending peer.
        endpoint: String,
        /// Frame index at which the inconsistency was found.
        frame: u64,
        /// What exactly disagreed.
        detail: String,
    },
    /// The consumer stopped returning credits: the producer waited out
    /// the stall timeout with the window exhausted.
    Stalled {
        /// Peer that stopped draining.
        endpoint: String,
        /// The timeout that elapsed.
        timeout: Duration,
    },
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketError::Io { endpoint, source } => {
                write!(f, "socket I/O error on {endpoint}: {source}")
            }
            SocketError::NotAStream { endpoint } => {
                write!(
                    f,
                    "{endpoint} did not open with the lbas/ identifier: not an LBA frame stream"
                )
            }
            SocketError::UnknownVersion { endpoint, version } => {
                write!(
                    f,
                    "{endpoint} speaks lbas/{version}; this side understands lbas/1"
                )
            }
            SocketError::Torn { endpoint, frames } => {
                write!(
                    f,
                    "connection to {endpoint} tore mid-stream after {frames} complete \
                     frame(s), before the End record (peer died or wire dropped)"
                )
            }
            SocketError::Corrupt {
                endpoint,
                frame,
                detail,
            } => {
                write!(
                    f,
                    "stream from {endpoint} is corrupt at frame {frame}: {detail}"
                )
            }
            SocketError::Stalled { endpoint, timeout } => {
                write!(
                    f,
                    "consumer {endpoint} returned no credit for {timeout:?} with the \
                     window exhausted: lifeguard worker stalled"
                )
            }
        }
    }
}

impl std::error::Error for SocketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SocketError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SocketError {
    fn io(endpoint: &str, source: io::Error) -> Self {
        SocketError::Io {
            endpoint: endpoint.to_string(),
            source,
        }
    }
}

/// Producer half of the socket transport: ships sealed frames over the
/// wire under the credit window. It is the socket [`CreditWindow`] under a
/// [`FrameSender`](crate::FrameSender), and a [`FrameSink`] of its own whose
/// [`put_frame`](FrameSink::put_frame) parks on credit through the same
/// code.
pub struct SocketSink<W: WireStream = UnixStream> {
    stream: W,
    endpoint: String,
    /// Maximum un-acknowledged frames in flight.
    window: u32,
    /// Frames shipped and credits received over the connection's life.
    sent: u64,
    acked: u64,
    /// Wire bits of each outstanding frame, oldest first — credits are
    /// FIFO, so popping the front converts a credit back into bits.
    outstanding_bits: VecDeque<u64>,
    inflight_bits: u64,
    /// Latched when the peer disappears (EOF on the credit channel or a
    /// broken-pipe write).
    consumer_gone: bool,
    finished: bool,
}

impl<W: WireStream> SocketSink<W> {
    /// Opens the producer side over `stream`: writes the connection hello
    /// (stream id, codec version, credit window) and returns the sink.
    ///
    /// `window` is the credit window in frames — derive it from the same
    /// budget as the live channel's queue capacity
    /// (`LogConfig::live_channel_frames`) and `buffer_bytes` back-pressure
    /// semantics survive the wire.
    ///
    /// # Errors
    ///
    /// [`SocketError::Io`] when the hello cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a zero window could never ship.
    pub fn connect(
        stream: W,
        stream_id: u32,
        codec_version: u32,
        window: u32,
    ) -> Result<Self, SocketError> {
        assert!(window > 0, "socket credit window must be non-zero");
        let endpoint = stream.endpoint();
        let mut sink = SocketSink {
            stream,
            endpoint,
            window,
            sent: 0,
            acked: 0,
            outstanding_bits: VecDeque::new(),
            inflight_bits: 0,
            consumer_gone: false,
            finished: false,
        };
        let mut hello = [0u8; SOCKET_HELLO_BYTES];
        hello[0..8].copy_from_slice(&IDENT);
        hello[8..12].copy_from_slice(&codec_version.to_le_bytes());
        hello[12..16].copy_from_slice(&stream_id.to_le_bytes());
        hello[16..20].copy_from_slice(&window.to_le_bytes());
        sink.write_wire(&hello)?;
        Ok(sink)
    }

    /// The producer-visible transport load: un-acknowledged frames against
    /// the credit window — the socket analogue of queued-frames/capacity,
    /// which is what keeps [`crate::LoadSample`]-driven adaptive
    /// degradation working across the wire.
    #[must_use]
    pub fn load_sample(&self) -> LoadSample {
        LoadSample {
            inflight: self.sent - self.acked,
            capacity: u64::from(self.window),
        }
    }

    /// The peer's name, as used in this sink's error messages.
    #[must_use]
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    fn torn(&self) -> SocketError {
        SocketError::Torn {
            endpoint: self.endpoint.clone(),
            frames: self.sent,
        }
    }

    fn write_wire(&mut self, bytes: &[u8]) -> Result<(), SocketError> {
        match self.stream.write_all(bytes) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.consumer_gone = true;
                Err(self.torn())
            }
            Err(e) => Err(SocketError::io(&self.endpoint, e)),
        }
    }

    /// Consumes one credit per byte read.
    fn absorb_credits(&mut self, credits: &[u8]) {
        for &b in credits {
            debug_assert_eq!(b, CREDIT, "unexpected byte on the credit channel");
            self.acked += 1;
            if let Some(bits) = self.outstanding_bits.pop_front() {
                self.inflight_bits -= bits;
            }
        }
    }

    /// Drains any credits already on the wire without blocking, keeping
    /// the occupancy sample fresh — every credit check calls this, and a
    /// run loop may call it between ships so
    /// [`load_sample`](Self::load_sample) tracks the consumer's drain.
    ///
    /// # Errors
    ///
    /// [`SocketError::Io`] when the credit channel breaks.
    pub fn poll_credits(&mut self) -> Result<(), SocketError> {
        self.stream
            .set_nonblocking(true)
            .map_err(|e| SocketError::io(&self.endpoint, e))?;
        let mut buf = [0u8; 64];
        let outcome = loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.consumer_gone = true;
                    break Ok(());
                }
                Ok(n) => self.absorb_credits(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) => break Err(SocketError::io(&self.endpoint, e)),
            }
        };
        self.stream
            .set_nonblocking(false)
            .map_err(|e| SocketError::io(&self.endpoint, e))?;
        outcome
    }

    /// Writes one frame record; the caller holds a credit for it.
    fn write_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SocketError> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[0] = TAG_FRAME;
        header[1..9].copy_from_slice(&frame.sealed_at.to_le_bytes());
        header[9..13].copy_from_slice(&frame.records.to_le_bytes());
        #[allow(clippy::cast_possible_truncation)]
        header[13..17].copy_from_slice(&(frame.bytes.len() as u32).to_le_bytes());
        header[17..21].copy_from_slice(&payload_checksum(frame.bytes).to_le_bytes());
        self.write_wire(&header)?;
        self.write_wire(frame.bytes)?;
        let wire_bits = frame.wire_bits();
        self.sent += 1;
        self.outstanding_bits.push_back(wire_bits);
        self.inflight_bits += wire_bits;
        Ok(())
    }
}

impl<W: WireStream> CreditWindow for SocketSink<W> {
    fn try_credit(&mut self) -> Result<bool, SinkError> {
        self.poll_credits()?;
        if self.consumer_gone {
            return Err(self.torn().into());
        }
        Ok(self.sent - self.acked < u64::from(self.window))
    }

    /// Blocks on the credit channel for one short read timeout.
    fn wait(&mut self, _attempt: u32) -> Result<(), SinkError> {
        let mut buf = [0u8; 64];
        let read = self
            .stream
            .set_read_timeout(Some(CREDIT_POLL))
            .and_then(|()| self.stream.read(&mut buf));
        let reset = self.stream.set_read_timeout(None);
        match read {
            Ok(0) => self.consumer_gone = true,
            Ok(n) => self.absorb_credits(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(SocketError::io(&self.endpoint, e).into()),
        }
        reset.map_err(|e| SocketError::io(&self.endpoint, e).into())
    }

    fn consumer_gone(&self) -> bool {
        self.consumer_gone
    }

    fn admit(&mut self, frame: Frame) -> Result<u64, SinkError> {
        self.write_frame(&SealedFrame {
            bytes: &frame.bytes,
            records: frame.records,
            sealed_at: 0,
        })?;
        Ok(self.inflight_bits)
    }

    fn load_sample(&self) -> LoadSample {
        SocketSink::load_sample(self)
    }

    fn finish(&mut self, _stats: &ChannelStats) -> Result<(), SinkError> {
        self.finish_sink()
    }
}

impl<W: WireStream> FrameSink for SocketSink<W> {
    /// Ships one sealed frame, parking without bound while the window is
    /// full (a [`FrameSender`](crate::FrameSender) bounds the park with its
    /// stall timeout).
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError> {
        if self.consumer_gone || self.finished {
            // The first tear already surfaced as an error.
            return Ok(());
        }
        if park(self, None)? == Park::Admit {
            self.write_frame(frame)?;
        }
        Ok(())
    }

    /// Writes the End record and flushes the wire. The connection stays
    /// open for late credits; dropping the sink closes it.
    fn finish_sink(&mut self) -> Result<(), SinkError> {
        if self.finished || self.consumer_gone {
            return Ok(());
        }
        let mut end = [0u8; 9];
        end[0] = TAG_END;
        end[1..9].copy_from_slice(&self.sent.to_le_bytes());
        self.write_wire(&end)?;
        self.stream
            .flush()
            .map_err(|e| SocketError::io(&self.endpoint, e))?;
        self.finished = true;
        Ok(())
    }
}

/// Consumer half of the socket transport: validates the hello, drains
/// frame records, and returns one credit per frame — a [`FrameSource`]
/// that a decoder/dispatch/lifeguard stack drives exactly like a replayed
/// recording.
#[derive(Debug)]
pub struct SocketSource<W: WireStream = UnixStream> {
    stream: W,
    endpoint: String,
    codec_version: u32,
    stream_id: u32,
    window: u32,
    /// Complete frames drained so far.
    frames: u64,
    stats: ChannelStats,
    finished: bool,
    /// `SalvagePrefix` analogue: when set, a torn wire ends the stream
    /// cleanly after its last complete frame instead of erroring, and the
    /// tear is reported via [`torn_tail`](Self::torn_tail).
    salvage: bool,
    torn_tail: Option<SocketError>,
}

impl<W: WireStream> SocketSource<W> {
    /// Opens the consumer side over `stream`: reads and validates the
    /// connection hello.
    ///
    /// # Errors
    ///
    /// [`SocketError::NotAStream`] when the peer does not open with the
    /// `lbas/` identifier, [`SocketError::UnknownVersion`] for a protocol
    /// version this side does not speak, [`SocketError::Io`] when the
    /// hello cannot be read.
    pub fn accept(stream: W) -> Result<Self, SocketError> {
        let endpoint = stream.endpoint();
        let mut source = SocketSource {
            stream,
            endpoint,
            codec_version: 0,
            stream_id: 0,
            window: 0,
            frames: 0,
            stats: ChannelStats::default(),
            finished: false,
            salvage: false,
            torn_tail: None,
        };
        let mut hello = [0u8; SOCKET_HELLO_BYTES];
        source.read_wire(&mut hello)?;
        if hello[0..5] != IDENT[0..5] {
            return Err(SocketError::NotAStream {
                endpoint: source.endpoint,
            });
        }
        let version_end = hello[5..8]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(8, |p| 5 + p);
        let version = String::from_utf8_lossy(&hello[5..version_end]).into_owned();
        if version != "1" {
            return Err(SocketError::UnknownVersion {
                endpoint: source.endpoint,
                version,
            });
        }
        source.codec_version = u32::from_le_bytes(hello[8..12].try_into().expect("4 bytes"));
        source.stream_id = u32::from_le_bytes(hello[12..16].try_into().expect("4 bytes"));
        source.window = u32::from_le_bytes(hello[16..20].try_into().expect("4 bytes"));
        Ok(source)
    }

    /// The codec version the producer announced in the hello — check it
    /// against the running decoder's, as replay does.
    #[must_use]
    pub fn codec_version(&self) -> u32 {
        self.codec_version
    }

    /// The stream id the producer announced (the shard index in the
    /// remote-workers topology).
    #[must_use]
    pub fn stream_id(&self) -> u32 {
        self.stream_id
    }

    /// The credit window the producer announced.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Consumer-side statistics over drained frames.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Salvage mode: a torn wire ends the stream after its last complete
    /// frame instead of erroring — the socket analogue of replay's
    /// `SalvagePrefix`. The credit protocol guarantees every frame served
    /// before the tear arrived whole (length + checksum verified), so the
    /// prefix is sound. The tear itself is kept in
    /// [`torn_tail`](Self::torn_tail).
    pub fn set_salvage(&mut self, on: bool) {
        self.salvage = on;
    }

    /// The tear a salvaged stream ended on, if any.
    #[must_use]
    pub fn torn_tail(&self) -> Option<&SocketError> {
        self.torn_tail.as_ref()
    }

    /// The peer's name, as used in this source's error messages.
    #[must_use]
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    fn read_wire(&mut self, buf: &mut [u8]) -> Result<(), SocketError> {
        match self.stream.read_exact(buf) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(SocketError::Torn {
                endpoint: self.endpoint.clone(),
                frames: self.frames,
            }),
            Err(e) => Err(SocketError::io(&self.endpoint, e)),
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> SocketError {
        SocketError::Corrupt {
            endpoint: self.endpoint.clone(),
            frame: self.frames,
            detail: detail.into(),
        }
    }

    fn next_wire_frame(&mut self) -> Result<Option<Vec<u8>>, SocketError> {
        if self.finished {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        self.read_wire(&mut tag)?;
        match tag[0] {
            TAG_FRAME => {
                let mut header = [0u8; FRAME_HEADER_BYTES - 1];
                self.read_wire(&mut header)?;
                let records = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
                let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
                let sum = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
                let mut payload = vec![0u8; len];
                self.read_wire(&mut payload)?;
                if payload_checksum(&payload) != sum {
                    return Err(self.corrupt("frame payload checksum mismatch"));
                }
                self.frames += 1;
                self.stats.records += u64::from(records);
                self.stats.frames += 1;
                self.stats.wire_bits += payload.len() as u64 * 8;
                // Return the credit *after* the frame is whole: a credit
                // promises the producer this slot of the window is truly
                // free, which is what makes the salvaged prefix sound.
                if let Err(e) = self.stream.write_all(&[CREDIT]) {
                    // A producer that already left does not need credits.
                    if e.kind() != io::ErrorKind::BrokenPipe {
                        return Err(SocketError::io(&self.endpoint, e));
                    }
                }
                Ok(Some(payload))
            }
            TAG_END => {
                let mut count = [0u8; 8];
                self.read_wire(&mut count)?;
                let count = u64::from_le_bytes(count);
                if count != self.frames {
                    return Err(self.corrupt(format!(
                        "End record says {count} frames, wire carried {}",
                        self.frames
                    )));
                }
                self.finished = true;
                Ok(None)
            }
            other => Err(self.corrupt(format!("unknown record tag {other:#04x}"))),
        }
    }
}

impl<W: WireStream> FrameSource for SocketSource<W> {
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        match self.next_wire_frame() {
            Ok(frame) => Ok(frame),
            Err(err @ SocketError::Torn { .. }) if self.salvage => {
                self.finished = true;
                self.torn_tail = Some(err);
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// A connected producer/consumer pair over an anonymous Unix-domain
/// socket pair — the in-machine deployment, and the shape every remote
/// worker uses (a listener-accepted stream drops into the same types).
///
/// `stream_id` names the shard; `window` is the credit window in frames.
/// The codec version announced is `lba_compress::CODEC_VERSION`.
///
/// # Errors
///
/// [`SocketError::Io`] when the socket pair cannot be created, plus any
/// hello exchange error.
pub fn socket_pair(
    stream_id: u32,
    window: u32,
) -> Result<(SocketSink<UnixStream>, SocketSource<UnixStream>), SocketError> {
    let (a, b) = UnixStream::pair().map_err(|e| SocketError::io("uds:<socketpair>", e))?;
    let sink = SocketSink::connect(a, stream_id, lba_compress::CODEC_VERSION, window)?;
    let source = SocketSource::accept(b)?;
    Ok((sink, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameSender;
    use lba_compress::{FrameConfig, FrameDecoder, FrameEncoder, CODEC_VERSION};
    use lba_record::EventRecord;
    use std::thread;
    use std::time::Instant;

    fn record(i: u64) -> EventRecord {
        EventRecord::load(0x1000 + i * 8, 0, None, Some(1), 0x10_0000 + i * 8, 8)
    }

    #[test]
    fn frames_round_trip_bit_identically_over_the_wire() {
        let config = FrameConfig::default();
        let (sink, mut source) = socket_pair(3, 8).unwrap();
        assert_eq!(source.stream_id(), 3);
        assert_eq!(source.codec_version(), CODEC_VERSION);
        assert_eq!(source.window(), 8);

        let mut tx = FrameSender::new(sink, config);
        let mut reference = FrameEncoder::new(config);
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for i in 0..1000 {
            tx.push(&record(i));
            if let Some(frame) = reference.push(&record(i)) {
                expected.push(frame.bytes);
            }
        }
        let consumer = thread::spawn(move || {
            let mut frames = Vec::new();
            while let Some(bytes) = source.next_frame_bytes().unwrap() {
                frames.push(bytes);
            }
            (frames, source.stats())
        });
        let stats = tx.finish().unwrap();
        if let Some(frame) = reference.flush() {
            expected.push(frame.bytes);
        }
        let (frames, rx_stats) = consumer.join().unwrap();
        assert_eq!(frames, expected, "socket wire must be byte-identical");
        assert_eq!(stats.records, 1000);
        assert_eq!(rx_stats.records, 1000);
        assert_eq!(stats.wire_bits, rx_stats.wire_bits);
        assert_eq!(stats.frames, frames.len() as u64);

        // And the frames decode back to the records.
        let mut decoder = FrameDecoder::new(config);
        let mut records = Vec::new();
        for bytes in &frames {
            decoder.decode_frame(bytes, &mut records).unwrap();
        }
        assert_eq!(records.len(), 1000);
        assert_eq!(records[7], record(7));
    }

    #[test]
    fn consumer_disconnect_is_a_descriptive_error_not_a_hang() {
        let config = FrameConfig {
            records_per_frame: 4,
            ..FrameConfig::default()
        };
        let (sink, source) = socket_pair(0, 2).unwrap();
        let mut tx = FrameSender::new(sink, config);
        drop(source); // worker dies mid-run
        let start = Instant::now();
        for i in 0..64 {
            tx.push(&record(i));
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a dead consumer must not hang the producer"
        );
        let err = tx.finish().unwrap_err();
        let err = err.downcast::<SocketError>().expect("a socket error");
        assert!(matches!(*err, SocketError::Torn { .. }), "got: {err}");
        let msg = err.to_string();
        assert!(msg.contains("tore mid-stream"), "got: {msg}");
    }

    #[test]
    fn torn_wire_surfaces_descriptively_and_salvages_the_complete_prefix() {
        let config = FrameConfig {
            records_per_frame: 4,
            ..FrameConfig::default()
        };
        // Strict: the consumer reports the tear with the salvageable count.
        let (sink, mut source) = socket_pair(0, 16).unwrap();
        let mut tx = FrameSender::new(sink, config);
        for i in 0..12 {
            tx.push(&record(i)); // 3 complete frames
        }
        // Tear the wire mid-frame: a frame header with no payload behind it.
        let mut half = [0u8; FRAME_HEADER_BYTES];
        half[0] = TAG_FRAME;
        half[13..17].copy_from_slice(&512u32.to_le_bytes());
        tx.window.write_wire(&half).unwrap();
        drop(tx); // producer dies without the End record
        for _ in 0..3 {
            assert!(source.next_frame_bytes().unwrap().is_some());
        }
        let err = source.next_frame_bytes().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("after 3 complete frame(s)"),
            "tear must name the salvageable prefix: {msg}"
        );

        // Salvage: the same tear ends the stream cleanly after the prefix.
        let (sink, mut source) = socket_pair(0, 16).unwrap();
        source.set_salvage(true);
        let mut tx = FrameSender::new(sink, config);
        for i in 0..12 {
            tx.push(&record(i));
        }
        let mut half = [0u8; FRAME_HEADER_BYTES];
        half[0] = TAG_FRAME;
        half[13..17].copy_from_slice(&512u32.to_le_bytes());
        tx.window.write_wire(&half).unwrap();
        drop(tx);
        let mut salvaged = 0;
        while let Some(_bytes) = source.next_frame_bytes().unwrap() {
            salvaged += 1;
        }
        assert_eq!(salvaged, 3, "every complete frame salvages");
        let tail = source.torn_tail().expect("tear recorded");
        assert!(matches!(tail, SocketError::Torn { frames: 3, .. }));
    }

    #[test]
    fn corrupt_payload_and_end_count_are_descriptive_errors() {
        // Flip a payload byte on the wire by speaking the protocol by hand.
        let (mut a, b) = UnixStream::pair().unwrap();
        let consumer = thread::spawn(move || {
            let mut source = SocketSource::accept(b).unwrap();
            source.next_frame_bytes().unwrap_err().to_string()
        });
        let mut hello = [0u8; SOCKET_HELLO_BYTES];
        hello[0..8].copy_from_slice(&IDENT);
        hello[8..12].copy_from_slice(&CODEC_VERSION.to_le_bytes());
        hello[16..20].copy_from_slice(&4u32.to_le_bytes());
        a.write_all(&hello).unwrap();
        let payload = vec![0xABu8; 64];
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[0] = TAG_FRAME;
        header[9..13].copy_from_slice(&1u32.to_le_bytes());
        header[13..17].copy_from_slice(&64u32.to_le_bytes());
        header[17..21].copy_from_slice(&(payload_checksum(&payload) ^ 1).to_le_bytes());
        a.write_all(&header).unwrap();
        a.write_all(&payload).unwrap();
        let msg = consumer.join().unwrap();
        assert!(msg.contains("checksum mismatch"), "got: {msg}");

        // An End record whose count disagrees with the wire.
        let (mut a, b) = UnixStream::pair().unwrap();
        let consumer = thread::spawn(move || {
            let mut source = SocketSource::accept(b).unwrap();
            source.next_frame_bytes().unwrap_err().to_string()
        });
        a.write_all(&hello).unwrap();
        let mut end = [0u8; 9];
        end[0] = TAG_END;
        end[1..9].copy_from_slice(&7u64.to_le_bytes());
        a.write_all(&end).unwrap();
        let msg = consumer.join().unwrap();
        assert!(msg.contains("End record says 7"), "got: {msg}");
    }

    #[test]
    fn bad_hello_is_told_apart_from_a_future_version() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"GET / HTTP/1.1\r\nHost: no\r\n").unwrap();
        let err = SocketSource::accept(b).unwrap_err();
        assert!(matches!(err, SocketError::NotAStream { .. }), "got: {err}");

        let (mut a, b) = UnixStream::pair().unwrap();
        let mut hello = [0u8; SOCKET_HELLO_BYTES];
        hello[0..8].copy_from_slice(b"lbas/9\n\0");
        a.write_all(&hello).unwrap();
        let err = SocketSource::accept(b).unwrap_err();
        assert!(
            matches!(&err, SocketError::UnknownVersion { version, .. } if version == "9"),
            "got: {err}"
        );
        assert!(err.to_string().contains("lbas/9"));
    }

    #[test]
    fn credits_refresh_the_load_sample_as_the_consumer_drains() {
        let config = FrameConfig {
            records_per_frame: 4,
            ..FrameConfig::default()
        };
        let (sink, mut source) = socket_pair(0, 4).unwrap();
        let mut tx = FrameSender::new(sink, config);
        for i in 0..8 {
            tx.push(&record(i)); // 2 frames, window 4
        }
        assert_eq!(tx.load_sample().inflight, 2);
        for _ in 0..2 {
            source.next_frame_bytes().unwrap().unwrap();
        }
        // The credits are on the wire; the next push's poll absorbs them.
        for i in 8..12 {
            tx.push(&record(i));
        }
        // Give the poll a beat: credits travel a real socket.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut inflight = tx.load_sample().inflight;
        while inflight > 1 && Instant::now() < deadline {
            thread::yield_now();
            tx.window.poll_credits().unwrap();
            inflight = tx.load_sample().inflight;
        }
        assert!(
            inflight <= 2,
            "returned credits must lower the occupancy sample: {inflight}"
        );
    }
}
