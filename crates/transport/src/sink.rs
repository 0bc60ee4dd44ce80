//! The sink/source seam: where sealed frames *go* and where frames *come
//! from*, as first-class traits.
//!
//! Both execution models move sealed compressed frames — the modeled
//! channel through its timed buffer, the live channel through a lock-free
//! queue. [`FrameSink`] and [`FrameSource`] name those two directions so
//! that new backends (an on-disk flight recorder today, a socket tomorrow)
//! plug in without touching the capture or dispatch paths:
//!
//! * [`StreamSink`] / [`StreamSource`] adapt `lba_record`'s segmented
//!   `lbas/1` stream writer/reader to the seam, making any run durable.
//! * [`TeeSink`] fans one sealed frame out to two sinks, which is how a
//!   run *mirrors* its wire traffic into a recording while the normal
//!   in-memory transport keeps flowing — the tee costs one `memcpy`-free
//!   borrow per sealed frame plus whatever the secondary sink does.
//! * The producers themselves participate: both `ModeledFrameChannel` and
//!   the `FrameSender` of every real transport accept a tee sink
//!   ([`ModeledFrameChannel::tee_into`](crate::ModeledFrameChannel::tee_into),
//!   [`FrameSender::tee_into`](crate::FrameSender::tee_into)) and mirror
//!   every frame at the moment it seals.
//!
//! Sink failures (disk full, permissions) must not take down the
//! monitored application: the channels latch the *first* sink error, stop
//! mirroring, and surface the error when the tee is taken back — the
//! run's own transport is never disturbed.

use lba_record::{SegmentReader, SegmentWriter, StreamSummary};

/// A sealed compressed frame, borrowed at the moment of sealing.
#[derive(Debug, Clone, Copy)]
pub struct SealedFrame<'a> {
    /// The frame's complete wire image (header, payload, line padding).
    pub bytes: &'a [u8],
    /// Records the frame carries.
    pub records: u32,
    /// Producer-core cycle at which the frame sealed; 0 on transports
    /// with no modeled clock (the live channel).
    pub sealed_at: u64,
}

impl SealedFrame<'_> {
    /// Wire bits the frame occupies on the transport.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }
}

/// Errors a sink or source can report. Boxed so backends with different
/// failure domains (filesystem, sockets) share the seam.
pub type SinkError = Box<dyn std::error::Error + Send + Sync>;

/// Where sealed frames go.
pub trait FrameSink {
    /// Accepts one sealed frame.
    ///
    /// # Errors
    ///
    /// Backend-specific; a failing sink is broken and will not be offered
    /// further frames by the channels' tee machinery.
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError>;

    /// Flushes and closes the sink cleanly. Called through the trait
    /// object so owners of a `Box<dyn FrameSink>` can finish without
    /// knowing the concrete type.
    ///
    /// # Errors
    ///
    /// Backend-specific.
    fn finish_sink(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

/// Where sealed frames come from.
pub trait FrameSource {
    /// The next sealed frame's wire image, or `Ok(None)` at the clean end
    /// of the source.
    ///
    /// # Errors
    ///
    /// Backend-specific (e.g. a truncated or corrupt recording).
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError>;
}

/// The tee slot a channel embeds: an optional mirror sink plus a
/// first-error latch. Sink failures must never disturb the channel's own
/// transport, so [`mirror`](ChannelTee::mirror) swallows the error, stops
/// mirroring, and hands the error back when the tee is
/// [taken](ChannelTee::take).
#[derive(Default)]
pub struct ChannelTee {
    sink: Option<Box<dyn FrameSink + Send>>,
    error: Option<SinkError>,
}

impl std::fmt::Debug for ChannelTee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTee")
            .field("active", &self.sink.is_some())
            .field("errored", &self.error.is_some())
            .finish()
    }
}

impl ChannelTee {
    /// Installs (or replaces) the mirror sink and clears any latched error.
    pub fn install(&mut self, sink: Box<dyn FrameSink + Send>) {
        self.sink = Some(sink);
        self.error = None;
    }

    /// Offers one sealed frame to the mirror sink, latching the first
    /// error and dropping the sink on failure.
    pub fn mirror(&mut self, frame: &SealedFrame<'_>) {
        if let Some(sink) = self.sink.as_mut() {
            if let Err(e) = sink.put_frame(frame) {
                self.error = Some(e);
                self.sink = None;
            }
        }
    }

    /// Takes the sink back (to finish it), or reports the first mirror
    /// error if one was latched.
    ///
    /// # Errors
    ///
    /// The first error a [`mirror`](ChannelTee::mirror) call swallowed.
    pub fn take(&mut self) -> Result<Option<Box<dyn FrameSink + Send>>, SinkError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(self.sink.take())
    }

    /// Whether a sink is installed and healthy.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }
}

/// Fans each sealed frame out to two sinks — the adapter that lets any
/// run mode mirror its wire traffic into a recording.
#[derive(Debug)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A: FrameSink, B: FrameSink> TeeSink<A, B> {
    /// Builds a tee over two sinks.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// Takes the two sinks back.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: FrameSink, B: FrameSink> FrameSink for TeeSink<A, B> {
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError> {
        self.first.put_frame(frame)?;
        self.second.put_frame(frame)
    }

    fn finish_sink(&mut self) -> Result<(), SinkError> {
        let first = self.first.finish_sink();
        let second = self.second.finish_sink();
        first?;
        second
    }
}

/// [`FrameSink`] over a segmented `lbas/1` stream: every sealed frame
/// becomes a durable stream record; [`finish_sink`](FrameSink::finish_sink)
/// closes the stream with its End record and captures the
/// [`StreamSummary`].
#[derive(Debug)]
pub struct StreamSink {
    writer: Option<SegmentWriter>,
    summary: Option<StreamSummary>,
}

impl StreamSink {
    /// Wraps a segment writer as a frame sink.
    #[must_use]
    pub fn new(writer: SegmentWriter) -> Self {
        StreamSink {
            writer: Some(writer),
            summary: None,
        }
    }

    /// The stream summary, available after a successful
    /// [`finish_sink`](FrameSink::finish_sink).
    #[must_use]
    pub fn summary(&self) -> Option<StreamSummary> {
        self.summary
    }
}

impl FrameSink for StreamSink {
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError> {
        let writer = self.writer.as_mut().ok_or("stream sink already finished")?;
        writer
            .append(frame.sealed_at, frame.records, frame.bytes)
            .map_err(SinkError::from)
    }

    fn finish_sink(&mut self) -> Result<(), SinkError> {
        if let Some(writer) = self.writer.take() {
            self.summary = Some(writer.finish()?);
        }
        Ok(())
    }
}

/// [`FrameSource`] over a recorded `lbas/1` stream, yielding the sealed
/// frame images in their original seal order.
#[derive(Debug)]
pub struct StreamSource {
    reader: SegmentReader,
}

impl StreamSource {
    /// Wraps a segment reader as a frame source.
    #[must_use]
    pub fn new(reader: SegmentReader) -> Self {
        StreamSource { reader }
    }

    /// The codec version the recorded frames were sealed under.
    #[must_use]
    pub fn codec_version(&self) -> u32 {
        self.reader.codec_version()
    }
}

impl FrameSource for StreamSource {
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        match self.reader.next_frame() {
            Ok(frame) => Ok(frame.map(|f| f.bytes)),
            Err(e) => Err(SinkError::from(e)),
        }
    }
}

/// A sink that keeps every frame in memory — handy for tests and for
/// fan-out experiments where the secondary consumer is in-process.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The mirrored frames as `(sealed_at, records, wire image)`.
    pub frames: Vec<(u64, u32, Vec<u8>)>,
    /// Whether `finish_sink` ran.
    pub finished: bool,
}

impl FrameSink for VecSink {
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError> {
        self.frames
            .push((frame.sealed_at, frame.records, frame.bytes.to_vec()));
        Ok(())
    }

    fn finish_sink(&mut self) -> Result<(), SinkError> {
        self.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba_record::StreamConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lba-sink-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn image(records: u32) -> Vec<u8> {
        let mut bytes = vec![0u8; 64];
        bytes[0..4].copy_from_slice(&records.to_le_bytes());
        bytes
    }

    #[test]
    fn tee_fans_out_to_both_sinks_and_finishes_both() {
        let mut tee = TeeSink::new(VecSink::default(), VecSink::default());
        let img = image(3);
        let frame = SealedFrame {
            bytes: &img,
            records: 3,
            sealed_at: 42,
        };
        tee.put_frame(&frame).unwrap();
        tee.finish_sink().unwrap();
        let (a, b) = tee.into_inner();
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.frames, vec![(42, 3, img)]);
        assert!(a.finished && b.finished);
    }

    #[test]
    fn stream_sink_round_trips_through_stream_source() {
        let dir = temp_dir("roundtrip");
        let writer = SegmentWriter::create(&dir, 0, 7, StreamConfig::default()).unwrap();
        let mut sink = StreamSink::new(writer);
        let images: Vec<Vec<u8>> = (1..=4u32).map(image).collect();
        for (i, img) in images.iter().enumerate() {
            sink.put_frame(&SealedFrame {
                bytes: img,
                records: i as u32 + 1,
                sealed_at: i as u64 * 10,
            })
            .unwrap();
        }
        sink.finish_sink().unwrap();
        assert_eq!(sink.summary().unwrap().frames, 4);
        // Finishing twice is fine; appending after a finish is an error.
        sink.finish_sink().unwrap();
        assert!(sink
            .put_frame(&SealedFrame {
                bytes: &images[0],
                records: 1,
                sealed_at: 0
            })
            .is_err());

        let reader = SegmentReader::open(&dir, 0).unwrap();
        let mut source = StreamSource::new(reader);
        assert_eq!(source.codec_version(), 7);
        for img in &images {
            assert_eq!(source.next_frame_bytes().unwrap().as_ref(), Some(img));
        }
        assert!(source.next_frame_bytes().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
