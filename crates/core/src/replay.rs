//! Offline replay: drive any lifeguard over a recorded flight-recorder
//! stream set.
//!
//! A run with [`LogConfig::record_to`](crate::LogConfig) set leaves a
//! directory of segmented `lbas/1` streams behind — the exact sealed wire
//! frames its transport shipped, one stream per shard. [`run_replay_with`]
//! opens that directory, validates the headers, re-decodes every frame
//! through the real [`FrameDecoder`], and delivers the records to a fresh
//! lifeguard per stream: yesterday's traffic, today's (possibly
//! *different*) analysis — the paper's retroactive-monitoring story, and
//! the shape Jahier & Ducassé's one-trace-many-analyses monitor takes.
//! In pipeline terms the recorded streams stand in for the producer, one
//! consumer per stream ([`TopologyKind::Replay`](crate::TopologyKind)).
//!
//! Fidelity contract: the recorded frames are the sealed wire images, so
//! the replay's per-stream wire-bit totals equal the recording run's
//! transport accounting bit for bit, and the findings equal the original
//! run's (merged across streams exactly as the sharded modes merge
//! theirs). Integration tests pin both for all four run modes.
//!
//! Replay decodes with the codec parameters in the caller's
//! [`SystemConfig`] — use the same `compression` / `records_per_frame`
//! settings the recording run used. A stream sealed under a different
//! codec *version* is refused up front ([`ReplayError::CodecMismatch`]);
//! damaged or truncated recordings surface as descriptive
//! [`ReplayError::Stream`] errors, never panics.

use std::fmt;
use std::path::Path;

use lba_cache::MemSystem;
use lba_compress::{Frame, FrameDecodeError, FrameDecoder, CODEC_VERSION};
use lba_lifeguard::{DispatchEngine, Lifeguard};
use lba_record::{stream_ids, EventRecord, SegmentReader, StreamError};

use crate::config::{SystemConfig, LG_CORE};
use crate::parallel::merge_shard_findings;
use crate::report::{ReplayReport, ReplayStreamStats, SalvagedTail};
use crate::runner::RunMode;

/// Everything that can go wrong replaying a recording.
#[derive(Debug)]
pub enum ReplayError {
    /// The stream layer reported a problem (missing/truncated/corrupt
    /// segments, unknown format version, I/O).
    Stream(StreamError),
    /// The recording directory holds no streams at all.
    NoStreams {
        /// The directory inspected.
        dir: String,
    },
    /// The recording was sealed under a different codec version than this
    /// build decodes — replaying would produce garbage, so it is refused.
    CodecMismatch {
        /// The stream with the mismatched codec.
        stream: u32,
        /// Codec version stamped in the recording.
        recorded: u32,
        /// Codec version of the running build.
        running: u32,
    },
    /// A recorded frame failed to decode (wrong `compression` /
    /// `records_per_frame` settings for this recording, or a codec bug).
    Decode {
        /// The stream the frame belongs to.
        stream: u32,
        /// Zero-based index of the frame within its stream.
        frame: u64,
        /// The decoder's error.
        source: FrameDecodeError,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Stream(e) => write!(f, "{e}"),
            ReplayError::NoStreams { dir } => {
                write!(f, "no recorded streams in {dir}")
            }
            ReplayError::CodecMismatch {
                stream,
                recorded,
                running,
            } => write!(
                f,
                "stream {stream} was recorded under codec version {recorded}, \
                 but this build decodes version {running}"
            ),
            ReplayError::Decode {
                stream,
                frame,
                source,
            } => write!(
                f,
                "frame {frame} of stream {stream} failed to decode \
                 (were the recording's compression settings used?): {source}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Stream(e) => Some(e),
            ReplayError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StreamError> for ReplayError {
    fn from(e: StreamError) -> Self {
        ReplayError::Stream(e)
    }
}

/// How a replay treats a damaged recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplayMode {
    /// Any stream damage is fatal: the replay fails with a descriptive
    /// [`ReplayError`] and delivers nothing. The default for
    /// [`RunMode::Replay`](crate::RunMode::Replay).
    #[default]
    Strict,
    /// A torn or truncated *tail* is survivable: the checksummed prefix
    /// of each damaged stream is replayed in full, the tear point is
    /// reported as a [`SalvagedTail`], and the replay completes with
    /// whatever the recording still proves. Damage that precedes any
    /// frame — an unopenable stream, a codec-version mismatch — stays
    /// fatal: there is no trustworthy prefix to salvage.
    SalvagePrefix,
}

/// Replays every stream recorded in `dir` through a fresh lifeguard per
/// stream, returning the merged findings and per-stream wire accounting.
///
/// `make_lifeguard` builds one lifeguard instance per recorded stream —
/// it does **not** have to be the lifeguard that ran live; any lifeguard
/// whose event subscriptions are satisfied by the recorded stream works
/// (recordings are unfiltered full streams unless the original run
/// filtered at capture). For a sharded recording the per-stream findings
/// are merged exactly as the sharded run modes merge theirs.
///
/// Replay is functional, not timed: records are delivered frame-at-a-time
/// at maximum speed, with no transport model in the loop.
///
/// # Errors
///
/// See [`ReplayError`]: stream-layer damage, a codec-version mismatch,
/// or a frame that fails to decode. Under [`ReplayMode::SalvagePrefix`]
/// a mid-stream tear is *not* an error: the damaged stream's checksummed
/// prefix is delivered and the loss is reported in
/// [`ReplayReport::salvaged`]. Errors that precede any frame
/// (unopenable stream, codec mismatch, no streams at all) and decode
/// failures of *intact* frames remain fatal in both modes.
pub(crate) fn run_replay_with(
    dir: impl AsRef<Path>,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard>,
    config: &SystemConfig,
    mode: ReplayMode,
) -> Result<ReplayReport, ReplayError> {
    let dir = dir.as_ref();
    let ids = stream_ids(dir)?;
    if ids.is_empty() {
        return Err(ReplayError::NoStreams {
            dir: dir.display().to_string(),
        });
    }

    let mut codec_version = CODEC_VERSION;
    let mut shard_findings = Vec::with_capacity(ids.len());
    let mut streams = Vec::with_capacity(ids.len());
    let mut salvaged: Vec<SalvagedTail> = Vec::new();
    for &stream in &ids {
        let mut reader = SegmentReader::open(dir, stream)?;
        if reader.codec_version() != CODEC_VERSION {
            return Err(ReplayError::CodecMismatch {
                stream,
                recorded: reader.codec_version(),
                running: CODEC_VERSION,
            });
        }
        codec_version = reader.codec_version();

        // Each stream was sealed by its own encoder (shards never share
        // predictor state), so each gets a fresh decoder — and its frames
        // must be decoded in seal order, which the reader guarantees.
        let mut decoder = FrameDecoder::new(config.log.frame_config());
        let mut lifeguard = make_lifeguard();
        let engine = DispatchEngine::new(config.dispatch);
        let mut mem = MemSystem::new(config.mem_dual());
        let mut findings = Vec::new();
        let mut batch: Vec<EventRecord> = Vec::new();
        let mut stats = ReplayStreamStats {
            stream,
            frames: 0,
            records: 0,
            wire_bits: 0,
            degraded_frames: 0,
        };
        loop {
            let frame = match reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // Mid-stream damage: everything before this point
                    // passed its segment checksums. Strict mode refuses
                    // the whole replay; salvage mode keeps the proven
                    // prefix and reports exactly where the tail was lost.
                    if mode == ReplayMode::Strict {
                        return Err(e.into());
                    }
                    salvaged.push(SalvagedTail {
                        stream,
                        frames_salvaged: stats.frames,
                        detail: e.to_string(),
                    });
                    break;
                }
            };
            batch.clear();
            decoder
                .decode_frame(&frame.bytes, &mut batch)
                .map_err(|source| ReplayError::Decode {
                    stream,
                    frame: stats.frames,
                    source,
                })?;
            engine.deliver_batch(lifeguard.as_mut(), &batch, &mut mem, LG_CORE, &mut findings);
            stats.frames += 1;
            stats.records += batch.len() as u64;
            stats.wire_bits += frame.wire_bits();
            // The degraded mark rides the recorded wire image, so replay
            // can report which spans the original run captured degraded.
            if Frame::header_degraded(&frame.bytes) {
                stats.degraded_frames += 1;
            }
        }
        engine.finish(lifeguard.as_mut(), &mut mem, LG_CORE, &mut findings);
        shard_findings.push(findings);
        streams.push(stats);
    }

    // A single-stream recording reproduces the unsharded modes' findings
    // verbatim; a sharded one merges like the sharded modes do.
    let findings = if shard_findings.len() == 1 {
        shard_findings.pop().expect("one stream")
    } else {
        merge_shard_findings(shard_findings)
    };
    Ok(ReplayReport::new(
        dir,
        codec_version,
        RunMode::Replay,
        streams,
        salvaged,
        findings,
    ))
}
