//! Execution reports, in three shapes chosen by what a mode measures.
//!
//! * [`PipelineReport`] — the core every mode produces: program, mode,
//!   retired-instruction trace, findings, log accounting, one
//!   [`ChannelStats`] per channel (shard, worker, or the single channel),
//!   the epoch count, and the capture and degradation ledgers. The live
//!   modes (`Live`, `LiveParallel`, `Remote`, `LiveEpochParallel`)
//!   measure nothing beyond it and return it as is.
//! * [`RunReport`] — the modeled clocks (`Lba`, `LbaParallel`,
//!   `EpochParallel` and the `Unmonitored`/`Dbi` baselines): end-to-end,
//!   application, per-lifeguard-core and stitch cycles plus the stall
//!   breakdown, around the core.
//! * [`ReplayReport`] — what an offline replay read: the recording
//!   directory, codec version, per-stream accounting and salvaged tails,
//!   around the core.
//!
//! The two wrapping shapes deref to the core, so `report.findings`,
//! `report.log` and `report.channels` read the same way in all three.

use std::fmt;

use lba_isa::Program;
use lba_lifeguard::{CaptureStats, DegradationStats, Finding};
use lba_record::TraceStats;
use lba_transport::ChannelStats;

use crate::pipeline::ProducerFinish;
use crate::runner::RunMode;

/// Where the application core lost time to monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles stalled because the log buffer was full (back-pressure).
    pub buffer_full_cycles: u64,
    /// Cycles stalled at syscalls waiting for the lifeguard to drain the
    /// log (the containment policy).
    pub syscall_stall_cycles: u64,
    /// Number of syscalls that stalled.
    pub syscalls: u64,
}

/// Log-pipeline statistics for an LBA run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogStats {
    /// Records that entered the log (after the capture pass — what the
    /// transport actually shipped, fold summaries included).
    pub records: u64,
    /// Records observed at capture, before any filtering. `captured =
    /// records + filtered + deduped − folded`.
    pub captured: u64,
    /// Records dropped by the capture-side address filter.
    pub filtered: u64,
    /// Duplicate records suppressed by the capture-side idempotency
    /// window (zero when `LogConfig::idempotency_window` is 0 or the
    /// lifeguard's contract is `IdempotencyClass::None`).
    pub deduped: u64,
    /// `Repeat` summary records synthesized for fold-class lifeguards
    /// (already counted in `records`).
    pub folded: u64,
    /// Transport frames shipped (cache-line-multiple wire units).
    pub frames: u64,
    /// Total payload bits written (compressed, or raw when compression is
    /// off).
    pub compressed_bits: u64,
    /// Total bits on the wire: payload plus frame headers and line padding.
    pub wire_bits: u64,
    /// Average payload bytes per retired instruction — the paper's
    /// < 1 B/instruction claim.
    pub bytes_per_instruction: f64,
    /// Average *wire* bytes per retired instruction, framing overhead
    /// included — what the cache hierarchy actually carries.
    pub wire_bytes_per_instruction: f64,
}

impl LogStats {
    /// The accounting of a run's channels: their shipped-record, frame and
    /// bit counters summed (broadcast records count once per receiving
    /// channel), joined with the producer-side capture ledger and
    /// normalised per retired instruction.
    #[must_use]
    pub fn from_channels(stats: &[ChannelStats], capture: CaptureStats, instructions: u64) -> Self {
        let instructions = instructions.max(1);
        let mut sum = ChannelStats::default();
        for s in stats {
            sum.records += s.records;
            sum.frames += s.frames;
            sum.payload_bits += s.payload_bits;
            sum.wire_bits += s.wire_bits;
        }
        LogStats {
            records: sum.records,
            captured: capture.captured,
            filtered: capture.range_filtered,
            deduped: capture.deduped,
            folded: capture.folded,
            frames: sum.frames,
            compressed_bits: sum.payload_bits,
            wire_bits: sum.wire_bits,
            bytes_per_instruction: sum.payload_bits as f64 / 8.0 / instructions as f64,
            wire_bytes_per_instruction: sum.wire_bits as f64 / 8.0 / instructions as f64,
        }
    }
}

/// The core every run produces: which program ran under which mode, what
/// the pipeline shipped and over which channels, what capture did to it,
/// how it degraded, and what the lifeguard(s) found.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Program name (empty for the replay modes: a recording does not
    /// name the program that produced it).
    pub program: String,
    /// The execution model that produced the report.
    pub mode: RunMode,
    /// Retired-instruction statistics (empty for the replay modes, which
    /// run no program).
    pub trace: TraceStats,
    /// Problems the lifeguard(s) reported (merged and deduplicated in the
    /// fan-out modes).
    pub findings: Vec<Finding>,
    /// Log-pipeline statistics, summed over [`channels`](Self::channels).
    pub log: LogStats,
    /// Per-channel transport statistics, in shard or worker order: one
    /// entry for `Lba`/`Live`, one per shard or worker in the fan-out
    /// modes, none for the unmonitored, DBI and replay modes (a replay's
    /// per-stream accounting is [`ReplayReport::streams`]).
    pub channels: Vec<ChannelStats>,
    /// Epochs the stream decomposed into and the merge stitched (0
    /// outside the epoch modes).
    pub epochs: u64,
    /// What the producer-side capture pass did (records captured vs.
    /// shipped, range-filtered, deduped, folded).
    pub capture: CaptureStats,
    /// What the adaptive capture controller did (empty when
    /// `LogConfig::adaptive` is unset, the lifeguard's policy tolerates
    /// nothing, or the mode never runs a controller).
    pub degradation: DegradationStats,
}

impl PipelineReport {
    /// The core of a run that shipped its log over `channels`: the
    /// producer's trace and ledgers, with `log` summed over the channels.
    pub(crate) fn shipped(
        program: &Program,
        mode: RunMode,
        finish: ProducerFinish,
        findings: Vec<Finding>,
        channels: Vec<ChannelStats>,
    ) -> Self {
        PipelineReport {
            program: program.name().to_string(),
            mode,
            log: LogStats::from_channels(&channels, finish.capture, finish.trace.instructions()),
            trace: finish.trace,
            findings,
            channels,
            epochs: 0,
            capture: finish.capture,
            degradation: finish.degradation,
        }
    }

    /// The core of a run that shipped no log (the unmonitored and DBI
    /// baselines).
    pub(crate) fn unlogged(
        program: &Program,
        mode: RunMode,
        trace: TraceStats,
        findings: Vec<Finding>,
    ) -> Self {
        PipelineReport {
            program: program.name().to_string(),
            mode,
            trace,
            findings,
            log: LogStats::default(),
            channels: Vec::new(),
            epochs: 0,
            capture: CaptureStats::default(),
            degradation: DegradationStats::default(),
        }
    }

    /// Findings of a particular kind.
    pub fn findings_of(
        &self,
        kind: lba_lifeguard::FindingKind,
    ) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(move |f| f.kind == kind)
    }

    /// Everything below a report's header line: the log, degradation and
    /// findings, each only when there is something to say.
    fn write_details(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.log.frames > 0 {
            write!(
                f,
                "  log: {} records in {} frames, {} wire bits, {:.3} B/inst on the wire",
                self.log.records,
                self.log.frames,
                self.log.wire_bits,
                self.log.wire_bytes_per_instruction,
            )?;
            if self.channels.len() > 1 {
                write!(f, " across {} channels", self.channels.len())?;
            }
            if self.epochs > 0 {
                write!(f, " in {} epochs", self.epochs)?;
            }
            writeln!(f)?;
        }
        let d = &self.degradation;
        if !d.is_empty() {
            writeln!(
                f,
                "  degraded: {} interval(s), {} records sampled out, {} kind-dropped, {} snapback(s)",
                d.engagements, d.sampled_out, d.kind_dropped, d.snapbacks,
            )?;
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}]: {} instructions",
            self.program,
            self.mode,
            self.trace.instructions(),
        )?;
        self.write_details(f)
    }
}

/// Implements `Deref`/`DerefMut` from a wrapping report to its embedded
/// [`PipelineReport`] core (field name `pipeline`).
macro_rules! deref_pipeline {
    ($ty:ty) => {
        impl std::ops::Deref for $ty {
            type Target = PipelineReport;
            fn deref(&self) -> &PipelineReport {
                &self.pipeline
            }
        }
        impl std::ops::DerefMut for $ty {
            fn deref_mut(&mut self) -> &mut PipelineReport {
                &mut self.pipeline
            }
        }
    };
}

/// The result of a run with modeled clocks: the co-simulation, its
/// sharded and epoch fan-outs, and the unmonitored/DBI baselines.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// End-to-end time in cycles: the slowest of the application core,
    /// the lifeguard cores and the stitch core (the application plus its
    /// inline monitoring for DBI).
    pub total_cycles: u64,
    /// Application-core time including monitoring-induced stalls (the
    /// fan-out modes model no back-pressure, so no stalls there).
    pub app_cycles: u64,
    /// One clock per lifeguard core: one for `Lba`, one per shard or
    /// summarizer worker in the fan-out modes, none unmonitored. For DBI
    /// the one entry is the inline monitoring overhead on the
    /// application core.
    pub lifeguard_cycles: Vec<u64>,
    /// Merge-core clock after the last epoch summary was absorbed (0
    /// outside the epoch mode): each stitch starts no earlier than the
    /// previous one *and* its own summary's completion, so this is the
    /// pipelined critical path through workers and merge.
    pub stitch_cycles: u64,
    /// Application stall breakdown (`Lba` only; default elsewhere).
    pub stalls: StallBreakdown,
    /// The shared core.
    pub pipeline: PipelineReport,
}

deref_pipeline!(RunReport);

impl RunReport {
    /// Slowdown of this run relative to a baseline (usually the
    /// unmonitored run of the same program).
    ///
    /// # Panics
    ///
    /// Panics if the baseline ran zero cycles.
    #[must_use]
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        assert!(baseline.total_cycles > 0, "baseline must have run");
        self.total_cycles as f64 / baseline.total_cycles as f64
    }

    /// The slowest lifeguard core's cycles (0 with no lifeguard core).
    #[must_use]
    pub fn max_lifeguard_cycles(&self) -> u64 {
        self.lifeguard_cycles.iter().copied().max().unwrap_or(0)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}]: {} cycles ({} instructions, CPI {:.2})",
            self.program,
            self.mode,
            self.total_cycles,
            self.trace.instructions(),
            self.total_cycles as f64 / self.trace.instructions().max(1) as f64,
        )?;
        if self.stalls != StallBreakdown::default() {
            writeln!(
                f,
                "  stalls: buffer {} cy, syscall {} cy ({} syscalls)",
                self.stalls.buffer_full_cycles,
                self.stalls.syscall_stall_cycles,
                self.stalls.syscalls,
            )?;
        }
        self.write_details(f)
    }
}

/// Per-stream accounting of an offline replay
/// ([`RunMode::Replay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStreamStats {
    /// The stream id (shard index of the recording run; 0 unsharded).
    pub stream: u32,
    /// Frames replayed from the recording.
    pub frames: u64,
    /// Records decoded and delivered.
    pub records: u64,
    /// Wire bits of the replayed frames — byte-identical to what the
    /// recording run's transport shipped on this stream.
    pub wire_bits: u64,
    /// Frames whose header carried the degraded mark — the recording
    /// run's adaptive controller was engaged while they sealed, so the
    /// degraded spans ride the flight-recorder stream into replay.
    pub degraded_frames: u64,
}

/// A torn or truncated tail a
/// [`SalvagePrefix`](crate::ReplayMode::SalvagePrefix) replay cut away:
/// the checksummed prefix of the stream was replayed, this is what was
/// abandoned past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvagedTail {
    /// The stream whose tail was torn.
    pub stream: u32,
    /// Frames salvaged before the tear (the replayed prefix).
    pub frames_salvaged: u64,
    /// What the stream layer reported at the tear point.
    pub detail: String,
}

/// The result of replaying a recorded flight-recorder stream set through
/// a lifeguard ([`RunMode::Replay`]).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Recording directory the replay consumed.
    pub dir: String,
    /// Codec version the recording was sealed under.
    pub codec_version: u32,
    /// Per-stream accounting, ascending by stream id.
    pub streams: Vec<ReplayStreamStats>,
    /// Torn tails a [`SalvagePrefix`](crate::ReplayMode::SalvagePrefix)
    /// replay cut away, one entry per damaged stream. Always empty under
    /// [`Strict`](crate::ReplayMode::Strict), which fails instead.
    pub salvaged: Vec<SalvagedTail>,
    /// The shared core. Findings of the replayed lifeguard(s) — for a
    /// multi-stream (sharded) recording, merged exactly as the sharded
    /// run modes merge theirs, so equality with the original run holds
    /// per mode. The log statistics sum the replayed streams (no
    /// payload-bit or capture detail: the recording carries sealed wire
    /// frames, not the capture pass that produced them).
    pub pipeline: PipelineReport,
}

deref_pipeline!(ReplayReport);

impl ReplayReport {
    /// Assembles a replay's report: every decoded record was "captured"
    /// as far as the replay can know, and payload bits are unknowable
    /// (only sealed wire frames were recorded).
    pub(crate) fn new(
        dir: &std::path::Path,
        codec_version: u32,
        mode: RunMode,
        streams: Vec<ReplayStreamStats>,
        salvaged: Vec<SalvagedTail>,
        findings: Vec<Finding>,
    ) -> Self {
        let records: u64 = streams.iter().map(|s| s.records).sum();
        let pipeline = PipelineReport {
            program: String::new(),
            mode,
            trace: TraceStats::new(),
            findings,
            log: LogStats {
                records,
                captured: records,
                frames: streams.iter().map(|s| s.frames).sum(),
                wire_bits: streams.iter().map(|s| s.wire_bits).sum(),
                ..LogStats::default()
            },
            channels: Vec::new(),
            epochs: 0,
            capture: CaptureStats::default(),
            degradation: DegradationStats::default(),
        };
        ReplayReport {
            dir: dir.display().to_string(),
            codec_version,
            streams,
            salvaged,
            pipeline,
        }
    }

    /// Frames that sealed while the recording run was degraded, across
    /// all streams.
    #[must_use]
    pub fn total_degraded_frames(&self) -> u64 {
        self.streams.iter().map(|s| s.degraded_frames).sum()
    }

    /// Whether the replay lost anything to a torn tail.
    #[must_use]
    pub fn is_lossy(&self) -> bool {
        !self.salvaged.is_empty()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} of {} [codec v{}]: {} stream(s)",
            self.mode,
            self.dir,
            self.codec_version,
            self.streams.len(),
        )?;
        if self.total_degraded_frames() > 0 {
            writeln!(
                f,
                "  degraded frames replayed: {}",
                self.total_degraded_frames()
            )?;
        }
        for tail in &self.salvaged {
            writeln!(
                f,
                "  stream {}: salvaged {} frame(s), tail lost ({})",
                tail.stream, tail.frames_salvaged, tail.detail
            )?;
        }
        self.write_details(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mode: RunMode, cycles: u64) -> RunReport {
        let program = lba_workloads::bugs::memory_bugs();
        RunReport {
            total_cycles: cycles,
            app_cycles: cycles,
            lifeguard_cycles: Vec::new(),
            stitch_cycles: 0,
            stalls: StallBreakdown::default(),
            pipeline: PipelineReport::unlogged(&program, mode, TraceStats::new(), Vec::new()),
        }
    }

    #[test]
    fn reports_deref_to_the_pipeline_core() {
        let mut r = report(RunMode::Lba, 1);
        r.pipeline.log.records = 7;
        assert_eq!(r.log.records, 7, "field reads go through the core");
        r.log.frames = 3; // DerefMut: writes do too
        assert_eq!(r.pipeline.log.frames, 3);
    }

    #[test]
    fn slowdown_is_a_ratio() {
        let base = report(RunMode::Unmonitored, 100);
        let lba = report(RunMode::Lba, 390);
        assert!((lba.slowdown_vs(&base) - 3.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn zero_baseline_panics() {
        let base = report(RunMode::Unmonitored, 0);
        let lba = report(RunMode::Lba, 10);
        let _ = lba.slowdown_vs(&base);
    }

    #[test]
    fn display_includes_mode_and_cycles() {
        let r = report(RunMode::Dbi, 1234);
        let s = r.to_string();
        assert!(s.contains("dbi"));
        assert!(s.contains("1234"));
    }
}
