//! Live monitoring: application and lifeguard on real OS threads.
//!
//! The timing results come from the deterministic co-simulation
//! ([`run_lba`](crate::cosim::run_lba)); this mode demonstrates the *functional*
//! pipeline with genuine parallelism — the machine compresses records into
//! cache-line-multiple frames on one thread while the lifeguard
//! decompresses and consumes them on another, connected by the framed SPSC
//! channel from `lba-transport`. One queue operation moves an entire frame
//! (`config.log.records_per_frame` records), and the reported statistics
//! are *real* wire bytes, so the live mode exercises and measures the
//! paper's < 1 B/instruction wire format instead of shipping raw structs.
//!
//! `Live` is the one-consumer case of the fan-out runner
//! ([`run_fanout`]): [`Producer::live`] over a [`SingleConsumer`]
//! topology, one in-process channel, and the lent lifeguard draining it
//! through [`deliver_all`] on the calling thread. It is the one mode whose
//! producer contains syscalls (the link's flush) and whose consumer
//! surfaces the lifeguard's degradation dial. Integration tests assert
//! the findings — and the shipped wire stream — match the deterministic
//! mode exactly.

use std::convert::Infallible;

use lba_isa::Program;
use lba_lifeguard::Lifeguard;

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::fanout::{deliver_all, live_senders, run_fanout, FanOut};
use crate::pipeline::{Producer, SingleConsumer};
use crate::report::PipelineReport;
use crate::runner::RunMode;

/// Runs `program` on one thread and `lifeguard` on the calling one,
/// returning the lifeguard's findings together with the measured wire
/// statistics.
///
/// The capture-side filter and the syscall containment flush behave as in
/// the co-simulation: filtered records never reach the channel, and each
/// syscall seals the open frame so the lifeguard can observe everything
/// that precedes it.
///
/// [`Run`](crate::Run) drives this runner for `RunMode::Live`.
///
/// # Errors
///
/// Propagates any error from the machine thread, and
/// [`RunError::WorkerPanicked`](lba_cpu::RunError::WorkerPanicked) when
/// the producer or the lifeguard panicked.
pub(crate) fn run_live(
    program: &Program,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
) -> Result<PipelineReport, LbaError> {
    let (senders, mut receivers) = live_senders(1, config)?;
    let mut rx = receivers.pop().expect("one receiver");
    let run = FanOut {
        program,
        config,
        mode: RunMode::Live,
        // The identical capture pass the co-simulation runs, so the two
        // modes ship the same record stream byte for byte.
        producer: Producer::live(&*lifeguard, config),
        topology: SingleConsumer,
        senders,
        spawned_thread: "consumer",
        local_thread: "consumer",
    };
    let (report, _): (_, Vec<()>) = run_fanout(
        run,
        Vec::<Infallible>::new(),
        |never, _| match never {},
        // The receiver moves in, so a failing lifeguard drops it and the
        // producer stops waiting for credit.
        move |feedback| deliver_all(&mut rx, lifeguard, config, feedback, true),
    )?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::run_lba;
    use lba_lifeguard::FindingKind;
    use lba_lifeguards::{AddrCheck, TaintCheck};
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn live_mode_detects_bugs() {
        let program = bugs::memory_bugs();
        let mut lg = AddrCheck::new();
        let report = run_live(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DoubleFree));
    }

    #[test]
    fn live_findings_match_deterministic_mode() {
        let config = SystemConfig::default();
        let program = bugs::exploit();
        let mut lg = TaintCheck::new();
        let live = run_live(&program, &mut lg, &config).unwrap();
        let mut lg = TaintCheck::new();
        let cosim = run_lba(&program, &mut lg, &config).unwrap();
        assert_eq!(live.findings, cosim.findings);
    }

    #[test]
    fn live_mode_measures_sub_byte_wire_traffic() {
        // The acceptance bar for the framed transport: with compression
        // on, the *live* path ships less than one real byte per
        // instruction, padding and headers included.
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let mut lg = AddrCheck::new();
        let report = run_live(&program, &mut lg, &config).unwrap();
        assert!(report.log.records > 0);
        assert!(report.log.frames > 0);
        assert!(
            report.log.wire_bytes_per_instruction < 1.0,
            "live wire traffic {:.3} B/inst must stay below one byte",
            report.log.wire_bytes_per_instruction
        );
        // And it agrees with the modeled channel's accounting of the same
        // program (both run the identical frame codec).
        let mut lg = AddrCheck::new();
        let cosim = run_lba(&program, &mut lg, &config).unwrap();
        assert_eq!(report.log.records, cosim.log.records);
        assert_eq!(report.log.compressed_bits, cosim.log.compressed_bits);
        assert_eq!(report.log.frames, cosim.log.frames);
        assert_eq!(report.log.wire_bits, cosim.log.wire_bits);
    }

    #[test]
    fn live_back_pressure_depth_follows_the_buffer_budget() {
        // Regression: the live mode used to hard-code a 64-frame queue and
        // silently ignore `buffer_bytes`. A sub-frame budget now means a
        // one-deep queue — maximal back-pressure — and the pipeline must
        // still complete, lossless, with the same wire stream the default
        // budget ships.
        let program = bugs::memory_bugs();
        let mut tight = SystemConfig::default();
        tight.log.buffer_bytes = 64;
        assert_eq!(tight.log.live_channel_frames(), 1);
        let mut lg = AddrCheck::new();
        let constrained = run_live(&program, &mut lg, &tight).unwrap();
        let mut lg = AddrCheck::new();
        let roomy = run_live(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert_eq!(constrained.findings, roomy.findings);
        assert_eq!(constrained.log.records, roomy.log.records);
        assert_eq!(constrained.log.wire_bits, roomy.log.wire_bits);
    }

    /// A lifeguard that panics on its first event.
    struct Panicky;

    impl Lifeguard for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }

        fn subscriptions(&self) -> lba_record::EventMask {
            lba_record::EventMask::ALL
        }

        fn on_event(&mut self, _: &lba_record::EventRecord, _: &mut lba_lifeguard::HandlerCtx<'_>) {
            panic!("lifeguard fault");
        }
    }

    #[test]
    fn panicking_lent_lifeguard_is_a_run_error_not_a_crash() {
        // Gzip's stream overfills the channel, so the run also hangs if the
        // failed consumer's end outlives it.
        let program = Benchmark::Gzip.build();
        let err = crate::Run::new(&program)
            .mode(RunMode::Live)
            .monitor(&mut Panicky)
            .run()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(
                &err,
                LbaError::Run(lba_cpu::RunError::WorkerPanicked { thread: "consumer", message })
                    if message == "lifeguard fault"
            ),
            "got: {err}"
        );
    }

    #[test]
    fn live_mode_honours_the_capture_filter() {
        let program = Benchmark::Gzip.build();
        let mut config = SystemConfig::default();
        config.log.filter = Some(lba_lifeguard::AddrRangeFilter::new(vec![(
            lba_mem::layout::HEAP_BASE,
            lba_mem::layout::HEAP_END,
        )]));
        let mut lg = AddrCheck::new();
        let live = run_live(&program, &mut lg, &config).unwrap();
        assert!(
            live.log.filtered > 0,
            "filter must drop events in live mode too"
        );
        let mut lg = AddrCheck::new();
        let cosim = run_lba(&program, &mut lg, &config).unwrap();
        assert_eq!(live.findings, cosim.findings);
        assert_eq!(live.log.filtered, cosim.log.filtered);
    }
}
