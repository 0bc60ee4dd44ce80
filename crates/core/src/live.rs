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
//! The producer side is [`Producer::live`] driving a [`LiveLink`]: the
//! identical capture pass the co-simulation runs, plugged into the framed
//! sender. Integration tests assert the findings — and the shipped wire
//! stream — match the deterministic mode exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use lba_cache::MemSystem;
use lba_cpu::{Machine, RunError};
use lba_isa::Program;
use lba_lifeguard::{DegradationRequest, DispatchEngine, Lifeguard};
use lba_transport::FrameSender;

use crate::config::SystemConfig;
use crate::fanout::{finish_senders, join_thread, live_senders};
use crate::pipeline::{Producer, ProducerFinish, ProducerLink};
use crate::report::PipelineReport;
use crate::runner::RunMode;

/// Encoding of the analysis-side dial slot the consumer publishes and the
/// producer drains: no request pending.
const DIAL_NONE: u64 = 0;
/// Dial slot: the lifeguard asked to engage degraded capture.
const DIAL_ENGAGE: u64 = 1;
/// Dial slot: the lifeguard asked to disengage degraded capture.
const DIAL_DISENGAGE: u64 = 2;

/// The live mode's [`ProducerLink`]: shipped records go straight into the
/// framed SPSC sender, degradation transitions seal the open frame and
/// toggle the wire's degraded mark, and the controller steers by the real
/// queue occupancy plus the finding count and dial requests the consumer
/// thread publishes through atomics.
struct LiveLink<'a> {
    tx: FrameSender,
    finding_count: &'a AtomicU64,
    dial: &'a AtomicU64,
}

impl ProducerLink for LiveLink<'_> {
    fn ship(&mut self, rec: &lba_record::EventRecord) {
        self.tx.push(rec);
    }

    fn on_engage(&mut self) {
        self.tx.flush();
        self.tx.set_degraded(true);
    }

    fn on_disengage(&mut self) {
        self.tx.flush();
        self.tx.set_degraded(false);
    }

    fn load_sample(&self) -> lba_transport::LoadSample {
        self.tx.load_sample()
    }

    fn finding_count(&self) -> u64 {
        self.finding_count.load(Ordering::Relaxed)
    }

    fn contain_syscall(&mut self) {
        // Real threads cannot stall a modeled clock; containment reduces
        // to sealing the frame so the consumer can observe everything
        // that precedes the syscall.
        self.tx.flush();
    }

    fn take_degradation_request(&mut self) -> Option<DegradationRequest> {
        match self.dial.swap(DIAL_NONE, Ordering::Relaxed) {
            DIAL_ENGAGE => Some(DegradationRequest::Engage),
            DIAL_DISENGAGE => Some(DegradationRequest::Disengage),
            _ => None,
        }
    }
}

/// Runs `program` on one thread and the lifeguard on another, returning
/// the lifeguard's findings together with the measured wire statistics.
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
/// Propagates any [`RunError`] from the machine thread, and
/// [`RunError::WorkerPanicked`] when it panicked.
pub(crate) fn run_live(
    program: &Program,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
) -> Result<PipelineReport, RunError> {
    config.log.validate_framing()?;
    // One channel as deep as the buffer budget allows, recorded as stream
    // 0 on the producer thread, with the stall timeout and the fault
    // profile's drain drag applied.
    let (mut senders, mut receivers) = live_senders(1, config)?;
    let (tx, mut rx) = (
        senders.pop().expect("one sender"),
        receivers.pop().expect("one receiver"),
    );
    let engine = DispatchEngine::new(config.dispatch);
    let machine_config = config.machine;
    // The identical capture pass the co-simulation runs (range filter +
    // idempotency window in one predicate), so the two modes ship the
    // same record stream byte for byte.
    let mut stage = Producer::live(&*lifeguard, config);
    // The finding-snapback signal: the consumer publishes its running
    // finding count; any growth the producer's controller observes snaps
    // capture back to full fidelity.
    let finding_count = AtomicU64::new(0);
    // The analysis-side degradation dial: the consumer polls the
    // lifeguard after each delivery and publishes the latest request; the
    // producer drains it into the controller.
    let dial = AtomicU64::new(DIAL_NONE);

    thread::scope(|scope| {
        let finding_count = &finding_count;
        let dial = &dial;
        let producer = scope.spawn(move || -> Result<ProducerFinish, RunError> {
            let mut machine = Machine::new(program, machine_config);
            let mut mem = MemSystem::new(config.mem_single());
            let mut link = LiveLink {
                tx,
                finding_count,
                dial,
            };
            machine.run(&mut mem, |r| stage.observe(&r.record, &mut link))?;
            // Snap back out of degradation, settle fold counts, ship the
            // tail, then seal and close the channel (publishing its
            // statistics to the receiver).
            let finish = stage.finish(&mut link);
            finish_senders(vec![link.tx]).map(|_| finish)
        });

        // Consume on this thread: shadow-cost accounting still needs a
        // MemSystem, but live mode is functional — timing is not reported.
        // Frame-granular by default (one blocking receive and one dispatch
        // setup per frame); the per-record path is the bench baseline.
        let mut mem = MemSystem::new(config.mem_dual());
        let mut findings = Vec::new();
        if config.log.batch_dispatch {
            while let Some(batch) = rx.recv_batch() {
                engine.deliver_batch(lifeguard, batch, &mut mem, 1, &mut findings);
                finding_count.store(findings.len() as u64, Ordering::Relaxed);
                if let Some(req) = engine.poll_degradation(lifeguard) {
                    dial.store(encode_dial(req), Ordering::Relaxed);
                }
            }
        } else {
            while let Some(record) = rx.recv_ref() {
                engine.deliver(lifeguard, record, &mut mem, 1, &mut findings);
                finding_count.store(findings.len() as u64, Ordering::Relaxed);
                if let Some(req) = engine.poll_degradation(lifeguard) {
                    dial.store(encode_dial(req), Ordering::Relaxed);
                }
            }
        }
        engine.finish(lifeguard, &mut mem, 1, &mut findings);

        let finish = join_thread(producer, "producer")??;
        Ok(PipelineReport::shipped(
            program,
            RunMode::Live,
            finish,
            findings,
            vec![rx.stats()],
        ))
    })
}

/// Maps a [`DegradationRequest`] onto the dial slot's wire encoding.
fn encode_dial(req: DegradationRequest) -> u64 {
    match req {
        DegradationRequest::Engage => DIAL_ENGAGE,
        DegradationRequest::Disengage => DIAL_DISENGAGE,
    }
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
