//! The LBA co-simulation: two decoupled cores coordinating through the
//! framed log channel.

use lba_cache::MemSystem;
use lba_compress::FRAME_LINE_BYTES;
use lba_cpu::{Machine, RunError, StepOutcome};
use lba_isa::Program;
use lba_lifeguard::{DegradationRequest, DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::{modeled_channel, FaultInjector, LoadSample, LogChannel, PushOutcome};

use crate::config::{SystemConfig, LG_CORE};
use crate::pipeline::{Producer, ProducerLink};
use crate::report::{PipelineReport, RunReport, StallBreakdown};
use crate::runner::RunMode;

/// Bits per transferred cache line of log data.
const LINE_BITS: u64 = FRAME_LINE_BYTES as u64 * 8;

/// Generic over the channel so the hot loop devirtualises: `run_lba`
/// instantiates it with [`ModeledFrameChannel`] and the codec inlines into
/// the push/pop paths, while the `LogChannel` bound keeps the transport
/// contract the single source of truth.
struct Cosim<'a, C: LogChannel> {
    mem: MemSystem,
    channel: C,
    engine: DispatchEngine,
    lifeguard: &'a mut dyn Lifeguard,
    findings: Vec<Finding>,
    /// Application-core clock (cycles).
    t_app: u64,
    /// Lifeguard-core clock (cycles).
    t_lg: u64,
    line_transfer_cycles: u64,
    /// Frame-granular consumption (default) versus the per-record baseline.
    batch: bool,
    stalls: StallBreakdown,
    /// The latest analysis-side degradation request polled off the
    /// lifeguard after a delivery, awaiting pickup by the producer.
    pending_request: Option<DegradationRequest>,
}

impl<C: LogChannel> Cosim<'_, C> {
    /// Charges both cores the shared-L2 occupancy of a shipped frame:
    /// written line by line by the capture engine, later read by dispatch.
    /// Returns the cycles charged to each clock.
    fn charge_lines(&mut self, wire_bits: u64) -> u64 {
        let cycles = (wire_bits / LINE_BITS) * self.line_transfer_cycles;
        self.t_app += cycles;
        self.t_lg += cycles;
        cycles
    }

    /// Consumes one channel record on the lifeguard core, advancing its
    /// clock. Returns `false` when the channel is empty.
    fn consume_one(&mut self) -> bool {
        let Some(popped) = self.channel.pop_record() else {
            return false;
        };
        // The lifeguard cannot read a record before its frame shipped.
        self.t_lg = self.t_lg.max(popped.ready_at);
        self.t_lg += self.engine.deliver(
            self.lifeguard,
            &popped.record,
            &mut self.mem,
            LG_CORE,
            &mut self.findings,
        );
        if let Some(req) = self.engine.poll_degradation(self.lifeguard) {
            self.pending_request = Some(req);
        }
        true
    }

    /// Consumes one whole frame on the lifeguard core, advancing its clock.
    /// Returns `false` when the channel is empty.
    ///
    /// Cycle-equivalent to popping the frame's records one at a time: every
    /// record of a frame shares its `ready_at` (so the clock catch-up
    /// happens once), handler costs are additive, and the frame's buffer
    /// lines free at the same point — after its last record is consumed.
    fn consume_frame(&mut self) -> bool {
        let Some(frame) = self.channel.pop_frame() else {
            return false;
        };
        self.t_lg = self.t_lg.max(frame.ready_at);
        self.t_lg += self.engine.deliver_batch(
            self.lifeguard,
            frame.records,
            &mut self.mem,
            LG_CORE,
            &mut self.findings,
        );
        if let Some(req) = self.engine.poll_degradation(self.lifeguard) {
            self.pending_request = Some(req);
        }
        true
    }

    /// Consumes the next unit of log — a frame or a record, per the
    /// configured granularity.
    fn consume(&mut self) -> bool {
        if self.batch {
            self.consume_frame()
        } else {
            self.consume_one()
        }
    }

    /// Resolves producer back-pressure: the lifeguard drains records until
    /// the parked frame is admitted, and the application clock absorbs the
    /// wait.
    fn resolve_back_pressure(&mut self) {
        let before = self.t_app;
        // Line-transfer cycles for the admitted frame are the ordinary
        // shipping cost every frame pays; keep them out of the stall
        // counter.
        let mut shipped_cycles = 0;
        while self.channel.has_parked() {
            let stamp = self.t_app.max(self.t_lg);
            if let Some(wire_bits) = self.channel.retry_parked(stamp) {
                shipped_cycles += self.charge_lines(wire_bits);
                continue;
            }
            assert!(
                self.consume(),
                "a parked frame must be admitted once the buffer drains"
            );
        }
        self.t_app = self.t_app.max(self.t_lg);
        self.stalls.buffer_full_cycles += (self.t_app - before).saturating_sub(shipped_cycles);
    }

    /// Applies a producer-side push/flush outcome to the clocks.
    fn absorb(&mut self, outcome: PushOutcome) {
        match outcome {
            PushOutcome::Buffered => {}
            PushOutcome::Sealed { wire_bits } => {
                self.charge_lines(wire_bits);
            }
            PushOutcome::BackPressure { .. } => self.resolve_back_pressure(),
        }
    }

    /// Drains the channel completely, parked frames included (syscall
    /// stall and end-of-program). Loops until the channel reports
    /// [`drained`](LogChannel::drained), not merely until one pop comes
    /// back empty: under fault injection a pop refusal models a stalled
    /// consumer, and mistaking it for emptiness would truncate the drain
    /// and lose findings. Injected stall bursts are bounded, so the loop
    /// always terminates.
    fn drain(&mut self) {
        loop {
            if self.consume() {
                continue;
            }
            let stamp = self.t_app.max(self.t_lg);
            if let Some(wire_bits) = self.channel.retry_parked(stamp) {
                self.charge_lines(wire_bits);
                continue;
            }
            if self.channel.drained() {
                break;
            }
        }
    }
}

/// The co-simulation's transport plumbing under the shared [`Producer`]:
/// pushes and flushes absorb modeled timing, syscall containment drains
/// the log on the application clock, and the lock-step ablation
/// synchronises the two clocks after every record.
impl<C: LogChannel> ProducerLink for Cosim<'_, C> {
    fn ship(&mut self, rec: &EventRecord) {
        let outcome = self.channel.push_record(rec, self.t_app);
        self.absorb(outcome);
    }

    fn on_engage(&mut self) {
        let outcome = self.channel.flush(self.t_app);
        self.absorb(outcome);
        self.channel.mark_degraded(true);
    }

    fn on_disengage(&mut self) {
        let outcome = self.channel.flush(self.t_app);
        self.absorb(outcome);
        self.channel.mark_degraded(false);
    }

    fn load_sample(&self) -> LoadSample {
        self.channel.load_sample()
    }

    fn finding_count(&self) -> u64 {
        self.findings.len() as u64
    }

    fn contain_syscall(&mut self) {
        // Flush first: any back-pressure it hits is buffer stall, kept
        // disjoint from the containment stall measured below.
        let outcome = self.channel.flush(self.t_app);
        self.absorb(outcome);
        let before = self.t_app;
        self.drain();
        self.t_app = self.t_app.max(self.t_lg);
        self.stalls.syscall_stall_cycles += self.t_app - before;
        self.stalls.syscalls += 1;
    }

    fn lockstep(&mut self) {
        // Synchronise after every record, paying a one-record frame each
        // time.
        let outcome = self.channel.flush(self.t_app);
        self.absorb(outcome);
        self.drain();
        self.t_app = self.t_app.max(self.t_lg);
    }

    fn take_degradation_request(&mut self) -> Option<DegradationRequest> {
        self.pending_request.take()
    }
}

/// Runs `program` under LBA: the application executes on core 0 while the
/// lifeguard consumes the compressed, framed log on core 1.
///
/// The two cores are decoupled (per §2 of the paper): the application only
/// waits when (i) the log buffer is full — back-pressure — or (ii) it
/// enters a syscall and the OS enforces the containment policy by flushing
/// the open frame and draining the log first. End-to-end time is the later
/// of the two core clocks. The transport is driven entirely through the
/// [`LogChannel`] trait; this run plugs in the deterministic
/// [`ModeledFrameChannel`](lba_transport::ModeledFrameChannel), which runs the real frame codec so the timing
/// model ships the same wire bytes as the live mode.
///
/// Consumption is frame-granular by default: the lifeguard takes each
/// frame as one slice ([`LogChannel::pop_frame`]) and the dispatch engine
/// delivers it as a batch, amortising per-record bookkeeping without
/// changing findings, wire bits or cycle totals (pinned by the
/// `tests/batching.rs` proptest). `config.log.batch_dispatch = false`
/// selects the per-record baseline path.
///
/// Capture runs one filter pass per retired record
/// ([`LogConfig::capture_filter`](crate::LogConfig::capture_filter)): the
/// optional address-range filter composed with the idempotency window,
/// which drops duplicate load/stores the lifeguard's declared contract
/// (`Lifeguard::idempotency`) proves re-derive an already-reached
/// verdict — before they cost compression, wire, or dispatch. Findings
/// are proptest-pinned identical to unfiltered runs
/// (`tests/idempotency.rs`).
///
/// [`Run`](crate::Run) drives this runner for `RunMode::Lba`.
///
/// # Errors
///
/// Returns [`RunError::LogBufferTooSmall`] when `config.log.buffer_bytes`
/// cannot hold even one cache-line frame, and propagates any [`RunError`]
/// from the machine.
///
/// # Panics
///
/// Panics if `config.log.verify_compression` is set and the framed stream
/// fails to round-trip (a codec bug, not a user error).
pub(crate) fn run_lba(
    program: &Program,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
) -> Result<RunReport, RunError> {
    config.log.validate_framing()?;
    if config.log.buffer_bytes < FRAME_LINE_BYTES as u64 {
        return Err(RunError::LogBufferTooSmall {
            buffer_bytes: config.log.buffer_bytes,
            frame_bytes: FRAME_LINE_BYTES as u64,
        });
    }
    let mut machine = Machine::new(program, config.machine);
    // The shared producer stage chain: trace accounting, the capture-pass
    // predicate (address-range filter composed with the per-lifeguard
    // idempotency window, with a widen reserve under adaptive capture),
    // the adaptive controller when configured, and syscall containment.
    let mut producer = Producer::single(lifeguard, config);

    // Batched consumption pairs with the zero-copy channel (the hardware
    // decompressor's work is modeled, not re-run in host software); the
    // per-record baseline keeps the software-decoding channel. Both ship
    // identical wire bytes; `verify_compression` decodes and cross-checks
    // either way.
    let mut channel = modeled_channel(
        config.log.buffer_bytes,
        config.log.frame_config(),
        config.log.batch_dispatch,
        config.log.verify_compression,
    );
    // Flight recorder: mirror every sealed frame into stream 0 of the
    // configured recording directory.
    if let Some(record) = &config.log.record_to {
        channel.tee_into(crate::recorder::open_sink(record, 0)?);
    }
    // The transport always runs behind the fault injector; the default
    // profile is quiet (pure delegation), so an uninjected run pays one
    // pass-through branch per pop and nothing else.
    let channel = FaultInjector::new(channel, config.log.fault.unwrap_or_default());
    let mut sim = Cosim {
        mem: MemSystem::new(config.mem_dual()),
        channel,
        engine: DispatchEngine::new(config.dispatch),
        lifeguard,
        findings: Vec::new(),
        t_app: 0,
        t_lg: 0,
        line_transfer_cycles: config.log.line_transfer_cycles,
        batch: config.log.batch_dispatch,
        stalls: StallBreakdown::default(),
        pending_request: None,
    };

    // The run loop is now one stage-chain call per retired record: the
    // shared producer decides what ships, when fidelity transitions and
    // how syscalls contain; the Cosim link absorbs the modeled timing.
    loop {
        match machine.step(&mut sim.mem)? {
            StepOutcome::Finished => break,
            StepOutcome::Retired(r) => {
                sim.t_app += r.cycles;
                producer.observe(&r.record, &mut sim);
            }
        }
    }

    // End of stream: the producer snaps back out of any open degraded
    // interval and settles outstanding fold counts; then flush the
    // partial frame, let the lifeguard finish the remaining log, and run
    // its final checks.
    let finish = producer.finish(&mut sim);
    let outcome = sim.channel.flush(sim.t_app);
    sim.absorb(outcome);
    sim.drain();
    sim.t_lg += sim
        .engine
        .finish(sim.lifeguard, &mut sim.mem, LG_CORE, &mut sim.findings);

    // Close the flight recording (End record + flush) and surface any
    // mirror error the channel latched mid-run.
    crate::recorder::finish_tee(sim.channel.inner_mut().take_tee())?;

    let stats = sim.channel.stats();
    Ok(RunReport {
        total_cycles: sim.t_app.max(sim.t_lg),
        app_cycles: sim.t_app,
        lifeguard_cycles: vec![sim.t_lg],
        stitch_cycles: 0,
        stalls: sim.stalls,
        pipeline: PipelineReport::shipped(program, RunMode::Lba, finish, sim.findings, vec![stats]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_dbi, run_unmonitored};
    use lba_lifeguard::FindingKind;
    use lba_lifeguards::{AddrCheck, LockSet, TaintCheck};
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn lba_slower_than_baseline_faster_than_dbi() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let base = run_unmonitored(&program, &config).unwrap();

        let mut lg = AddrCheck::new();
        let lba = run_lba(&program, &mut lg, &config).unwrap();
        let mut lg = AddrCheck::new();
        let dbi = run_dbi(&program, &mut lg, &config).unwrap();

        let lba_x = lba.slowdown_vs(&base);
        let dbi_x = dbi.slowdown_vs(&base);
        assert!(lba_x > 1.0, "monitoring is not free: {lba_x:.2}");
        assert!(
            dbi_x > 2.0 * lba_x,
            "LBA ({lba_x:.1}x) must beat DBI ({dbi_x:.1}x) well"
        );
    }

    #[test]
    fn lba_detects_planted_memory_bugs() {
        let program = bugs::memory_bugs();
        let mut lg = AddrCheck::new();
        let report = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(report.findings_of(kind).next().is_some(), "missing {kind}");
        }
    }

    #[test]
    fn lba_detects_exploit() {
        let program = bugs::exploit();
        let mut lg = TaintCheck::new();
        let report = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert!(report
            .findings_of(FindingKind::TaintedJump)
            .next()
            .is_some());
    }

    #[test]
    fn lba_detects_data_race() {
        let program = bugs::data_race();
        let mut lg = LockSet::new();
        let report = run_lba(&program, &mut lg, &SystemConfig::default()).unwrap();
        assert!(report.findings_of(FindingKind::DataRace).next().is_some());
    }

    #[test]
    fn clean_benchmarks_have_no_findings() {
        let config = SystemConfig::default();
        for benchmark in [Benchmark::Gzip, Benchmark::Water] {
            let program = benchmark.build();
            let mut addr = AddrCheck::new();
            let report = run_lba(&program, &mut addr, &config).unwrap();
            assert!(
                report.findings.is_empty(),
                "{}/addrcheck: {:?}",
                benchmark.name(),
                report.findings
            );
            let mut lock = LockSet::new();
            let report = run_lba(&program, &mut lock, &config).unwrap();
            assert!(
                report.findings.is_empty(),
                "{}/lockset: {:?}",
                benchmark.name(),
                report.findings
            );
        }
    }

    #[test]
    fn compression_round_trip_verified_inline() {
        let program = Benchmark::Tidy.build();
        let mut config = SystemConfig::default();
        config.log.verify_compression = true;
        let mut lg = AddrCheck::new();
        // The channel panics internally if any frame fails to round-trip.
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(report.log.records > 0);
    }

    #[test]
    fn compressed_log_is_below_one_byte_per_instruction() {
        let config = SystemConfig::default();
        let program = Benchmark::Gzip.build();
        let mut lg = AddrCheck::new();
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(
            report.log.bytes_per_instruction < 1.0,
            "got {:.3} B/inst",
            report.log.bytes_per_instruction
        );
        // The claim must survive framing: headers and line padding
        // included, the wire stays under a byte per instruction.
        assert!(
            report.log.wire_bytes_per_instruction < 1.0,
            "got {:.3} wire B/inst",
            report.log.wire_bytes_per_instruction
        );
        assert!(report.log.wire_bits >= report.log.compressed_bits);
        assert!(report.log.frames > 0);
    }

    #[test]
    fn tiny_buffer_causes_back_pressure() {
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64;
        let mut lg = TaintCheck::new();
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(
            report.stalls.buffer_full_cycles > 0,
            "64-byte buffer must stall"
        );
    }

    #[test]
    fn sub_frame_buffer_is_a_config_error_not_a_panic() {
        // Regression: this configuration used to reach deep into the
        // transport before failing; it must be a descriptive error.
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 1;
        let mut lg = AddrCheck::new();
        let err = run_lba(&program, &mut lg, &config).unwrap_err();
        assert_eq!(
            err,
            RunError::LogBufferTooSmall {
                buffer_bytes: 1,
                frame_bytes: 64
            },
            "expected a log-buffer config error"
        );
        assert!(
            err.to_string().contains("cannot hold"),
            "descriptive message: {err}"
        );
    }

    #[test]
    fn zero_records_per_frame_is_a_config_error_not_a_panic() {
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        config.log.records_per_frame = 0;
        let mut lg = AddrCheck::new();
        let err = run_lba(&program, &mut lg, &config).unwrap_err();
        assert_eq!(err, RunError::ZeroRecordsPerFrame);
        let mut lg = AddrCheck::new();
        let err = crate::live::run_live(&program, &mut lg, &config).unwrap_err();
        assert!(
            matches!(err, crate::LbaError::Run(RunError::ZeroRecordsPerFrame)),
            "got: {err}"
        );
    }

    #[test]
    fn syscall_stalls_are_charged() {
        let program = Benchmark::Gs.build();
        let config = SystemConfig::default();
        let mut lg = AddrCheck::new();
        let report = run_lba(&program, &mut lg, &config).unwrap();
        assert!(report.stalls.syscalls > 0);
        assert!(report.stalls.syscall_stall_cycles > 0);
    }

    #[test]
    fn lockstep_is_no_faster_than_decoupled() {
        let program = Benchmark::Bc.build();
        let mut config = SystemConfig::default();
        let mut lg = TaintCheck::new();
        let decoupled = run_lba(&program, &mut lg, &config).unwrap();
        config.log.decoupled = false;
        let mut lg = TaintCheck::new();
        let lockstep = run_lba(&program, &mut lg, &config).unwrap();
        assert!(lockstep.total_cycles >= decoupled.total_cycles);
    }

    #[test]
    fn heap_filter_cuts_lifeguard_work() {
        let program = Benchmark::Gzip.build();
        let config = SystemConfig::default();
        let mut lg = AddrCheck::new();
        let unfiltered = run_lba(&program, &mut lg, &config).unwrap();

        let mut filtered_cfg = SystemConfig::default();
        filtered_cfg.log.filter = Some(lba_lifeguard::AddrRangeFilter::new(vec![(
            lba_mem::layout::HEAP_BASE,
            lba_mem::layout::HEAP_END,
        )]));
        let mut lg = AddrCheck::new();
        let filtered = run_lba(&program, &mut lg, &filtered_cfg).unwrap();

        assert!(filtered.log.filtered > 0, "filter must drop events");
        assert!(
            filtered.max_lifeguard_cycles() < unfiltered.max_lifeguard_cycles(),
            "filtering must reduce lifeguard time"
        );
        // Heap-range filtering is sound for AddrCheck: same findings.
        assert_eq!(filtered.findings, unfiltered.findings);
    }

    #[test]
    fn frame_size_trades_wire_overhead_for_lag() {
        // Bigger frames amortise header+padding: wire B/inst must not
        // increase when the batch grows.
        let program = Benchmark::Gzip.build();
        let mut small = SystemConfig::default();
        small.log.records_per_frame = 16;
        let mut big = SystemConfig::default();
        big.log.records_per_frame = 1024;
        let mut lg = AddrCheck::new();
        let small = run_lba(&program, &mut lg, &small).unwrap();
        let mut lg = AddrCheck::new();
        let big = run_lba(&program, &mut lg, &big).unwrap();
        assert!(
            big.log.wire_bytes_per_instruction <= small.log.wire_bytes_per_instruction,
            "1024-record frames ({:.3} B/inst) vs 16-record frames ({:.3} B/inst)",
            big.log.wire_bytes_per_instruction,
            small.log.wire_bytes_per_instruction
        );
        // Payload is identical either way: framing only changes overhead.
        assert_eq!(big.log.compressed_bits, small.log.compressed_bits);
        assert_eq!(big.findings, small.findings);
    }
}
