//! Parallel lifeguards: splitting one lifeguard across multiple cores.
//!
//! §1 of the paper: "the lifeguard functionality can be split across
//! multiple cores, exploiting further parallelism to speed up lifeguards";
//! §3 names "parallelizing lifeguards" as ongoing work. This module
//! implements the address-interleaved variant for lifeguards whose
//! per-address state is independent (AddrCheck, LockSet):
//!
//! * load/store events are **routed** to the shard owning their cache
//!   line (the [`ShardedByLine`] topology);
//! * all other events (alloc/free, lock/unlock, …) are **broadcast**,
//!   because they update state every shard needs;
//! * each shard is fed through its own framed [`LogChannel`] — the same
//!   transport abstraction the single-lifeguard modes drive — so every
//!   shard's stream is a real compressed frame sequence and the report
//!   carries per-shard wire statistics (the stepping stone to sharded
//!   *live* lifeguards);
//! * lifeguard time is the *maximum* over the shards' clocks, each shard
//!   running on its own core with its own L1.
//!
//! The producer side is [`Producer::sharded`] driving a `ParallelLink`:
//! the shared capture pass runs *before* routing, so the per-shard streams
//! stay byte-identical with the live sharded mode.
//!
//! TaintCheck is deliberately not supported: its register state forms a
//! sequential dependence chain through every instruction, so address
//! interleaving is unsound for it. Its parallel mode is the epoch
//! design instead —
//! [`run_epoch_parallel`](crate::epoch_parallel::run_epoch_parallel) cuts
//! the stream into *time* slices and stitches symbolic per-epoch
//! summaries in order.

use std::collections::HashSet;

use lba_cache::MemSystem;
use lba_cache::MemSystemConfig;
use lba_cpu::{Machine, RunError, StepOutcome};
use lba_isa::Program;
use lba_lifeguard::{DispatchEngine, Finding, Lifeguard};
use lba_record::EventRecord;
use lba_transport::{ChannelStats, FaultInjector, LoadSample, LogChannel, ModeledFrameChannel};

use crate::config::SystemConfig;
use crate::pipeline::{ConsumerTopology, Producer, ProducerLink, Route, ShardedByLine};
use crate::report::{PipelineReport, RunReport, StallBreakdown};
use crate::runner::RunMode;

/// Per-shard channel byte budget. The parallel study isolates
/// lifeguard-side scaling, so no back-pressure is modelled: shards drain
/// opportunistically as frames seal, keeping transport memory bounded by
/// this budget rather than the whole log.
const SHARD_BUFFER_BYTES: u64 = 1 << 20;

/// Merges per-shard finding lists in shard order, deduplicating on the
/// identifying fields — broadcast events surface the same finding on every
/// shard (e.g. each one sees the same double free). Shared by the modeled
/// and live sharded modes so their merge semantics cannot drift apart (the
/// integration tests pin their outputs equal).
pub(crate) fn merge_shard_findings(
    shard_findings: impl IntoIterator<Item = Vec<Finding>>,
) -> Vec<Finding> {
    let mut seen = HashSet::new();
    let mut findings = Vec::new();
    for shard in shard_findings {
        for f in shard {
            if seen.insert((f.kind, f.pc, f.addr, f.tid)) {
                findings.push(f);
            }
        }
    }
    findings
}

/// Delivers every currently-available frame (or record, in the per-record
/// baseline) of one shard's channel into its lifeguard.
fn drain_shard(
    batch: bool,
    channel: &mut dyn LogChannel,
    engine: &DispatchEngine,
    lifeguard: &mut dyn Lifeguard,
    mem: &mut MemSystem,
    core: usize,
    findings: &mut Vec<Finding>,
) -> u64 {
    let mut cycles = 0u64;
    if batch {
        while let Some(frame) = channel.pop_frame() {
            cycles += engine.deliver_batch(lifeguard, frame.records, mem, core, findings);
        }
    } else {
        while let Some(popped) = channel.pop_record() {
            cycles += engine.deliver(lifeguard, &popped.record, mem, core, findings);
        }
    }
    cycles
}

/// The modeled sharded mode's [`ProducerLink`]: one framed channel,
/// lifeguard instance and clock per shard, with the [`ShardedByLine`]
/// topology deciding routed-vs-broadcast per record. It owns the whole
/// consumer side so a single record's ship can charge non-owner shards
/// their no-op dispatch cost and opportunistically drain sealed frames.
struct ParallelLink {
    topology: ShardedByLine,
    batch: bool,
    app_cycles: u64,
    channels: Vec<FaultInjector<ModeledFrameChannel>>,
    engine: DispatchEngine,
    lifeguards: Vec<Box<dyn Lifeguard>>,
    mem: MemSystem,
    shard_cycles: Vec<u64>,
    shard_findings: Vec<Vec<Finding>>,
}

impl ProducerLink for ParallelLink {
    fn ship(&mut self, rec: &EventRecord) {
        // Address-interleaved routing, shared with the live mode
        // (`Broadcast` reaches every shard).
        let route = self.topology.route(rec);
        for idx in 0..self.channels.len() {
            match route {
                Route::Shard(owner) if owner != idx => {
                    // Routed elsewhere: this shard skips the record
                    // (its dispatch sees a no-op entry).
                    self.shard_cycles[idx] += self.engine.config().unsubscribed_cycles;
                }
                _ => {
                    self.channels[idx].push_record(rec, self.app_cycles);
                }
            }
            self.shard_cycles[idx] += drain_shard(
                self.batch,
                &mut self.channels[idx],
                &self.engine,
                self.lifeguards[idx].as_mut(),
                &mut self.mem,
                1 + idx,
                &mut self.shard_findings[idx],
            );
        }
    }

    fn on_engage(&mut self) {
        for channel in &mut self.channels {
            channel.flush(self.app_cycles);
            channel.mark_degraded(true);
        }
    }

    fn on_disengage(&mut self) {
        for channel in &mut self.channels {
            channel.flush(self.app_cycles);
            channel.mark_degraded(false);
        }
    }

    fn load_sample(&self) -> LoadSample {
        // The load signal for a sharded producer: the occupancy of
        // whichever shard channel is fullest — one overloaded shard is
        // enough to stall the producer in the real design.
        self.channels
            .iter()
            .map(|c| c.load_sample())
            .max_by_key(LoadSample::occupancy_permille)
            .unwrap_or_default()
    }

    fn finding_count(&self) -> u64 {
        self.shard_findings.iter().map(|f| f.len() as u64).sum()
    }
}

/// Runs `program` with the lifeguard sharded `shards` ways by address.
///
/// `make_lifeguard` builds one (identical) lifeguard instance per shard.
///
/// [`Run`](crate::Run) drives this runner for `RunMode::LbaParallel`.
///
/// # Errors
///
/// Propagates any [`RunError`] from the machine.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub(crate) fn run_lba_parallel(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard>,
    shards: usize,
    config: &SystemConfig,
) -> Result<RunReport, RunError> {
    assert!(shards > 0, "need at least one shard");
    config.log.validate_framing()?;
    let mut machine = Machine::new(program, config.machine);
    let lifeguards: Vec<Box<dyn Lifeguard>> = (0..shards).map(|_| make_lifeguard()).collect();
    let mut channels: Vec<ModeledFrameChannel> = (0..shards)
        .map(|_| {
            if config.log.batch_dispatch {
                // Frame-granular consumption pairs with the zero-copy
                // channel (see `run_lba`); the wire stream is identical.
                ModeledFrameChannel::zero_copy(SHARD_BUFFER_BYTES, config.log.frame_config(), false)
            } else {
                ModeledFrameChannel::new(SHARD_BUFFER_BYTES, config.log.frame_config(), false)
            }
        })
        .collect();
    // Flight recorder: one segmented stream per shard, so replay can
    // rebuild each shard's independent predictor stream.
    if let Some(record) = &config.log.record_to {
        for (idx, channel) in channels.iter_mut().enumerate() {
            let stream = u32::try_from(idx).expect("shard count fits u32");
            channel.tee_into(crate::recorder::open_sink(record, stream)?);
        }
    }
    // Every shard channel runs behind the fault injector (quiet profile =
    // pure delegation); each shard gets its own deterministic stall
    // schedule from the shared profile.
    let channels: Vec<FaultInjector<ModeledFrameChannel>> = channels
        .into_iter()
        .map(|c| FaultInjector::new(c, config.log.fault.unwrap_or_default()))
        .collect();
    // The shared capture pass (idempotency window, no range filter) plus
    // the adaptive controller, pre-routing on the producer.
    let mut producer = Producer::sharded(lifeguards[0].as_ref(), config);
    let mut link = ParallelLink {
        topology: ShardedByLine::new(shards),
        batch: config.log.batch_dispatch,
        app_cycles: 0,
        channels,
        engine: DispatchEngine::new(config.dispatch),
        lifeguards,
        // Core 0: application. Cores 1..=shards: lifeguard shards.
        mem: MemSystem::new(MemSystemConfig::multi_core(shards + 1)),
        shard_cycles: vec![0u64; shards],
        shard_findings: vec![Vec::new(); shards],
    };

    loop {
        match machine.step(&mut link.mem)? {
            StepOutcome::Finished => break,
            StepOutcome::Retired(r) => {
                link.app_cycles += r.cycles;
                producer.observe(&r.record, &mut link);
            }
        }
    }

    // Snap back out of degradation, settle fold counts, ship the tail.
    let finish = producer.finish(&mut link);
    let app_cycles = link.app_cycles;

    // Drain each shard's channel: decode its frame stream in order and
    // deliver to its lifeguard.
    for idx in 0..shards {
        link.channels[idx].flush(app_cycles);
        // Loop until the channel is truly empty: under fault injection a
        // pop refusal models a stalled consumer, and mistaking it for
        // emptiness would truncate this final drain. Stall bursts are
        // bounded, so the loop terminates.
        loop {
            link.shard_cycles[idx] += drain_shard(
                link.batch,
                &mut link.channels[idx],
                &link.engine,
                link.lifeguards[idx].as_mut(),
                &mut link.mem,
                1 + idx,
                &mut link.shard_findings[idx],
            );
            if link.channels[idx].drained() {
                break;
            }
        }
        link.shard_cycles[idx] += link.engine.finish(
            link.lifeguards[idx].as_mut(),
            &mut link.mem,
            1 + idx,
            &mut link.shard_findings[idx],
        );
    }

    // Close each shard's flight recording (End records + flush).
    for channel in &mut link.channels {
        crate::recorder::finish_tee(channel.inner_mut().take_tee())?;
    }

    let findings = merge_shard_findings(link.shard_findings);
    let channels: Vec<ChannelStats> = link.channels.iter().map(|c| c.stats()).collect();
    let total_cycles = app_cycles.max(link.shard_cycles.iter().copied().max().unwrap_or(0));
    Ok(RunReport {
        total_cycles,
        app_cycles,
        lifeguard_cycles: link.shard_cycles,
        stitch_cycles: 0,
        stalls: StallBreakdown::default(),
        pipeline: PipelineReport::shipped(
            program,
            RunMode::LbaParallel,
            finish,
            findings,
            channels,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::LifeguardKind;
    use crate::run::run_unmonitored;
    use lba_lifeguard::FindingKind;
    use lba_workloads::{bugs, Benchmark};

    #[test]
    fn sharded_lockset_scales() {
        let program = Benchmark::Zchaff.build();
        let config = SystemConfig::default();
        let one =
            run_lba_parallel(&program, LifeguardKind::LockSet.spec().make, 1, &config).unwrap();
        let four =
            run_lba_parallel(&program, LifeguardKind::LockSet.spec().make, 4, &config).unwrap();
        assert!(
            four.max_lifeguard_cycles() * 2 < one.max_lifeguard_cycles(),
            "4 shards ({}) should at least halve one shard ({})",
            four.max_lifeguard_cycles(),
            one.max_lifeguard_cycles()
        );
    }

    #[test]
    fn sharded_addrcheck_still_detects_bugs() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report =
            run_lba_parallel(&program, LifeguardKind::AddrCheck.spec().make, 4, &config).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind} in sharded run"
            );
        }
        // And duplicates from broadcast events were merged away.
        let doubles = report
            .findings
            .iter()
            .filter(|f| f.kind == DoubleFree)
            .count();
        assert_eq!(doubles, 1);
    }

    #[test]
    fn shards_ship_real_frames() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report =
            run_lba_parallel(&program, LifeguardKind::AddrCheck.spec().make, 3, &config).unwrap();
        assert_eq!(report.channels.len(), 3);
        let records: u64 = report.channels.iter().map(|s| s.records).sum();
        // Broadcast events are counted once per shard, so the shards
        // together carry at least the retired event stream.
        assert!(records >= report.trace.instructions());
        for stats in &report.channels {
            assert!(stats.frames > 0);
            assert!(stats.wire_bits >= stats.payload_bits);
        }
        // The aggregate pipeline log is the sum over the shard channels.
        assert_eq!(report.log.records, records);
    }

    #[test]
    fn parallel_beats_app_bound_eventually() {
        // With enough shards the lifeguard stops being the bottleneck.
        let program = Benchmark::Water.build();
        let config = SystemConfig::default();
        let base = run_unmonitored(&program, &config).unwrap();
        let eight =
            run_lba_parallel(&program, LifeguardKind::LockSet.spec().make, 8, &config).unwrap();
        let slowdown = eight.total_cycles as f64 / base.total_cycles as f64;
        let single =
            run_lba_parallel(&program, LifeguardKind::LockSet.spec().make, 1, &config).unwrap();
        let single_slowdown = single.total_cycles as f64 / base.total_cycles as f64;
        assert!(
            slowdown < single_slowdown / 2.0,
            "8 shards ({slowdown:.1}x) should far outpace 1 ({single_slowdown:.1}x)"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let program = bugs::memory_bugs();
        let _ = run_lba_parallel(
            &program,
            LifeguardKind::AddrCheck.spec().make,
            0,
            &SystemConfig::default(),
        );
    }
}
