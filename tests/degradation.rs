//! Adaptive-capture acceptance: contract-governed degradation engages
//! under injected back-pressure, never changes findings for any
//! lifeguard whose policy promises soundness, accounts for every record
//! it removes, and leaves TaintCheck's stream provably untouched. The
//! fault-injection satellites ride along: quiet injection is
//! transparent, and a genuinely stalled live consumer surfaces as
//! `RunError::ChannelStalled` instead of a livelock.

use std::time::Duration;

use proptest::prelude::*;

use lba::{
    AdaptiveConfig, DegradationStats, FaultProfile, LbaError, LifeguardKind, MonitorChoice,
    MonitorSpec, Run, RunError, RunMode, RunOutcome, SystemConfig, MAX_RECORDED_INTERVALS,
    MONITORS,
};
use lba_isa::Program;
use lba_lifeguard::Lifeguard;
use lba_lifeguards::AddrCheck;
use lba_workloads::{bugs, Benchmark};

/// `monitor` over `program` in `mode`, with 3 shards for the sharded
/// modes.
fn run<'a>(
    program: &'a Program,
    mode: RunMode,
    monitor: impl Into<MonitorChoice<'a>>,
    config: &'a SystemConfig,
) -> Result<RunOutcome, LbaError> {
    let request = Run::new(program).mode(mode).monitor(monitor);
    request.workers(3).config(config).run()
}

/// The single-lifeguard AddrCheck run the suite compares against.
fn addrcheck(program: &Program, mode: RunMode, config: &SystemConfig) -> RunOutcome {
    run(program, mode, LifeguardKind::AddrCheck, config).expect("addrcheck run")
}

/// Thresholds low enough that the modeled slow-drain profile engages on
/// the small bug workloads too (the default 700‰ needs a larger queue
/// excursion than a short run can build).
fn aggressive() -> AdaptiveConfig {
    AdaptiveConfig {
        engage_permille: 300,
        disengage_permille: 100,
        sample_stride: 16,
        ..AdaptiveConfig::default()
    }
}

fn degraded_config(seed: u64) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.adaptive = Some(aggressive());
    config.log.fault = Some(FaultProfile::slow_drain(seed));
    // A small buffer makes back-pressure real: the modeled channel only
    // drains under pressure, so occupancy genuinely climbs past the
    // engage threshold (and the injected stalls keep it there).
    config.log.buffer_bytes = 2 << 10;
    config
}

/// Every invariant `DegradationStats` promises, checkable on any run:
/// interval bounds are ordered, and when no interval was dropped by the
/// recording cap, the per-interval ledgers sum exactly to the totals —
/// the intervals *cover* everything degradation removed.
fn assert_stats_consistent(stats: &DegradationStats) {
    for interval in &stats.intervals {
        assert!(
            interval.from_record <= interval.to_record,
            "interval bounds ordered: {interval:?}"
        );
    }
    assert_eq!(stats.removed(), stats.sampled_out + stats.kind_dropped);
    if (stats.engagements as usize) <= MAX_RECORDED_INTERVALS {
        assert_eq!(stats.intervals.len() as u64, stats.engagements);
        let sampled: u64 = stats.intervals.iter().map(|i| i.sampled_out).sum();
        let dropped: u64 = stats.intervals.iter().map(|i| i.kind_dropped).sum();
        let span: u64 = stats
            .intervals
            .iter()
            .map(|i| i.to_record - i.from_record)
            .sum();
        assert_eq!(sampled, stats.sampled_out, "intervals cover sampled-out");
        assert_eq!(dropped, stats.kind_dropped, "intervals cover kind-drops");
        assert_eq!(span, stats.degraded_records, "intervals cover the spans");
        assert!(stats.removed() <= stats.degraded_records);
    }
}

#[test]
fn quiet_fault_injection_is_transparent() {
    // The injector always wraps the modeled channel; with the quiet
    // default profile it must be pure delegation — same findings, same
    // wire stream, same modeled time.
    let program = bugs::memory_bugs();
    let clean = addrcheck(&program, RunMode::Lba, &SystemConfig::default());
    let mut config = SystemConfig::default();
    config.log.fault = Some(FaultProfile::default());
    assert!(config.log.fault.unwrap().is_quiet());
    let quiet = addrcheck(&program, RunMode::Lba, &config);
    assert_eq!(quiet.findings, clean.findings);
    assert_eq!(quiet.log.wire_bits, clean.log.wire_bits);
    let (RunOutcome::Run(quiet), RunOutcome::Run(clean)) = (&quiet, &clean) else {
        panic!("Lba reports modeled clocks");
    };
    assert_eq!(quiet.app_cycles, clean.app_cycles);
    assert!(quiet.degradation.is_empty());
}

#[test]
fn controller_off_runs_lose_nothing_under_injected_faults() {
    // With `adaptive` unset the controller does not exist; injected
    // consumer stalls may reshape timing but never content — the drain
    // loops retry refused pops until the channel is empty.
    let program = bugs::memory_bugs();
    let clean = addrcheck(&program, RunMode::Lba, &SystemConfig::default());
    let mut config = SystemConfig::default();
    config.log.fault = Some(FaultProfile::slow_drain(7));
    let faulted = addrcheck(&program, RunMode::Lba, &config);
    assert_eq!(faulted.findings, clean.findings);
    assert_eq!(faulted.log.records, clean.log.records);
    assert_eq!(faulted.log.wire_bits, clean.log.wire_bits);
    assert!(faulted.degradation.is_empty(), "no controller, no stats");
}

#[test]
fn controller_engages_under_slow_drain_and_findings_are_identical() {
    // The tentpole acceptance, deterministic flavour: injected slow
    // drain pushes the load signal past threshold, the controller
    // engages and removes records, and the findings still match the
    // undegraded run byte for byte.
    let program = Benchmark::Gzip.build();
    let clean = addrcheck(&program, RunMode::Lba, &SystemConfig::default());
    let config = degraded_config(42);
    let degraded = addrcheck(&program, RunMode::Lba, &config);
    assert!(
        !degraded.degradation.is_empty(),
        "slow drain must engage the controller: {:?}",
        degraded.degradation
    );
    assert_eq!(degraded.findings, clean.findings);
    assert_stats_consistent(&degraded.degradation);
    // Degradation must actually relieve the wire, not just bookkeep.
    assert!(
        degraded.degradation.removed() > 0,
        "an engaged interval on a hot workload should remove records"
    );
    assert!(degraded.log.records < clean.log.records);
    // Exact ledger: controller drops happen before the capture pass, so
    // the shipped-record deficit is degradation's removals plus whatever
    // extra dedup the widened window bought (the clean run's window is
    // the default zero-entry one, so its dedup term is zero).
    assert_eq!(
        clean.log.records - degraded.log.records,
        degraded.degradation.removed() + degraded.log.deduped - clean.log.deduped,
        "every missing wire record is accounted to degradation or widening"
    );
}

#[test]
fn memprofile_sampling_is_fully_accounted() {
    // MemProfile samples unconditionally (AlwaysSettled) and drops every
    // profile-irrelevant kind, so it exercises both ledgers at once.
    let program = Benchmark::Gzip.build();
    let config = degraded_config(9);
    let degraded = run(&program, RunMode::Lba, &MONITORS[3], &config).unwrap(); // MemProfile
    assert!(!degraded.degradation.is_empty());
    assert!(degraded.degradation.sampled_out > 0, "sampling must bite");
    assert!(degraded.degradation.kind_dropped > 0, "kind-drop must bite");
    assert_stats_consistent(&degraded.degradation);
    assert!(degraded.findings.is_empty(), "MemProfile has no findings");
}

#[test]
fn taintcheck_is_provably_untouched() {
    // A none-policy means the controller is never constructed: same
    // findings, same wire stream, empty stats — under the same injected
    // fault profile and adaptive config that degrade AddrCheck.
    let program = bugs::exploit();
    let kind = LifeguardKind::TaintCheck;
    let clean = run(&program, RunMode::Lba, kind, &SystemConfig::default()).unwrap();
    let faulted = run(&program, RunMode::Lba, kind, &degraded_config(42)).unwrap();
    assert!(faulted.degradation.is_empty());
    assert_eq!(faulted.findings, clean.findings);
    assert_eq!(faulted.log.records, clean.log.records);
    assert_eq!(faulted.log.wire_bits, clean.log.wire_bits);
}

#[test]
fn live_mode_engages_and_findings_are_identical() {
    // Live flavour: the receiver's injected drag keeps the real SPSC
    // queue full (depth 1 under a sub-frame buffer budget), so the
    // occupancy signal pins to the ceiling and the controller engages.
    let program = Benchmark::Gzip.build();
    let clean = addrcheck(&program, RunMode::Live, &SystemConfig::default());
    let mut config = degraded_config(42);
    config.log.buffer_bytes = 64;
    config.log.fault = Some(FaultProfile {
        drain_drag: 20_000,
        ..FaultProfile::default()
    });
    let degraded = addrcheck(&program, RunMode::Live, &config);
    assert!(
        !degraded.degradation.is_empty(),
        "a dragged consumer with a one-deep queue must engage: {:?}",
        degraded.degradation
    );
    assert_eq!(degraded.findings, clean.findings);
    assert_stats_consistent(&degraded.degradation);
}

#[test]
fn stalled_live_consumer_surfaces_as_channel_stalled() {
    // Satellite regression: the producer used to spin unboundedly when
    // the consumer stopped draining. With a stall timeout configured,
    // the injected near-dead consumer (a huge per-frame drag against a
    // one-deep queue) must surface as `RunError::ChannelStalled`.
    let program = bugs::memory_bugs();
    let mut config = SystemConfig::default();
    config.log.buffer_bytes = 64;
    config.log.channel_stall_timeout = Some(Duration::from_millis(20));
    config.log.fault = Some(FaultProfile {
        drain_drag: 200_000_000,
        ..FaultProfile::default()
    });
    let err = run(&program, RunMode::Live, LifeguardKind::AddrCheck, &config).unwrap_err();
    assert!(
        matches!(err, LbaError::Run(RunError::ChannelStalled)),
        "got: {err:?}"
    );
    assert!(err.to_string().contains("stall"));
}

#[test]
fn live_runs_without_timeout_still_complete_under_drag() {
    // The pre-timeout contract is preserved: no configured timeout means
    // the producer waits out any drag, losslessly.
    let program = bugs::memory_bugs();
    let clean = addrcheck(&program, RunMode::Live, &SystemConfig::default());
    let mut config = SystemConfig::default();
    config.log.buffer_bytes = 64;
    config.log.fault = Some(FaultProfile {
        drain_drag: 50_000,
        ..FaultProfile::default()
    });
    let dragged = addrcheck(&program, RunMode::Live, &config);
    assert_eq!(dragged.findings, clean.findings);
    assert_eq!(dragged.log.records, clean.log.records);
}

/// The degradation grid's lifeguard axis: the three sound policies,
/// AddrCheck, LockSet and MemProfile, each opted into sharding (the
/// MemProfile row keeps it out of the sharded modes, but its degradation
/// ledger must stay exact there too). TaintCheck is pinned separately —
/// its guarantee is the *absence* of the controller.
static SOUND: [MonitorSpec; 3] = [sharded(0), sharded(2), sharded(3)];

const fn sharded(idx: usize) -> MonitorSpec {
    MonitorSpec {
        shardable: true,
        ..MONITORS[idx]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (b) of the acceptance grid: for every lifeguard whose policy
    /// promises `findings_sound`, findings under injected slow-drain
    /// degradation are identical to the undegraded run's, in all four
    /// run modes; and (c) the stats ledgers stay exactly covering.
    #[test]
    fn degraded_findings_match_undegraded_across_the_grid(
        program_idx in 0usize..3,
        kind_idx in 0usize..3,
        mode_idx in 0usize..4,
        seed in 1u64..1_000,
    ) {
        let program = match program_idx {
            0 => bugs::memory_bugs(),
            1 => bugs::data_race(),
            _ => bugs::exploit(),
        };
        let clean_config = SystemConfig::default();
        let degraded_config = degraded_config(seed);
        let mode = [
            RunMode::Lba,
            RunMode::Live,
            RunMode::LbaParallel,
            RunMode::LiveParallel,
        ][mode_idx];
        let clean = run(&program, mode, &SOUND[kind_idx], &clean_config).unwrap();
        let degraded = run(&program, mode, &SOUND[kind_idx], &degraded_config).unwrap();
        prop_assert_eq!(&degraded.findings, &clean.findings);
        assert_stats_consistent(&degraded.degradation);
    }
}

/// An AddrCheck that, after a fixed number of delivered events, asks the
/// capture controller to engage degraded capture through the
/// analysis-side dial (`Lifeguard::degradation_request`) — the
/// lifeguard-driven counterpart of the load-driven engagements the rest
/// of this suite exercises.
struct DialAddrCheck {
    inner: AddrCheck,
    seen: u64,
    trigger_at: u64,
    pending: Option<lba::DegradationRequest>,
}

impl DialAddrCheck {
    fn new(trigger_at: u64) -> Self {
        DialAddrCheck {
            inner: AddrCheck::new(),
            seen: 0,
            trigger_at,
            pending: None,
        }
    }
}

impl Lifeguard for DialAddrCheck {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn subscriptions(&self) -> lba_record::EventMask {
        self.inner.subscriptions()
    }

    fn on_event(
        &mut self,
        record: &lba_record::EventRecord,
        ctx: &mut lba_lifeguard::HandlerCtx<'_>,
    ) {
        self.seen += 1;
        if self.seen == self.trigger_at {
            self.pending = Some(lba::DegradationRequest::Engage);
        }
        self.inner.on_event(record, ctx);
    }

    fn on_finish(&mut self, ctx: &mut lba_lifeguard::HandlerCtx<'_>) {
        self.inner.on_finish(ctx);
    }

    fn idempotency(&self) -> lba::IdempotencyClass {
        self.inner.idempotency()
    }

    fn degradation(&self) -> lba::DegradationPolicy {
        self.inner.degradation()
    }

    fn degradation_request(&mut self) -> Option<lba::DegradationRequest> {
        self.pending.take()
    }
}

#[test]
fn lifeguard_dial_request_engages_and_is_ledgered() {
    // No injected fault, no load: the only path to an engagement is the
    // lifeguard's own dial request surfacing from the dispatch engine
    // back to the capture controller.
    let program = Benchmark::Gzip.build();
    let mut config = SystemConfig::default();
    config.log.adaptive = Some(AdaptiveConfig::default());

    let baseline = addrcheck(&program, RunMode::Lba, &SystemConfig::default());

    let mut dialed = DialAddrCheck::new(1_000);
    let report = run(&program, RunMode::Lba, &mut dialed, &config).unwrap();
    let stats = &report.degradation;
    assert_eq!(
        stats.lifeguard_requests, 1,
        "exactly one dial request was made (take semantics): {stats:?}"
    );
    assert!(
        stats.engagements >= 1,
        "the dial request must engage even at zero load: {stats:?}"
    );
    assert_stats_consistent(stats);
    // AddrCheck's policy promises degraded findings stay sound.
    assert_eq!(
        report.findings, baseline.findings,
        "a dial-driven degradation span must not change findings"
    );

    // The same run without the dial never engages: the ledger entries
    // above are attributable to the lifeguard's request alone.
    let quiet = addrcheck(&program, RunMode::Lba, &config);
    assert_eq!(quiet.degradation.lifeguard_requests, 0);
    assert!(quiet.degradation.is_empty());
}
