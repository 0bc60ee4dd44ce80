//! Capture-side idempotency filtering: filtered ≡ unfiltered under every
//! lifeguard's declared soundness contract.
//!
//! The contract (`Lifeguard::idempotency`) promises that suppressing
//! duplicate load/store records inside the declared window cannot change
//! what the lifeguard reports:
//!
//! * AddrCheck and LockSet (window contracts) and MemProfile (fold
//!   contract) must produce **byte-identical findings** at any window
//!   size, across programs and shard counts;
//! * MemProfile's *profile totals* must stay exact — duplicates fold into
//!   `Repeat` summaries that multiply back in;
//! * TaintCheck (no contract) must be provably untouched: its shipped
//!   stream is bit-identical whatever the window size;
//! * window size 0 must degenerate to the unfiltered pipeline bit for bit
//!   (findings, cycle totals, stalls, and the full `LogStats`);
//! * the co-simulated and live modes must still ship the identical wire
//!   stream when the window is on, and the two sharded modes must still
//!   match per shard.

use proptest::prelude::*;

use lba::{
    LifeguardKind, LogStats, MonitorChoice, MonitorSpec, Run, RunMode, RunOutcome, RunReport,
    SystemConfig, MONITORS,
};
use lba_isa::Program;
use lba_lifeguards::{MemProfile, MemoryProfile};
use lba_workloads::{bugs, Benchmark};

/// Every registry row opted into sharding: MemProfile's registry row
/// keeps it out of the sharded modes (each shard profiles only its own
/// lines), but its fold summaries must still route like the accesses
/// they summarize.
static SHARDED: [MonitorSpec; 4] = [sharded(0), sharded(1), sharded(2), sharded(3)];

const fn sharded(idx: usize) -> MonitorSpec {
    MonitorSpec {
        shardable: true,
        ..MONITORS[idx]
    }
}

/// `monitor` over `program` in `mode`, with `shards` shards for the
/// sharded modes.
fn run<'a>(
    program: &'a Program,
    mode: RunMode,
    monitor: impl Into<MonitorChoice<'a>>,
    shards: usize,
    config: &'a SystemConfig,
) -> RunOutcome {
    let request = Run::new(program).mode(mode).monitor(monitor);
    let outcome = request.workers(shards).config(config).run();
    outcome.unwrap_or_else(|e| panic!("{mode} on {}: {e}", program.name()))
}

/// The modeled clocks of a modeled mode's outcome.
fn modeled(outcome: RunOutcome) -> RunReport {
    match outcome {
        RunOutcome::Run(report) => report,
        other => panic!("{} reports no modeled clocks", other.mode),
    }
}

fn make_program(idx: usize) -> Program {
    match idx {
        0 => bugs::memory_bugs(),
        1 => bugs::exploit(),
        2 => bugs::data_race(),
        3 => bugs::tainted_syscall(),
        _ => Benchmark::Bc.build(),
    }
}

fn with_window(window: usize) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.idempotency_window = window;
    config
}

/// The capture ledger must always balance: what shipped is what was
/// captured, minus the two kinds of drops, plus the fold summaries.
fn assert_ledger(log: &LogStats, what: &str) {
    assert_eq!(
        log.records,
        log.captured - log.filtered - log.deduped + log.folded,
        "capture ledger out of balance: {what} ({log:?})"
    );
    assert!(log.folded <= log.deduped, "{what}: summaries exceed drops");
}

/// Findings equality between a windowed run and the unfiltered baseline,
/// plus the stats invariants that hold for every sound contract.
fn assert_filtered_equivalent(program: &Program, lifeguard_idx: usize, window: usize) {
    let monitor = &MONITORS[lifeguard_idx];
    let base = modeled(run(program, RunMode::Lba, monitor, 1, &with_window(0)));
    let filtered = modeled(run(program, RunMode::Lba, monitor, 1, &with_window(window)));

    let what = format!(
        "{} / lifeguard {lifeguard_idx} / window {window}",
        program.name()
    );
    assert_eq!(filtered.findings, base.findings, "findings: {what}");
    assert_eq!(
        filtered.log.captured, base.log.captured,
        "capture sees every retired record: {what}"
    );
    assert!(
        filtered.log.records <= base.log.records,
        "dedup cannot grow the log: {what}"
    );
    assert_ledger(&base.log, &what);
    assert_ledger(&filtered.log, &what);
    if window == 0 {
        // Degeneration: a zero-size window is bit-for-bit today's
        // pipeline (`base` is literally the same configuration, so this
        // pins that the refactored single capture pass added nothing).
        assert_eq!(filtered.log, base.log, "window 0 LogStats: {what}");
        assert_eq!(filtered.total_cycles, base.total_cycles, "cycles: {what}");
        assert_eq!(filtered.stalls, base.stalls, "stalls: {what}");
        assert_eq!(filtered.log.deduped, 0, "{what}");
        assert_eq!(filtered.log.folded, 0, "{what}");
    }
    if lifeguard_idx == 1 {
        // TaintCheck declares IdempotencyClass::None: whatever the window
        // size, its stream is untouched — same records, same frames, same
        // wire bits, same cycle totals.
        assert_eq!(filtered.log, base.log, "taintcheck LogStats: {what}");
        assert_eq!(
            filtered.total_cycles, base.total_cycles,
            "taintcheck cycles: {what}"
        );
        assert_eq!(filtered.log.deduped, 0, "taintcheck deduped: {what}");
    }
}

/// The sharded counterpart: merged findings and per-shard wire streams of
/// the filtered modeled run must match the filtered live run, and the
/// findings must match the unfiltered sharded baseline.
fn assert_parallel_filtered_equivalent(
    program: &Program,
    lifeguard_idx: usize,
    shards: usize,
    window: usize,
) {
    let monitor = &SHARDED[lifeguard_idx];
    let base = modeled(run(
        program,
        RunMode::LbaParallel,
        monitor,
        shards,
        &with_window(0),
    ));
    let cfg = with_window(window);
    let filtered = modeled(run(program, RunMode::LbaParallel, monitor, shards, &cfg));
    let live = run(program, RunMode::LiveParallel, monitor, shards, &cfg);

    let what = format!(
        "{} / lifeguard {lifeguard_idx} / {shards} shards / window {window}",
        program.name()
    );
    assert_eq!(filtered.findings, base.findings, "findings: {what}");
    assert_eq!(live.findings, filtered.findings, "live findings: {what}");
    assert_eq!(live.capture, filtered.capture, "capture stats: {what}");
    assert_eq!(
        filtered.capture.captured,
        filtered.trace.instructions(),
        "capture sees the whole stream: {what}"
    );
    for (idx, (l, m)) in live.channels.iter().zip(&filtered.channels).enumerate() {
        assert_eq!(
            (l.records, l.frames, l.payload_bits, l.wire_bits),
            (m.records, m.frames, m.payload_bits, m.wire_bits),
            "shard {idx} wire stream: {what}"
        );
    }
    if window == 0 {
        assert_eq!(
            filtered.lifeguard_cycles, base.lifeguard_cycles,
            "cycles: {what}"
        );
        assert_eq!(filtered.channels, base.channels, "shard stats: {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Findings equality over random programs, lifeguards and window
    /// sizes (0 included: the bit-for-bit degeneration case).
    #[test]
    fn filtered_findings_match_unfiltered(
        program_idx in 0usize..5,
        lifeguard_idx in 0usize..4,
        window in prop_oneof![Just(0usize), 1usize..16, Just(64usize), Just(1024usize)],
    ) {
        let program = make_program(program_idx);
        assert_filtered_equivalent(&program, lifeguard_idx, window);
    }

    /// The same property through both sharded modes, which must also stay
    /// byte-identical to each other per shard with the window on.
    #[test]
    fn sharded_filtered_findings_match_unfiltered(
        program_idx in 0usize..5,
        use_lockset in prop_oneof![Just(false), Just(true)],
        shards in 1usize..5,
        window in prop_oneof![Just(0usize), 1usize..16, Just(256usize)],
    ) {
        let program = make_program(program_idx);
        // The two shardable lifeguards: AddrCheck (0) and LockSet (2).
        let lifeguard_idx = if use_lockset { 2 } else { 0 };
        assert_parallel_filtered_equivalent(&program, lifeguard_idx, shards, window);
    }
}

#[test]
fn filtered_equivalence_on_a_real_benchmark() {
    // One deterministic heavyweight case per contract outside proptest:
    // a real workload with syscall flushes and eviction-heavy tiny
    // windows.
    let program = make_program(4);
    for lifeguard_idx in 0..4 {
        assert_filtered_equivalent(&program, lifeguard_idx, 3);
        assert_filtered_equivalent(&program, lifeguard_idx, 4096);
    }
    assert_parallel_filtered_equivalent(&program, 0, 4, 1024);
    assert_parallel_filtered_equivalent(&program, 2, 3, 7);
}

#[test]
fn sharded_fold_summaries_route_identically_in_both_modes() {
    // The fold contract through the sharded modes: Repeat summaries are
    // synthesized on the producer and routed by `shard_of` to the shard
    // owning their line (like the accesses they summarize), in both the
    // modeled and live mode — per-shard wire streams must stay
    // byte-identical, and summaries must actually flow.
    let program = Benchmark::Gzip.build();
    for shards in [1, 3] {
        assert_parallel_filtered_equivalent(&program, 3, shards, 256);
    }
    let cfg = with_window(256);
    let report = run(&program, RunMode::LbaParallel, &SHARDED[3], 3, &cfg);
    assert!(
        report.capture.deduped > 0,
        "gzip must fold under MemProfile"
    );
    assert!(report.capture.folded > 0, "summaries must reach the shards");
}

#[test]
fn live_wire_stream_matches_cosim_with_window_on() {
    // The filtered capture pass runs on both producers; the streams must
    // stay byte-identical, which also pins that dedup decisions are
    // deterministic and mode-independent.
    let program = Benchmark::Gzip.build();
    let config = with_window(4096);
    let cosim = run(&program, RunMode::Lba, LifeguardKind::AddrCheck, 1, &config);
    let live = run(
        &program,
        RunMode::Live,
        LifeguardKind::AddrCheck,
        1,
        &config,
    );
    assert!(cosim.log.deduped > 0, "gzip must have duplicates to drop");
    assert_eq!(live.log, cosim.log, "filtered wire streams must agree");
    assert_eq!(live.findings, cosim.findings);
}

fn profile_view(p: &MemoryProfile) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        p.loads,
        p.stores,
        p.bytes_accessed,
        p.allocs,
        p.frees,
        p.bytes_allocated,
        p.live_bytes,
        p.peak_live_bytes,
    )
}

#[test]
fn memprofile_totals_stay_exact_under_folding() {
    // The fold contract's whole point: every suppressed duplicate comes
    // back as a count, so the end-of-run profile is *equal*, not merely
    // close — histograms included.
    for program in [Benchmark::Gzip.build(), make_program(4)] {
        // Lent instances: the profiles are read back after the runs.
        let mut base = MemProfile::new();
        let unfiltered = run(&program, RunMode::Lba, &mut base, 1, &with_window(0));
        let mut folded = MemProfile::new();
        let filtered = run(&program, RunMode::Lba, &mut folded, 1, &with_window(512));

        assert!(filtered.log.deduped > 0, "{}: no folding", program.name());
        assert!(filtered.log.folded > 0, "{}: no summaries", program.name());
        assert!(
            filtered.log.records < unfiltered.log.records,
            "{}: folding must shrink the log",
            program.name()
        );
        let (base_p, fold_p) = (base.profile(), folded.profile());
        assert_eq!(
            profile_view(base_p),
            profile_view(fold_p),
            "{}: totals must be exact",
            program.name()
        );
        assert_eq!(base_p.distinct_lines(), fold_p.distinct_lines());
        assert_eq!(
            base_p.hottest_lines(usize::MAX),
            fold_p.hottest_lines(usize::MAX),
            "{}: line histogram must be exact",
            program.name()
        );
        assert_eq!(
            base_p.hottest_pcs(usize::MAX),
            fold_p.hottest_pcs(usize::MAX),
            "{}: pc histogram must be exact",
            program.name()
        );
    }
}

#[test]
fn dedup_shrinks_records_wire_bits_and_lifeguard_time() {
    // The headline effect on a dedup-heavy workload: fewer records
    // shipped, fewer bits on the wire, less lifeguard-core time — same
    // findings (pinned above).
    let program = Benchmark::Gzip.build();
    let kind = LifeguardKind::AddrCheck;
    let base = modeled(run(&program, RunMode::Lba, kind, 1, &with_window(0)));
    let filtered = modeled(run(&program, RunMode::Lba, kind, 1, &with_window(4096)));

    assert!(filtered.log.deduped > 0);
    assert!(
        filtered.log.records < base.log.records,
        "records: {} -> {}",
        base.log.records,
        filtered.log.records
    );
    assert!(
        filtered.log.wire_bits < base.log.wire_bits,
        "wire bits: {} -> {}",
        base.log.wire_bits,
        filtered.log.wire_bits
    );
    assert!(
        filtered.max_lifeguard_cycles() < base.max_lifeguard_cycles(),
        "lifeguard cycles: {} -> {}",
        base.max_lifeguard_cycles(),
        filtered.max_lifeguard_cycles()
    );
    assert_eq!(filtered.findings, base.findings);
}

#[test]
fn range_filter_and_window_compose_in_one_pass() {
    // Satellite regression: both filters active at once, in every mode
    // that honours the range filter — the single capture pass must apply
    // range-then-window, and live must agree with cosim exactly.
    let program = Benchmark::Gzip.build();
    let mut config = with_window(1024);
    config.log.filter = Some(lba_lifeguard::AddrRangeFilter::new(vec![(
        lba_mem::layout::HEAP_BASE,
        lba_mem::layout::HEAP_END,
    )]));
    let cosim = run(&program, RunMode::Lba, LifeguardKind::AddrCheck, 1, &config);
    let live = run(
        &program,
        RunMode::Live,
        LifeguardKind::AddrCheck,
        1,
        &config,
    );

    assert!(cosim.log.filtered > 0, "range filter must drop");
    assert!(cosim.log.deduped > 0, "window must drop too");
    assert_eq!(live.log, cosim.log, "one pass, both modes");

    // Findings still match a fully unfiltered run: the heap range is
    // sound for AddrCheck, and the window is sound by contract.
    let kind = LifeguardKind::AddrCheck;
    let unfiltered = run(&program, RunMode::Lba, kind, 1, &SystemConfig::default());
    assert_eq!(cosim.findings, unfiltered.findings);
}
