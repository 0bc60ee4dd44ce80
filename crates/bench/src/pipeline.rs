//! End-to-end pipeline throughput: host wall-clock events/sec.
//!
//! Everything else in the reproduction reports *modeled* cycles; this
//! module measures how fast the simulator itself moves events, which is
//! the ROADMAP's "as fast as the hardware allows" axis. The same rows feed
//! three places:
//!
//! * the `pipeline` Criterion bench (`cargo bench -p lba-bench --bench
//!   pipeline`), which compares the frame-granular default against the
//!   pre-batching per-record path kept callable via
//!   `LogConfig::batch_dispatch = false`;
//! * the `figures` binary, which appends the rows to its report;
//! * `BENCH_pipeline.json`, the committed trajectory file every future PR
//!   re-generates to show where host throughput moved.

use std::time::Instant;

use lba::{
    AdaptiveConfig, FaultProfile, LifeguardKind, MonitorChoice, MonitorSpec, RecordConfig, Run,
    RunMode, RunOutcome, SystemConfig,
};
use lba_cache::{MemSystem, MemSystemConfig};
use lba_cpu::Machine;
use lba_lifeguard::DispatchEngine;
use lba_lifeguards::AddrCheck;
use lba_record::EventRecord;
use lba_transport::{LogChannel, ModeledFrameChannel};
use lba_workloads::Benchmark;

/// Every lifeguard's [`lba::MONITORS`] row, so a new lifeguard lands in
/// the bench matrix by adding its registry row — `LifeguardKind` covers
/// the paper's three; the pipeline bench also drives MemProfile.
#[must_use]
pub fn lifeguards() -> Vec<&'static MonitorSpec> {
    lba::MONITORS.iter().collect()
}

/// The lifeguards the sharded (parallel) modes support — those whose
/// registry row declares address-interleaved sharding sound (per-address
/// state only). TaintCheck is excluded: its register state forms a
/// sequential dependence chain through every instruction (same soundness
/// note as the modeled `RunMode::LbaParallel`); it gets its own
/// "taint-parallel" epoch series instead (see [`epoch_speedup`]).
#[must_use]
pub fn sharded_lifeguards() -> Vec<&'static MonitorSpec> {
    lba::MONITORS.iter().filter(|m| m.shardable).collect()
}

/// Shard counts the live-parallel series measures.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Worker counts the epoch-parallel TaintCheck series measures.
pub const EPOCH_WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Modeled-cycle speedup the 4-worker epoch-parallel TaintCheck row must
/// show over the sequential `RunMode::Lba` TaintCheck row — the trajectory
/// gate for the epoch mode's reason to exist.
pub const EPOCH_SPEEDUP_FLOOR: f64 = 1.5;

/// Idempotency-window size (entries) used by the filtered series.
pub const IDEMPOTENT_WINDOW: usize = 4096;

/// The lifeguards whose soundness contract participates in capture-side
/// dedup — derived from each lifeguard's declared
/// `Lifeguard::idempotency()` so the filtered series can never drift
/// from the contracts (today: AddrCheck, LockSet, MemProfile; TaintCheck
/// declares `IdempotencyClass::None` and stays out).
#[must_use]
pub fn idempotent_lifeguards() -> Vec<&'static MonitorSpec> {
    lifeguards()
        .into_iter()
        .filter(|m| (m.make)().idempotency().dedupes())
        .collect()
}

/// One throughput measurement.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Execution mode: `"lba"` (deterministic co-simulation), `"live"`
    /// (two OS threads), `"live-parallel"` (1 producer + N consumer
    /// threads), `"consume"` (isolated consumption path), or `"replay"`
    /// (offline replay of a flight-recorder stream).
    pub mode: &'static str,
    /// Lifeguard name.
    pub lifeguard: &'static str,
    /// Benchmark program.
    pub benchmark: &'static str,
    /// Whether consumption was frame-granular (the default) or the
    /// per-record baseline.
    pub batched: bool,
    /// Lifeguard shard count (1 for the unsharded modes).
    pub shards: usize,
    /// Capture-side idempotency-window entries (0: unfiltered).
    pub window: usize,
    /// Log records shipped (after any capture filtering).
    pub records: u64,
    /// Bits on the wire, frame headers and padding included (summed over
    /// shards in the sharded mode).
    pub wire_bits: u64,
    /// Best-of-N wall-clock seconds.
    pub wall_seconds: f64,
    /// Records per wall-clock second.
    pub events_per_sec: f64,
    /// Modeled end-to-end cycles, for the modes with a deterministic
    /// clock model (`lba` and the modeled `taint-parallel` series); 0 for
    /// the host-wall-clock-only modes. The epoch-parallel speedup claim
    /// is made on this column — wall clock cannot show scaling on a
    /// 1-vCPU box, modeled cycles can.
    pub modeled_cycles: u64,
    /// Fraction of captured events the adaptive controller sampled out
    /// (the `*-degraded` series; 0 everywhere else).
    pub sampled_out_fraction: f64,
}

/// Best-of-`n` wall time of `body` (the min estimator is robust to
/// scheduler noise on shared machines), with the `(records, wire_bits)`
/// pair it reports.
fn best_of<F: FnMut() -> (u64, u64)>(n: usize, mut body: F) -> (u64, u64, f64) {
    let mut best = f64::INFINITY;
    let mut volume = (0, 0);
    for _ in 0..n {
        let start = Instant::now();
        volume = body();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (volume.0, volume.1, best)
}

/// One run of `mode` through the public builder; gzip runs clean under
/// every mode and lifeguard the matrix drives.
fn run<'a>(
    program: &'a lba_isa::Program,
    mode: RunMode,
    monitor: impl Into<MonitorChoice<'a>>,
    workers: usize,
    cfg: &'a SystemConfig,
) -> RunOutcome {
    let request = Run::new(program).mode(mode).monitor(monitor);
    let outcome = request.workers(workers).config(cfg).run();
    outcome.expect("gzip runs clean")
}

/// The modeled end-to-end clock, for the modes that have one.
fn modeled_clock(outcome: &RunOutcome) -> u64 {
    match outcome {
        RunOutcome::Run(report) => report.total_cycles,
        RunOutcome::Live(_) | RunOutcome::Replay(_) => 0,
    }
}

fn config(batched: bool) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.batch_dispatch = batched;
    config
}

fn windowed_config(window: usize) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.idempotency_window = window;
    config
}

/// Runs the full measurement matrix: both single-lifeguard modes, all
/// four lifeguards on gzip, batched and per-record; the sharded live and
/// remote series across shard counts; the epoch-parallel TaintCheck
/// series; the filtered-vs-unfiltered idempotency series; the replay and
/// degraded series; plus the isolated consumption-path pair. `samples`
/// is the best-of-N count per cell.
///
/// * `live-parallel` and `remote` run every shardable lifeguard at each
///   [`SHARD_COUNTS`] entry: the same sharded pipeline, the remote
///   shards' frames crossing a real Unix-domain socket under the credit
///   window instead of an in-process queue. The trajectory gate asserts
///   each remote row's wire bits byte-identical to the matching
///   live-parallel row: the socket must move the exact same stream,
///   paying only wall clock for the kernel round-trips.
/// * `taint-parallel` and `live-taint-parallel` run TaintCheck, the one
///   lifeguard the sharded modes cannot split, parallelised by
///   time-slicing instead (`RunMode::EpochParallel` /
///   `RunMode::LiveEpochParallel`): whole epochs to workers computing
///   symbolic transfer-function summaries, a merge core stitching them in
///   order. The worker count rides the `shards` column. The modeled
///   series' `modeled_cycles` carries its end-to-end clock, and the
///   trajectory gate demands the 4-worker row beat the sequential
///   `lba`/`taintcheck` row by [`EPOCH_SPEEDUP_FLOOR`] on that column
///   (wall clock cannot show scaling on a 1-vCPU host; the deterministic
///   clock model can); the live series is wall-clock only.
/// * The filtered series runs every dedup-participating lifeguard
///   through both single-lifeguard modes with the capture-side
///   idempotency window on. The unfiltered counterpart rows are the
///   window-0 cells of the main matrix; these rows show the same workload
///   shipping fewer records and wire bits (and, on real parallel
///   hardware, spending less lifeguard time).
#[must_use]
pub fn measure_pipeline(samples: usize) -> Vec<PipelineRow> {
    let program = Benchmark::Gzip.build();
    let cell = |series, mode, monitor, workers, cfg: &SystemConfig| {
        measure_cell(series, mode, monitor, workers, cfg, &program, samples)
    };
    let single = [RunMode::Lba, RunMode::Live];
    let mut rows = measure_consume(samples);
    for monitor in lifeguards() {
        for batched in [true, false] {
            for mode in single {
                rows.push(cell(mode.name(), mode, monitor, 1, &config(batched)));
            }
        }
    }
    for mode in [RunMode::LiveParallel, RunMode::Remote] {
        for monitor in sharded_lifeguards() {
            for shards in SHARD_COUNTS {
                rows.push(cell(mode.name(), mode, monitor, shards, &config(true)));
            }
        }
    }
    let epoch = [
        ("taint-parallel", RunMode::EpochParallel),
        ("live-taint-parallel", RunMode::LiveEpochParallel),
    ];
    for (series, mode) in epoch {
        for monitor in lba::MONITORS.iter().filter(|m| m.epoch) {
            for workers in EPOCH_WORKER_COUNTS {
                rows.push(cell(series, mode, monitor, workers, &config(true)));
            }
        }
    }
    for monitor in idempotent_lifeguards() {
        for mode in single {
            rows.push(cell(
                mode.name(),
                mode,
                monitor,
                1,
                &windowed_config(IDEMPOTENT_WINDOW),
            ));
        }
    }
    rows.extend(measure_replay(samples));
    rows.extend(measure_degraded(samples));
    rows
}

/// One cell of the matrix: best-of-`samples` runs of `monitor` over
/// `program` in `mode` with `workers` shards or epoch workers, reported
/// as a `series` row. The events/sec numerator is *captured* (retired)
/// events, not shipped records: a capture filter shrinks the log, not the
/// workload, and a sharded mode ships broadcast records once per shard —
/// transport duplication, not new events, which would manufacture
/// phantom speedup — so the rate stays comparable across filtered,
/// unfiltered and sharded rows. For the same reason a sharded row
/// reports the retired count as its `records`.
fn measure_cell(
    series: &'static str,
    mode: RunMode,
    monitor: &'static MonitorSpec,
    workers: usize,
    cfg: &SystemConfig,
    program: &lba_isa::Program,
    samples: usize,
) -> PipelineRow {
    let sharded = matches!(mode, RunMode::LiveParallel | RunMode::Remote);
    let (mut captured, mut modeled_cycles) = (0, 0);
    let (records, wire_bits, wall) = best_of(samples, || {
        let report = run(program, mode, monitor, workers, cfg);
        captured = report.log.captured;
        modeled_cycles = modeled_clock(&report);
        let shipped = if sharded {
            captured
        } else {
            report.log.records
        };
        (shipped, report.log.wire_bits)
    });
    PipelineRow {
        mode: series,
        lifeguard: monitor.name,
        benchmark: "gzip",
        batched: cfg.log.batch_dispatch,
        shards: workers,
        window: cfg.log.idempotency_window,
        records,
        wire_bits,
        wall_seconds: wall,
        events_per_sec: captured as f64 / wall,
        modeled_cycles,
        sampled_out_fraction: 0.0,
    }
}

/// The offline-replay series: gzip's wire stream is recorded once through
/// the flight recorder (`LogConfig::record_to`), then `RunMode::Replay`
/// re-drives the recording through each lifeguard at host speed — decode
/// and dispatch only, no application simulation. One recording, four
/// analyses: the paper's retroactive-monitoring pitch as a throughput
/// row. Every replay's wire-bit accounting is asserted byte-identical to
/// the recorded run before the row is reported.
#[must_use]
pub fn measure_replay(samples: usize) -> Vec<PipelineRow> {
    let program = Benchmark::Gzip.build();
    let dir = std::env::temp_dir().join(format!("lba-bench-replay-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut record_cfg = SystemConfig::default();
    record_cfg.log.record_to = Some(RecordConfig::new(&dir));
    let recorded = run(
        &program,
        RunMode::Lba,
        LifeguardKind::AddrCheck,
        1,
        &record_cfg,
    );

    let cfg = SystemConfig::default();
    let mut rows = Vec::new();
    for monitor in lifeguards() {
        let (records, wire_bits, wall) = best_of(samples, || {
            let replay = Run::new(&program)
                .mode(RunMode::Replay)
                .monitor(monitor)
                .config(&cfg)
                .replay_from(&dir)
                .run()
                .expect("recording replays clean");
            assert_eq!(
                replay.log.wire_bits, recorded.log.wire_bits,
                "replay wire accounting must be byte-identical to the recording"
            );
            (replay.log.records, replay.log.wire_bits)
        });
        rows.push(PipelineRow {
            mode: "replay",
            lifeguard: monitor.name,
            benchmark: "gzip",
            batched: true,
            shards: 1,
            window: 0,
            records,
            wire_bits,
            wall_seconds: wall,
            events_per_sec: records as f64 / wall,
            modeled_cycles: 0,
            sampled_out_fraction: 0.0,
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}

/// The lifeguards whose declared `Lifeguard::degradation()` contract
/// tolerates anything — derived from the contracts so the degraded
/// series can never drift from them (today: AddrCheck, LockSet,
/// MemProfile; TaintCheck declares `DegradationPolicy::none()` and
/// stays out).
#[must_use]
pub fn degradable_lifeguards() -> Vec<&'static MonitorSpec> {
    lifeguards()
        .into_iter()
        .filter(|m| !(m.make)().degradation().is_none())
        .collect()
}

/// The injected-fault configs the degraded series runs under, per mode.
/// `adaptive` toggles the controller; the fault profile and buffer budget
/// are identical either way, so the degraded row and its uncontrolled
/// counterpart face the *same* load (the trajectory gate compares the
/// two). The cosim flavour shrinks the modeled buffer so the slow-drain
/// back-pressure genuinely climbs past the engage threshold; the live
/// flavour drags the real consumer against a one-frame queue — the same
/// shapes `tests/degradation.rs` pins as reliably engaging.
#[must_use]
pub fn fault_config(mode: &str, adaptive: bool) -> SystemConfig {
    let mut config = SystemConfig::default();
    if adaptive {
        config.log.adaptive = Some(AdaptiveConfig {
            engage_permille: 300,
            disengage_permille: 100,
            sample_stride: 16,
            ..AdaptiveConfig::default()
        });
    }
    if mode == "lba" {
        config.log.fault = Some(FaultProfile::slow_drain(42));
        config.log.buffer_bytes = 2 << 10;
    } else {
        config.log.fault = Some(FaultProfile {
            drain_drag: 20_000,
            ..FaultProfile::default()
        });
        config.log.buffer_bytes = 64;
    }
    config
}

/// The adaptive-degradation series: every contract-degradable lifeguard
/// through both single-lifeguard modes under injected slow-drain, twice —
/// once with the controller off (`*-faulted`: the uncontrolled baseline
/// suffering the full load) and once with it on (`*-degraded`). The
/// trajectory gate demands the degraded row move events at least as fast
/// as its uncontrolled counterpart under the identical fault profile —
/// degradation must buy throughput, not just bookkeep — and the
/// `sampled_out_fraction` column records how much of the stream the
/// controller thinned to do it.
#[must_use]
pub fn measure_degraded(samples: usize) -> Vec<PipelineRow> {
    let program = Benchmark::Gzip.build();
    let mut rows = Vec::new();
    for monitor in degradable_lifeguards() {
        for mode in [RunMode::Lba, RunMode::Live] {
            for adaptive in [false, true] {
                let cfg = fault_config(mode.name(), adaptive);
                let mut captured = 0;
                let mut sampled_out = 0;
                let mut modeled_cycles = 0;
                let (records, wire_bits, wall) = best_of(samples, || {
                    let report = run(&program, mode, monitor, 1, &cfg);
                    modeled_cycles = modeled_clock(&report);
                    let degradation = &report.degradation;
                    assert_eq!(
                        degradation.is_empty(),
                        !adaptive,
                        "{mode}/{}: the controller must engage exactly when configured",
                        monitor.name
                    );
                    captured = report.log.captured + degradation.removed();
                    sampled_out = degradation.sampled_out;
                    (report.log.records, report.log.wire_bits)
                });
                rows.push(PipelineRow {
                    mode: match (mode, adaptive) {
                        (RunMode::Lba, true) => "lba-degraded",
                        (RunMode::Lba, false) => "lba-faulted",
                        (_, true) => "live-degraded",
                        (_, false) => "live-faulted",
                    },
                    lifeguard: monitor.name,
                    benchmark: "gzip",
                    batched: true,
                    shards: 1,
                    window: 0,
                    records,
                    wire_bits,
                    wall_seconds: wall,
                    events_per_sec: captured as f64 / wall,
                    modeled_cycles,
                    sampled_out_fraction: sampled_out as f64 / captured as f64,
                });
            }
        }
    }
    rows
}

/// The degradation payoff: a `{mode}-degraded` row's events/sec over the
/// `{mode}-faulted` row of the same lifeguard — controller on vs off
/// under the identical injected fault profile.
#[must_use]
pub fn degraded_speedup(rows: &[PipelineRow], mode: &str, lifeguard: &str) -> Option<f64> {
    let find = |suffix: &str| {
        let mode = format!("{mode}-{suffix}");
        rows.iter()
            .find(|r| r.mode == mode && r.lifeguard == lifeguard)
    };
    let degraded = find("degraded")?;
    let faulted = find("faulted")?;
    Some(degraded.events_per_sec / faulted.events_per_sec)
}

/// Captures gzip's record stream once (for the consumption-path cells).
#[must_use]
pub fn capture_stream() -> Vec<EventRecord> {
    let program = Benchmark::Gzip.build();
    let cfg = SystemConfig::default();
    let mut machine = Machine::new(&program, cfg.machine);
    let mut mem = MemSystem::new(cfg.mem_single());
    let mut records = Vec::new();
    machine
        .run(&mut mem, |r| records.push(r.record))
        .expect("gzip runs clean");
    records
}

/// Fills a channel with the whole stream. The per-record baseline decodes
/// on pop, so it gets the software-decoding channel; the batched path gets
/// the zero-copy one — the same pairing `RunMode::Lba` wires up.
fn fill_channel(records: &[EventRecord], batched: bool) -> ModeledFrameChannel {
    let fc = SystemConfig::default().log.frame_config();
    let mut ch = if batched {
        ModeledFrameChannel::zero_copy(1 << 26, fc, false)
    } else {
        ModeledFrameChannel::new(1 << 26, fc, false)
    };
    for (i, rec) in records.iter().enumerate() {
        ch.push_record(rec, i as u64);
    }
    ch.flush(records.len() as u64);
    ch
}

/// Pushes the stream and consumes it per-record (`pop_record` +
/// `deliver`); returns the lifeguard cycles charged.
#[must_use]
pub fn consume_per_record(records: &[EventRecord]) -> u64 {
    let mut ch = fill_channel(records, false);
    let engine = DispatchEngine::default();
    let mut mem = MemSystem::new(MemSystemConfig::dual_core());
    let mut lg = AddrCheck::new();
    let mut findings = Vec::new();
    let mut cycles = 0;
    while let Some(popped) = ch.pop_record() {
        cycles += engine.deliver(&mut lg, &popped.record, &mut mem, 1, &mut findings);
    }
    cycles
}

/// Pushes the stream and consumes it frame-at-a-time (`pop_frame` +
/// `deliver_batch`); returns the lifeguard cycles charged.
#[must_use]
pub fn consume_batched(records: &[EventRecord]) -> u64 {
    let mut ch = fill_channel(records, true);
    let engine = DispatchEngine::default();
    let mut mem = MemSystem::new(MemSystemConfig::dual_core());
    let mut lg = AddrCheck::new();
    let mut findings = Vec::new();
    let mut cycles = 0;
    while let Some(frame) = ch.pop_frame() {
        cycles += engine.deliver_batch(&mut lg, frame.records, &mut mem, 1, &mut findings);
    }
    cycles
}

/// The isolated consumption-path cells: identical pre-captured stream and
/// channel fill, only the consumption granularity differs — the purest
/// contrast between the batched path and the pre-change per-record path.
#[must_use]
pub fn measure_consume(samples: usize) -> Vec<PipelineRow> {
    let stream = capture_stream();
    assert_eq!(
        consume_per_record(&stream),
        consume_batched(&stream),
        "consumption paths must charge identical cycles"
    );
    let n = stream.len() as u64;
    let wire_bits = fill_channel(&stream, true).stats().wire_bits;
    let mut rows = Vec::new();
    for batched in [true, false] {
        let (_, _, wall) = best_of(samples, || {
            if batched {
                (consume_batched(&stream), 0)
            } else {
                (consume_per_record(&stream), 0)
            }
        });
        rows.push(PipelineRow {
            mode: "consume",
            lifeguard: "addrcheck",
            benchmark: "gzip",
            batched,
            shards: 1,
            window: 0,
            records: n,
            wire_bits,
            wall_seconds: wall,
            events_per_sec: n as f64 / wall,
            modeled_cycles: 0,
            sampled_out_fraction: 0.0,
        });
    }
    rows
}

/// The headline ratio: batched over per-record events/sec for one
/// mode+lifeguard pair (unfiltered rows only), if both are present.
#[must_use]
pub fn speedup(rows: &[PipelineRow], mode: &str, lifeguard: &str) -> Option<f64> {
    let find = |batched: bool| {
        rows.iter().find(|r| {
            r.mode == mode
                && r.lifeguard == lifeguard
                && r.batched == batched
                && r.window == 0
                && r.records > 0
        })
    };
    let batched = find(true)?;
    let baseline = find(false)?;
    Some(batched.events_per_sec / baseline.events_per_sec)
}

/// The filtered ratio: a windowed row's events/sec over the unfiltered
/// (window 0, batched) row of the same mode and lifeguard. The fraction
/// of the log the window removed is deterministic; this rate ratio is
/// the wall-clock echo of it.
#[must_use]
pub fn dedup_speedup(rows: &[PipelineRow], mode: &str, lifeguard: &str) -> Option<f64> {
    let find = |window0: bool| {
        rows.iter().find(|r| {
            r.mode == mode
                && r.lifeguard == lifeguard
                && r.batched
                && (r.window == 0) == window0
                && r.records > 0
        })
    };
    let filtered = find(false)?;
    let baseline = find(true)?;
    Some(filtered.events_per_sec / baseline.events_per_sec)
}

/// The epoch-parallel ratio: the sequential `lba`/`taintcheck` row's
/// modeled cycles over the modeled `taint-parallel` row's at `workers`
/// workers, if both are present. Computed on the deterministic clock
/// model, not wall clock — the host may not have the cores to show the
/// overlap, the model does.
#[must_use]
pub fn epoch_speedup(rows: &[PipelineRow], workers: usize) -> Option<f64> {
    let sequential = rows.iter().find(|r| {
        r.mode == "lba"
            && r.lifeguard == "taintcheck"
            && r.batched
            && r.window == 0
            && r.modeled_cycles > 0
    })?;
    let parallel = rows
        .iter()
        .find(|r| r.mode == "taint-parallel" && r.shards == workers && r.modeled_cycles > 0)?;
    Some(sequential.modeled_cycles as f64 / parallel.modeled_cycles as f64)
}

/// The sharded ratio: a live-parallel row's events/sec over the one-shard
/// row of the same lifeguard, if both are present. On genuinely parallel
/// hardware this is the scaling curve; on a 1-vCPU box it hovers near (or
/// below) 1.0 because the threads cannot overlap.
#[must_use]
pub fn shard_speedup(rows: &[PipelineRow], lifeguard: &str, shards: usize) -> Option<f64> {
    let find = |shards: usize| {
        rows.iter()
            .find(|r| r.mode == "live-parallel" && r.lifeguard == lifeguard && r.shards == shards)
    };
    let sharded = find(shards)?;
    let single = find(1)?;
    Some(sharded.events_per_sec / single.events_per_sec)
}

/// The socket tax: a remote row's events/sec over the live-parallel row
/// at the same lifeguard and worker count. Both modes move the identical
/// sealed stream through the identical sharded lifeguards; the ratio
/// isolates what the Unix-domain-socket hop (syscalls, copies, credit
/// round-trips) costs against the in-process channel.
#[must_use]
pub fn socket_overhead(rows: &[PipelineRow], lifeguard: &str, shards: usize) -> Option<f64> {
    let find = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.lifeguard == lifeguard && r.shards == shards)
    };
    let remote = find("remote")?;
    let in_process = find("live-parallel")?;
    Some(remote.events_per_sec / in_process.events_per_sec)
}

/// Renders the pipeline-throughput table.
#[must_use]
pub fn render_pipeline(rows: &[PipelineRow]) -> String {
    use lba::table::TextTable;
    let mut t = TextTable::new([
        "mode",
        "lifeguard",
        "benchmark",
        "path",
        "shards",
        "window",
        "records",
        "Mevents/s",
        "speedup",
    ]);
    for row in rows {
        let speedup = if row.window > 0 {
            dedup_speedup(rows, row.mode, row.lifeguard)
                .map_or(String::new(), |s| format!("{s:.2}x vs unfiltered"))
        } else if row.mode == "live-parallel" && row.shards > 1 {
            shard_speedup(rows, row.lifeguard, row.shards)
                .map_or(String::new(), |s| format!("{s:.2}x vs 1 shard"))
        } else if row.mode == "remote" {
            socket_overhead(rows, row.lifeguard, row.shards)
                .map_or(String::new(), |s| format!("{s:.2}x vs in-process"))
        } else if row.mode == "taint-parallel" {
            epoch_speedup(rows, row.shards)
                .map_or(String::new(), |s| format!("{s:.2}x vs sequential"))
        } else if row.mode == "live-taint-parallel" {
            String::new()
        } else if let Some(base) = row.mode.strip_suffix("-degraded") {
            degraded_speedup(rows, base, row.lifeguard)
                .map_or(String::new(), |s| format!("{s:.2}x vs uncontrolled"))
        } else if row.mode.ends_with("-faulted") {
            String::new()
        } else if row.batched {
            speedup(rows, row.mode, row.lifeguard)
                .map_or(String::new(), |s| format!("{s:.2}x vs per-record"))
        } else {
            String::new()
        };
        t.row([
            row.mode.to_string(),
            row.lifeguard.to_string(),
            row.benchmark.to_string(),
            if row.batched {
                "frame-batched".to_string()
            } else {
                "per-record".to_string()
            },
            row.shards.to_string(),
            row.window.to_string(),
            row.records.to_string(),
            format!("{:.2}", row.events_per_sec / 1e6),
            speedup,
        ]);
    }
    format!("Pipeline host throughput (wall clock, best-of-N)\n{t}")
}

/// Serializes the rows as the `BENCH_pipeline.json` trajectory document.
/// Hand-rolled JSON: the environment is air-gapped, so no serde.
#[must_use]
pub fn pipeline_json(rows: &[PipelineRow]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"pipeline\",\n  \"unit\": \"events_per_sec\",\n  \"results\": [\n",
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"lifeguard\": \"{}\", \"benchmark\": \"{}\", \"batched\": {}, \"shards\": {}, \"window\": {}, \"records\": {}, \"wire_bits\": {}, \"modeled_cycles\": {}, \"sampled_out_fraction\": {:.6}, \"wall_seconds\": {:.6}, \"events_per_sec\": {:.0}}}{sep}\n",
            row.mode, row.lifeguard, row.benchmark, row.batched, row.shards, row.window, row.records, row.wire_bits, row.modeled_cycles, row.sampled_out_fraction, row.wall_seconds, row.events_per_sec,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One value out of a serialized row line, e.g. `row_field(line,
/// "records")`. The trajectory file is hand-rolled JSON with one row per
/// line (the environment is air-gapped, so no serde), which keeps this
/// honest-but-simple extraction sound.
fn row_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn row_u64(line: &str, key: &str) -> Result<u64, String> {
    row_field(line, key)
        .ok_or_else(|| format!("row missing {key}: {line}"))?
        .parse()
        .map_err(|e| format!("bad {key} in {line}: {e}"))
}

fn row_f64(line: &str, key: &str) -> Result<f64, String> {
    row_field(line, key)
        .ok_or_else(|| format!("row missing {key}: {line}"))?
        .parse()
        .map_err(|e| format!("bad {key} in {line}: {e}"))
}

/// The identity of every result row — everything but the measurements.
/// Two trajectory documents with equal key sets have the same *schema*
/// (same series, same cells); only the numbers moved.
///
/// # Errors
///
/// Returns a description of the first malformed row.
pub fn trajectory_keys(json: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let mut keys = std::collections::BTreeSet::new();
    for line in json.lines().filter(|l| l.contains("\"mode\"")) {
        let mut key = String::new();
        for field in [
            "mode",
            "lifeguard",
            "benchmark",
            "batched",
            "shards",
            "window",
        ] {
            let value =
                row_field(line, field).ok_or_else(|| format!("row missing {field}: {line}"))?;
            key.push_str(value);
            key.push('/');
        }
        if !keys.insert(key.clone()) {
            return Err(format!("duplicate row {key}"));
        }
    }
    Ok(keys)
}

/// Validates a `BENCH_pipeline.json` document's shape: every series the
/// trajectory promises must be present, every row must carry the full
/// key set, and the deterministic claims — the filtered series ships
/// fewer records and wire bits than its unfiltered counterpart,
/// TaintCheck stays out of the sharded and filtered series — must hold.
/// Shared by the `tests/figures_smoke.rs` assertion on the committed
/// file and the `figures --bench-smoke` CI gate on a freshly emitted
/// one, so the two cannot drift.
///
/// # Errors
///
/// Returns a description of the first violated expectation.
pub fn validate_trajectory(json: &str) -> Result<(), String> {
    for header in ["\"bench\": \"pipeline\"", "\"unit\": \"events_per_sec\""] {
        if !json.contains(header) {
            return Err(format!("missing header {header}"));
        }
    }

    let rows = json.matches("\"mode\"").count();
    if rows == 0 {
        return Err("no result rows at all".into());
    }
    // (`:` included so the header's `"unit": "events_per_sec"` value
    // doesn't count as a key.)
    for key in [
        "\"shards\":",
        "\"window\":",
        "\"records\":",
        "\"wire_bits\":",
        "\"modeled_cycles\":",
        "\"sampled_out_fraction\":",
        "\"events_per_sec\":",
    ] {
        let count = json.matches(key).count();
        if count != rows {
            return Err(format!("{count} of {rows} rows carry {key}"));
        }
    }

    // The series: the consumption-only pair plus every trajectory series
    // a registry run mode owns — derived from `lba::RUN_MODES`, so the
    // committed trajectory and the registry cannot drift apart (a mode
    // added to or dropped from the registry fails this check until the
    // trajectory is regenerated).
    let series: Vec<&'static str> = std::iter::once("consume")
        .chain(
            lba::RUN_MODES
                .iter()
                .flat_map(|m| m.bench_series.iter().copied()),
        )
        .collect();
    for mode in series {
        if !json.contains(&format!("\"mode\": \"{mode}\"")) {
            return Err(format!("missing series {mode}"));
        }
    }
    // Single-lifeguard modes cover every registered lifeguard…
    for monitor in &lba::MONITORS {
        if !json.contains(&format!(
            "\"mode\": \"lba\", \"lifeguard\": \"{}\"",
            monitor.name
        )) {
            return Err(format!("missing lba/{}", monitor.name));
        }
    }
    // …the live-parallel series covers every registry-declared shardable
    // lifeguard at every shard count, and nothing else (address
    // interleaving is unsound for the rest — TaintCheck's register state
    // is a sequential dependence chain)…
    for monitor in &lba::MONITORS {
        if monitor.shardable {
            for shards in SHARD_COUNTS {
                let row = format!(
                    "\"mode\": \"live-parallel\", \"lifeguard\": \"{}\", \
                     \"benchmark\": \"gzip\", \"batched\": true, \"shards\": {shards}",
                    monitor.name
                );
                if !json.contains(&row) {
                    return Err(format!(
                        "missing live-parallel/{} at {shards} shards",
                        monitor.name
                    ));
                }
            }
        } else if json.contains(&format!(
            "\"mode\": \"live-parallel\", \"lifeguard\": \"{}\"",
            monitor.name
        )) {
            return Err(format!(
                "{} must stay out of the sharded series",
                monitor.name
            ));
        }
    }

    // …the remote series mirrors the live-parallel coverage (same
    // shardable-only eligibility, same worker counts) and its wire bits
    // must be *byte-identical* to the matching live-parallel row: the
    // socket hop is a transport, not a re-encode, so the exact same
    // sealed frames cross it…
    for monitor in &lba::MONITORS {
        if monitor.shardable {
            for workers in SHARD_COUNTS {
                let tag = format!(
                    "\"mode\": \"remote\", \"lifeguard\": \"{}\", \
                     \"benchmark\": \"gzip\", \"batched\": true, \"shards\": {workers}",
                    monitor.name
                );
                let Some(remote_row) = json.lines().find(|l| l.contains(&tag)) else {
                    return Err(format!(
                        "missing remote/{} at {workers} workers",
                        monitor.name
                    ));
                };
                let lp_tag = format!(
                    "\"mode\": \"live-parallel\", \"lifeguard\": \"{}\", \
                     \"benchmark\": \"gzip\", \"batched\": true, \"shards\": {workers}",
                    monitor.name
                );
                let lp_row = json.lines().find(|l| l.contains(&lp_tag)).ok_or_else(|| {
                    format!("missing live-parallel twin for remote/{}", monitor.name)
                })?;
                let remote_wire = row_u64(remote_row, "wire_bits")?;
                let lp_wire = row_u64(lp_row, "wire_bits")?;
                if remote_wire != lp_wire {
                    return Err(format!(
                        "remote/{} at {workers} workers shipped {remote_wire} wire bits, \
                         but live-parallel shipped {lp_wire}: the socket must carry the \
                         identical sealed stream",
                        monitor.name
                    ));
                }
            }
        } else if json.contains(&format!(
            "\"mode\": \"remote\", \"lifeguard\": \"{}\"",
            monitor.name
        )) {
            return Err(format!(
                "{} must stay out of the remote series",
                monitor.name
            ));
        }
    }

    // …the epoch-parallel series covers both execution models at every
    // worker count (workers ride the shards column)…
    for mode in ["taint-parallel", "live-taint-parallel"] {
        for workers in EPOCH_WORKER_COUNTS {
            let row = format!(
                "\"mode\": \"{mode}\", \"lifeguard\": \"taintcheck\", \
                 \"benchmark\": \"gzip\", \"batched\": true, \"shards\": {workers}"
            );
            if !json.contains(&row) {
                return Err(format!("missing {mode} at {workers} workers"));
            }
        }
    }
    // …and the 4-worker modeled row delivers the speedup the epoch mode
    // exists for: at least EPOCH_SPEEDUP_FLOOR fewer modeled cycles than
    // the sequential TaintCheck co-simulation.
    let sequential_row = json
        .lines()
        .find(|l| {
            l.contains(
                "\"mode\": \"lba\", \"lifeguard\": \"taintcheck\", \"benchmark\": \"gzip\", \
                 \"batched\": true, \"shards\": 1, \"window\": 0,",
            )
        })
        .ok_or("missing sequential lba/taintcheck row")?;
    let parallel_row = json
        .lines()
        .find(|l| {
            l.contains("\"mode\": \"taint-parallel\", \"lifeguard\": \"taintcheck\"")
                && l.contains("\"shards\": 4,")
        })
        .ok_or("missing taint-parallel row at 4 workers")?;
    let sequential_cycles = row_u64(sequential_row, "modeled_cycles")?;
    let parallel_cycles = row_u64(parallel_row, "modeled_cycles")?;
    if parallel_cycles == 0 {
        return Err("taint-parallel row carries no modeled cycles".into());
    }
    let speedup = sequential_cycles as f64 / parallel_cycles as f64;
    if speedup < EPOCH_SPEEDUP_FLOOR {
        return Err(format!(
            "epoch-parallel TaintCheck at 4 workers must be >= {EPOCH_SPEEDUP_FLOOR}x the \
             sequential modeled cycles, got {speedup:.2}x \
             ({sequential_cycles} vs {parallel_cycles})"
        ));
    }

    // …and the filtered-vs-unfiltered series covers every lifeguard whose
    // soundness contract participates in capture-side dedup, through both
    // single-lifeguard modes, demonstrably shrinking the shipped log.
    let find_row = |mode: &str, lifeguard: &str, window: usize| -> Result<&str, String> {
        let tag = format!(
            "\"mode\": \"{mode}\", \"lifeguard\": \"{lifeguard}\", \"benchmark\": \"gzip\", \
             \"batched\": true, \"shards\": 1, \"window\": {window},"
        );
        json.lines()
            .find(|l| l.contains(&tag))
            .ok_or_else(|| format!("missing {mode}/{lifeguard} row at window {window}"))
    };
    let idempotent: Vec<&'static str> = idempotent_lifeguards()
        .into_iter()
        .map(|m| m.name)
        .collect();
    for mode in ["lba", "live"] {
        for &lifeguard in &idempotent {
            let filtered = find_row(mode, lifeguard, IDEMPOTENT_WINDOW)?;
            let unfiltered = find_row(mode, lifeguard, 0)?;
            let what = format!("{mode}/{lifeguard}");
            if row_u64(filtered, "records")? >= row_u64(unfiltered, "records")? {
                return Err(format!("{what}: filtering must ship fewer records"));
            }
            // Fewer records must also mean fewer bits, for *every*
            // contract. This pins the compressor's dedup-awareness: the
            // holes suppression punches in the record stream make the
            // admitted successor of a PC alternate among a small recent
            // set, and the MRU successor stack keeps each alternation a
            // couple of bits instead of a varint escape. A regression
            // here means a heavily-deduped stream (LockSet's
            // exact-address window) ships more wire than the unfiltered
            // run again.
            if row_u64(filtered, "wire_bits")? >= row_u64(unfiltered, "wire_bits")? {
                return Err(format!("{what}: filtering must ship fewer wire bits"));
            }
        }
    }
    for name in lifeguards().into_iter().map(|m| m.name) {
        if idempotent.contains(&name) {
            continue;
        }
        let windowed = json
            .lines()
            .filter(|l| l.contains(&format!("\"lifeguard\": \"{name}\"")))
            .any(|l| row_field(l, "window") != Some("0"));
        if windowed {
            return Err(format!(
                "{name} declares IdempotencyClass::None; it has no filtered row"
            ));
        }
    }

    // …and the adaptive-degradation series covers every lifeguard whose
    // degradation contract tolerates anything, through both
    // single-lifeguard modes. The claim being gated: under the identical
    // injected fault profile, the controller-on row relieves the choked
    // channel instead of merely recording that it was choked. Three
    // deterministic legs, one per axis the relief shows on:
    //
    // * every degraded row ships strictly fewer wire bits than its
    //   uncontrolled counterpart — true even for LockSet's widen-only
    //   contract, whose whole relief is the widened dedup window;
    // * the cosim pair is judged on *modeled* cycles — the slow drain
    //   there is modeled, so its cost is invisible to the host wall
    //   clock (the same reason the epoch-parallel gate uses this
    //   column), while the modeled producer stalls it causes are
    //   exactly what shipping fewer bits relieves;
    // * the live pairs whose contracts sample are judged on host
    //   events/sec — the drag there burns real consumer time per frame,
    //   so thinning the stream must buy real throughput.
    let degraded_row = |mode: &str, suffix: &str, lifeguard: &str| -> Result<&str, String> {
        let tag = format!("\"mode\": \"{mode}-{suffix}\", \"lifeguard\": \"{lifeguard}\"");
        json.lines()
            .find(|l| l.contains(&tag))
            .ok_or_else(|| format!("missing {mode}-{suffix}/{lifeguard} row"))
    };
    let degradable: Vec<&'static str> = degradable_lifeguards()
        .into_iter()
        .map(|m| m.name)
        .collect();
    for mode in ["lba", "live"] {
        for &lifeguard in &degradable {
            let degraded = degraded_row(mode, "degraded", lifeguard)?;
            let faulted = degraded_row(mode, "faulted", lifeguard)?;
            let what = format!("{mode}/{lifeguard}");
            if row_u64(degraded, "wire_bits")? >= row_u64(faulted, "wire_bits")? {
                return Err(format!("{what}: degradation must relieve the wire"));
            }
            if row_f64(faulted, "sampled_out_fraction")? != 0.0 {
                return Err(format!("{what}: no controller, nothing sampled out"));
            }
            let fraction = row_f64(degraded, "sampled_out_fraction")?;
            // A contract that declares no sampling (LockSet: a
            // sampled-out access could be a fresh word's first touch)
            // must show none; the rest must actually thin the stream.
            let samples = lifeguards()
                .into_iter()
                .find(|m| m.name == lifeguard)
                .is_some_and(|m| (m.make)().degradation().sampling.is_some());
            if !samples {
                if fraction != 0.0 {
                    return Err(format!("{what}: {lifeguard} declares no sampling"));
                }
            } else if fraction <= 0.0 {
                return Err(format!("{what}: sampling must bite, got {fraction}"));
            }
            if mode == "lba" {
                let controlled = row_u64(degraded, "modeled_cycles")?;
                let uncontrolled = row_u64(faulted, "modeled_cycles")?;
                if controlled == 0 || uncontrolled == 0 {
                    return Err(format!("{what}: cosim rows must carry modeled cycles"));
                }
                if controlled > uncontrolled {
                    return Err(format!(
                        "{what}: degraded capture must not cost modeled cycles under the \
                         same injected load, got {controlled} vs {uncontrolled}"
                    ));
                }
            } else if fraction > 0.0 {
                let controlled = row_f64(degraded, "events_per_sec")?;
                let uncontrolled = row_f64(faulted, "events_per_sec")?;
                if controlled < uncontrolled {
                    return Err(format!(
                        "{what}: degraded capture must beat the uncontrolled run under \
                         the same injected load, got {controlled:.0} vs {uncontrolled:.0} \
                         events/sec"
                    ));
                }
            }
        }
    }
    for name in lifeguards().into_iter().map(|m| m.name) {
        if degradable.contains(&name) {
            continue;
        }
        for suffix in ["degraded", "faulted"] {
            if json.contains(&format!("-{suffix}\", \"lifeguard\": \"{name}\"")) {
                return Err(format!(
                    "{name} declares DegradationPolicy::none(); it has no degraded row"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(mode: &'static str, batched: bool, shards: usize, events_per_sec: f64) -> PipelineRow {
        PipelineRow {
            mode,
            lifeguard: "addrcheck",
            benchmark: "gzip",
            batched,
            shards,
            window: 0,
            records: 10,
            wire_bits: 800,
            wall_seconds: 10.0 / events_per_sec,
            events_per_sec,
            modeled_cycles: 0,
            sampled_out_fraction: 0.0,
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let rows = vec![row("lba", true, 1, 20.0), row("lba", false, 1, 10.0)];
        let json = pipeline_json(&rows);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"mode\"").count(), 2, "one per row");
        assert_eq!(
            json.matches("\"shards\"").count(),
            2,
            "every row carries its shard count"
        );
        assert!(!json.contains(",\n  ]"), "no trailing comma");
        assert_eq!(speedup(&rows, "lba", "addrcheck"), Some(2.0));
        let table = render_pipeline(&rows);
        assert!(table.contains("frame-batched"));
        assert!(table.contains("2.00x vs per-record"));
    }

    #[test]
    fn shard_speedup_compares_against_one_shard() {
        let rows = vec![
            row("live-parallel", true, 1, 10.0),
            row("live-parallel", true, 2, 15.0),
            row("live-parallel", true, 4, 30.0),
        ];
        assert_eq!(shard_speedup(&rows, "addrcheck", 4), Some(3.0));
        assert_eq!(shard_speedup(&rows, "lockset", 4), None);
        let table = render_pipeline(&rows);
        assert!(table.contains("3.00x vs 1 shard"));
    }

    #[test]
    fn socket_overhead_compares_against_the_in_process_twin() {
        let rows = vec![
            row("live-parallel", true, 2, 20.0),
            row("remote", true, 2, 15.0),
        ];
        assert_eq!(socket_overhead(&rows, "addrcheck", 2), Some(0.75));
        assert_eq!(
            socket_overhead(&rows, "addrcheck", 4),
            None,
            "unmeasured count"
        );
        let table = render_pipeline(&rows);
        assert!(table.contains("0.75x vs in-process"), "got:\n{table}");
    }

    #[test]
    fn dedup_speedup_compares_against_the_unfiltered_cell() {
        let mut filtered = row("lba", true, 1, 30.0);
        filtered.window = IDEMPOTENT_WINDOW;
        filtered.records = 4;
        let rows = vec![row("lba", true, 1, 10.0), filtered];
        assert_eq!(dedup_speedup(&rows, "lba", "addrcheck"), Some(3.0));
        assert_eq!(dedup_speedup(&rows, "live", "addrcheck"), None);
        let table = render_pipeline(&rows);
        assert!(table.contains("3.00x vs unfiltered"));
        // The batched-vs-per-record speedup must ignore windowed rows.
        assert_eq!(speedup(&rows, "lba", "addrcheck"), None);
    }

    #[test]
    fn epoch_speedup_compares_modeled_cycles_against_sequential() {
        let mut sequential = row("lba", true, 1, 10.0);
        sequential.lifeguard = "taintcheck";
        sequential.modeled_cycles = 3000;
        let mut two = row("taint-parallel", true, 2, 10.0);
        two.lifeguard = "taintcheck";
        two.modeled_cycles = 2000;
        let mut four = row("taint-parallel", true, 4, 10.0);
        four.lifeguard = "taintcheck";
        four.modeled_cycles = 1500;
        let rows = vec![sequential, two, four];
        assert_eq!(epoch_speedup(&rows, 2), Some(1.5));
        assert_eq!(epoch_speedup(&rows, 4), Some(2.0));
        assert_eq!(epoch_speedup(&rows, 8), None, "unmeasured worker count");
        let table = render_pipeline(&rows);
        assert!(table.contains("2.00x vs sequential"), "got:\n{table}");
        // The json round-trips the modeled cycles for the gate to read.
        let json = pipeline_json(&rows);
        assert!(json.contains("\"modeled_cycles\": 1500"));
    }

    #[test]
    fn row_field_extracts_values() {
        let line = "    {\"mode\": \"lba\", \"lifeguard\": \"addrcheck\", \"window\": 4096, \
                    \"records\": 12, \"events_per_sec\": 17}";
        assert_eq!(row_field(line, "mode"), Some("lba"));
        assert_eq!(row_field(line, "window"), Some("4096"));
        assert_eq!(row_field(line, "events_per_sec"), Some("17"));
        assert_eq!(row_field(line, "absent"), None);
        assert_eq!(row_u64(line, "records"), Ok(12));
    }

    #[test]
    fn trajectory_keys_identify_rows() {
        let mut filtered = row("lba", true, 1, 30.0);
        filtered.window = IDEMPOTENT_WINDOW;
        let rows = vec![row("lba", true, 1, 10.0), filtered];
        let keys = trajectory_keys(&pipeline_json(&rows)).expect("well-formed");
        assert_eq!(keys.len(), 2, "window distinguishes the rows");
        // Same schema, different numbers: keys are equal.
        let faster: Vec<PipelineRow> = rows
            .iter()
            .cloned()
            .map(|mut r| {
                r.events_per_sec *= 2.0;
                r
            })
            .collect();
        assert_eq!(keys, trajectory_keys(&pipeline_json(&faster)).unwrap());
        // A dropped series changes the key set.
        assert_ne!(keys, trajectory_keys(&pipeline_json(&rows[..1])).unwrap());
    }

    #[test]
    fn validate_trajectory_rejects_malformed_documents() {
        assert!(validate_trajectory("{}").is_err(), "no headers");
        let rows = vec![row("lba", true, 1, 10.0)];
        let err = validate_trajectory(&pipeline_json(&rows)).unwrap_err();
        assert!(err.contains("missing series"), "got: {err}");
    }
}
