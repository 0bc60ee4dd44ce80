//! # LBA — Log-Based Architectures, end to end
//!
//! A full-system reproduction of *"Log-Based Architectures for
//! General-Purpose Monitoring of Deployed Code"* (Chen et al., ASID/ASPLOS
//! 2006). The paper's proposal: capture a deployed program's dynamic
//! instruction trace in hardware on the core it runs on, compress it, ship
//! it through the cache hierarchy, and replay it as a stream of typed event
//! records to a *lifeguard* — a software monitor such as a memory checker or
//! race detector — running on a second core of the same chip multiprocessor.
//!
//! This crate is the facade over that pipeline:
//!
//! ```text
//!   application core                              lifeguard core(s)
//!  ┌────────────────┐                            ┌────────────────┐
//!  │  lba-workloads │  synthetic SPEC-like programs (gzip, mcf, …) │
//!  │  lba-isa       │  the simulated ISA: decode/encode, assembler │
//!  │  lba-cpu       │  machine model: threads, clocks, syscalls    │
//!  │       │        │                            │        ▲       │
//!  │   capture      │                            │ frame-granular │
//!  │ (lba-record)   │                            │    dispatch    │
//!  │       │        │                            │ (lba-lifeguard:│
//!  │  CaptureFilter─┼─ VPC compression + frame ──┼─▶ pop_frame +  │
//!  │  addr ranges + │  packing (lba-compress)    │ deliver_batch) │
//!  │  idempotency   │                            │        │       │
//!  │  window (drops │                            │  lba-lifeguards│
//!  │  duplicates,   │                            │  AddrCheck ·   │
//!  │  folds counts  │                            │  TaintCheck ·  │
//!  │  into Repeat)  │                            │  LockSet ·     │
//!  │       │        │                            │  MemProfile    │
//!  │  FrameEncoder ─┼─▶ modelled LogChannel, or ─┼─▶ (each one    │
//!  │       │        │   one FrameSender per live │  declares its  │
//!  │  shard_of ─────┼─▶ stream over a credit     │  capture-dedup │
//!  │  fan-out: one  │   window (lba-transport;   │  soundness     │
//!  │  stream/shard  │   sharded: N streams, one  │  contract via  │
//!  │  EpochRouter ──┼─▶ predictor bank + decoder │  idempotency())│
//!  │  whole-epoch   │   thread per shard; epoch  │                │
//!  │  fan-out (DIFT)│   boundaries ride a frame- ┼─▶ epoch merge: │
//!  │       │        │   header mark, so whole    │  stitch sym-   │
//!  │  Capture-      │   epochs land per worker   │  bolic taint   │
//!  │  Controller ◀──┼── LoadSample: occupancy ───┼─ summaries in  │
//!  │  (degrades     │   feeds *back* from the    │  global epoch  │
//!  │  capture per   │   channel; hysteresis      │  order; any    │
//!  │  each lifeguard's  widens/samples/drops     │  finding snaps │
//!  │  DegradationPolicy per contract only)       │  capture back  │
//!  │       │        │                            │  to full       │
//!  │  lba-cache     │                            │  fidelity      │
//!  │  lba-mem       │                            │                │
//!  └────────────────┘          │ tee             │                │
//!                              │                 └────────────────┘
//!                              ▼ (FrameSink)
//!                 ┌─────────────────────────────┐
//!                 │  flight recorder (lbas/1):  │
//!                 │  sealed frames → segmented  │
//!                 │  on-disk stream, rotation + │
//!                 │  retention (lba-record);    │
//!                 │  run_replay re-decodes the  │
//!                 │  recording through any      │
//!                 │  lifeguard, byte-identical  │
//!                 │  (LogConfig::record_to)     │
//!                 ├─────────────────────────────┤
//!                 │  socket transport (lbas/1   │
//!                 │  frames over UDS, TCP-ready)│
//!                 │  SocketSink ⇄ SocketSource: │
//!                 │  an explicit credit window  │
//!                 │  (one credit per drained    │
//!                 │  frame, sized like the live │
//!                 │  channel depth) carries the │
//!                 │  buffer_bytes back-pressure │
//!                 │  + LoadSample degradation   │
//!                 │  loop across the wire;      │
//!                 │  run_remote puts one shard's│
//!                 │  lifeguard behind each      │
//!                 │  socket (lba-transport::    │
//!                 │  socket)                    │
//!                 └─────────────────────────────┘
//!         consumption is frame-at-a-time: one
//!         ready_at stamp, one HandlerCtx and one
//!         subscription-mask fetch per frame (the
//!         per-record path stays as the bench
//!         baseline, LogConfig::batch_dispatch);
//!         capture is filter-then-compress: the
//!         idempotency window suppresses cleared
//!         re-checks before they cost any wire
//!         (LogConfig::idempotency_window)
//! ```
//!
//! ## Crate map
//!
//! | crate            | role                                                  |
//! |------------------|-------------------------------------------------------|
//! | `lba-isa`        | instruction set: decode/encode, parser, program builder |
//! | `lba-mem`        | flat memory, heap allocator, address-space layout     |
//! | `lba-cpu`        | execution substrate: machine, threads, run errors     |
//! | `lba-cache`      | set-associative caches and the two-core memory system |
//! | `lba-record`     | the typed event-record vocabulary the log carries (incl. `Repeat` fold summaries) + the segmented `lbas/1` flight-recorder stream format (rotation, retention, End records) |
//! | `lba-compress`   | value-prediction log compression + chunked frame codec (< 1 byte/instr on the wire), `CODEC_VERSION` stamped into recordings |
//! | `lba-transport`  | `LogChannel` trait: framed buffer timing model with frame-granular `pop_frame`; one `FrameSender` (encoder, recording tee, statistics, stall timeout) over a `CreditWindow` for every real transport — the live cross-thread `FrameQueue` and the socket sink; `shard_of` routing and per-shard channel fan-out, `EpochRouter` time-slicing with epoch-end marks in the frame header; `FrameSink`/`FrameSource` seam with tee mirroring into recordings; the `socket` module speaking `lbas/1` over Unix-domain sockets (TCP-ready via `WireStream`) with an explicit credit window so back-pressure survives the wire; the producer-visible `LoadSample` occupancy signal (the feedback arrow above) and the seeded `FaultInjector`/`FaultSink` fault-injection wrappers |
//! | `lba-lifeguard`  | dispatch engine (batch + per-record), capture filters (`AddrRangeFilter` + per-contract idempotency window in one `CaptureFilter` pass), findings, flat paged shadow memory, the `EpochSummary`/`EpochSummarizer`/`EpochLifeguard` trait triple behind the epoch-parallel modes, and the `DegradationPolicy`/`RegionClassifier` graceful-degradation contracts |
//! | `lba-lifeguards` | the paper's four lifeguards + `TaintCheck`'s symbolic epoch summaries (`taint_summary`); each declares its degradation tolerance next to its idempotency story |
//! | `lba-dbi`        | Valgrind-style inline instrumentation baseline        |
//! | `lba-workloads`  | deterministic benchmark programs                      |
//! | `lba-core`       | ties it together: the staged capture pipeline (`pipeline::Producer` over a `pipeline::ConsumerTopology`), the run-mode/monitor registry (`pipeline::RUN_MODES` / `pipeline::MONITORS`), the unified `Run` builder dispatching every mode behind one validated entry point (the mode-shaped `run_*` functions remain as direct shims), the `LbaError` hierarchy folding every layer's failures, experiments, the shared `PipelineReport` core every report derefs to, and the adaptive `CaptureController` closing the back-pressure feedback loop |
//! | `lba-bench`      | table rendering, Criterion benches, `figures` binary  |
//!
//! ## Execution models
//!
//! All of them drive through the unified [`Run`] builder —
//! `Run::new(&program).mode(RunMode::Live).monitor(LifeguardKind::AddrCheck).run()`
//! — which validates the mode/monitor pairing against the registry
//! capability flags before running and returns a [`RunOutcome`] that
//! derefs to the shared [`PipelineReport`]. The mode-shaped free
//! functions below remain as direct entry points:
//!
//! * [`run_unmonitored`] — the baseline: the program alone on one core;
//! * [`run_lba`] — the proposed system: capture → compression → framed log
//!   channel → dispatch → lifeguard on a second core, with decoupled
//!   clocks, back-pressure, and syscall-stall containment;
//! * [`run_live`] — the same framed pipeline over a real SPSC channel
//!   between OS threads instead of the deterministic timing model: one
//!   queue operation per frame, real wire bytes measured and reported;
//! * [`run_live_parallel`] — the sharded live mode: load/store records
//!   route to the shard owning their cache line, every shard is its own
//!   compressed frame stream with its own predictor bank, and N consumer
//!   threads decode and dispatch concurrently;
//! * [`run_remote`] — the networked twin of the sharded live mode: each
//!   shard's sealed frames cross a real Unix-domain socket (`lbas/1`
//!   framing, TCP-ready) to a worker owning a full decoder + dispatch +
//!   lifeguard stack, with an explicit credit window carrying the
//!   back-pressure and adaptive-degradation semantics across the wire;
//!   per-shard wire streams and merged findings are byte-identical to
//!   [`run_live_parallel`]'s;
//! * [`run_taint_parallel`] / [`run_epoch_parallel`] — the epoch-parallel
//!   mode for *order-sensitive* lifeguards that sharding cannot split:
//!   the stream is cut into whole epochs at syscall boundaries, workers
//!   compute symbolic transfer-function summaries in parallel, and a
//!   merge core stitches them in order — findings byte-identical to the
//!   sequential run ([`run_live_taint_parallel`] runs it on real
//!   threads);
//! * [`run_dbi`] — the comparison point: the lifeguard inlined via dynamic
//!   binary instrumentation on the application core;
//! * [`run_replay`] — offline replay: any of the modes above records its
//!   sealed wire frames to a segmented on-disk stream
//!   ([`LogConfig::record_to`]), and replay re-decodes the recording
//!   through any lifeguard — findings and wire-bit accounting
//!   byte-identical to the original run, no re-simulation
//!   ([`run_replay_epoch`] replays an epoch recording through the
//!   summarize-then-stitch pipeline, epochs rebuilt from the frame
//!   marks; [`run_replay_with`] in [`ReplayMode::SalvagePrefix`]
//!   additionally survives a torn tail segment, replaying the
//!   checksummed prefix and reporting exactly what was lost).
//!
//! Every one of these modes is the *same* producer: a
//! [`Producer`] stage chain (capture filter →
//! adaptive [`CaptureController`] verdicts → recording tee → epoch
//! marking → channel push, with degradation ledgering and syscall-flush
//! containment written exactly once in `lba-core/src/pipeline.rs`)
//! composed with one of four [`ConsumerTopology`]
//! shapes — single consumer, sharded-by-cache-line, epoch-routed
//! fan-out/stitch, or replay source — instantiated over either the
//! modeled or the live transport. The [`MONITORS`]
//! and [`RUN_MODES`] registries enumerate the
//! lifeguards and modes once; the benchmark matrix, the experiment
//! layer and the cross-mode equivalence suite all derive from them.
//!
//! Every producer mode can additionally run *adaptive*: set
//! [`LogConfig::adaptive`] and the [`CaptureController`] watches the
//! transport's [`LoadSample`], degrading capture under back-pressure
//! strictly within each lifeguard's declared [`DegradationPolicy`] —
//! and snapping back to full fidelity on any finding or syscall. Every
//! degraded span is accounted in the report's [`DegradationStats`] and
//! marked on the wire, so replays see it too. The seeded
//! [`FaultProfile`] injectors ([`LogConfig::fault`]) exist to prove all
//! of this deterministically in `tests/degradation.rs`.
//!
//! The [`experiment`] module regenerates every table and figure in the paper
//! (`cargo run --release -p lba-bench --bin figures`), and the [`parallel`]
//! module models the §3 future-work extension of sharding one log across
//! several lifeguard cores ([`run_live_parallel`] runs it for real).
//!
//! ## Quickstart
//!
//! ```
//! use lba::{LifeguardKind, Run, RunMode, RunOutcome, SystemConfig};
//! use lba_workloads::bugs;
//!
//! let program = bugs::memory_bugs();
//! let config = SystemConfig::default();
//!
//! let baseline = Run::new(&program)
//!     .mode(RunMode::Unmonitored)
//!     .config(&config)
//!     .run()?;
//! let monitored = Run::new(&program)
//!     .mode(RunMode::Lba)
//!     .monitor(LifeguardKind::AddrCheck)
//!     .config(&config)
//!     .run()?;
//!
//! // RunOutcome derefs to the shared PipelineReport...
//! assert!(!monitored.findings.is_empty(), "the planted bugs are caught");
//! // ...and the mode-shaped report (with its clocks) is inside the variant.
//! let (RunOutcome::Run(base), RunOutcome::Run(mon)) = (&baseline, &monitored) else {
//!     unreachable!("Unmonitored and Lba produce RunReports");
//! };
//! assert!(mon.slowdown_vs(base) > 1.0);
//! # Ok::<(), lba::LbaError>(())
//! ```

#![forbid(unsafe_code)]

pub use lba_core::{
    epoch_parallel, experiment, live_parallel, parallel, pipeline, remote, replay, report, runner,
    table, CaptureFilter, CaptureStats, ChannelStats, EpochParallelReport, IdempotencyClass,
    LifeguardKind, LiveEpochParallelReport, LiveParallelReport, LiveReport, LogConfig, LogStats,
    Mode, PipelineReport, RecordConfig, RemoteReport, ReplayError, ReplayReport, ReplayStreamStats,
    RunError, RunReport, StallBreakdown, SystemConfig, WindowSpec,
};
// The unified entry point: one builder for every execution model, the
// outcome type every mode-shaped report folds into, and the error
// hierarchy every layer's failures convert into.
pub use lba_core::{LbaError, MonitorChoice, Run, RunMode, RunOutcome};
// The staged capture pipeline and the run-mode/monitor registry: every
// `run_*` entry point above is a thin composition of `Producer` over a
// `ConsumerTopology`, and MONITORS/RUN_MODES are the single source the
// benchmarks, experiments and equivalence suites derive their
// enumerations from.
pub use lba_core::{
    run_dbi, run_epoch_parallel, run_lba, run_live, run_live_epoch_parallel, run_live_parallel,
    run_live_taint_parallel, run_remote, run_replay, run_replay_epoch, run_replay_with,
    run_taint_parallel, run_unmonitored,
};
pub use lba_core::{
    ConsumerTopology, EpochRouted, Execution, ModeOutcome, MonitorSpec, Producer, ProducerFinish,
    ProducerLink, ReplaySource, Route, RunModeSpec, ShardedByLine, SingleConsumer, TopologyKind,
    MONITORS, RUN_MODES,
};
// Adaptive capture under back-pressure: the controller and its knobs, the
// per-lifeguard degradation contracts, the transport load signal, the
// seeded fault injector that drives the acceptance tests, and the replay
// salvage mode for torn recordings.
pub use lba_core::{
    AdaptiveConfig, CaptureController, DegradationPolicy, DegradationRequest, DegradationStats,
    DegradedInterval, FaultInjector, FaultProfile, LoadSample, RegionClassifier, ReplayMode,
    SalvagedTail, SamplingSpec, Transition, Verdict, MAX_RECORDED_INTERVALS,
};

#[cfg(test)]
mod facade_smoke {
    //! Satellite smoke test: the facade re-exports resolve and a minimal
    //! monitored run completes end to end.

    #[test]
    fn facade_paths_resolve_and_pipeline_runs() {
        // Name every advertised re-export so a regression in the facade is
        // a compile error here, not just in downstream tests.
        let _run_lba: fn(
            &lba_isa::Program,
            &mut dyn lba_lifeguard::Lifeguard,
            &crate::SystemConfig,
        ) -> Result<crate::RunReport, crate::RunError> = crate::run_lba;

        // The pipeline registry survives under its advertised names: four
        // monitors, nine run modes, and the topology/producer types.
        assert_eq!(crate::MONITORS.len(), 4);
        assert_eq!(crate::RUN_MODES.len(), 9);
        let _monitor: &crate::MonitorSpec = &crate::MONITORS[0];
        let _mode: &crate::RunModeSpec = &crate::RUN_MODES[0];
        let _exec: crate::Execution = crate::RUN_MODES[0].execution;
        let _topo: crate::TopologyKind = crate::RUN_MODES[0].topology;
        let _route: crate::Route = crate::Route::Single;
        let _single: crate::SingleConsumer = crate::SingleConsumer;
        let _sharded: crate::ShardedByLine = crate::ShardedByLine::new(2);
        let _producer: crate::Producer = crate::Producer::passthrough();

        let config = crate::SystemConfig::default();
        let program = lba_workloads::bugs::memory_bugs();

        let sharded = crate::parallel::run_lba_parallel(
            &program,
            || crate::LifeguardKind::AddrCheck.make_lba(),
            2,
            &config,
        )
        .expect("parallel run completes");
        assert_eq!(sharded.shards, 2);

        let epoch = crate::run_taint_parallel(&program, 2, &config).expect("epoch run completes");
        assert_eq!(epoch.workers, 2);
        let live_epoch: crate::LiveEpochParallelReport =
            crate::run_live_taint_parallel(&program, 2, &config).expect("live epoch completes");
        assert_eq!(live_epoch.findings, epoch.findings);

        let live_sharded = crate::run_live_parallel(
            &program,
            || crate::LifeguardKind::AddrCheck.make_lba(),
            2,
            &config,
        )
        .expect("live parallel run completes");
        assert_eq!(live_sharded.findings, sharded.findings);

        // The socket transport behind the unified builder: same shards,
        // same findings, real wire.
        let remote = crate::Run::new(&program)
            .mode(crate::RunMode::Remote)
            .monitor(crate::LifeguardKind::AddrCheck)
            .workers(2)
            .config(&config)
            .run()
            .expect("remote run completes");
        assert_eq!(remote.findings, live_sharded.findings);
        assert!(matches!(remote, crate::RunOutcome::Remote(_)));

        let baseline = crate::run_unmonitored(&program, &config).expect("baseline runs");
        let kind = crate::LifeguardKind::AddrCheck;
        let mut lifeguard = kind.make_lba();
        let monitored = crate::run_lba(&program, lifeguard.as_mut(), &config).expect("lba runs");

        assert!(
            !monitored.findings.is_empty(),
            "planted bugs must be caught"
        );
        assert!(
            monitored.slowdown_vs(&baseline) > 1.0,
            "monitoring is not free"
        );

        // Flight recorder re-exports: record the same run, replay it, and
        // the findings and wire bits come back byte-identical.
        let dir = std::env::temp_dir().join(format!("lba-facade-smoke-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut recording = config.clone();
        recording.log.record_to = Some(crate::RecordConfig::new(&dir));
        let mut lifeguard = kind.make_lba();
        let recorded =
            crate::run_lba(&program, lifeguard.as_mut(), &recording).expect("recorded run");
        let replay: crate::ReplayReport =
            crate::run_replay(&dir, || kind.make_lba(), &config).expect("replay runs");
        assert_eq!(replay.findings, recorded.findings);
        assert_eq!(replay.total_wire_bits(), recorded.log.wire_bits);
        std::fs::remove_dir_all(&dir).ok();
    }
}
