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
//!                 │  RunMode::Replay re-decodes │
//!                 │  the recording through any  │
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
//!                 │  RunMode::Remote puts each  │
//!                 │  shard's lifeguard behind a │
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
//! | `lba-transport`  | `LogChannel` trait: framed buffer timing model with frame-granular `pop_frame`; one `FrameSender` (encoder, recording tee, statistics, stall timeout) over a `CreditWindow` for every real transport — the live cross-thread `FrameQueue` and the socket sink; `shard_of` routing, `EpochRouter` time-slicing with epoch-end marks in the frame header; `FrameSink`/`FrameSource` seam with tee mirroring into recordings; the `socket` module speaking `lbas/1` over Unix-domain sockets (TCP-ready via `WireStream`) with an explicit credit window so back-pressure survives the wire; the producer-visible `LoadSample` occupancy signal (the feedback arrow above) and the seeded `FaultInjector`/`FaultSink` fault-injection wrappers |
//! | `lba-lifeguard`  | dispatch engine (batch + per-record), capture filters (`AddrRangeFilter` + per-contract idempotency window in one `CaptureFilter` pass), findings, flat paged shadow memory, the `EpochSummary`/`EpochSummarizer`/`EpochLifeguard` trait triple behind the epoch-parallel modes, and the `DegradationPolicy`/`RegionClassifier` graceful-degradation contracts |
//! | `lba-lifeguards` | the paper's four lifeguards + `TaintCheck`'s symbolic epoch summaries (`taint_summary`); each declares its degradation tolerance next to its idempotency story |
//! | `lba-dbi`        | Valgrind-style inline instrumentation baseline        |
//! | `lba-workloads`  | deterministic benchmark programs                      |
//! | `lba-core`       | ties it together: the staged capture pipeline (`pipeline::Producer` over a `pipeline::ConsumerTopology`), the run-mode/monitor registry (`pipeline::RUN_MODES` / `pipeline::MONITORS`), the unified `Run` builder, the one public way to run any `RunMode` behind one validated entry point (each mode's runner is crate-private), one fan-out runner for all four live modes (the producer on its own thread, every consumer end drained as whole decoded frames, one join rule), the `LbaError` hierarchy folding every layer's failures, experiments, the three report shapes (the `PipelineReport` core the live modes return as is, `RunReport` adding modeled clocks, `ReplayReport` adding the replay's stream ledger), and the adaptive `CaptureController` closing the back-pressure feedback loop |
//! | `lba-bench`      | table rendering, Criterion benches, `figures` binary  |
//!
//! ## Execution models
//!
//! All of them drive through the unified [`Run`] builder —
//! `Run::new(&program).mode(RunMode::Live).monitor(LifeguardKind::AddrCheck).run()`
//! — which validates the mode/monitor pairing against the registry
//! capability flags before running. A run reports in one of three
//! shapes, chosen by what its mode measures: the [`PipelineReport`] core
//! (program, mode, trace, findings, log, one [`ChannelStats`] per
//! channel, epochs, capture and degradation ledgers), which the live
//! modes return as is; a [`RunReport`] adding the modeled clocks
//! (end-to-end, application, one clock per lifeguard core, stitch,
//! stalls); or a [`ReplayReport`] adding the replay's per-stream ledger
//! and salvaged tails. [`RunOutcome`] holds one of them and derefs to
//! the core. The modes:
//!
//! * [`RunMode::Unmonitored`] — the baseline: the program alone on one
//!   core;
//! * [`RunMode::Lba`] — the proposed system: capture → compression →
//!   framed log channel → dispatch → lifeguard on a second core, with
//!   decoupled clocks, back-pressure, and syscall-stall containment;
//! * [`RunMode::Live`] — the same framed pipeline over a real SPSC channel
//!   between OS threads instead of the deterministic timing model: one
//!   queue operation per frame, real wire bytes measured and reported;
//! * [`RunMode::LbaParallel`] / [`RunMode::LiveParallel`] — the sharded
//!   modes, modeled and live: load/store records route to the shard
//!   owning their cache line, every shard is its own compressed frame
//!   stream with its own predictor bank, and N consumers decode and
//!   dispatch concurrently;
//! * [`RunMode::Remote`] — the networked twin of the sharded live mode:
//!   each shard's sealed frames cross a real Unix-domain socket (`lbas/1`
//!   framing, TCP-ready) to a worker owning a full decoder + dispatch +
//!   lifeguard stack, with an explicit credit window carrying the
//!   back-pressure and adaptive-degradation semantics across the wire;
//!   per-shard wire streams and merged findings are byte-identical to
//!   [`RunMode::LiveParallel`]'s;
//! * [`RunMode::EpochParallel`] / [`RunMode::LiveEpochParallel`] — the
//!   epoch-parallel modes for *order-sensitive* lifeguards that sharding
//!   cannot split: the stream is cut into whole epochs at syscall
//!   boundaries, workers compute symbolic transfer-function summaries in
//!   parallel, and a merge core stitches them in order — findings
//!   byte-identical to the sequential run (the modeled mode's speedup is
//!   modeled-only; see [`RunMode::EpochParallel`]);
//! * [`RunMode::Dbi`] — the comparison point: the lifeguard inlined via
//!   dynamic binary instrumentation on the application core;
//! * [`RunMode::Replay`] — offline replay: any of the modes above records
//!   its sealed wire frames to a segmented on-disk stream
//!   ([`LogConfig::record_to`]), and replay re-decodes the recording
//!   through any lifeguard — findings and wire-bit accounting
//!   byte-identical to the original run, no re-simulation
//!   ([`RunMode::ReplayEpoch`] replays an epoch recording through the
//!   summarize-then-stitch pipeline, epochs rebuilt from the frame
//!   marks; [`ReplayMode::SalvagePrefix`] additionally survives a torn
//!   tail segment, replaying the checksummed prefix and reporting exactly
//!   what was lost).
//!
//! A registry row ([`LifeguardKind`] or a [`MonitorSpec`]) lets every
//! consumer build its own lifeguard; the single-lifeguard modes
//! ([`RunMode::Lba`], [`RunMode::Live`], [`RunMode::Dbi`]) also take a
//! lent `&mut` instance ([`MonitorChoice::Lent`]), whose state the caller
//! reads after the run.
//!
//! Every one of these modes is the *same* producer: a
//! [`Producer`] stage chain (capture filter →
//! adaptive [`CaptureController`] verdicts → recording tee → epoch
//! marking → channel push, with degradation ledgering and syscall-flush
//! containment written exactly once in `lba-core/src/pipeline.rs`)
//! composed with one of three [`ConsumerTopology`]
//! shapes — single consumer, sharded-by-cache-line, or epoch-routed
//! fan-out/stitch — over either the modeled transport or a live one; the
//! replay modes stand the recorded streams in for the producer. The four
//! live modes share one fan-out runner: `Live` is its one-consumer case,
//! `LiveParallel` and `Remote` its sharded case over in-process channels
//! and sockets, and `LiveEpochParallel` its epoch case. The [`MONITORS`]
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
//! (`cargo run --release -p lba-bench --bin figures`), including the §3
//! future-work extension of sharding one log across several lifeguard
//! cores ([`RunMode::LbaParallel`]).
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
//! // RunOutcome derefs to the PipelineReport core every mode shares...
//! assert!(!monitored.findings.is_empty(), "the planted bugs are caught");
//! assert_eq!(monitored.mode, RunMode::Lba);
//! assert_eq!(monitored.channels.len(), 1, "one log channel");
//! // ...and the modeled modes' RunReport adds the clocks.
//! let (RunOutcome::Run(base), RunOutcome::Run(mon)) = (&baseline, &monitored) else {
//!     unreachable!("Unmonitored and Lba report modeled clocks");
//! };
//! assert!(mon.slowdown_vs(base) > 1.0);
//! # Ok::<(), lba::LbaError>(())
//! ```
//!
//! ## One way to run a mode
//!
//! Each mode's runner is private to `lba-core`; [`Run`] is the only
//! entry point, so none of the old per-mode paths resolves:
//!
//! ```compile_fail,E0432
//! use lba::run_lba;
//! ```
//!
//! ```compile_fail,E0432
//! use lba::run_taint_parallel;
//! ```
//!
//! ```compile_fail,E0432
//! use lba::parallel::run_lba_parallel;
//! ```
//!
//! ```compile_fail,E0432
//! use lba::replay::run_replay_with;
//! ```

#![forbid(unsafe_code)]

pub use lba_core::{
    experiment, pipeline, report, table, CaptureFilter, CaptureStats, ChannelStats,
    IdempotencyClass, LifeguardKind, LogConfig, LogStats, PipelineReport, RecordConfig,
    ReplayError, ReplayReport, ReplayStreamStats, RunError, RunReport, StallBreakdown,
    SystemConfig, WindowSpec,
};
// The unified entry point: one builder for every execution model, the
// outcome type holding one of the three report shapes, the
// record-then-replay runner the cross-mode harnesses share, and the
// error hierarchy every layer's failures convert into.
pub use lba_core::{record_then_run, LbaError, MonitorChoice, Run, RunMode, RunOutcome};
// The staged capture pipeline and the run-mode/monitor registry: every
// `RunMode` is a composition of `Producer` over a `ConsumerTopology`, and
// MONITORS/RUN_MODES are the single source the benchmarks, experiments
// and equivalence suites derive their enumerations from.
pub use lba_core::{
    ConsumerTopology, EpochRouted, Execution, MonitorSpec, Producer, ProducerFinish, ProducerLink,
    Route, RunModeSpec, ShardedByLine, SingleConsumer, TopologyKind, MONITORS, RUN_MODES,
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

    use crate::LifeguardKind::{AddrCheck, TaintCheck};
    use crate::{Run, RunMode, RunOutcome};

    #[test]
    fn facade_paths_resolve_and_pipeline_runs() {
        // Name every advertised re-export so a regression in the facade is
        // a compile error here, not just in downstream tests.
        let _new: fn(&'static lba_isa::Program) -> Run<'static> = Run::new;

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
        let run = |mode, kind: crate::LifeguardKind| {
            Run::new(&program)
                .mode(mode)
                .monitor(kind)
                .config(&config)
                .run()
                .unwrap_or_else(|e| panic!("{mode} run completes: {e}"))
        };

        let sharded = run(RunMode::LbaParallel, AddrCheck);
        assert_eq!(sharded.channels.len(), 2);

        let epoch = run(RunMode::EpochParallel, TaintCheck);
        assert_eq!(epoch.channels.len(), 2);
        let live_epoch = run(RunMode::LiveEpochParallel, TaintCheck);
        assert_eq!(live_epoch.findings, epoch.findings);

        let live_sharded = run(RunMode::LiveParallel, AddrCheck);
        assert_eq!(live_sharded.findings, sharded.findings);

        // The socket transport: same shards, same findings, real wire.
        let remote = run(RunMode::Remote, AddrCheck);
        assert_eq!(remote.findings, live_sharded.findings);
        assert!(matches!(remote, RunOutcome::Live(_)));
        assert_eq!(remote.mode, RunMode::Remote);

        let (RunOutcome::Run(baseline), RunOutcome::Run(monitored)) = (
            run(RunMode::Unmonitored, AddrCheck),
            run(RunMode::Lba, AddrCheck),
        ) else {
            panic!("Unmonitored and Lba report modeled clocks");
        };
        let _: &crate::RunReport = &monitored;
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
        let recorded = Run::new(&program)
            .config(&recording)
            .run()
            .expect("recorded run");
        let replayed = Run::new(&program)
            .mode(RunMode::Replay)
            .replay_from(&dir)
            .run()
            .expect("replay runs");
        let RunOutcome::Replay(replay) = replayed else {
            panic!("replay reports a ReplayReport");
        };
        let _: &crate::ReplayReport = &replay;
        assert_eq!(replay.findings, recorded.findings);
        assert_eq!(replay.log.wire_bits, recorded.log.wire_bits);
        std::fs::remove_dir_all(&dir).ok();
    }
}
