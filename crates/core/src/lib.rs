//! # LBA: Log-Based Architectures
//!
//! A full-system reproduction of *"Log-Based Architectures for
//! General-Purpose Monitoring of Deployed Code"* (Chen et al., ASID'06 —
//! the ASPLOS 2006 workshop on architectural and system support for
//! improving software dependability).
//!
//! The paper proposes hardware support on a chip multiprocessor for
//! **logging an application's dynamic instruction trace** on one core and
//! delivering it — compressed, through the cache hierarchy — to a second
//! core, where a *lifeguard* consumes it as a stream of typed event
//! records. This crate ties the substrates together into the paper's three
//! execution models, all driven through the one [`Run`] builder:
//!
//! * [`RunMode::Unmonitored`] — the baseline: the program alone on one
//!   core;
//! * [`RunMode::Lba`] — the proposed system: capture → VPC compression →
//!   framed log channel → `nlba` dispatch → lifeguard handlers on a second
//!   core, with decoupled clocks, back-pressure, and syscall-stall
//!   containment;
//! * [`RunMode::Dbi`] — the comparison point: the same lifeguard inline
//!   via Valgrind-style dynamic binary instrumentation on the application
//!   core.
//!
//! The [`experiment`] module regenerates every table and figure in the
//! paper (`cargo run --release -p lba-bench --bin figures`), and the
//! sharded ([`RunMode::LbaParallel`], [`RunMode::LiveParallel`]) and
//! filtering extensions implement the §3 future work —
//! [`RunMode::LiveParallel`] runs the sharded design for real, with one
//! consumer thread per shard decoding its own compressed frame stream.
//!
//! # Quickstart
//!
//! ```
//! use lba::{LifeguardKind, Run, RunMode, RunOutcome};
//! use lba_workloads::bugs;
//!
//! let program = bugs::memory_bugs();
//! let baseline = Run::new(&program).mode(RunMode::Unmonitored).run()?;
//! let monitored = Run::new(&program)
//!     .mode(RunMode::Lba)
//!     .monitor(LifeguardKind::AddrCheck)
//!     .run()?;
//!
//! assert!(!monitored.findings.is_empty(), "the planted bugs are caught");
//! let (RunOutcome::Run(base), RunOutcome::Run(mon)) = (&baseline, &monitored) else {
//!     unreachable!("Unmonitored and Lba report modeled clocks");
//! };
//! assert!(mon.slowdown_vs(base) > 1.0);
//! # Ok::<(), lba::LbaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
pub mod controller;
mod cosim;
mod epoch_parallel;
mod error;
pub mod experiment;
mod fanout;
mod kind;
mod live;
mod live_parallel;
mod parallel;
pub mod pipeline;
mod recorder;
mod remote;
mod replay;
pub mod report;
mod run;
mod runner;
pub mod table;

pub use config::{LogConfig, RecordConfig, SystemConfig, MAX_LIVE_CHANNEL_FRAMES};
pub use controller::{AdaptiveConfig, CaptureController, Transition, Verdict};
pub use error::LbaError;
pub use kind::LifeguardKind;
pub use pipeline::{
    ConsumerTopology, EpochRouted, Execution, MonitorSpec, Producer, ProducerFinish, ProducerLink,
    Route, RunModeSpec, ShardedByLine, SingleConsumer, TopologyKind, MONITORS, RUN_MODES,
};
pub use replay::{ReplayError, ReplayMode};
pub use report::{
    LogStats, PipelineReport, ReplayReport, ReplayStreamStats, RunReport, SalvagedTail,
    StallBreakdown,
};
pub use runner::{record_then_run, MonitorChoice, Run, RunMode, RunOutcome};

// Per-channel transport statistics appear in every report's `channels`; re-export
// the type so downstream code can name it without a direct lba-transport
// dependency. The load/fault types parameterize `LogConfig` and the
// degradation experiments.
pub use lba_transport::{ChannelStats, FaultInjector, FaultProfile, LoadSample};

// Capture-pass types: the stats appear in run reports, and the class/spec
// pair is what custom lifeguards implement `Lifeguard::idempotency` with.
// The degradation set is the same story for `Lifeguard::degradation`.
pub use lba_lifeguard::{
    CaptureFilter, CaptureStats, DegradationPolicy, DegradationRequest, DegradationStats,
    DegradedInterval, IdempotencyClass, RegionClassifier, SamplingSpec, WindowSpec,
    MAX_RECORDED_INTERVALS,
};

// The execution error type comes from the CPU substrate.
pub use lba_cpu::RunError;
