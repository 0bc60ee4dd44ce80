//! One entry point for every execution model: the [`Run`] builder.
//!
//! The run modes accreted as free functions — thirteen of them by the
//! time the socket transport landed — each with its own argument shape
//! (`&mut dyn Lifeguard` here, a factory closure there, a hardwired
//! `TaintCheck` in the epoch modes) and its own error type. [`Run`]
//! collapses them behind one registry-driven builder:
//!
//! ```
//! use lba::{LifeguardKind, Run, RunMode};
//! use lba_workloads::bugs;
//!
//! let program = bugs::memory_bugs();
//! let outcome = Run::new(&program)
//!     .mode(RunMode::Live)
//!     .monitor(LifeguardKind::AddrCheck)
//!     .run()?;
//! assert!(!outcome.findings.is_empty()); // Derefs to PipelineReport
//! assert_eq!(outcome.mode, RunMode::Live);
//! # Ok::<(), lba::LbaError>(())
//! ```
//!
//! The builder validates the mode/monitor pairing against the capability
//! flags in [`pipeline::MONITORS`](crate::MONITORS) and
//! [`pipeline::RUN_MODES`](crate::RUN_MODES) *before* running anything —
//! sharding TaintCheck is an [`LbaError::Unsupported`] with the reason,
//! not a wrong answer — and folds every mode's failure into [`LbaError`].
//! A run comes back in one of the three report shapes of
//! [`report`](crate::report), chosen by what the mode measures: a
//! [`RunReport`] with modeled clocks, the bare [`PipelineReport`] core
//! for the live modes, or a [`ReplayReport`]. [`RunOutcome`] holds one
//! of them and [`Deref`]s to the core, so mode-generic callers (the
//! bench harness, the equivalence grid) read findings, log statistics
//! and per-channel accounting without matching on the shape.

use std::fmt;
use std::ops::Deref;
use std::path::{Path, PathBuf};

use lba_isa::Program;
use lba_lifeguards::TaintCheck;

use crate::config::{RecordConfig, SystemConfig};
use crate::error::LbaError;
use crate::kind::LifeguardKind;
use crate::pipeline::{MonitorSpec, RunModeSpec, TopologyKind, RUN_MODES};
use crate::replay::ReplayMode;
use crate::report::{PipelineReport, ReplayReport, RunReport};

/// Every execution model the builder can drive: the nine registry modes
/// (see [`RUN_MODES`]) plus the two unmonitored/inline baselines, which
/// stand outside the registry because they ship no log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// Modeled co-simulation with exact clocks ([`crate::run_lba`]).
    Lba,
    /// Real threads over an in-process framed channel
    /// ([`crate::run_live`]).
    Live,
    /// Modeled address-sharded fan-out ([`crate::parallel::run_lba_parallel`]).
    LbaParallel,
    /// Sharded lifeguards on real threads ([`crate::run_live_parallel`]).
    LiveParallel,
    /// Sharded lifeguards behind real sockets ([`crate::run_remote`]).
    Remote,
    /// Modeled epoch-parallel taint tracking
    /// ([`crate::run_taint_parallel`]).
    EpochParallel,
    /// Epoch-parallel taint tracking on real threads
    /// ([`crate::run_live_taint_parallel`]).
    LiveEpochParallel,
    /// Offline replay of a flight-recorder stream set
    /// ([`crate::run_replay`]); needs [`Run::replay_from`].
    Replay,
    /// Epoch-parallel replay of a sharded recording
    /// ([`crate::run_replay_epoch`]); needs [`Run::replay_from`].
    ReplayEpoch,
    /// The program alone, no monitoring ([`crate::run_unmonitored`]).
    Unmonitored,
    /// The lifeguard inline via dynamic binary instrumentation
    /// ([`crate::run_dbi`]).
    Dbi,
}

impl RunMode {
    /// Every mode, registry rows first in table order, then the two
    /// baselines.
    pub const ALL: [RunMode; 11] = [
        RunMode::Lba,
        RunMode::Live,
        RunMode::LbaParallel,
        RunMode::LiveParallel,
        RunMode::Remote,
        RunMode::EpochParallel,
        RunMode::LiveEpochParallel,
        RunMode::Replay,
        RunMode::ReplayEpoch,
        RunMode::Unmonitored,
        RunMode::Dbi,
    ];

    /// The matching [`RUN_MODES`] row name, or `None` for the two
    /// baseline modes that stand outside the registry.
    #[must_use]
    pub fn registry_name(self) -> Option<&'static str> {
        self.registry_spec().map(|spec| spec.name)
    }

    /// Stable name: the registry row's for registry modes, `unmonitored`
    /// / `dbi` for the baselines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RunMode::Unmonitored => "unmonitored",
            RunMode::Dbi => "dbi",
            other => other.registry_name().expect("registry mode has a row"),
        }
    }

    /// The variants are declared in [`RUN_MODES`] table order, registry
    /// modes first, so a variant's index is its row.
    fn registry_spec(self) -> Option<&'static RunModeSpec> {
        RUN_MODES.get(self as usize)
    }
}

impl fmt::Display for RunMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A monitor selection: anything that resolves to a
/// [`MONITORS`](crate::MONITORS) row.
/// [`LifeguardKind`] covers the paper's three; pass a
/// [`&'static MonitorSpec`](MonitorSpec) directly for the extensions
/// (MemProfile) or custom registry entries.
#[derive(Debug, Clone, Copy)]
pub struct MonitorChoice(&'static MonitorSpec);

impl From<&'static MonitorSpec> for MonitorChoice {
    fn from(spec: &'static MonitorSpec) -> Self {
        MonitorChoice(spec)
    }
}

impl From<LifeguardKind> for MonitorChoice {
    fn from(kind: LifeguardKind) -> Self {
        MonitorChoice(kind.spec())
    }
}

/// Builder for one monitored run — see the [module docs](self) for the
/// shape. Defaults: [`RunMode::Lba`], AddrCheck, 2 workers,
/// [`SystemConfig::default`], [`ReplayMode::Strict`].
pub struct Run<'a> {
    program: &'a Program,
    mode: RunMode,
    monitor: MonitorChoice,
    workers: usize,
    config: Option<&'a SystemConfig>,
    replay_from: Option<PathBuf>,
    replay_mode: ReplayMode,
}

impl<'a> Run<'a> {
    /// Starts a run request for `program` with the default mode, monitor
    /// and configuration.
    #[must_use]
    pub fn new(program: &'a Program) -> Self {
        Run {
            program,
            mode: RunMode::Lba,
            monitor: MonitorChoice::from(LifeguardKind::AddrCheck),
            workers: 2,
            config: None,
            replay_from: None,
            replay_mode: ReplayMode::Strict,
        }
    }

    /// Selects the execution model.
    #[must_use]
    pub fn mode(mut self, mode: RunMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the lifeguard: a [`LifeguardKind`] or a
    /// [`&'static MonitorSpec`](MonitorSpec) row. Ignored by
    /// [`RunMode::Unmonitored`].
    #[must_use]
    pub fn monitor(mut self, monitor: impl Into<MonitorChoice>) -> Self {
        self.monitor = monitor.into();
        self
    }

    /// Shard/worker count for the fan-out modes (`*Parallel`, `Remote`);
    /// the single-consumer modes ignore it. Defaults to 2.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Uses `config` instead of [`SystemConfig::default`].
    #[must_use]
    pub fn config(mut self, config: &'a SystemConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// The recording directory the replay modes consume — required by
    /// [`RunMode::Replay`] and [`RunMode::ReplayEpoch`].
    #[must_use]
    pub fn replay_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.replay_from = Some(dir.into());
        self
    }

    /// Damage policy for [`RunMode::Replay`] (strict by default).
    #[must_use]
    pub fn replay_mode(mut self, mode: ReplayMode) -> Self {
        self.replay_mode = mode;
        self
    }

    /// Validates the request against the registry capability flags and
    /// executes it.
    ///
    /// # Errors
    ///
    /// [`LbaError::Unsupported`] when the mode's `supports` predicate
    /// rejects the monitor (before anything runs);
    /// [`LbaError::InvalidRequest`] for a replay mode with no
    /// [`replay_from`](Self::replay_from) directory or a fan-out mode
    /// with zero workers; otherwise whatever the underlying mode reports,
    /// folded into [`LbaError`].
    pub fn run(self) -> Result<RunOutcome, LbaError> {
        let monitor = self.monitor.0;
        if let Some(spec) = self.mode.registry_spec() {
            if !(spec.supports)(monitor) {
                return Err(LbaError::Unsupported {
                    mode: spec.name,
                    monitor: monitor.name.to_string(),
                });
            }
            let fan_out = matches!(spec.topology, TopologyKind::Sharded | TopologyKind::Epoch);
            if fan_out && self.workers == 0 {
                return Err(LbaError::InvalidRequest {
                    detail: format!("mode `{}` needs at least one worker", self.mode),
                });
            }
        }
        let default_config;
        let config = match self.config {
            Some(config) => config,
            None => {
                default_config = SystemConfig::default();
                &default_config
            }
        };
        let replay_dir = |dir: Option<PathBuf>| {
            dir.ok_or_else(|| LbaError::InvalidRequest {
                detail: format!(
                    "mode `{}` replays a recording: set `replay_from(dir)`",
                    self.mode
                ),
            })
        };
        let (program, workers) = (self.program, self.workers);
        // The supports check admitted only epoch-capable monitors to the
        // epoch modes, and TaintCheck is the one epoch summariser
        // implemented.
        Ok(match self.mode {
            RunMode::Lba => RunOutcome::Run(crate::cosim::run_lba(
                program,
                (monitor.make)().as_mut(),
                config,
            )?),
            RunMode::Live => RunOutcome::Live(crate::live::run_live(
                program,
                (monitor.make)().as_mut(),
                config,
            )?),
            RunMode::LbaParallel => RunOutcome::Run(crate::parallel::run_lba_parallel(
                program,
                monitor.make,
                workers,
                config,
            )?),
            RunMode::LiveParallel => RunOutcome::Live(crate::live_parallel::run_live_parallel(
                program,
                monitor.make,
                workers,
                config,
            )?),
            RunMode::Remote => RunOutcome::Live(crate::remote::run_remote(
                program,
                monitor.make,
                workers,
                config,
            )?),
            RunMode::EpochParallel => RunOutcome::Run(crate::epoch_parallel::run_epoch_parallel(
                program,
                &mut TaintCheck::new(),
                workers,
                config,
            )?),
            RunMode::LiveEpochParallel => {
                RunOutcome::Live(crate::epoch_parallel::run_live_epoch_parallel(
                    program,
                    &mut TaintCheck::new(),
                    workers,
                    config,
                )?)
            }
            RunMode::Replay => RunOutcome::Replay(crate::replay::run_replay_with(
                replay_dir(self.replay_from)?,
                monitor.make,
                config,
                self.replay_mode,
            )?),
            RunMode::ReplayEpoch => RunOutcome::Replay(crate::epoch_parallel::run_replay_epoch(
                replay_dir(self.replay_from)?,
                &mut TaintCheck::new(),
                config,
            )?),
            RunMode::Unmonitored => RunOutcome::Run(crate::run::run_unmonitored(program, config)?),
            RunMode::Dbi => RunOutcome::Run(crate::run::run_dbi(
                program,
                (monitor.make_dbi)().as_mut(),
                config,
            )?),
        })
    }
}

/// Runs `mode` over `program` the way the cross-mode harnesses drive
/// every registry mode: 2 workers, and a replay mode first records
/// `program` into `scratch` with the stream topology it replays — a
/// [`RunMode::Lba`] recording for [`RunMode::Replay`], a 2-worker
/// [`RunMode::EpochParallel`] one for [`RunMode::ReplayEpoch`]. The
/// recording is removed once replayed; other modes leave `scratch`
/// untouched.
///
/// # Errors
///
/// Whatever the recording run or the requested run reports.
pub fn record_then_run(
    program: &Program,
    mode: RunMode,
    monitor: impl Into<MonitorChoice>,
    config: &SystemConfig,
    scratch: &Path,
) -> Result<RunOutcome, LbaError> {
    let monitor = monitor.into();
    let request = |mode| {
        Run::new(program)
            .mode(mode)
            .monitor(monitor)
            .workers(2)
            .config(config)
    };
    let recorder = match mode {
        RunMode::Replay => RunMode::Lba,
        RunMode::ReplayEpoch => RunMode::EpochParallel,
        _ => return request(mode).run(),
    };
    let _ = std::fs::remove_dir_all(scratch);
    let mut recording = config.clone();
    recording.log.record_to = Some(RecordConfig::new(scratch));
    let replayed = request(recorder)
        .config(&recording)
        .run()
        .and_then(|_| request(mode).replay_from(scratch).run());
    let _ = std::fs::remove_dir_all(scratch);
    replayed
}

/// The report a [`Run`] produced, in the shape its mode measures.
///
/// Every variant [`Deref`]s to the shared [`PipelineReport`], so
/// mode-generic code reads `outcome.findings`, `outcome.log` and
/// `outcome.channels` directly; match on the variant when the modeled
/// clocks or the replay's stream ledger matter.
#[derive(Debug)]
pub enum RunOutcome {
    /// A mode with modeled clocks: [`RunMode::Lba`],
    /// [`RunMode::LbaParallel`], [`RunMode::EpochParallel`] and the
    /// [`RunMode::Unmonitored`]/[`RunMode::Dbi`] baselines.
    Run(RunReport),
    /// A live mode — [`RunMode::Live`], [`RunMode::LiveParallel`],
    /// [`RunMode::Remote`], [`RunMode::LiveEpochParallel`] — which
    /// measures nothing beyond the core.
    Live(PipelineReport),
    /// [`RunMode::Replay`] and [`RunMode::ReplayEpoch`].
    Replay(ReplayReport),
}

impl Deref for RunOutcome {
    type Target = PipelineReport;

    fn deref(&self) -> &PipelineReport {
        match self {
            RunOutcome::Run(r) => r,
            RunOutcome::Live(r) => r,
            RunOutcome::Replay(r) => r,
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Run(r) => r.fmt(f),
            RunOutcome::Live(r) => r.fmt(f),
            RunOutcome::Replay(r) => r.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MONITORS;
    use lba_lifeguard::FindingKind;
    use lba_workloads::bugs;

    #[test]
    fn run_mode_names_are_bijective_with_the_registry() {
        let registry: Vec<&str> = RUN_MODES.iter().map(|m| m.name).collect();
        let builder: Vec<&str> = RunMode::ALL
            .iter()
            .filter_map(|m| m.registry_name())
            .collect();
        assert_eq!(
            registry, builder,
            "RunMode must mirror pipeline::RUN_MODES, in table order"
        );
        let baselines: Vec<&str> = RunMode::ALL
            .iter()
            .filter(|m| m.registry_name().is_none())
            .map(|m| m.name())
            .collect();
        assert_eq!(baselines, ["unmonitored", "dbi"]);
    }

    #[test]
    fn every_registry_mode_runs_through_the_builder() {
        let memory = bugs::memory_bugs();
        let tainted = bugs::tainted_syscall();
        let config = SystemConfig::default();
        let scratch = std::env::temp_dir().join(format!("lba-runner-grid-{}", std::process::id()));
        for mode in RunMode::ALL {
            // The epoch modes support only TaintCheck, which needs the
            // tainted workload; everything else is exercised with
            // AddrCheck here (the grid in tests/equivalence.rs sweeps the
            // full monitor set).
            let (program, monitor) = match mode {
                RunMode::EpochParallel | RunMode::LiveEpochParallel | RunMode::ReplayEpoch => {
                    (&tainted, LifeguardKind::TaintCheck)
                }
                _ => (&memory, LifeguardKind::AddrCheck),
            };
            let outcome = record_then_run(program, mode, monitor, &config, &scratch)
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            if mode != RunMode::Unmonitored {
                assert!(
                    !outcome.findings.is_empty(),
                    "{mode} must surface the planted bugs"
                );
            }
            assert_eq!(outcome.mode, mode);
            // One channel per consumer: the single-consumer modes have
            // one, the fan-out modes one per worker (2 here), and the
            // baselines and replays ship over none.
            let channels = match mode.registry_spec().map(|spec| spec.topology) {
                Some(TopologyKind::Single) => 1,
                Some(TopologyKind::Sharded | TopologyKind::Epoch) => 2,
                Some(TopologyKind::Replay) | None => 0,
            };
            assert_eq!(outcome.channels.len(), channels, "{mode}: channels");
            if channels > 0 {
                let records: u64 = outcome.channels.iter().map(|c| c.records).sum();
                let wire_bits: u64 = outcome.channels.iter().map(|c| c.wire_bits).sum();
                assert_eq!(records, outcome.log.records, "{mode}: records");
                assert_eq!(wire_bits, outcome.log.wire_bits, "{mode}: wire bits");
            }
        }
    }

    #[test]
    fn builder_dbi_runs_the_dbi_configured_lifeguard() {
        // Figure 2's DBI bars build each lifeguard with its DBI
        // configuration (software LockSet: no memoisation); the builder's
        // DBI mode must time the same lifeguard.
        let config = SystemConfig::default();
        for program in [lba_workloads::Benchmark::Zchaff.build(), bugs::data_race()] {
            for spec in &MONITORS {
                let built = Run::new(&program)
                    .mode(RunMode::Dbi)
                    .monitor(spec)
                    .config(&config)
                    .run()
                    .unwrap();
                let RunOutcome::Run(built) = built else {
                    panic!("DBI runs report modeled clocks");
                };
                let direct =
                    crate::run::run_dbi(&program, (spec.make_dbi)().as_mut(), &config).unwrap();
                assert_eq!(
                    built.total_cycles,
                    direct.total_cycles,
                    "{}/{}",
                    program.name(),
                    spec.name
                );
            }
        }
    }

    #[test]
    fn capability_flags_reject_before_running() {
        let program = bugs::memory_bugs();
        let err = Run::new(&program)
            .mode(RunMode::LiveParallel)
            .monitor(LifeguardKind::TaintCheck)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                LbaError::Unsupported {
                    mode: "live-parallel",
                    ..
                }
            ),
            "got: {err}"
        );
        assert!(err.to_string().contains("taintcheck"));
    }

    #[test]
    fn replay_without_a_recording_is_an_invalid_request() {
        let program = bugs::memory_bugs();
        let err = Run::new(&program).mode(RunMode::Replay).run().unwrap_err();
        assert!(matches!(err, LbaError::InvalidRequest { .. }));
        assert!(err.to_string().contains("replay_from"));
    }

    #[test]
    fn zero_workers_is_an_invalid_request_not_a_panic() {
        let program = bugs::memory_bugs();
        let err = Run::new(&program)
            .mode(RunMode::Remote)
            .workers(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, LbaError::InvalidRequest { .. }));
    }

    #[test]
    fn outcome_derefs_to_the_shared_pipeline_report() {
        let program = bugs::memory_bugs();
        let outcome = Run::new(&program)
            .mode(RunMode::Remote)
            .monitor(LifeguardKind::AddrCheck)
            .run()
            .unwrap();
        assert!(outcome
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DoubleFree));
        assert!(outcome.log.records > 0);
        assert!(matches!(outcome, RunOutcome::Live(_)));
        assert_eq!(outcome.mode, RunMode::Remote);
        assert!(outcome.to_string().contains("remote"));
    }
}
