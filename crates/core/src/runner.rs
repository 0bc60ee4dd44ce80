//! One entry point for every execution model: the [`Run`] builder.

use std::fmt;
use std::ops::Deref;
use std::path::{Path, PathBuf};

use lba_isa::Program;
use lba_lifeguard::Lifeguard;
use lba_lifeguards::TaintCheck;

use crate::config::{RecordConfig, SystemConfig};
use crate::cosim::run_lba;
use crate::epoch_parallel::{run_epoch_parallel, run_live_epoch_parallel, run_replay_epoch};
use crate::error::LbaError;
use crate::kind::LifeguardKind;
use crate::live::run_live;
use crate::live_parallel::run_live_parallel;
use crate::parallel::run_lba_parallel;
use crate::pipeline::{MonitorSpec, RunModeSpec, TopologyKind, RUN_MODES};
use crate::remote::run_remote;
use crate::replay::{run_replay_with, ReplayMode};
use crate::report::{PipelineReport, ReplayReport, RunReport};
use crate::run::{run_dbi, run_unmonitored};

/// Every execution model the builder can drive: the nine registry modes
/// (see [`RUN_MODES`]) plus the two unmonitored/inline baselines, which
/// stand outside the registry because they ship no log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// The proposed system, co-simulated with exact modeled clocks:
    /// capture → compression → framed log channel → dispatch → lifeguard
    /// on a second core, with decoupled clocks, back-pressure and
    /// syscall-stall containment.
    Lba,
    /// The same framed pipeline over a real SPSC channel between OS
    /// threads: one queue operation per frame, real wire bytes measured.
    Live,
    /// Modeled address-sharded fan-out: load/store records route to the
    /// lifeguard shard owning their cache line (the paper's §3 future
    /// work).
    LbaParallel,
    /// Sharded lifeguards on real threads: every shard is its own
    /// compressed frame stream with its own predictor bank and consumer
    /// thread.
    LiveParallel,
    /// Sharded lifeguards behind real Unix-domain sockets (`lbas/1`
    /// framing), a credit window carrying back-pressure across the wire;
    /// per-shard wire streams and findings equal [`RunMode::LiveParallel`]'s.
    Remote,
    /// Modeled epoch-parallel taint tracking: the stream is cut into
    /// whole epochs at syscalls and every `log.epoch_records` records,
    /// workers summarize epochs symbolically, and a merge core stitches
    /// the summaries in order — findings byte-identical to the
    /// sequential run.
    ///
    /// **The speedup is modeled-only.** 4 workers finish gzip in 3.5×
    /// fewer modeled cycles than sequential TaintCheck, but the clocks
    /// count idealised handler charges and ignore the host cost of
    /// building and resolving summaries. On wall clock (gzip, 2-vCPU
    /// host, best of 5) sequential [`RunMode::Lba`] TaintCheck runs at
    /// about 15.8M records/s, this mode with one worker at about 8.6M/s
    /// and [`RunMode::LiveEpochParallel`] with two workers at about
    /// 7.1M/s: summarizing costs about 3.7× sequential dispatch per
    /// record.
    EpochParallel,
    /// Epoch-parallel taint tracking on real threads: one producer
    /// thread, `workers` summarizer threads, and the merge on the calling
    /// thread.
    LiveEpochParallel,
    /// Offline replay of a flight-recorder stream set through any
    /// lifeguard, findings and wire bits byte-identical to the recording
    /// run; needs [`Run::replay_from`], and [`Run::replay_mode`] picks
    /// the damage policy.
    Replay,
    /// Epoch-parallel replay of a recorded epoch run, epochs rebuilt from
    /// the frame marks; needs [`Run::replay_from`].
    ReplayEpoch,
    /// The program alone, no monitoring.
    Unmonitored,
    /// The comparison point: the lifeguard inline via Valgrind-style
    /// dynamic binary instrumentation on the application core.
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

/// A monitor selection: a registry row every consumer builds its own
/// fresh instance from, or a caller-owned instance lent for the run.
pub enum MonitorChoice<'a> {
    /// A [`MONITORS`](crate::MONITORS) row. [`LifeguardKind`] covers the
    /// paper's three; pass a [`&'static MonitorSpec`](MonitorSpec)
    /// directly for the extensions (MemProfile) or custom registry
    /// entries.
    Registry(&'static MonitorSpec),
    /// A caller-owned lifeguard (`&mut` any [`Lifeguard`]): the run
    /// dispatches to this very instance, so its state can be read once
    /// the run returns. Only the single-lifeguard modes [`RunMode::Lba`],
    /// [`RunMode::Live`] and [`RunMode::Dbi`] take one; every other mode
    /// builds its lifeguards from a registry row and rejects a lent
    /// instance as [`LbaError::InvalidRequest`].
    Lent(&'a mut dyn Lifeguard),
}

impl From<&'static MonitorSpec> for MonitorChoice<'_> {
    fn from(spec: &'static MonitorSpec) -> Self {
        MonitorChoice::Registry(spec)
    }
}

impl From<LifeguardKind> for MonitorChoice<'_> {
    fn from(kind: LifeguardKind) -> Self {
        MonitorChoice::Registry(kind.spec())
    }
}

impl<'a, L: Lifeguard + 'a> From<&'a mut L> for MonitorChoice<'a> {
    fn from(lifeguard: &'a mut L) -> Self {
        MonitorChoice::Lent(lifeguard)
    }
}

/// Builder for one monitored run. Defaults: [`RunMode::Lba`],
/// AddrCheck, 2 workers, [`SystemConfig::default`],
/// [`ReplayMode::Strict`].
///
/// Each mode has a crate-private runner with its own argument shape (a
/// `&mut dyn Lifeguard` here, a factory closure there, a hardwired
/// `TaintCheck` master in the epoch modes) and its own error type.
/// This builder is the one public way to drive any of them:
///
/// ```
/// use lba::{LifeguardKind, Run, RunMode};
/// use lba_workloads::bugs;
///
/// let program = bugs::memory_bugs();
/// let outcome = Run::new(&program)
///     .mode(RunMode::Live)
///     .monitor(LifeguardKind::AddrCheck)
///     .run()?;
/// assert!(!outcome.findings.is_empty()); // Derefs to PipelineReport
/// assert_eq!(outcome.mode, RunMode::Live);
/// # Ok::<(), lba::LbaError>(())
/// ```
///
/// The builder validates the mode/monitor pairing against the capability
/// flags in [`pipeline::MONITORS`](crate::MONITORS) and
/// [`pipeline::RUN_MODES`](crate::RUN_MODES) *before* running anything —
/// sharding TaintCheck is an [`LbaError::Unsupported`] with the reason,
/// not a wrong answer — and folds every mode's failure into [`LbaError`].
/// A run comes back in one of the three report shapes of
/// [`report`](crate::report), chosen by what the mode measures: a
/// [`RunReport`] with modeled clocks, the bare [`PipelineReport`] core
/// for the live modes, or a [`ReplayReport`]. [`RunOutcome`] holds one
/// of them and [`Deref`]s to the core, so mode-generic callers (the
/// bench harness, the equivalence grid) read findings, log statistics
/// and per-channel accounting without matching on the shape.
pub struct Run<'a> {
    program: &'a Program,
    mode: RunMode,
    monitor: MonitorChoice<'a>,
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

    /// Selects the lifeguard: a [`LifeguardKind`], a
    /// [`&'static MonitorSpec`](MonitorSpec) row, or `&mut` a lifeguard
    /// instance to lend (see [`MonitorChoice::Lent`]). Ignored by
    /// [`RunMode::Unmonitored`].
    #[must_use]
    pub fn monitor(mut self, monitor: impl Into<MonitorChoice<'a>>) -> Self {
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
    /// [`replay_from`](Self::replay_from) directory, a fan-out mode with
    /// zero workers, an epoch mode with `log.epoch_records == 0`, or a
    /// lent instance for a mode other than [`RunMode::Lba`],
    /// [`RunMode::Live`] and [`RunMode::Dbi`]; otherwise whatever the
    /// underlying mode reports, folded into [`LbaError`].
    pub fn run(self) -> Result<RunOutcome, LbaError> {
        let default_config;
        let config = match self.config {
            Some(config) => config,
            None => {
                default_config = SystemConfig::default();
                &default_config
            }
        };
        let (program, mode, workers) = (self.program, self.mode, self.workers);
        let monitor = match self.monitor {
            MonitorChoice::Registry(spec) => spec,
            MonitorChoice::Lent(lifeguard) => return run_single(mode, program, lifeguard, config),
        };
        if let Some(spec) = mode.registry_spec() {
            if !(spec.supports)(monitor) {
                return Err(LbaError::Unsupported {
                    mode: spec.name,
                    monitor: monitor.name.to_string(),
                });
            }
            let invalid = |detail: &str| {
                Err(LbaError::InvalidRequest {
                    detail: format!("mode `{mode}` needs {detail}"),
                })
            };
            let fan_out = matches!(spec.topology, TopologyKind::Sharded | TopologyKind::Epoch);
            if fan_out && workers == 0 {
                return invalid("at least one worker");
            }
            if spec.topology == TopologyKind::Epoch && config.log.epoch_records == 0 {
                return invalid("`log.epoch_records` of at least one");
            }
        }
        let dir = || {
            self.replay_from.ok_or_else(|| LbaError::InvalidRequest {
                detail: format!("mode `{mode}` replays a recording: set `replay_from(dir)`"),
            })
        };
        // The supports check admitted only epoch-capable monitors to the
        // epoch modes, and TaintCheck is the one epoch summariser
        // implemented.
        let (make, taint) = (monitor.make, TaintCheck::new);
        Ok(match mode {
            RunMode::Lba | RunMode::Live => {
                return run_single(mode, program, make().as_mut(), config)
            }
            RunMode::Dbi => {
                return run_single(mode, program, (monitor.make_dbi)().as_mut(), config)
            }
            RunMode::LbaParallel => {
                RunOutcome::Run(run_lba_parallel(program, make, workers, config)?)
            }
            RunMode::LiveParallel => {
                RunOutcome::Live(run_live_parallel(program, make, workers, config)?)
            }
            RunMode::Remote => RunOutcome::Live(run_remote(program, make, workers, config)?),
            RunMode::EpochParallel => {
                RunOutcome::Run(run_epoch_parallel(program, &mut taint(), workers, config)?)
            }
            RunMode::LiveEpochParallel => RunOutcome::Live(run_live_epoch_parallel(
                program,
                &mut taint(),
                workers,
                config,
            )?),
            RunMode::Replay => {
                RunOutcome::Replay(run_replay_with(dir()?, make, config, self.replay_mode)?)
            }
            RunMode::ReplayEpoch => {
                RunOutcome::Replay(run_replay_epoch(dir()?, &mut taint(), config)?)
            }
            RunMode::Unmonitored => RunOutcome::Run(run_unmonitored(program, config)?),
        })
    }
}

/// Runs one of the three modes that dispatch to a single lifeguard
/// instance, the caller's or one built from a registry row.
fn run_single(
    mode: RunMode,
    program: &Program,
    lifeguard: &mut dyn Lifeguard,
    config: &SystemConfig,
) -> Result<RunOutcome, LbaError> {
    Ok(match mode {
        RunMode::Lba => RunOutcome::Run(run_lba(program, lifeguard, config)?),
        RunMode::Live => RunOutcome::Live(run_live(program, lifeguard, config)?),
        RunMode::Dbi => RunOutcome::Run(run_dbi(program, lifeguard, config)?),
        _ => {
            return Err(LbaError::InvalidRequest {
                detail: format!(
                    "mode `{mode}` builds its lifeguards from a registry row: \
                     lend an instance only to `lba`, `live` or `dbi`"
                ),
            })
        }
    })
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
    monitor: impl for<'m> Into<MonitorChoice<'m>> + Copy,
    config: &SystemConfig,
    scratch: &Path,
) -> Result<RunOutcome, LbaError> {
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
                let direct = run_dbi(&program, (spec.make_dbi)().as_mut(), &config).unwrap();
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
    fn zero_workers_or_epoch_records_is_an_invalid_request_not_a_panic() {
        let program = bugs::tainted_syscall();
        let mut no_epochs = SystemConfig::default();
        no_epochs.log.epoch_records = 0;
        let cases = [
            (
                RunMode::Remote,
                LifeguardKind::AddrCheck,
                0,
                SystemConfig::default(),
            ),
            (
                RunMode::EpochParallel,
                LifeguardKind::TaintCheck,
                2,
                no_epochs.clone(),
            ),
            (
                RunMode::LiveEpochParallel,
                LifeguardKind::TaintCheck,
                2,
                no_epochs,
            ),
        ];
        for (mode, monitor, workers, config) in cases {
            let request = Run::new(&program).mode(mode).monitor(monitor);
            let err = request.workers(workers).config(&config).run().unwrap_err();
            assert!(matches!(err, LbaError::InvalidRequest { .. }), "{mode}");
        }
    }

    #[test]
    fn only_the_single_lifeguard_modes_take_a_lent_lifeguard() {
        // The lent instance is the one dispatched to; every other mode
        // refuses it before anything runs.
        let program = bugs::data_race();
        for mode in RunMode::ALL {
            let mut lockset = lba_lifeguards::LockSet::new();
            let request = Run::new(&program).mode(mode).monitor(&mut lockset);
            let lent = request.replay_from(std::env::temp_dir()).run();
            if let RunMode::Lba | RunMode::Live | RunMode::Dbi = mode {
                let built = Run::new(&program)
                    .mode(mode)
                    .monitor(LifeguardKind::LockSet);
                let built = built.run().unwrap();
                assert_eq!(lent.unwrap().findings, built.findings, "{mode}");
                assert!(!built.findings.is_empty(), "{mode}");
                assert!(lockset.checked_accesses() > 0, "{mode}");
            } else {
                let err = lent.unwrap_err();
                assert!(matches!(err, LbaError::InvalidRequest { .. }), "{mode}");
                assert!(err.to_string().contains("lend"), "{mode}: {err}");
                assert_eq!(lockset.checked_accesses(), 0, "{mode}: nothing ran");
            }
        }
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
