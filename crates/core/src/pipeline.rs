//! The staged capture pipeline every run mode is a composition of.
//!
//! The nine `run_*` entry points used to each hand-roll the producer side
//! of the pipeline — machine stepping, capture filtering, adaptive
//! controller transitions, syscall containment — and its own consumer
//! shape. The capture logic now lives here exactly once:
//!
//! * [`Producer`] — the per-record stage chain (trace accounting →
//!   [`CaptureFilter`] → [`CaptureController`] verdicts and transitions →
//!   ship), with the degradation ledger and syscall-flush containment
//!   written once and driven through a mode-specific [`ProducerLink`];
//! * [`ProducerLink`] — what a run mode must plug in: where shipped
//!   records go, what a flush-and-mark transition does to its transport,
//!   and which load/finding signals feed the controller;
//! * [`ConsumerTopology`] — how shipped records map onto consumers:
//!   [`SingleConsumer`], [`ShardedByLine`] and [`EpochRouted`], each
//!   instantiated over the modeled execution model by its own runner and
//!   over the live one by the one fan-out runner (`fanout.rs`);
//! * [`MONITORS`] / [`RUN_MODES`] — the single registry the experiment
//!   layer, the benchmarks and the cross-mode equivalence suite derive
//!   their mode and lifeguard enumerations from.
//!
//! The runners (`cosim.rs`, `parallel.rs`, `epoch_parallel.rs` and
//! `replay.rs` for the modeled and offline modes, `fanout.rs` for every
//! live one) are thin compositions over these pieces; the cross-mode
//! equivalence proptests pin that the composition is bit-for-bit what the
//! hand-rolled loops produced.

use lba_lifeguard::{CaptureFilter, CaptureStats, DegradationRequest, DegradationStats, Lifeguard};
use lba_record::{EventKind, EventRecord, TraceStats};
use lba_transport::{shard_of, EpochRouter, LoadSample};

use crate::config::SystemConfig;
use crate::controller::{CaptureController, Transition, Verdict};

/// What one run mode plugs under the [`Producer`]: the transport-facing
/// half of the capture pipeline. The producer decides *what* ships and
/// *when* fidelity transitions happen; the link owns the plumbing —
/// pushing records, flushing frames, marking the wire degraded, absorbing
/// modeled timing — because only the mode knows its transport.
///
/// The default methods are the signals a minimal link may not have: a
/// transport with no occupancy signal reports an empty [`LoadSample`]
/// (the controller then never engages on load), a producer that cannot
/// see findings reports zero, and modes without syscall containment or
/// lock-step synchronisation leave those hooks as no-ops.
pub trait ProducerLink {
    /// Ships one captured record into the transport (absorbing any
    /// modeled back-pressure).
    fn ship(&mut self, rec: &EventRecord);

    /// Applies a degradation engagement to the transport: flush the open
    /// frame (so the degraded mark starts on a frame boundary) and set
    /// the wire's degraded mark. Only called when the mode runs a
    /// [`CaptureController`]; the default is a no-op for modes that never
    /// construct one.
    fn on_engage(&mut self) {}

    /// Applies a degradation disengagement: flush the open frame and
    /// clear the wire's degraded mark. The producer ships the tighten
    /// summaries (if any) immediately after. Default: no-op.
    fn on_disengage(&mut self) {}

    /// The transport occupancy the controller steers by. Defaults to an
    /// empty sample (occupancy 0), so load-driven engagement never fires.
    fn load_sample(&self) -> LoadSample {
        LoadSample::default()
    }

    /// The current finding count — growth snaps degraded capture back to
    /// full fidelity. Defaults to zero (no snapback signal).
    fn finding_count(&self) -> u64 {
        0
    }

    /// Enforces the syscall containment policy (§2): flush the open
    /// frame and — where the mode models it — stall the application
    /// until the lifeguard drains the preceding log. Default: no-op
    /// (the sharded and epoch modes do not contain syscalls).
    fn contain_syscall(&mut self) {}

    /// Synchronises the cores after one record (the lock-step ablation).
    /// Only the co-simulation models this; default: no-op.
    fn lockstep(&mut self) {}

    /// Takes the pending analysis-side degradation request, if the
    /// mode's consumer polled one from its lifeguard
    /// ([`lba_lifeguard::Lifeguard::degradation_request`]). Take
    /// semantics: returning `Some` consumes the request. Default: `None`
    /// (modes that do not surface the dial).
    fn take_degradation_request(&mut self) -> Option<DegradationRequest> {
        None
    }
}

/// What the producer stage chain hands back when the stream ends.
#[derive(Debug)]
pub struct ProducerFinish {
    /// Trace statistics over every retired record.
    pub trace: TraceStats,
    /// The capture filter's ledger (captured/filtered/deduped/folded).
    pub capture: CaptureStats,
    /// The degradation ledger ([`DegradationStats::default`] when the
    /// mode ran without a controller).
    pub degradation: DegradationStats,
}

/// The producer half of the capture pipeline, written once for every run
/// mode: trace accounting, the capture-filter pass, the adaptive
/// controller's transitions and verdicts, and syscall containment, all
/// driven through a mode-specific [`ProducerLink`].
///
/// Drive it with one [`observe`](Self::observe) per retired record and
/// one [`finish`](Self::finish) after the last; the link receives every
/// shipped record and every transport-facing transition in exactly the
/// order the pre-refactor hand-rolled loops produced them.
#[derive(Debug)]
pub struct Producer {
    trace: TraceStats,
    filter: CaptureFilter,
    shipping: Vec<EventRecord>,
    controller: Option<CaptureController>,
    policy_widen: bool,
    syscall_stall: bool,
    decoupled: bool,
}

impl Producer {
    fn build(
        filter: CaptureFilter,
        controller: Option<CaptureController>,
        policy_widen: bool,
        syscall_stall: bool,
        decoupled: bool,
    ) -> Self {
        Producer {
            trace: TraceStats::new(),
            filter,
            shipping: Vec::new(),
            controller,
            policy_widen,
            syscall_stall,
            decoupled,
        }
    }

    /// The single-consumer co-simulation producer (`RunMode::Lba`): the full
    /// capture pass
    /// ([`LogConfig::adaptive_capture_filter`](crate::LogConfig::adaptive_capture_filter)),
    /// the adaptive controller when configured, syscall containment per
    /// `config.log.syscall_stall`, and the lock-step ablation per
    /// `config.log.decoupled`.
    #[must_use]
    pub fn single(lifeguard: &dyn Lifeguard, config: &SystemConfig) -> Self {
        let policy = lifeguard.degradation();
        let filter = config
            .log
            .adaptive_capture_filter(lifeguard.idempotency(), &policy);
        let controller = config
            .log
            .adaptive
            .and_then(|a| CaptureController::new(a, policy));
        Producer::build(
            filter,
            controller,
            policy.widen_window,
            config.log.syscall_stall,
            config.log.decoupled,
        )
    }

    /// The live single-consumer producer (`RunMode::Live`): same capture pass
    /// as [`single`](Self::single), but the cores are real OS threads —
    /// lock-step is meaningless (the link's flush is the only
    /// synchronisation), so the producer is always decoupled and syscall
    /// containment reduces to the link's flush.
    #[must_use]
    pub fn live(lifeguard: &dyn Lifeguard, config: &SystemConfig) -> Self {
        let policy = lifeguard.degradation();
        let filter = config
            .log
            .adaptive_capture_filter(lifeguard.idempotency(), &policy);
        let controller = config
            .log
            .adaptive
            .and_then(|a| CaptureController::new(a, policy));
        Producer::build(
            filter,
            controller,
            policy.widen_window,
            config.log.syscall_stall,
            true,
        )
    }

    /// The sharded-mode producer (`RunMode::LbaParallel`,
    /// `RunMode::LiveParallel`): the shard capture filter (idempotency window
    /// but no address-range filter, so every shard ships an identical
    /// stream — see
    /// [`LogConfig::shard_capture_filter`](crate::LogConfig::shard_capture_filter)),
    /// the adaptive controller when configured, and no syscall
    /// containment (the sharded study measures steady-state capture).
    #[must_use]
    pub fn sharded(lifeguard: &dyn Lifeguard, config: &SystemConfig) -> Self {
        let policy = lifeguard.degradation();
        let filter = config
            .log
            .adaptive_shard_capture_filter(lifeguard.idempotency(), &policy);
        let controller = config
            .log
            .adaptive
            .and_then(|a| CaptureController::new(a, policy));
        Producer::build(filter, controller, policy.widen_window, false, true)
    }

    /// The epoch-mode producer (`RunMode::EpochParallel` and friends): a pure
    /// passthrough — no range filter, no idempotency window, no
    /// controller — because epoch summaries are computed over the *full*
    /// stream and stitched in order; dropping records would change the
    /// summaries. Every retired record ships (captured == shipped).
    #[must_use]
    pub fn passthrough() -> Self {
        Producer::build(
            CaptureFilter::new(None, 0, lba_lifeguard::IdempotencyClass::None),
            None,
            false,
            false,
            true,
        )
    }

    /// Observes one retired record: trace accounting, any pending
    /// analysis-side dial request, the controller's transition and
    /// verdict, the capture-filter pass on shipped records, and syscall
    /// containment — in exactly that order.
    pub fn observe<L: ProducerLink + ?Sized>(&mut self, rec: &EventRecord, link: &mut L) {
        self.trace.observe(rec);

        // Adaptive capture: the controller watches the link's load signal
        // and degrades (or restores) capture fidelity within the
        // lifeguard's declared policy. Transitions flush first (inside
        // the link's on_engage/on_disengage) so the wire's degraded mark
        // is frame-accurate.
        let mut admit = Verdict::Ship;
        if let Some(ctl) = self.controller.as_mut() {
            if let Some(request) = link.take_degradation_request() {
                ctl.request(request);
            }
            match ctl.tick(link.load_sample(), link.finding_count()) {
                Some(Transition::Engage { widen }) => {
                    link.on_engage();
                    if widen {
                        self.filter.widen_window();
                    }
                }
                Some(Transition::Disengage { tighten, .. }) => {
                    link.on_disengage();
                    if tighten {
                        self.filter
                            .tighten_window_into(&mut self.shipping, |rec| link.ship(rec));
                    }
                }
                None => {}
            }
            admit = ctl.admit(rec);
        }

        // Capture pass: range filter + idempotency window decide what
        // enters the log in one predicate. A record the controller
        // sampled out or kind-dropped never reaches it.
        if admit == Verdict::Ship {
            self.filter
                .capture_into(rec, &mut self.shipping, |rec| link.ship(rec));
        }

        // Containment: stall the syscall until the lifeguard has checked
        // everything that precedes it — which requires flushing the open
        // partial frame. The lock-step ablation synchronises after every
        // record instead.
        if rec.kind == EventKind::Syscall && self.syscall_stall {
            link.contain_syscall();
        } else if !self.decoupled {
            link.lockstep();
        }
    }

    /// Ends the stream: a run ending degraded snaps back first (the
    /// closing fold summaries and final checks happen at full fidelity,
    /// and the open degraded interval closes in the stats), then
    /// outstanding fold counts settle into the link.
    pub fn finish<L: ProducerLink + ?Sized>(mut self, link: &mut L) -> ProducerFinish {
        let degradation = match self.controller.take() {
            Some(ctl) => {
                if ctl.engaged() {
                    link.on_disengage();
                    if self.policy_widen {
                        self.filter
                            .tighten_window_into(&mut self.shipping, |rec| link.ship(rec));
                    }
                }
                ctl.finish()
            }
            None => DegradationStats::default(),
        };
        self.filter
            .finish_into(&mut self.shipping, |rec| link.ship(rec));
        ProducerFinish {
            trace: self.trace,
            capture: self.filter.stats(),
            degradation,
        }
    }
}

/// Where one shipped record goes under a [`ConsumerTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The single consumer.
    Single,
    /// Exactly one shard owns the record.
    Shard(usize),
    /// Every shard must see the record (allocation-shaped events whose
    /// effect spans addresses).
    Broadcast,
    /// The record belongs to an epoch assigned to `worker`.
    Epoch {
        /// Worker index the record's whole epoch is assigned to.
        worker: usize,
        /// Whether this record closes its epoch — the producer must seal
        /// the worker's frame with the epoch-end mark.
        end_epoch: bool,
    },
}

/// How shipped records map onto consumers — the consumer-side half of the
/// pipeline, with one implementation per consumption shape. Each shape is
/// instantiated over both execution models: its modeled runner simulates
/// the consumers' clocks on one thread, and the one live fan-out runner
/// routes through it into one real frame stream per consumer, with the
/// producer on its own OS thread and the consumers drained concurrently.
pub trait ConsumerTopology {
    /// Number of consumers the topology fans out to.
    fn consumers(&self) -> usize;

    /// Routes one shipped record. Stateful where order matters
    /// ([`EpochRouted`]), pure elsewhere.
    fn route(&mut self, rec: &EventRecord) -> Route;
}

/// One lifeguard consumes the full stream in order — the paper's base
/// design.
///
/// Execution models: `RunMode::Lba` interleaves the consumer's modeled clock
/// with the producer's on one thread (consumption happens at
/// back-pressure, syscall containment and end of stream); `RunMode::Live`
/// is the fan-out runner with one consumer, draining the SPSC frame
/// channel on the calling thread while the producer runs on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleConsumer;

impl ConsumerTopology for SingleConsumer {
    fn consumers(&self) -> usize {
        1
    }

    fn route(&mut self, _rec: &EventRecord) -> Route {
        Route::Single
    }
}

/// Address-interleaved sharding at 64-byte cache-line granularity: memory
/// records go to the shard owning their line ([`shard_of`]), everything
/// else broadcasts. Sound only for lifeguards whose per-address state is
/// independent (AddrCheck, LockSet) — TaintCheck's register state forms a
/// sequential dependence chain and uses [`EpochRouted`] instead.
///
/// Execution models: `RunMode::LbaParallel` simulates the N lifeguard cores
/// on one thread against a shared [`lba_cache::MemSystem`] (cores `1..=N`,
/// application on 0), draining every shard after each route so the modeled
/// clocks interleave like hardware would; `RunMode::LiveParallel` and
/// `RunMode::Remote` are the fan-out runner with one consumer per shard,
/// each draining its own in-process channel or socket, and merge findings
/// (deduplicated) at join.
#[derive(Debug, Clone, Copy)]
pub struct ShardedByLine {
    shards: usize,
}

impl ShardedByLine {
    /// A topology fanning memory records over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedByLine { shards }
    }
}

impl ConsumerTopology for ShardedByLine {
    fn consumers(&self) -> usize {
        self.shards
    }

    fn route(&mut self, rec: &EventRecord) -> Route {
        match shard_of(rec, self.shards) {
            Some(shard) => Route::Shard(shard),
            None => Route::Broadcast,
        }
    }
}

/// Time-sliced fan-out: the stream is cut into contiguous epochs (at
/// every syscall and every `epoch_records` records) and whole epochs go
/// to workers round-robin; a stitch stage folds per-epoch summaries back
/// in global epoch order. Sound for summarizable lifeguards (TaintCheck's
/// transfer-function summaries) whose state composes across epochs.
///
/// Execution models: `RunMode::EpochParallel` models each worker's clock and
/// the merge core's stitch on one thread; `RunMode::LiveEpochParallel` is
/// the fan-out runner with one summarizer thread per worker, while the
/// calling thread stitches summaries round-robin as workers finish epochs.
#[derive(Debug, Clone)]
pub struct EpochRouted {
    workers: usize,
    router: EpochRouter,
}

impl EpochRouted {
    /// A topology fanning epochs over `workers` workers, closing an epoch
    /// at every syscall and after every `epoch_records` records.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `epoch_records` is zero.
    #[must_use]
    pub fn new(workers: usize, epoch_records: usize) -> Self {
        EpochRouted {
            workers,
            router: EpochRouter::new(workers, epoch_records),
        }
    }

    /// Total epochs routed so far, the open tail epoch included.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.router.epochs()
    }

    /// Whether the current epoch has routed records but no closing mark
    /// yet — the stream tail, which ships via a plain (unmarked) flush.
    #[must_use]
    pub fn open(&self) -> bool {
        self.router.open()
    }
}

impl ConsumerTopology for EpochRouted {
    fn consumers(&self) -> usize {
        self.workers
    }

    fn route(&mut self, rec: &EventRecord) -> Route {
        let route = self.router.route(rec);
        Route::Epoch {
            worker: route.worker,
            end_epoch: route.end_epoch,
        }
    }
}

/// One lifeguard in the mode/monitor registry: its stable name, its
/// log-based and DBI factories, and which consumer topologies are sound for it. The
/// experiment layer, the benchmarks (`lba_bench::pipeline::lifeguards`)
/// and the cross-mode equivalence suite all derive their enumerations
/// from [`MONITORS`], so a new lifeguard lands in every harness by
/// adding one row here.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSpec {
    /// Stable lowercase name (matches `Lifeguard::name`).
    pub name: &'static str,
    /// Builds a fresh instance configured for the log-based modes
    /// (hardware-assisted: LockSet memoises lockset operations).
    pub make: fn() -> Box<dyn Lifeguard>,
    /// Builds a fresh instance configured for the DBI baseline
    /// (software-only: LockSet recomputes lockset operations, as the
    /// paper-era software race detectors did).
    pub make_dbi: fn() -> Box<dyn Lifeguard>,
    /// Whether address-interleaved sharding ([`ShardedByLine`]) is sound
    /// and benchmarked for this lifeguard (per-address state only).
    pub shardable: bool,
    /// Whether epoch-parallel summarisation ([`EpochRouted`]) is
    /// implemented for this lifeguard.
    pub epoch: bool,
}

/// Every lifeguard the harnesses drive, in figure order: the paper's
/// three plus the MemProfile extension.
pub const MONITORS: [MonitorSpec; 4] = [
    MonitorSpec {
        name: "addrcheck",
        make: || Box::new(lba_lifeguards::AddrCheck::new()),
        make_dbi: || Box::new(lba_lifeguards::AddrCheck::new()),
        shardable: true,
        epoch: false,
    },
    MonitorSpec {
        name: "taintcheck",
        make: || Box::new(lba_lifeguards::TaintCheck::new()),
        make_dbi: || Box::new(lba_lifeguards::TaintCheck::new()),
        shardable: false,
        epoch: true,
    },
    MonitorSpec {
        name: "lockset",
        make: || Box::new(lba_lifeguards::LockSet::new()),
        make_dbi: || {
            Box::new(lba_lifeguards::LockSet::with_config(
                lba_lifeguards::LockSetConfig {
                    memoize: false,
                    call_overhead: 20,
                },
            ))
        },
        shardable: true,
        epoch: false,
    },
    MonitorSpec {
        name: "memprofile",
        make: || Box::new(lba_lifeguards::MemProfile::new()),
        make_dbi: || Box::new(lba_lifeguards::MemProfile::new()),
        shardable: false,
        epoch: false,
    },
];

/// Which execution substrate a run mode drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Deterministic co-simulation with modeled clocks, on one thread.
    Modeled,
    /// Real OS threads over real channels; no modeled clocks.
    Live,
    /// Offline replay of a flight-recorder stream set.
    Replay,
}

/// Which [`ConsumerTopology`] shape a run mode instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// [`SingleConsumer`].
    Single,
    /// [`ShardedByLine`].
    Sharded,
    /// [`EpochRouted`].
    Epoch,
    /// Offline replay: the consumers' inputs are flight-recorder streams,
    /// one per original channel, so routing was fixed when the recording
    /// was made and each consumer replays its stream independently.
    Replay,
}

/// One run mode in the registry: how it executes, what topology it
/// instantiates, which lifeguards it supports, how its outcome relates
/// to the sequential `RunMode::Lba` baseline, and which benchmark trajectory
/// series it owns.
#[derive(Debug, Clone, Copy)]
pub struct RunModeSpec {
    /// Stable mode name.
    pub name: &'static str,
    /// Execution substrate.
    pub execution: Execution,
    /// Consumer topology shape.
    pub topology: TopologyKind,
    /// Whether the mode's findings are a dedup-merge over consumers
    /// (compare as sets against the baseline) rather than byte-identical.
    pub merged_findings: bool,
    /// Whether the mode ships exactly the baseline's record count.
    pub exact_records: bool,
    /// Whether the mode ships exactly the baseline's wire bits.
    pub exact_wire: bool,
    /// Whether this lifeguard can run under this mode.
    pub supports: fn(&MonitorSpec) -> bool,
    /// Benchmark trajectory series (`BENCH_pipeline.json`) this mode
    /// owns, in committed order.
    pub bench_series: &'static [&'static str],
}

fn supports_all(_spec: &MonitorSpec) -> bool {
    true
}

fn supports_shardable(spec: &MonitorSpec) -> bool {
    spec.shardable
}

fn supports_epoch(spec: &MonitorSpec) -> bool {
    spec.epoch
}

/// Every run mode the harnesses drive, with its topology, support
/// predicate and baseline-equivalence contract. `experiment.rs`,
/// `lba_bench::pipeline` and `tests/equivalence.rs` derive their mode
/// enumerations from this table; the union of `bench_series` (plus the
/// consumption-only `"consume"` series) is exactly the committed
/// `BENCH_pipeline.json` trajectory.
pub const RUN_MODES: [RunModeSpec; 9] = [
    RunModeSpec {
        name: "lba",
        execution: Execution::Modeled,
        topology: TopologyKind::Single,
        merged_findings: false,
        exact_records: true,
        exact_wire: true,
        supports: supports_all,
        bench_series: &["lba", "lba-faulted", "lba-degraded"],
    },
    RunModeSpec {
        name: "live",
        execution: Execution::Live,
        topology: TopologyKind::Single,
        merged_findings: false,
        exact_records: true,
        exact_wire: true,
        supports: supports_all,
        bench_series: &["live", "live-faulted", "live-degraded"],
    },
    RunModeSpec {
        name: "lba-parallel",
        execution: Execution::Modeled,
        topology: TopologyKind::Sharded,
        merged_findings: true,
        exact_records: false,
        exact_wire: false,
        supports: supports_shardable,
        bench_series: &[],
    },
    RunModeSpec {
        name: "live-parallel",
        execution: Execution::Live,
        topology: TopologyKind::Sharded,
        merged_findings: true,
        exact_records: false,
        exact_wire: false,
        supports: supports_shardable,
        bench_series: &["live-parallel"],
    },
    RunModeSpec {
        name: "remote",
        execution: Execution::Live,
        topology: TopologyKind::Sharded,
        merged_findings: true,
        exact_records: false,
        exact_wire: false,
        supports: supports_shardable,
        bench_series: &["remote"],
    },
    RunModeSpec {
        name: "epoch-parallel",
        execution: Execution::Modeled,
        topology: TopologyKind::Epoch,
        merged_findings: false,
        exact_records: true,
        exact_wire: false,
        supports: supports_epoch,
        bench_series: &["taint-parallel"],
    },
    RunModeSpec {
        name: "live-epoch-parallel",
        execution: Execution::Live,
        topology: TopologyKind::Epoch,
        merged_findings: false,
        exact_records: true,
        exact_wire: false,
        supports: supports_epoch,
        bench_series: &["live-taint-parallel"],
    },
    RunModeSpec {
        name: "replay",
        execution: Execution::Replay,
        topology: TopologyKind::Replay,
        merged_findings: false,
        exact_records: true,
        exact_wire: true,
        supports: supports_all,
        bench_series: &["replay"],
    },
    RunModeSpec {
        name: "replay-epoch",
        execution: Execution::Replay,
        topology: TopologyKind::Replay,
        merged_findings: false,
        exact_records: true,
        exact_wire: false,
        supports: supports_epoch,
        bench_series: &[],
    },
];

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn monitor_registry_is_consistent() {
        let mut names = HashSet::new();
        for monitor in &MONITORS {
            assert!(
                names.insert(monitor.name),
                "duplicate monitor {}",
                monitor.name
            );
            for make in [monitor.make, monitor.make_dbi] {
                assert_eq!(
                    make().name(),
                    monitor.name,
                    "factories must build the lifeguard the row names"
                );
            }
        }
        // The experiment layer's LifeguardKind enumerates a subset of the
        // registry; a kind without a registry row would dodge the bench
        // matrix and the equivalence grid.
        for kind in crate::kind::LifeguardKind::ALL {
            assert!(
                MONITORS.iter().any(|m| m.name == kind.name()),
                "{kind} has no registry row"
            );
        }
    }

    #[test]
    fn run_mode_registry_is_consistent() {
        let mut names = HashSet::new();
        for mode in &RUN_MODES {
            assert!(names.insert(mode.name), "duplicate mode {}", mode.name);
            assert!(
                MONITORS.iter().any(|m| (mode.supports)(m)),
                "{} supports no monitor at all",
                mode.name
            );
            // The support predicate must agree with the topology: the
            // sharded shapes admit exactly the shardable monitors, the
            // epoch shapes exactly the epoch-capable ones.
            for monitor in &MONITORS {
                let supported = (mode.supports)(monitor);
                match mode.topology {
                    TopologyKind::Sharded => assert_eq!(
                        supported, monitor.shardable,
                        "{}/{}: sharded support must track the shardable flag",
                        mode.name, monitor.name
                    ),
                    TopologyKind::Epoch => assert_eq!(
                        supported, monitor.epoch,
                        "{}/{}: epoch support must track the epoch flag",
                        mode.name, monitor.name
                    ),
                    TopologyKind::Single | TopologyKind::Replay => {}
                }
            }
            // Wire-exactness is only claimable on top of record-exactness:
            // the same records are a precondition for the same bits.
            if mode.exact_wire {
                assert!(
                    mode.exact_records,
                    "{}: exact wire bits imply exact records",
                    mode.name
                );
            }
        }
    }

    #[test]
    fn bench_series_are_owned_by_one_mode_each() {
        let mut seen = HashSet::new();
        for mode in &RUN_MODES {
            for series in mode.bench_series {
                assert!(
                    seen.insert(*series),
                    "trajectory series {series} owned by two modes"
                );
                assert_ne!(
                    *series, "consume",
                    "the consumption-only series belongs to no run mode"
                );
            }
        }
    }
}
