//! Equivalence tests between execution modes: the deterministic
//! co-simulation, the live (two-OS-thread) pipeline, the DBI baseline and
//! the sharded parallel runner must all agree on *what* they detect.

use proptest::prelude::*;

use lba::LifeguardKind::{AddrCheck, LockSet, TaintCheck};
use lba::{record_then_run, MonitorChoice, Run, RunMode, RunOutcome, SystemConfig, MONITORS};
use lba_isa::Program;
use lba_workloads::{bugs, Benchmark};

fn config() -> SystemConfig {
    SystemConfig::default()
}

/// `monitor` over `program` in `mode`, with `workers` shards for the
/// sharded modes.
fn run<'a>(
    program: &'a Program,
    mode: RunMode,
    monitor: impl Into<MonitorChoice<'a>>,
    workers: usize,
    config: &'a SystemConfig,
) -> RunOutcome {
    let request = Run::new(program).mode(mode).monitor(monitor);
    let outcome = request.workers(workers).config(config).run();
    outcome.unwrap_or_else(|e| panic!("{mode} on {}: {e}", program.name()))
}

#[test]
fn live_pipeline_matches_cosim_on_every_bug_program() {
    for (program, kind) in [
        (bugs::memory_bugs(), AddrCheck),
        (bugs::exploit(), TaintCheck),
        (bugs::tainted_syscall(), TaintCheck),
        (bugs::data_race(), LockSet),
    ] {
        let cosim = run(&program, RunMode::Lba, kind, 1, &config());
        let live = run(&program, RunMode::Live, kind, 1, &config());
        assert_eq!(
            cosim.findings,
            live.findings,
            "{}: live/cosim mismatch",
            program.name()
        );
    }
}

#[test]
fn live_pipeline_matches_cosim_for_all_four_lifeguards() {
    // One lifeguard of each kind, each on a program that exercises it;
    // modeled and live transports must agree finding-for-finding, and the
    // two channels must ship the identical framed byte stream.
    let programs = [
        bugs::memory_bugs(),
        bugs::exploit(),
        bugs::data_race(),
        bugs::memory_bugs(),
    ];
    for (program, monitor) in programs.iter().zip(&MONITORS) {
        let cosim = run(program, RunMode::Lba, monitor, 1, &config());
        let live = run(program, RunMode::Live, monitor, 1, &config());
        assert_eq!(
            cosim.findings,
            live.findings,
            "{}/{}: live/cosim mismatch",
            program.name(),
            monitor.name
        );
        assert_eq!(cosim.log.records, live.log.records, "{}", program.name());
        assert_eq!(cosim.log.frames, live.log.frames, "{}", program.name());
        assert_eq!(
            cosim.log.wire_bits,
            live.log.wire_bits,
            "{}",
            program.name()
        );
    }
}

#[test]
fn live_pipeline_matches_cosim_on_a_real_benchmark() {
    let program = Benchmark::Tidy.build();
    let cosim = run(&program, RunMode::Lba, AddrCheck, 1, &config());
    let live = run(&program, RunMode::Live, AddrCheck, 1, &config());
    assert_eq!(cosim.findings, live.findings);
    // The live channel carries real wire bytes: under a byte per
    // instruction with compression on, and identical to the model's.
    assert!(live.log.wire_bytes_per_instruction < 1.0);
    assert_eq!(cosim.log.wire_bits, live.log.wire_bits);
}

#[test]
fn parallel_shards_agree_with_single_lifeguard() {
    for shards in [2usize, 3, 4] {
        let program = bugs::memory_bugs();
        let kind = AddrCheck;
        let single = run(&program, RunMode::LbaParallel, kind, 1, &config());
        let sharded = run(&program, RunMode::LbaParallel, kind, shards, &config());
        // Same set of findings (order may differ across shard counts).
        assert_eq!(
            single.findings.len(),
            sharded.findings.len(),
            "{shards} shards"
        );
        for f in &single.findings {
            assert!(
                sharded
                    .findings
                    .iter()
                    .any(|g| g.kind == f.kind && g.addr == f.addr && g.pc == f.pc),
                "{shards} shards missing {f}"
            );
        }
    }
}

#[test]
fn event_stream_is_identical_across_modes() {
    // LBA and DBI must observe the same retired-instruction stream: same
    // instruction counts, same kind mix.
    let program = Benchmark::Gzip.build();
    let lba = run(&program, RunMode::Lba, AddrCheck, 1, &config());
    let dbi = run(&program, RunMode::Dbi, AddrCheck, 1, &config());
    assert_eq!(lba.trace, dbi.trace);
}

#[test]
fn lba_runs_are_reproducible() {
    let program = Benchmark::Zchaff.build();
    let lockset = || match run(&program, RunMode::Lba, LockSet, 1, &config()) {
        RunOutcome::Run(r) => (r.total_cycles, r.log.compressed_bits, r.findings.len()),
        _ => unreachable!("Lba reports modeled clocks"),
    };
    assert_eq!(
        lockset(),
        lockset(),
        "deterministic co-simulation must reproduce exactly"
    );
}

#[test]
fn compression_does_not_change_what_the_lifeguard_sees() {
    let program = bugs::memory_bugs();
    let compressed = run(&program, RunMode::Lba, AddrCheck, 1, &config());
    let raw = {
        let mut cfg = config();
        cfg.log.compression = false;
        run(&program, RunMode::Lba, AddrCheck, 1, &cfg)
    };
    assert_eq!(compressed.findings, raw.findings);
    assert_eq!(compressed.trace, raw.trace);
}

/// A finding's cross-shard identity — the same `(kind, pc, addr, tid)`
/// key the sharded modes dedup-merge on, so merged-mode finding sets can
/// be compared against the sequential baseline as sets.
fn finding_keys(findings: &[lba_lifeguard::Finding]) -> std::collections::BTreeSet<String> {
    findings
        .iter()
        .map(|f| format!("{:?}|{:#x}|{:#x}|{}", f.kind, f.pc, f.addr, f.tid))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The registry grid: every run mode in `lba::RUN_MODES`, over every
    /// lifeguard in `lba::MONITORS` its `supports` predicate admits, must
    /// honour its declared equivalence contract against the sequential
    /// `RunMode::Lba` baseline — findings byte-identical (or dedup-set equal
    /// for the merged fan-out modes), record counts exact where
    /// `exact_records` promises it, and wire bits exact where
    /// `exact_wire` does. A mode added to the registry is held to its
    /// contract here with no new test code.
    #[test]
    fn registry_grid_agrees_with_the_sequential_baseline(case in 0usize..4) {
        let program = match case {
            0 => bugs::memory_bugs(),
            1 => bugs::exploit(),
            2 => bugs::tainted_syscall(),
            _ => bugs::data_race(),
        };
        let config = config();
        let scratch = std::env::temp_dir().join(format!("lba-grid-{}-{case}", std::process::id()));
        for monitor in &lba::MONITORS {
            let baseline = Run::new(&program)
                .mode(RunMode::Lba)
                .monitor(monitor)
                .config(&config)
                .run()
                .expect("baseline runs");
            for mode in &lba::RUN_MODES {
                if !(mode.supports)(monitor) {
                    continue;
                }
                let run_mode = RunMode::ALL
                    .into_iter()
                    .find(|m| m.registry_name() == Some(mode.name))
                    .expect("every registry row has a RunMode");
                let outcome = record_then_run(&program, run_mode, monitor, &config, &scratch)
                    .expect("mode runs");
                let what = format!("{}/{} on {}", mode.name, monitor.name, program.name());
                if mode.merged_findings {
                    prop_assert_eq!(
                        finding_keys(&outcome.findings),
                        finding_keys(&baseline.findings),
                        "{}: merged finding set diverges from the baseline",
                        what
                    );
                } else {
                    prop_assert_eq!(
                        &outcome.findings,
                        &baseline.findings,
                        "{}: findings diverge from the baseline",
                        what
                    );
                }
                if mode.exact_records {
                    prop_assert_eq!(
                        outcome.log.records, baseline.log.records,
                        "{}: record accounting diverges from the baseline",
                        what
                    );
                }
                if mode.exact_wire {
                    prop_assert_eq!(
                        outcome.log.wire_bits, baseline.log.wire_bits,
                        "{}: wire accounting diverges from the baseline",
                        what
                    );
                }
            }
        }
    }
}
