//! End-to-end detection tests: every planted bug is caught by the right
//! lifeguard under every execution model, and the clean benchmarks stay
//! clean.

use lba::{LifeguardKind, Run, RunMode, RunOutcome};
use lba_isa::Program;
use lba_lifeguard::FindingKind;
use lba_workloads::{bugs, Benchmark};

/// `kind` over `program` in `mode` (4 shards for the sharded mode), at
/// the default configuration.
fn run(program: &Program, mode: RunMode, kind: LifeguardKind) -> RunOutcome {
    let outcome = Run::new(program).mode(mode).monitor(kind).workers(4).run();
    outcome.unwrap_or_else(|e| panic!("{mode}/{kind} on {}: {e}", program.name()))
}

#[test]
fn memory_bugs_caught_under_all_execution_models() {
    let program = bugs::memory_bugs();
    let expected = [
        FindingKind::UnallocatedAccess,
        FindingKind::DoubleFree,
        FindingKind::InvalidFree,
        FindingKind::Leak,
    ];

    let lba = run(&program, RunMode::Lba, LifeguardKind::AddrCheck);
    let dbi = run(&program, RunMode::Dbi, LifeguardKind::AddrCheck);
    let live = run(&program, RunMode::Live, LifeguardKind::AddrCheck);
    let par = run(&program, RunMode::LbaParallel, LifeguardKind::AddrCheck);

    for kind in expected {
        assert!(
            lba.findings.iter().any(|f| f.kind == kind),
            "LBA missing {kind}"
        );
        assert!(
            dbi.findings.iter().any(|f| f.kind == kind),
            "DBI missing {kind}"
        );
        assert!(
            live.findings.iter().any(|f| f.kind == kind),
            "live missing {kind}"
        );
        assert!(
            par.findings.iter().any(|f| f.kind == kind),
            "parallel missing {kind}"
        );
    }
}

#[test]
fn exploit_caught_and_attack_details_reported() {
    let program = bugs::exploit();
    let report = run(&program, RunMode::Lba, LifeguardKind::TaintCheck);
    let finding = report
        .findings_of(FindingKind::TaintedJump)
        .next()
        .expect("tainted jump reported");
    // The finding names the hijacked target, which must be the privileged
    // entry the payload encodes.
    let payload_target = u64::from_le_bytes(program.input()[32..40].try_into().unwrap());
    assert_eq!(finding.addr, payload_target);
}

#[test]
fn tainted_syscall_argument_caught() {
    let program = bugs::tainted_syscall();
    let report = run(&program, RunMode::Lba, LifeguardKind::TaintCheck);
    assert!(report
        .findings_of(FindingKind::TaintedSyscallArg)
        .next()
        .is_some());
}

#[test]
fn data_race_caught_in_lba_and_dbi() {
    let program = bugs::data_race();
    let lba = run(&program, RunMode::Lba, LifeguardKind::LockSet);
    assert!(lba.findings_of(FindingKind::DataRace).next().is_some());

    let dbi = run(&program, RunMode::Dbi, LifeguardKind::LockSet);
    assert!(dbi.findings.iter().any(|f| f.kind == FindingKind::DataRace));
}

#[test]
fn lba_and_dbi_produce_identical_findings_on_bug_programs() {
    for (program, kind) in [
        (bugs::memory_bugs(), LifeguardKind::AddrCheck),
        (bugs::exploit(), LifeguardKind::TaintCheck),
        (bugs::data_race(), LifeguardKind::LockSet),
    ] {
        let lba = run(&program, RunMode::Lba, kind);
        // DBI runs the *same* analysis; the LockSet DBI variant differs
        // only in cost model, not semantics.
        let dbi = run(&program, RunMode::Dbi, kind);
        assert_eq!(
            lba.findings,
            dbi.findings,
            "{}: finding mismatch",
            program.name()
        );
    }
}

#[test]
fn clean_benchmarks_stay_clean_everywhere() {
    for benchmark in [Benchmark::Bc, Benchmark::Gs, Benchmark::W3m] {
        let program = benchmark.build();
        for kind in [LifeguardKind::AddrCheck, LifeguardKind::TaintCheck] {
            let report = run(&program, RunMode::Lba, kind);
            assert!(
                report.findings.is_empty(),
                "{}/{}: {:?}",
                benchmark.name(),
                kind.name(),
                report.findings
            );
        }
    }
    for benchmark in Benchmark::MULTI_THREADED {
        let program = benchmark.build();
        let report = run(&program, RunMode::Lba, LifeguardKind::LockSet);
        assert!(
            report.findings.is_empty(),
            "{}: {:?}",
            benchmark.name(),
            report.findings
        );
    }
}
