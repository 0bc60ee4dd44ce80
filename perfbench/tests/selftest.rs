//! Self-test of the benchmark at tiny scale: one benchmark program plus
//! the planted-bug programs, a zero-second measured phase (one pass).
//! Every metric `BENCHMARK.json` names must come out with a unit, no job
//! may fail on any workload, and a vacuous planted-bug reference must be
//! refused.

use std::path::PathBuf;

use lba::SystemConfig;
use lba_perfbench::plan::{Plan, Workload};
use lba_perfbench::{reference, run, Args};
use lba_workloads::Benchmark;

const TINY: [Benchmark; 1] = [Benchmark::Bc];

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"))
}

/// The metric names listed under `section` of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let value = entry.split('"').nth(1).expect("a quoted name");
            value.to_string()
        })
        .collect()
}

fn check_run(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
    };
    let tag = format!("{}-{}", workload.name(), u8::from(trace));
    let outcome = run(&args, &TINY, &scratch(&tag)).expect("the benchmark runs");
    assert!(outcome.attempted > 0, "{tag}: no jobs ran");
    assert_eq!(
        outcome.failed, 0,
        "{tag}: error_rate must be 0: {:?}",
        outcome.notes
    );
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = listed(section);
    assert!(!names.is_empty());
    for name in &names {
        let metric = outcome
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{tag}: {name} missing"));
        assert!(!metric.unit.is_empty(), "{tag}: {name} has no unit");
        // The tiny set holds one benchmark, so the other programs' wire
        // cost is undefined; everything else must be a number.
        let other_program =
            name.starts_with("compress.wire_bytes_per_inst.") && !name.ends_with(TINY[0].name());
        assert!(
            metric.value.is_finite() || other_program,
            "{tag}: {name} = {}",
            metric.value
        );
    }
    assert_eq!(
        outcome.metrics.len(),
        names.len(),
        "{tag}: reports exactly the listed metrics"
    );
}

#[test]
fn tiny_runs_report_every_end_to_end_metric_without_errors() {
    for workload in Workload::ALL {
        check_run(workload, false);
    }
}

#[test]
fn tiny_traced_runs_report_every_per_layer_metric_without_errors() {
    for workload in Workload::ALL {
        check_run(workload, true);
    }
}

#[test]
fn a_planted_bug_reference_that_comes_back_empty_is_refused() {
    let config = SystemConfig::default();
    let plan = Plan::new(Workload::Live, 5, &TINY);
    let dir = scratch("planted");
    let references = reference::compute(&plan, &config, &dir).expect("references");
    reference::check_planted(&plan, &references).expect("the real references find the bugs");
    for bug in lba_perfbench::plan::PLANTED {
        let mut emptied = references.clone();
        let (_, r) = emptied
            .by_pair
            .iter_mut()
            .find(|((program, monitor), _)| {
                plan.programs[*program].program.name() == bug.program && *monitor == bug.monitor
            })
            .expect("every planted bug is in the live plan");
        r.findings.clear();
        let err = reference::check_planted(&plan, &emptied).unwrap_err();
        assert!(err.contains(bug.program), "{err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
