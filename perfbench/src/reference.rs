//! The correctness reference every job is checked against: the
//! sequential `RunMode::Lba` co-simulation of the same (program,
//! monitor), compared as the mode's `RUN_MODES` row says.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lba::{LbaError, PipelineReport, RecordConfig, Run, RunMode, RunModeSpec, SystemConfig};
use lba_lifeguard::Finding;

use crate::plan::{Job, Plan, Workload};

/// What the reference run of one (program, monitor) pair reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Findings in report order.
    pub findings: Vec<Finding>,
    /// Records shipped.
    pub records: u64,
    /// Wire bits shipped.
    pub wire_bits: u64,
    /// Modeled cycles of the monitored run.
    pub lba_cycles: u64,
    /// Modeled cycles of the program alone.
    pub unmonitored_cycles: u64,
    /// The recording of the reference run, for the replay workload.
    pub recording: Option<PathBuf>,
    /// Records and wire bits of the workload's own mode where its row
    /// does not promise the reference's: pinned by the first run of the
    /// pair, so every later run must repeat them.
    pub pinned: Option<(u64, u64)>,
}

/// The references of a plan, one per [`Plan::pairs`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct References {
    /// `(program index, monitor name)` → reference.
    pub by_pair: Vec<((usize, &'static str), Reference)>,
}

impl References {
    /// The reference of `job`'s pair.
    #[must_use]
    pub fn of(&self, job: &Job) -> &Reference {
        self.index(job)
            .map(|i| &self.by_pair[i].1)
            .expect("every job's pair has a reference")
    }

    fn index(&self, job: &Job) -> Option<usize> {
        self.by_pair
            .iter()
            .position(|(key, _)| *key == (job.program, job.monitor.name))
    }

    /// Pins the workload's own records and wire bits for `job`'s pair.
    pub fn pin(&mut self, job: &Job, records: u64, wire_bits: u64) {
        let i = self.index(job).expect("every job's pair has a reference");
        self.by_pair[i].1.pinned.get_or_insert((records, wire_bits));
    }
}

/// Runs the reference of every pair of `plan`. For the replay workload
/// the reference run also records the stream the timed loop replays,
/// under `corpus`.
///
/// # Errors
///
/// A reference run that fails, or a planted bug the reference misses.
pub fn compute(plan: &Plan, config: &SystemConfig, corpus: &Path) -> Result<References, String> {
    let unmonitored: Vec<Result<u64, String>> = plan
        .programs
        .iter()
        .map(|p| {
            Run::new(&p.program)
                .mode(RunMode::Unmonitored)
                .config(config)
                .run()
                .map(|run| run_cycles(&run))
                .map_err(|e| format!("{}: unmonitored reference: {e}", p.program.name()))
        })
        .collect();
    let pairs = plan.pairs();
    let runs = pairs.iter().enumerate().map(|(i, job)| {
        let program = plan.program(job);
        let recording =
            (plan.workload == Workload::Replay).then(|| corpus.join(format!("pair-{i}")));
        let mut pair_config = config.clone();
        pair_config.log.record_to = recording.as_ref().map(RecordConfig::new);
        let run = Run::new(program)
            .mode(RunMode::Lba)
            .monitor(job.monitor)
            .config(&pair_config)
            .run()
            .map_err(|e| {
                format!(
                    "{}/{}: lba reference: {e}",
                    program.name(),
                    job.monitor.name
                )
            })?;
        Ok::<_, String>(Reference {
            findings: run.findings.clone(),
            records: run.log.records,
            wire_bits: run.log.wire_bits,
            lba_cycles: run_cycles(&run),
            unmonitored_cycles: 0,
            recording,
            pinned: None,
        })
    });
    let mut by_pair = Vec::new();
    for (job, run) in pairs.iter().zip(runs) {
        let mut reference = run?;
        reference.unmonitored_cycles = unmonitored[job.program].clone()?;
        by_pair.push(((job.program, job.monitor.name), reference));
    }
    let references = References { by_pair };
    check_planted(plan, &references)?;
    Ok(references)
}

fn run_cycles(outcome: &lba::RunOutcome) -> u64 {
    match outcome {
        lba::RunOutcome::Run(report) => report.total_cycles,
        _ => unreachable!("Lba and Unmonitored runs produce RunReports"),
    }
}

/// Fails unless every planted bug of the plan is found by its monitor's
/// reference run, exactly as often as it was planted: a reference that
/// finds nothing would pass every comparison vacuously.
///
/// # Errors
///
/// Names the first planted bug whose reference finding count is off.
pub fn check_planted(plan: &Plan, references: &References) -> Result<(), String> {
    for job in plan.pairs() {
        let Some(bug) = plan.programs[job.program].planted else {
            continue;
        };
        if bug.monitor != job.monitor.name {
            continue;
        }
        let found = references.of(&job).findings.len();
        if found != bug.findings {
            return Err(format!(
                "planted-bug reference {}/{} reported {found} finding(s), expected {}",
                bug.program, bug.monitor, bug.findings
            ));
        }
    }
    Ok(())
}

/// Compares findings exactly, or as sets keyed on `(kind, pc, addr,
/// tid)` — the identity the fan-out modes deduplicate on — when `merged`.
///
/// # Errors
///
/// Gives both counts when they differ.
pub fn same_findings(merged: bool, got: &[Finding], want: &[Finding]) -> Result<(), String> {
    let keys = |findings: &[Finding]| -> BTreeSet<(String, u64, u64, u8)> {
        findings
            .iter()
            .map(|f| (format!("{:?}", f.kind), f.pc, f.addr, f.tid))
            .collect()
    };
    let equal = if merged {
        keys(got) == keys(want)
    } else {
        got == want
    };
    if equal {
        Ok(())
    } else {
        Err(format!(
            "findings differ: {} reported, reference {}",
            got.len(),
            want.len()
        ))
    }
}

/// Checks one job's outcome against its reference, as `row` says: exact
/// findings or a set-merge, exact records and wire bits only where the
/// row promises them, and otherwise the values pinned by the pair's
/// first run.
///
/// # Errors
///
/// Describes the first difference.
pub fn check(
    row: &RunModeSpec,
    reference: &Reference,
    outcome: Result<&PipelineReport, &LbaError>,
) -> Result<(), String> {
    let got = outcome.map_err(|e| format!("run failed: {e}"))?;
    same_findings(row.merged_findings, &got.findings, &reference.findings)?;
    let expect = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what} differ: {got} vs reference {want}"))
        }
    };
    if row.exact_records {
        expect("records", got.log.records, reference.records)?;
    }
    if row.exact_wire {
        expect("wire bits", got.log.wire_bits, reference.wire_bits)?;
    }
    if let Some((records, wire_bits)) = reference.pinned {
        expect("records (pinned)", got.log.records, records)?;
        expect("wire bits (pinned)", got.log.wire_bits, wire_bits)?;
    }
    Ok(())
}
