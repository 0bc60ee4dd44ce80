//! The untraced run: set up, then run the workload's jobs closed-loop
//! through the public `lba::Run` builder until the time is up, checking
//! every job against its reference.

use std::path::Path;
use std::time::{Duration, Instant};

use lba::{LbaError, RecordConfig, Run, RunOutcome, SystemConfig};

use crate::plan::{Job, Plan, Workload, WORKERS};
use crate::reference::{self, References};
use crate::report::{median, percentile, Metric, Outcome};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Timed jobs a run needs at least, so that ten samples lie beyond
/// `job_ms_p90`.
pub const MIN_JOBS: usize = 100;

/// Runs one job through the builder and times `Run::run` alone. The live
/// workload's flight-recorder directory is prepared and removed outside
/// the timed region.
pub fn run_job(
    plan: &Plan,
    references: &References,
    job: &Job,
    config: &SystemConfig,
    scratch: &Path,
) -> (Duration, Result<RunOutcome, LbaError>) {
    let program = plan.program(job);
    let request = Run::new(program)
        .mode(plan.workload.mode())
        .monitor(job.monitor)
        .workers(WORKERS);
    match plan.workload {
        Workload::Live => {
            let tee = scratch.join("live-tee");
            let _ = std::fs::remove_dir_all(&tee);
            let mut recording = config.clone();
            recording.log.record_to = Some(RecordConfig::new(&tee));
            let start = Instant::now();
            let outcome = request.config(&recording).run();
            let elapsed = start.elapsed();
            let _ = std::fs::remove_dir_all(&tee);
            (elapsed, outcome)
        }
        Workload::Replay => {
            let dir = references
                .of(job)
                .recording
                .clone()
                .expect("replay references carry their recording");
            let start = Instant::now();
            let outcome = request.replay_from(dir).config(config).run();
            (start.elapsed(), outcome)
        }
        Workload::Remote | Workload::TaintEpoch => {
            let start = Instant::now();
            let outcome = request.config(config).run();
            (start.elapsed(), outcome)
        }
    }
}

/// What the set-up hands the timed loop.
struct Ready {
    references: References,
    modeled_slowdown: f64,
    failures: Vec<String>,
}

/// One set-up: references (recording the replay corpus), then a warm-up
/// run of the even pass that checks every job and pins the values the
/// mode's row leaves open. The odd pass's pairs are pinned by their first
/// timed run.
fn set_up(plan: &Plan, config: &SystemConfig, scratch: &Path) -> Result<Ready, String> {
    let corpus = scratch.join("corpus");
    let _ = std::fs::remove_dir_all(&corpus);
    let mut references = reference::compute(plan, config, &corpus)?;
    let row = plan.workload.row();
    let mut failures = Vec::new();
    for job in &plan.passes[0] {
        let (_, outcome) = run_job(plan, &references, job, config, scratch);
        match reference::check(row, references.of(job), outcome.as_deref()) {
            Ok(()) => {
                let report = outcome.expect("a checked outcome ran");
                references.pin(job, report.log.records, report.log.wire_bits);
            }
            Err(e) => failures.push(describe(plan, job, &e)),
        }
    }
    let slowdowns: Vec<f64> = plan
        .jobs()
        .map(|job| {
            let r = references.of(job);
            r.lba_cycles as f64 / r.unmonitored_cycles as f64
        })
        .collect();
    Ok(Ready {
        references,
        modeled_slowdown: geometric_mean(&slowdowns),
        failures,
    })
}

fn describe(plan: &Plan, job: &Job, error: &str) -> String {
    let program = &plan.programs[job.program];
    format!(
        "{}@{}/{}: {error}",
        program.program.name(),
        program.scale,
        job.monitor.name
    )
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    items.join(" ")
}

fn geometric_mean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len().max(1) as f64).exp()
}

/// Resets this process's `VmHWM` to its current resident size, so the
/// next reading is the peak of what ran since.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: [`SETUP_REPS`] set-ups, then closed-loop passes over
/// the job set until `seconds` have passed and at least [`MIN_JOBS`] jobs
/// have run, then the end-to-end metrics.
///
/// # Errors
///
/// A set-up that fails or does not repeat itself.
pub fn run(
    plan: &Plan,
    seconds: f64,
    config: &SystemConfig,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let this = set_up(plan, config, scratch)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(first) = &ready {
            if first.references != this.references {
                return Err(
                    "set-up is not reproducible: references differ between repetitions".into(),
                );
            }
        }
        ready = Some(this);
    }
    let Ready {
        mut references,
        modeled_slowdown,
        mut failures,
    } = ready.expect("at least one set-up");
    let row = plan.workload.row();

    // Whole pairs of passes only, so every run times the same multiset
    // of jobs and the seed moves only their order; and enough of them for
    // the p90.
    let mut job_ms = Vec::new();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let (mut captured, mut wire_bits) = (0u64, 0u64);
    let mut attempted = plan.passes[0].len() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rates.len() % 2 == 1 || job_ms.len() < MIN_JOBS || Instant::now() < deadline {
        reset_peak_rss();
        let (mut pass_captured, mut pass_busy) = (0u64, Duration::ZERO);
        for job in &plan.passes[rates.len() % 2] {
            let (elapsed, outcome) = run_job(plan, &references, job, config, scratch);
            attempted += 1;
            job_ms.push(elapsed.as_secs_f64() * 1e3);
            pass_busy += elapsed;
            match reference::check(row, references.of(job), outcome.as_deref()) {
                Ok(()) => {
                    let report = outcome.expect("a checked outcome ran");
                    references.pin(job, report.log.records, report.log.wire_bits);
                    pass_captured += report.log.captured;
                    wire_bits += report.log.wire_bits;
                }
                Err(e) => failures.push(describe(plan, job, &e)),
            }
        }
        captured += pass_captured;
        rates.push(pass_captured as f64 / pass_busy.as_secs_f64() / 1e6);
        peaks.push(peak_rss_mb());
    }

    let failed = failures.len() as u64;
    let mut notes = vec![
        format!("jobs per pass {}", plan.passes[0].len()),
        format!("job samples {}", job_ms.len()),
        format!("passes {}", rates.len()),
        format!("minst_per_s per pass {}", list(&rates)),
        format!("peak_rss_mb per pass {}", list(&peaks)),
        format!("setup repetitions {}", setup_s.len()),
        format!(
            "error_rate {} ({failed} of {attempted} jobs)",
            failed as f64 / attempted as f64
        ),
    ];
    notes.extend(failures.iter().take(5).map(|f| format!("failed job: {f}")));
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("minst_per_s", median(&rates), "Minst/s"),
            Metric::new("job_ms_p50", percentile(&job_ms, 50.0), "ms"),
            Metric::new("job_ms_p90", percentile(&job_ms, 90.0), "ms"),
            Metric::new(
                "wire_bytes_per_inst",
                wire_bits as f64 / 8.0 / captured.max(1) as f64,
                "B/inst",
            ),
            Metric::new("modeled_slowdown", modeled_slowdown, "x"),
            Metric::new("peak_rss_mb", median(&peaks), "MB"),
        ],
        notes,
    })
}
