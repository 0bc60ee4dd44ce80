//! End-to-end and per-layer benchmark of the LBA monitoring pipeline.
//!
//! One run takes a workload and a seed. With tracing off it sets up the
//! seeded job set and its references, runs the jobs closed-loop through
//! the public `lba::Run` builder, checks every job, and reports the
//! end-to-end metrics. With tracing on it composes each layer from its
//! public functions over the same job set and reports per-layer metrics.
//! `README.md` beside this crate lists the metrics, the workloads, and
//! which end-to-end metric each layer metric should move.

pub mod e2e;
pub mod plan;
pub mod reference;
pub mod report;
pub mod traced;

use std::path::Path;

use lba::SystemConfig;
use lba_workloads::Benchmark;

use plan::{Plan, Workload};
use report::Outcome;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The seed of the job set.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: lba-perfbench --workload <live|replay|remote|taint-epoch> \
                     --seed <u64> --seconds <n> --trace <0|1>";

impl Args {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// A usage message for a missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
            }
        }
        let missing = |name: &str| format!("missing {name}\n{USAGE}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs the benchmark over the given `Benchmark::ALL` programs (all nine
/// outside the self-test), using `scratch` for recordings; the directory
/// is removed afterwards.
///
/// # Errors
///
/// A set-up failure: a reference run that fails, a planted bug the
/// reference misses, or a set-up that does not repeat itself.
pub fn run(args: &Args, benchmarks: &[Benchmark], scratch: &Path) -> Result<Outcome, String> {
    let config = SystemConfig::default();
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let plan = Plan::new(args.workload, args.seed, benchmarks);
    let result = if args.trace {
        traced::run(&plan, args.seconds, &config, scratch)
    } else {
        e2e::run(&plan, args.seconds, &config, scratch)
    };
    let _ = std::fs::remove_dir_all(scratch);
    let mut outcome = result?;
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    outcome.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} nproc {nproc}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );
    Ok(outcome)
}
