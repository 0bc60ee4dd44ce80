//! LockSet catching a data race in a two-thread counter where one thread
//! "forgot" the lock — and staying quiet on the disciplined `water`
//! benchmark.
//!
//! ```sh
//! cargo run --release --example data_race_hunt
//! ```

use lba::{LifeguardKind, Run, RunMode, RunOutcome};
use lba_lifeguard::FindingKind;
use lba_lifeguards::LockSet;
use lba_workloads::{bugs, Benchmark};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The buggy counter.
    let racy = bugs::data_race();
    let report = Run::new(&racy).monitor(LifeguardKind::LockSet).run()?;
    println!("data-race program: {} findings", report.findings.len());
    for finding in report.findings_of(FindingKind::DataRace) {
        println!("  {finding}");
    }
    assert!(report.findings_of(FindingKind::DataRace).next().is_some());

    // 2. The disciplined multithreaded benchmark: no false positives.
    let water = Benchmark::Water.build();
    // Lend the lifeguard to the run so its counters can be read after.
    let mut lockset = LockSet::new();
    let (RunOutcome::Run(baseline), RunOutcome::Run(clean)) = (
        Run::new(&water).mode(RunMode::Unmonitored).run()?,
        Run::new(&water).monitor(&mut lockset).run()?,
    ) else {
        unreachable!("Unmonitored and Lba report modeled clocks");
    };
    println!(
        "\nwater (4 threads, lock-disciplined): {} findings at {:.1}x slowdown",
        clean.findings.len(),
        clean.slowdown_vs(&baseline),
    );
    assert!(clean.findings.is_empty(), "no false positives on water");
    println!(
        "lockset checked {} shared accesses",
        lockset.checked_accesses()
    );
    Ok(())
}
