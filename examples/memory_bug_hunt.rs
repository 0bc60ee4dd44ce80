//! AddrCheck sweeping a program with the full memory-bug menu:
//! use-after-free, double free, invalid free, a leak and a wild heap
//! access — with the log-based pipeline's own statistics on display.
//!
//! ```sh
//! cargo run --release --example memory_bug_hunt
//! ```

use lba::{LifeguardKind, Run, RunMode, RunOutcome};
use lba_lifeguard::FindingKind;
use lba_workloads::bugs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = bugs::memory_bugs();
    let baseline = Run::new(&program).mode(RunMode::Unmonitored).run()?;
    let report = Run::new(&program)
        .mode(RunMode::Lba)
        .monitor(LifeguardKind::AddrCheck)
        .run()?;
    let (RunOutcome::Run(baseline), RunOutcome::Run(report)) = (baseline, report) else {
        unreachable!("Unmonitored and Lba report modeled clocks");
    };

    println!(
        "memory-bugs under LBA AddrCheck ({:.1}x):",
        report.slowdown_vs(&baseline)
    );
    for kind in [
        FindingKind::UnallocatedAccess,
        FindingKind::DoubleFree,
        FindingKind::InvalidFree,
        FindingKind::Leak,
    ] {
        let found: Vec<_> = report.findings_of(kind).collect();
        println!("\n{kind} ({}):", found.len());
        for finding in found {
            println!("  {finding}");
        }
    }

    println!(
        "\npipeline: {} records, {:.3} B/inst compressed",
        report.log.records, report.log.bytes_per_instruction
    );
    println!(
        "stalls:   {} syscall-stall cycles over {} syscalls (containment)",
        report.stalls.syscall_stall_cycles, report.stalls.syscalls,
    );

    assert!(report.findings_of(FindingKind::UnallocatedAccess).count() >= 2);
    assert_eq!(report.findings_of(FindingKind::DoubleFree).count(), 1);
    assert_eq!(report.findings_of(FindingKind::InvalidFree).count(), 1);
    assert_eq!(report.findings_of(FindingKind::Leak).count(), 1);
    Ok(())
}
