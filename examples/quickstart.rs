//! Quickstart: assemble a tiny program, run it under LBA with AddrCheck,
//! and inspect what the lifeguard saw.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lba::{LifeguardKind, Run, RunMode, RunOutcome};
use lba_isa::parse_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program with a use-after-free, written in the textual assembly.
    let program = parse_program(
        "
        .name quickstart
        movi r1, 64
        alloc r2, r1        ; r2 = malloc(64)
        movi r3, 7
        store.8 r3, [r2+0]  ; fine
        free r2
        load.8 r4, [r2+0]   ; bug: use after free
        syscall 1
        halt
        ",
    )?;

    let baseline = Run::new(&program).mode(RunMode::Unmonitored).run()?;
    let monitored = Run::new(&program)
        .mode(RunMode::Lba)
        .monitor(LifeguardKind::AddrCheck)
        .run()?;
    let (RunOutcome::Run(baseline), RunOutcome::Run(monitored)) = (baseline, monitored) else {
        unreachable!("Unmonitored and Lba report modeled clocks");
    };
    println!("unmonitored: {} cycles", baseline.total_cycles);
    println!(
        "under LBA:   {} cycles ({:.1}x), log {:.3} B/inst",
        monitored.total_cycles,
        monitored.slowdown_vs(&baseline),
        monitored.log.bytes_per_instruction,
    );

    println!("\nlifeguard findings:");
    for finding in &monitored.findings {
        println!("  {finding}");
    }
    assert!(
        !monitored.findings.is_empty(),
        "AddrCheck should have caught the use-after-free"
    );
    Ok(())
}
