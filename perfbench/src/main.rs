//! `lba-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `name value unit` line per metric, `#` notes, and as its
//! last line the JSON result. Exits 2 on a usage error and 1 when set-up
//! fails, printing no result.

use std::path::PathBuf;
use std::process::ExitCode;

use lba_perfbench::Args;
use lba_workloads::Benchmark;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    // Recordings go under the working directory, one directory per
    // process, so concurrent runs in one checkout do not collide.
    let root = PathBuf::from(".perfbench_run");
    let scratch = root.join(std::process::id().to_string());
    let result = lba_perfbench::run(&args, &Benchmark::ALL, &scratch);
    // Removes the shared parent only when no other run still uses it.
    let _ = std::fs::remove_dir(&root);
    match result {
        Ok(outcome) => {
            for line in outcome.lines() {
                println!("{line}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lba-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
