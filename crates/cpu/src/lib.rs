//! The in-order CPU model executing MiniISA programs.
//!
//! Implements the paper's §3 core model: single cycle per instruction plus
//! cache penalties from [`lba_cache::MemSystem`]. The machine supports
//! multiple application threads (for the LockSet workloads `water` and
//! `zchaff`) scheduled round-robin on one core, a user-level heap backing
//! `alloc`/`free`, blocking locks, an external input stream for `recv`, and
//! a retire hook producing one [`lba_record::EventRecord`] per instruction —
//! the LBA capture unit's view.
//!
//! # Examples
//!
//! ```
//! use lba_cache::{MemSystem, MemSystemConfig};
//! use lba_cpu::{Machine, MachineConfig, StepOutcome};
//! use lba_isa::parse_program;
//!
//! let program = parse_program("movi r1, 2\nmuli r1, r1, 21\nhalt")?;
//! let mut machine = Machine::new(&program, MachineConfig::default());
//! let mut mem = MemSystem::new(MemSystemConfig::single_core());
//! let mut retired = 0;
//! while let lba_cpu::StepOutcome::Retired(_) = machine.step(&mut mem)? {
//!     retired += 1;
//! }
//! assert_eq!(retired, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod error;
mod machine;
mod thread;

pub use error::RunError;
pub use machine::{Machine, MachineConfig, Retired, StepOutcome};
pub use thread::ThreadState;
