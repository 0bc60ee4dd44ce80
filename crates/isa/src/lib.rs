//! MiniISA: the instruction set executed by the LBA reproduction.
//!
//! The paper monitors x86 binaries running on Simics. This crate provides the
//! laptop-scale substitute: a small RISC-flavoured instruction set with
//! first-class *runtime events* (`alloc`, `free`, `lock`, `unlock`, `recv`,
//! `syscall`) so that the log capture hardware can observe the same event
//! stream the paper's lifeguards consume (the paper obtained these events by
//! instrumenting libc; see DESIGN.md §2).
//!
//! The crate contains:
//!
//! * [`Reg`] / [`AluOp`] / [`Cond`] / [`Width`] — operand vocabulary,
//! * [`Instruction`] — the instruction enum with a fixed 8-byte binary
//!   encoding ([`Instruction::encode`] / [`Instruction::decode`]),
//! * [`Program`] — a validated code image plus data segments, entry points
//!   and an external input stream,
//! * [`Assembler`] — a builder for constructing programs in Rust,
//! * [`parse_program`] — a line-oriented textual assembler.
//!
//! # Examples
//!
//! ```
//! use lba_isa::{Assembler, Reg};
//!
//! let mut asm = Assembler::new("count");
//! let r1 = Reg::new(1);
//! let done = asm.label("done");
//! let top = asm.label("top");
//! asm.movi(r1, 3);
//! asm.bind(top);
//! asm.subi(r1, r1, 1);
//! asm.bne(r1, Reg::ZERO, top);
//! asm.bind(done);
//! asm.halt();
//! let program = asm.finish().expect("label resolution succeeds");
//! assert_eq!(program.len(), 4);
//! ```

#![forbid(unsafe_code)]

mod builder;
mod inst;
mod parse;
mod program;
mod reg;

pub use builder::{AsmError, Assembler, Label};
pub use inst::{AluOp, Cond, DecodeInstructionError, Instruction, Width};
pub use parse::{parse_program, ParseProgramError};
pub use program::{DataSegment, Program, ProgramError, CODE_BASE, INST_BYTES};
pub use reg::{r, Reg};
