//! The three lifeguards evaluated in the paper (§3).
//!
//! * [`AddrCheck`] — "detects accesses to unallocated memory, double
//!   `free()`, and memory leaks" (after Valgrind's Addrcheck tool);
//! * [`TaintCheck`] — "detects security exploits by tracking the
//!   propagation of inputs, and checking if they eventually modify jump
//!   target addresses or other critical data" (after Newsome & Song);
//! * [`LockSet`] — "detects possible data races in multithreaded programs
//!   using the LockSet algorithm" (after Eraser, Savage et al.).
//!
//! All three implement [`lba_lifeguard::Lifeguard`], so they run unchanged
//! under the LBA dispatch engine (on the lifeguard core) and under the DBI
//! baseline (inline on the application core) — only the cost attribution
//! differs, exactly as in the paper's comparison.
//!
//! # Capture-filter soundness stories
//!
//! Each lifeguard declares how much capture-side duplicate suppression it
//! tolerates ([`lba_lifeguard::Lifeguard::idempotency`]); the filtered
//! run is proptest-pinned byte-identical in findings to the unfiltered
//! one (`tests/idempotency.rs` at the workspace root):
//!
//! * [`AddrCheck`] — **window-dedupable at the 16-byte allocation
//!   granule.** Its verdict is a function of `(pc, granule)` and the
//!   granule's allocation state; only `alloc`/`free` change that state,
//!   so they flush the window. Reports are already deduplicated on
//!   `(pc, granule)`, so a suppressed re-check can never have produced a
//!   new finding.
//! * [`LockSet`] — **window-dedupable at the exact address, flushed on
//!   `lock`/`unlock` and on every thread interleave.** Within one
//!   same-thread, same-lockset run, Eraser's candidate-set intersection
//!   is idempotent and the word state machine only moves toward the
//!   state the first occurrence reached; cross-thread accesses and
//!   lockset changes — the two things that can alter a settled verdict —
//!   both flush.
//! * [`MemProfile`] — **fold-dedupable at the 64-byte line.** Duplicates
//!   matter only as counts, so the filter accumulates them and re-emits
//!   an [`lba_record::EventKind::Repeat`] summary on eviction and at
//!   flush points; the handler multiplies the summary back in, keeping
//!   every total exact.
//! * [`TaintCheck`] — **opts out entirely.** Every access propagates
//!   taint state, so no record is a pure re-check; the filter provably
//!   never drops from its stream (mirroring its exclusion from
//!   address-interleaved sharding). Its parallelism story is *epoch
//!   summaries* instead: [`taint_summary`] computes per-epoch symbolic
//!   transfer functions over unknown epoch-entry state, which a merge
//!   step resolves sequentially — byte-identical findings, summarize
//!   work off the critical path (see the module's soundness argument
//!   and `lba_core`'s `RunMode::EpochParallel`).
//!
//! # Degradation contracts
//!
//! Each lifeguard likewise declares how capture may *degrade* under
//! back-pressure ([`lba_lifeguard::Lifeguard::degradation`]), following
//! the same contract discipline; the per-lifeguard soundness arguments
//! sit next to the idempotency stories on each `degradation` impl, and
//! `tests/degradation.rs` pins them:
//!
//! * [`AddrCheck`] — widening, `lock`/`unlock` dropping, and sampling of
//!   provably-allocated regions via its [`AllocSettled`] oracle;
//! * [`LockSet`] — widening only (an interleave or first touch must
//!   never be masked);
//! * [`MemProfile`] — widening, dropping of every profile-irrelevant
//!   kind, and unconditional sampling (its profile, not any finding, is
//!   what degrades);
//! * [`TaintCheck`] — nothing: a none-policy means the capture
//!   controller is never constructed and its stream is provably
//!   untouched.
//!
//! # Examples
//!
//! ```
//! use lba_cache::{MemSystem, MemSystemConfig};
//! use lba_lifeguard::{DispatchEngine, Lifeguard};
//! use lba_lifeguards::AddrCheck;
//! use lba_record::{EventKind, EventRecord};
//!
//! let mut mem = MemSystem::new(MemSystemConfig::dual_core());
//! let mut findings = Vec::new();
//! let engine = DispatchEngine::default();
//! let mut addrcheck = AddrCheck::new();
//!
//! // A load from heap memory that was never allocated:
//! let rec = EventRecord::load(0x1000, 0, Some(1), Some(2), 0x4000_0040, 8);
//! engine.deliver(&mut addrcheck, &rec, &mut mem, 1, &mut findings);
//! assert_eq!(findings.len(), 1);
//! ```

#![forbid(unsafe_code)]

mod addrcheck;
mod lockset;
mod memprofile;
pub mod taint_summary;
mod taintcheck;

pub use addrcheck::{AddrCheck, AllocSettled};
pub use lockset::{LockSet, LockSetConfig};
pub use memprofile::{MemProfile, MemoryProfile};
pub use taint_summary::{TaintSummarizer, TaintSummary};
pub use taintcheck::TaintCheck;
