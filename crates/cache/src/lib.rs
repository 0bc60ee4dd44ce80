//! Cache hierarchy simulator for the LBA reproduction.
//!
//! Models the paper's §3 memory system: per-core split 16 KiB L1
//! instruction/data caches and a 512 KiB shared L2, all set-associative with
//! LRU replacement and write-back/write-allocate policy. Latency accounting
//! is first-order: an L1 hit is folded into the single-CPI core model, an L2
//! hit adds [`Latencies::l2_hit`] cycles and a miss to memory adds
//! [`Latencies::memory`] cycles.
//!
//! The central type is [`MemSystem`], which owns every core's private L1s
//! plus the shared L2 and returns the *extra* cycles for each access:
//!
//! ```
//! use lba_cache::{MemSystem, MemSystemConfig};
//!
//! let mut mem = MemSystem::new(MemSystemConfig::dual_core());
//! let first = mem.data_access(0, 0x4000_0000, 4, false);
//! let again = mem.data_access(0, 0x4000_0000, 4, false);
//! assert!(first > again, "second access hits in L1");
//! assert_eq!(again, 0);
//! ```

#![forbid(unsafe_code)]

mod cache;
mod system;

pub use cache::{Access, CacheConfig, CacheStats, SetAssocCache};
pub use system::{CoreCacheStats, Latencies, MemSystem, MemSystemConfig};
