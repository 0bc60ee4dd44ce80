//! Simulated application memory for the LBA reproduction.
//!
//! Provides a sparse, paged flat memory ([`Memory`]), a user-level heap
//! allocator ([`HeapAllocator`]) backing the MiniISA `alloc`/`free`
//! instructions, and the canonical [address-space layout](layout) shared by
//! the CPU model, the workload generators and the lifeguards.
//!
//! # Examples
//!
//! ```
//! use lba_mem::{HeapAllocator, Memory};
//!
//! let mut mem = Memory::new();
//! mem.write_u64(0x4000_0000, 0xdead_beef);
//! assert_eq!(mem.read_u64(0x4000_0000), 0xdead_beef);
//!
//! let mut heap = HeapAllocator::new(0x4000_0000, 1 << 20);
//! let block = heap.alloc(64)?;
//! heap.free(block)?;
//! # Ok::<(), lba_mem::HeapError>(())
//! ```

#![forbid(unsafe_code)]

mod alloc;
pub mod layout;
mod memory;
mod pagedir;

pub use alloc::{HeapAllocator, HeapError};
pub use memory::Memory;
pub use pagedir::PageDirectory;
