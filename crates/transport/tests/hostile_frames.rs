//! A socket peer that lies about a frame's length must cost the consumer
//! only the bytes it actually sends. This test binary installs an
//! allocator that remembers the largest single allocation, which the
//! crate's own tests cannot do under `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use lba_compress::CODEC_VERSION;
use lba_transport::{FrameSource, SocketSink, SocketSource};

/// The system allocator, recording the largest request it has served.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

// SAFETY: both methods forward unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping only touches an atomic.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `alloc` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[test]
fn lying_frame_length_is_a_torn_wire_not_a_4gib_allocation() {
    let (producer, consumer) = UnixStream::pair().unwrap();
    let mut raw = producer.try_clone().unwrap();
    // A real hello, then a hand-built frame header (tag, timestamp, record
    // count, payload length, checksum) claiming a u32::MAX-byte payload,
    // 16 bytes of that payload, and EOF.
    let sink = SocketSink::connect(producer, 0, CODEC_VERSION, 4).unwrap();
    let mut header = [0u8; 21];
    header[0] = 0x01;
    header[9..13].copy_from_slice(&1u32.to_le_bytes());
    header[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&header).unwrap();
    raw.write_all(&[0xCD; 16]).unwrap();
    drop((sink, raw));

    let mut source = SocketSource::accept(consumer).unwrap();
    let err = source.next_frame_bytes().unwrap_err().to_string();
    assert!(err.contains("after 0 complete frame(s)"), "got: {err}");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 20,
        "a 16-byte payload cost a {largest}-byte allocation"
    );
}
