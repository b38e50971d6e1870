//! Counting global allocator: every allocation the process makes, from
//! any thread, bumps two relaxed counters and is then served by the
//! system allocator unchanged.
//!
//! This is the only file of the benchmark with `unsafe` code: the
//! `GlobalAlloc` trait is `unsafe` to implement, and forwarding to
//! [`System`] needs `unsafe` calls. The counters publish no other data,
//! so `Relaxed` ordering is enough.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with allocation counting.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation is counted as one allocation of the new size.
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub count: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// The process-wide totals now.
    pub fn now() -> AllocCount {
        AllocCount {
            count: COUNT.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations made since `earlier`.
    pub fn since(earlier: AllocCount) -> AllocCount {
        let now = AllocCount::now();
        AllocCount {
            count: now.count - earlier.count,
            bytes: now.bytes - earlier.bytes,
        }
    }
}
