//! The request log's hot path: once every slot of a full log has been
//! reused, recording a request allocates nothing.
//!
//! A counting wrapper around the system allocator counts the allocations
//! the test thread makes while it records; other threads (the test harness)
//! are not counted. This file holds one test so that no other test shares
//! the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use escudo_net::{Request, SharedNetwork};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` hold for `System` too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by this allocator, so by `System`,
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A `GET` of a path of fixed length carrying two cookies, so every request
/// has the same shape.
fn request(i: usize) -> Request {
    Request::get(&format!(
        "http://a.example/page{:04}?id={:04}",
        i % 10_000,
        i % 7
    ))
    .expect("literal URL parses")
    .with_header("Cookie", "sid=abc123; theme=dark")
}

#[test]
fn a_full_log_records_without_allocating() {
    let net = SharedNetwork::with_log_capacity(64);
    assert_eq!(net.log_capacity(), 64);
    // Fill the log and rotate it once: every slot has now been overwritten
    // by a request of the shape recorded below.
    for i in 0..128 {
        net.record_cache_hit(net.reserve_sequences(1), &request(i), 200);
    }
    assert_eq!(net.log_len(), 64);
    let requests: Vec<Request> = (0..1_000).map(request).collect();

    COUNTING.with(|counting| counting.set(true));
    for request in &requests {
        net.record_cache_hit(net.reserve_sequences(1), request, 200);
    }
    COUNTING.with(|counting| counting.set(false));

    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0);
    assert_eq!(net.log_len(), 64);
    assert_eq!(net.dropped_log_entries(), 64 + 1_000);
    let log = net.log();
    assert_eq!(log.last().map(|e| e.url.path()), Some("/page0999"));
    assert!(log.iter().all(|e| e.cookie_names == ["sid", "theme"]));
}
