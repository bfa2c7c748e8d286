//! A long-lived session's memory is bounded: once every bounded structure
//! has filled (the reference monitor's audit ring, the fabric's request log
//! and the session history), one more navigation of a page that links only
//! to itself leaves the session's live heap bytes where they were. The
//! session retains its newest [`RETAINED_PAGES`] pages and drops the rest.
//!
//! A counting wrapper around the system allocator adds the bytes the test
//! thread allocates and subtracts the bytes it frees; other threads (the
//! test harness) are not counted. Page loads run entirely on the navigating
//! thread. This file holds one test so that no other test shares the
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use escudo_browser::{Browser, PolicyMode, MAX_HISTORY, RETAINED_PAGES};
use escudo_core::engine_for_mode;
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(delta: i64) {
    if COUNTING.with(Cell::get) {
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

fn bytes(size: usize) -> i64 {
    i64::try_from(size).expect("an allocation fits in i64")
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(bytes(layout.size()));
        // SAFETY: the caller's guarantees for `layout` hold for `System` too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(bytes(layout.size()));
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` was allocated by this allocator, so by `System`,
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-bytes(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A ring-1 page that links only to itself, fetches one image from its own
/// origin and runs a script that reads and writes the DOM. Its server sets a
/// ring-0 session cookie, which every navigation carries and the ring-1
/// image is denied.
const PAGE: &str = r#"<html><body ring=1 r=1 w=1 x=1>
    <a id=again href="/index.php">again</a>
    <div id=status>idle</div>
    <img src="/logo.png">
    <script>
      var status = document.getElementById('status');
      status.innerHTML = 'loaded';
      status.innerHTML = status.innerHTML + '!';
    </script>
</body></html>"#;

/// Request-log capacity: small, so the log fills within the warm-up.
const LOG_CAPACITY: usize = 16;

/// Navigations after the first reading.
const MEASURED_NAVIGATIONS: usize = 9_000;

/// Live bytes the session may gain over [`MEASURED_NAVIGATIONS`]: less than
/// one retained page.
const SLACK_BYTES: i64 = 1_024;

#[test]
fn a_self_linking_session_stops_growing_once_its_bounds_fill() {
    let fabric = Arc::new(SharedNetwork::with_log_capacity(LOG_CAPACITY));
    fabric.register("http://app.example", |req: &Request| {
        if req.url.path() == "/logo.png" {
            Response::ok_text("img")
        } else {
            Response::ok_html(PAGE).with_cookie(SetCookie::new("sid", "session-1"))
        }
    });
    let mut browser = Browser::with_network(
        engine_for_mode(PolicyMode::Escudo),
        Arc::new(SharedCookieJar::new()),
        Arc::clone(&fabric),
    );

    COUNTING.with(|counting| counting.set(true));
    let mut page = browser
        .navigate("http://app.example/index.php")
        .expect("the app is registered");
    let mut navigations = 1;
    let mut again = |browser: &mut Browser| {
        page = browser
            .click_link(page, "again")
            .expect("the page links to itself");
        navigations += 1;
    };
    // Warm up until the audit ring, the request log and the history are full.
    while browser.erm().audit().len() < browser.erm().audit_capacity()
        || fabric.log_len() < LOG_CAPACITY
        || browser.history().len() < MAX_HISTORY
    {
        again(&mut browser);
    }
    let first = LIVE_BYTES.load(Ordering::Relaxed);
    for _ in 0..MEASURED_NAVIGATIONS {
        again(&mut browser);
    }
    let last = LIVE_BYTES.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(false));

    let warm_up = navigations - MEASURED_NAVIGATIONS;
    assert!(warm_up > RETAINED_PAGES, "warm-up of {warm_up} navigations");
    assert!(
        last - first <= SLACK_BYTES,
        "live bytes grew by {} over {MEASURED_NAVIGATIONS} navigations \
         after a warm-up of {warm_up}",
        last - first
    );
    assert_eq!(browser.history().len(), MAX_HISTORY);
    assert_eq!(fabric.log_len(), LOG_CAPACITY);
    let current = browser.page(page);
    assert_eq!(current.text_of("status").as_deref(), Some("loaded!"));
    assert_eq!(current.subresources.len(), 1);
    assert!(current.subresources[0].succeeded());
    assert_eq!(current.stats.subresource_denials, 1);
}
