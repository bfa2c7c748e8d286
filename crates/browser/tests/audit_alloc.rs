//! Auditing a mediation plan allocates nothing per check: on an audit ring
//! with room, a 16-check [`Erm::mediate_jar`] plan (16 requests to one host
//! holding one cookie) makes exactly as many allocations as a 1-check plan.
//! Every audit record shares its principal's and its object's label instead
//! of copying it.
//!
//! A counting wrapper around the system allocator counts the allocations
//! the test thread makes while it mediates; other threads (the test harness)
//! are not counted. This file holds one test so that no other test shares
//! the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use escudo_browser::Erm;
use escudo_core::{
    Acl, ObjectContext, ObjectKind, Operation, Origin, PolicyMode, PrincipalContext, PrincipalKind,
    Ring,
};
use escudo_net::{SetCookie, SharedCookieJar, Url};

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

/// The ring-1 context of a cookie, labelled like the page's cookie objects.
fn cookie_object(name: &str, origin: Origin) -> ObjectContext {
    ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1))
        .with_acl(Acl::uniform(Ring::new(1)))
        .with_label(format!("cookie {name}"))
}

/// Runs one plan of `requests` and returns the allocations it made.
fn allocations_of(
    erm: &mut Erm,
    jar: &SharedCookieJar,
    requests: &[(&Url, &PrincipalContext)],
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(true));
    let plan = erm.mediate_jar(jar, requests, Operation::Use, cookie_object);
    COUNTING.with(|counting| counting.set(false));
    assert!(plan.iter().all(|attached| attached.header == "sid=s1"));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn auditing_a_plan_allocates_nothing_per_check() {
    let jar = SharedCookieJar::new();
    let site = Url::parse("http://img.example/").expect("literal URL parses");
    jar.store(&site, &SetCookie::new("sid", "s1"));
    let urls: Vec<Url> = (0..16)
        .map(|i| Url::parse(&format!("http://img.example/i{i:02}.png")).expect("URL parses"))
        .collect();
    let principal =
        PrincipalContext::new(PrincipalKind::RequestIssuer, site.origin(), Ring::new(1))
            .with_label("img src=/i00.png");
    let requests: Vec<(&Url, &PrincipalContext)> =
        urls.iter().map(|url| (url, &principal)).collect();

    // Give the audit ring room for both measured plans, then empty it.
    let mut erm = Erm::new(PolicyMode::Escudo);
    for _ in 0..4 {
        let _ = erm.mediate_jar(&jar, &requests, Operation::Use, cookie_object);
    }
    let _ = erm.take_audit();

    let one = allocations_of(&mut erm, &jar, &requests[..1]);
    let sixteen = allocations_of(&mut erm, &jar, &requests);
    assert_eq!(erm.checks(), 4 * 16 + 1 + 16);
    assert_eq!(erm.denials(), 0);
    assert_eq!(erm.audit().len(), 1 + 16);
    assert_eq!(
        sixteen, one,
        "a 16-check plan allocated {sixteen} times, a 1-check plan {one}"
    );

    // Every record shares the principal's label rather than copying it.
    assert!(erm
        .audit()
        .iter()
        .all(|record| Arc::ptr_eq(&record.principal.label, &principal.label)));
}
