//! End-to-end guarantees of the mediation-keyed shared response cache:
//!
//! * cache on vs off is **oracle-equivalent**: byte-identical sequence-sorted
//!   request logs, per-subresource attached cookie names and verdict-relevant
//!   page state — a hit skips transport, never a mediation step,
//! * the cache key includes the exact mediated `Cookie` header, so two
//!   sessions with different cookies **never** share an entry: the foreign
//!   entry is discarded fail-closed and refetched, and counted as a
//!   persistent stale discard, never as prefetch staleness,
//! * `Cache-Control: no-store` is honored and a response without an explicit
//!   `max-age` is never persisted,
//! * `max-age` expiry is **exactly countable** under a hand-advanced
//!   [`ManualClock`], and
//! * duplicate URLs within one subresource plan **single-flight**: one
//!   dispatch serves every duplicate slot, each still logged under its own
//!   sequence number,
//! * responses that carry `Set-Cookie` are **never** admitted into the shared
//!   cache — per-recipient session state cannot leak across sessions whose
//!   mediated `Cookie` headers happen to match,
//! * each opt-in consumes only its own layer: a prefetch-only session never
//!   drains another session's persistent entry and a cache-only session never
//!   drains a one-shot speculative entry, and
//! * a coalesced duplicate whose primary dispatch failed falls back under the
//!   session's own `FetchPolicy`, spending the same retry budget a
//!   non-coalesced slot would, and
//! * script-initiated XHR consults and fills only the persistent layer, and
//!   only for a `GET` without a body: repeat XHRs hit and log like the
//!   cache-off run, a one-shot prefetch entry is left for the navigation it
//!   predicted, and a `POST` always goes to the origin.
//!
//! The TTL walk and the single-flight page here are the cache's tier-1
//! gates. The cacheable site is `escudo_bench::cache`'s, the one the
//! `cache_concurrent` speedup gate loads.
//!
//! [`ManualClock`]: escudo::core::ManualClock

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use escudo::browser::{Browser, ControlPlaneSnapshot, HealthVerdict};
use escudo::core::config::CookiePolicy;
use escudo::core::{engine_for_mode, Acl, ManualClock, PolicyMode, Ring};
use escudo::net::{
    FabricCounters, FaultPlan, FetchPolicy, Request, Response, SetCookie, SharedCookieJar,
    SharedNetwork,
};
use escudo_bench::cache::{register_cache_world, CACHE_WORLD_SUBRESOURCES};
use escudo_bench::oracle::{Transcript, TranscriptDiff};

fn cache_browser(fabric: &Arc<SharedNetwork>, enabled: bool) -> Browser {
    let mut browser = Browser::with_network(
        engine_for_mode(PolicyMode::Escudo),
        Arc::new(SharedCookieJar::new()),
        Arc::clone(fabric),
    );
    browser.set_response_cache_enabled(enabled);
    browser
}

#[test]
fn cache_on_and_off_runs_are_oracle_equivalent() {
    let run = |enabled: bool| {
        let fabric = Arc::new(SharedNetwork::new());
        register_cache_world(&fabric, "shop.example", "sid", Duration::from_micros(50));
        let mut browser = cache_browser(&fabric, enabled);
        let mut urls = vec!["http://shop.example/login.php"];
        urls.extend(["http://shop.example/index.php"; 3]);
        let transcript = Transcript::record(&mut browser, urls);
        (transcript, browser.cache_hits())
    };

    let (on, hits) = run(true);
    let (off, off_hits) = run(false);

    // Repeat navigations 2 and 3 served document + every subresource from the
    // cache; the disabled side touched the origin each time.
    assert_eq!(hits, 2 * (1 + CACHE_WORLD_SUBRESOURCES));
    assert_eq!(off_hits, 0);

    // The transcripts are identical: a hit is logged under the consuming
    // navigation's own sequence exactly as the live dispatch would have been
    // (method, URL, cookie names, status), and mediation ran just the same.
    assert_eq!(
        on.diff(&off),
        TranscriptDiff {
            requests: 1 + 3 * (1 + CACHE_WORLD_SUBRESOURCES as usize),
            ..TranscriptDiff::default()
        },
        "cache-on run diverged from the cache-off oracle"
    );
}

/// A portal whose `max-age` page echoes the exact `Cookie` header the origin
/// received (a cross-header cache hit would surface the wrong echo), and two
/// cache-on sessions on it, logged in as alice and bob.
fn portal_sessions(fabric: &Arc<SharedNetwork>) -> (Browser, Browser) {
    let policy = CookiePolicy::new("sid", Ring::new(1)).with_acl(Acl::uniform(Ring::new(1)));
    fabric.register("http://portal.example", move |req: &Request| {
        if req.url.path() == "/login.php" {
            let user = req.param("user").unwrap_or_default();
            Response::ok_html("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">in</body></html>")
                .with_cookie(SetCookie::new("sid", user))
                .with_cookie_policy(&policy)
        } else {
            let echo = req.headers.get("Cookie").unwrap_or("").to_string();
            Response::ok_html(format!(
                "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">\
                 <p id=\"who\">{echo}</p></body></html>"
            ))
            .with_max_age(3600)
            .with_cookie_policy(&policy)
        }
    });
    let [alice, bob] = ["alice", "bob"].map(|user| {
        let mut browser = cache_browser(fabric, true);
        browser
            .navigate(&format!("http://portal.example/login.php?user={user}"))
            .unwrap();
        browser
    });
    (alice, bob)
}

#[test]
fn sessions_with_different_cookie_headers_never_share_entries() {
    let fabric = Arc::new(SharedNetwork::new());
    let (mut alice, mut bob) = portal_sessions(&fabric);

    // Alice stores the entry under her header; Bob's lookup must refuse it.
    let page = alice.navigate("http://portal.example/page.php").unwrap();
    assert_eq!(alice.page(page).text_of("who").unwrap(), "sid=alice");
    let page = bob.navigate("http://portal.example/page.php").unwrap();
    assert_eq!(bob.page(page).text_of("who").unwrap(), "sid=bob");
    assert_eq!(bob.cache_hits(), 0, "Bob must not hit Alice's entry");
    assert_eq!(
        FabricCounters::gather(&fabric).cache_stale_discards,
        1,
        "Alice's entry is discarded fail-closed, not served"
    );

    // Bob's refetch overwrote the entry under his header; his repeat hits it
    // and Alice's next lookup refuses it in turn.
    let page = bob.navigate("http://portal.example/page.php").unwrap();
    assert_eq!(bob.page(page).text_of("who").unwrap(), "sid=bob");
    assert_eq!(bob.cache_hits(), 1);
    let page = alice.navigate("http://portal.example/page.php").unwrap();
    assert_eq!(alice.page(page).text_of("who").unwrap(), "sid=alice");
    assert_eq!(alice.cache_hits(), 0);
    assert_eq!(FabricCounters::gather(&fabric).cache_stale_discards, 2);
}

#[test]
fn persistent_stale_discards_are_not_prefetch_staleness() {
    // Two sessions without prefetch take turns on one `max-age` page: each
    // lookup after the first finds the other's entry and discards it.
    let fabric = Arc::new(SharedNetwork::new());
    let (mut alice, mut bob) = portal_sessions(&fabric);
    for _ in 0..3 {
        for session in [&mut alice, &mut bob] {
            session.navigate("http://portal.example/page.php").unwrap();
        }
    }
    let counters = FabricCounters::gather(&fabric);
    assert_eq!(
        (
            counters.prefetch_hits,
            counters.prefetch_stale_discards,
            counters.cache_stale_discards
        ),
        (0, 0, 5)
    );
    // Cross-session discards are the cache failing closed, not wasted
    // speculation.
    let snapshot = ControlPlaneSnapshot::from_browser(&alice, None);
    assert_eq!(snapshot.health(), HealthVerdict::Ok);
}

#[test]
fn no_store_and_unmarked_responses_are_never_persisted() {
    let fabric = Arc::new(SharedNetwork::new());
    let dispatches = Arc::new(AtomicU64::new(0));
    {
        let dispatches = Arc::clone(&dispatches);
        fabric.register("http://plain.example", move |req: &Request| {
            dispatches.fetch_add(1, Ordering::Relaxed);
            let page = Response::ok_html(
                "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">fresh</body></html>",
            );
            match req.url.path() {
                // Explicitly uncacheable — even alongside a max-age.
                "/secret.php" => {
                    let mut page = page;
                    page.headers.set("Cache-Control", "no-store, max-age=60");
                    page
                }
                // No explicit max-age: the persistent layer requires one.
                _ => page,
            }
        });
    }

    let mut browser = cache_browser(&fabric, true);
    for _ in 0..2 {
        browser.navigate("http://plain.example/secret.php").unwrap();
        browser.navigate("http://plain.example/page.php").unwrap();
    }
    assert_eq!(
        dispatches.load(Ordering::Relaxed),
        4,
        "every load refetched"
    );
    assert_eq!(browser.cache_hits(), 0);
    let counters = FabricCounters::gather(&fabric);
    assert_eq!(counters.cache_stored, 0);
    assert_eq!(counters.cache_entries, 0);
}

#[test]
fn ttl_expiry_is_exactly_countable_on_a_manual_clock() {
    // One `max-age=5` entry walked through store → fresh hit → expiry on a
    // hand-advanced clock: no wall time enters the freshness check.
    const CYCLES: u64 = 5;
    let fabric = Arc::new(SharedNetwork::new());
    let clock = Arc::new(ManualClock::new());
    fabric.set_clock(clock.clone());
    fabric.register("http://ttl.example", |_req: &Request| {
        Response::ok_html("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">fresh</body></html>")
            .with_max_age(5)
    });
    let mut browser = cache_browser(&fabric, true);
    for _ in 0..CYCLES {
        // Miss and store, a fresh hit 4 s later, then 6 s past the store.
        browser.navigate("http://ttl.example/page.php").unwrap();
        clock.advance(Duration::from_secs(4));
        browser.navigate("http://ttl.example/page.php").unwrap();
        clock.advance(Duration::from_secs(2));
    }
    assert_eq!(
        FabricCounters::gather(&fabric).cache_hits,
        CYCLES,
        "one fresh hit per cycle"
    );
    assert_eq!(
        FabricCounters::gather(&fabric).cache_expired,
        CYCLES - 1,
        "each later cycle finds the last entry expired"
    );
    assert_eq!(
        FabricCounters::gather(&fabric).cache_stored,
        CYCLES,
        "each cycle refills the entry"
    );
}

#[test]
fn duplicate_plan_slots_dispatch_once_and_log_each() {
    // A page whose plan repeats one uncacheable image URL: each batch
    // dispatches it once and fans the response out to the duplicate slots,
    // and every slot still logs under its own sequence number.
    const DUPLICATES: u64 = 5;
    const LOADS: u64 = 3;
    let fabric = Arc::new(SharedNetwork::new());
    let imgs = "<img src=\"http://img.flock.example/dup.png\">".repeat(DUPLICATES as usize);
    let page = format!("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">{imgs}</body></html>");
    fabric.register("http://flock.example", move |_req: &Request| {
        Response::ok_html(page.clone())
    });
    let dispatches = Arc::new(AtomicU64::new(0));
    {
        let dispatches = Arc::clone(&dispatches);
        fabric.register("http://img.flock.example", move |_req: &Request| {
            dispatches.fetch_add(1, Ordering::Relaxed);
            Response::ok_text("img")
        });
    }
    let mut browser = cache_browser(&fabric, true);
    for _ in 0..LOADS {
        browser.navigate("http://flock.example/index.php").unwrap();
    }
    assert_eq!(
        dispatches.load(Ordering::Relaxed),
        LOADS,
        "one origin fetch per batch"
    );
    assert_eq!(
        FabricCounters::gather(&fabric).cache_coalesced,
        LOADS * (DUPLICATES - 1),
        "the other duplicate slots coalesced per load"
    );
    assert_eq!(
        fabric.log().len() as u64,
        LOADS * (1 + DUPLICATES),
        "every slot logs its own sequence"
    );
}

#[test]
fn set_cookie_responses_are_never_shared_across_sessions() {
    // Every response mints a fresh per-recipient token via `Set-Cookie` —
    // while also (adversarially) declaring itself cacheable with a max-age.
    // Replaying such a response from the shared cache would hand one
    // session's credential to another whose mediated Cookie header happens
    // to match; the cache must refuse the entry outright.
    let fabric = Arc::new(SharedNetwork::new());
    let minted = Arc::new(AtomicU64::new(0));
    {
        let minted = Arc::clone(&minted);
        fabric.register("http://acct.example", move |_req: &Request| {
            let n = minted.fetch_add(1, Ordering::Relaxed);
            Response::ok_html(
                "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">account</body></html>",
            )
            .with_cookie(SetCookie::new("token", format!("u{n}")))
            .with_max_age(3600)
        });
    }

    let mut first = cache_browser(&fabric, true);
    let mut second = cache_browser(&fabric, true);
    first.navigate("http://acct.example/page.php").unwrap();
    second.navigate("http://acct.example/page.php").unwrap();

    assert_eq!(
        FabricCounters::gather(&fabric).cache_stored,
        0,
        "a Set-Cookie response must never be admitted"
    );
    assert_eq!(FabricCounters::gather(&fabric).cache_entries, 0);
    assert_eq!(second.cache_hits(), 0, "the second session fetched live");

    // Each session holds the token its own live response minted.
    let token = |browser: &Browser| {
        browser
            .cookie_jar()
            .get("acct.example", "token")
            .expect("token stored")
            .value
    };
    assert_eq!(token(&first), "u0");
    assert_eq!(token(&second), "u1");

    // Even a repeat by the storing session refetches: nothing was cached, so
    // the origin mints a third token and the jar follows the live response.
    first.navigate("http://acct.example/page.php").unwrap();
    assert_eq!(first.cache_hits(), 0);
    assert_eq!(token(&first), "u2");
    assert_eq!(minted.load(Ordering::Relaxed), 3);
}

#[test]
fn a_prefetch_only_session_never_consumes_a_persistent_entry() {
    let fabric = Arc::new(SharedNetwork::new());
    let dispatches = Arc::new(AtomicU64::new(0));
    {
        let dispatches = Arc::clone(&dispatches);
        fabric.register("http://news.example", move |_req: &Request| {
            dispatches.fetch_add(1, Ordering::Relaxed);
            Response::ok_html("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">news</body></html>")
                .with_max_age(3600)
        });
    }

    // A cache-enabled session stores the persistent entry.
    let mut cacher = cache_browser(&fabric, true);
    cacher.navigate("http://news.example/page.php").unwrap();
    assert_eq!(FabricCounters::gather(&fabric).cache_stored, 1);

    // A session that opted into speculation only (cache off) looks up with
    // the one-shot layer alone: the persistent entry is neither served nor
    // consumed, and the navigation dispatches live.
    let mut speculator = cache_browser(&fabric, false);
    speculator.set_prefetch_enabled(true);
    speculator.navigate("http://news.example/page.php").unwrap();
    assert_eq!(speculator.cache_hits(), 0);
    assert_eq!(speculator.prefetch_hits(), 0);
    assert_eq!(dispatches.load(Ordering::Relaxed), 2, "refetched live");

    // The persistent entry survived the foreign-layer lookup: the storing
    // session's repeat still hits it.
    cacher.navigate("http://news.example/page.php").unwrap();
    assert_eq!(cacher.cache_hits(), 1);
    assert_eq!(dispatches.load(Ordering::Relaxed), 2);
}

#[test]
fn a_cache_only_session_never_consumes_a_one_shot_entry() {
    let fabric = Arc::new(SharedNetwork::new());
    let dispatches = Arc::new(AtomicU64::new(0));
    {
        let dispatches = Arc::clone(&dispatches);
        // No max-age: only the speculative one-shot layer may hold this page.
        fabric.register("http://feed.example", move |_req: &Request| {
            dispatches.fetch_add(1, Ordering::Relaxed);
            Response::ok_html("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">feed</body></html>")
        });
    }

    let mut speculator = cache_browser(&fabric, false);
    speculator.set_prefetch_enabled(true);
    assert!(speculator.prefetch("http://feed.example/next.php"));
    assert_eq!(FabricCounters::gather(&fabric).prefetched_entries, 1);

    // A cache-only session looks up with the persistent layer alone: the
    // one-shot entry is left in place and the navigation dispatches live.
    let mut cache_only = cache_browser(&fabric, true);
    cache_only.navigate("http://feed.example/next.php").unwrap();
    assert_eq!(cache_only.cache_hits(), 0);
    assert_eq!(cache_only.prefetch_hits(), 0);
    assert_eq!(FabricCounters::gather(&fabric).prefetch_hits, 0);
    assert_eq!(
        FabricCounters::gather(&fabric).prefetched_entries,
        1,
        "the speculative entry must survive a cache-only lookup"
    );
    assert_eq!(dispatches.load(Ordering::Relaxed), 2);

    // The speculating session's own navigation consumes it as planned.
    speculator.navigate("http://feed.example/next.php").unwrap();
    assert_eq!(speculator.prefetch_hits(), 1);
    assert_eq!(FabricCounters::gather(&fabric).prefetched_entries, 0);
    assert_eq!(dispatches.load(Ordering::Relaxed), 2);
}

#[test]
fn a_coalesced_duplicate_falls_back_with_the_sessions_retry_budget() {
    let fabric = Arc::new(SharedNetwork::new());
    fabric.register("http://dup.example", |_req: &Request| {
        Response::ok_html(
            "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">\
             <img src=\"http://img.dup.example/x.png\">\
             <img src=\"http://img.dup.example/x.png\"></body></html>",
        )
    });
    fabric.register("http://img.dup.example", |_req: &Request| {
        Response::ok_html("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">px</body></html>")
    });
    // The first three dispatches to the image origin time out. With a
    // one-retry budget the primary slot spends attempts 0 and 1 and fails;
    // its coalesced duplicate cannot ride the failed dispatch and falls
    // back — attempt 2 fails, its own retry (attempt 3) succeeds. Before
    // the fallback honored the session policy, the duplicate died on its
    // first attempt, degrading harder than the cache-off oracle would.
    fabric.inject_fault("http://img.dup.example", FaultPlan::new().fail_first(3));

    let mut browser = cache_browser(&fabric, true);
    browser.set_fetch_policy(
        FetchPolicy::disabled()
            .with_max_retries(1)
            .with_backoff_base_ns(1),
    );

    let page = browser.navigate("http://dup.example/index.php").unwrap();
    let subs = &browser.page(page).subresources;
    assert_eq!(subs.len(), 2);

    let primary = &subs[0];
    assert_eq!(primary.status, None);
    assert!(
        primary.error.as_deref().unwrap_or("").contains("timed out"),
        "primary slot must exhaust its budget: {primary:?}"
    );
    assert_eq!(primary.retries, 1, "primary spent the full retry budget");

    let duplicate = &subs[1];
    assert_eq!(duplicate.status, Some(200), "fallback retry must succeed");
    assert_eq!(duplicate.error, None);
    assert_eq!(
        duplicate.retries, 1,
        "the fallback dispatch honors the session's retry budget"
    );
}

/// Registers `http://xhr.example`: `/login.php` sets the `sid` cookie,
/// `/page.php` runs `script`, and every other path answers with its method,
/// path and a call counter. `/data.json` is cacheable for an hour; other
/// paths declare no `max-age`. Returns the counter of those other calls.
fn register_xhr_world(fabric: &SharedNetwork, script: &'static str) -> Arc<AtomicU64> {
    let calls = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&calls);
    fabric.register("http://xhr.example", move |req: &Request| {
        match req.url.path() {
            "/login.php" => Response::ok_html("<html><body>in</body></html>")
                .with_cookie(SetCookie::new("sid", "u1")),
            "/page.php" => Response::ok_html(format!(
                "<html><body><script>{script}</script></body></html>"
            )),
            path => {
                let n = counter.fetch_add(1, Ordering::Relaxed);
                let response = Response::ok_text(format!("{} {path} #{n}", req.method));
                if path == "/data.json" {
                    response.with_max_age(3600)
                } else {
                    response
                }
            }
        }
    });
    calls
}

/// The value the page's (only) script evaluated to.
fn script_result(browser: &Browser, page: escudo::browser::PageId) -> String {
    browser.page(page).script_outcomes[0]
        .result
        .clone()
        .expect("the page script ran")
}

#[test]
fn repeat_xhr_gets_hit_the_cache_and_log_like_the_cache_off_run() {
    const SCRIPT: &str = "var a = new XMLHttpRequest(); a.open('GET', '/data.json'); a.send(); \
                          var b = new XMLHttpRequest(); b.open('GET', '/data.json'); b.send(); \
                          a.responseText + '|' + b.responseText;";
    let run = |enabled: bool| {
        let fabric = Arc::new(SharedNetwork::new());
        let calls = register_xhr_world(&fabric, SCRIPT);
        let mut browser = cache_browser(&fabric, enabled);
        browser.navigate("http://xhr.example/login.php").unwrap();
        let page = browser.navigate("http://xhr.example/page.php").unwrap();
        (
            fabric.log(),
            script_result(&browser, page),
            calls.load(Ordering::Relaxed),
        )
    };
    let (on_log, on_result, on_calls) = run(true);
    let (off_log, off_result, off_calls) = run(false);

    assert_eq!(on_calls, 1, "the second XHR is served from the cache");
    assert_eq!(on_result, "GET /data.json #0|GET /data.json #0");
    assert_eq!(off_calls, 2);
    assert_eq!(off_result, "GET /data.json #0|GET /data.json #1");

    // Both XHRs are logged, each under its own sequence, with the mediated
    // cookie attached, and the logs are byte-identical.
    let xhrs: Vec<_> = on_log
        .iter()
        .filter(|entry| entry.url.path() == "/data.json")
        .collect();
    assert_eq!(xhrs.len(), 2);
    assert!(xhrs.iter().all(|entry| entry.cookie_names == ["sid"]));
    assert_eq!(on_log, off_log, "cache-on XHR log diverged from cache-off");
}

#[test]
fn an_xhr_never_consumes_a_one_shot_prefetch_entry() {
    const SCRIPT: &str =
        "var a = new XMLHttpRequest(); a.open('GET', '/feed.json'); a.send(); a.responseText;";
    let fabric = Arc::new(SharedNetwork::new());
    let calls = register_xhr_world(&fabric, SCRIPT);
    let mut browser = cache_browser(&fabric, true);
    browser.set_prefetch_enabled(true);
    assert!(browser.prefetch("http://xhr.example/feed.json"));
    assert_eq!(FabricCounters::gather(&fabric).prefetched_entries, 1);

    // The XHR consults the persistent layer only: it fetches live and leaves
    // the speculative entry in place.
    let page = browser.navigate("http://xhr.example/page.php").unwrap();
    assert_eq!(script_result(&browser, page), "GET /feed.json #1");
    assert_eq!(calls.load(Ordering::Relaxed), 2);
    assert_eq!(FabricCounters::gather(&fabric).prefetch_hits, 0);
    assert_eq!(browser.prefetch_hits(), 0);
    assert_eq!(FabricCounters::gather(&fabric).prefetched_entries, 1);

    // The navigation the speculation predicted still consumes it.
    browser.navigate("http://xhr.example/feed.json").unwrap();
    assert_eq!(browser.prefetch_hits(), 1);
    assert_eq!(FabricCounters::gather(&fabric).prefetched_entries, 0);
    assert_eq!(calls.load(Ordering::Relaxed), 2);
}

#[test]
fn a_post_xhr_neither_consults_nor_stores() {
    const SCRIPT: &str = "var a = new XMLHttpRequest(); a.open('GET', '/data.json'); a.send(); \
                          var p = new XMLHttpRequest(); p.open('POST', '/data.json'); p.send('x=1'); \
                          var b = new XMLHttpRequest(); b.open('GET', '/data.json'); b.send(); \
                          a.responseText + '|' + p.responseText + '|' + b.responseText;";
    let fabric = Arc::new(SharedNetwork::new());
    let calls = register_xhr_world(&fabric, SCRIPT);
    let mut browser = cache_browser(&fabric, true);
    let page = browser.navigate("http://xhr.example/page.php").unwrap();

    // The POST went to the origin although a fresh entry for the URL was
    // cached, and its cacheable-looking response was not stored: the GET
    // after it still reads the first GET's entry.
    assert_eq!(
        script_result(&browser, page),
        "GET /data.json #0|POST /data.json #1|GET /data.json #0"
    );
    assert_eq!(calls.load(Ordering::Relaxed), 2);
    let counters = FabricCounters::gather(&fabric);
    assert_eq!(counters.cache_stored, 1);
    assert_eq!(counters.cache_hits, 1);
}
