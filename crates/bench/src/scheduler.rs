//! The unified-fetch-scheduler workload: navigation latency under a bulk
//! storm, speculative-prefetch speedup, and the prefetch mediation oracle.
//!
//! This module backs the `scheduler_concurrent` bench and its CI gates:
//!
//! * [`run_navigation_storm`] — one navigation-heavy session measures p99 page
//!   latency while N sibling sessions flood the **same** fabric with bulk
//!   image batches. Page loads run every subresource plan as a deadline
//!   window on the session's own thread and never queue in the worker pool;
//!   what keeps the loaded p99 within a small factor of the unloaded baseline
//!   is that nothing but the CPU is shared. (The pool's two-lane queue, which
//!   explicit-width batches ride, is exercised by the `fetch_pool` unit tests
//!   and the `pipelined_loader` integration tests.)
//! * [`run_prefetch_speedup`] — a hub page carries `rel=prefetch` markup for
//!   the next page; with speculation enabled the repeat navigation is served
//!   from the prefetch cache and skips the origin's simulated latency
//!   entirely.
//! * [`run_prefetch_oracle`] — the same navigation sequence on two
//!   identically-built fabrics, prefetch on vs off: the sequence-sorted
//!   request logs and per-subresource attached cookie names must be
//!   **byte-identical**, because speculation dispatches unlogged and a
//!   consumed hit is logged exactly as the live dispatch would have been —
//!   prefetch may only ever change *when* bytes move, never what ESCUDO
//!   decides.
//! * [`run_prefetch_sessions`] — N prefetching sessions over one shared
//!   fabric + jar + engine, scanned for cross-session cookie leakage: a
//!   prefetch cache entry is keyed by its mediation plan (the exact cookie
//!   header), so one session's speculation can never serve another session's
//!   state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use escudo_browser::Browser;
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, PolicyMode, Ring};
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

use crate::loader::register_loader_world;

/// Per-origin simulated latency of the navigation site's render-blocking
/// subresources: three critical origins at 100µs, overlapped by the loader's
/// deadline window.
pub const NAV_CRITICAL_LATENCY: Duration = Duration::from_micros(100);

/// The URL the navigation-storm session loads repeatedly.
pub const NAV_PAGE_URL: &str = "http://nav.example/index.php";

/// Registers the navigation site on `fabric`: a latency-free page host whose
/// markup pulls one stylesheet and two scripts from three dedicated asset
/// origins, each with [`NAV_CRITICAL_LATENCY`] simulated service time.
pub fn register_nav_world(fabric: &SharedNetwork, host: &str) {
    let html = format!(
        "<html><head><link rel=\"stylesheet\" href=\"http://css.{host}/site.css\"></head>\
         <body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">\
         <script src=\"http://js0.{host}/a.js\"></script>\
         <script src=\"http://js1.{host}/b.js\"></script>\
         </body></html>"
    );
    fabric.register(&format!("http://{host}"), move |_req: &Request| {
        Response::ok_html(html.clone())
    });
    for sub in ["css", "js0", "js1"] {
        let origin = format!("http://{sub}.{host}");
        fabric.register(&origin, |req: &Request| {
            Response::ok_text(format!("asset {}", req.url.path()))
        });
        fabric.set_latency(&origin, NAV_CRITICAL_LATENCY);
    }
}

/// The outcome of the navigation-under-bulk-storm measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct NavStormReport {
    /// Bulk sessions flooding the shared pool during the loaded run.
    pub bulk_sessions: usize,
    /// Timed navigations per run.
    pub navigations: usize,
    /// Measurement repeats behind the best-of figures below.
    pub repeats: usize,
    /// Best-of-repeats p99 navigation latency with the fabric otherwise idle,
    /// nanoseconds.
    pub unloaded_p99_ns: u64,
    /// Max-minus-min spread of the unloaded p99 across the repeats — the
    /// bench's own observed run-to-run noise, exported so the trajectory
    /// comparator can derive a per-metric floor from it.
    pub unloaded_p99_spread_ns: u64,
    /// Best-of-repeats p99 navigation latency under the bulk storm,
    /// nanoseconds.
    pub loaded_p99_ns: u64,
    /// Max-minus-min spread of the loaded p99 across the repeats.
    pub loaded_p99_spread_ns: u64,
    /// Max-minus-min spread of the per-repeat loaded/unloaded ratios.
    pub ratio_spread: f64,
    /// Bulk tickets parked mid-drain to serve queued navigation work during
    /// the loaded runs — the witness that the priority lanes actually engaged.
    pub preemptions: u64,
}

impl NavStormReport {
    /// Loaded-over-unloaded p99 ratio: the price one navigation pays for the
    /// storm. The lane gate bounds this.
    #[must_use]
    pub fn p99_ratio(&self) -> f64 {
        if self.unloaded_p99_ns == 0 {
            0.0
        } else {
            self.loaded_p99_ns as f64 / self.unloaded_p99_ns as f64
        }
    }
}

fn p99_ns(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "p99 of an empty sample set");
    samples.sort_unstable();
    samples[(samples.len() - 1) * 99 / 100]
}

/// Measures p99 navigation latency twice over identically-built fabrics: once
/// unloaded, once while `bulk_sessions` sibling sessions loop image-heavy page
/// loads through the **same** worker pool. Every session shares one engine and
/// one jar — the shared-everything deployment — but owns its page host.
///
/// # Panics
///
/// Panics if any page load fails; the workload is deterministic.
#[must_use]
pub fn run_navigation_storm(bulk_sessions: usize, navigations: usize) -> NavStormReport {
    let measure = |storm_sessions: usize| -> (u64, u64) {
        let fabric = Arc::new(SharedNetwork::new());
        register_nav_world(&fabric, "nav.example");
        for t in 0..storm_sessions {
            register_loader_world(
                &fabric,
                &format!("bulk{t}.example"),
                &format!("sid{t}"),
                8,
                4,
                |k| Duration::from_micros(150 + k as u64 * 50),
            );
        }
        let engine: Arc<dyn escudo_core::PolicyEngine> = Arc::new(escudo_core::EscudoEngine::new());
        let jar = Arc::new(SharedCookieJar::new());
        let stop = AtomicBool::new(false);
        let mut latencies = Vec::with_capacity(navigations);
        thread::scope(|scope| {
            for t in 0..storm_sessions {
                let fabric = Arc::clone(&fabric);
                let engine = Arc::clone(&engine);
                let jar = Arc::clone(&jar);
                let stop = &stop;
                scope.spawn(move || {
                    let mut browser = Browser::with_network(engine, jar, fabric);
                    browser.set_subresource_workers(8);
                    while !stop.load(Ordering::Acquire) {
                        browser
                            .navigate(&format!("http://bulk{t}.example/index.php"))
                            .expect("bulk storm page load");
                    }
                });
            }
            let mut browser =
                Browser::with_network(Arc::clone(&engine), Arc::clone(&jar), Arc::clone(&fabric));
            browser.set_subresource_workers(8);
            for _ in 0..3 {
                browser.navigate(NAV_PAGE_URL).expect("nav warm-up load");
            }
            for _ in 0..navigations {
                let start = Instant::now();
                browser.navigate(NAV_PAGE_URL).expect("nav workload load");
                latencies.push(start.elapsed().as_nanos() as u64);
            }
            stop.store(true, Ordering::Release);
        });
        (p99_ns(&mut latencies), fabric.fetch_pool_preemptions())
    };

    let (unloaded_p99_ns, _) = measure(0);
    let (loaded_p99_ns, preemptions) = measure(bulk_sessions);
    NavStormReport {
        bulk_sessions,
        navigations,
        repeats: 1,
        unloaded_p99_ns,
        unloaded_p99_spread_ns: 0,
        loaded_p99_ns,
        loaded_p99_spread_ns: 0,
        ratio_spread: 0.0,
        preemptions,
    }
}

/// [`run_navigation_storm`] repeated `repeats` times: reports the best
/// (minimum) p99 of each phase plus the max-minus-min spread of each figure —
/// the bench's own observed run-to-run noise. The trajectory comparator turns
/// a recorded `{key}_spread` into a per-metric noise floor, which is what
/// keeps the single-core p99 lottery from flaking CI.
///
/// # Panics
///
/// Panics if `repeats == 0` or any page load fails.
#[must_use]
pub fn run_navigation_storm_best_of(
    bulk_sessions: usize,
    navigations: usize,
    repeats: usize,
) -> NavStormReport {
    assert!(repeats > 0, "best-of-zero navigation storms");
    let mut report = run_navigation_storm(bulk_sessions, navigations);
    report.repeats = repeats;
    let (mut min_ratio, mut max_ratio) = (report.p99_ratio(), report.p99_ratio());
    let (mut max_unloaded, mut max_loaded) = (report.unloaded_p99_ns, report.loaded_p99_ns);
    for _ in 1..repeats {
        let next = run_navigation_storm(bulk_sessions, navigations);
        min_ratio = min_ratio.min(next.p99_ratio());
        max_ratio = max_ratio.max(next.p99_ratio());
        max_unloaded = max_unloaded.max(next.unloaded_p99_ns);
        max_loaded = max_loaded.max(next.loaded_p99_ns);
        report.unloaded_p99_ns = report.unloaded_p99_ns.min(next.unloaded_p99_ns);
        report.loaded_p99_ns = report.loaded_p99_ns.min(next.loaded_p99_ns);
        report.preemptions = report.preemptions.max(next.preemptions);
    }
    report.unloaded_p99_spread_ns = max_unloaded - report.unloaded_p99_ns;
    report.loaded_p99_spread_ns = max_loaded - report.loaded_p99_ns;
    report.ratio_spread = max_ratio - min_ratio;
    report
}

// ---------------------------------------------------------------------------
// The prefetch workload world.

/// Registers the prefetch workload's site on `fabric`: a page host (with
/// `latency` simulated service time) serving a hub page whose markup carries a
/// `rel=prefetch` hint for `/item.php`, an item page, and two image origins.
/// The hub response sets a ring-1 `Domain` session cookie, so the item
/// navigation — and therefore the speculative prefetch — carries mediated
/// cookie state.
pub fn register_prefetch_world(
    fabric: &SharedNetwork,
    host: &str,
    cookie_name: &str,
    latency: Duration,
) {
    let hub = format!(
        "<html><head><link rel=\"prefetch\" href=\"http://{host}/item.php\"></head>\
         <body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">\
         <img src=\"http://img0.{host}/hub0.png\"><img src=\"http://img1.{host}/hub1.png\">\
         </body></html>"
    );
    let item = format!(
        "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">\
         <img src=\"http://img0.{host}/item0.png\"><img src=\"http://img1.{host}/item1.png\">\
         </body></html>"
    );
    let domain = host.to_string();
    let cookie = cookie_name.to_string();
    fabric.register(&format!("http://{host}"), move |req: &Request| {
        if req.url.path() == "/item.php" {
            Response::ok_html(item.clone())
        } else {
            Response::ok_html(hub.clone())
                .with_cookie(SetCookie {
                    domain: Some(domain.clone()),
                    ..SetCookie::new(cookie.clone(), "bench")
                })
                .with_cookie_policy(
                    &CookiePolicy::new(cookie.clone(), Ring::new(1))
                        .with_acl(Acl::uniform(Ring::new(1))),
                )
        }
    });
    fabric.set_latency(&format!("http://{host}"), latency);
    for k in 0..2 {
        let origin = format!("http://img{k}.{host}");
        fabric.register(&origin, |req: &Request| {
            Response::ok_text(format!("img {}", req.url.path()))
        });
        fabric.set_latency(&origin, latency);
    }
}

/// The outcome of the repeat-navigation prefetch-speedup measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchSpeedupReport {
    /// Hub → item passes per side.
    pub passes: usize,
    /// Mean item-navigation latency with prefetch disabled, nanoseconds.
    pub cold_ns: f64,
    /// Mean item-navigation latency with prefetch enabled, nanoseconds.
    pub warm_ns: f64,
    /// Prefetch-cache hits the enabled session consumed; must equal `passes`.
    pub hits: u64,
}

impl PrefetchSpeedupReport {
    /// Cold-over-warm speedup of the hinted repeat navigation.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.warm_ns <= 0.0 {
            0.0
        } else {
            self.cold_ns / self.warm_ns
        }
    }
}

/// Loads hub-then-item `passes` times on two identically-built fabrics with
/// `latency` per-origin service time — once with speculation disabled, once
/// enabled — and times the item navigation only. With the hub's `rel=prefetch`
/// hint honoured, the enabled side's item document comes out of the prefetch
/// cache and never pays the origin latency.
///
/// # Panics
///
/// Panics if a page load fails.
#[must_use]
pub fn run_prefetch_speedup(latency: Duration, passes: usize) -> PrefetchSpeedupReport {
    let run = |enabled: bool| -> (f64, u64) {
        let fabric = Arc::new(SharedNetwork::new());
        register_prefetch_world(&fabric, "shop.example", "sid", latency);
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(engine, jar, fabric);
        browser.set_prefetch_enabled(enabled);
        let mut total_ns = 0u128;
        for _ in 0..passes {
            browser
                .navigate("http://shop.example/hub.php")
                .expect("hub page load");
            let start = Instant::now();
            browser
                .navigate("http://shop.example/item.php")
                .expect("item page load");
            total_ns += start.elapsed().as_nanos();
        }
        (
            total_ns as f64 / passes.max(1) as f64,
            browser.prefetch_hits(),
        )
    };

    let (cold_ns, _) = run(false);
    let (warm_ns, hits) = run(true);
    PrefetchSpeedupReport {
        passes,
        cold_ns,
        warm_ns,
        hits,
    }
}

/// The outcome of the prefetch-on-vs-off mediation oracle run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchOracleReport {
    /// Log entries compared.
    pub requests: usize,
    /// Sequence-sorted log entries that differed between the prefetching run
    /// and the plain run (byte-level comparison, cookie names and status
    /// included). Must be 0.
    pub log_mismatches: usize,
    /// Per-subresource attached-cookie-name lists that differed. Must be 0.
    pub attachment_mismatches: usize,
    /// Prefetch hits the enabled side consumed while staying byte-identical.
    pub prefetch_hits: u64,
}

/// Runs the same hub → item navigation sequence `passes` times on two
/// identically-built fabrics — prefetch enabled vs disabled — and compares the
/// sequence-sorted request logs byte-for-byte plus every page's
/// per-subresource attached cookie names. Speculation dispatches unlogged and
/// a consumed hit is logged under the navigation's own sequence number, so the
/// logs must not differ by a single byte.
///
/// # Panics
///
/// Panics if a page load fails.
#[must_use]
pub fn run_prefetch_oracle(passes: usize) -> PrefetchOracleReport {
    let run = |enabled: bool| {
        let fabric = Arc::new(SharedNetwork::new());
        register_prefetch_world(&fabric, "shop.example", "sid", Duration::from_micros(120));
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(engine, jar, Arc::clone(&fabric));
        browser.set_prefetch_enabled(enabled);
        let mut attachments: Vec<Vec<Vec<String>>> = Vec::new();
        for _ in 0..passes {
            for url in [
                "http://shop.example/hub.php",
                "http://shop.example/item.php",
            ] {
                let page = browser.navigate(url).expect("oracle page load");
                attachments.push(
                    browser
                        .page(page)
                        .subresources
                        .iter()
                        .map(|s| s.attached_cookies.clone())
                        .collect(),
                );
            }
        }
        (fabric.log(), attachments, browser.prefetch_hits())
    };

    let (on_log, on_attached, prefetch_hits) = run(true);
    let (off_log, off_attached, _) = run(false);

    let mut report = PrefetchOracleReport {
        requests: on_log.len().max(off_log.len()),
        prefetch_hits,
        ..PrefetchOracleReport::default()
    };
    report.log_mismatches = on_log.iter().zip(&off_log).filter(|(a, b)| a != b).count()
        + on_log.len().abs_diff(off_log.len());
    report.attachment_mismatches = on_attached
        .iter()
        .zip(&off_attached)
        .filter(|(a, b)| a != b)
        .count()
        + on_attached.len().abs_diff(off_attached.len());
    report
}

/// The outcome of the shared-fabric prefetching-session workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchIsolationReport {
    /// Concurrent prefetching sessions (= OS threads).
    pub sessions: usize,
    /// Requests the shared fabric logged across all sessions.
    pub requests: usize,
    /// Sessions whose requests carried their own session cookie.
    pub sessions_with_cookies: usize,
    /// Log entries for one session's hosts carrying a *different* session's
    /// cookie. Must be 0.
    pub isolation_violations: usize,
    /// Prefetch hits consumed across all sessions.
    pub prefetch_hits: u64,
    /// Prefetch entries discarded because the live mediation plan no longer
    /// matched the speculative one — the cache refusing to change a decision.
    pub stale_discards: u64,
}

/// Runs `threads` prefetching browser sessions concurrently over **one**
/// shared fabric, jar and engine. Session `t` owns `shop{t}.example` (cookie
/// `sid{t}`) and loads hub-then-item `rounds` times with speculation enabled;
/// the shared log is then scanned for cross-session cookie leakage.
///
/// # Panics
///
/// Panics if any session thread fails a page load.
#[must_use]
pub fn run_prefetch_sessions(threads: usize, rounds: usize) -> PrefetchIsolationReport {
    let fabric = Arc::new(SharedNetwork::new());
    let engine: Arc<dyn escudo_core::PolicyEngine> = Arc::new(escudo_core::EscudoEngine::new());
    let jar = Arc::new(SharedCookieJar::new());
    for t in 0..threads {
        register_prefetch_world(
            &fabric,
            &format!("shop{t}.example"),
            &format!("sid{t}"),
            Duration::from_micros(80),
        );
    }

    let prefetch_hits: u64 = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fabric = Arc::clone(&fabric);
                let engine = Arc::clone(&engine);
                let jar = Arc::clone(&jar);
                scope.spawn(move || {
                    let mut browser = Browser::with_network(engine, jar, fabric);
                    browser.set_prefetch_enabled(true);
                    for _ in 0..rounds {
                        browser
                            .navigate(&format!("http://shop{t}.example/hub.php"))
                            .expect("shared-fabric hub load");
                        browser
                            .navigate(&format!("http://shop{t}.example/item.php"))
                            .expect("shared-fabric item load");
                    }
                    browser.prefetch_hits()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("prefetch session thread"))
            .sum()
    });

    let log = fabric.log();
    let mut report = PrefetchIsolationReport {
        sessions: threads,
        requests: log.len(),
        prefetch_hits,
        stale_discards: fabric.prefetch_stale_discards(),
        ..PrefetchIsolationReport::default()
    };
    for t in 0..threads {
        let own_cookie = format!("sid{t}");
        let suffix = format!("shop{t}.example");
        let mut own_cookie_seen = false;
        for entry in log.iter().filter(|e| {
            let host = e.url.host().to_ascii_lowercase();
            host == suffix || host.ends_with(&format!(".{suffix}"))
        }) {
            for name in &entry.cookie_names {
                if name == &own_cookie {
                    own_cookie_seen = true;
                } else {
                    report.isolation_violations += 1;
                }
            }
        }
        if own_cookie_seen {
            report.sessions_with_cookies += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_navigation_storm_measures_both_sides() {
        let report = run_navigation_storm(2, 10);
        assert_eq!(report.bulk_sessions, 2);
        assert_eq!(report.navigations, 10);
        assert!(report.unloaded_p99_ns > 0);
        assert!(report.loaded_p99_ns > 0);
        assert!(report.p99_ratio() > 0.0);
        assert_eq!(report.repeats, 1, "a single run records no repeats");
        assert_eq!(report.unloaded_p99_spread_ns, 0);
        assert_eq!(report.ratio_spread, 0.0);
    }

    #[test]
    fn best_of_repeats_keeps_the_minimum_and_records_the_spread() {
        let report = run_navigation_storm_best_of(1, 10, 2);
        assert_eq!(report.repeats, 2);
        assert!(report.unloaded_p99_ns > 0);
        assert!(report.loaded_p99_ns > 0);
        // The best-of p99 can never exceed best + spread (spread is max - min).
        assert!(report.ratio_spread >= 0.0);
        let worst_unloaded = report.unloaded_p99_ns + report.unloaded_p99_spread_ns;
        assert!(worst_unloaded >= report.unloaded_p99_ns);
    }

    #[test]
    fn prefetch_speedup_hits_on_every_pass() {
        let report = run_prefetch_speedup(Duration::from_micros(200), 3);
        assert_eq!(report.passes, 3);
        assert_eq!(report.hits, 3, "every hinted repeat navigation must hit");
        assert!(report.cold_ns > 0.0);
        assert!(report.warm_ns > 0.0);
        assert!(
            report.speedup() > 1.0,
            "prefetched navigation must beat the cold one ({:.0}ns vs {:.0}ns)",
            report.warm_ns,
            report.cold_ns
        );
    }

    #[test]
    fn the_prefetch_oracle_run_is_byte_identical() {
        let report = run_prefetch_oracle(2);
        // 2 passes × (hub + 2 imgs + item + 2 imgs) per side.
        assert_eq!(report.requests, 12);
        assert_eq!(report.prefetch_hits, 2);
        assert_eq!(report.log_mismatches, 0);
        assert_eq!(report.attachment_mismatches, 0);
    }

    #[test]
    fn prefetching_sessions_stay_isolated_on_one_fabric() {
        let report = run_prefetch_sessions(3, 2);
        assert_eq!(report.sessions, 3);
        assert_eq!(report.sessions_with_cookies, 3);
        assert_eq!(report.isolation_violations, 0);
        assert_eq!(report.prefetch_hits, 6, "each round consumes its hint");
    }

    #[test]
    fn p99_picks_the_tail_sample() {
        let mut samples: Vec<u64> = (1..=100).collect();
        assert_eq!(p99_ns(&mut samples), 99);
        let mut few = vec![30, 10, 20];
        assert_eq!(p99_ns(&mut few), 20);
    }
}
