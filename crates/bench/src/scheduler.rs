//! The fetch-scheduling workload: navigation latency next to busy sibling
//! sessions, speculative-prefetch speedup, and the prefetch mediation oracle.
//!
//! [`run_navigation_storm`] and [`run_prefetch_speedup`] back the
//! `scheduler_concurrent` timing gates:
//!
//! * [`run_navigation_storm`] — one navigation-heavy session measures p99 page
//!   latency (best of N repeats) while N sibling sessions flood the **same**
//!   fabric with bulk image page loads. Page loads run every subresource plan
//!   as a deadline window on the session's own thread, so what keeps the
//!   loaded p99 within a small factor of the unloaded baseline is that the
//!   sessions share nothing but the fabric's locks and the CPU.
//! * [`run_prefetch_speedup`] — a hub page carries `rel=prefetch` markup for
//!   the next page; with speculation enabled the repeat navigation is served
//!   from the prefetch cache and skips the origin's simulated latency
//!   entirely.
//!
//! [`run_prefetch_oracle`] runs the same navigation sequence on two
//! identically-built fabrics, prefetch on vs off, and diffs the two session
//! transcripts with [`crate::oracle`]: speculation dispatches unlogged and a
//! consumed hit is logged exactly as the live dispatch would have been, so
//! prefetch may only ever change *when* bytes move, never what ESCUDO
//! decides. Its tier-1 gate is `prefetch_on_and_off_are_oracle_equivalent` in
//! `tests/pipelined_loader.rs`; prefetching-session isolation on one fabric is
//! `scheduler::tests::prefetching_sessions_stay_isolated_on_one_fabric`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use escudo_browser::Browser;
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, EscudoEngine, PolicyEngine, PolicyMode, Ring};
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

use crate::loader::register_loader_world;
use crate::measure::{best_of, p99_ns};
use crate::oracle::{Transcript, TranscriptDiff};

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
    /// Bulk sessions flooding the shared fabric during the loaded run.
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
}

impl NavStormReport {
    /// Loaded-over-unloaded p99 ratio: the price one navigation pays for its
    /// busy siblings. The `scheduler_concurrent` sibling-load gate bounds this.
    #[must_use]
    pub fn p99_ratio(&self) -> f64 {
        if self.unloaded_p99_ns == 0 {
            0.0
        } else {
            self.loaded_p99_ns as f64 / self.unloaded_p99_ns as f64
        }
    }
}

/// p99 navigation latency over `navigations` timed loads of [`NAV_PAGE_URL`]
/// while `storm_sessions` sibling sessions loop image-heavy page loads over the
/// **same** fabric. Every session shares one engine and one jar — the
/// shared-everything deployment — but owns its page host.
fn nav_p99_ns(storm_sessions: usize, navigations: usize) -> u64 {
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
    let engine: Arc<dyn PolicyEngine> = Arc::new(EscudoEngine::new());
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
    p99_ns(&mut latencies)
}

/// Measures p99 navigation latency `repeats` times over pairs
/// of identically-built fabrics — once unloaded, once while `bulk_sessions`
/// sibling sessions flood the same fabric — and reports the [best](best_of)
/// (minimum) p99 of each phase with the spread of each figure: the bench's
/// own observed run-to-run noise, which the trajectory comparator turns into
/// a per-metric noise floor.
///
/// # Panics
///
/// Panics if `repeats == 0` or any page load fails; the workload is
/// deterministic.
#[must_use]
pub fn run_navigation_storm(
    bulk_sessions: usize,
    navigations: usize,
    repeats: usize,
) -> NavStormReport {
    assert!(repeats > 0, "best-of-zero navigation storms");
    let runs: Vec<(u64, u64)> = (0..repeats)
        .map(|_| {
            (
                nav_p99_ns(0, navigations),
                nav_p99_ns(bulk_sessions, navigations),
            )
        })
        .collect();
    let (unloaded_p99_ns, unloaded_p99_spread_ns) = best_of(runs.iter().map(|r| r.0), |&p| p);
    let (loaded_p99_ns, loaded_p99_spread_ns) = best_of(runs.iter().map(|r| r.1), |&p| p);
    let ratios = runs
        .iter()
        .map(|&(unloaded, loaded)| loaded as f64 / unloaded.max(1) as f64);
    NavStormReport {
        bulk_sessions,
        navigations,
        repeats: runs.len(),
        unloaded_p99_ns,
        unloaded_p99_spread_ns,
        loaded_p99_ns,
        loaded_p99_spread_ns,
        ratio_spread: best_of(ratios, |&r| r).1,
    }
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

/// Runs the same hub → item navigation sequence `passes` times on two
/// identically-built fabrics — prefetch enabled vs disabled — and diffs the
/// enabled run's [`Transcript`] against the disabled one's. Speculation
/// dispatches unlogged and a consumed hit is logged under the navigation's own
/// sequence number, so the logs must not differ by a single byte. (The ERM
/// counters may: speculation mediates each hinted request ahead of its
/// navigation.) Returns the diff and the prefetch hits the enabled side
/// consumed.
///
/// # Panics
///
/// Panics if a page load fails.
#[must_use]
pub fn run_prefetch_oracle(passes: usize) -> (TranscriptDiff, u64) {
    let run = |enabled: bool| {
        let fabric = Arc::new(SharedNetwork::new());
        register_prefetch_world(&fabric, "shop.example", "sid", Duration::from_micros(120));
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(engine, jar, fabric);
        browser.set_prefetch_enabled(enabled);
        let urls = [
            "http://shop.example/hub.php",
            "http://shop.example/item.php",
        ];
        let transcript = Transcript::record(&mut browser, urls.repeat(passes));
        (transcript, browser.prefetch_hits())
    };
    let (on, prefetch_hits) = run(true);
    let (off, _) = run(false);
    (on.diff(&off), prefetch_hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::spawn_join;
    use crate::oracle::scan_leaks;

    #[test]
    fn the_navigation_storm_measures_both_sides() {
        let report = run_navigation_storm(2, 10, 1);
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
        let report = run_navigation_storm(1, 10, 2);
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
    fn prefetching_sessions_stay_isolated_on_one_fabric() {
        // 3 prefetching sessions over one fabric, jar and engine; session `t`
        // owns `shop{t}.example` (cookie `sid{t}`) and loads hub-then-item 3
        // times. A prefetch entry is keyed by its mediation plan, so one
        // session's speculation can never serve another's cookie state.
        const SESSIONS: usize = 3;
        const ROUNDS: usize = 3;
        let fabric = Arc::new(SharedNetwork::new());
        let engine: Arc<dyn PolicyEngine> = Arc::new(EscudoEngine::new());
        let jar = Arc::new(SharedCookieJar::new());
        for t in 0..SESSIONS {
            register_prefetch_world(
                &fabric,
                &format!("shop{t}.example"),
                &format!("sid{t}"),
                Duration::from_micros(80),
            );
        }
        let hits = spawn_join(SESSIONS, |t| {
            let mut browser =
                Browser::with_network(Arc::clone(&engine), Arc::clone(&jar), Arc::clone(&fabric));
            browser.set_prefetch_enabled(true);
            for _ in 0..ROUNDS {
                for page in ["hub", "item"] {
                    browser
                        .navigate(&format!("http://shop{t}.example/{page}.php"))
                        .expect("shared-fabric page load");
                }
            }
            browser.prefetch_hits()
        });
        let leaks = scan_leaks(
            &fabric.log(),
            (0..SESSIONS).map(|t| (format!("shop{t}.example"), format!("sid{t}"))),
        );
        assert_eq!(leaks.own_attachments.len(), SESSIONS);
        assert_eq!(leaks.sessions_with_cookies(), SESSIONS);
        assert_eq!(leaks.violations, 0);
        assert_eq!(
            hits.iter().sum::<u64>(),
            (SESSIONS * ROUNDS) as u64,
            "each round consumes its hint"
        );
    }
}
