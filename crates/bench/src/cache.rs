//! The mediation-keyed response-cache workload: repeat-navigation speedup,
//! the cache-on-vs-off scenario-matrix oracle, cookie-header key isolation,
//! exactly-countable TTL expiry, and batch-level single-flight coalescing.
//!
//! This module backs the `cache_concurrent` bench and its CI gates:
//!
//! * [`run_cache_speedup`] — one session loads the same max-age'd page
//!   repeatedly on two identically-built fabrics, cache off vs on; every
//!   warm fetch (document and subresources alike) is an `Arc` refcount bump
//!   that skips the origin's simulated latency entirely.
//! * [`run_cache_matrix_oracle`] — the full scenario registry replayed twice,
//!   response cache on (through [`crate::oracle::run_matrix_with_hook`]) vs
//!   off. The cache key is the mediation plan (method, URL, exact attached
//!   `Cookie` header) and mediation always executes — only transport is
//!   skipped — so every cell's verdict **and** its reference-monitor
//!   check/denial counts must be identical.
//! * [`run_cache_isolation`] — N sessions with distinct session cookies share
//!   one fabric and one cacheable URL; each page body echoes the `Cookie`
//!   header the origin actually received. A lookup only serves an entry whose
//!   stored plan matches the requester's, so no session may ever observe
//!   another's echo — zero shared hits across cookie headers.
//! * [`run_cache_ttl_walk`] — a `max-age=5` entry walked past its lifetime on
//!   a hand-advanced [`ManualClock`]: hits, expiries and stores are exactly
//!   countable because no wall time enters the freshness check.
//! * [`run_cache_single_flight`] — a page whose plan repeats one subresource
//!   URL: duplicate plan slots coalesce onto a single dispatch even when the
//!   response is uncacheable, and every slot still logs under its own
//!   sequence number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_apps::scenario::{registry, MatrixReport};
use escudo_browser::Browser;
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, ManualClock, PolicyMode, Ring};
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

use crate::measure::spawn_join;
use crate::oracle::{mismatches, run_matrix_with_hook};

/// Origin latency the speedup gate runs at: high enough that a cache hit's
/// saving dwarfs scheduling noise.
pub const CACHE_GATE_LATENCY: Duration = Duration::from_micros(200);

/// Subresources the cache world's page pulls (one stylesheet, two images).
pub const CACHE_WORLD_SUBRESOURCES: u64 = 3;

/// `max-age` of the cache world's document and assets, seconds — far beyond
/// any wall-clock run, so nothing expires mid-measurement.
pub const CACHE_WORLD_MAX_AGE_SECS: u64 = 3600;

/// Registers the cacheable site on `fabric`: `/login.php` sets a ring-1
/// session cookie (and is deliberately **not** cacheable — no `max-age`),
/// `/index.php` and its three asset origins all declare
/// [`CACHE_WORLD_MAX_AGE_SECS`], and every origin carries `latency` simulated
/// service time. Logging in first pins the mediated `Cookie` header, so every
/// later `/index.php` fetch shares one cache key.
pub fn register_cache_world(
    fabric: &SharedNetwork,
    host: &str,
    cookie_name: &str,
    latency: Duration,
) {
    let page = format!(
        "<html><head><link rel=\"stylesheet\" href=\"http://css.{host}/site.css\"></head>\
         <body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">\
         <img src=\"http://img0.{host}/a.png\"><img src=\"http://img1.{host}/b.png\">\
         </body></html>"
    );
    let domain = host.to_string();
    let cookie = cookie_name.to_string();
    fabric.register(&format!("http://{host}"), move |req: &Request| {
        let policy =
            CookiePolicy::new(cookie.clone(), Ring::new(1)).with_acl(Acl::uniform(Ring::new(1)));
        if req.url.path() == "/login.php" {
            Response::ok_html(
                "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">logged in</body></html>",
            )
            .with_cookie(SetCookie {
                domain: Some(domain.clone()),
                ..SetCookie::new(cookie.clone(), "bench")
            })
            .with_cookie_policy(&policy)
        } else {
            Response::ok_html(page.clone())
                .with_max_age(CACHE_WORLD_MAX_AGE_SECS)
                .with_cookie_policy(&policy)
        }
    });
    fabric.set_latency(&format!("http://{host}"), latency);
    for sub in ["css", "img0", "img1"] {
        let origin = format!("http://{sub}.{host}");
        fabric.register(&origin, |req: &Request| {
            Response::ok_text(format!("asset {}", req.url.path()))
                .with_max_age(CACHE_WORLD_MAX_AGE_SECS)
        });
        fabric.set_latency(&origin, latency);
    }
}

/// The outcome of the repeat-navigation cache-speedup measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheSpeedupReport {
    /// Timed repeat navigations per side (one untimed warm-fill pass precedes
    /// them on both sides).
    pub passes: usize,
    /// Mean repeat-navigation latency with the cache disabled, nanoseconds.
    pub cold_ns: f64,
    /// Mean repeat-navigation latency with the cache enabled, nanoseconds.
    pub warm_ns: f64,
    /// Persistent cache hits the enabled session consumed; must equal
    /// `passes × (1 document + `[`CACHE_WORLD_SUBRESOURCES`]`)`.
    pub hits: u64,
    /// Responses the enabled side's fabric admitted to the cache.
    pub stored: u64,
}

impl CacheSpeedupReport {
    /// Cold-over-warm speedup of the repeat navigation.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.warm_ns <= 0.0 {
            0.0
        } else {
            self.cold_ns / self.warm_ns
        }
    }

    /// The hits a fully-warm run must consume: every timed pass serves its
    /// document and each subresource from the cache.
    #[must_use]
    pub fn expected_hits(&self) -> u64 {
        self.passes as u64 * (1 + CACHE_WORLD_SUBRESOURCES)
    }
}

/// Loads `/index.php` `passes` times on two identically-built fabrics with
/// `latency` per-origin service time — response cache off vs on — timing only
/// the repeat navigations after one untimed warm-fill pass. On the enabled
/// side the document and all three subresources come out of the shared cache,
/// so a warm pass never pays origin latency.
///
/// # Panics
///
/// Panics if a page load fails.
#[must_use]
pub fn run_cache_speedup(latency: Duration, passes: usize) -> CacheSpeedupReport {
    let run = |enabled: bool| -> (f64, u64, u64) {
        let fabric = Arc::new(SharedNetwork::new());
        register_cache_world(&fabric, "shop.example", "sid", latency);
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(engine, jar, Arc::clone(&fabric));
        browser.set_response_cache_enabled(enabled);
        browser
            .navigate("http://shop.example/login.php")
            .expect("login page load");
        browser
            .navigate("http://shop.example/index.php")
            .expect("warm-fill page load");
        let mut total_ns = 0u128;
        for _ in 0..passes {
            let start = Instant::now();
            browser
                .navigate("http://shop.example/index.php")
                .expect("repeat page load");
            total_ns += start.elapsed().as_nanos();
        }
        (
            total_ns as f64 / passes.max(1) as f64,
            browser.cache_hits(),
            fabric.cache_stored(),
        )
    };

    let (cold_ns, _, _) = run(false);
    let (warm_ns, hits, stored) = run(true);
    CacheSpeedupReport {
        passes,
        cold_ns,
        warm_ns,
        hits,
        stored,
    }
}

/// The outcome of the cache-on-vs-off scenario-matrix oracle run.
#[derive(Debug, Clone)]
pub struct CacheMatrixOracleReport {
    /// The matrix replayed with every session's response cache enabled.
    pub cached: MatrixReport,
    /// The same registry replayed with the cache left off.
    pub plain: MatrixReport,
    /// Session fabrics the hook observed on the cached side.
    pub sessions: usize,
    /// Persistent cache hits consumed across all cached-side sessions.
    pub cache_hits: u64,
    /// Responses admitted to the cache across all cached-side sessions.
    pub cache_stored: u64,
    /// Duplicate plan slots coalesced across all cached-side sessions.
    pub cache_coalesced: u64,
}

impl CacheMatrixOracleReport {
    /// Matrix cells whose outcome differs between the two sides — scenario,
    /// case, mode, both verdicts **and** the mediation check/denial counts
    /// compared structurally. Must be 0: the cache key is the mediation plan
    /// and mediation always executes, so caching may never move a verdict or
    /// a counter.
    #[must_use]
    pub fn outcome_mismatches(&self) -> usize {
        mismatches(&self.cached.outcomes, &self.plain.outcomes)
    }

    /// Total reference-monitor checks across both modes on one side.
    #[must_use]
    pub fn total_checks(report: &MatrixReport) -> u64 {
        report.total_checks(PolicyMode::Escudo) + report.total_checks(PolicyMode::SameOriginOnly)
    }

    /// Total reference-monitor denials across both modes on one side.
    #[must_use]
    pub fn total_denials(report: &MatrixReport) -> u64 {
        report.total_denials(PolicyMode::Escudo) + report.total_denials(PolicyMode::SameOriginOnly)
    }
}

/// Replays the full scenario registry twice — once with a hook enabling every
/// staged session's response cache, once untouched — and pairs the two
/// matrices for cell-by-cell comparison. The cached side's fabrics are
/// collected so the run can also report how much the cache actually did.
#[must_use]
pub fn run_cache_matrix_oracle() -> CacheMatrixOracleReport {
    let (cached, fabrics) =
        run_matrix_with_hook(|browser: &mut Browser| browser.set_response_cache_enabled(true));
    CacheMatrixOracleReport {
        cached,
        plain: MatrixReport::run(&registry()),
        sessions: fabrics.len(),
        cache_hits: fabrics.iter().map(|f| f.cache_hits()).sum(),
        cache_stored: fabrics.iter().map(|f| f.cache_stored()).sum(),
        cache_coalesced: fabrics.iter().map(|f| f.cache_coalesced()).sum(),
    }
}

/// The outcome of the shared-fabric cookie-header isolation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheIsolationReport {
    /// Concurrent cache-enabled sessions (= OS threads).
    pub sessions: usize,
    /// Cacheable-page navigations per session.
    pub rounds: usize,
    /// Page loads whose echoed `Cookie` header was not the session's own —
    /// the witness of a cache entry crossing cookie headers. Must be 0.
    pub violations: usize,
    /// Persistent cache hits consumed across all sessions (each necessarily
    /// under the session's own header).
    pub cache_hits: u64,
    /// Entries discarded fail-closed because the consuming request's mediated
    /// header differed from the stored plan.
    pub stale_discards: u64,
}

/// Runs `threads` cache-enabled sessions concurrently over **one** shared
/// fabric and one cacheable URL, each session logged in with its own value of
/// the shared session cookie (so each mediates a distinct `Cookie` header).
/// The page body echoes the header the origin received; after every load each
/// session asserts the echo is its own. Because a lookup serves an entry only
/// under the exact stored header, contention may discard entries (counted as
/// `stale_discards`) but can never serve one across sessions.
///
/// # Panics
///
/// Panics if any session thread fails a page load.
#[must_use]
pub fn run_cache_isolation(threads: usize, rounds: usize) -> CacheIsolationReport {
    let fabric = Arc::new(SharedNetwork::new());
    let engine: Arc<dyn escudo_core::PolicyEngine> = Arc::new(escudo_core::EscudoEngine::new());
    let host = "portal.example";
    let policy = CookiePolicy::new("sid", Ring::new(1)).with_acl(Acl::uniform(Ring::new(1)));
    {
        let policy = policy.clone();
        fabric.register(&format!("http://{host}"), move |req: &Request| {
            if req.url.path() == "/login.php" {
                let user = req.param("user").unwrap_or_default();
                Response::ok_html(
                    "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">logged in</body></html>",
                )
                .with_cookie(SetCookie::new("sid", user))
                .with_cookie_policy(&policy)
            } else {
                let echo = req.headers.get("Cookie").unwrap_or("").to_string();
                Response::ok_html(format!(
                    "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">\
                     <p id=\"who\">{echo}</p></body></html>"
                ))
                .with_max_age(CACHE_WORLD_MAX_AGE_SECS)
                .with_cookie_policy(&policy)
            }
        });
    }

    let sessions = spawn_join(threads, |t| {
        // Each session owns its jar: same fabric, different user.
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(Arc::clone(&engine), jar, Arc::clone(&fabric));
        browser.set_response_cache_enabled(true);
        browser
            .navigate(&format!("http://{host}/login.php?user=u{t}"))
            .expect("isolation login load");
        let own = format!("sid=u{t}");
        let mut violations = 0usize;
        for _ in 0..rounds {
            let page = browser
                .navigate(&format!("http://{host}/page.php"))
                .expect("isolation page load");
            if browser.page(page).text_of("who").unwrap_or_default() != own {
                violations += 1;
            }
        }
        (violations, browser.cache_hits())
    });

    CacheIsolationReport {
        sessions: threads,
        rounds,
        violations: sessions.iter().map(|s| s.0).sum(),
        cache_hits: sessions.iter().map(|s| s.1).sum(),
        stale_discards: fabric.prefetch_stale_discards(),
    }
}

/// The outcome of the manual-clock TTL walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTtlReport {
    /// Store → fresh-hit → expire cycles walked.
    pub cycles: usize,
    /// Persistent hits; must equal `cycles` (one fresh lookup per cycle).
    pub hits: u64,
    /// Expired-at-lookup discards; must equal `cycles - 1` (each cycle's
    /// opening navigation finds the previous cycle's entry past its
    /// `max-age`; the final entry is never looked up again).
    pub expired: u64,
    /// Cache stores; must equal `cycles` (each cycle refills the entry).
    pub stored: u64,
}

/// Walks one `max-age=5` entry through `cycles` store → hit → expire rounds
/// on a hand-advanced [`ManualClock`]: navigate (miss + store), advance 4 s,
/// navigate (fresh hit), advance 2 s (now 6 s past the store — expired). No
/// wall time enters the freshness check, so every counter is exact.
///
/// # Panics
///
/// Panics if `cycles == 0` or a page load fails.
#[must_use]
pub fn run_cache_ttl_walk(cycles: usize) -> CacheTtlReport {
    assert!(cycles > 0, "a TTL walk needs at least one cycle");
    let fabric = Arc::new(SharedNetwork::new());
    let clock = Arc::new(ManualClock::new());
    fabric.set_clock(clock.clone());
    fabric.register("http://ttl.example", |_req: &Request| {
        Response::ok_html("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">fresh</body></html>")
            .with_max_age(5)
    });
    let engine = engine_for_mode(PolicyMode::Escudo);
    let jar = Arc::new(SharedCookieJar::new());
    let mut browser = Browser::with_network(engine, jar, Arc::clone(&fabric));
    browser.set_response_cache_enabled(true);
    for _ in 0..cycles {
        browser
            .navigate("http://ttl.example/page.php")
            .expect("ttl refill load");
        clock.advance(Duration::from_secs(4));
        browser
            .navigate("http://ttl.example/page.php")
            .expect("ttl fresh-hit load");
        clock.advance(Duration::from_secs(2));
    }
    CacheTtlReport {
        cycles,
        hits: fabric.cache_hits(),
        expired: fabric.cache_expired(),
        stored: fabric.cache_stored(),
    }
}

/// The outcome of the single-flight coalescing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheSingleFlightReport {
    /// Identical `<img>` slots the page's plan carries.
    pub duplicates: usize,
    /// Page loads performed.
    pub loads: usize,
    /// Dispatches the duplicated origin actually served; must equal `loads`
    /// (one primary per batch — the asset is uncacheable, so nothing persists
    /// between loads).
    pub dispatches: u64,
    /// Duplicate plan slots served from the primary's response; must equal
    /// `loads × (duplicates - 1)`.
    pub coalesced: u64,
    /// Requests the fabric logged; must equal `loads × (1 + duplicates)` —
    /// every coalesced slot still logs under its own sequence number.
    pub logged: usize,
}

/// Loads a page whose plan repeats one **uncacheable** image URL `duplicates`
/// times, `loads` times over. Batch-level single-flight dispatches each batch's
/// duplicates once and fans the response out to the other slots — coalescing
/// is a property of the batch, not of storability — while every slot still
/// logs under its own pre-reserved sequence.
///
/// # Panics
///
/// Panics if `duplicates == 0` or a page load fails.
#[must_use]
pub fn run_cache_single_flight(duplicates: usize, loads: usize) -> CacheSingleFlightReport {
    assert!(
        duplicates > 0,
        "a single-flight run needs at least one slot"
    );
    let fabric = Arc::new(SharedNetwork::new());
    let imgs = "<img src=\"http://img.flock.example/dup.png\">".repeat(duplicates);
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
    let engine = engine_for_mode(PolicyMode::Escudo);
    let jar = Arc::new(SharedCookieJar::new());
    let mut browser = Browser::with_network(engine, jar, Arc::clone(&fabric));
    browser.set_response_cache_enabled(true);
    for _ in 0..loads {
        browser
            .navigate("http://flock.example/index.php")
            .expect("single-flight page load");
    }
    CacheSingleFlightReport {
        duplicates,
        loads,
        dispatches: dispatches.load(Ordering::Relaxed),
        coalesced: fabric.cache_coalesced(),
        logged: fabric.log().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_navigations_hit_on_document_and_subresources() {
        let report = run_cache_speedup(Duration::from_micros(200), 3);
        assert_eq!(report.passes, 3);
        assert_eq!(report.hits, report.expected_hits());
        assert_eq!(report.stored, 1 + CACHE_WORLD_SUBRESOURCES);
        assert!(
            report.speedup() > 1.0,
            "cached navigation must beat the cold one ({:.0}ns vs {:.0}ns)",
            report.warm_ns,
            report.cold_ns
        );
    }

    #[test]
    fn the_matrix_is_cache_invariant() {
        let report = run_cache_matrix_oracle();
        assert_eq!(report.cached.cells(), report.plain.cells());
        assert_eq!(report.outcome_mismatches(), 0);
        assert_eq!(report.cached.unexpected().len(), 0);
        assert_eq!(report.plain.unexpected().len(), 0);
        assert_eq!(
            CacheMatrixOracleReport::total_checks(&report.cached),
            CacheMatrixOracleReport::total_checks(&report.plain),
        );
        assert_eq!(
            CacheMatrixOracleReport::total_denials(&report.cached),
            CacheMatrixOracleReport::total_denials(&report.plain),
        );
        assert!(report.sessions > 0, "the hook must observe sessions");
    }

    #[test]
    fn sessions_never_see_a_foreign_cookie_echo() {
        let report = run_cache_isolation(3, 4);
        assert_eq!(report.sessions, 3);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn a_single_session_hits_its_own_entry() {
        let report = run_cache_isolation(1, 4);
        assert_eq!(report.violations, 0);
        assert_eq!(report.cache_hits, 3, "rounds after the first must hit");
        assert_eq!(report.stale_discards, 0);
    }

    #[test]
    fn the_ttl_walk_counts_are_exact() {
        let report = run_cache_ttl_walk(3);
        assert_eq!(report.hits, 3);
        assert_eq!(report.expired, 2);
        assert_eq!(report.stored, 3);
    }

    #[test]
    fn duplicate_slots_dispatch_once_but_log_each() {
        let report = run_cache_single_flight(4, 2);
        assert_eq!(report.dispatches, 2, "one origin fetch per load");
        assert_eq!(report.coalesced, 6);
        assert_eq!(report.logged, 2 * (1 + 4));
    }
}
