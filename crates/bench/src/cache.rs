//! The mediation-keyed response-cache workload behind `cache_concurrent`:
//! [`run_cache_speedup`] loads the same max-age'd page repeatedly on two
//! identically-built fabrics, cache off vs on; every warm fetch (document and
//! subresources alike) is an `Arc` refcount bump that skips the origin's
//! simulated latency entirely.
//!
//! The cache's deterministic gates are tier-1 tests:
//! `cache::tests::the_matrix_is_cache_invariant` replays the whole scenario
//! matrix cache-on vs cache-off, `cache::tests::sessions_never_see_a_foreign_cookie_echo`
//! runs cache-enabled sessions with distinct cookie headers on one fabric, and
//! `tests/response_cache.rs` walks the manual-clock TTL and the single-flight
//! page.

use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_browser::{Browser, FabricCounters};
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, PolicyMode, Ring};
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

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
            FabricCounters::gather(&fabric).cache_stored,
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

#[cfg(test)]
mod tests {
    use escudo_apps::scenario::MatrixReport;

    use super::*;
    use crate::measure::spawn_join;
    use crate::oracle::{mismatches, run_matrix_with_hook};

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
        // The cache key is the mediation plan (method, URL, exact mediated
        // `Cookie` header) and mediation always runs, so caching may skip
        // transport but never move a verdict or a check/denial count.
        let (cached, fabrics) =
            run_matrix_with_hook(|browser: &mut Browser| browser.set_response_cache_enabled(true));
        let plain = MatrixReport::run_registry();
        assert_eq!(cached.cells(), plain.cells());
        assert_eq!(mismatches(&cached.outcomes, &plain.outcomes), 0);
        assert!(cached.unexpected().is_empty());
        assert!(plain.unexpected().is_empty());
        for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
            assert_eq!(cached.total_checks(mode), plain.total_checks(mode));
            assert_eq!(cached.total_denials(mode), plain.total_denials(mode));
        }
        assert!(!fabrics.is_empty(), "the hook must observe sessions");
    }

    /// Runs `threads` cache-enabled sessions concurrently over one fabric and
    /// one cacheable URL, each logged in with its own value of the `sid`
    /// cookie, so each mediates a distinct `Cookie` header. The page echoes
    /// the header the origin received. Returns the loads whose echo was not
    /// the session's own, the cache hits, and the entries discarded
    /// fail-closed because the consuming header differed from the stored one.
    fn run_cache_isolation(threads: usize, rounds: usize) -> (usize, u64, u64) {
        let fabric = Arc::new(SharedNetwork::new());
        let engine = engine_for_mode(PolicyMode::Escudo);
        let policy = CookiePolicy::new("sid", Ring::new(1)).with_acl(Acl::uniform(Ring::new(1)));
        fabric.register("http://portal.example", move |req: &Request| {
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

        let sessions = spawn_join(threads, |t| {
            let jar = Arc::new(SharedCookieJar::new());
            let mut browser = Browser::with_network(Arc::clone(&engine), jar, Arc::clone(&fabric));
            browser.set_response_cache_enabled(true);
            browser
                .navigate(&format!("http://portal.example/login.php?user=u{t}"))
                .expect("isolation login load");
            let own = format!("sid=u{t}");
            let mut violations = 0;
            for _ in 0..rounds {
                let page = browser
                    .navigate("http://portal.example/page.php")
                    .expect("isolation page load");
                if browser.page(page).text_of("who").unwrap_or_default() != own {
                    violations += 1;
                }
            }
            (violations, browser.cache_hits())
        });
        (
            sessions.iter().map(|s| s.0).sum(),
            sessions.iter().map(|s| s.1).sum(),
            FabricCounters::gather(&fabric).cache_stale_discards,
        )
    }

    #[test]
    fn sessions_never_see_a_foreign_cookie_echo() {
        let (violations, _, _) = run_cache_isolation(3, 4);
        assert_eq!(violations, 0, "a cache entry crossed cookie headers");
    }

    #[test]
    fn a_single_session_hits_its_own_entry() {
        let (violations, hits, stale_discards) = run_cache_isolation(1, 4);
        assert_eq!(violations, 0);
        assert_eq!(hits, 3, "rounds after the first must hit");
        assert_eq!(stale_discards, 0);
    }
}
