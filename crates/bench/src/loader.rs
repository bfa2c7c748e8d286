//! The pipelined-subresource-loader workload: page loads whose `img` fetches fan
//! out over a shared [`SharedNetwork`] fabric with per-origin simulated latency.
//!
//! This module backs the `loader_concurrent` bench and its CI gate:
//!
//! * [`measure_page_loads`] / [`best_page_loads`] — timed page loads at a given
//!   in-flight bound. A bound of 1 is the *sequential oracle*: the exact same
//!   plan-then-fetch code path, each request sent after the previous one
//!   completed, in document order.
//! * [`run_loader_oracle`] — runs the same workload pipelined and sequential on
//!   two identically-built fabrics (with *skewed* per-origin latencies, so the
//!   pipelined completion order differs maximally from document order) and
//!   compares the sequence-sorted request logs byte-for-byte plus the
//!   per-subresource attached cookie names.
//! * [`run_shared_fabric_sessions`] — N full browser sessions over **one** fabric,
//!   one jar and one engine (the shared-everything deployment `Browser::with_network`
//!   enables), with cross-session cookie leakage counted from the shared log.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use escudo_browser::Browser;
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, PolicyMode, Ring};
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

/// The page origin of the single-session loader workload.
pub const PAGE_ORIGIN: &str = "http://page.example";

/// The page URL the loader workload navigates to.
pub const PAGE_URL: &str = "http://page.example/index.php";

/// The ESCUDO page markup: a ring-1 body carrying `images` img elements spread
/// round-robin across `origins` image hosts (subdomains of the page host, so the
/// page's `Domain` session cookie is in scope for every image request).
#[must_use]
pub fn image_page_html(host: &str, images: usize, origins: usize) -> String {
    let mut html = String::from("<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\">");
    for i in 0..images {
        html.push_str(&format!(
            "<img src=\"http://img{}.{host}/img{i}.png\">",
            i % origins.max(1)
        ));
    }
    html.push_str("</body></html>");
    html
}

/// Registers the loader workload's servers on `fabric`: one page server at
/// `http://{host}` (sets a ring-1 `Domain` session cookie and declares its
/// policy) and `origins` image servers at `http://img{k}.{host}`, image server
/// `k` configured with `latency(k)` simulated service time.
pub fn register_loader_world(
    fabric: &SharedNetwork,
    host: &str,
    cookie_name: &str,
    images: usize,
    origins: usize,
    latency: impl Fn(usize) -> Duration,
) {
    let html = image_page_html(host, images, origins);
    let domain = host.to_string();
    let cookie = cookie_name.to_string();
    fabric.register(&format!("http://{host}"), move |_req: &Request| {
        Response::ok_html(html.clone())
            .with_cookie(SetCookie {
                domain: Some(domain.clone()),
                ..SetCookie::new(cookie.clone(), "bench")
            })
            .with_cookie_policy(
                &CookiePolicy::new(cookie.clone(), Ring::new(1))
                    .with_acl(Acl::uniform(Ring::new(1))),
            )
    });
    for k in 0..origins.max(1) {
        let origin = format!("http://img{k}.{host}");
        fabric.register(&origin, |req: &Request| {
            Response::ok_text(format!("img {}", req.url.path()))
        });
        fabric.set_latency(&origin, latency(k));
    }
}

/// A fresh single-session loader world: fabric + servers, uniform per-origin
/// latency.
#[must_use]
pub fn build_loader_fabric(
    images: usize,
    origins: usize,
    latency: impl Fn(usize) -> Duration,
) -> Arc<SharedNetwork> {
    let fabric = Arc::new(SharedNetwork::new());
    register_loader_world(&fabric, "page.example", "sid", images, origins, latency);
    fabric
}

/// One timed sample of repeated page loads at an in-flight bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoaderSample {
    /// In-flight bound the browser was configured with (1 = sequential oracle).
    pub workers: usize,
    /// Planned subresources per page.
    pub images: usize,
    /// Pages loaded inside the timed window.
    pub pages: u64,
    /// Wall-clock nanoseconds for the timed window.
    pub elapsed_ns: u128,
    /// Sum of the per-page subresource fan-out times (phase 2 only), in
    /// nanoseconds — the overlapped fetch time the pipeline optimizes.
    pub fetch_ns: u128,
}

impl LoaderSample {
    /// Mean nanoseconds per full page load.
    #[must_use]
    pub fn ns_per_page(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.pages as f64
        }
    }

    /// Aggregate page loads per second.
    #[must_use]
    pub fn pages_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.pages as f64 * 1.0e9 / self.elapsed_ns as f64
        }
    }
}

/// Measures `passes` page loads of the `images`-image page over a fresh fabric
/// with uniform `latency` on every image origin, at the given worker bound. One
/// untimed warm-up load precedes the window (engine cache, jar, allocator).
///
/// # Panics
///
/// Panics if a page load fails — the workload is deterministic, so a failure is
/// a real regression.
#[must_use]
pub fn measure_page_loads(
    images: usize,
    origins: usize,
    latency: Duration,
    workers: usize,
    passes: usize,
) -> LoaderSample {
    let fabric = build_loader_fabric(images, origins, |_| latency);
    let engine = engine_for_mode(PolicyMode::Escudo);
    let jar = Arc::new(SharedCookieJar::new());
    let mut browser = Browser::with_network(engine, jar, fabric);
    browser.set_subresource_workers(workers);
    browser.navigate(PAGE_URL).expect("loader warm-up page");

    let mut fetch_ns = 0u128;
    let start = Instant::now();
    for _ in 0..passes {
        let page = browser.navigate(PAGE_URL).expect("loader workload page");
        fetch_ns += browser.page(page).stats.subresource_fetch_ns;
    }
    LoaderSample {
        workers,
        images,
        pages: passes as u64,
        elapsed_ns: start.elapsed().as_nanos(),
        fetch_ns,
    }
}

/// Best-of-`samples` page-load measurement (scheduler noise only ever slows a
/// run down, so the best sample is the least-noisy estimate).
#[must_use]
pub fn best_page_loads(
    images: usize,
    origins: usize,
    latency: Duration,
    workers: usize,
    passes: usize,
    samples: usize,
) -> LoaderSample {
    (0..samples.max(1))
        .map(|_| measure_page_loads(images, origins, latency, workers, passes))
        .max_by(|a, b| a.pages_per_sec().total_cmp(&b.pages_per_sec()))
        .expect("at least one sample")
}

/// Reverse-skewed per-origin latency with a deterministic jitter: origin `k`
/// (earlier in document order) sleeps longer, with uneven steps so no two
/// origins tie — the adversarial schedule under which pipelined completion
/// order diverges maximally from document order. Shared by the oracle run and
/// the `tests/pipelined_loader.rs` determinism tests.
#[must_use]
pub fn reverse_skewed_latency(origins: usize, k: usize) -> Duration {
    Duration::from_micros((origins.max(1) - k) as u64 * 180 + (k as u64 * 37) % 90)
}

/// The outcome of the pipelined-vs-sequential oracle run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoaderOracleReport {
    /// Log entries compared (requests dispatched by each side).
    pub requests: usize,
    /// Sequence-sorted log entries that differed between the pipelined run and
    /// the sequential oracle (byte-level `LoggedRequest` comparison, including
    /// attached cookie names and response status). Must be 0.
    pub log_mismatches: usize,
    /// Per-subresource attached-cookie-name lists that differed. Must be 0.
    pub attachment_mismatches: usize,
    /// Subresource outcomes recorded out of document order by the pipelined run.
    /// Must be 0.
    pub order_violations: usize,
}

/// Loads the workload page `passes` times pipelined (8 workers) and `passes`
/// times sequential (1 worker) on two identically-built fabrics whose image
/// origins have *reverse-skewed* latencies — the first image in document order is
/// the slowest, so pipelined completion order inverts document order — and
/// compares the sequence-sorted request logs byte-for-byte, the per-subresource
/// attached cookie names, and the document-order recording invariant.
///
/// # Panics
///
/// Panics if a page load fails.
#[must_use]
pub fn run_loader_oracle(images: usize, origins: usize, passes: usize) -> LoaderOracleReport {
    let latency = |k| reverse_skewed_latency(origins, k);
    let run = |workers: usize| {
        let fabric = build_loader_fabric(images, origins, latency);
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(engine, jar, Arc::clone(&fabric));
        browser.set_subresource_workers(workers);
        let mut attachments: Vec<Vec<Vec<String>>> = Vec::new();
        let mut recorded_urls: Vec<Vec<String>> = Vec::new();
        for _ in 0..passes {
            let page = browser.navigate(PAGE_URL).expect("oracle page load");
            let page = browser.page(page);
            attachments.push(
                page.subresources
                    .iter()
                    .map(|s| s.attached_cookies.clone())
                    .collect(),
            );
            recorded_urls.push(
                page.subresources
                    .iter()
                    .map(|s| s.url.to_string())
                    .collect(),
            );
        }
        (fabric.log(), attachments, recorded_urls)
    };

    let (pipelined_log, pipelined_attached, pipelined_urls) = run(8);
    let (sequential_log, sequential_attached, sequential_urls) = run(1);

    let mut report = LoaderOracleReport {
        requests: pipelined_log.len().max(sequential_log.len()),
        ..LoaderOracleReport::default()
    };
    report.log_mismatches = pipelined_log
        .iter()
        .zip(&sequential_log)
        .filter(|(a, b)| a != b)
        .count()
        + pipelined_log.len().abs_diff(sequential_log.len());
    report.attachment_mismatches = pipelined_attached
        .iter()
        .zip(&sequential_attached)
        .filter(|(a, b)| a != b)
        .count();
    // Document order is the sequential dispatch order; the pipelined run must
    // have recorded its outcomes in exactly that order.
    report.order_violations = pipelined_urls
        .iter()
        .zip(&sequential_urls)
        .filter(|(a, b)| a != b)
        .count();
    report
}

/// The outcome of the shared-fabric multi-session workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricIsolationReport {
    /// Concurrent sessions (= OS threads), each with its own page host.
    pub sessions: usize,
    /// Requests the shared fabric logged across all sessions.
    pub requests: usize,
    /// Sessions whose subresource requests carried their own session cookie.
    pub sessions_with_cookies: usize,
    /// Log entries for session `t`'s hosts that carried a cookie belonging to a
    /// *different* session. Must be 0.
    pub isolation_violations: usize,
}

/// Runs `threads` full browser sessions concurrently over **one** shared fabric,
/// one shared jar and one shared engine. Session `t` owns the page host
/// `site{t}.example` (with per-session cookie `sid{t}` and its own image
/// origins) and loads its page `rounds` times with the pipelined loader; the
/// shared sequence-ordered log is then scanned for cross-session cookie leakage.
///
/// # Panics
///
/// Panics if any session thread fails a page load.
#[must_use]
pub fn run_shared_fabric_sessions(
    threads: usize,
    images: usize,
    rounds: usize,
) -> FabricIsolationReport {
    let fabric = Arc::new(SharedNetwork::new());
    let engine = Arc::new(escudo_core::EscudoEngine::new());
    let jar = Arc::new(SharedCookieJar::new());
    let origins = images.clamp(1, 4);
    for t in 0..threads {
        register_loader_world(
            &fabric,
            &format!("site{t}.example"),
            &format!("sid{t}"),
            images,
            origins,
            |k| Duration::from_micros(k as u64 * 100 + 50),
        );
    }

    thread::scope(|scope| {
        for t in 0..threads {
            let fabric = Arc::clone(&fabric);
            let engine: Arc<dyn escudo_core::PolicyEngine> = Arc::clone(&engine) as _;
            let jar = Arc::clone(&jar);
            scope.spawn(move || {
                let mut browser = Browser::with_network(engine, jar, fabric);
                browser.set_subresource_workers(4);
                for _ in 0..rounds {
                    browser
                        .navigate(&format!("http://site{t}.example/index.php"))
                        .expect("shared-fabric page load");
                }
            });
        }
    });

    let log = fabric.log();
    let mut report = FabricIsolationReport {
        sessions: threads,
        requests: log.len(),
        ..FabricIsolationReport::default()
    };
    for t in 0..threads {
        let own_cookie = format!("sid{t}");
        let suffix = format!("site{t}.example");
        let mut own_cookie_seen = false;
        for entry in log.iter().filter(|e| {
            let host = e.url.host();
            host.eq_ignore_ascii_case(&suffix)
                || host.to_ascii_lowercase().ends_with(&format!(".{suffix}"))
        }) {
            for name in &entry.cookie_names {
                if name == &own_cookie {
                    if host_is_image(&entry.url.host().to_ascii_lowercase(), &suffix) {
                        own_cookie_seen = true;
                    }
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

/// `true` when `host` is one of a site's image subdomains (as opposed to the page
/// host itself).
fn host_is_image(host: &str, site: &str) -> bool {
    host.ends_with(&format!(".{site}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_page_loads_count_pages_and_fetch_time() {
        let sample = measure_page_loads(4, 2, Duration::ZERO, 4, 3);
        assert_eq!(sample.pages, 3);
        assert_eq!(sample.images, 4);
        assert!(sample.elapsed_ns > 0);
        assert!(sample.fetch_ns > 0);
        assert!(sample.ns_per_page() > 0.0);
        assert!(sample.pages_per_sec() > 0.0);
        let best = best_page_loads(2, 2, Duration::ZERO, 1, 2, 2);
        assert_eq!(best.workers, 1);
        assert_eq!(best.pages, 2);
    }

    #[test]
    fn oracle_run_is_clean_under_skewed_latency() {
        let report = run_loader_oracle(6, 3, 2);
        // 2 passes × (1 page + 6 images) per side.
        assert_eq!(report.requests, 14);
        assert_eq!(report.log_mismatches, 0);
        assert_eq!(report.attachment_mismatches, 0);
        assert_eq!(report.order_violations, 0);
    }

    #[test]
    fn shared_fabric_sessions_stay_isolated() {
        let report = run_shared_fabric_sessions(3, 4, 2);
        assert_eq!(report.sessions, 3);
        // 3 sessions × 2 rounds × (1 page + 4 images).
        assert_eq!(report.requests, 30);
        assert_eq!(report.sessions_with_cookies, 3);
        assert_eq!(report.isolation_violations, 0);
    }

    #[test]
    fn the_page_markup_spreads_images_across_origins() {
        let html = image_page_html("page.example", 4, 2);
        assert!(html.contains("http://img0.page.example/img0.png"));
        assert!(html.contains("http://img1.page.example/img1.png"));
        assert!(html.contains("http://img0.page.example/img2.png"));
        assert!(html.contains("ring=\"1\""));
    }
}
