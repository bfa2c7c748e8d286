//! The pipelined-subresource-loader workload: page loads whose `img` fetches fan
//! out over a shared [`SharedNetwork`] fabric with per-origin simulated latency.
//!
//! This module backs the `loader_concurrent` bench and its CI gate:
//!
//! * [`measure_page_loads`] — timed page loads at a given in-flight bound. A
//!   bound of 1 is the *sequential oracle*: the exact same plan-then-fetch code
//!   path, each request sent after the previous one completed, in document order.
//! * [`run_loader_oracle`] — the same workload pipelined and sequential on two
//!   identically-built fabrics (with *skewed* per-origin latencies, so the
//!   pipelined completion order differs maximally from document order), the two
//!   session transcripts diffed by [`crate::oracle`].
//! * [`run_shared_fabric_sessions`] — N full browser sessions over **one** fabric,
//!   one jar and one engine (the shared-everything deployment `Browser::with_network`
//!   enables), the shared log scanned for cross-session leakage by
//!   [`crate::oracle`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_browser::Browser;
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, EscudoEngine, PolicyEngine, PolicyMode, Ring};
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

use crate::measure::{spawn_join, Rate};
use crate::oracle::{scan_leaks, LeakScan, Transcript, TranscriptDiff};

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

/// Measures `passes` page loads of the `images`-image page over a fresh fabric
/// with uniform `latency` on every image origin, at the given worker bound (1 =
/// the sequential oracle). One untimed warm-up load precedes the window (engine
/// cache, jar, allocator); one operation of the returned [`Rate`] is one page.
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
) -> Rate {
    let fabric = build_loader_fabric(images, origins, |_| latency);
    let engine = engine_for_mode(PolicyMode::Escudo);
    let jar = Arc::new(SharedCookieJar::new());
    let mut browser = Browser::with_network(engine, jar, fabric);
    browser.set_subresource_workers(workers);
    browser.navigate(PAGE_URL).expect("loader warm-up page");

    let start = Instant::now();
    for _ in 0..passes {
        browser.navigate(PAGE_URL).expect("loader workload page");
    }
    Rate {
        width: workers,
        ops: passes as u64,
        elapsed_ns: start.elapsed().as_nanos(),
    }
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

/// Loads the workload page `passes` times pipelined (8 workers) and `passes`
/// times sequential (1 worker) on two identically-built fabrics whose image
/// origins have *reverse-skewed* latencies — the first image in document order is
/// the slowest, so pipelined completion order inverts document order — and diffs
/// the pipelined run's [`Transcript`] against the sequential one's.
///
/// # Panics
///
/// Panics if a page load fails.
#[must_use]
pub fn run_loader_oracle(images: usize, origins: usize, passes: usize) -> TranscriptDiff {
    let run = |workers: usize| {
        let fabric = build_loader_fabric(images, origins, |k| reverse_skewed_latency(origins, k));
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(engine, jar, fabric);
        browser.set_subresource_workers(workers);
        Transcript::record(&mut browser, vec![PAGE_URL; passes])
    };
    run(8).diff(&run(1))
}

/// Runs `threads` full browser sessions concurrently over **one** shared fabric,
/// one shared jar and one shared engine. Session `t` owns the page host
/// `site{t}.example` (with per-session cookie `sid{t}` and its own image
/// origins) and loads its page `rounds` times with the pipelined loader; the
/// shared sequence-ordered log is then [scanned](scan_leaks) for cross-session
/// cookie leakage.
///
/// # Panics
///
/// Panics if any session thread fails a page load.
#[must_use]
pub fn run_shared_fabric_sessions(threads: usize, images: usize, rounds: usize) -> LeakScan {
    let fabric = Arc::new(SharedNetwork::new());
    let engine: Arc<dyn PolicyEngine> = Arc::new(EscudoEngine::new());
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

    spawn_join(threads, |t| {
        let mut browser =
            Browser::with_network(Arc::clone(&engine), Arc::clone(&jar), Arc::clone(&fabric));
        browser.set_subresource_workers(4);
        for _ in 0..rounds {
            browser
                .navigate(&format!("http://site{t}.example/index.php"))
                .expect("shared-fabric page load");
        }
    });

    scan_leaks(
        &fabric.log(),
        (0..threads).map(|t| (format!("site{t}.example"), format!("sid{t}"))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_page_loads_count_pages() {
        let rate = measure_page_loads(4, 2, Duration::ZERO, 4, 3);
        assert_eq!(rate.width, 4);
        assert_eq!(rate.ops, 3);
        assert!(rate.elapsed_ns > 0);
        assert!(rate.ns_per_op() > 0.0);
    }

    #[test]
    fn oracle_run_is_clean_under_skewed_latency() {
        let diff = run_loader_oracle(6, 3, 2);
        // 2 passes × (1 page + 6 images) per side.
        assert_eq!(
            diff,
            TranscriptDiff {
                requests: 14,
                ..TranscriptDiff::default()
            }
        );
    }

    #[test]
    fn shared_fabric_sessions_stay_isolated() {
        let scan = run_shared_fabric_sessions(3, 4, 2);
        // 3 sessions × 2 rounds × (1 page + 4 images).
        assert_eq!(scan.requests, 30);
        // Every image fetch carries the session cookie the page set, and so
        // does round 2's page: 2 × 4 + 1.
        assert_eq!(scan.own_attachments, [9, 9, 9]);
        assert_eq!(scan.violations, 0);
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
