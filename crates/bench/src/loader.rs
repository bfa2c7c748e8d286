//! The pipelined-subresource-loader workload: page loads whose `img` fetches fan
//! out over a shared [`SharedNetwork`] fabric with per-origin simulated latency.
//!
//! [`measure_page_loads`] backs the `loader_concurrent` timing gates: timed
//! page loads at a given in-flight bound. A bound of 1 is the *sequential
//! oracle*: the exact same plan-then-fetch code path, each request sent after
//! the previous one completed, in document order.
//!
//! The loader's deterministic gates are tier-1 tests in
//! `tests/pipelined_loader.rs`: `pipelined_run_matches_the_sequential_oracle_byte_for_byte`
//! diffs pipelined and sequential transcripts under [`reverse_skewed_latency`],
//! and `eight_sessions_sharing_one_fabric_stay_isolated` scans one shared
//! fabric's log for cross-session leakage.

use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_browser::Browser;
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, PolicyMode, Ring};
use escudo_net::{Request, Response, SetCookie, SharedCookieJar, SharedNetwork};

use crate::measure::Rate;

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

#[cfg(test)]
mod tests {
    use escudo_core::{EscudoEngine, PolicyEngine};

    use super::*;
    use crate::measure::spawn_join;
    use crate::oracle::{scan_leaks, Transcript, TranscriptDiff};

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
        let run = |workers: usize| {
            let fabric = build_loader_fabric(6, 3, |k| reverse_skewed_latency(3, k));
            let jar = Arc::new(SharedCookieJar::new());
            let mut browser =
                Browser::with_network(engine_for_mode(PolicyMode::Escudo), jar, fabric);
            browser.set_subresource_workers(workers);
            Transcript::record(&mut browser, [PAGE_URL; 2])
        };
        // 2 passes × (1 page + 6 images) per side.
        assert_eq!(
            run(8).diff(&run(1)),
            TranscriptDiff {
                requests: 14,
                ..TranscriptDiff::default()
            }
        );
    }

    #[test]
    fn shared_fabric_sessions_stay_isolated() {
        // 3 sessions, one shared fabric, jar and engine; session `t` owns
        // `site{t}.example` and its cookie `sid{t}`.
        let fabric = Arc::new(SharedNetwork::new());
        let engine: Arc<dyn PolicyEngine> = Arc::new(EscudoEngine::new());
        let jar = Arc::new(SharedCookieJar::new());
        for t in 0..3 {
            register_loader_world(
                &fabric,
                &format!("site{t}.example"),
                &format!("sid{t}"),
                4,
                4,
                |k| Duration::from_micros(k as u64 * 100 + 50),
            );
        }
        spawn_join(3, |t| {
            let mut browser =
                Browser::with_network(Arc::clone(&engine), Arc::clone(&jar), Arc::clone(&fabric));
            browser.set_subresource_workers(4);
            for _ in 0..2 {
                browser
                    .navigate(&format!("http://site{t}.example/index.php"))
                    .expect("shared-fabric page load");
            }
        });
        let scan = scan_leaks(
            &fabric.log(),
            (0..3).map(|t| (format!("site{t}.example"), format!("sid{t}"))),
        );
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
