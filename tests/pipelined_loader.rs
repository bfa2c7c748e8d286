//! End-to-end guarantees of the pipelined subresource loader over the shared
//! network fabric:
//!
//! * recorded outcomes and the sequence-sorted request log read in **document
//!   order** under adversarially skewed (randomized-per-origin) latencies,
//! * attached cookie names are **byte-identical** to the sequential oracle path
//!   (workers = 1), because mediation is fixed in phase 1 before any fetch,
//! * 8 sessions sharing one fabric + jar + engine leak nothing across sessions,
//! * page loads next to a bulk storm all succeed, with the storm's cost in
//!   origin latency or inside the handlers, and start no background work
//!   (every plan is a deadline window on its navigating thread), and
//! * speculative prefetch is **oracle-equivalent**: prefetch on vs off produces
//!   byte-identical mediation decisions, attachments and request logs.
//!
//! The pipelined-vs-sequential oracle, the shared-fabric isolation run and
//! the prefetch oracle here are the loader's and the scheduler's tier-1
//! gates. The worlds are built by `escudo_bench::loader` and
//! `escudo_bench::scheduler`, the builders the `loader_concurrent` and
//! `scheduler_concurrent` timing gates load, and checked by
//! `escudo_bench::oracle`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use escudo::browser::Browser;
use escudo::core::{engine_for_mode, PolicyMode};
use escudo::net::{FabricCounters, Request, Response, SharedCookieJar, SharedNetwork, Url};
use escudo_bench::loader::{register_loader_world, reverse_skewed_latency};
use escudo_bench::measure::spawn_join;
use escudo_bench::oracle::{scan_leaks, Transcript, TranscriptDiff};
use escudo_bench::scheduler::{register_nav_world, run_prefetch_oracle, NAV_PAGE_URL};

const IMAGES: usize = 8;
const ORIGINS: usize = 4;

fn browser_over(fabric: &Arc<SharedNetwork>, workers: usize) -> Browser {
    let mut browser = Browser::with_network(
        engine_for_mode(PolicyMode::Escudo),
        Arc::new(SharedCookieJar::new()),
        Arc::clone(fabric),
    );
    browser.set_subresource_workers(workers);
    browser
}

/// A fresh fabric serving the standard loader world at `site.example`, image
/// origins reverse-skewed so the *first* image in document order is the slowest.
fn skewed_fabric() -> Arc<SharedNetwork> {
    let fabric = Arc::new(SharedNetwork::new());
    register_loader_world(&fabric, "site.example", "sid", IMAGES, ORIGINS, |k| {
        reverse_skewed_latency(ORIGINS, k)
    });
    fabric
}

#[test]
fn outcomes_and_log_are_in_document_order_under_skewed_latency() {
    let fabric = skewed_fabric();
    let mut browser = browser_over(&fabric, 8);

    let page = browser.navigate("http://site.example/index.php").unwrap();
    let page = browser.page(page);
    assert_eq!(page.stats.subresource_requests, IMAGES as u64);
    assert_eq!(page.subresources.len(), IMAGES);

    // Document order: img i lives at img{i % ORIGINS}.site.example/img{i}.png.
    for (i, outcome) in page.subresources.iter().enumerate() {
        assert_eq!(
            outcome.url.to_string(),
            format!("http://img{}.site.example/img{i}.png", i % ORIGINS),
            "outcome {i} out of document order"
        );
        assert!(outcome.succeeded(), "outcome {i}: {outcome:?}");
        // Phase-1 mediation attached the ring-1 session cookie to every image.
        assert_eq!(outcome.attached_cookies, vec!["sid".to_string()]);
    }

    // The sequence-sorted shared log: main page first, then the images in
    // document order, every image request carrying the session cookie.
    let log = fabric.log();
    assert_eq!(log.len(), IMAGES + 1);
    assert_eq!(log[0].url.path(), "/index.php");
    for (i, entry) in log[1..].iter().enumerate() {
        assert_eq!(entry.url.path(), format!("/img{i}.png"));
        assert_eq!(entry.cookie_names, vec!["sid".to_string()]);
        assert_eq!(entry.status, 200);
    }
}

#[test]
fn pipelined_run_matches_the_sequential_oracle_byte_for_byte() {
    // Two images per origin, origins reverse-skewed: the pipelined run
    // completes the document's first images last, and each origin's images
    // share one jar walk, one candidate set and one `Cookie` header in the
    // page's mediation plan.
    let run = |workers: usize| {
        let fabric = skewed_fabric();
        let mut browser = browser_over(&fabric, workers);
        Transcript::record(&mut browser, ["http://site.example/index.php"; 3])
    };
    // Byte-identical logs (method, URL, cookie names, status — in order),
    // identical per-subresource attachments in document order, and the same
    // mediation counts: the transport cannot influence mediation, and
    // sequence reservation fixes the order.
    assert_eq!(
        run(8).diff(&run(1)),
        TranscriptDiff {
            requests: 3 * (IMAGES + 1),
            ..TranscriptDiff::default()
        }
    );
}

#[test]
fn eight_sessions_sharing_one_fabric_stay_isolated() {
    let fabric = Arc::new(SharedNetwork::new());
    let engine = engine_for_mode(PolicyMode::Escudo);
    let jar = Arc::new(SharedCookieJar::new());
    const SESSIONS: usize = 8;
    const ROUNDS: usize = 3;
    for t in 0..SESSIONS {
        register_loader_world(
            &fabric,
            &format!("site{t}.example"),
            &format!("sid{t}"),
            IMAGES,
            ORIGINS,
            |k| Duration::from_micros(k as u64 * 120 + 60),
        );
    }

    spawn_join(SESSIONS, |t| {
        let mut browser =
            Browser::with_network(Arc::clone(&engine), Arc::clone(&jar), Arc::clone(&fabric));
        browser.set_subresource_workers(4);
        for _ in 0..ROUNDS {
            browser
                .navigate(&format!("http://site{t}.example/index.php"))
                .unwrap();
        }
    });

    // 8 sessions × 3 rounds × (1 page + IMAGES images), one shared log.
    let scan = scan_leaks(
        &fabric.log(),
        (0..SESSIONS).map(|t| (format!("site{t}.example"), format!("sid{t}"))),
    );
    assert_eq!(scan.requests, SESSIONS * ROUNDS * (IMAGES + 1));
    assert_eq!(
        scan.violations, 0,
        "a cookie leaked onto another session's host"
    );
    // Every image request carries the session cookie the page set (round 1's
    // images included: same-page store), and so do the pages of rounds 2
    // and 3. A session whose images went without it would count only those
    // two page attachments.
    for (t, own) in scan.own_attachments.iter().enumerate() {
        assert_eq!(
            *own,
            ROUNDS * IMAGES + ROUNDS - 1,
            "session {t} attached sid{t} {own} times"
        );
    }
}

/// The asset URLs of a handler-bound page at `host`: a stylesheet and two
/// scripts from three origins when `critical`, otherwise `IMAGES` images over
/// `ORIGINS` origins.
fn asset_urls(host: &str, critical: bool) -> Vec<String> {
    if critical {
        vec![
            format!("http://css.{host}/site.css"),
            format!("http://js0.{host}/a.js"),
            format!("http://js1.{host}/b.js"),
        ]
    } else {
        (0..IMAGES)
            .map(|i| format!("http://img{}.{host}/img{i}.png", i % ORIGINS))
            .collect()
    }
}

/// Registers a page at `http://{host}` referencing `asset_urls(host, critical)`,
/// whose assets are served by handlers that spend `service` inside the handler
/// call itself — handler work — rather than in simulated latency.
fn register_handler_bound_world(
    fabric: &SharedNetwork,
    host: &str,
    critical: bool,
    service: Duration,
) {
    let urls = asset_urls(host, critical);
    let markup: String = urls
        .iter()
        .map(|url| {
            if critical && url.ends_with(".css") {
                format!("<link rel=\"stylesheet\" href=\"{url}\">")
            } else if critical {
                format!("<script src=\"{url}\"></script>")
            } else {
                format!("<img src=\"{url}\">")
            }
        })
        .collect();
    let html = format!("<html><body>{markup}</body></html>");
    fabric.register(&format!("http://{host}"), move |_req: &Request| {
        Response::ok_html(html.clone())
    });
    let mut origins: Vec<String> = urls
        .iter()
        .map(|url| format!("http://{}", Url::parse(url).unwrap().host()))
        .collect();
    origins.sort();
    origins.dedup();
    for origin in origins {
        fabric.register(&origin, move |req: &Request| {
            thread::sleep(service);
            Response::ok_text(format!("asset {}", req.url.path()))
        });
    }
}

/// Runs a bulk session looping `bulk_url` at 2 in-flight requests while a
/// navigating session loads `nav_url` at 8, `navigations` times. Every load
/// of both sessions must succeed.
fn navigate_during_bulk_storm(
    fabric: &Arc<SharedNetwork>,
    bulk_url: &str,
    nav_url: &str,
    navigations: usize,
) {
    let engine = engine_for_mode(PolicyMode::Escudo);
    let jar = Arc::new(SharedCookieJar::new());
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let storm_fabric = Arc::clone(fabric);
        let storm_engine = Arc::clone(&engine);
        let storm_jar = Arc::clone(&jar);
        let stop = &stop;
        let storm = scope.spawn(move || {
            let mut browser = Browser::with_network(storm_engine, storm_jar, storm_fabric);
            browser.set_subresource_workers(2);
            let mut loads = 0usize;
            while !stop.load(Ordering::Acquire) {
                let page = browser.navigate(bulk_url).unwrap();
                assert!(browser
                    .page(page)
                    .subresources
                    .iter()
                    .all(|s| s.succeeded()));
                loads += 1;
            }
            loads
        });
        let mut browser =
            Browser::with_network(Arc::clone(&engine), Arc::clone(&jar), Arc::clone(fabric));
        browser.set_subresource_workers(8);
        for _ in 0..navigations {
            let page = browser.navigate(nav_url).unwrap();
            assert!(browser
                .page(page)
                .subresources
                .iter()
                .all(|s| s.succeeded()));
        }
        stop.store(true, Ordering::Release);
        assert!(storm.join().unwrap() > 0, "the storm never loaded a page");
    });
}

#[test]
fn page_loads_next_to_a_bulk_storm_all_succeed() {
    // Every subresource plan is a deadline window on its own navigating
    // thread. An image-heavy bulk storm next to a navigation whose three
    // critical subresources cost time too — first with the cost in origin
    // latency, then inside the handlers — starts no background work, and
    // every load of both sessions succeeds.
    let latency_bound = Arc::new(SharedNetwork::new());
    register_nav_world(&latency_bound, "nav.example");
    register_loader_world(
        &latency_bound,
        "bulk.example",
        "sid",
        IMAGES,
        ORIGINS,
        |_| Duration::from_micros(500),
    );
    let handler_bound = Arc::new(SharedNetwork::new());
    register_handler_bound_world(
        &handler_bound,
        "nav.example",
        true,
        Duration::from_micros(100),
    );
    register_handler_bound_world(
        &handler_bound,
        "bulk.example",
        false,
        Duration::from_micros(500),
    );
    for fabric in [&latency_bound, &handler_bound] {
        navigate_during_bulk_storm(fabric, "http://bulk.example/index.php", NAV_PAGE_URL, 40);
        assert_eq!(
            FabricCounters::gather(fabric).pool_jobs_executed,
            0,
            "a page load without prefetch sent speculative requests"
        );
    }
}

#[test]
fn prefetch_on_and_off_are_oracle_equivalent() {
    // The scheduler bench's twin-fabric run: the same hub -> item navigation
    // sequence with speculation enabled vs disabled must leave byte-identical
    // sequence-sorted request logs (method, URL, cookie names, status) and
    // identical per-subresource attachments — prefetch may change *when* bytes
    // move, never what ESCUDO decides.
    let (diff, prefetch_hits) = run_prefetch_oracle(3);
    // 3 passes × (hub + 2 images + item + 2 images).
    assert_eq!(diff.requests, 18);
    assert_eq!(prefetch_hits, 3, "speculation never engaged");
    assert_eq!(diff.log_mismatches, 0, "prefetch perturbed the request log");
    assert_eq!(
        diff.attachment_mismatches, 0,
        "prefetch changed a mediation outcome"
    );
    assert_eq!(diff.order_violations, 0, "a log left plan order");
}
