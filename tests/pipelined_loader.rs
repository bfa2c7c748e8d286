//! End-to-end guarantees of the pipelined subresource loader over the shared
//! network fabric:
//!
//! * recorded outcomes and the sequence-sorted request log read in **document
//!   order** under adversarially skewed (randomized-per-origin) latencies,
//! * attached cookie names are **byte-identical** to the sequential oracle path
//!   (workers = 1), because mediation is fixed in phase 1 before any fetch,
//! * 8 sessions sharing one fabric + jar + engine leak nothing across sessions,
//! * page loads never reach the fetch pool: a bulk storm next to a navigating
//!   session, with its cost in origin latency or inside the handlers, adds
//!   zero pool jobs (every plan is a deadline window on its navigating
//!   thread),
//! * on the pool's lanes, which explicit-width batches ride, a navigation
//!   batch **preempts** a draining handler-bound bulk batch at a request
//!   boundary, and a continuous navigation-lane storm never **starves** the
//!   bulk lane (the anti-starvation credit), and
//! * speculative prefetch is **oracle-equivalent**: prefetch on vs off produces
//!   byte-identical mediation decisions, attachments and request logs.
//!
//! The worlds are built by `escudo_bench::loader` and `escudo_bench::scheduler`
//! — the same builders the `loader_concurrent` and `scheduler_concurrent` CI
//! gates drive — so the benches and these tests cannot silently diverge in
//! what they validate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use escudo::browser::Browser;
use escudo::core::{engine_for_mode, EscudoEngine, PolicyEngine, PolicyMode};
use escudo::net::{Priority, Request, Response, SharedCookieJar, SharedNetwork, Url};
use escudo_bench::loader::{register_loader_world, reverse_skewed_latency};
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
    let run = |workers: usize| {
        let fabric = skewed_fabric();
        let mut browser = browser_over(&fabric, workers);
        let mut attached: Vec<Vec<Vec<String>>> = Vec::new();
        for _ in 0..3 {
            let page = browser.navigate("http://site.example/index.php").unwrap();
            attached.push(
                browser
                    .page(page)
                    .subresources
                    .iter()
                    .map(|s| s.attached_cookies.clone())
                    .collect(),
            );
        }
        (fabric.log(), attached)
    };
    let (pipelined_log, pipelined_attached) = run(8);
    let (sequential_log, sequential_attached) = run(1);
    // Byte-identical logs (method, URL, cookie names, status — in order) and
    // identical per-subresource attachments: the transport cannot influence
    // mediation, and sequence reservation fixes the order.
    assert_eq!(pipelined_log, sequential_log);
    assert_eq!(pipelined_attached, sequential_attached);
}

#[test]
fn eight_sessions_sharing_one_fabric_stay_isolated() {
    let fabric = Arc::new(SharedNetwork::new());
    let engine = Arc::new(EscudoEngine::new());
    let jar = Arc::new(SharedCookieJar::new());
    const SESSIONS: usize = 8;
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

    thread::scope(|scope| {
        for t in 0..SESSIONS {
            let fabric = Arc::clone(&fabric);
            let engine: Arc<dyn PolicyEngine> = Arc::clone(&engine) as _;
            let jar = Arc::clone(&jar);
            scope.spawn(move || {
                let mut browser = Browser::with_network(engine, jar, fabric);
                browser.set_subresource_workers(4);
                for _ in 0..2 {
                    browser
                        .navigate(&format!("http://site{t}.example/index.php"))
                        .unwrap();
                }
            });
        }
    });

    // 8 sessions × 2 rounds × (1 page + IMAGES images), one shared log.
    let log = fabric.log();
    assert_eq!(log.len(), SESSIONS * 2 * (IMAGES + 1));
    for t in 0..SESSIONS {
        let own = format!("sid{t}");
        let site = format!("site{t}.example");
        let mut own_attached = 0usize;
        for entry in log.iter().filter(|e| e.url.host().ends_with(&site)) {
            for name in &entry.cookie_names {
                assert_eq!(
                    name,
                    &own,
                    "cookie {name} leaked onto session {t}'s host {}",
                    entry.url.host()
                );
            }
            own_attached += entry.cookie_names.len();
        }
        // Round 2's page and image requests all carry the session cookie stored
        // in round 1 (round 1's images attach it too — same-page store).
        assert!(own_attached >= IMAGES, "session {t} never attached {own}");
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

/// Dispatches `urls` as one explicit-width pool batch on `lane` and checks
/// that every slot came back 2xx with its own asset, in plan order.
fn pool_batch(fabric: &Arc<SharedNetwork>, urls: &[String], width: usize, lane: Priority) {
    let base = fabric.reserve_sequences(urls.len() as u64);
    let requests = urls.iter().map(|url| Request::get(url).unwrap()).collect();
    let results = fabric.dispatch_batch(base, requests, width, lane);
    assert_eq!(results.len(), urls.len());
    for (url, result) in urls.iter().zip(results) {
        let response = result.unwrap_or_else(|error| panic!("{url}: {error}"));
        assert!(response.status.is_success(), "{url}: {}", response.status.0);
        assert_eq!(
            response.body,
            format!("asset {}", Url::parse(url).unwrap().path())
        );
    }
}

/// Runs a bulk session looping `bulk_url` at 2 in-flight requests while a
/// navigating session loads `nav_url` at 8 for as long as `keep_navigating`
/// says. Every load of both sessions must succeed.
fn navigate_during_bulk_storm(
    fabric: &Arc<SharedNetwork>,
    bulk_url: &str,
    nav_url: &str,
    mut keep_navigating: impl FnMut() -> bool,
) {
    let engine = Arc::new(EscudoEngine::new());
    let jar = Arc::new(SharedCookieJar::new());
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let storm_fabric = Arc::clone(fabric);
        let storm_engine: Arc<dyn PolicyEngine> = Arc::clone(&engine) as _;
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
        let mut browser = Browser::with_network(
            Arc::clone(&engine) as _,
            Arc::clone(&jar),
            Arc::clone(fabric),
        );
        browser.set_subresource_workers(8);
        while keep_navigating() {
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

/// Runs a thread looping `bulk` as 2-wide bulk-lane batches (so one pool
/// worker drains most of each batch and has request boundaries to yield at)
/// while the caller dispatches `nav` as 8-wide navigation-lane batches for as
/// long as `keep_navigating` says. Every slot of both must succeed.
fn lane_batches_during_bulk_storm(
    fabric: &Arc<SharedNetwork>,
    bulk: &[String],
    nav: &[String],
    mut keep_navigating: impl FnMut() -> bool,
) {
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let stop = &stop;
        let storm = scope.spawn(move || {
            let mut batches = 0usize;
            while !stop.load(Ordering::Acquire) {
                pool_batch(fabric, bulk, 2, Priority::Bulk);
                batches += 1;
            }
            batches
        });
        while keep_navigating() {
            pool_batch(fabric, nav, 8, Priority::Navigation);
        }
        stop.store(true, Ordering::Release);
        assert!(storm.join().unwrap() > 0, "the storm never ran a batch");
    });
}

#[test]
fn a_navigation_preempts_a_draining_bulk_batch() {
    // Page loads never reach the pool: every subresource plan is a deadline
    // window on its own navigating thread. An image-heavy bulk storm next to
    // a navigation whose three critical subresources cost time too — first
    // with the cost in origin latency, then inside the handlers — adds zero
    // pool jobs, and every load of both sessions succeeds.
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
        let mut navigations = 0;
        navigate_during_bulk_storm(
            fabric,
            "http://bulk.example/index.php",
            NAV_PAGE_URL,
            || {
                navigations += 1;
                navigations <= 40
            },
        );
        assert_eq!(
            fabric.fetch_pool_jobs_executed(),
            0,
            "the storm reached the pool"
        );
        assert_eq!(
            fabric.fetch_pool_workers(),
            0,
            "a page load started a pool thread"
        );
    }

    // The pool's lanes serve explicit-width batches. A handler-bound bulk
    // storm keeps a pool worker draining while navigation batches over the
    // same handler-bound origins arrive: a bulk worker must park its ticket
    // for the queued navigation work — witnessed by the fabric's preemption
    // counter. Navigate until a bulk drain demonstrably yielded; the counter
    // is monotonic, so one observation settles it.
    let fabric = handler_bound;
    let deadline = Instant::now() + Duration::from_secs(10);
    lane_batches_during_bulk_storm(
        &fabric,
        &asset_urls("bulk.example", false),
        &asset_urls("nav.example", true),
        || fabric.fetch_pool_preemptions() == 0 && Instant::now() < deadline,
    );
    assert!(
        fabric.fetch_pool_preemptions() >= 1,
        "no bulk worker ever yielded to queued navigation work"
    );
}

#[test]
fn a_navigation_storm_never_starves_the_bulk_lane() {
    // The inverse pressure: a thread hammers the navigation lane with
    // handler-bound batches while 8-wide handler-bound bulk batches run on
    // the same pool. The anti-starvation credit (one lower-lane ticket per
    // NAVIGATION_CREDIT consecutive navigation pops) plus the
    // submitter-drains-its-own-batch rule mean the bulk batches complete,
    // correctly, in bounded time. Page loads never use the pool, so the
    // storm and the bulk work are explicit-width batches, the lanes' callers.
    let fabric = Arc::new(SharedNetwork::new());
    register_handler_bound_world(&fabric, "nav.example", true, Duration::from_micros(100));
    register_handler_bound_world(&fabric, "bulk.example", false, Duration::from_micros(300));
    let nav = asset_urls("nav.example", true);
    let bulk = asset_urls("bulk.example", false);
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let (fabric, nav, stop) = (&fabric, &nav, &stop);
        scope.spawn(move || {
            while !stop.load(Ordering::Acquire) {
                pool_batch(fabric, nav, 8, Priority::Navigation);
            }
        });
        for _ in 0..3 {
            pool_batch(fabric, &bulk, 8, Priority::Bulk);
        }
        stop.store(true, Ordering::Release);
    });
    assert!(
        fabric.fetch_pool_jobs_executed() > 0,
        "no batch ever reached the pool"
    );
}

#[test]
fn prefetch_on_and_off_are_oracle_equivalent() {
    // The scheduler bench's twin-fabric run: the same hub -> item navigation
    // sequence with speculation enabled vs disabled must leave byte-identical
    // sequence-sorted request logs (method, URL, cookie names, status) and
    // identical per-subresource attachments — prefetch may change *when* bytes
    // move, never what ESCUDO decides.
    let report = run_prefetch_oracle(3);
    assert_eq!(report.prefetch_hits, 3, "speculation never engaged");
    assert_eq!(
        report.log_mismatches, 0,
        "prefetch perturbed the request log"
    );
    assert_eq!(
        report.attachment_mismatches, 0,
        "prefetch changed a mediation outcome"
    );
}
