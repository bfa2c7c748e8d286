//! End-to-end guarantees of the fault-injection fabric and the resilient
//! fetch path:
//!
//! * the whole (app × attack × policy-mode) scenario matrix replayed under
//!   each chaos schedule keeps every verdict and every reference-monitor
//!   check and denial count of the fault-free matrix, with retries bounded
//!   by the faults that caused them,
//! * a retry reuses the original mediation plan **verbatim** — the faulted
//!   run's request log, attached cookie names and reference-monitor counters
//!   are byte-identical to the fault-free oracle,
//! * the per-origin circuit breaker walks Closed → Open → HalfOpen → Closed
//!   on a [`ManualClock`], admits one half-open probe at a time, and lands
//!   every breaker, retry-budget and deadline counter on an exact constant,
//! * an injected **panic** in the middle of a deadline window is contained
//!   to its own slot and retried within the session's budget, and the fabric
//!   serves the next window as before, and
//! * a subresource whose origin never heals **degrades** into its outcome's
//!   `error` field with the full retry budget spent — the page still loads,
//!   and
//! * a navigation or XHR to a panicking origin fails with an error under the
//!   default policy instead of unwinding the session.
//!
//! These tests are the fabric's fail-closed gates: no bench re-runs them.

use std::sync::Arc;
use std::time::Duration;

use escudo::apps::scenario::{MatrixReport, AD_SLOTS};
use escudo::apps::{AdServer, NewsSite};
use escudo::browser::{Browser, BrowserError, PolicyMode};
use escudo::core::ManualClock;
use escudo::net::{
    BreakerPhase, FabricCounters, FaultPlan, FetchPlan, FetchPolicy, NetError, Request, Response,
    SharedNetwork,
};
use escudo_bench::loader::register_loader_world;
use escudo_bench::oracle::{run_matrix_with_hook, Transcript, TranscriptDiff};

/// Runs `requests` as one logged, uncached plan of `width`, returning each
/// slot's outcome and retries.
fn run_plan(
    fabric: &SharedNetwork,
    requests: Vec<Request>,
    width: usize,
    policy: &FetchPolicy,
) -> Vec<(Result<Arc<Response>, NetError>, u32)> {
    fabric
        .execute(FetchPlan::new(requests, width, *policy))
        .into_iter()
        .map(|fetched| (fetched.outcome, fetched.retries))
        .collect()
}

/// Runs one request as a width-1 plan: the navigation and XHR shape.
fn fetch(
    fabric: &SharedNetwork,
    request: Request,
    policy: &FetchPolicy,
) -> Result<Arc<Response>, NetError> {
    run_plan(fabric, vec![request], 1, policy).remove(0).0
}

/// A retrying policy with a 1 µs virtual backoff base and no deadline.
fn retrying(max_retries: u32) -> FetchPolicy {
    FetchPolicy::disabled()
        .with_max_retries(max_retries)
        .with_backoff_base_ns(1_000)
}

/// A chaos schedule: a name, the retry policy every staged session runs under
/// and the fault plan built fresh for each of its origins (a plan owns its
/// replay counter).
type ChaosSchedule = (&'static str, FetchPolicy, fn() -> FaultPlan);

/// The chaos schedules. Each plan's failures fit inside its policy's retry
/// budget, so an unmasked failure would surface as a changed verdict.
fn schedules() -> [ChaosSchedule; 3] {
    [
        // Every origin's first two dispatches time out; three retries mask it.
        ("fail_first", retrying(3), || FaultPlan::new().fail_first(2)),
        // Every third dispatch per origin times out; one retry always lands
        // on a clean index.
        ("every_third", retrying(2), || FaultPlan::new().every_nth(3)),
        // A latency tax on every dispatch plus one leading timeout: slowdowns
        // and failures are accounted separately.
        ("slow_blip", retrying(2), || {
            FaultPlan::new().slow_by(10_000).fail_first(1)
        }),
    ]
}

/// Every origin a registry scenario registers a server on. A plan installed
/// on an origin a scenario never touches stays dormant.
fn matrix_origins() -> Vec<String> {
    let mut origins: Vec<String> = [
        "http://forum.example",
        "http://calendar.example",
        "http://blog.example",
        "http://spa.example",
        "http://vault.example",
        "http://news.example",
        "http://evil.example",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    origins.extend((0..AD_SLOTS).map(NewsSite::ad_origin));
    origins
}

#[test]
fn every_chaos_schedule_keeps_the_fault_free_matrix() {
    let baseline = MatrixReport::run_registry();
    assert!(baseline.unexpected().is_empty());
    for (name, policy, plan) in schedules() {
        let origins = matrix_origins();
        let (report, fabrics) = run_matrix_with_hook(move |browser: &mut Browser| {
            browser.set_fetch_policy(policy);
            for origin in &origins {
                browser.fabric().inject_fault(origin, plan());
            }
        });

        // Chaos may move bytes in time, never a security decision.
        assert!(
            report.unexpected().is_empty(),
            "{name}: cells changed verdict: {:#?}",
            report.unexpected()
        );
        for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
            let counts = |r: &MatrixReport| {
                (
                    r.successes(mode),
                    r.neutralized(mode),
                    r.total_checks(mode),
                    r.total_denials(mode),
                )
            };
            assert_eq!(
                counts(&report),
                counts(&baseline),
                "{name} under {mode}: verdict or mediation counts moved"
            );
        }

        // Every retry is caused by a fault; nothing hits a deadline or a
        // breaker, because the schedules run breaker-less without deadlines.
        let total = |counter: fn(&FabricCounters) -> u64| -> u64 {
            fabrics
                .iter()
                .map(|fabric| counter(&FabricCounters::gather(fabric)))
                .sum()
        };
        let faults = total(|c| c.fault_injected);
        let retries = total(|c| c.retry_attempts);
        assert!(faults > 0 && retries > 0, "{name}: chaos never engaged");
        assert!(
            retries <= faults,
            "{name}: {retries} retries for {faults} faults"
        );
        assert_eq!(total(|c| c.retry_deadline_exhausted), 0, "{name}");
        assert_eq!(total(|c| c.breaker_fast_fails), 0, "{name}");
    }
}

/// Stages the ad-network session (victim login, then the front page) and
/// returns its transcript with the fabric's retries and injected faults.
/// Under `chaos` every ad origin's first dispatch and every second dispatch
/// to the news site time out, so the retried requests include the front
/// page's, which carries the victim's session cookie. Two retries are
/// allowed, with no deadline, so the outcome does not depend on how fast the
/// host stages the page.
fn ad_network_session(mode: PolicyMode, chaos: bool) -> (Transcript, u64, u64) {
    let mut browser = Browser::new(mode);
    let fabric = Arc::clone(browser.fabric());
    let ad_origins: Vec<String> = (0..AD_SLOTS).map(NewsSite::ad_origin).collect();
    for origin in &ad_origins {
        fabric.register(origin, AdServer::new());
    }
    fabric.register("http://news.example", NewsSite::new(AD_SLOTS));
    if chaos {
        browser.set_fetch_policy(retrying(2));
        for origin in &ad_origins {
            fabric.inject_fault(origin, FaultPlan::new().fail_first(1));
        }
        fabric.inject_fault("http://news.example", FaultPlan::new().every_nth(2));
    }
    let transcript = Transcript::record(
        &mut browser,
        [
            "http://news.example/login?user=victim",
            "http://news.example/",
        ],
    );
    (
        transcript,
        FabricCounters::gather(&fabric).retry_attempts,
        FabricCounters::gather(&fabric).fault_injected,
    )
}

#[test]
fn a_retry_reuses_the_mediation_plan_verbatim() {
    for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
        let (clean, clean_retries, _) = ad_network_session(mode, false);
        let (faulted, retries, faults) = ad_network_session(mode, true);
        // Identical logs (method, URL, cookie names, status), attachments in
        // plan order and check/denial counts: a retry never re-mediates and a
        // faulted attempt is never logged.
        assert_eq!(
            faulted.diff(&clean),
            TranscriptDiff {
                requests: clean.log.len(),
                ..TranscriptDiff::default()
            },
            "{mode}: the faulted run diverged from the fault-free oracle"
        );
        assert_eq!(clean_retries, 0);
        assert!(retries > 0, "{mode}: no retry was exercised");
        assert_eq!(retries, faults, "{mode}: one retry per fault");
    }
}

#[test]
fn the_breaker_walks_its_phases_on_a_manual_clock() {
    // One fabric on a manual clock: no wall time enters the cooldown, backoff
    // or deadline arithmetic, so every counter below is a constant.
    let fabric = SharedNetwork::new();
    let clock = Arc::new(ManualClock::new());
    fabric.set_clock(clock.clone());
    for origin in [
        "http://flaky.example",
        "http://retry.example",
        "http://deadline.example",
    ] {
        fabric.register(origin, |req: &Request| {
            Response::ok_text(format!("pong {}", req.url.path()))
        });
    }
    let ping = || Request::get("http://flaky.example/ping").unwrap();
    let origin = ping().url.origin();
    let breaker = FetchPolicy::disabled().with_breaker(3, 1_000_000_000);

    // No breaker exists until a breaker-carrying policy touches the origin.
    assert_eq!(fabric.breaker_phase(&origin), None);

    // Closed → Open: three consecutive timeouts trip it.
    fabric.inject_fault("http://flaky.example", FaultPlan::new().timeout());
    for _ in 0..2 {
        assert!(fetch(&fabric, ping(), &breaker).is_err());
        assert_eq!(fabric.breaker_phase(&origin), Some(BreakerPhase::Closed));
    }
    assert!(fetch(&fabric, ping(), &breaker).is_err());
    assert_eq!(fabric.breaker_phase(&origin), Some(BreakerPhase::Open));

    // Open: fail fast with the remaining cooldown, without dispatching.
    for _ in 0..2 {
        match fetch(&fabric, ping(), &breaker) {
            Err(NetError::CircuitOpen { cooldown_ns, .. }) => {
                assert_eq!(cooldown_ns, 1_000_000_000);
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
    }
    assert_eq!(
        FabricCounters::gather(&fabric).fault_injected,
        3,
        "fast-fails never dispatch"
    );

    // HalfOpen → Closed: the cooldown elapses on the manual clock and the
    // origin heals. Of two requests sent together, only the first is the
    // probe; the second fails fast, and the probe re-closes the breaker. The
    // window sends the second before completing the first unless the first
    // is already due, so the latency is far above any scheduling delay.
    clock.advance(Duration::from_secs(1));
    fabric.clear_fault("http://flaky.example");
    fabric.set_latency("http://flaky.example", Duration::from_millis(100));
    let probes = run_plan(&fabric, vec![ping(), ping()], 2, &breaker);
    assert!(probes[0].0.is_ok(), "the probe failed: {:?}", probes[0].0);
    assert!(
        matches!(probes[1].0, Err(NetError::CircuitOpen { .. })),
        "a second half-open request was admitted: {:?}",
        probes[1].0
    );
    assert_eq!(fabric.breaker_phase(&origin), Some(BreakerPhase::Closed));

    // Retry budget: two leading timeouts, two retries, then success.
    fabric.inject_fault("http://retry.example", FaultPlan::new().fail_first(2));
    let request = Request::get("http://retry.example/r").unwrap();
    assert!(fetch(&fabric, request, &retrying(2)).is_ok());

    // Deadline: a 1 µs backoff fits under the 3 µs deadline (one retry
    // granted); 1 + 2 µs reaches it (refused).
    fabric.inject_fault("http://deadline.example", FaultPlan::new().timeout());
    let request = Request::get("http://deadline.example/d").unwrap();
    assert!(fetch(&fabric, request, &retrying(5).with_deadline_ns(3_000)).is_err());

    let counters = FabricCounters::gather(&fabric);
    assert_eq!(counters.breaker_trips, 1);
    assert_eq!(counters.breaker_fast_fails, 3);
    assert_eq!(counters.breaker_probes, 1);
    assert_eq!(counters.breaker_recoveries, 1);
    assert_eq!(counters.retry_attempts, 3);
    assert_eq!(counters.retry_successes, 1);
    assert_eq!(counters.retry_deadline_exhausted, 1);
    assert_eq!(counters.fault_injected, 7);
}

#[test]
fn a_panic_mid_batch_is_contained_released_and_width_bounded() {
    // The in-flight bound under a panicking, retried slot is checked by
    // `window::tests::at_most_width_requests_are_ever_in_flight`; here the
    // panic must stay in its slot and leave the fabric serving.
    let fabric = Arc::new(SharedNetwork::new());
    fabric.register("http://ok.example", |req: &Request| {
        Response::ok_text(format!("ok {}", req.url.path()))
    });
    fabric.register("http://boom.example", |_req: &Request| {
        unreachable!("faulted before the handler")
    });
    fabric.inject_fault("http://boom.example", FaultPlan::new().panicking());

    let policy = retrying(1);
    let entries: Vec<Request> = (0..6)
        .map(|i| {
            let host = if i % 3 == 1 { "boom" } else { "ok" };
            Request::get(&format!("http://{host}.example/r{i}")).unwrap()
        })
        .collect();
    let results = run_plan(&fabric, entries, 2, &policy);

    for (i, (outcome, retries)) in results.iter().enumerate() {
        if i % 3 == 1 {
            assert!(
                matches!(outcome, Err(NetError::FetchPanicked { .. })),
                "slot {i}: expected a contained panic, got {outcome:?}"
            );
            assert_eq!(
                *retries, 1,
                "slot {i}: the panic is transient — one retry owed"
            );
        } else {
            assert!(
                outcome.is_ok(),
                "slot {i}: healthy slot failed: {outcome:?}"
            );
            assert_eq!(*retries, 0);
        }
    }

    // The fabric survived: a follow-up window over the same origin drains.
    let follow_up: Vec<Request> = (0..4)
        .map(|i| Request::get(&format!("http://ok.example/again{i}")).unwrap())
        .collect();
    let results = run_plan(&fabric, follow_up, 2, &FetchPolicy::disabled());
    assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
}

#[test]
fn an_unhealed_subresource_degrades_into_its_outcome_with_the_budget_spent() {
    let fabric = Arc::new(SharedNetwork::new());
    register_loader_world(&fabric, "site.example", "sid", 4, 2, |_| Duration::ZERO);
    fabric.inject_fault("http://img0.site.example", FaultPlan::new().timeout());

    let mut browser = Browser::with_network(
        escudo::core::engine_for_mode(PolicyMode::Escudo),
        Arc::new(escudo::net::SharedCookieJar::new()),
        Arc::clone(&fabric),
    );
    browser.set_fetch_policy(retrying(2));

    let page = browser.navigate("http://site.example/index.php").unwrap();
    let page = browser.page(page);
    assert_eq!(page.subresources.len(), 4);
    for outcome in &page.subresources {
        if outcome.url.origin().to_string().contains("img0") {
            let error = outcome.error.as_deref().expect("faulted slot must degrade");
            assert!(error.contains("timed out"), "unexpected error: {error}");
            assert_eq!(outcome.status, None);
            assert_eq!(outcome.retries, 2, "the whole retry budget must be spent");
        } else {
            assert!(outcome.succeeded(), "healthy origin failed: {outcome:?}");
            assert_eq!(outcome.retries, 0);
        }
    }
    // Faulted dispatches are never logged: the log holds only the page fetch
    // and the two healthy images.
    assert_eq!(fabric.log().len(), 3);
}

#[test]
fn a_panicking_origin_fails_its_navigation_and_xhr_without_unwinding() {
    let fabric = Arc::new(SharedNetwork::new());
    fabric.register("http://ok.example", |_req: &Request| {
        Response::ok_html("<html><body>fine</body></html>")
    });
    fabric.register("http://planned.example", |_req: &Request| -> Response {
        unreachable!("faulted before the handler")
    });
    fabric.inject_fault("http://planned.example", FaultPlan::new().panicking());
    fabric.register("http://boom.example", |_req: &Request| -> Response {
        panic!("navigation handler exploded")
    });
    fabric.register("http://xhr.example", |req: &Request| match req.url.path() {
        "/page.php" => Response::ok_html(
            "<html><body><script>var x = new XMLHttpRequest(); \
             x.open('GET', '/boom'); x.send(); x.status;</script></body></html>",
        ),
        _ => panic!("xhr handler exploded"),
    });
    let mut browser = Browser::with_network(
        escudo::core::engine_for_mode(PolicyMode::Escudo),
        Arc::new(escudo::net::SharedCookieJar::new()),
        Arc::clone(&fabric),
    );
    assert_eq!(browser.fetch_policy(), FetchPolicy::disabled());

    // An injected panic and a real one: each fails its navigation, and the
    // session goes on to load a healthy origin.
    for url in ["http://planned.example/", "http://boom.example/"] {
        match browser.navigate(url) {
            Err(BrowserError::Net(NetError::FetchPanicked(_))) => {}
            other => panic!("{url}: expected a contained panic, got {other:?}"),
        }
        browser.navigate("http://ok.example/").unwrap();
    }

    // An XHR to a panicking handler fails the script, not the session.
    let page = browser.navigate("http://xhr.example/page.php").unwrap();
    let outcome = &browser.page(page).script_outcomes[0];
    let error = outcome.result.as_ref().unwrap_err();
    assert!(
        error.contains("origin handler panicked"),
        "unexpected XHR error: {error}"
    );
    browser.navigate("http://ok.example/").unwrap();
}
