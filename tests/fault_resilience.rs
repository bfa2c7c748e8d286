//! End-to-end guarantees of the fault-injection fabric and the resilient
//! fetch path:
//!
//! * a retry reuses the original mediation plan **verbatim** — the faulted
//!   run's request log, attached cookie names and reference-monitor counters
//!   are byte-identical to the fault-free oracle,
//! * the per-origin circuit breaker walks Closed → Open → HalfOpen → Closed
//!   on a [`ManualClock`], with exactly countable trips, fast-fails, probes
//!   and recoveries,
//! * an injected **panic** in the middle of a deadline window is contained
//!   to its own slot and retried within the session's budget, and the fabric
//!   serves the next window as before, and
//! * a subresource whose origin never heals **degrades** into its outcome's
//!   `error` field with the full retry budget spent — the page still loads,
//!   and
//! * a navigation or XHR to a panicking origin fails with an error under the
//!   default policy instead of unwinding the session.
//!
//! The oracle and breaker drills are `escudo_bench::fault`'s — the same code
//! the `fault_concurrent` CI gate drives — so the bench and these tests
//! cannot silently diverge in what they validate.

use std::sync::Arc;
use std::time::Duration;

use escudo::browser::{Browser, BrowserError, PolicyMode};
use escudo::core::ManualClock;
use escudo::net::{
    BreakerPhase, FaultPlan, FetchPlan, FetchPolicy, NetError, Request, Response, SharedNetwork,
};
use escudo_bench::fault::{run_breaker_drill, run_retry_oracle};
use escudo_bench::loader::register_loader_world;

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

#[test]
fn a_retry_reuses_the_mediation_plan_verbatim() {
    for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
        let oracle = run_retry_oracle(mode);
        assert!(
            oracle.logs_identical(),
            "{mode}: faulted run's request log diverged from the fault-free oracle"
        );
        assert!(
            oracle.attachments_identical(),
            "{mode}: faulted run attached different cookies"
        );
        assert_eq!(
            oracle.diff.mediation_mismatches, 0,
            "{mode}: retries re-mediated — check/denial counts moved"
        );
        assert_eq!(oracle.clean_retries, 0);
        assert!(oracle.faulted_retries > 0, "{mode}: no retry was exercised");
        assert_eq!(oracle.faulted_retries, oracle.faulted_faults);
    }
}

#[test]
fn the_breaker_walks_its_phases_on_a_manual_clock() {
    let fabric = SharedNetwork::new();
    let clock = Arc::new(ManualClock::new());
    fabric.set_clock(clock.clone());
    fabric.register("http://api.example", |_req: &Request| {
        Response::ok_text("pong")
    });
    let request = || Request::get("http://api.example/ping").unwrap();
    let origin = request().url.origin();
    let policy = FetchPolicy::disabled().with_breaker(2, 500_000_000);

    // No breaker exists until a breaker-carrying policy touches the origin.
    assert_eq!(fabric.breaker_phase(&origin), None);

    fabric.inject_fault("http://api.example", FaultPlan::new().timeout());
    assert!(fetch(&fabric, request(), &policy).is_err());
    assert_eq!(fabric.breaker_phase(&origin), Some(BreakerPhase::Closed));
    assert!(fetch(&fabric, request(), &policy).is_err());
    assert_eq!(fabric.breaker_phase(&origin), Some(BreakerPhase::Open));
    assert_eq!(fabric.breaker_trips(), 1);

    // Open: fail fast with the remaining cooldown, without dispatching.
    let faults_before = fabric.faults_injected();
    match fetch(&fabric, request(), &policy) {
        Err(NetError::CircuitOpen { cooldown_ns, .. }) => {
            assert_eq!(cooldown_ns, 500_000_000);
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert_eq!(fabric.faults_injected(), faults_before);
    assert_eq!(fabric.breaker_fast_fails(), 1);

    // Cooldown elapses on the manual clock; the healed probe re-closes it.
    clock.advance(Duration::from_millis(500));
    fabric.clear_fault("http://api.example");
    assert!(fetch(&fabric, request(), &policy).is_ok());
    assert_eq!(fabric.breaker_phase(&origin), Some(BreakerPhase::Closed));
    assert_eq!(fabric.breaker_probes(), 1);
    assert_eq!(fabric.breaker_recoveries(), 1);

    // The full drill (including a failed probe's re-open and the deadline
    // arithmetic) lands on its exact constants.
    assert!(run_breaker_drill().exact());
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

    let policy = FetchPolicy::disabled()
        .with_max_retries(1)
        .with_backoff_base_ns(1_000);
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
    browser.set_fetch_policy(
        FetchPolicy::disabled()
            .with_max_retries(2)
            .with_backoff_base_ns(1_000),
    );

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
