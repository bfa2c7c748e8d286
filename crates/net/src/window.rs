//! The deadline window: a pre-planned request batch dispatched on the calling
//! thread, with several requests in flight and none of them holding a thread
//! while it waits.
//!
//! Each request is split into *send* (`SharedNetwork::send`: breaker
//! admission, fault verdict, due time = now + latency + injected slowdown)
//! and *complete* (`SharedNetwork::complete`: sleep only while the due time
//! is still ahead, then one handler call and the log entry). The window keeps
//! at most `width` requests in flight overall and at most
//! [`MAX_IN_FLIGHT_PER_ORIGIN`] (6) to any one origin, and completes them in
//! due order; each completion, or each retry re-sent under its slot's
//! reserved sequence with a fresh due time, makes room for the next send.
//! Sends go out in plan order: when the next entry's origin is at its bound,
//! that entry and everything behind it wait for a completion (head-of-line).
//! A response still arrives no earlier than its send plus the origin's
//! latency, but waiting on many fetches costs one sleep on one thread, not
//! one thread per fetch. That sleep never ends before the earliest due time
//! and, once the waiting thread's timer slack is lowered (once, on its first
//! wait, where the OS allows it), ends within microseconds of it rather than
//! up to the default 50µs late.
//!
//! The window sends only while nothing in flight is due yet. A request that
//! is already due (an origin without latency) completes before the next
//! send, so a zero-latency plan dispatches in exact plan order — the order
//! the sequential oracle uses, down to each origin's fault-plan indices.
//!
//! Every fetch runs in a window: [`SharedNetwork::execute`] runs each stage
//! of a [`FetchPlan`](crate::fetch::FetchPlan) as one, and a navigation or
//! XHR is a width-1 window over one request. Bounded retries, breaker
//! admission and panic containment therefore live here once, for page plans,
//! background prefetch ([`crate::prefetch`]) and single requests alike.

use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::error::NetError;
use crate::fault::{BatchBudget, FetchPolicy};
use crate::message::{Request, Response};
use crate::shared_network::{InFlight, SharedNetwork};

/// Bound on the requests a window keeps in flight to any one origin: the
/// HTTP/1.1 per-host connection limit of Chrome and Firefox. The window's
/// overall `width` bounds the plan as a whole; this bounds each origin.
pub const MAX_IN_FLIGHT_PER_ORIGIN: usize = 6;

/// One slot's final outcome plus the retries that slot consumed. A response
/// comes back with the request it answers, so the caller can key a cache
/// entry by it without having copied the request's URL beforehand.
pub(crate) type SlotResult = (Result<(Response, Request), NetError>, u32);

/// An in-flight slot: its result position, its log sequence offset, the
/// retries it has consumed, and the request on the wire.
struct Slot {
    index: usize,
    offset: usize,
    retries: u32,
    flight: InFlight,
}

/// Runs `entries` — `(sequence offset, request)` pairs, logged under
/// `base + offset` (unlogged when `base` is `None`) — as a deadline window of
/// at most `width` in-flight requests overall and at most
/// [`MAX_IN_FLIGHT_PER_ORIGIN`] to any one origin, returning the outcomes in
/// entry order. All slots share one retry budget under `policy`.
///
/// Sends go out in plan order. A head whose origin is at its bound waits,
/// with the entries behind it, for the next completion (head-of-line); the
/// first such hold counts every entry still pending in
/// [`FabricCounters::window_origin_deferrals`](crate::FabricCounters::window_origin_deferrals).
///
/// A panic inside a handler, injected or real, fails its own slot with
/// [`NetError::FetchPanicked`] (a transient error, so a retry budget may
/// re-send it) and the window keeps going.
pub(crate) fn run_window(
    fabric: &SharedNetwork,
    base: Option<u64>,
    entries: Vec<(usize, Request)>,
    width: usize,
    policy: FetchPolicy,
) -> Vec<SlotResult> {
    let budget = (!policy.is_disabled()).then(|| BatchBudget::new(fabric, policy));
    let width = width.clamp(1, entries.len().max(1));
    let mut results: Vec<Option<SlotResult>> = (0..entries.len()).map(|_| None).collect();
    let mut pending = entries.into_iter().enumerate().peekable();
    let mut in_flight: Vec<Slot> = Vec::with_capacity(width);
    // Whether the window has been held at an origin bound yet.
    let mut held = false;
    loop {
        let earliest = in_flight
            .iter()
            .enumerate()
            .min_by_key(|(_, slot)| slot.flight.due)
            .map(|(position, slot)| (position, slot.flight.due));
        if in_flight.len() < width && earliest.is_none_or(|(_, due)| due > Instant::now()) {
            if let Some((_, (_, request))) = pending.peek() {
                let origin = request.url.origin();
                let to_origin = in_flight
                    .iter()
                    .filter(|slot| slot.flight.origin == origin)
                    .count();
                if to_origin < MAX_IN_FLIGHT_PER_ORIGIN {
                    let (index, (offset, request)) = pending.next().expect("peeked");
                    match fabric.send(request, origin, &policy) {
                        Ok(flight) => in_flight.push(Slot {
                            index,
                            offset,
                            retries: 0,
                            flight,
                        }),
                        Err(error) => results[index] = Some((Err(error), 0)),
                    }
                    continue;
                }
                // Everything still pending waits, head-of-line, at least
                // for this completion; later holds defer nothing new.
                if !held {
                    held = true;
                    fabric
                        .window_origin_deferrals
                        .fetch_add(pending.len() as u64, Ordering::Relaxed);
                }
            }
        }
        let Some((position, _)) = earliest else {
            break;
        };
        let slot = in_flight.swap_remove(position);
        let sequence = base.map(|base| base + slot.offset as u64);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fabric.complete(&slot.flight, sequence)
        }))
        .unwrap_or_else(|_| {
            let request = &slot.flight.request;
            Err(NetError::FetchPanicked(format!(
                "{} {} (origin `{}`)",
                request.method, request.url, slot.flight.origin
            )))
        });
        let Some(budget) = &budget else {
            results[slot.index] =
                Some((outcome.map(|response| (response, slot.flight.request)), 0));
            continue;
        };
        let error = match outcome {
            Ok(response) => {
                budget.record_success(fabric, &slot.flight.origin, slot.retries);
                results[slot.index] = Some((Ok((response, slot.flight.request)), slot.retries));
                continue;
            }
            Err(error) => error,
        };
        if let Err(error) = budget.grant_retry(fabric, &slot.flight.origin, slot.retries, error) {
            results[slot.index] = Some((Err(error), slot.retries));
            continue;
        }
        // The retry re-sends the already-mediated request verbatim, under the
        // slot's own sequence, with a fresh due time. It keeps the slot, and
        // so its place under the width and its origin's bound.
        let retries = slot.retries + 1;
        match fabric.send(slot.flight.request, slot.flight.origin, &policy) {
            Ok(flight) => in_flight.push(Slot {
                retries,
                flight,
                ..slot
            }),
            Err(error) => results[slot.index] = Some((Err(error), retries)),
        }
    }
    results
        .into_iter()
        .map(|result| result.expect("every window slot resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::FabricCounters;
    use escudo_core::Origin;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const REQUESTS: usize = 8;
    const LATENCY: Duration = Duration::from_millis(2);

    fn plan(origins: usize) -> Vec<Request> {
        (0..REQUESTS)
            .map(|i| Request::get(&format!("http://h{}.example/r{i}", i % origins)).unwrap())
            .collect()
    }

    /// A fabric of `origins` origins at `LATENCY` whose handlers record the
    /// instant of every call.
    fn timed_fabric(origins: usize) -> (SharedNetwork, Arc<Mutex<Vec<Instant>>>) {
        let fabric = SharedNetwork::new();
        let calls: Arc<Mutex<Vec<Instant>>> = Arc::default();
        for k in 0..origins {
            let origin = format!("http://h{k}.example");
            let calls = Arc::clone(&calls);
            fabric.register(&origin, move |req: &Request| {
                calls.lock().unwrap().push(Instant::now());
                Response::ok_text(req.url.path().to_string())
            });
            fabric.set_latency(&origin, LATENCY);
        }
        (fabric, calls)
    }

    #[test]
    fn each_handler_call_waits_its_rounds_of_latency() {
        for width in [1, 3, 4, 8] {
            let (fabric, calls) = timed_fabric(4);
            let entries = plan(4);
            let start = Instant::now();
            let results = fabric.run_plan(entries, width, &FetchPolicy::disabled());
            assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
            let calls = calls.lock().unwrap();
            assert_eq!(calls.len(), REQUESTS);
            for (k, call) in calls.iter().enumerate() {
                let rounds = u32::try_from(k / width + 1).unwrap();
                assert!(
                    *call >= start + LATENCY * rounds,
                    "width {width}: call {k} came {:?} after the start, before {rounds} rounds",
                    *call - start
                );
            }
        }
    }

    #[test]
    fn a_completion_refills_the_window_without_waiting_on_a_slow_slot() {
        let fabric = SharedNetwork::new();
        let calls: Arc<Mutex<Vec<(String, Instant)>>> = Arc::default();
        for (host, latency) in [("slow", 4), ("fast", 1)] {
            let origin = format!("http://{host}.example");
            let calls = Arc::clone(&calls);
            fabric.register(&origin, move |req: &Request| {
                calls
                    .lock()
                    .unwrap()
                    .push((req.url.path().to_string(), Instant::now()));
                Response::ok_text(req.url.path().to_string())
            });
            fabric.set_latency(&origin, Duration::from_millis(latency));
        }
        let entries = vec![
            Request::get("http://slow.example/slow").unwrap(),
            Request::get("http://fast.example/fast1").unwrap(),
            Request::get("http://fast.example/fast2").unwrap(),
        ];
        let start = Instant::now();
        let results = fabric.run_plan(entries, 2, &FetchPolicy::disabled());
        assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
        let calls = calls.lock().unwrap();
        let order: Vec<&str> = calls.iter().map(|(path, _)| path.as_str()).collect();
        assert_eq!(order, ["/fast1", "/fast2", "/slow"]);
        // The second fast request went out when the first completed: it paid
        // two fast rounds and was answered before the slow slot came due.
        let fast2 = calls[1].1 - start;
        assert!(fast2 >= Duration::from_millis(2), "fast2 after {fast2:?}");
        assert!(calls[1].1 < calls[2].1);
        assert!(calls[2].1 - start >= Duration::from_millis(4));
    }

    #[test]
    fn at_most_width_requests_are_ever_in_flight() {
        // In flight = sent and not yet completed. Fault plans count sends, so
        // each handler call sees how many requests were sent, and how many
        // completed before it: earlier calls plus injected panics. The
        // difference is the in-flight count, the call itself included. An
        // unbounded width over one origin leaves the per-origin bound. The
        // last input adds a slot whose origin panics on every attempt and is
        // retried once: containing the panic and re-sending it must not
        // widen the window.
        for (width, panicking) in [
            (1, false),
            (3, false),
            (4, false),
            (usize::MAX, false),
            (2, true),
        ] {
            let fabric = Arc::new(SharedNetwork::new());
            let h0 = Origin::parse_url("http://h0.example").unwrap();
            let boom = Origin::parse_url("http://boom.example").unwrap();
            let calls = Arc::new(AtomicUsize::new(0));
            let high_water = Arc::new(AtomicUsize::new(0));
            let handler = {
                let fabric = Arc::downgrade(&fabric);
                let calls = Arc::clone(&calls);
                let high_water = Arc::clone(&high_water);
                let (h0, boom) = (h0.clone(), boom.clone());
                move |req: &Request| {
                    let fabric = fabric.upgrade().unwrap();
                    let sent = fabric.fault_plan_sends(&h0) + fabric.fault_plan_sends(&boom);
                    let before = calls.fetch_add(1, Ordering::SeqCst) as u64;
                    let done = before + FabricCounters::gather(&fabric).fault_injected;
                    high_water.fetch_max(usize::try_from(sent - done).unwrap(), Ordering::SeqCst);
                    Response::ok_text(req.url.path().to_string())
                }
            };
            fabric.register("http://h0.example", handler);
            fabric.register("http://boom.example", |_req: &Request| -> Response {
                unreachable!("faulted before the handler")
            });
            // Long enough that no preemption between two sends lets the
            // first request come due before the window has filled.
            for origin in ["http://h0.example", "http://boom.example"] {
                fabric.set_latency(origin, Duration::from_millis(10));
            }
            fabric.inject_fault("http://h0.example", FaultPlan::new());
            fabric.inject_fault("http://boom.example", FaultPlan::new().panicking());
            let mut entries = plan(1);
            let mut policy = FetchPolicy::disabled();
            if panicking {
                entries.insert(1, Request::get("http://boom.example/b").unwrap());
                policy = policy.with_max_retries(1).with_backoff_base_ns(1_000);
            }
            let results = fabric.run_plan(entries, width, &policy);
            for (i, (outcome, retries)) in results.iter().enumerate() {
                if panicking && i == 1 {
                    assert!(matches!(outcome, Err(NetError::FetchPanicked(_))));
                    assert_eq!(*retries, 1, "the contained panic is retried once");
                } else {
                    assert!(outcome.is_ok(), "width {width}: slot {i}: {outcome:?}");
                }
            }
            assert_eq!(calls.load(Ordering::SeqCst), REQUESTS);
            assert_eq!(
                FabricCounters::gather(&fabric).fault_injected,
                if panicking { 2 } else { 0 }
            );
            assert_eq!(
                high_water.load(Ordering::SeqCst),
                width.min(MAX_IN_FLIGHT_PER_ORIGIN),
                "width {width}: the window must fill, and never overfill"
            );
        }
    }

    #[test]
    fn a_head_at_its_origin_bound_holds_back_the_plan() {
        // Plan [A x 7, B] at unbounded width: A's seventh request waits for
        // one of A's six to complete, and B, behind it in plan order, waits
        // with it (head-of-line), so every call still reads in plan order.
        let fabric = SharedNetwork::new();
        let calls: Arc<Mutex<Vec<(String, Instant)>>> = Arc::default();
        for host in ["a", "b"] {
            let origin = format!("http://{host}.example");
            let calls = Arc::clone(&calls);
            fabric.register(&origin, move |req: &Request| {
                calls
                    .lock()
                    .unwrap()
                    .push((req.url.to_string(), Instant::now()));
                Response::ok_text(req.url.path().to_string())
            });
            // Long enough that all first sends happen before any is due.
            fabric.set_latency(&origin, Duration::from_millis(10));
        }
        let mut entries: Vec<Request> = (0..7)
            .map(|i| Request::get(&format!("http://a.example/r{i}")).unwrap())
            .collect();
        entries.push(Request::get("http://b.example/r7").unwrap());
        let start = Instant::now();
        let results = fabric.run_plan(entries, usize::MAX, &FetchPolicy::disabled());
        assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
        let calls = calls.lock().unwrap();
        let urls: Vec<&str> = calls.iter().map(|(url, _)| url.as_str()).collect();
        let mut expected: Vec<String> = (0..7).map(|i| format!("http://a.example/r{i}")).collect();
        expected.push("http://b.example/r7".into());
        assert_eq!(urls, expected);
        // B went out only after A's first round completed.
        let b = calls[7].1 - start;
        assert!(b >= Duration::from_millis(20), "B answered after {b:?}");
        // A's seventh request and B, both held at A's bound.
        assert_eq!(FabricCounters::gather(&fabric).window_origin_deferrals, 2);
    }

    #[test]
    fn only_requests_held_at_the_origin_bound_count_as_deferred() {
        for (origins, deferred) in [(1, 2), (4, 0)] {
            let fabric = SharedNetwork::new();
            for k in 0..origins {
                let origin = format!("http://h{k}.example");
                fabric.register(&origin, |req: &Request| {
                    Response::ok_text(req.url.path().to_string())
                });
                // Long enough that all first sends happen before any is due.
                fabric.set_latency(&origin, Duration::from_millis(10));
            }
            let entries = plan(origins);
            let results = fabric.run_plan(entries, usize::MAX, &FetchPolicy::disabled());
            assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
            assert_eq!(
                FabricCounters::gather(&fabric).window_origin_deferrals,
                deferred,
                "{REQUESTS} requests over {origins} origin(s)"
            );
        }
    }

    #[test]
    fn results_and_the_sorted_log_read_in_plan_order() {
        // Reverse-skewed latencies: the first requests in plan order come due
        // last, so completion order is the reverse of plan order.
        let fabric = SharedNetwork::new();
        for k in 0..4u64 {
            let origin = format!("http://h{k}.example");
            fabric.register(&origin, |req: &Request| {
                Response::ok_text(req.url.path().to_string())
            });
            fabric.set_latency(&origin, Duration::from_micros(400 * (4 - k)));
        }
        let entries = plan(4);
        let results = fabric.run_plan(entries, 4, &FetchPolicy::disabled());
        for (i, (outcome, retries)) in results.iter().enumerate() {
            assert_eq!(outcome.as_ref().unwrap().body, format!("/r{i}"));
            assert_eq!(*retries, 0);
        }
        let paths: Vec<String> = fabric.log().iter().map(|e| e.url.path().into()).collect();
        let expected: Vec<String> = (0..REQUESTS).map(|i| format!("/r{i}")).collect();
        assert_eq!(paths, expected);
    }

    #[test]
    fn a_retried_slot_re_sends_under_its_reserved_sequence() {
        let (fabric, calls) = timed_fabric(4);
        // The first send to h1 (plan slot 1) times out; one retry heals it.
        fabric.inject_fault("http://h1.example", FaultPlan::new().fail_first(1));
        let entries = plan(4);
        let policy = FetchPolicy::default().with_max_retries(2);
        let start = Instant::now();
        let results = fabric.run_plan(entries, 4, &policy);
        let retries: Vec<u32> = results.iter().map(|(_, retries)| *retries).collect();
        assert_eq!(retries, vec![0, 1, 0, 0, 0, 0, 0, 0]);
        assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
        let counters = FabricCounters::gather(&fabric);
        assert_eq!(counters.fault_injected, 1);
        assert_eq!(counters.retry_attempts, 1);
        assert_eq!(counters.retry_successes, 1);
        // The timed-out attempt never reached a handler or the log; the
        // healed re-send logged under slot 1's own sequence, so the sorted
        // log still reads in plan order.
        assert_eq!(calls.lock().unwrap().len(), REQUESTS);
        let paths: Vec<String> = fabric.log().iter().map(|e| e.url.path().into()).collect();
        let expected: Vec<String> = (0..REQUESTS).map(|i| format!("/r{i}")).collect();
        assert_eq!(paths, expected);
        // The re-send waited a fresh round of latency after the timeout.
        assert!(start.elapsed() >= LATENCY * 2);
    }

    #[test]
    fn panics_fail_their_own_slot_and_the_window_goes_on() {
        let fabric = SharedNetwork::new();
        fabric.register("http://h0.example", |req: &Request| {
            Response::ok_text(req.url.path().to_string())
        });
        fabric.register("http://boom.example", |_req: &Request| -> Response {
            panic!("window handler exploded")
        });
        let entries = vec![
            Request::get("http://h0.example/a").unwrap(),
            Request::get("http://boom.example/b").unwrap(),
            Request::get("http://nowhere.example/c").unwrap(),
        ];
        let results = fabric.run_plan(entries, 2, &FetchPolicy::disabled());
        assert!(results[0].0.is_ok());
        assert!(matches!(results[1].0, Err(NetError::FetchPanicked(_))));
        assert!(matches!(results[2].0, Err(NetError::HostUnreachable(_))));
        assert_eq!(fabric.log_len(), 1);
    }
}
