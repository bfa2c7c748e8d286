//! Deterministic fault injection and the resilient fetch path built on top
//! of it: retries, deadlines and per-origin circuit breakers.
//!
//! ESCUDO's promise is that enforcement is *fail-closed*: partial failure may
//! degrade availability, never protection. To test that promise the fabric
//! must be able to fail on demand — deterministically, so a chaos run replays
//! exactly. This module provides both halves:
//!
//! * **Fault plans.** [`SharedNetwork::inject_fault`] installs a per-origin
//!   [`FaultPlan`] composed of [`FaultSchedule`]s — `FailFirst(n)`,
//!   `EveryNth(k)`, `SlowBy(ns)`, `Panic`, `Timeout`. Each origin carries one
//!   atomic dispatch counter; schedule evaluation is a pure function of that
//!   counter's value, so two runs with the same plan fault the same
//!   dispatches in the same order. Faulted dispatches return
//!   [`NetError::Timeout`] (or panic, contained per-slot on the batch paths)
//!   and are **excluded from the handler-time EWMA** so injected slowness
//!   cannot poison the fabric's service-time estimate.
//! * **Fetch policy.** A [`FetchPolicy`] turns bare dispatches into a
//!   resilient loop: bounded retries with deterministic exponential backoff
//!   metered against the fabric's injectable [`Clock`] (the backoff is
//!   *virtual* — accounted, never slept — so retry and deadline counts are
//!   exactly testable under a [`ManualClock`](escudo_core::ManualClock)), a
//!   per-batch deadline budget, and a per-origin circuit breaker
//!   (Closed → Open → HalfOpen with cooldown). A retry re-sends the request
//!   **verbatim**: the original mediation plan, decided by exactly one engine
//!   generation, is reused byte-for-byte — resilience never re-mediates, and
//!   denied or throttled plans are never retried because a denial is not an
//!   error, it is the monitor working.
//!
//! The failed attempts themselves are never logged (there is no response to
//! record, matching unreachable dispatches), and a successful retry logs
//! under the request's originally reserved sequence number — so the
//! sequence-sorted log of a faulted run is oracle-identical to the fault-free
//! run's.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use escudo_core::{Clock, Origin};

use crate::error::NetError;
use crate::message::{Request, Response};
use crate::shared_network::SharedNetwork;
use crate::window::run_window;

/// One deterministic fault rule, evaluated against the origin's 0-based
/// dispatch index. Rules compose inside a [`FaultPlan`]; when several rules
/// fire on the same dispatch, `Panic` outranks `Timeout` and slowdowns
/// accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Time out the first `n` dispatches to the origin, then heal.
    FailFirst(u64),
    /// Time out every `k`-th dispatch (the k-th, 2k-th, …; `0` never fires).
    EveryNth(u64),
    /// Add a synthetic slowdown of this many nanoseconds to every dispatch
    /// (waited on like configured latency, outside all locks, but
    /// **excluded** from the handler-time EWMA).
    SlowBy(u64),
    /// Panic inside every dispatch, before the origin's handler runs (so the
    /// handler mutex is never poisoned and the origin can heal when the plan
    /// is cleared). Contained per-slot on the batch paths.
    Panic,
    /// Time out every dispatch.
    Timeout,
}

/// What a dispatch does once its origin's fault plan has been consulted.
/// `Proceed` with `slow_ns == 0` is the clean case — and the only case that
/// feeds the handler-time EWMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultOutcome {
    /// Dispatch normally.
    Proceed,
    /// Fail this dispatch with [`NetError::Timeout`].
    Timeout,
    /// Panic inside this dispatch (contained per-slot on batch paths).
    Panic,
}

/// The evaluated verdict for one dispatch: accumulated synthetic slowdown
/// plus the most severe outcome any schedule demanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// Synthetic slowdown to sleep on top of the origin's configured latency.
    pub slow_ns: u64,
    /// Whether the dispatch proceeds, times out or panics.
    pub outcome: FaultOutcome,
}

impl Default for FaultDecision {
    fn default() -> Self {
        FaultDecision {
            slow_ns: 0,
            outcome: FaultOutcome::Proceed,
        }
    }
}

impl FaultDecision {
    /// `true` when no schedule touched this dispatch — only clean dispatches
    /// feed the handler-time EWMA.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.slow_ns == 0 && self.outcome == FaultOutcome::Proceed
    }
}

/// A composition of [`FaultSchedule`]s installed on one origin. Evaluation is
/// a pure function of the origin's dispatch index, so runs replay exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    schedules: Vec<FaultSchedule>,
}

impl FaultPlan {
    /// An empty plan (no schedules; every dispatch proceeds cleanly).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary schedule to the plan.
    #[must_use]
    pub fn with(mut self, schedule: FaultSchedule) -> Self {
        self.schedules.push(schedule);
        self
    }

    /// Adds [`FaultSchedule::FailFirst`]`(n)`.
    #[must_use]
    pub fn fail_first(self, n: u64) -> Self {
        self.with(FaultSchedule::FailFirst(n))
    }

    /// Adds [`FaultSchedule::EveryNth`]`(k)`.
    #[must_use]
    pub fn every_nth(self, k: u64) -> Self {
        self.with(FaultSchedule::EveryNth(k))
    }

    /// Adds [`FaultSchedule::SlowBy`]`(ns)`.
    #[must_use]
    pub fn slow_by(self, ns: u64) -> Self {
        self.with(FaultSchedule::SlowBy(ns))
    }

    /// Adds [`FaultSchedule::Panic`].
    #[must_use]
    pub fn panicking(self) -> Self {
        self.with(FaultSchedule::Panic)
    }

    /// Adds [`FaultSchedule::Timeout`].
    #[must_use]
    pub fn timeout(self) -> Self {
        self.with(FaultSchedule::Timeout)
    }

    /// The composed schedules, in installation order.
    #[must_use]
    pub fn schedules(&self) -> &[FaultSchedule] {
        &self.schedules
    }

    /// Evaluates the plan against the 0-based dispatch index — a pure
    /// function, so the same (plan, index) always yields the same decision.
    #[must_use]
    pub fn decide(&self, index: u64) -> FaultDecision {
        let mut decision = FaultDecision::default();
        for schedule in &self.schedules {
            match *schedule {
                FaultSchedule::FailFirst(n) => {
                    if index < n {
                        decision.outcome = decision.outcome.max(FaultOutcome::Timeout);
                    }
                }
                FaultSchedule::EveryNth(k) => {
                    if k > 0 && (index + 1).is_multiple_of(k) {
                        decision.outcome = decision.outcome.max(FaultOutcome::Timeout);
                    }
                }
                FaultSchedule::SlowBy(ns) => {
                    decision.slow_ns = decision.slow_ns.saturating_add(ns);
                }
                FaultSchedule::Panic => {
                    decision.outcome = FaultOutcome::Panic;
                }
                FaultSchedule::Timeout => {
                    decision.outcome = decision.outcome.max(FaultOutcome::Timeout);
                }
            }
        }
        decision
    }
}

/// One origin's installed plan plus its atomic dispatch counter — the whole
/// of the fault layer's per-origin state, so replay only needs the plan.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    counter: AtomicU64,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            counter: AtomicU64::new(0),
        }
    }

    /// Claims the next dispatch index and evaluates the plan against it.
    fn next_decision(&self) -> FaultDecision {
        let index = self.counter.fetch_add(1, Ordering::Relaxed);
        self.plan.decide(index)
    }
}

/// The resilience knobs a caller threads through `dispatch_with_policy` /
/// `dispatch_batch_with_policy`. The default policy is **disabled** — zero
/// retries, no breaker — and byte-identical to the bare dispatch path, so
/// existing callers pay nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchPolicy {
    /// Retries allowed per request on top of the first attempt (transient
    /// failures only: injected timeouts and contained panics; a missing
    /// server or an open breaker is never retried).
    pub max_retries: u32,
    /// First virtual backoff in nanoseconds; retry *r* backs off
    /// `base << r`. The backoff is metered against the fabric clock and the
    /// batch deadline, never slept.
    pub backoff_base_ns: u64,
    /// Per-batch deadline in nanoseconds (0 = none): once elapsed time plus
    /// accounted virtual backoff reaches it, no further retries are granted.
    pub deadline_ns: u64,
    /// Consecutive transient failures that trip the origin's breaker open
    /// (0 disables the breaker entirely).
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before admitting one half-open
    /// probe, in nanoseconds on the fabric clock.
    pub breaker_cooldown_ns: u64,
}

impl FetchPolicy {
    /// The disabled policy: no retries, no breaker — bare dispatch semantics.
    #[must_use]
    pub fn disabled() -> Self {
        FetchPolicy::default()
    }

    /// A sensible resilient preset: 2 retries, 1ms base backoff, 250ms
    /// deadline, breaker off.
    #[must_use]
    pub fn resilient() -> Self {
        FetchPolicy {
            max_retries: 2,
            backoff_base_ns: 1_000_000,
            deadline_ns: 250_000_000,
            breaker_threshold: 0,
            breaker_cooldown_ns: 0,
        }
    }

    /// Sets the retry bound.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the base virtual backoff.
    #[must_use]
    pub fn with_backoff_base_ns(mut self, backoff_base_ns: u64) -> Self {
        self.backoff_base_ns = backoff_base_ns;
        self
    }

    /// Sets the per-batch deadline.
    #[must_use]
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = deadline_ns;
        self
    }

    /// Enables the per-origin circuit breaker.
    #[must_use]
    pub fn with_breaker(mut self, threshold: u32, cooldown_ns: u64) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown_ns = cooldown_ns;
        self
    }

    /// `true` when the policy changes nothing about a bare dispatch — the
    /// fast path skips the resilient loop (and its request clone) entirely.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.max_retries == 0 && self.breaker_threshold == 0
    }

    /// Virtual backoff owed after `completed_retries` retries: `base << r`,
    /// saturating.
    pub(crate) fn backoff_ns(&self, completed_retries: u32) -> u64 {
        if self.backoff_base_ns == 0 {
            return 0;
        }
        let shift = completed_retries.min(20);
        self.backoff_base_ns.saturating_mul(1u64 << shift)
    }
}

/// The circuit-breaker state machine phase for one origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Dispatches flow; consecutive transient failures are counted.
    Closed,
    /// Dispatches fail fast with [`NetError::CircuitOpen`] until the cooldown
    /// elapses on the fabric clock.
    Open,
    /// One probe is in flight; its outcome closes or re-opens the breaker.
    /// Concurrent callers fail fast rather than pile onto a sick origin.
    HalfOpen,
}

/// One origin's circuit breaker. The mutex is held only for the state
/// transition — never across a dispatch.
#[derive(Debug)]
pub(crate) struct Breaker {
    inner: Mutex<BreakerInner>,
}

#[derive(Debug)]
struct BreakerInner {
    phase: BreakerPhase,
    opened_at_ns: u64,
    consecutive_failures: u32,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            inner: Mutex::new(BreakerInner {
                phase: BreakerPhase::Closed,
                opened_at_ns: 0,
                consecutive_failures: 0,
            }),
        }
    }
}

/// The fabric-wide chaos observability counters, all monotonic. Surfaced in
/// `ControlPlaneSnapshot` (and therefore the bench reports) as `cp_fault_*`,
/// `cp_retry_*` and `cp_breaker_*` keys.
#[derive(Debug, Default)]
pub(crate) struct ChaosCounters {
    pub(crate) faults_injected: AtomicU64,
    pub(crate) fault_slowdowns: AtomicU64,
    pub(crate) retry_attempts: AtomicU64,
    pub(crate) retry_successes: AtomicU64,
    pub(crate) retry_deadline_exhausted: AtomicU64,
    pub(crate) breaker_trips: AtomicU64,
    pub(crate) breaker_probes: AtomicU64,
    pub(crate) breaker_recoveries: AtomicU64,
    pub(crate) breaker_fast_fails: AtomicU64,
}

/// One batch's shared retry budget: the policy, the batch's start instant on
/// the fabric clock, and the virtual backoff accounted so far across all of
/// the batch's slots.
#[derive(Debug)]
pub(crate) struct BatchBudget {
    pub(crate) policy: FetchPolicy,
    started_ns: u64,
    virtual_backoff_ns: AtomicU64,
}

impl BatchBudget {
    pub(crate) fn new(fabric: &SharedNetwork, policy: FetchPolicy) -> Self {
        BatchBudget {
            policy,
            started_ns: fabric.clock_now_ns(),
            virtual_backoff_ns: AtomicU64::new(0),
        }
    }

    /// Records a slot's successful attempt: closes the origin's breaker and
    /// counts a retry success when the slot needed retries to get there.
    pub(crate) fn record_success(&self, fabric: &SharedNetwork, origin: &Origin, retries: u32) {
        fabric.breaker_record(origin, &self.policy, true);
        if retries > 0 {
            fabric
                .chaos()
                .retry_successes
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Judges a slot's failed attempt after `retries` retries: `Ok(())`
    /// grants (and counts) one more attempt, `Err` hands back the final
    /// error. Only transient errors are retried, at most `max_retries` times,
    /// and only while the batch deadline has room for the slot's virtual
    /// backoff. The caller re-sends the request **verbatim** — same URL,
    /// same mediated `Cookie` header, same reserved sequence number — so a
    /// retry can never widen what the reference monitor already decided, and
    /// the sequence-sorted log stays oracle-identical (failed attempts are
    /// unlogged; the eventual success logs under the original sequence).
    pub(crate) fn grant_retry(
        &self,
        fabric: &SharedNetwork,
        origin: &Origin,
        retries: u32,
        error: NetError,
    ) -> Result<(), NetError> {
        let policy = &self.policy;
        if !error.is_transient() {
            // A missing server or an open breaker is a fact, not a blip — and
            // a denial never even reaches here, because a denied plan
            // dispatches (cookie-less) successfully: the monitor's "no" is
            // not an error to retry around.
            return Err(error);
        }
        fabric.breaker_record(origin, policy, false);
        if retries >= policy.max_retries {
            return Err(error);
        }
        // Deterministic virtual backoff: accounted against the batch deadline
        // on the fabric clock, never slept — under a ManualClock the whole
        // retry schedule is exactly countable.
        let backoff = policy.backoff_ns(retries);
        let owed = self
            .virtual_backoff_ns
            .fetch_add(backoff, Ordering::Relaxed)
            .saturating_add(backoff);
        let spent = fabric.clock_now_ns().saturating_sub(self.started_ns);
        if policy.deadline_ns > 0 && spent.saturating_add(owed) >= policy.deadline_ns {
            fabric
                .chaos()
                .retry_deadline_exhausted
                .fetch_add(1, Ordering::Relaxed);
            return Err(error);
        }
        fabric
            .chaos()
            .retry_attempts
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl SharedNetwork {
    /// Installs (or replaces) the fault plan for an origin given as a URL
    /// string. Installation is independent of server registration — a plan
    /// may be installed before the origin exists — and replacing a plan
    /// resets the origin's dispatch counter, so each installed plan replays
    /// from index 0.
    ///
    /// # Panics
    ///
    /// Panics if `origin_url` cannot be parsed — fault injection is harness
    /// configuration with literal URLs, so a parse failure is a setup bug.
    pub fn inject_fault(&self, origin_url: &str, plan: FaultPlan) {
        let origin =
            Origin::parse_url(origin_url).expect("fault injection requires a valid origin URL");
        self.inject_fault_origin(origin, plan);
    }

    /// Installs (or replaces) the fault plan for an already-parsed origin.
    pub fn inject_fault_origin(&self, origin: Origin, plan: FaultPlan) {
        self.faults
            .write()
            .expect("fault plan map lock")
            .insert(origin, Arc::new(FaultState::new(plan)));
    }

    /// Removes the fault plan for an origin (no-op when none is installed).
    pub fn clear_fault(&self, origin_url: &str) {
        let origin =
            Origin::parse_url(origin_url).expect("fault injection requires a valid origin URL");
        self.faults
            .write()
            .expect("fault plan map lock")
            .remove(&origin);
    }

    /// Removes every installed fault plan.
    pub fn clear_faults(&self) {
        self.faults.write().expect("fault plan map lock").clear();
    }

    /// The installed fault plan for an origin, if any.
    #[must_use]
    pub fn fault_plan(&self, origin: &Origin) -> Option<FaultPlan> {
        self.faults
            .read()
            .expect("fault plan map lock")
            .get(origin)
            .map(|state| state.plan.clone())
    }

    /// Consults (and advances) the origin's fault plan for one dispatch.
    /// Origins without a plan always proceed cleanly.
    pub(crate) fn fault_decision(&self, origin: &Origin) -> FaultDecision {
        let state = self
            .faults
            .read()
            .expect("fault plan map lock")
            .get(origin)
            .cloned();
        state.map_or_else(FaultDecision::default, |state| state.next_decision())
    }

    /// Replaces the fabric clock that meters retry backoff, batch deadlines
    /// and breaker cooldowns. Defaults to a monotonic wall clock; install a
    /// [`ManualClock`](escudo_core::ManualClock) to make the whole resilience
    /// schedule exactly countable.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *self.clock.write().expect("fabric clock lock") = clock;
    }

    /// The current fabric-clock reading in nanoseconds.
    pub(crate) fn clock_now_ns(&self) -> u64 {
        self.clock.read().expect("fabric clock lock").now_ns()
    }

    /// The circuit-breaker phase for an origin — `None` until a policy with a
    /// breaker has dispatched to it.
    #[must_use]
    pub fn breaker_phase(&self, origin: &Origin) -> Option<BreakerPhase> {
        self.breakers
            .read()
            .expect("breaker map lock")
            .get(origin)
            .map(|b| b.inner.lock().expect("breaker lock").phase)
    }

    fn breaker_for(&self, origin: &Origin) -> Arc<Breaker> {
        if let Some(breaker) = self.breakers.read().expect("breaker map lock").get(origin) {
            return Arc::clone(breaker);
        }
        match self
            .breakers
            .write()
            .expect("breaker map lock")
            .entry(origin.clone())
        {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => Arc::clone(e.insert(Arc::new(Breaker::new()))),
        }
    }

    /// Asks the origin's breaker whether a dispatch may proceed. `Closed`
    /// admits; `Open` fails fast until the cooldown elapses on the fabric
    /// clock, at which point exactly one caller transitions it to `HalfOpen`
    /// and becomes the probe; other `HalfOpen` callers fail fast.
    pub(crate) fn breaker_admit(
        &self,
        origin: &Origin,
        policy: &FetchPolicy,
    ) -> Result<(), NetError> {
        if policy.breaker_threshold == 0 {
            return Ok(());
        }
        let breaker = self.breaker_for(origin);
        let mut inner = breaker.inner.lock().expect("breaker lock");
        match inner.phase {
            BreakerPhase::Closed => Ok(()),
            BreakerPhase::HalfOpen => {
                self.chaos()
                    .breaker_fast_fails
                    .fetch_add(1, Ordering::Relaxed);
                Err(NetError::CircuitOpen {
                    origin: origin.to_string(),
                    cooldown_ns: 0,
                })
            }
            BreakerPhase::Open => {
                let elapsed = self.clock_now_ns().saturating_sub(inner.opened_at_ns);
                if elapsed >= policy.breaker_cooldown_ns {
                    inner.phase = BreakerPhase::HalfOpen;
                    self.chaos().breaker_probes.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                } else {
                    self.chaos()
                        .breaker_fast_fails
                        .fetch_add(1, Ordering::Relaxed);
                    Err(NetError::CircuitOpen {
                        origin: origin.to_string(),
                        cooldown_ns: policy.breaker_cooldown_ns - elapsed,
                    })
                }
            }
        }
    }

    /// Records a dispatch outcome with the origin's breaker: success closes
    /// it (counting a recovery when it was half-open); a transient failure
    /// counts toward the trip threshold, and any failure while half-open
    /// re-opens immediately.
    pub(crate) fn breaker_record(&self, origin: &Origin, policy: &FetchPolicy, success: bool) {
        if policy.breaker_threshold == 0 {
            return;
        }
        let breaker = self.breaker_for(origin);
        let mut inner = breaker.inner.lock().expect("breaker lock");
        if success {
            if inner.phase == BreakerPhase::HalfOpen {
                self.chaos()
                    .breaker_recoveries
                    .fetch_add(1, Ordering::Relaxed);
            }
            inner.phase = BreakerPhase::Closed;
            inner.consecutive_failures = 0;
            return;
        }
        match inner.phase {
            BreakerPhase::HalfOpen => {
                inner.phase = BreakerPhase::Open;
                inner.opened_at_ns = self.clock_now_ns();
                inner.consecutive_failures = 0;
                self.chaos().breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
            BreakerPhase::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= policy.breaker_threshold {
                    inner.phase = BreakerPhase::Open;
                    inner.opened_at_ns = self.clock_now_ns();
                    inner.consecutive_failures = 0;
                    self.chaos().breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerPhase::Open => {}
        }
    }

    /// Dispatches one request under a fresh sequence number through the
    /// resilient loop: breaker admission, bounded retries with virtual
    /// backoff, deadline accounting — the navigation and XHR counterpart of
    /// `dispatch_batch_with_policy`. A disabled policy falls through to the
    /// bare [`dispatch`](SharedNetwork::dispatch) (identical semantics, zero
    /// overhead).
    ///
    /// # Errors
    ///
    /// The final attempt's error: [`NetError::Timeout`] /
    /// [`NetError::FetchPanicked`] once retries are exhausted,
    /// [`NetError::CircuitOpen`] when the origin's breaker refused admission,
    /// or [`NetError::HostUnreachable`] (never retried).
    pub fn dispatch_with_policy(
        &self,
        request: Request,
        policy: &FetchPolicy,
    ) -> Result<Response, NetError> {
        if policy.is_disabled() {
            return self.dispatch(request);
        }
        let sequence = self.reserve_sequences(1);
        self.dispatch_sequenced_with_policy(sequence, request, policy)
            .0
    }

    /// Dispatches one request under a **caller-reserved** sequence number
    /// through the resilient loop, returning the outcome plus the retries the
    /// slot consumed. This is the coalesced-duplicate fallback of the
    /// subresource loader: when a single-flight primary failed, each duplicate
    /// slot re-dispatches itself under its own pre-reserved sequence with the
    /// session's full retry budget, exactly as a non-coalesced plan slot would
    /// have. A disabled policy falls through to the bare
    /// [`dispatch_sequenced`](SharedNetwork::dispatch_sequenced).
    ///
    /// # Errors
    ///
    /// The final attempt's error, exactly as
    /// [`dispatch_with_policy`](SharedNetwork::dispatch_with_policy).
    pub fn dispatch_sequenced_with_policy(
        &self,
        sequence: u64,
        request: Request,
        policy: &FetchPolicy,
    ) -> (Result<Response, NetError>, u32) {
        if policy.is_disabled() {
            return (self.dispatch_sequenced(sequence, request), 0);
        }
        let budget = BatchBudget::new(self, *policy);
        let mut outcome = run_window(self, Some(sequence), vec![(0, request)], 1, Some(&budget));
        outcome.pop().expect("one request, one outcome")
    }

    /// Dispatches sent to `origin` under its installed fault plan so far.
    #[cfg(test)]
    pub(crate) fn fault_plan_sends(&self, origin: &Origin) -> u64 {
        self.faults
            .read()
            .expect("fault plan map lock")
            .get(origin)
            .map_or(0, |state| state.counter.load(Ordering::Relaxed))
    }

    /// Failing faults injected so far (timeouts and planned panics).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.chaos().faults_injected.load(Ordering::Relaxed)
    }

    /// Dispatches slowed by an injected [`FaultSchedule::SlowBy`] schedule.
    #[must_use]
    pub fn fault_slowdowns(&self) -> u64 {
        self.chaos().fault_slowdowns.load(Ordering::Relaxed)
    }

    /// Retry attempts granted across all resilient dispatches.
    #[must_use]
    pub fn retry_attempts(&self) -> u64 {
        self.chaos().retry_attempts.load(Ordering::Relaxed)
    }

    /// Resilient dispatches that succeeded only after at least one retry.
    #[must_use]
    pub fn retry_successes(&self) -> u64 {
        self.chaos().retry_successes.load(Ordering::Relaxed)
    }

    /// Retries refused because the batch deadline budget was exhausted.
    #[must_use]
    pub fn retry_deadline_exhausted(&self) -> u64 {
        self.chaos()
            .retry_deadline_exhausted
            .load(Ordering::Relaxed)
    }

    /// Times an origin breaker tripped open (including half-open re-trips).
    #[must_use]
    pub fn breaker_trips(&self) -> u64 {
        self.chaos().breaker_trips.load(Ordering::Relaxed)
    }

    /// Half-open probes admitted after a breaker cooldown elapsed.
    #[must_use]
    pub fn breaker_probes(&self) -> u64 {
        self.chaos().breaker_probes.load(Ordering::Relaxed)
    }

    /// Breakers closed by a successful half-open probe.
    #[must_use]
    pub fn breaker_recoveries(&self) -> u64 {
        self.chaos().breaker_recoveries.load(Ordering::Relaxed)
    }

    /// Dispatches refused outright by an open (or probing) breaker.
    #[must_use]
    pub fn breaker_fast_fails(&self) -> u64 {
        self.chaos().breaker_fast_fails.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_core::ManualClock;

    fn echo(req: &Request) -> Response {
        Response::ok_text(req.url.path().to_string())
    }

    #[test]
    fn plans_compose_and_replay_deterministically() {
        let plan = FaultPlan::new().fail_first(2).every_nth(5).slow_by(100);
        // Index 0,1: FailFirst; index 4, 9: EveryNth; all slowed.
        let verdicts: Vec<FaultOutcome> = (0..10).map(|i| plan.decide(i).outcome).collect();
        use FaultOutcome::{Proceed, Timeout};
        assert_eq!(
            verdicts,
            vec![
                Timeout, Timeout, Proceed, Proceed, Timeout, Proceed, Proceed, Proceed, Proceed,
                Timeout
            ]
        );
        assert!((0..10).all(|i| plan.decide(i).slow_ns == 100));
        // Same plan, same indices, same verdicts — replay is exact.
        assert_eq!(
            (0..10).map(|i| plan.decide(i)).collect::<Vec<_>>(),
            (0..10).map(|i| plan.decide(i)).collect::<Vec<_>>()
        );
        // Panic outranks Timeout when both fire.
        let both = FaultPlan::new().timeout().panicking();
        assert_eq!(both.decide(0).outcome, FaultOutcome::Panic);
        // EveryNth(0) never fires.
        assert!(FaultPlan::new().every_nth(0).decide(0).is_clean());
    }

    #[test]
    fn injected_timeouts_fire_on_schedule_and_heal() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo);
        net.inject_fault("http://a.example", FaultPlan::new().fail_first(2));
        for i in 0..2 {
            let err = net
                .dispatch(Request::get(&format!("http://a.example/{i}")).unwrap())
                .unwrap_err();
            assert!(
                matches!(err, NetError::Timeout { ref origin, .. } if origin.contains("a.example")),
                "dispatch {i} should time out, got {err}"
            );
        }
        // The schedule heals at index 2.
        assert!(net
            .dispatch(Request::get("http://a.example/ok").unwrap())
            .is_ok());
        assert_eq!(net.faults_injected(), 2);
        assert_eq!(net.log_len(), 1, "faulted dispatches are never logged");
        // Re-installing a plan replays from index 0.
        net.inject_fault("http://a.example", FaultPlan::new().fail_first(1));
        assert!(net
            .dispatch(Request::get("http://a.example/again").unwrap())
            .is_err());
        net.clear_fault("http://a.example");
        assert!(net
            .dispatch(Request::get("http://a.example/healed").unwrap())
            .is_ok());
    }

    #[test]
    fn faults_can_be_installed_before_registration() {
        let net = SharedNetwork::new();
        net.inject_fault("http://later.example", FaultPlan::new().timeout());
        net.register("http://later.example", echo);
        assert!(net
            .dispatch(Request::get("http://later.example/").unwrap())
            .is_err());
        assert!(net
            .fault_plan(&Origin::parse_url("http://later.example").unwrap())
            .is_some());
    }

    #[test]
    fn retries_mask_transient_faults_within_the_budget() {
        let net = SharedNetwork::new();
        net.register("http://flaky.example", echo);
        net.inject_fault("http://flaky.example", FaultPlan::new().fail_first(2));
        let policy = FetchPolicy::default().with_max_retries(2);
        let response = net
            .dispatch_with_policy(Request::get("http://flaky.example/x").unwrap(), &policy)
            .unwrap();
        assert_eq!(response.body, "/x");
        assert_eq!(net.retry_attempts(), 2);
        assert_eq!(net.retry_successes(), 1);
        assert_eq!(net.faults_injected(), 2);
        assert_eq!(net.log_len(), 1, "one success, logged once");
    }

    #[test]
    fn retries_stop_at_the_budget_and_unreachable_hosts_are_never_retried() {
        let net = SharedNetwork::new();
        net.register("http://down.example", echo);
        net.inject_fault("http://down.example", FaultPlan::new().timeout());
        let policy = FetchPolicy::default().with_max_retries(3);
        let err = net
            .dispatch_with_policy(Request::get("http://down.example/x").unwrap(), &policy)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }));
        assert_eq!(net.retry_attempts(), 3, "exactly max_retries retries");
        assert_eq!(net.faults_injected(), 4, "initial attempt + 3 retries");
        // A missing server is permanent: no retry is burned on it.
        let before = net.retry_attempts();
        let err = net
            .dispatch_with_policy(Request::get("http://nowhere.example/").unwrap(), &policy)
            .unwrap_err();
        assert!(matches!(err, NetError::HostUnreachable(_)));
        assert_eq!(net.retry_attempts(), before);
    }

    #[test]
    fn virtual_backoff_meets_the_deadline_exactly_under_a_manual_clock() {
        let net = SharedNetwork::new();
        net.set_clock(Arc::new(ManualClock::new()));
        net.register("http://down.example", echo);
        net.inject_fault("http://down.example", FaultPlan::new().timeout());
        // Backoff schedule 1ms, 2ms, … against a 3ms deadline: the first
        // retry is granted (1ms owed < 3ms), the second refused (3ms ≥ 3ms).
        let policy = FetchPolicy::default()
            .with_max_retries(10)
            .with_backoff_base_ns(1_000_000)
            .with_deadline_ns(3_000_000);
        let err = net
            .dispatch_with_policy(Request::get("http://down.example/x").unwrap(), &policy)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }));
        assert_eq!(net.retry_attempts(), 1);
        assert_eq!(net.retry_deadline_exhausted(), 1);
        assert_eq!(net.faults_injected(), 2, "two attempts total");
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed_on_the_manual_clock() {
        let net = SharedNetwork::new();
        let clock = Arc::new(ManualClock::new());
        net.set_clock(Arc::<ManualClock>::clone(&clock));
        net.register("http://sick.example", echo);
        net.inject_fault("http://sick.example", FaultPlan::new().timeout());
        let origin = Origin::parse_url("http://sick.example").unwrap();
        let policy = FetchPolicy::default().with_breaker(3, 1_000_000_000);

        // Three consecutive transient failures trip the breaker open.
        for _ in 0..3 {
            let err = net
                .dispatch_with_policy(Request::get("http://sick.example/").unwrap(), &policy)
                .unwrap_err();
            assert!(matches!(err, NetError::Timeout { .. }));
        }
        assert_eq!(net.breaker_phase(&origin), Some(BreakerPhase::Open));
        assert_eq!(net.breaker_trips(), 1);

        // Open within the cooldown: fail fast, carrying the remaining wait.
        let err = net
            .dispatch_with_policy(Request::get("http://sick.example/").unwrap(), &policy)
            .unwrap_err();
        assert!(
            matches!(err, NetError::CircuitOpen { cooldown_ns, .. } if cooldown_ns == 1_000_000_000)
        );
        assert_eq!(net.breaker_fast_fails(), 1);

        // Cooldown elapses; the origin heals; the single probe closes it.
        clock.advance_ns(1_000_000_000);
        net.clear_fault("http://sick.example");
        let ok = net
            .dispatch_with_policy(Request::get("http://sick.example/ok").unwrap(), &policy)
            .unwrap();
        assert_eq!(ok.body, "/ok");
        assert_eq!(net.breaker_phase(&origin), Some(BreakerPhase::Closed));
        assert_eq!(net.breaker_probes(), 1);
        assert_eq!(net.breaker_recoveries(), 1);
    }

    #[test]
    fn a_failed_probe_reopens_the_breaker() {
        let net = SharedNetwork::new();
        let clock = Arc::new(ManualClock::new());
        net.set_clock(Arc::<ManualClock>::clone(&clock));
        net.register("http://sick.example", echo);
        net.inject_fault("http://sick.example", FaultPlan::new().timeout());
        let origin = Origin::parse_url("http://sick.example").unwrap();
        let policy = FetchPolicy::default().with_breaker(2, 500);
        for _ in 0..2 {
            let _ =
                net.dispatch_with_policy(Request::get("http://sick.example/").unwrap(), &policy);
        }
        assert_eq!(net.breaker_phase(&origin), Some(BreakerPhase::Open));
        clock.advance_ns(500);
        // Still faulted: the probe fails and the breaker re-trips.
        let _ = net.dispatch_with_policy(Request::get("http://sick.example/").unwrap(), &policy);
        assert_eq!(net.breaker_phase(&origin), Some(BreakerPhase::Open));
        assert_eq!(net.breaker_trips(), 2);
        assert_eq!(net.breaker_probes(), 1);
        assert_eq!(net.breaker_recoveries(), 0);
    }

    #[test]
    fn disabled_policies_change_nothing() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo);
        assert!(FetchPolicy::default().is_disabled());
        assert!(!FetchPolicy::resilient().is_disabled());
        let response = net
            .dispatch_with_policy(
                Request::get("http://a.example/x").unwrap(),
                &FetchPolicy::disabled(),
            )
            .unwrap();
        assert_eq!(response.body, "/x");
        assert_eq!(net.retry_attempts(), 0);
        assert_eq!(
            net.breaker_phase(&Origin::parse_url("http://a.example").unwrap()),
            None
        );
    }

    #[test]
    fn slowdowns_are_slept_but_counted_separately_from_failures() {
        let net = SharedNetwork::new();
        net.register("http://slowed.example", echo);
        net.inject_fault("http://slowed.example", FaultPlan::new().slow_by(1_000_000));
        let start = std::time::Instant::now();
        assert!(net
            .dispatch(Request::get("http://slowed.example/").unwrap())
            .is_ok());
        assert!(start.elapsed() >= std::time::Duration::from_millis(1));
        assert_eq!(net.fault_slowdowns(), 1);
        assert_eq!(net.faults_injected(), 0, "a slowdown is not a failure");
    }
}
