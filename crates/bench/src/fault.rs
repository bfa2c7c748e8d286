//! The chaos workloads behind `fault_concurrent`: the full scenario matrix
//! under fault injection, the retry mediation oracle, and the breaker drill.
//!
//! This module backs the `fault_concurrent` bench and its CI gates:
//!
//! * [`run_matrix_under_chaos`] — the entire (app × attack × policy-mode)
//!   registry matrix replayed under an injected [`ChaosSchedule`]: every
//!   session's fabric gets per-origin fault plans and a retrying
//!   [`FetchPolicy`] through [`crate::oracle::run_matrix_with_hook`]. The
//!   gate is the paper's fail-closed claim under fire: **zero** cells may
//!   change verdict, and the reference-monitor check/denial counts must be
//!   identical to the fault-free matrix — retries re-send mediated requests
//!   verbatim, so chaos may change *when* bytes move, never what ESCUDO
//!   decides.
//! * [`run_retry_oracle`] — one ad-network session staged twice, fault-free
//!   vs. first-dispatch-faulted-everywhere with retries, the two session
//!   transcripts diffed by [`crate::oracle`]: they must come out
//!   **byte-identical**, because a retry reuses the original mediation plan
//!   and a faulted attempt is never logged.
//! * [`run_breaker_drill`] — the circuit breaker walked
//!   Closed → Open → HalfOpen → Closed on a [`ManualClock`], plus the retry
//!   budget and virtual-backoff deadline exercised to exact counter values:
//!   with no wall clock in the loop, every chaos counter is a constant.

use std::sync::Arc;
use std::time::Duration;

use escudo_apps::scenario::{MatrixReport, AD_SLOTS};
use escudo_apps::{AdServer, NewsSite};
use escudo_browser::{Browser, PolicyMode};
use escudo_core::ManualClock;
use escudo_net::{
    BreakerPhase, FaultPlan, FetchPlan, FetchPolicy, Request, Response, SharedNetwork,
};

use crate::oracle::{run_matrix_with_hook, Transcript, TranscriptDiff};

/// Every origin a registry scenario registers a server on. Fault plans are
/// installed for all of them on every session's fabric — installation is
/// independent of registration, so origins a given scenario never touches
/// simply keep a dormant plan.
#[must_use]
pub fn matrix_origins() -> Vec<String> {
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

/// A named chaos schedule: the fault plan installed on every matrix origin
/// plus the retry policy that must mask it. Schedules are deliberately
/// *maskable* — the plan's failures fit inside the policy's retry budget, so
/// a correctly-retrying fetch path stages every page and the verdict gate is
/// meaningful (an unmasked failure would surface as a changed verdict).
#[derive(Debug, Clone, Copy)]
pub struct ChaosSchedule {
    /// Short identifier used in report keys (`chaos_<name>_*`).
    pub name: &'static str,
    /// The session [`FetchPolicy`] the chaos hook installs.
    pub policy: FetchPolicy,
    /// Builds the per-origin fault plan (plans own an atomic replay counter,
    /// so each origin needs a fresh instance).
    plan: fn() -> FaultPlan,
}

impl ChaosSchedule {
    /// A fresh instance of the schedule's fault plan.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        (self.plan)()
    }
}

/// The fault schedules the matrix is replayed under — per ISSUE 9, at least
/// three, each exercising a different composition of the fault fabric.
#[must_use]
pub fn schedules() -> Vec<ChaosSchedule> {
    vec![
        // Every origin's first two dispatches time out; three retries mask it.
        ChaosSchedule {
            name: "fail_first",
            policy: FetchPolicy::disabled()
                .with_max_retries(3)
                .with_backoff_base_ns(1_000),
            plan: || FaultPlan::new().fail_first(2),
        },
        // A steady-state blip: every third dispatch per origin times out; one
        // retry always lands on a clean index ((i+1) % 3 == 0 implies
        // (i+2) % 3 != 0).
        ChaosSchedule {
            name: "every_third",
            policy: FetchPolicy::disabled()
                .with_max_retries(2)
                .with_backoff_base_ns(1_000),
            plan: || FaultPlan::new().every_nth(3),
        },
        // Composition: a small latency tax on every dispatch plus one leading
        // timeout — slowdowns and failures are accounted separately.
        ChaosSchedule {
            name: "slow_blip",
            policy: FetchPolicy::disabled()
                .with_max_retries(2)
                .with_backoff_base_ns(1_000),
            plan: || FaultPlan::new().slow_by(10_000).fail_first(1),
        },
    ]
}

/// The outcome of one full matrix pass under a chaos schedule, plus the chaos
/// counters summed across every session fabric the pass created.
#[derive(Debug, Clone)]
pub struct ChaosMatrixReport {
    /// The schedule the pass ran under.
    pub schedule: &'static str,
    /// The matrix verdicts — gated exactly like the fault-free matrix.
    pub report: MatrixReport,
    /// Session fabrics the chaos hook observed (one per staged browser).
    pub sessions: usize,
    /// Injected failing faults (timeouts) summed across all sessions.
    pub faults_injected: u64,
    /// Injected slowdowns summed across all sessions.
    pub fault_slowdowns: u64,
    /// Retries granted summed across all sessions.
    pub retry_attempts: u64,
    /// Dispatches that succeeded after at least one retry.
    pub retry_successes: u64,
    /// Retries refused because a batch deadline was exhausted.
    pub retry_deadline_exhausted: u64,
    /// Breaker fast-fails (must stay 0 — matrix schedules run breaker-less).
    pub breaker_fast_fails: u64,
}

/// Replays the full scenario registry with `schedule`'s fault plan injected
/// on every matrix origin of every session and the schedule's retry policy
/// installed, then sums the chaos counters across all session fabrics.
#[must_use]
pub fn run_matrix_under_chaos(schedule: &ChaosSchedule) -> ChaosMatrixReport {
    let origins = matrix_origins();
    let policy = schedule.policy;
    let plan = schedule.plan;
    let (report, fabrics) = run_matrix_with_hook(move |browser: &mut Browser| {
        browser.set_fetch_policy(policy);
        for origin in &origins {
            browser.fabric().inject_fault(origin, plan());
        }
    });
    ChaosMatrixReport {
        schedule: schedule.name,
        report,
        sessions: fabrics.len(),
        faults_injected: fabrics.iter().map(|f| f.faults_injected()).sum(),
        fault_slowdowns: fabrics.iter().map(|f| f.fault_slowdowns()).sum(),
        retry_attempts: fabrics.iter().map(|f| f.retry_attempts()).sum(),
        retry_successes: fabrics.iter().map(|f| f.retry_successes()).sum(),
        retry_deadline_exhausted: fabrics.iter().map(|f| f.retry_deadline_exhausted()).sum(),
        breaker_fast_fails: fabrics.iter().map(|f| f.breaker_fast_fails()).sum(),
    }
}

/// The retry mediation oracle: the same ad-network session staged fault-free
/// and under first-dispatch faults with retries, its two transcripts diffed.
#[derive(Debug, Clone)]
pub struct RetryOracleReport {
    /// The policy mode both runs were staged under.
    pub mode: PolicyMode,
    /// The faulted run's transcript against the fault-free one's: logs,
    /// per-subresource attachments in plan order, and the mediation counters
    /// — the witness that a retry never re-mediates.
    pub diff: TranscriptDiff,
    /// Retries the faulted run spent (one per faulted origin).
    pub faulted_retries: u64,
    /// Failing faults the faulted run absorbed.
    pub faulted_faults: u64,
    /// Retries the clean run spent (must be 0).
    pub clean_retries: u64,
}

impl RetryOracleReport {
    /// The two sequence-sorted request logs are element-wise identical
    /// (method, URL, attached cookie names, status).
    #[must_use]
    pub fn logs_identical(&self) -> bool {
        self.diff.log_mismatches == 0
    }

    /// Per-subresource URLs and attached cookie names are identical in plan
    /// order.
    #[must_use]
    pub fn attachments_identical(&self) -> bool {
        self.diff.attachment_mismatches == 0 && self.diff.order_violations == 0
    }

    /// `true` when the whole oracle holds: identical transcripts, no retry
    /// on the clean side, and at least one on the faulted side.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.logs_identical()
            && self.attachments_identical()
            && self.diff.mediation_mismatches == 0
            && self.clean_retries == 0
            && self.faulted_retries > 0
    }
}

/// Stages the ad-network session — victim login, then the front page — and
/// returns its transcript with the fabric's retry and fault counts.
fn oracle_run(mode: PolicyMode, chaos: bool) -> (Transcript, u64, u64) {
    let mut browser = Browser::new(mode);
    if chaos {
        // Deadline off: the oracle's determinism must not depend on how fast
        // the host machine stages the page.
        browser.set_fetch_policy(
            FetchPolicy::disabled()
                .with_max_retries(2)
                .with_backoff_base_ns(1_000),
        );
        let fabric = browser.fabric();
        fabric.inject_fault("http://news.example", FaultPlan::new().fail_first(1));
        for i in 0..AD_SLOTS {
            fabric.inject_fault(&NewsSite::ad_origin(i), FaultPlan::new().fail_first(1));
        }
    }
    for i in 0..AD_SLOTS {
        browser
            .fabric()
            .register(&NewsSite::ad_origin(i), AdServer::new());
    }
    browser
        .fabric()
        .register("http://news.example", NewsSite::new(AD_SLOTS));
    let transcript = Transcript::record(
        &mut browser,
        [
            "http://news.example/login?user=victim",
            "http://news.example/",
        ],
    );
    let fabric = browser.fabric();
    (
        transcript,
        fabric.retry_attempts(),
        fabric.faults_injected(),
    )
}

/// Stages the ad-network session twice — fault-free, then with every origin's
/// first dispatch timing out under a two-retry policy — and diffs the two
/// transcripts.
#[must_use]
pub fn run_retry_oracle(mode: PolicyMode) -> RetryOracleReport {
    let (clean, clean_retries, _) = oracle_run(mode, false);
    let (chaotic, faulted_retries, faulted_faults) = oracle_run(mode, true);
    RetryOracleReport {
        mode,
        diff: chaotic.diff(&clean),
        faulted_retries,
        faulted_faults,
        clean_retries,
    }
}

/// The breaker drill's exact counter expectations — every field is a constant
/// because the drill runs on a [`ManualClock`] (no wall time ever enters the
/// retry or cooldown arithmetic).
#[derive(Debug, Clone, Copy)]
pub struct BreakerDrillReport {
    /// The breaker was observed Open after the trip threshold.
    pub opened: bool,
    /// The breaker was observed Closed again after the healed probe.
    pub reclosed: bool,
    /// Trips recorded (expected: exactly 1).
    pub trips: u64,
    /// Fast-fails while open (expected: exactly 2).
    pub fast_fails: u64,
    /// Half-open probes admitted (expected: exactly 1).
    pub probes: u64,
    /// Successful probes that re-closed the breaker (expected: exactly 1).
    pub recoveries: u64,
    /// Retries granted across the drill (expected: exactly 3).
    pub retry_attempts: u64,
    /// Dispatches that succeeded after retrying (expected: exactly 1).
    pub retry_successes: u64,
    /// Retries refused on the virtual-backoff deadline (expected: exactly 1).
    pub deadline_exhausted: u64,
    /// Failing faults injected across the drill (expected: exactly 7).
    pub faults_injected: u64,
}

impl BreakerDrillReport {
    /// `true` when every counter landed on its exact expected value.
    #[must_use]
    pub fn exact(&self) -> bool {
        self.opened
            && self.reclosed
            && self.trips == 1
            && self.fast_fails == 2
            && self.probes == 1
            && self.recoveries == 1
            && self.retry_attempts == 3
            && self.retry_successes == 1
            && self.deadline_exhausted == 1
            && self.faults_injected == 7
    }
}

/// Walks one origin's breaker Closed → Open → HalfOpen → Closed on a
/// [`ManualClock`], then exercises the retry budget and the virtual-backoff
/// deadline on two further origins — all on one fabric, so the final chaos
/// counters are exact constants.
#[must_use]
pub fn run_breaker_drill() -> BreakerDrillReport {
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
    let ping = || Request::get("http://flaky.example/ping").expect("drill request URL");
    let flaky_origin = ping().url.origin();
    // One request as its own width-1 plan: the navigation and XHR shape.
    let fetch = |request: Request, policy: &FetchPolicy| {
        fabric.execute(FetchPlan::new(vec![request], 1, *policy));
    };

    // --- Closed → Open: three consecutive timeouts trip the breaker.
    fabric.inject_fault("http://flaky.example", FaultPlan::new().timeout());
    let breaker = FetchPolicy::disabled().with_breaker(3, 1_000_000_000);
    for _ in 0..3 {
        fetch(ping(), &breaker);
    }
    let opened = fabric.breaker_phase(&flaky_origin) == Some(BreakerPhase::Open);

    // --- Open: dispatches fail fast without touching the (sick) origin.
    for _ in 0..2 {
        fetch(ping(), &breaker);
    }

    // --- HalfOpen → Closed: cooldown elapses on the manual clock, the origin
    // heals, and the single admitted probe re-closes the breaker.
    clock.advance(Duration::from_secs(1));
    fabric.clear_fault("http://flaky.example");
    fetch(ping(), &breaker);
    let reclosed = fabric.breaker_phase(&flaky_origin) == Some(BreakerPhase::Closed);

    // --- Retry budget exactness: two leading timeouts, two retries, success.
    fabric.inject_fault("http://retry.example", FaultPlan::new().fail_first(2));
    let retrying = FetchPolicy::disabled()
        .with_max_retries(2)
        .with_backoff_base_ns(1_000);
    fetch(
        Request::get("http://retry.example/r").expect("drill request URL"),
        &retrying,
    );

    // --- Deadline exactness: backoff 1000 fits under the 3000ns deadline
    // (one retry granted), backoff 1000+2000 reaches it (refused).
    fabric.inject_fault("http://deadline.example", FaultPlan::new().timeout());
    let bounded = retrying.with_max_retries(5).with_deadline_ns(3_000);
    fetch(
        Request::get("http://deadline.example/d").expect("drill request URL"),
        &bounded,
    );

    BreakerDrillReport {
        opened,
        reclosed,
        trips: fabric.breaker_trips(),
        fast_fails: fabric.breaker_fast_fails(),
        probes: fabric.breaker_probes(),
        recoveries: fabric.breaker_recoveries(),
        retry_attempts: fabric.retry_attempts(),
        retry_successes: fabric.retry_successes(),
        deadline_exhausted: fabric.retry_deadline_exhausted(),
        faults_injected: fabric.faults_injected(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_breaker_drill_is_exactly_countable() {
        let report = run_breaker_drill();
        assert!(report.exact(), "drill counters drifted: {report:?}");
    }

    #[test]
    fn the_retry_oracle_holds_under_escudo() {
        let report = run_retry_oracle(PolicyMode::Escudo);
        assert!(report.holds(), "{report:?}");
    }

    #[test]
    fn one_chaos_schedule_masks_cleanly() {
        let schedule = schedules().remove(0);
        let chaos = run_matrix_under_chaos(&schedule);
        assert_eq!(chaos.report.unexpected().len(), 0);
        assert!(chaos.faults_injected > 0);
        assert!(chaos.retry_attempts <= chaos.faults_injected);
        assert_eq!(chaos.breaker_fast_fails, 0);
    }
}
