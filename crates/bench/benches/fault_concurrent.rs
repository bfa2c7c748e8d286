//! Chaos under the reference monitor: the fault-injection fabric driven
//! against the full scenario fleet, gated on the paper's fail-closed claim.
//!
//! Run with `cargo bench --bench fault_concurrent` (optionally
//! `-- --repeats N --json path`). This is a plain `harness = false` binary; it
//! exits non-zero if a resilience gate fails:
//!
//! * **chaos verdict gate** — the whole (app × attack × policy-mode) matrix
//!   is replayed under each fault schedule; **zero** cells may change verdict
//!   and the reference-monitor check/denial counts must equal the fault-free
//!   matrix exactly (retries re-send the mediated request verbatim — chaos
//!   may move bytes in time, never move a security decision),
//! * **amplification gate** — retries stay bounded by injected faults
//!   (`retry_attempts <= faults_injected`: every retry is caused by a fault),
//!   and no breaker fast-fails fire under the breaker-less matrix schedules,
//! * **retry oracle gate** — a faulted-then-retried session's request log and
//!   per-subresource attached cookies are byte-identical to the fault-free
//!   run, under both policy modes,
//! * **breaker gate** — the Closed → Open → HalfOpen → Closed walk on a
//!   manual clock lands on exact counter constants (trips, fast-fails,
//!   probes, recoveries, retry budget, deadline refusals).

use std::time::Instant;

use escudo_apps::scenario::{registry, MatrixReport};
use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_bench::fault::{run_breaker_drill, run_matrix_under_chaos, run_retry_oracle, schedules};
use escudo_browser::PolicyMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let repeats = parse_flag(&args, "--repeats", 1).max(1);

    let mut json = JsonReport::new("fault_concurrent");

    // ------------------------------------------------- fault-free baseline
    let scenarios = registry();
    let baseline = MatrixReport::run(&scenarios);
    println!(
        "fault_concurrent: {} cells fault-free, {} schedules, {repeats} repeats",
        baseline.cells(),
        schedules().len()
    );
    json.zero("baseline_unexpected", baseline.unexpected().len());

    // ------------------------------------------------- chaos verdict gate
    for schedule in &schedules() {
        let started = Instant::now();
        let mut chaos = run_matrix_under_chaos(schedule);
        for _ in 1..repeats {
            chaos = run_matrix_under_chaos(schedule);
        }
        let per_pass_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(repeats as u32);

        let unexpected = chaos.report.unexpected().len();
        let counts_stable = [PolicyMode::SameOriginOnly, PolicyMode::Escudo]
            .into_iter()
            .all(|mode| {
                chaos.report.successes(mode) == baseline.successes(mode)
                    && chaos.report.neutralized(mode) == baseline.neutralized(mode)
                    && chaos.report.total_checks(mode) == baseline.total_checks(mode)
                    && chaos.report.total_denials(mode) == baseline.total_denials(mode)
            });
        println!(
            "  {:<12} {:>2} unexpected, {:>4} faults, {:>4} retries, {:>3} sessions, {per_pass_ms:.1}ms",
            chaos.schedule, unexpected, chaos.faults_injected, chaos.retry_attempts, chaos.sessions
        );
        let key = |suffix: &str| format!("chaos_{}_{suffix}", chaos.schedule);
        json.zero(&key("unexpected"), unexpected)
            .record(Kind::Info, &key("sessions"), chaos.sessions)
            .record(Kind::Info, &key("faults_injected"), chaos.faults_injected)
            .record(Kind::Info, &key("fault_slowdowns"), chaos.fault_slowdowns)
            .record(Kind::Info, &key("retry_attempts"), chaos.retry_attempts)
            .record(Kind::Info, &key("retry_successes"), chaos.retry_successes)
            .record(Kind::Info, &key("pass_ms"), per_pass_ms);

        json.check(
            counts_stable,
            format_args!(
                "schedule `{}` keeps every verdict count and mediation count of the \
                 fault-free matrix",
                chaos.schedule
            ),
        );
        json.check(
            chaos.faults_injected != 0 && chaos.retry_attempts != 0,
            format_args!(
                "schedule `{}` injected {} faults and granted {} retries (gate: both non-zero, \
                 or the chaos hook is not reaching the fetch path)",
                chaos.schedule, chaos.faults_injected, chaos.retry_attempts
            ),
        );
        json.check(
            chaos.retry_attempts <= chaos.faults_injected
                && chaos.retry_deadline_exhausted == 0
                && chaos.breaker_fast_fails == 0,
            format_args!(
                "schedule `{}` amplification: {} retries for {} faults, {} deadline refusals, \
                 {} breaker fast-fails (gate: retries ≤ faults, no refusals, no fast-fails)",
                chaos.schedule,
                chaos.retry_attempts,
                chaos.faults_injected,
                chaos.retry_deadline_exhausted,
                chaos.breaker_fast_fails
            ),
        );
    }

    // --------------------------------------------------- retry oracle gate
    for (mode, key) in [
        (PolicyMode::SameOriginOnly, "sop"),
        (PolicyMode::Escudo, "escudo"),
    ] {
        let oracle = run_retry_oracle(mode);
        println!(
            "  oracle {key:<7} logs={} cookies={} mediation_mismatches={} ({} retries over {} \
             log entries)",
            oracle.logs_identical(),
            oracle.attachments_identical(),
            oracle.diff.mediation_mismatches,
            oracle.faulted_retries,
            oracle.diff.requests
        );
        json.flag(
            &format!("oracle_{key}_logs_identical"),
            oracle.logs_identical(),
        )
        .flag(
            &format!("oracle_{key}_cookies_identical"),
            oracle.attachments_identical(),
        )
        .record(
            Kind::Info,
            &format!("oracle_{key}_retry_attempts"),
            oracle.faulted_retries,
        )
        .check(
            oracle.holds(),
            format_args!("the retry oracle holds under {mode}"),
        );
    }

    // -------------------------------------------------------- breaker gate
    let drill = run_breaker_drill();
    println!(
        "  breaker trips={} fast_fails={} probes={} recoveries={} retries={} deadline={}",
        drill.trips,
        drill.fast_fails,
        drill.probes,
        drill.recoveries,
        drill.retry_attempts,
        drill.deadline_exhausted
    );
    json.record(Kind::Info, "breaker_trips", drill.trips)
        .record(Kind::Info, "breaker_fast_fails", drill.fast_fails)
        .record(Kind::Info, "breaker_probes", drill.probes)
        .record(Kind::Info, "breaker_recoveries", drill.recoveries)
        .record(Kind::Info, "drill_retry_attempts", drill.retry_attempts)
        .record(
            Kind::Info,
            "drill_retry_deadline_exhausted",
            drill.deadline_exhausted,
        )
        .check(
            drill.exact(),
            format_args!(
                "the breaker drill's counters land on their manual-clock constants: {drill:?}"
            ),
        );
    json.finish(&args);
}
