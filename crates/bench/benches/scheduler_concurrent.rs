//! Fetch scheduling under pressure: navigation latency next to busy sibling
//! sessions, speculative-prefetch speedup, and the prefetch mediation oracle.
//!
//! Run with `cargo bench --bench scheduler_concurrent` (optionally
//! `-- --threads N --navigations V --passes P --json path`). This is a plain
//! `harness = false` binary; it exits non-zero if a behavioural gate fails:
//!
//! * **sibling-load gate** — p99 navigation latency while N sibling sessions
//!   flood the same fabric with bulk image page loads must stay within **2×**
//!   the unloaded p99. Page loads run every subresource plan as a deadline
//!   window, so each session waits on its own thread and the sessions share
//!   only the fabric's locks and the CPU; on a host without two hardware
//!   threads the siblings and the navigator timeshare one core and the ratio
//!   measures the OS scheduler, so the gate degrades to observability with
//!   the reason printed,
//! * **prefetch gate** — with a `rel=prefetch` hint and 200µs origin latency,
//!   the hinted repeat navigation must be at least **1.3×** faster with
//!   speculation enabled, and every pass must consume its prefetch-cache hit,
//! * **oracle gate** — the same navigation sequence with prefetch on vs off
//!   must produce **byte-identical** sequence-sorted request logs and
//!   per-subresource attached cookie names: speculation may change when bytes
//!   move, never what ESCUDO decides,
//! * **isolation gate** — N prefetching sessions sharing one fabric + jar +
//!   engine must show **zero** cross-session cookie leakage; the prefetch
//!   cache's mediation-plan key (the exact cookie header) is what makes this
//!   hold.

use std::time::Duration;

use escudo_bench::cli::{parse_flag, JsonReport};
use escudo_bench::scheduler::{
    run_navigation_storm_best_of, run_prefetch_oracle, run_prefetch_sessions, run_prefetch_speedup,
};

/// Maximum loaded-over-unloaded p99 navigation-latency ratio under the storm.
const MAX_LOADED_P99_RATIO: f64 = 2.0;

/// Minimum cold-over-warm speedup of the hinted repeat navigation.
const MIN_PREFETCH_SPEEDUP: f64 = 1.3;

/// Per-origin simulated latency of the prefetch-speedup gate (the acceptance
/// criterion is specified at 200µs).
const PREFETCH_GATE_LATENCY: Duration = Duration::from_micros(200);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bulk_sessions = parse_flag(&args, "--threads", 8).max(1);
    let navigations = parse_flag(&args, "--navigations", 60).max(10);
    let passes = parse_flag(&args, "--passes", 30).max(3);
    println!(
        "scheduler_concurrent: {bulk_sessions} bulk storm sessions, {navigations} timed \
         navigations, {passes} prefetch passes"
    );

    let mut failed = false;
    let mut json = JsonReport::new("scheduler_concurrent");
    json.int("bulk_sessions", bulk_sessions as u64)
        .int("navigations", navigations as u64)
        .int("prefetch_passes", passes as u64);

    // ------------------------------------------------- sibling-load gate
    let storm = run_navigation_storm_best_of(bulk_sessions, navigations, 3);
    println!(
        "navigation p99 (best of {}): {} ns unloaded (±{}), {} ns next to {} busy sibling \
         sessions (±{}) — {:.2}x",
        storm.repeats,
        storm.unloaded_p99_ns,
        storm.unloaded_p99_spread_ns,
        storm.loaded_p99_ns,
        storm.bulk_sessions,
        storm.loaded_p99_spread_ns,
        storm.p99_ratio()
    );
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json.int("nav_unloaded_p99_ns", storm.unloaded_p99_ns)
        .int("nav_unloaded_p99_ns_spread", storm.unloaded_p99_spread_ns)
        .int("nav_loaded_p99_ns", storm.loaded_p99_ns)
        .int("nav_loaded_p99_ns_spread", storm.loaded_p99_spread_ns)
        .num("nav_p99_ratio", storm.p99_ratio())
        .num("nav_p99_ratio_spread", storm.ratio_spread)
        .int("hardware_threads", hardware_threads as u64);
    if hardware_threads < 2 {
        println!(
            "note: single hardware thread — the storm and the navigator timeshare one core, \
             so the p99 ratio measures the OS scheduler, not the fabric; sibling-load gate skipped"
        );
    } else if storm.p99_ratio() <= MAX_LOADED_P99_RATIO {
        println!(
            "ok: navigation p99 next to busy siblings within {:.1}x of unloaded",
            MAX_LOADED_P99_RATIO
        );
    } else {
        eprintln!(
            "FAIL: navigation p99 degraded {:.2}x next to busy siblings (gate: ≤ \
             {MAX_LOADED_P99_RATIO:.1}x) — the sessions contend for more than the CPU",
            storm.p99_ratio()
        );
        failed = true;
    }

    // ------------------------------------------------- prefetch-speedup gate
    let speedup = run_prefetch_speedup(PREFETCH_GATE_LATENCY, passes);
    println!(
        "hinted repeat navigation at {}µs origin latency: {:.0} ns cold, {:.0} ns \
         prefetched ({:.2}x, {} hits / {} passes)",
        PREFETCH_GATE_LATENCY.as_micros(),
        speedup.cold_ns,
        speedup.warm_ns,
        speedup.speedup(),
        speedup.hits,
        speedup.passes
    );
    json.num("prefetch_cold_ns", speedup.cold_ns)
        .num("prefetch_warm_ns", speedup.warm_ns)
        .num("prefetch_speedup", speedup.speedup())
        .int("prefetch_hits", speedup.hits);
    if speedup.hits as usize != speedup.passes {
        eprintln!(
            "FAIL: only {} of {} hinted repeat navigations hit the prefetch cache",
            speedup.hits, speedup.passes
        );
        failed = true;
    }
    if speedup.speedup() >= MIN_PREFETCH_SPEEDUP {
        println!(
            "ok: speculative prefetch speeds the hinted navigation up {:.2}x (gate: ≥ \
             {MIN_PREFETCH_SPEEDUP:.1}x)",
            speedup.speedup()
        );
    } else {
        eprintln!(
            "FAIL: prefetch only {:.2}x on the hinted repeat navigation (gate: ≥ \
             {MIN_PREFETCH_SPEEDUP:.1}x)",
            speedup.speedup()
        );
        failed = true;
    }

    // ------------------------------------------------- mediation-oracle gate
    let oracle = run_prefetch_oracle(3);
    println!(
        "prefetch oracle: {} log entries, {} log mismatches, {} attachment mismatches, \
         {} hits consumed on the speculative side",
        oracle.requests, oracle.log_mismatches, oracle.attachment_mismatches, oracle.prefetch_hits
    );
    json.int("oracle_requests", oracle.requests as u64)
        .int("oracle_log_mismatches", oracle.log_mismatches as u64)
        .int(
            "oracle_attachment_mismatches",
            oracle.attachment_mismatches as u64,
        )
        .int("oracle_prefetch_hits", oracle.prefetch_hits);
    if oracle.log_mismatches != 0 || oracle.attachment_mismatches != 0 {
        eprintln!(
            "FAIL: prefetch changed what the fabric saw (log {} / attachments {}) — \
             speculation must never alter a mediation outcome",
            oracle.log_mismatches, oracle.attachment_mismatches
        );
        failed = true;
    }

    // ------------------------------------------------- shared-fabric isolation gate
    let isolation = run_prefetch_sessions(bulk_sessions.min(8), 3);
    println!(
        "prefetching sessions on one fabric: {} sessions, {} logged requests, {} sessions \
         attached their own cookie, {} cross-session leaks, {} hits, {} stale plans discarded",
        isolation.sessions,
        isolation.requests,
        isolation.sessions_with_cookies,
        isolation.isolation_violations,
        isolation.prefetch_hits,
        isolation.stale_discards
    );
    json.int("isolation_sessions", isolation.sessions as u64)
        .int(
            "isolation_violations",
            isolation.isolation_violations as u64,
        )
        .int("isolation_prefetch_hits", isolation.prefetch_hits)
        .int("isolation_stale_discards", isolation.stale_discards);
    if isolation.isolation_violations != 0 {
        eprintln!(
            "FAIL: {} cookies leaked across prefetching sessions sharing one fabric",
            isolation.isolation_violations
        );
        failed = true;
    }
    if isolation.sessions_with_cookies != isolation.sessions {
        eprintln!(
            "FAIL: only {} of {} prefetching sessions attached their session cookie",
            isolation.sessions_with_cookies, isolation.sessions
        );
        failed = true;
    }

    json.flag("gates_passed", !failed);
    json.write_if_requested(&args);
    if failed {
        std::process::exit(1);
    }
}
