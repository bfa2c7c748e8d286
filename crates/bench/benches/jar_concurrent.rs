//! Concurrent throughput and correctness of the shared, host-sharded cookie jar:
//! N OS threads building `Cookie` headers against one [`SharedCookieJar`], plus the
//! end-to-end shared-jar multi-session browser workload and the single-threaded
//! oracle equivalence check.
//!
//! Run with `cargo bench --bench jar_concurrent` (optionally
//! `-- --threads N --passes K`). This is a plain `harness = false` binary; it
//! reports aggregate header builds/second at 1/2/4/8 threads and exits non-zero if
//! the behavioural gate fails:
//!
//! * multi-thread aggregate header-build throughput must not collapse below 85% of
//!   single-thread (no global-lock convoy: the host-sharded jar keeps sessions off
//!   each other's locks),
//! * the 8-thread shared-jar session run must be **byte-identical** to a
//!   single-threaded `CookieJar` oracle replaying each session's operations, and
//! * the full-browser shared-jar workload must attach every session's cookies with
//!   zero cross-session (cross-host) leakage.

use std::sync::Arc;

use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_bench::concurrent::{
    measure_jar_throughput, run_jar_oracle_sessions, run_shared_jar_sessions,
};
use escudo_bench::measure::{best_of, Rate};
use escudo_core::EscudoEngine;
use escudo_net::SharedCookieJar;

/// Fraction of single-thread throughput the multi-thread aggregate must retain.
/// A single-mutex jar loses far more than this to lock convoying once threads
/// contend; scheduler noise on a shared runner loses far less.
const NO_COLLAPSE_FRACTION: f64 = 0.85;

/// Thread count of the oracle equivalence run (the acceptance gate is specified at
/// 8 threads regardless of how many threads the throughput sweep covers).
const ORACLE_THREADS: usize = 8;

fn report_line(rate: &Rate) {
    println!(
        "  {: >2} thread(s)  {: >9.1} ns/header  {: >12.0} headers/s",
        rate.width,
        rate.ns_per_op(),
        rate.per_sec(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_threads = parse_flag(&args, "--threads", 8).max(1);
    // Total passes over the request-URL list per timed window, *split across* the
    // threads — every thread count does the same total work, so the timed windows
    // have equal duration and best-of-N sampling is unbiased across configurations.
    let total_passes = parse_flag(&args, "--passes", 400).max(1);

    // 16 hosts × 6 cookies under mixed path scopes; 2 request URLs per host.
    const HOSTS: usize = 16;
    const COOKIES_PER_HOST: usize = 6;
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|t| *t <= max_threads)
        .collect();
    println!(
        "jar_concurrent: {HOSTS} hosts x {COOKIES_PER_HOST} cookies, {} headers/pass, \
         {total_passes} passes split per thread count, threads {thread_counts:?}",
        HOSTS * 2
    );

    // Warm-up pass for allocator and branch predictors before any timed window.
    let _ = measure_jar_throughput(HOSTS, COOKIES_PER_HOST, 1, total_passes / 4);

    println!("aggregate Cookie-header build throughput (shared host-sharded jar):");
    let mut samples = Vec::new();
    for &threads in &thread_counts {
        let passes = (total_passes / threads).max(1);
        let (rate, _) = best_of(
            (0..5).map(|_| measure_jar_throughput(HOSTS, COOKIES_PER_HOST, threads, passes)),
            Rate::ns_per_op,
        );
        report_line(&rate);
        samples.push(rate);
    }

    // ------------------------------------------------------------- behavioural gate
    let mut json = JsonReport::new("jar_concurrent");
    for rate in &samples {
        json.record(
            Kind::Higher,
            &format!("headers_per_sec_t{}", rate.width),
            rate.per_sec(),
        );
    }
    let gate_samples: Vec<(usize, f64)> = samples
        .iter()
        .map(|rate| (rate.width, rate.per_sec()))
        .collect();
    json.no_collapse_gate("header", &gate_samples, NO_COLLAPSE_FRACTION);

    // --------------------------------------------------- single-threaded oracle gate
    let oracle = run_jar_oracle_sessions(ORACLE_THREADS, 25);
    println!(
        "oracle equivalence: {} sessions, {} headers, {} mismatches vs the single-threaded \
         CookieJar replay",
        oracle.threads, oracle.headers, oracle.mismatches
    );
    json.record(Kind::Info, "oracle_headers", oracle.headers)
        .zero("oracle_mismatches", oracle.mismatches);

    // --------------------------------------------- end-to-end shared-jar sessions
    let session_threads = max_threads.clamp(2, 4);
    let engine = Arc::new(EscudoEngine::new());
    let jar = Arc::new(SharedCookieJar::new());
    let report = run_shared_jar_sessions(&engine, &jar, session_threads, 3);
    let stats = &report.jar_stats;
    println!(
        "shared-jar sessions: {} sessions x {} rounds, {} page loads, {} checks \
         ({} denials), jar {} stored / {} replaced / {} evicted over {} shards",
        report.sessions.threads,
        report.sessions.rounds,
        report.sessions.page_loads(),
        report.sessions.checks(),
        report.sessions.denials(),
        stats.stored,
        stats.replaced,
        stats.evicted,
        stats.shards.len(),
    );
    json.check(
        report.sessions_with_cookies == report.sessions.threads,
        format_args!(
            "{} of {} shared-jar sessions established their session cookie",
            report.sessions_with_cookies, report.sessions.threads
        ),
    );
    json.zero("session_isolation_violations", report.isolation_violations)
        .record(Kind::Info, "jar_stored", stats.stored)
        .record(Kind::Info, "jar_replaced", stats.replaced)
        .record(Kind::Info, "jar_evicted", stats.evicted);
    json.finish(&args);
}
