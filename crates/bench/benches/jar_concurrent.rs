//! Concurrent throughput of the shared, host-sharded cookie jar: N OS threads
//! building `Cookie` headers against one [`SharedCookieJar`].
//!
//! Run with `cargo bench --bench jar_concurrent` (optionally
//! `-- --threads N --passes K --json path`). This is a plain `harness = false`
//! binary; it reports aggregate header builds/second at 1/2/4/8 threads and
//! exits non-zero if the gate fails:
//!
//! * multi-thread aggregate header-build throughput must not collapse below 85% of
//!   single-thread (no global-lock convoy: the host-sharded jar keeps sessions off
//!   each other's locks).
//!
//! The jar's deterministic gates are tier-1 tests in
//! `escudo_bench::concurrent`: `jar_oracle_run_is_byte_identical_single_threaded_and_concurrent`
//! (8 sessions × 25 rounds byte-identical to the single-threaded `CookieJar`
//! replay) and `shared_jar_sessions_stay_isolated_per_host` (full-browser
//! sessions on one jar, zero cross-session leakage).
//!
//! [`SharedCookieJar`]: escudo_net::SharedCookieJar

use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_bench::concurrent::measure_jar_throughput;
use escudo_bench::measure::{best_of, Rate};

/// Fraction of single-thread throughput the multi-thread aggregate must retain.
/// A single-mutex jar loses far more than this to lock convoying once threads
/// contend; scheduler noise on a shared runner loses far less.
const NO_COLLAPSE_FRACTION: f64 = 0.85;

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

    json.finish(&args);
}
