//! Concurrent decision throughput of the engine: N OS threads hammering one
//! shared ESCUDO [`RuleEngine`] with the standard decision workload.
//!
//! Run with `cargo bench --bench policy_concurrent` (optionally
//! `-- --threads N --passes K --json path`). This is a plain `harness = false`
//! binary; it reports aggregate decisions/second at 1/2/4/8 threads and exits
//! non-zero if the **no-collapse gate** fails: multi-thread aggregate throughput
//! must not collapse below single-thread throughput (shared state on the
//! decision path would convoy threads). A small tolerance absorbs scheduler
//! noise on starved CI runners; the strict comparison is printed either way.
//!
//! The end-to-end multi-session workload (forum, blog and calendar sessions on
//! one engine, with exact decision counts) is the tier-1 test
//! `concurrent::tests::concurrent_sessions_share_one_engine_and_all_load`.
//!
//! [`RuleEngine`]: escudo_core::RuleEngine

use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_bench::concurrent::measure_concurrent_throughput;
use escudo_bench::measure::{best_of, Rate};
use escudo_bench::workload::decision_workload;

/// Fraction of single-thread throughput the multi-thread aggregate must retain.
/// A global-mutex engine loses far more than this to lock convoying once threads
/// contend; scheduler noise on a shared runner loses far less.
const NO_COLLAPSE_FRACTION: f64 = 0.85;

fn report_line(rate: &Rate) {
    println!(
        "  {: >2} thread(s)  {: >9.1} ns/decision  {: >12.0} decisions/s",
        rate.width,
        rate.ns_per_op(),
        rate.per_sec(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_threads = parse_flag(&args, "--threads", 8).max(1);
    // Total passes over the workload per timed window, *split across* the threads —
    // every thread count does the same total work, so the timed windows have equal
    // duration and best-of-N sampling is unbiased across configurations (shorter
    // windows have noisier minima, which would flatter the single-thread baseline).
    let total_passes = parse_flag(&args, "--passes", 800).max(1);

    // Same shape as `policy_decide`: 24 × 24 distinct context pairs, 3 ops.
    let workload = decision_workload(24, 24);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|t| *t <= max_threads)
        .collect();
    println!(
        "policy_concurrent: {} checks/pass, {total_passes} passes split per thread count, \
         threads {:?}",
        workload.len(),
        thread_counts
    );

    // Warm-up pass for allocator and branch predictors before any timed window.
    let _ = measure_concurrent_throughput(&workload, 1, total_passes / 4);

    println!("aggregate decision throughput (shared engine):");
    let mut samples = Vec::new();
    for &threads in &thread_counts {
        let passes = (total_passes / threads).max(1);
        let (rate, _) = best_of(
            (0..5).map(|_| measure_concurrent_throughput(&workload, threads, passes)),
            Rate::ns_per_op,
        );
        report_line(&rate);
        samples.push(rate);
    }

    // ------------------------------------------------------------- behavioural gate
    let mut json = JsonReport::new("policy_concurrent");
    for rate in &samples {
        json.record(
            Kind::Higher,
            &format!("decisions_per_sec_t{}", rate.width),
            rate.per_sec(),
        );
    }

    let gate_samples: Vec<(usize, f64)> = samples
        .iter()
        .map(|rate| (rate.width, rate.per_sec()))
        .collect();
    json.no_collapse_gate("decision", &gate_samples, NO_COLLAPSE_FRACTION);

    json.finish(&args);
}
