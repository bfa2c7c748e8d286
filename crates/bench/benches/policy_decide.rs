//! Microbenchmark of the policy-decision core: the raw decision procedure versus the
//! [`EscudoEngine`]'s cold (first-touch) and cached (repeated identical checks) paths,
//! plus batch mediation and the same-origin baseline.
//!
//! Run with `cargo bench --bench policy_decide`. This is a plain `harness = false`
//! binary (the container has no external bench harness); it reports nanoseconds per
//! decision and decisions per second for each path, and exits non-zero if the cached
//! path fails to beat the cold path on repeated identical checks.

use escudo_bench::cli::{JsonReport, Kind};
use escudo_bench::measure::{measure_decision_paths, DecisionReport};
use escudo_bench::workload::decision_workload;

fn report_line(name: &str, ns: f64) {
    println!(
        "  {name:<28} {ns:>9.1} ns/decision  {:>12.0} decisions/s",
        DecisionReport::per_second(ns)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // 24 × 24 distinct context pairs ≈ a heavy multi-region page; 3 ops interleaved.
    let workload = decision_workload(24, 24);
    println!(
        "policy_decide: {} checks per pass ({} principals × {} objects)",
        workload.len(),
        24,
        24
    );

    // Warm the allocator and branch predictors once before timing.
    let _ = measure_decision_paths(&workload, 1);
    let report = measure_decision_paths(&workload, 9);

    println!("cold vs cached decision paths:");
    report_line("escudo_engine_cold", report.cold_ns);
    report_line("escudo_engine_cached", report.cached_ns);
    report_line("escudo_engine_batch_cached", report.batch_cached_ns);
    report_line("decide_free_function", report.free_fn_ns);
    report_line("same_origin_baseline", report.sop_ns);
    println!(
        "  cached speedup over cold: {:.2}x (cache hit rate {:.1}%)",
        report.speedup(),
        report.hit_rate * 100.0
    );

    let mut json = JsonReport::new("policy_decide");
    json.record(Kind::LowerNs, "cold_ns_per_decision", report.cold_ns)
        .record(Kind::LowerNs, "cached_ns_per_decision", report.cached_ns)
        .record(
            Kind::LowerNs,
            "batch_cached_ns_per_decision",
            report.batch_cached_ns,
        )
        .record(Kind::LowerNs, "free_fn_ns_per_decision", report.free_fn_ns)
        .record(Kind::LowerNs, "sop_ns_per_decision", report.sop_ns)
        .record(Kind::Higher, "cached_speedup", report.speedup())
        .record(Kind::Higher, "hit_rate", report.hit_rate);

    // The hard gate is behavioural (cache hits actually happen on repeated identical
    // checks) — wall-clock comparisons stay informational so a noisy CI runner cannot
    // fail the build without a real defect.
    json.check(
        report.hit_rate >= 0.9,
        format_args!(
            "warm-engine cache hit rate {:.1}% on repeated identical checks (gate: ≥ 90%)",
            report.hit_rate * 100.0
        ),
    );
    if report.cached_ns >= report.cold_ns {
        eprintln!(
            "WARN: cached path ({:.1} ns) did not beat cold path ({:.1} ns) on this run \
             (timing noise?)",
            report.cached_ns, report.cold_ns
        );
    } else {
        println!("ok: cached path is measurably faster than cold");
    }
    json.finish(&args);
}
