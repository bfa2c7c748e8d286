//! Microbenchmark of the policy-decision core: the ESCUDO engine per check and
//! per batch, next to the raw decision procedure and the same-origin baseline.
//!
//! Run with `cargo bench --bench policy_decide`. This is a plain `harness = false`
//! binary (the container has no external bench harness); it reports nanoseconds per
//! decision and decisions per second for each path. It has no gate of its own:
//! the trajectory comparator judges the timings.

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

    println!("decision paths:");
    report_line("escudo_engine", report.engine_ns);
    report_line("escudo_engine_batch", report.batch_ns);
    report_line("decide_free_function", report.free_fn_ns);
    report_line("same_origin_baseline", report.sop_ns);

    let mut json = JsonReport::new("policy_decide");
    json.record(Kind::LowerNs, "engine_ns_per_decision", report.engine_ns)
        .record(Kind::LowerNs, "batch_ns_per_decision", report.batch_ns)
        .record(Kind::LowerNs, "free_fn_ns_per_decision", report.free_fn_ns)
        .record(Kind::LowerNs, "sop_ns_per_decision", report.sop_ns);
    json.finish(&args);
}
