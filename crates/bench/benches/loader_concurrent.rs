//! Pipelined-vs-sequential subresource loading over the shared network fabric:
//! page loads whose `img` fetches overlap in a bounded deadline window, against
//! the sequential oracle (a window of width 1).
//!
//! Run with `cargo bench --bench loader_concurrent` (optionally
//! `-- --images K --passes P --json path`). This is a plain `harness = false`
//! binary; it reports ns/page at both worker bounds under simulated latency and
//! at zero latency, and exits non-zero if a timing gate fails:
//!
//! * with ≥ 100µs per-origin latency and ≥ 8 images, the pipelined page load must
//!   be at least **2× faster** than the sequential oracle (the fan-out must
//!   actually overlap the service times),
//! * with zero latency the pipelined loader must not regress below **90%** of
//!   sequential throughput (a due request completes before the next send, so
//!   the window runs memory-speed pages in plan order),
//! * at a small per-origin latency the pipelined loader must likewise stay
//!   above **90%** of sequential (catches window machinery regressions that
//!   only show once requests actually wait).
//!
//! The loader's deterministic gates are tier-1 tests in
//! `tests/pipelined_loader.rs`: `pipelined_run_matches_the_sequential_oracle_byte_for_byte`
//! (the transcript oracle) and `eight_sessions_sharing_one_fabric_stay_isolated`
//! (shared-fabric isolation).

use std::time::Duration;

use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_bench::loader::measure_page_loads;
use escudo_bench::measure::{best_of, Rate};

/// Minimum pipelined-over-sequential speedup required under simulated latency.
const MIN_LATENCY_SPEEDUP: f64 = 2.0;

/// Fraction of sequential throughput the pipelined loader must retain at zero
/// latency.
const NO_REGRESSION_FRACTION: f64 = 0.9;

/// Per-origin simulated latency of the speedup gate (the acceptance criterion is
/// specified at ≥ 100µs).
const GATE_LATENCY: Duration = Duration::from_micros(200);

/// A small per-origin latency at which requests really wait: the window keeps
/// several in flight here, so this gate — unlike the zero-latency one, where
/// every request is due at once and the window runs in plan order — catches
/// regressions in the window machinery itself (send bookkeeping, due-order
/// completion, slot recording) on a page whose waits are short.
const EDGE_LATENCY: Duration = Duration::from_micros(25);

fn report_line(label: &str, rate: &Rate) {
    println!(
        "  {label:<28} {: >2} worker(s)  {: >11.0} ns/page  {: >9.0} pages/s",
        rate.width,
        rate.ns_per_op(),
        rate.per_sec(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let images = parse_flag(&args, "--images", 8).max(8);
    let passes = parse_flag(&args, "--passes", 30).max(2);
    let origins = images.min(8);
    println!(
        "loader_concurrent: {images} images over {origins} origins, {passes} passes per sample"
    );

    // Best of three page-load samples at a latency and in-flight bound.
    let best_loads = |latency: Duration, workers: usize| {
        let samples = (0..3).map(|_| measure_page_loads(images, origins, latency, workers, passes));
        best_of(samples, Rate::ns_per_op).0
    };

    let mut json = JsonReport::new("loader_concurrent");
    json.record(Kind::Info, "images", images)
        .record(Kind::Info, "origins", origins)
        .record(
            Kind::Info,
            "gate_latency_us",
            GATE_LATENCY.as_micros() as u64,
        )
        .record(
            Kind::Info,
            "edge_latency_us",
            EDGE_LATENCY.as_micros() as u64,
        );

    // ------------------------------------------------- latency speedup gate
    println!(
        "page loads at {}µs per-origin latency:",
        GATE_LATENCY.as_micros()
    );
    let sequential = best_loads(GATE_LATENCY, 1);
    report_line("sequential oracle", &sequential);
    let pipelined = best_loads(GATE_LATENCY, 8);
    report_line("pipelined (8 workers)", &pipelined);
    let speedup = sequential.ns_per_op() / pipelined.ns_per_op();
    json.record(
        Kind::LowerNs,
        "sequential_ns_per_page",
        sequential.ns_per_op(),
    )
    .record(
        Kind::LowerNs,
        "pipelined_ns_per_page",
        pipelined.ns_per_op(),
    )
    .record(Kind::Higher, "latency_speedup", speedup)
    .check(
        speedup >= MIN_LATENCY_SPEEDUP,
        format_args!(
            "pipelined page load {speedup:.2}x sequential under {}µs latency (gate: ≥ \
             {MIN_LATENCY_SPEEDUP:.1}x)",
            GATE_LATENCY.as_micros()
        ),
    );

    // ------------------------------------------------- zero-latency overhead gate
    println!("page loads at zero latency:");
    let sequential0 = best_loads(Duration::ZERO, 1);
    report_line("sequential oracle", &sequential0);
    let pipelined0 = best_loads(Duration::ZERO, 8);
    report_line("pipelined (8 workers)", &pipelined0);
    let retained = pipelined0.per_sec() / sequential0.per_sec();
    json.record(Kind::Higher, "zero_latency_retained", retained)
        .check(
            retained >= NO_REGRESSION_FRACTION,
            format_args!(
                "pipelined retains {:.0}% of sequential throughput at zero latency (gate: ≥ \
                 {:.0}%, or fan-out overhead regressed)",
                retained * 100.0,
                NO_REGRESSION_FRACTION * 100.0
            ),
        );

    // ------------------------------------------------- fan-out-engaged edge gate
    println!(
        "page loads at {}µs per-origin latency (short waits):",
        EDGE_LATENCY.as_micros()
    );
    let sequential_edge = best_loads(EDGE_LATENCY, 1);
    report_line("sequential oracle", &sequential_edge);
    let pipelined_edge = best_loads(EDGE_LATENCY, 8);
    report_line("pipelined (8 workers)", &pipelined_edge);
    let retained_edge = pipelined_edge.per_sec() / sequential_edge.per_sec();
    json.record(Kind::Higher, "edge_retained", retained_edge)
        .check(
            retained_edge >= NO_REGRESSION_FRACTION,
            format_args!(
                "engaged fan-out sustains {:.0}% of sequential throughput at short waits \
                 (gate: ≥ {:.0}%, or deadline-window overhead regressed)",
                retained_edge * 100.0,
                NO_REGRESSION_FRACTION * 100.0
            ),
        );

    json.finish(&args);
}
