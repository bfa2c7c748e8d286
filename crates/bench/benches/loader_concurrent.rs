//! Pipelined-vs-sequential subresource loading over the shared network fabric:
//! page loads whose `img` fetches overlap in a bounded deadline window, against
//! the sequential oracle (a window of width 1).
//!
//! Run with `cargo bench --bench loader_concurrent` (optionally
//! `-- --threads N --images K --passes P`). This is a plain `harness = false`
//! binary; it reports ns/page at both worker bounds under simulated latency and
//! at zero latency, and exits non-zero if a behavioural gate fails:
//!
//! * with ≥ 100µs per-origin latency and ≥ 8 images, the pipelined page load must
//!   be at least **2× faster** than the sequential oracle (the fan-out must
//!   actually overlap the service times),
//! * with zero latency the pipelined loader must not regress below **90%** of
//!   sequential throughput (a due request completes before the next send, so
//!   the window runs memory-speed pages in plan order),
//! * at a small per-origin latency the pipelined loader must likewise stay
//!   above **90%** of sequential (catches window machinery regressions that
//!   only show once requests actually wait),
//! * the sequence-sorted request log of a pipelined run under *reverse-skewed*
//!   latency must be **byte-identical** to the sequential oracle's, attached
//!   cookie names included, and per-subresource outcomes must be recorded in
//!   document order,
//! * N sessions sharing one fabric + jar + engine must show **zero** cross-session
//!   cookie leakage in the shared log.

use std::time::Duration;

use escudo_bench::cli::{parse_flag, JsonReport};
use escudo_bench::loader::{
    best_page_loads, run_loader_oracle, run_shared_fabric_sessions, LoaderSample,
};

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

fn report_line(label: &str, sample: &LoaderSample) {
    println!(
        "  {label:<28} {: >2} worker(s)  {: >11.0} ns/page  {: >9.0} pages/s",
        sample.workers,
        sample.ns_per_page(),
        sample.pages_per_sec(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sessions = parse_flag(&args, "--threads", 8).max(1);
    let images = parse_flag(&args, "--images", 8).max(8);
    let passes = parse_flag(&args, "--passes", 30).max(2);
    let origins = images.min(8);
    println!(
        "loader_concurrent: {images} images over {origins} origins, {passes} passes per sample, \
         {sessions} shared-fabric sessions"
    );

    let mut failed = false;

    // ------------------------------------------------- latency speedup gate
    println!(
        "page loads at {}µs per-origin latency:",
        GATE_LATENCY.as_micros()
    );
    let sequential = best_page_loads(images, origins, GATE_LATENCY, 1, passes, 3);
    report_line("sequential oracle", &sequential);
    let pipelined = best_page_loads(images, origins, GATE_LATENCY, 8, passes, 3);
    report_line("pipelined (8 workers)", &pipelined);
    let speedup = sequential.ns_per_page() / pipelined.ns_per_page();
    if speedup >= MIN_LATENCY_SPEEDUP {
        println!("ok: pipelined page load {speedup:.2}x sequential under latency");
    } else {
        eprintln!(
            "FAIL: pipelined page load only {speedup:.2}x sequential under \
             {}µs latency (gate: ≥ {MIN_LATENCY_SPEEDUP:.1}x)",
            GATE_LATENCY.as_micros()
        );
        failed = true;
    }

    // ------------------------------------------------- zero-latency overhead gate
    println!("page loads at zero latency:");
    let sequential0 = best_page_loads(images, origins, Duration::ZERO, 1, passes, 3);
    report_line("sequential oracle", &sequential0);
    let pipelined0 = best_page_loads(images, origins, Duration::ZERO, 8, passes, 3);
    report_line("pipelined (8 workers)", &pipelined0);
    let retained = pipelined0.pages_per_sec() / sequential0.pages_per_sec();
    if retained >= NO_REGRESSION_FRACTION {
        println!(
            "ok: pipelined retains {:.0}% of sequential throughput at zero latency",
            retained * 100.0
        );
    } else {
        eprintln!(
            "FAIL: pipelined loader at zero latency fell to {:.0}% of sequential \
             throughput (gate: ≥ {:.0}%) — fan-out overhead regression",
            retained * 100.0,
            NO_REGRESSION_FRACTION * 100.0
        );
        failed = true;
    }

    // ------------------------------------------------- fan-out-engaged edge gate
    println!(
        "page loads at {}µs per-origin latency (short waits):",
        EDGE_LATENCY.as_micros()
    );
    let sequential_edge = best_page_loads(images, origins, EDGE_LATENCY, 1, passes, 3);
    report_line("sequential oracle", &sequential_edge);
    let pipelined_edge = best_page_loads(images, origins, EDGE_LATENCY, 8, passes, 3);
    report_line("pipelined (8 workers)", &pipelined_edge);
    let retained_edge = pipelined_edge.pages_per_sec() / sequential_edge.pages_per_sec();
    if retained_edge >= NO_REGRESSION_FRACTION {
        println!(
            "ok: engaged fan-out sustains {retained_edge:.2}x sequential throughput \
             at short waits"
        );
    } else {
        eprintln!(
            "FAIL: engaged fan-out at short waits fell to {:.0}% of sequential \
             throughput (gate: ≥ {:.0}%) — deadline-window overhead regression",
            retained_edge * 100.0,
            NO_REGRESSION_FRACTION * 100.0
        );
        failed = true;
    }

    // ------------------------------------------------- determinism oracle gate
    let oracle = run_loader_oracle(images, origins, 3);
    println!(
        "determinism oracle: {} log entries, {} log mismatches, {} attachment \
         mismatches, {} order violations vs the sequential replay",
        oracle.requests,
        oracle.log_mismatches,
        oracle.attachment_mismatches,
        oracle.order_violations
    );
    if oracle.log_mismatches != 0
        || oracle.attachment_mismatches != 0
        || oracle.order_violations != 0
    {
        eprintln!(
            "FAIL: pipelined run diverged from the sequential oracle (log {} / \
             attachments {} / order {})",
            oracle.log_mismatches, oracle.attachment_mismatches, oracle.order_violations
        );
        failed = true;
    }

    // ------------------------------------------------- shared-fabric isolation gate
    let isolation = run_shared_fabric_sessions(sessions, 4, 3);
    println!(
        "shared fabric: {} sessions, {} logged requests, {} sessions attached their \
         own cookie, {} cross-session leaks",
        isolation.sessions,
        isolation.requests,
        isolation.sessions_with_cookies,
        isolation.isolation_violations
    );
    if isolation.isolation_violations != 0 {
        eprintln!(
            "FAIL: {} cookies leaked across sessions sharing one fabric",
            isolation.isolation_violations
        );
        failed = true;
    }
    if isolation.sessions_with_cookies != isolation.sessions {
        eprintln!(
            "FAIL: only {} of {} shared-fabric sessions attached their session cookie \
             to their subresource fetches",
            isolation.sessions_with_cookies, isolation.sessions
        );
        failed = true;
    }

    let mut json = JsonReport::new("loader_concurrent");
    json.int("images", images as u64)
        .int("origins", origins as u64)
        .int("gate_latency_us", GATE_LATENCY.as_micros() as u64)
        .int("edge_latency_us", EDGE_LATENCY.as_micros() as u64)
        .num("sequential_ns_per_page", sequential.ns_per_page())
        .num("pipelined_ns_per_page", pipelined.ns_per_page())
        .num("latency_speedup", speedup)
        .num("zero_latency_retained", retained)
        .num("edge_retained", retained_edge)
        .int("oracle_log_mismatches", oracle.log_mismatches as u64)
        .int(
            "oracle_attachment_mismatches",
            oracle.attachment_mismatches as u64,
        )
        .int("oracle_order_violations", oracle.order_violations as u64)
        .int("isolation_sessions", isolation.sessions as u64)
        .int(
            "isolation_violations",
            isolation.isolation_violations as u64,
        )
        .flag("gates_passed", !failed);
    json.write_if_requested(&args);

    if failed {
        std::process::exit(1);
    }
}
