//! The scenario fleet as a behavioural benchmark: the full
//! (app × attack × policy-mode) matrix, gated cell by cell.
//!
//! Run with `cargo bench --bench scenario_matrix` (optionally
//! `-- --repeats N --json path`). This is a plain `harness = false` binary; it
//! exits non-zero if a behavioural gate fails:
//!
//! * **verdict gate** — every cell of the registry matrix must land on its
//!   declared verdict: attacks succeed under the same-origin baseline and are
//!   neutralized under ESCUDO, compatibility probes keep working under both.
//!   **Zero** unexpected cells,
//! * **mediation gate** — the ESCUDO half of the matrix must actually mediate
//!   (non-zero reference-monitor checks and denials), and the baseline half
//!   must not deny anything the registry expects to succeed.
//!
//! The report exports per-mode verdict counts, per-scenario cell counts and
//! the mediation cost (checks/denials per mode, wall-clock per full matrix
//! pass) as `--json` keys.

use std::time::Instant;

use escudo_apps::scenario::{registry, CaseKind, MatrixReport};
use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_browser::PolicyMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let repeats = parse_flag(&args, "--repeats", 3).max(1);

    let scenarios = registry();
    let case_count: usize = scenarios.iter().map(|s| s.cases.len()).sum();
    println!(
        "scenario_matrix: {} scenarios, {case_count} cases, 2 policy modes, {repeats} repeats",
        scenarios.len()
    );

    // Repeated full passes give a stable wall-clock figure; the verdicts must
    // be identical on every pass (the staging is deterministic), so the last
    // report is the one gated and exported.
    let started = Instant::now();
    let mut report = MatrixReport::run(&scenarios);
    for _ in 1..repeats {
        report = MatrixReport::run(&scenarios);
    }
    let elapsed = started.elapsed();
    let per_pass_ms = elapsed.as_secs_f64() * 1e3 / repeats as f64;

    let mut json = JsonReport::new("scenario_matrix");
    json.record(Kind::Info, "matrix_scenarios", scenarios.len())
        .record(Kind::Info, "matrix_cases", case_count)
        .record(Kind::Info, "matrix_cells", report.cells())
        .record(Kind::Info, "matrix_repeats", repeats)
        .record(Kind::Info, "matrix_pass_ms", per_pass_ms);

    // ----------------------------------------------------------- verdict gate
    for outcome in report.unexpected() {
        eprintln!("unexpected cell: {outcome}");
    }
    json.zero("matrix_unexpected", report.unexpected().len());
    for scenario in &scenarios {
        let cells = report.for_scenario(scenario.id);
        let unexpected = cells.iter().filter(|o| !o.as_expected()).count();
        println!(
            "  {:<10} {:>2} cells, {} unexpected",
            scenario.id,
            cells.len(),
            unexpected
        );
        let key = |suffix: &str| format!("matrix_{}_{suffix}", scenario.id);
        json.record(Kind::Info, &key("cells"), cells.len())
            .zero(&key("unexpected"), unexpected);
    }

    for (mode, prefix) in [
        (PolicyMode::SameOriginOnly, "sop"),
        (PolicyMode::Escudo, "escudo"),
    ] {
        println!(
            "  {:<12} {:>2} succeed / {:>2} neutralized   {:>5} checks, {:>3} denials",
            mode.to_string(),
            report.successes(mode),
            report.neutralized(mode),
            report.total_checks(mode),
            report.total_denials(mode)
        );
        let key = |suffix: &str| format!("{prefix}_{suffix}");
        json.record(Kind::Info, &key("successes"), report.successes(mode))
            .record(Kind::Info, &key("neutralized"), report.neutralized(mode))
            .record(Kind::Info, &key("checks"), report.total_checks(mode))
            .record(Kind::Info, &key("denials"), report.total_denials(mode));
    }

    // --------------------------------------------------------- mediation gate
    let (checks, denials) = (
        report.total_checks(PolicyMode::Escudo),
        report.total_denials(PolicyMode::Escudo),
    );
    json.check(
        checks != 0 && denials != 0,
        format_args!(
            "the ESCUDO half of the matrix recorded {checks} checks and {denials} denials \
             (gate: both non-zero, or the reference monitor is not mediating the fleet)"
        ),
    );
    // Baseline attack cells that deviated: the SOP baseline blocking what it
    // should admit.
    let sop_attack_deviations = report
        .for_mode(PolicyMode::SameOriginOnly)
        .iter()
        .filter(|o| o.kind != CaseKind::Probe && o.observed != o.expected)
        .count();
    json.zero("sop_attack_deviations", sop_attack_deviations);

    json.finish(&args);
}
