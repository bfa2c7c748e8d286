//! Report types for every table and figure of the paper's evaluation.

use std::fmt;

use escudo_apps::evaluate::DefenseReport;
use escudo_apps::scenario::MatrixReport;
use escudo_apps::{CalendarApp, ForumApp, ForumConfig};
use escudo_browser::{Browser, PolicyMode};
use escudo_core::taxonomy;

use crate::measure::{measure_event_dispatch, measure_parse_render, SampleStats};
use crate::workload::{figure4_scenarios, generate_page};

// ------------------------------------------------------------------------ Figure 4

/// One scenario's row of Figure 4.
#[derive(Debug, Clone)]
pub struct Figure4Row {
    /// Scenario index (x axis).
    pub scenario: usize,
    /// Scenario name.
    pub name: String,
    /// Parse+render statistics without ESCUDO (SOP baseline).
    pub without_escudo: SampleStats,
    /// Parse+render statistics with ESCUDO.
    pub with_escudo: SampleStats,
    /// Relative overhead of the fastest ESCUDO load over the fastest SOP load, in
    /// percent.
    pub overhead_pct: f64,
}

/// The Figure 4 report: parse+render time per scenario, with and without ESCUDO.
#[derive(Debug, Clone)]
pub struct Figure4Report {
    /// Per-scenario rows.
    pub rows: Vec<Figure4Row>,
    /// Number of timed runs per scenario and mode.
    pub runs: usize,
    /// Mean of the per-scenario overheads, in percent (the paper reports 5.09%).
    pub average_overhead_pct: f64,
}

impl Figure4Report {
    /// Runs the experiment: `runs` timed loads of each of the 8 scenarios under each
    /// mode, the two modes interleaved (the paper averages over 90 executions).
    #[must_use]
    pub fn run(runs: usize) -> Self {
        let mut rows = Vec::new();
        for scenario in figure4_scenarios() {
            let html = generate_page(&scenario);
            let [without, with] = measure_parse_render(
                [PolicyMode::SameOriginOnly, PolicyMode::Escudo],
                &html,
                runs,
            );
            // Overhead is computed on the fastest load of each mode: host noise only
            // ever slows a load down, and a slow phase of the host can cover most
            // of a row's runs, which moves the median but rarely every run.
            let overhead_pct = if without.min_ns > 0 {
                (with.min_ns as f64 - without.min_ns as f64) / without.min_ns as f64 * 100.0
            } else {
                0.0
            };
            rows.push(Figure4Row {
                scenario: scenario.id,
                name: scenario.name.to_string(),
                without_escudo: without,
                with_escudo: with,
                overhead_pct,
            });
        }
        let average_overhead_pct =
            rows.iter().map(|r| r.overhead_pct).sum::<f64>() / rows.len() as f64;
        Figure4Report {
            rows,
            runs,
            average_overhead_pct,
        }
    }
}

impl fmt::Display for Figure4Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4 — parsing and rendering time (fastest of {} interleaved runs per scenario and mode)",
            self.runs
        )?;
        writeln!(
            f,
            "{:<4} {:<24} {:>16} {:>16} {:>10}",
            "#", "scenario", "without (ms)", "with ESCUDO (ms)", "overhead"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<4} {:<24} {:>16.3} {:>16.3} {:>9.2}%",
                row.scenario,
                row.name,
                row.without_escudo.min_ms(),
                row.with_escudo.min_ms(),
                row.overhead_pct
            )?;
        }
        writeln!(
            f,
            "average overhead: {:.2}%   (paper: 5.09% on the Lobo prototype)",
            self.average_overhead_pct
        )
    }
}

// ------------------------------------------------------------------------ UI events

/// The §6.5 UI-event measurement: per-dispatch time with and without ESCUDO.
#[derive(Debug, Clone)]
pub struct EventReport {
    /// Per-dispatch statistics without ESCUDO.
    pub without_escudo: SampleStats,
    /// Per-dispatch statistics with ESCUDO.
    pub with_escudo: SampleStats,
    /// Relative overhead in percent.
    pub overhead_pct: f64,
}

impl EventReport {
    /// Runs the experiment (`runs` dispatches per mode).
    #[must_use]
    pub fn run(runs: usize) -> Self {
        let html = generate_page(&figure4_scenarios()[4]);
        let without = measure_event_dispatch(PolicyMode::SameOriginOnly, &html, "action-0", runs);
        let with = measure_event_dispatch(PolicyMode::Escudo, &html, "action-0", runs);
        let overhead_pct = if without.mean_ns > 0.0 {
            (with.mean_ns - without.mean_ns) / without.mean_ns * 100.0
        } else {
            0.0
        };
        EventReport {
            without_escudo: without,
            with_escudo: with,
            overhead_pct,
        }
    }
}

impl fmt::Display for EventReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "UI-event handling (§6.5), {} dispatches per mode",
            self.without_escudo.runs
        )?;
        writeln!(
            f,
            "  without ESCUDO: {:>10.1} µs/dispatch",
            self.without_escudo.mean_ns / 1_000.0
        )?;
        writeln!(
            f,
            "  with ESCUDO:    {:>10.1} µs/dispatch",
            self.with_escudo.mean_ns / 1_000.0
        )?;
        writeln!(
            f,
            "  overhead:       {:>9.2}%   (paper: \"no noticeable overhead\")",
            self.overhead_pct
        )
    }
}

// ------------------------------------------------------------------------ §6.3 compat

/// The §6.3 compatibility experiment.
#[derive(Debug, Clone)]
pub struct CompatReport {
    /// ESCUDO-configured application on a non-ESCUDO browser: did it work?
    pub escudo_app_on_legacy_browser_works: bool,
    /// Legacy application on the ESCUDO browser: did it work (and collapse to SOP)?
    pub legacy_app_on_escudo_browser_works: bool,
    /// Denials recorded in either direction (should be zero).
    pub denials: u64,
}

impl CompatReport {
    /// Runs both directions of the compatibility experiment against the forum.
    #[must_use]
    pub fn run() -> Self {
        let mut denials = 0;

        let mut legacy_browser = Browser::new(PolicyMode::SameOriginOnly);
        legacy_browser.fabric().register(
            "http://forum.example",
            ForumApp::new(ForumConfig::default()),
        );
        legacy_browser
            .navigate("http://forum.example/login.php?user=alice")
            .expect("login");
        let page = legacy_browser
            .navigate("http://forum.example/index.php")
            .expect("index");
        let escudo_app_on_legacy_browser_works = legacy_browser.page(page).all_scripts_succeeded()
            && legacy_browser.page(page).text_of("app-status").as_deref() == Some("ready");
        denials += legacy_browser.erm().denials();

        let mut escudo_browser = Browser::new(PolicyMode::Escudo);
        escudo_browser
            .fabric()
            .register("http://forum.example", ForumApp::new(ForumConfig::legacy()));
        escudo_browser
            .navigate("http://forum.example/login.php?user=alice")
            .expect("login");
        let page = escudo_browser
            .navigate("http://forum.example/index.php")
            .expect("index");
        let legacy_app_on_escudo_browser_works = escudo_browser.page(page).legacy
            && escudo_browser.page(page).all_scripts_succeeded()
            && escudo_browser.page(page).text_of("app-status").as_deref() == Some("ready");
        denials += escudo_browser.erm().denials();

        CompatReport {
            escudo_app_on_legacy_browser_works,
            legacy_app_on_escudo_browser_works,
            denials,
        }
    }
}

impl fmt::Display for CompatReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Compatibility (§6.3)")?;
        writeln!(
            f,
            "  ESCUDO application on a non-ESCUDO browser: {}",
            if self.escudo_app_on_legacy_browser_works {
                "works (configuration ignored)"
            } else {
                "BROKEN"
            }
        )?;
        writeln!(
            f,
            "  legacy application on the ESCUDO browser:   {}",
            if self.legacy_app_on_escudo_browser_works {
                "works (collapses to the SOP)"
            } else {
                "BROKEN"
            }
        )?;
        writeln!(
            f,
            "  reference-monitor denials in either direction: {}",
            self.denials
        )
    }
}

// ------------------------------------------------------------------------ tables

/// Formats Table 1 (the principal/object taxonomy) from the model.
#[must_use]
pub fn format_table1() -> String {
    let mut out = String::from("Table 1 — principals and objects inside the web browser\n");
    for entry in taxonomy::table1() {
        out.push_str(&format!(
            "  {:<36} {:<34} {:?}{}\n",
            entry.category,
            entry.entity,
            entry.role,
            if entry.controllable_by_application {
                ""
            } else {
                "  (outside application control)"
            }
        ));
    }
    out
}

/// Formats Tables 2–5 (requirements and configurations of the two case studies).
#[must_use]
pub fn format_case_study_tables() -> String {
    let mut out = String::new();
    out.push_str("Table 2 — phpBB security requirements\n");
    for row in ForumApp::security_requirements() {
        out.push_str(&format!(
            "  {:<24} modify DOM: {:<5} cookies: {:<5} XMLHttpRequest: {}\n",
            row.principal,
            yes_no(row.modify_dom),
            yes_no(row.access_cookies),
            yes_no(row.access_xhr)
        ));
    }
    out.push_str("Table 3 — phpBB ESCUDO configuration\n");
    for row in ForumApp::escudo_config() {
        out.push_str(&format!(
            "  {:<24} ring {}   read ≤ {}   write ≤ {}\n",
            row.resource, row.ring, row.read, row.write
        ));
    }
    out.push_str("Table 4 — PHP-Calendar security requirements\n");
    for row in CalendarApp::security_requirements() {
        out.push_str(&format!(
            "  {:<24} modify DOM: {:<5} cookies: {:<5} XMLHttpRequest: {}\n",
            row.principal,
            yes_no(row.modify_dom),
            yes_no(row.access_cookies),
            yes_no(row.access_xhr)
        ));
    }
    out.push_str("Table 5 — PHP-Calendar ESCUDO configuration\n");
    for row in CalendarApp::escudo_config() {
        out.push_str(&format!(
            "  {:<24} ring {}   read ≤ {}   write ≤ {}\n",
            row.resource, row.ring, row.read, row.write
        ));
    }
    out
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Formats the §6.4 defense-effectiveness report.
#[must_use]
pub fn format_defense_report(report: &DefenseReport) -> String {
    let mut out = String::from("Defense effectiveness (§6.4)\n");
    out.push_str(&format!(
        "  attacks staged: {} (4 XSS + 5 CSRF per application)\n",
        report.results.len() / 2
    ));
    for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
        out.push_str(&format!(
            "  {:<12} {:>2} succeed / {:>2} neutralized\n",
            mode.to_string(),
            report.successes(mode),
            report.neutralized(mode)
        ));
    }
    out.push_str("  per attack:\n");
    for result in &report.results {
        if result.mode == PolicyMode::Escudo {
            out.push_str(&format!("    {result}\n"));
        }
    }
    out
}

/// Formats the full (app × attack × mode) scenario matrix.
#[must_use]
pub fn format_matrix_report(report: &MatrixReport) -> String {
    let mut out = String::from("Scenario matrix (app × attack × policy mode)\n");
    out.push_str(&format!(
        "  cells: {}   unexpected: {}\n",
        report.cells(),
        report.unexpected().len()
    ));
    for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
        out.push_str(&format!(
            "  {:<12} {:>2} succeed / {:>2} neutralized   {:>5} checks, {:>3} denials\n",
            mode.to_string(),
            report.successes(mode),
            report.neutralized(mode),
            report.total_checks(mode),
            report.total_denials(mode)
        ));
    }
    out.push_str("  per cell (ESCUDO):\n");
    for outcome in report.for_mode(PolicyMode::Escudo) {
        out.push_str(&format!("    {outcome}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape_matches_the_paper() {
        // A small number of runs keeps the unit test fast; the experiments binary
        // (README.md, "Experiments") uses 90 runs like the paper.
        let report = Figure4Report::run(5);
        assert_eq!(report.rows.len(), 8);
        for row in &report.rows {
            assert!(row.with_escudo.mean_ns > 0.0);
            assert!(row.without_escudo.mean_ns > 0.0);
            // ESCUDO adds bookkeeping, so it should not be dramatically *faster*; allow
            // generous noise but catch sign errors in the computation.
            assert!(row.overhead_pct > -40.0, "suspicious overhead: {row:?}");
        }
    }

    #[test]
    fn event_and_compat_reports_run() {
        let events = EventReport::run(20);
        assert_eq!(events.with_escudo.runs, 20);
        let compat = CompatReport::run();
        assert!(compat.escudo_app_on_legacy_browser_works);
        assert!(compat.legacy_app_on_escudo_browser_works);
        assert_eq!(compat.denials, 0);
    }

    #[test]
    fn matrix_report_formats_every_escudo_cell() {
        let report = MatrixReport::run_registry();
        let formatted = format_matrix_report(&report);
        assert!(formatted.contains("unexpected: 0"));
        assert!(formatted.contains("forum-xss-1"));
        assert!(formatted.contains("vault-leak-token"));
        assert!(formatted.contains("adnet-banners"));
    }

    #[test]
    fn tables_render_all_rows() {
        let t1 = format_table1();
        assert!(t1.contains("HTML img"));
        assert!(t1.contains("Cookies"));
        let tables = format_case_study_tables();
        assert!(tables.contains("Table 3"));
        assert!(tables.contains("Calendar events"));
        assert!(tables.contains("ring 3"));
    }
}
