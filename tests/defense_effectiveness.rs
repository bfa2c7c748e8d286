//! Integration test for defense effectiveness across the whole scenario fleet.
//!
//! The paper's §6.4 stages 4 XSS and 5 CSRF attacks against each of the two
//! case-study applications and reports that every attack is neutralized when
//! ESCUDO is enforced. The scenario registry generalizes that claim: every
//! registered scenario — the §6.4 classics plus the script-assembled SPA, the
//! multi-origin ad network and the per-element vault — declares the expected
//! verdict of each case under each policy mode, and this test runs the full
//! (app × attack × mode) matrix end to end through the real browser/server
//! pipeline and demands zero unexpected cells.

use escudo::apps::attacks::{all_csrf_attacks, all_xss_attacks, AttackKind};
use escudo::apps::evaluate::DefenseReport;
use escudo::apps::scenario::{registry, CaseKind, MatrixReport, Verdict, WorkloadTag};
use escudo::browser::PolicyMode;

#[test]
fn the_corpus_has_the_papers_shape() {
    assert_eq!(all_xss_attacks().len(), 8, "4 XSS attacks per application");
    assert_eq!(
        all_csrf_attacks().len(),
        10,
        "5 CSRF attacks per application"
    );
}

#[test]
fn the_registry_covers_every_workload_shape() {
    let scenarios = registry();
    let ids: Vec<&str> = scenarios.iter().map(|s| s.id).collect();
    assert_eq!(ids, ["forum", "calendar", "blog", "spa", "adnet", "vault"]);

    // Every workload shape the fleet claims to cover is actually present.
    for tag in [
        WorkloadTag::Classic,
        WorkloadTag::ScriptAssembled,
        WorkloadTag::MultiOrigin,
        WorkloadTag::PerElement,
    ] {
        assert!(
            scenarios.iter().any(|s| s.tags.contains(&tag)),
            "no scenario carries {tag:?}"
        );
    }

    // The classics carry the complete §6.4 corpus; every scenario has at
    // least one attack case and the fleet keeps compatibility probes too.
    let case_count: usize = scenarios.iter().map(|s| s.cases.len()).sum();
    assert_eq!(case_count, 32);
    for scenario in &scenarios {
        assert!(
            scenario
                .cases
                .iter()
                .any(|c| !matches!(c.kind, CaseKind::Probe)),
            "{} has no attack case",
            scenario.id
        );
    }
    assert!(scenarios
        .iter()
        .flat_map(|s| s.cases.iter())
        .any(|c| matches!(c.kind, CaseKind::Probe)));
}

#[test]
fn the_full_matrix_has_zero_unexpected_cells() {
    let report = MatrixReport::run_registry();

    // 32 cases × 2 modes.
    assert_eq!(report.cells(), 64);
    assert!(
        report.unexpected().is_empty(),
        "cells deviating from their declared verdict: {:#?}",
        report.unexpected()
    );

    // ESCUDO neutralizes exactly the attack cells; the probes keep working.
    let probes = report
        .for_mode(PolicyMode::Escudo)
        .iter()
        .filter(|o| o.kind == CaseKind::Probe)
        .count();
    assert_eq!(report.successes(PolicyMode::Escudo), probes);
    assert_eq!(report.neutralized(PolicyMode::SameOriginOnly), 0);

    // Mediation is visible and exactly countable: the staging is
    // deterministic, so each half's reference-monitor checks and denials are
    // constants. The baseline mediates but denies nothing; a check skipped or
    // added anywhere in the ESCUDO half moves its pair.
    let mediation = |mode| (report.total_checks(mode), report.total_denials(mode));
    assert_eq!(mediation(PolicyMode::SameOriginOnly), (126, 0));
    assert_eq!(mediation(PolicyMode::Escudo), (175, 44));
}

#[test]
fn every_attack_succeeds_under_sop_and_is_neutralized_under_escudo() {
    let report = DefenseReport::run_full();

    // 18 attacks × 2 modes.
    assert_eq!(report.results.len(), 36);

    // Baseline: with only the same-origin policy, every staged attack achieves its
    // goal (that is why they are attacks).
    assert_eq!(
        report.successes(PolicyMode::SameOriginOnly),
        18,
        "all attacks should succeed under the SOP baseline: {:#?}",
        report
            .for_mode(PolicyMode::SameOriginOnly)
            .iter()
            .filter(|r| !r.succeeded)
            .collect::<Vec<_>>()
    );

    // "All the attacks were neutralized in the presence of ESCUDO."
    assert_eq!(
        report.neutralized(PolicyMode::Escudo),
        18,
        "all attacks should be neutralized under ESCUDO: {:#?}",
        report
            .for_mode(PolicyMode::Escudo)
            .iter()
            .filter(|r| r.succeeded)
            .collect::<Vec<_>>()
    );
}

#[test]
fn escudo_neutralizations_are_attributable_to_the_reference_monitor() {
    let report = DefenseReport::run_full();
    for result in report.for_mode(PolicyMode::Escudo) {
        match result.kind {
            // Every XSS attack is stopped by an explicit denial (the script aborts).
            AttackKind::Xss => assert!(
                result.denials > 0,
                "{} was neutralized but no denial was recorded",
                result.id
            ),
            // CSRF attacks are stopped by the cookie-use check, which also shows up as
            // denials in the monitor.
            AttackKind::Csrf => assert!(
                result.denials > 0,
                "{} was neutralized but no denial was recorded",
                result.id
            ),
        }
    }
}

#[test]
fn the_new_scenarios_neutralize_leaks_with_denials() {
    let report = MatrixReport::run_registry();
    for outcome in report.for_mode(PolicyMode::Escudo) {
        if outcome.kind == CaseKind::Leak {
            assert_eq!(
                outcome.observed,
                Verdict::Neutralized,
                "{} leaked under ESCUDO",
                outcome.case
            );
            assert!(
                outcome.denials > 0,
                "{} was neutralized but no denial was recorded",
                outcome.case
            );
        }
    }
}
