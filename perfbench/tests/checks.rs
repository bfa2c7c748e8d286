//! The benchmark's own checks: every metric `BENCHMARK.json` names is emitted
//! with its unit and no op fails at a tiny size, and the output checks do
//! catch a failing origin.

use std::time::Duration;

use escudo_perfbench::apps::AppSessions;
use escudo_perfbench::fabric::SharedFabric;
use escudo_perfbench::{run_end_to_end, run_traced, Outcome, Workload, World};

const TINY: Duration = Duration::from_millis(150);

/// The value of `"key": "<value>"` inside `object`.
fn string_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let rest = object[object.find(&pattern)? + pattern.len()..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// `(name, unit)` of every metric object in the `section` array of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let array = &spec[start..];
    let array = &array[..array.find(']').expect("the section array closes")];
    array
        .split('{')
        .skip(1)
        .map(|object| {
            (
                string_field(object, "name")
                    .expect("metric has a name")
                    .to_string(),
                string_field(object, "unit")
                    .expect("metric has a unit")
                    .to_string(),
            )
        })
        .collect()
}

fn assert_emits(outcome: &Outcome, section: &str, workload: Workload) {
    let declared = declared(section);
    assert!(!declared.is_empty());
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "{workload:?} {section}"
    );
    for (name, unit) in declared {
        let metric = outcome
            .metric(&name)
            .unwrap_or_else(|| panic!("{workload:?} does not emit {name}"));
        assert_eq!(metric.unit, unit, "{workload:?} {name}");
        assert!(metric.value.is_finite(), "{workload:?} {name}");
    }
}

#[test]
fn every_workload_emits_every_declared_metric_and_fails_nothing() {
    for workload in Workload::ALL {
        let outcome = run_end_to_end(workload, 7, TINY);
        assert_emits(&outcome, "end_to_end", workload);
        assert_eq!(
            outcome.fail_frac(),
            0.0,
            "{workload:?}: {}",
            outcome.table()
        );
        assert!(outcome.correct());
        assert!(outcome.to_json().starts_with("{\"correct\": true, "));

        let (traced, _) = run_traced(workload, 7, TINY);
        assert_emits(&traced, "per_layer", workload);
        assert_eq!(traced.fail_frac(), 0.0, "{workload:?}: {}", traced.table());
    }
}

#[test]
fn a_failing_image_origin_makes_shared_fabric_ops_fail() {
    // FailFirst on one image origin of site 0, under the sessions' default
    // FetchPolicy::disabled(): no retry can mask it.
    let mut world = SharedFabric::new(7, None, true);
    world.fail_image_origin();
    let window = world.measure(TINY);
    let fail_frac = window.failed as f64 / window.attempted as f64;
    assert!(fail_frac > 0.0, "{window:?}");
}

#[test]
fn the_app_sessions_baseline_is_the_fault_free_matrix() {
    // [(ESCUDO checks, denials), (SOP checks, denials)] of one full pass.
    assert_eq!(
        AppSessions::new(7, None).baseline_totals(),
        [(175, 44), (126, 0)]
    );
}
