//! Bench for Figure 4: parsing + rendering each of the eight workload pages with and
//! without ESCUDO.
//!
//! Run with `cargo bench --bench parse_render` (plain `harness = false` binary).

use escudo_bench::cli::{JsonReport, Kind};
use escudo_bench::measure::measure_parse_render;
use escudo_bench::workload::{figure4_scenarios, generate_page};
use escudo_browser::PolicyMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    const REPS: usize = 15;
    println!("figure4_parse_render (best of {REPS} interleaved loads, parse+label+render ns):");
    println!(
        "  {:<28} {:>14} {:>14} {:>9}",
        "scenario", "without", "with", "overhead"
    );
    let mut json = JsonReport::new("parse_render");
    for scenario in figure4_scenarios() {
        let html = generate_page(&scenario);
        let [without, with] = measure_parse_render(
            [PolicyMode::SameOriginOnly, PolicyMode::Escudo],
            &html,
            REPS,
        )
        .map(|stats| stats.min_ns);
        let overhead = if without > 0 {
            (with as f64 - without as f64) / without as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "  {:<28} {without:>14} {with:>14} {overhead:>8.1}%",
            scenario.name
        );
        let key = |suffix: &str| format!("{}_{suffix}", scenario.name);
        json.record(Kind::LowerNs, &key("without_ns"), without as u64)
            .record(Kind::LowerNs, &key("with_ns"), with as u64)
            .record(Kind::Info, &key("overhead_pct"), overhead);
    }
    json.finish(&args);
}
