//! The mediation-keyed shared response cache under its timing gate: the
//! repeat-navigation speedup.
//!
//! Run with `cargo bench --bench cache_concurrent` (optionally
//! `-- --passes P --json path`). This is a plain `harness = false` binary; it
//! exits non-zero if the gate fails:
//!
//! * **speedup gate** — at 200µs origin latency a cache-warm repeat navigation
//!   (document + three subresources, all `max-age`'d) must be at least
//!   **1.5×** faster than the cache-off run, and every warm fetch must be a
//!   cache hit — a hit is an `Arc` refcount bump, never a body copy.
//!
//! The cache's deterministic gates are tier-1 tests, not bench runs:
//! `cache::tests::the_matrix_is_cache_invariant` (matrix),
//! `cache::tests::sessions_never_see_a_foreign_cookie_echo` (isolation),
//! `tests/response_cache.rs`'s `ttl_expiry_is_exactly_countable_on_a_manual_clock`
//! (TTL) and `duplicate_plan_slots_dispatch_once_and_log_each` (single-flight).

use escudo_bench::cache::{run_cache_speedup, CACHE_GATE_LATENCY};
use escudo_bench::cli::{parse_flag, JsonReport, Kind};

/// Minimum cold-over-warm speedup of the cache-warm repeat navigation.
const MIN_CACHE_SPEEDUP: f64 = 1.5;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let passes = parse_flag(&args, "--passes", 30).max(3);
    println!("cache_concurrent: {passes} repeat-navigation passes");

    let mut json = JsonReport::new("cache_concurrent");
    json.record(Kind::Info, "cache_passes", passes);

    let speedup = run_cache_speedup(CACHE_GATE_LATENCY, passes);
    println!(
        "repeat navigation at {}µs origin latency: {:.0} ns cache-off, {:.0} ns cache-warm \
         ({:.2}x, {} hits / {} expected, {} responses stored)",
        CACHE_GATE_LATENCY.as_micros(),
        speedup.cold_ns,
        speedup.warm_ns,
        speedup.speedup(),
        speedup.hits,
        speedup.expected_hits(),
        speedup.stored
    );
    // The raw timings are informational: their judged form is the speedup.
    json.record(Kind::Info, "cache_cold_ns", speedup.cold_ns)
        .record(Kind::Info, "cache_warm_ns", speedup.warm_ns)
        .record(Kind::Higher, "cache_speedup", speedup.speedup())
        .record(Kind::Info, "cache_warm_hits", speedup.hits)
        .record(Kind::Info, "cache_warm_stored", speedup.stored);
    json.check(
        speedup.hits == speedup.expected_hits(),
        format_args!(
            "{} of {} warm fetches hit the response cache",
            speedup.hits,
            speedup.expected_hits()
        ),
    );
    json.check(
        speedup.speedup() >= MIN_CACHE_SPEEDUP,
        format_args!(
            "the response cache speeds the repeat navigation up {:.2}x (gate: ≥ \
             {MIN_CACHE_SPEEDUP:.1}x)",
            speedup.speedup()
        ),
    );
    json.finish(&args);
}
