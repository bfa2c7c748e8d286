//! The mediation-keyed shared response cache under its acceptance gates:
//! repeat-navigation speedup, cache-on-vs-off matrix invariance, cookie-header
//! key isolation, exactly-countable TTL expiry, and single-flight coalescing.
//!
//! Run with `cargo bench --bench cache_concurrent` (optionally
//! `-- --threads N --passes P --json path`). This is a plain `harness = false`
//! binary; it exits non-zero if a behavioural gate fails:
//!
//! * **speedup gate** — at 200µs origin latency a cache-warm repeat navigation
//!   (document + three subresources, all `max-age`'d) must be at least
//!   **1.5×** faster than the cache-off run, and every warm fetch must be a
//!   cache hit — a hit is an `Arc` refcount bump, never a body copy,
//! * **matrix gate** — the full scenario registry replayed with every
//!   session's response cache enabled must match the cache-off replay
//!   cell-for-cell: verdicts **and** reference-monitor check/denial counts.
//!   The cache key is the mediation plan (method, URL, exact mediated
//!   `Cookie` header) and mediation always executes — only transport is
//!   skipped — so caching can never move an ESCUDO decision,
//! * **isolation gate** — N cache-enabled sessions with distinct session
//!   cookies sharing one fabric and one cacheable URL must observe **zero**
//!   foreign cookie echoes: an entry is served only under the exact header it
//!   was stored under, and discarded fail-closed otherwise,
//! * **TTL gate** — a `max-age=5` entry walked on a hand-advanced
//!   [`ManualClock`] must produce exactly one hit, one store and (after the
//!   first cycle) one expiry discard per cycle — no wall time enters the
//!   freshness check,
//! * **single-flight gate** — a plan repeating one uncacheable image URL must
//!   dispatch it once per batch, fan the response out to every duplicate
//!   slot, and still log each slot under its own sequence number.
//!
//! [`ManualClock`]: escudo_core::ManualClock

use escudo_bench::cache::{
    run_cache_isolation, run_cache_matrix_oracle, run_cache_single_flight, run_cache_speedup,
    run_cache_ttl_walk, CacheMatrixOracleReport, CACHE_GATE_LATENCY,
};
use escudo_bench::cli::{parse_flag, JsonReport, Kind};

/// Minimum cold-over-warm speedup of the cache-warm repeat navigation.
const MIN_CACHE_SPEEDUP: f64 = 1.5;

/// Identical image slots the single-flight page carries.
const SINGLE_FLIGHT_DUPLICATES: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = parse_flag(&args, "--threads", 8).max(2);
    let passes = parse_flag(&args, "--passes", 30).max(3);
    println!("cache_concurrent: {threads} isolation sessions, {passes} repeat-navigation passes");

    let mut json = JsonReport::new("cache_concurrent");
    json.record(Kind::Info, "isolation_sessions", threads)
        .record(Kind::Info, "cache_passes", passes);

    // --------------------------------------------------------- speedup gate
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

    // ---------------------------------------------------------- matrix gate
    // Caching must be mediation-invariant: only transport may be skipped,
    // never a check, so no outcome, verdict or count may move.
    let matrix = run_cache_matrix_oracle();
    let checks_cached = CacheMatrixOracleReport::total_checks(&matrix.cached);
    let checks_plain = CacheMatrixOracleReport::total_checks(&matrix.plain);
    let denials_cached = CacheMatrixOracleReport::total_denials(&matrix.cached);
    let denials_plain = CacheMatrixOracleReport::total_denials(&matrix.plain);
    println!(
        "cache-on matrix: {} cells vs {} cache-off, {} outcome mismatches, \
         checks {checks_cached} vs {checks_plain}, denials {denials_cached} vs \
         {denials_plain}; {} sessions did {} hits / {} stores / {} coalesced",
        matrix.cached.cells(),
        matrix.plain.cells(),
        matrix.outcome_mismatches(),
        matrix.sessions,
        matrix.cache_hits,
        matrix.cache_stored,
        matrix.cache_coalesced
    );
    json.record(Kind::Info, "matrix_cells", matrix.cached.cells())
        .zero("matrix_outcome_mismatches", matrix.outcome_mismatches())
        .zero("matrix_unexpected_cached", matrix.cached.unexpected().len())
        .zero("matrix_unexpected_plain", matrix.plain.unexpected().len())
        .record(Kind::Info, "matrix_checks", checks_plain)
        .record(Kind::Info, "matrix_denials", denials_plain)
        .record(Kind::Info, "matrix_cache_hits", matrix.cache_hits)
        .record(Kind::Info, "matrix_cache_stored", matrix.cache_stored)
        .record(Kind::Info, "matrix_cache_coalesced", matrix.cache_coalesced);
    json.check(
        matrix.cached.cells() == matrix.plain.cells(),
        format_args!(
            "the cache-on matrix has {} cells, the cache-off one {}",
            matrix.cached.cells(),
            matrix.plain.cells()
        ),
    );
    json.check(
        checks_cached == checks_plain && denials_cached == denials_plain,
        format_args!(
            "mediation counts under the cache: checks {checks_cached} vs {checks_plain}, \
             denials {denials_cached} vs {denials_plain}"
        ),
    );

    // ------------------------------------------------------- isolation gate
    let isolation = run_cache_isolation(threads.min(8), 4);
    println!(
        "cache-enabled sessions on one fabric: {} sessions x {} rounds, {} foreign cookie \
         echoes, {} own-header hits, {} mismatched plans discarded fail-closed",
        isolation.sessions,
        isolation.rounds,
        isolation.violations,
        isolation.cache_hits,
        isolation.stale_discards
    );
    // A foreign cookie echo means a cache entry crossed cookie headers.
    json.zero("isolation_violations", isolation.violations)
        .record(Kind::Info, "isolation_cache_hits", isolation.cache_hits)
        .record(
            Kind::Info,
            "isolation_stale_discards",
            isolation.stale_discards,
        );

    // ------------------------------------------------------------- TTL gate
    let ttl = run_cache_ttl_walk(5);
    println!(
        "manual-clock TTL walk: {} cycles, {} hits, {} expiries, {} stores",
        ttl.cycles, ttl.hits, ttl.expired, ttl.stored
    );
    json.record(Kind::Info, "ttl_cycles", ttl.cycles)
        .record(Kind::Info, "ttl_cache_hits", ttl.hits)
        .record(Kind::Info, "ttl_cache_expired", ttl.expired)
        .record(Kind::Info, "ttl_cache_stored", ttl.stored);
    let cycles = ttl.cycles as u64;
    json.check(
        ttl.hits == cycles && ttl.expired == cycles - 1 && ttl.stored == cycles,
        format_args!(
            "TTL walk exactly countable: expected {cycles} hits / {} expiries / {cycles} \
             stores, got {} / {} / {}",
            cycles - 1,
            ttl.hits,
            ttl.expired,
            ttl.stored
        ),
    );

    // --------------------------------------------------- single-flight gate
    let flight = run_cache_single_flight(SINGLE_FLIGHT_DUPLICATES, 3);
    println!(
        "single-flight: {} duplicate slots x {} loads -> {} origin dispatches, {} slots \
         coalesced, {} log entries",
        flight.duplicates, flight.loads, flight.dispatches, flight.coalesced, flight.logged
    );
    json.record(Kind::Info, "singleflight_duplicates", flight.duplicates)
        .record(Kind::Info, "singleflight_loads", flight.loads)
        .record(Kind::Info, "singleflight_dispatches", flight.dispatches)
        .record(Kind::Info, "singleflight_cache_coalesced", flight.coalesced)
        .record(Kind::Info, "singleflight_logged", flight.logged);
    let loads = flight.loads as u64;
    let expected_coalesced = loads * (flight.duplicates as u64 - 1);
    let expected_logged = flight.loads * (1 + flight.duplicates);
    json.check(
        flight.dispatches == loads
            && flight.coalesced == expected_coalesced
            && flight.logged == expected_logged,
        format_args!(
            "single-flight coalesced exactly: expected {loads} dispatches / \
             {expected_coalesced} coalesced / {expected_logged} logged, got {} / {} / {}",
            flight.dispatches, flight.coalesced, flight.logged
        ),
    );
    json.finish(&args);
}
