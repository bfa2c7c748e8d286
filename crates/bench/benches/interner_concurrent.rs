//! First-touch-storm throughput of the lock-free context interner against the
//! retained `RwLock<ContextTable>` reference implementation.
//!
//! Run with `cargo bench --bench interner_concurrent` (optionally
//! `-- --threads N --shared S --disjoint D --passes P --json path`). This is a
//! plain `harness = false` binary; it reports aggregate interns/second for both
//! sides at 1/2/4/8 threads plus the single-thread warm-lookup cost, and exits
//! non-zero if a behavioural gate fails:
//!
//! * at the highest thread count the lock-free interner must sustain at least
//!   **2×** the reference implementation's first-touch-storm throughput (the
//!   CAS-append really does remove the write-lock convoy). On a host with a
//!   single hardware thread the convoy physically cannot form — threads run
//!   whole scheduler slices without ever overlapping a lock hold — so the gate
//!   degrades to the pure *protocol* win (no lock acquisitions, no
//!   read-probe-then-write-reprobe double walk): ≥ **1.3×**, with the reason
//!   printed,
//! * single-thread **warm lookups** must not regress beyond **5%** of the
//!   reference (removing the stall may not tax the steady state),
//! * every storm pass asserts density (ids are exactly `0..population`, no id
//!   burned by a lost race) and convergence (lookup after intern always hits)
//!   inside the workload itself — a violation panics the bench.
//!
//! The spill-window bound on bucket depth after an 8-thread storm is the
//! tier-1 test `interner::tests::an_eight_thread_storm_stays_within_the_spill_window`.
//! `--json` writes the machine-readable report CI archives as the perf
//! trajectory.

use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_bench::interner::{
    measure_storm, measure_warm_lookup, storm_contexts, RwLockContextTable, STORM_BUCKETS,
};
use escudo_bench::measure::{best_of, Rate};
use escudo_core::ContextInterner;

/// Minimum lock-free-over-reference storm speedup at the highest thread count,
/// on any host where two threads can actually run in parallel (the convoy the
/// lock-free design removes needs overlapping lock holds to exist at all).
const MIN_STORM_SPEEDUP: f64 = 2.0;

/// Storm-speedup floor on a single-hardware-thread host: with no parallelism,
/// threads run whole scheduler slices back to back and the `RwLock` is never
/// contended mid-hold, so only the *protocol* win is measurable — no lock
/// acquisitions, no read-probe-then-write-reprobe double walk. 1.3× is well
/// below the ~1.5–1.9× this machine class measures, and far above noise.
const SINGLE_CORE_SPEEDUP_FLOOR: f64 = 1.3;

/// Maximum tolerated single-thread warm-lookup regression (lock-free may cost
/// at most 5% more than the reference's read-locked probe).
const MAX_WARM_LOOKUP_REGRESSION: f64 = 1.05;

fn report_line(side: &str, rate: &Rate) {
    println!(
        "  {side:<20} {: >2} thread(s)  {: >8.1} ns/intern  {: >11.0} interns/s",
        rate.width,
        rate.ns_per_op(),
        rate.per_sec(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_threads = parse_flag(&args, "--threads", 8).max(1);
    let shared = parse_flag(&args, "--shared", 192).max(1);
    let disjoint = parse_flag(&args, "--disjoint", 96);
    let passes = parse_flag(&args, "--passes", 12).max(1);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|t| *t <= max_threads)
        .collect();
    println!(
        "interner_concurrent: {shared} shared + {disjoint} disjoint context pairs per thread, \
         {passes} storm passes per sample, threads {thread_counts:?}"
    );

    let mut json = JsonReport::new("interner_concurrent");
    json.record(Kind::Info, "shared_contexts", shared)
        .record(Kind::Info, "disjoint_contexts_per_thread", disjoint)
        .record(Kind::Info, "storm_passes", passes);

    // ------------------------------------------------- storm throughput sweep
    let mut speedup_at_max = 0.0f64;
    for &threads in &thread_counts {
        let (shared_pairs, disjoint_pairs) = storm_contexts(shared, disjoint, threads);
        // Warm-up storm for allocator and branch predictors, then best of 3.
        let _ = measure_storm(
            || ContextInterner::with_buckets(STORM_BUCKETS),
            &shared_pairs,
            &disjoint_pairs,
            1,
        );
        let (lockfree, _) = best_of(
            (0..3).map(|_| {
                measure_storm(
                    || ContextInterner::with_buckets(STORM_BUCKETS),
                    &shared_pairs,
                    &disjoint_pairs,
                    passes,
                )
            }),
            Rate::ns_per_op,
        );
        let (reference, _) = best_of(
            (0..3).map(|_| {
                measure_storm(
                    RwLockContextTable::new,
                    &shared_pairs,
                    &disjoint_pairs,
                    passes,
                )
            }),
            Rate::ns_per_op,
        );
        println!("first-touch storm at {threads} thread(s):");
        report_line("lock-free interner", &lockfree);
        report_line("rwlock reference", &reference);
        let speedup = lockfree.per_sec() / reference.per_sec();
        println!("  speedup {speedup:.2}x");
        json.record(
            Kind::Higher,
            &format!("storm_lockfree_interns_per_sec_t{threads}"),
            lockfree.per_sec(),
        )
        .record(
            Kind::Higher,
            &format!("storm_rwlock_interns_per_sec_t{threads}"),
            reference.per_sec(),
        )
        .record(Kind::Higher, &format!("storm_speedup_t{threads}"), speedup);
        if threads == *thread_counts.last().expect("at least one thread count") {
            speedup_at_max = speedup;
        }
    }

    let max_thread_count = *thread_counts.last().expect("at least one thread count");
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Contention needs two storm threads actually running at once: both the
    // hardware and the configured storm width must allow it, or the convoy the
    // 2x gate targets cannot form and only the protocol win is measurable.
    let contended_width = hardware_threads.min(max_thread_count);
    let required = if contended_width >= 2 {
        MIN_STORM_SPEEDUP
    } else {
        println!(
            "note: storm cannot contend (min(hardware threads = {hardware_threads}, storm \
             threads = {max_thread_count}) < 2) — lock holds never overlap, so the write-lock \
             convoy cannot form; gating the protocol win at \
             ≥ {SINGLE_CORE_SPEEDUP_FLOOR:.2}x instead of ≥ {MIN_STORM_SPEEDUP:.1}x"
        );
        SINGLE_CORE_SPEEDUP_FLOOR
    };
    json.check(
        speedup_at_max >= required,
        format_args!(
            "lock-free interner {speedup_at_max:.2}x the rwlock reference under a \
             {max_thread_count}-thread first-touch storm (gate: ≥ {required:.2}x, or the \
             write-lock convoy is back)"
        ),
    );

    // ------------------------------------------------- warm single-thread gate
    let (warm_contexts, _) = storm_contexts(shared, 0, 1);
    let lockfree_warm = measure_warm_lookup(
        || ContextInterner::with_buckets(STORM_BUCKETS),
        &warm_contexts,
        passes.max(8),
        7,
    );
    let reference_warm =
        measure_warm_lookup(RwLockContextTable::new, &warm_contexts, passes.max(8), 7);
    let warm_ratio = lockfree_warm / reference_warm;
    println!(
        "single-thread warm lookups: lock-free {lockfree_warm:.1} ns, reference \
         {reference_warm:.1} ns ({:.1}% of reference)",
        warm_ratio * 100.0
    );
    json.record(Kind::LowerNs, "warm_lookup_lockfree_ns", lockfree_warm)
        .record(Kind::LowerNs, "warm_lookup_rwlock_ns", reference_warm)
        .record(Kind::Lower, "warm_lookup_ratio", warm_ratio)
        .check(
            warm_ratio <= MAX_WARM_LOOKUP_REGRESSION,
            format_args!(
                "lock-free warm lookups cost {:.1}% of the rwlock reference (gate: ≤ {:.0}%, \
                 or the steady state is paying for the storm fix)",
                warm_ratio * 100.0,
                MAX_WARM_LOOKUP_REGRESSION * 100.0
            ),
        );

    json.record(Kind::Higher, "storm_speedup_at_max_threads", speedup_at_max)
        .record(Kind::Higher, "storm_speedup_gate", required)
        .record(Kind::Info, "hardware_threads", hardware_threads);
    json.finish(&args);
}
