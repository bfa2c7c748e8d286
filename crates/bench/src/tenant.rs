//! The control-plane workload behind `tenant_concurrent`: noisy-neighbor
//! isolation. [`run_noisy_neighbor`] has tenant A hammer its own engine with a
//! storm while tenant B replays a fixed grid. B's p99
//! batch latency is measured alone (baseline) and under the storm
//! (contended), best-of-N with the spread recorded so the trajectory
//! comparator can derive a noise floor.
//!
//! The control plane's deterministic gates are the tier-1 tests below:
//! `admission_burst_is_exactly_countable` (a token bucket with no refill
//! admits exactly its burst and sheds the rest as `Throttled`),
//! `admission_refill_is_exact_under_the_manual_clock` (each hand-advanced
//! window mints exactly its tokens) and
//! `hot_reload_storm_observes_no_torn_plans_and_no_leaks` (readers streaming
//! plans through generation swaps see no torn plan, no dropped decision and
//! no retired generation left alive).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use escudo_core::tenant::{TenantConfig, TenantRegistry};

use escudo_browser::Erm;

use crate::measure::{best_of, p99_ns};
use crate::workload::{decision_workload, DecisionCheck};

/// Outcome of the noisy-neighbor isolation run.
#[derive(Debug, Clone)]
pub struct NoisyNeighborReport {
    /// Storm threads tenant A ran.
    pub storm_threads: usize,
    /// Warm-grid batches tenant B measured per repeat.
    pub batches: usize,
    /// Best-of-N p99 of B's batch latency with A idle, in nanoseconds.
    pub baseline_p99_ns: u64,
    /// Spread (max − min) of the baseline p99 across repeats.
    pub baseline_p99_spread_ns: u64,
    /// Best-of-N p99 of B's batch latency under A's storm, in nanoseconds.
    pub contended_p99_ns: u64,
    /// Spread (max − min) of the contended p99 across repeats.
    pub contended_p99_spread_ns: u64,
    /// Decisions B's own engine made over the whole run.
    pub victim_decisions: u64,
    /// Decisions A's storm pushed through its own engine.
    pub storm_decisions: u64,
}

/// One measured repeat: `batches` × `decide_many` over the grid, p99 of
/// the per-batch latencies.
fn measure_victim_p99(erm: &mut Erm, grid: &[DecisionCheck], batches: usize) -> u64 {
    let checks: Vec<(
        &escudo_core::PrincipalContext,
        &escudo_core::ObjectContext,
        escudo_core::Operation,
    )> = grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        let decisions = erm.check_many(&checks);
        assert_eq!(decisions.len(), checks.len());
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    p99_ns(&mut samples)
}

/// Runs tenant B's fixed grid against tenant A's storm.
///
/// `repeats` is the best-of-N bound for both the baseline and the contended
/// p99 (minimum reported, spread recorded).
#[must_use]
pub fn run_noisy_neighbor(
    storm_threads: usize,
    batches: usize,
    repeats: usize,
) -> NoisyNeighborReport {
    let storm_threads = storm_threads.max(1);
    let batches = batches.max(1);
    let repeats = repeats.max(1);

    let registry = TenantRegistry::new();
    // Tenant B: the victim, a small grid it never leaves.
    let victim = registry.register("victim", TenantConfig::default());
    // Tenant A: the noisy neighbor, with a large distinct workload.
    let noisy = registry.register("noisy", TenantConfig::default());

    let victim_grid = decision_workload(8, 8); // 64 pairs
    let storm_grid = decision_workload(40, 40); // 1600 pairs
    let mut victim_erm = Erm::with_tenant(Arc::clone(&victim)).with_audit_capacity(0);

    // Warm B's allocator and branch predictors, then measure it alone.
    let warm: Vec<_> = victim_grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
    victim_erm.check_many(&warm);
    let baseline: Vec<u64> = (0..repeats)
        .map(|_| measure_victim_p99(&mut victim_erm, &victim_grid, batches))
        .collect();

    // Contended phase: A's storm threads run flat out — each pass decides
    // 25 of B's grids' worth of checks — while B re-measures the identical
    // workload.
    let stop = AtomicBool::new(false);
    let start_line = Barrier::new(storm_threads + 1);
    let mut contended: Vec<u64> = Vec::with_capacity(repeats);
    thread::scope(|scope| {
        for _ in 0..storm_threads {
            scope.spawn(|| {
                let mut erm = Erm::with_tenant(Arc::clone(&noisy)).with_audit_capacity(0);
                let storm: Vec<_> = storm_grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
                start_line.wait();
                // Do-while: even on a starved single-core host every storm
                // thread pushes at least one full storm pass, so the report's
                // storm counter is never silently zero.
                loop {
                    erm.check_many(&storm);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        start_line.wait();
        for _ in 0..repeats {
            contended.push(measure_victim_p99(&mut victim_erm, &victim_grid, batches));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (baseline_p99_ns, baseline_spread) = best_of(baseline, |&p| p);
    let (contended_p99_ns, contended_spread) = best_of(contended, |&p| p);

    NoisyNeighborReport {
        storm_threads,
        batches,
        baseline_p99_ns,
        baseline_p99_spread_ns: baseline_spread,
        contended_p99_ns,
        contended_p99_spread_ns: contended_spread,
        victim_decisions: victim.engine_stats().decisions,
        storm_decisions: noisy.engine_stats().decisions,
    }
}

#[cfg(test)]
mod tests {
    use escudo_core::policy::decide;
    use escudo_core::tenant::{Clock, ManualClock, Tenant};
    use escudo_core::{Decision, DenyReason, PolicyMode};

    use super::*;

    #[test]
    fn noisy_neighbor_decides_only_on_its_own_engine() {
        let report = run_noisy_neighbor(2, 10, 2);
        // B's engine counts exactly B's checks: warm-up plus 2 × 2 repeats
        // of 10 batches over its 64-pair grid. A's storm lands elsewhere.
        assert_eq!(report.victim_decisions, 64 * (1 + 2 * 2 * 10));
        assert!(report.storm_decisions >= 2 * 1600, "every storm thread ran");
        assert!(report.baseline_p99_ns > 0 && report.contended_p99_ns > 0);
    }

    /// A tenant-bound monitor whose bucket holds `burst` tokens and refills
    /// `refill_per_sec` tokens per second on `clock`.
    fn metered(burst: u64, refill_per_sec: u64, clock: Arc<dyn Clock>) -> (Arc<Tenant>, Erm) {
        let config = TenantConfig::default().with_admission(burst, refill_per_sec);
        let tenant = Arc::new(Tenant::with_clock("metered", config, clock));
        let erm = Erm::with_tenant(Arc::clone(&tenant)).with_audit_capacity(0);
        (tenant, erm)
    }

    /// Fires `shots` single-check plans and returns how many were shed with
    /// the `Throttled` attribution.
    fn fire(erm: &mut Erm, shots: u64) -> u64 {
        let grid = decision_workload(2, 2);
        let (principal, object, operation) = &grid[0];
        (0..shots)
            .filter(|_| {
                erm.check(principal, object, *operation).deny_reason()
                    == Some(&DenyReason::Throttled)
            })
            .count() as u64
    }

    #[test]
    fn admission_burst_is_exactly_countable() {
        // No refill: of 160 checks fired against 64 tokens, exactly 64 are
        // admitted and the other 96 are shed fail-closed as `Throttled`.
        let (tenant, mut erm) = metered(64, 0, Arc::new(ManualClock::new()));
        assert_eq!(fire(&mut erm, 160), 96);
        let stats = tenant.admission().stats();
        assert_eq!(stats.admitted, 64);
        assert_eq!(stats.rejected, 96);
    }

    #[test]
    fn admission_refill_is_exact_under_the_manual_clock() {
        // 8 tokens/sec, 125 ms windows: each window mints exactly one token
        // (0.125 is exact in binary, so no float drift across windows).
        let clock = Arc::new(ManualClock::new());
        let (tenant, mut erm) = metered(4, 8, clock.clone());
        // Drain the burst, then probe once past empty.
        let mut throttled = fire(&mut erm, 4 + 1);
        for _ in 0..6 {
            clock.advance_ns(125_000_000);
            // Drain the window's one token, plus one probe past empty.
            throttled += fire(&mut erm, 1 + 1);
        }
        let stats = tenant.admission().stats();
        assert_eq!(stats.admitted, 4 + 6);
        assert_eq!(stats.rejected, 1 + 6, "one probe past empty per window");
        assert_eq!(throttled, stats.rejected);
    }

    #[test]
    fn hot_reload_storm_observes_no_torn_plans_and_no_leaks() {
        // Readers stream `check_many` plans through one tenant while the
        // control plane swaps ESCUDO and same-origin generations. Every plan
        // must equal exactly one generation's `decide` oracle, none may be
        // dropped or throttled, and every retired generation must drop.
        const READERS: usize = 4;
        const PASSES: usize = 50;
        const SWAPS: usize = 9;
        let grid = decision_workload(6, 6);
        let oracle = |mode| -> Vec<Decision> {
            grid.iter()
                .map(|(p, o, op)| decide(mode, p, o, *op))
                .collect()
        };
        let (escudo, sop) = (
            oracle(PolicyMode::Escudo),
            oracle(PolicyMode::SameOriginOnly),
        );
        assert_ne!(escudo, sop, "the grid must tell the generations apart");

        let tenant = Arc::new(Tenant::new("reloaded", TenantConfig::default()));
        let start_line = Barrier::new(READERS + 1);
        let mut witnesses = Vec::with_capacity(SWAPS);
        let readers: Vec<(u64, u64, u64)> = thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut erm = Erm::with_tenant(Arc::clone(&tenant)).with_audit_capacity(0);
                        let checks: Vec<_> = grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
                        let (mut torn, mut dropped) = (0, 0);
                        start_line.wait();
                        for _ in 0..PASSES {
                            let observed = erm.check_many(&checks);
                            if observed.len() != checks.len()
                                || observed
                                    .iter()
                                    .any(|d| d.deny_reason() == Some(&DenyReason::Throttled))
                            {
                                dropped += 1;
                            } else if observed != escudo && observed != sop {
                                torn += 1;
                            }
                        }
                        (torn, dropped, (PASSES * checks.len()) as u64)
                    })
                })
                .collect();
            // Alternate the published generation mid-storm, keeping a Weak
            // witness on every retired one.
            start_line.wait();
            for swap in 0..SWAPS {
                let mode = if swap % 2 == 0 {
                    PolicyMode::SameOriginOnly
                } else {
                    PolicyMode::Escudo
                };
                let retired =
                    tenant.reload_with(TenantConfig::default().with_mode(mode).build_engine());
                witnesses.push(Arc::downgrade(&retired));
                thread::yield_now();
            }
            readers
                .into_iter()
                .map(|reader| reader.join().expect("reader thread"))
                .collect()
        });

        assert_eq!(readers.iter().map(|r| r.0).sum::<u64>(), 0, "torn plans");
        assert_eq!(readers.iter().map(|r| r.1).sum::<u64>(), 0, "dropped plans");
        assert_eq!(
            readers.iter().map(|r| r.2).sum::<u64>(),
            (READERS * PASSES * grid.len()) as u64
        );
        // Every reader has dropped its pinned generation; only the current one,
        // never retired, may still be alive.
        assert!(
            witnesses.iter().all(|w| w.upgrade().is_none()),
            "a retired generation leaked"
        );
    }
}
