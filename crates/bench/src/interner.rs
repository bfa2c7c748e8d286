//! The first-touch-storm workload behind the `interner_concurrent` bench: the
//! lock-free [`ContextInterner`] raced against the `RwLock<ContextTable>` the
//! engine used to carry.
//!
//! A *first-touch storm* is the interner's worst case: many threads meeting many
//! genuinely new contexts at once (a multi-tenant deployment absorbing a burst
//! of fresh origins), so nearly every resolve is a miss and — under the old
//! design — a write-lock acquisition. The workload mixes
//!
//! * an **overlapping** context set every thread interns (so threads race their
//!   CAS claims / write locks on the *same* keys and must converge on one dense
//!   id each), with
//! * a **disjoint** set per thread (so the table genuinely grows under
//!   contention and density is meaningful).
//!
//! [`RwLockContextTable`] is the retained reference implementation: the exact
//! probe-under-read-lock / intern-under-write-lock protocol `EscudoEngine` used
//! before the lock-free interner, preserved here so the bench's ≥2× gate always
//! compares against the real predecessor rather than a strawman.

use std::sync::RwLock;
use std::time::Instant;

use escudo_core::{
    Acl, ContextInterner, ContextTable, ObjectContext, ObjectKind, Origin, PrincipalContext,
    PrincipalKind, Ring,
};

use crate::measure::{timed_threads, Rate};

/// Buckets for storm-scale interners: sized so the bench's few-thousand-context
/// population keeps chains shallow, as a storm-facing deployment would size it.
pub const STORM_BUCKETS: usize = 1024;

/// One storm participant: anything that can resolve contexts to dense ids
/// through `&self`. Implemented by the lock-free interner and the retained
/// `RwLock` reference so the measurement loop is identical for both sides.
pub trait StormInterner: Sync {
    /// Human-readable side name for reports.
    fn label(&self) -> &'static str;
    /// Interns a principal context, returning its dense id.
    fn intern_principal(&self, principal: &PrincipalContext) -> u32;
    /// Interns an object context, returning its dense id.
    fn intern_object(&self, object: &ObjectContext) -> u32;
    /// Read-only principal probe.
    fn lookup_principal(&self, principal: &PrincipalContext) -> Option<u32>;
    /// Read-only object probe.
    fn lookup_object(&self, object: &ObjectContext) -> Option<u32>;
    /// `(principal_count, object_count)` interned so far.
    fn counts(&self) -> (usize, usize);
}

impl StormInterner for ContextInterner {
    fn label(&self) -> &'static str {
        "lock-free interner"
    }

    fn intern_principal(&self, principal: &PrincipalContext) -> u32 {
        ContextInterner::intern_principal(self, principal).index()
    }

    fn intern_object(&self, object: &ObjectContext) -> u32 {
        ContextInterner::intern_object(self, object).index()
    }

    fn lookup_principal(&self, principal: &PrincipalContext) -> Option<u32> {
        ContextInterner::lookup_principal(self, principal).map(|id| id.index())
    }

    fn lookup_object(&self, object: &ObjectContext) -> Option<u32> {
        ContextInterner::lookup_object(self, object).map(|id| id.index())
    }

    fn counts(&self) -> (usize, usize) {
        (self.principal_count(), self.object_count())
    }
}

/// The retained reference implementation: [`ContextTable`] behind a [`RwLock`],
/// driven with the probe-then-write protocol the pre-lock-free engine used
/// (read lock on the warm path, write lock on first touch; `intern_*` re-probes
/// under the write lock, so racing first touches stay correct).
#[derive(Debug, Default)]
pub struct RwLockContextTable {
    table: RwLock<ContextTable>,
}

impl RwLockContextTable {
    /// Creates an empty reference table.
    #[must_use]
    pub fn new() -> Self {
        RwLockContextTable::default()
    }
}

impl StormInterner for RwLockContextTable {
    fn label(&self) -> &'static str {
        "rwlock reference"
    }

    fn intern_principal(&self, principal: &PrincipalContext) -> u32 {
        if let Some(id) = self
            .table
            .read()
            .expect("reference table lock")
            .lookup_principal(principal)
        {
            return id.index();
        }
        self.table
            .write()
            .expect("reference table lock")
            .intern_principal(principal)
            .index()
    }

    fn intern_object(&self, object: &ObjectContext) -> u32 {
        if let Some(id) = self
            .table
            .read()
            .expect("reference table lock")
            .lookup_object(object)
        {
            return id.index();
        }
        self.table
            .write()
            .expect("reference table lock")
            .intern_object(object)
            .index()
    }

    fn lookup_principal(&self, principal: &PrincipalContext) -> Option<u32> {
        self.table
            .read()
            .expect("reference table lock")
            .lookup_principal(principal)
            .map(|id| id.index())
    }

    fn lookup_object(&self, object: &ObjectContext) -> Option<u32> {
        self.table
            .read()
            .expect("reference table lock")
            .lookup_object(object)
            .map(|id| id.index())
    }

    fn counts(&self) -> (usize, usize) {
        let table = self.table.read().expect("reference table lock");
        (table.principal_count(), table.object_count())
    }
}

/// One decision-relevant context pair of the storm.
pub type StormPair = (PrincipalContext, ObjectContext);

fn storm_pair(tag: &str, index: usize) -> StormPair {
    // Distinct origins (the expensive, realistic distinguisher: string hashing
    // and comparison) with varied rings and ACLs.
    let origin = Origin::new("http", &format!("{tag}{index}.storm.example"), 80);
    let ring = Ring::new((index % 4) as u16);
    let principal = PrincipalContext::new(PrincipalKind::Script, origin.clone(), ring);
    let object = ObjectContext::new(ObjectKind::DomElement, origin, ring)
        .with_acl(Acl::uniform(Ring::new((index % 3) as u16)));
    (principal, object)
}

/// The storm's context population: one `shared` set every thread interns
/// (overlap → CAS races / write-lock convoys on the same keys) and one disjoint
/// set per thread (growth under contention). All contexts are distinct from
/// each other across the whole population.
#[must_use]
pub fn storm_contexts(
    shared: usize,
    per_thread: usize,
    threads: usize,
) -> (Vec<StormPair>, Vec<Vec<StormPair>>) {
    let shared_pairs = (0..shared).map(|i| storm_pair("shared", i)).collect();
    let disjoint = (0..threads)
        .map(|t| {
            (0..per_thread)
                .map(|i| storm_pair(&format!("t{t}d"), i))
                .collect()
        })
        .collect();
    (shared_pairs, disjoint)
}

/// Runs `passes` first-touch storms of `threads` threads against fresh
/// interners built by `factory`, and returns the aggregate throughput (one
/// operation = one intern) over the summed [`timed_threads`] windows. Every
/// pass starts from an **empty** table — that is what makes it a first-touch
/// storm rather than a warm-lookup measurement — and every pass verifies
/// density (interned counts equal the distinct population) and convergence
/// (every shared pair resolves to one id below the count).
///
/// # Panics
///
/// Panics if a pass breaks density or convergence — a correctness regression,
/// not noise.
pub fn measure_storm<I: StormInterner>(
    factory: impl Fn() -> I,
    shared: &[StormPair],
    disjoint: &[Vec<StormPair>],
    passes: usize,
) -> Rate {
    let threads = disjoint.len();
    let disjoint_total: usize = disjoint.iter().map(Vec::len).sum();
    // Distinct context pairs across the whole population (ids must be dense
    // over exactly this many keys per kind).
    let expected = shared.len() + disjoint_total;
    // Intern *operations* per pass: every thread resolves the shared set plus
    // its own disjoint set, one principal + one object intern per pair.
    let ops_per_pass = ((threads * shared.len() + disjoint_total) * 2) as u64;
    let mut rate = Rate {
        width: threads,
        ..Rate::default()
    };
    for _ in 0..passes {
        let interner = factory();
        let (_, window) = timed_threads(threads, |t| {
            // Offset walks: threads hit the same shared keys at different
            // moments, maximizing distinct interleavings while the sets fully
            // overlap.
            let offset = t * 37 % shared.len().max(1);
            for i in 0..shared.len() {
                let (principal, object) = &shared[(offset + i) % shared.len()];
                std::hint::black_box(interner.intern_principal(principal));
                std::hint::black_box(interner.intern_object(object));
            }
            for (principal, object) in &disjoint[t] {
                std::hint::black_box(interner.intern_principal(principal));
                std::hint::black_box(interner.intern_object(object));
            }
        });
        rate.elapsed_ns += window.as_nanos();
        rate.ops += ops_per_pass;

        // Density: exactly the distinct population was interned, no id burned.
        let (principals, objects) = interner.counts();
        assert_eq!(
            principals,
            expected,
            "{}: principal ids not dense",
            interner.label()
        );
        assert_eq!(
            objects,
            expected,
            "{}: object ids not dense",
            interner.label()
        );
        // Convergence: lookup after the storm hits for every shared pair, with
        // an id inside the dense range.
        for (principal, object) in shared {
            let pid = interner
                .lookup_principal(principal)
                .expect("interned principal must be found");
            let oid = interner
                .lookup_object(object)
                .expect("interned object must be found");
            assert!((pid as usize) < expected && (oid as usize) < expected);
        }
    }
    rate
}

/// Measures the single-threaded **warm lookup** path: every context is interned
/// once up front, then `passes` timed walks resolve the whole population
/// through `lookup_*`. Returns mean nanoseconds per lookup, best of `samples`.
/// This is the regression guard the lock-free swap must not pay for: removing
/// the write-lock stall may not slow the steady-state read.
pub fn measure_warm_lookup<I: StormInterner>(
    factory: impl Fn() -> I,
    contexts: &[StormPair],
    passes: usize,
    samples: usize,
) -> f64 {
    let interner = factory();
    for (principal, object) in contexts {
        interner.intern_principal(principal);
        interner.intern_object(object);
    }
    (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..passes {
                for (principal, object) in contexts {
                    std::hint::black_box(interner.lookup_principal(principal));
                    std::hint::black_box(interner.lookup_object(object));
                }
            }
            start.elapsed().as_nanos() as f64 / (passes * contexts.len() * 2) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_population_is_fully_distinct() {
        let (shared, disjoint) = storm_contexts(8, 4, 3);
        assert_eq!(shared.len(), 8);
        assert_eq!(disjoint.len(), 3);
        let interner = ContextInterner::new();
        for (p, o) in shared.iter().chain(disjoint.iter().flatten()) {
            interner.intern_principal(p);
            interner.intern_object(o);
        }
        assert_eq!(interner.principal_count(), 8 + 3 * 4);
        assert_eq!(interner.object_count(), 8 + 3 * 4);
    }

    #[test]
    fn both_sides_survive_a_small_storm() {
        let (shared, disjoint) = storm_contexts(16, 8, 4);
        let lockfree = measure_storm(|| ContextInterner::with_buckets(64), &shared, &disjoint, 2);
        let reference = measure_storm(RwLockContextTable::new, &shared, &disjoint, 2);
        // Operations, not distinct keys: every thread interns the 16 shared
        // pairs plus its own 8, one principal and one object each, per pass.
        assert_eq!(lockfree.ops, 2 * (4 * 16 + 4 * 8) * 2);
        assert_eq!(lockfree.ops, reference.ops);
        assert_eq!(lockfree.width, 4);
        assert!(lockfree.per_sec() > 0.0);
        assert!(reference.ns_per_op() > 0.0);
    }

    #[test]
    fn warm_lookups_resolve_the_whole_population() {
        let (shared, _) = storm_contexts(32, 0, 1);
        let ns = measure_warm_lookup(ContextInterner::new, &shared, 3, 2);
        assert!(ns > 0.0);
        let ns_ref = measure_warm_lookup(RwLockContextTable::new, &shared, 3, 2);
        assert!(ns_ref > 0.0);
    }

    #[test]
    fn an_eight_thread_storm_stays_within_the_spill_window() {
        // The bench's default storm: 8 threads, 192 shared and 96 disjoint
        // pairs each, on a storm-sized interner. The spill policy bounds every
        // primary chain's walk to the spill window; a deeper chain means
        // saturated buckets are chaining instead of spilling.
        let (shared, disjoint) = storm_contexts(192, 96, 8);
        let interner = ContextInterner::with_buckets(STORM_BUCKETS);
        crate::measure::spawn_join(disjoint.len(), |t| {
            for (principal, object) in shared.iter().chain(&disjoint[t]) {
                interner.intern_principal(principal);
                interner.intern_object(object);
            }
        });
        assert_eq!(interner.principal_count(), 192 + 8 * 96);
        assert!(
            interner.max_bucket_depth() <= escudo_core::SPILL_WINDOW_SLOTS,
            "max bucket depth {}",
            interner.max_bucket_depth()
        );
    }
}
