//! Concurrency equivalence: 8 threads hammering one shared engine with
//! *overlapping* contexts must return decisions byte-identical to the
//! single-threaded `escudo_core::policy::decide` oracle — for every thread, every
//! check, every interleaving — and the engine's decision count must stay
//! consistent while a concurrent reader watches it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use escudo::core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
use escudo::core::{decide, engine_for_mode, Acl, Operation, Origin, PolicyMode, Ring};

const THREADS: usize = 8;
const PASSES: usize = 20;

fn origins() -> Vec<Origin> {
    vec![
        Origin::new("http", "forum.example", 80),
        Origin::new("https", "blog.example", 443),
        Origin::new("http", "calendar.example", 80),
    ]
}

/// A deliberately overlapping check set: every thread evaluates the same grid, so
/// threads constantly decide the same checks at the same time.
fn overlapping_checks() -> Vec<(PrincipalContext, ObjectContext, Operation)> {
    let mut checks = Vec::new();
    for (i, p_origin) in origins().iter().enumerate() {
        for p_ring in 0u16..4 {
            let principal = PrincipalContext::new(
                if p_ring == 0 && i == 0 {
                    PrincipalKind::Browser
                } else {
                    PrincipalKind::Script
                },
                p_origin.clone(),
                Ring::new(p_ring),
            );
            for o_origin in origins() {
                for o_ring in 0u16..4 {
                    let object = ObjectContext::new(
                        ObjectKind::DomElement,
                        o_origin.clone(),
                        Ring::new(o_ring),
                    )
                    .with_acl(Acl::new(
                        Ring::new(o_ring),
                        Ring::new(o_ring.saturating_sub(1)),
                        Ring::new(o_ring),
                    ));
                    for op in Operation::ALL {
                        checks.push((principal.clone(), object.clone(), op));
                    }
                }
            }
        }
    }
    checks
}

#[test]
fn eight_threads_match_the_single_threaded_oracle() {
    let engine = engine_for_mode(PolicyMode::Escudo);
    let checks = overlapping_checks();
    // Precompute the oracle single-threaded; the engine must never diverge from it.
    let expected: Vec<_> = checks
        .iter()
        .map(|(p, o, op)| decide(PolicyMode::Escudo, p, o, *op))
        .collect();

    thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            let checks = &checks;
            let expected = &expected;
            scope.spawn(move || {
                for pass in 0..PASSES {
                    // Each thread walks the grid from a different offset so the
                    // interleavings differ while the context sets fully overlap.
                    let offset = (t * 131 + pass * 17) % checks.len();
                    for i in 0..checks.len() {
                        let idx = (offset + i) % checks.len();
                        let (p, o, op) = &checks[idx];
                        assert_eq!(
                            engine.decide(p, o, *op),
                            expected[idx],
                            "thread {t} pass {pass}: divergence at {p} / {o} / {op}"
                        );
                    }
                }
            });
        }
    });

    // Every racing decision was counted exactly once.
    assert_eq!(
        engine.stats().decisions,
        (THREADS * PASSES * checks.len()) as u64
    );
}

/// A fresh context pair no other storm participant shares unless given the same
/// coordinates — distinct origins are the realistic distinguisher.
fn storm_pair(tag: &str, index: usize) -> (PrincipalContext, ObjectContext) {
    let origin = Origin::new("http", &format!("{tag}{index}.fresh.example"), 80);
    let ring = Ring::new((index % 4) as u16);
    let principal = PrincipalContext::new(PrincipalKind::Script, origin.clone(), ring);
    let object = ObjectContext::new(ObjectKind::DomElement, origin, ring)
        .with_acl(Acl::uniform(Ring::new((index % 3) as u16)));
    (principal, object)
}

#[test]
fn first_touch_storm_decisions_match_the_oracle() {
    // 8 threads deciding over fresh overlapping + disjoint contexts, all
    // released at once. Every decision must be byte-identical to the
    // single-threaded `policy::decide` oracle.
    const SHARED: usize = 32;
    const DISJOINT: usize = 16;
    let engine = engine_for_mode(PolicyMode::Escudo);
    let shared: Vec<_> = (0..SHARED).map(|i| storm_pair("dshared", i)).collect();
    let barrier = Barrier::new(THREADS);

    thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            let shared = &shared;
            let barrier = &barrier;
            scope.spawn(move || {
                let own: Vec<_> = (0..DISJOINT)
                    .map(|i| storm_pair(&format!("dt{t}"), i))
                    .collect();
                barrier.wait();
                for (principal, object) in shared.iter().chain(&own) {
                    for op in Operation::ALL {
                        assert_eq!(
                            engine.decide(principal, object, op),
                            decide(PolicyMode::Escudo, principal, object, op),
                            "storm decision diverged for {principal} / {object} / {op}"
                        );
                    }
                }
            });
        }
    });

    assert_eq!(
        engine.stats().decisions,
        (THREADS * (SHARED + DISJOINT) * Operation::ALL.len()) as u64
    );
}

#[test]
fn decide_many_is_oracle_identical_under_concurrency() {
    let engine = engine_for_mode(PolicyMode::Escudo);
    let checks = overlapping_checks();
    let expected: Vec<_> = checks
        .iter()
        .map(|(p, o, op)| decide(PolicyMode::Escudo, p, o, *op))
        .collect();

    thread::scope(|scope| {
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let checks = &checks;
            let expected = &expected;
            scope.spawn(move || {
                let batch: Vec<(&PrincipalContext, &ObjectContext, Operation)> =
                    checks.iter().map(|(p, o, op)| (p, o, *op)).collect();
                for _ in 0..5 {
                    assert_eq!(&engine.decide_many(&batch), expected);
                }
            });
        }
    });
    assert_eq!(engine.stats().decisions, (4 * 5 * checks.len()) as u64);
}

#[test]
fn stats_snapshots_stay_consistent_while_deciders_run() {
    // A dedicated reader thread takes snapshots while 4 threads decide. The
    // decision count a snapshot reads may never run backwards, and never past
    // the workers' total.
    let engine = engine_for_mode(PolicyMode::Escudo);
    let checks = overlapping_checks();
    let total = (4 * 10 * checks.len()) as u64;
    let stop = AtomicBool::new(false);

    thread::scope(|scope| {
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let checks = &checks;
            scope.spawn(move || {
                for _ in 0..10 {
                    for (p, o, op) in checks {
                        assert_eq!(
                            engine.decide(p, o, *op),
                            decide(PolicyMode::Escudo, p, o, *op)
                        );
                    }
                }
            });
        }
        let reader_engine = Arc::clone(&engine);
        let stop = &stop;
        let reader = scope.spawn(move || {
            let (mut snapshots, mut last) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let decisions = reader_engine.stats().decisions;
                assert!(
                    decisions >= last,
                    "the count ran backwards: {decisions} < {last}"
                );
                assert!(
                    decisions <= total,
                    "counted {decisions} of {total} decisions"
                );
                last = decisions;
                snapshots += 1;
            }
            snapshots
        });
        // The worker handles are joined implicitly at scope exit, which would wait on
        // the reader too — so watch the decision count from here and stop the reader
        // once the workers' quota is reached (with a generous timeout escape so a
        // failing worker can surface its panic instead of hanging the test).
        for _ in 0..6000 {
            if engine.stats().decisions >= total {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        let snapshots = reader.join().expect("stats reader panicked");
        assert!(snapshots > 0, "the reader should have observed snapshots");
    });

    assert_eq!(engine.stats().decisions, total);
}

/// The hot-reload storm: 8 threads stream `decide_many` plans through a
/// tenant, each pinning the published [`escudo::core::TenantPolicy`] with one
/// load, while the control plane flips the tenant between ESCUDO and
/// same-origin mid-flight. Every observed plan must be byte-identical to
/// exactly **one** generation's `policy::decide` oracle — the one its pinned
/// mode names; a plan matching neither tore across a reload.
#[test]
fn generation_swaps_mid_flight_never_tear_a_plan_and_never_leak() {
    use escudo::core::tenant::{Tenant, TenantConfig};
    use escudo::core::Decision;

    const SWAPS: usize = 12;

    let checks = overlapping_checks();
    let escudo_oracle: Vec<Decision> = checks
        .iter()
        .map(|(p, o, op)| decide(PolicyMode::Escudo, p, o, *op))
        .collect();
    let sop_oracle: Vec<Decision> = checks
        .iter()
        .map(|(p, o, op)| decide(PolicyMode::SameOriginOnly, p, o, *op))
        .collect();
    // The grid must distinguish the generations or the torn-plan check is vacuous
    // (same-origin ring-crossing pairs decide differently under the two modes).
    assert_ne!(escudo_oracle, sop_oracle);

    let tenant = Arc::new(Tenant::new("storm", TenantConfig::default()));
    let barrier = Barrier::new(THREADS + 1);
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let tenant = Arc::clone(&tenant);
            let barrier = &barrier;
            let checks = &checks;
            let escudo_oracle = &escudo_oracle;
            let sop_oracle = &sop_oracle;
            scope.spawn(move || {
                // Each reader pins once per plan, exactly like the Erm, and
                // decides the whole batch under the pinned policy.
                let refs: Vec<_> = checks.iter().map(|(p, o, op)| (p, o, *op)).collect();
                barrier.wait();
                for pass in 0..PASSES {
                    let pinned = tenant.policy();
                    let observed = tenant.decide_many(pinned, &refs);
                    assert_eq!(observed.len(), refs.len(), "dropped decisions");
                    assert!(
                        observed == *escudo_oracle || observed == *sop_oracle,
                        "pass {pass} tore across generations: plan matches neither \
                         generation's oracle (generation {})",
                        pinned.generation
                    );
                    // The plan's mode must agree with the generation it pinned.
                    let expected: &Vec<Decision> = match pinned.mode {
                        PolicyMode::Escudo => escudo_oracle,
                        PolicyMode::SameOriginOnly => sop_oracle,
                    };
                    assert_eq!(&observed, expected, "plan diverged from its own generation");
                }
            });
        }

        // The control plane flips the published mode while the readers stream
        // plans.
        barrier.wait();
        for swap in 0..SWAPS {
            let mode = if swap % 2 == 0 {
                PolicyMode::SameOriginOnly
            } else {
                PolicyMode::Escudo
            };
            tenant.reload_with(mode);
            thread::yield_now();
        }
    });

    // Every reload published exactly one generation. A reload frees nothing,
    // so no retired generation can leak.
    assert_eq!(tenant.generation(), (SWAPS + 1) as u64);
}
