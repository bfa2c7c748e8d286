//! Engine/decide equivalence: the engines, and the reference monitor however it
//! is bound, must return **byte-identical** decisions to the
//! `escudo_core::policy::decide` free function.
//!
//! The grid is exhaustive over rings 0..=3 for principal and object, every
//! `Operation`, same- and cross-origin pairs, a spread of ACL variants, and both
//! principal exemption cases (script vs browser chrome).

use std::sync::Arc;

use escudo::browser::Erm;
use escudo::core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
use escudo::core::tenant::{Tenant, TenantConfig};
use escudo::core::{
    decide, engine_for_mode, Acl, Decision, Operation, Origin, PolicyEngine, PolicyMode, Ring,
};

fn site() -> Origin {
    Origin::new("http", "app.example", 80)
}

fn other_site() -> Origin {
    Origin::new("http", "evil.example", 80)
}

/// The ACL variants of the grid: permissive, ring-0-only, uniform bounds, and mixed
/// per-operation bounds.
fn acl_variants() -> Vec<Acl> {
    let mut acls = vec![Acl::permissive(), Acl::ring_zero_only()];
    for ring in 0u16..=3 {
        acls.push(Acl::uniform(Ring::new(ring)));
    }
    acls.push(Acl::new(Ring::new(2), Ring::new(0), Ring::new(2)));
    acls.push(Acl::new(Ring::new(0), Ring::new(3), Ring::new(1)));
    acls.push(Acl::new(Ring::new(3), Ring::new(1), Ring::new(0)));
    acls
}

/// Every (principal, object, operation) combination of the grid.
fn grid() -> Vec<(PrincipalContext, ObjectContext, Operation)> {
    let mut checks = Vec::new();
    for p_ring in 0u16..=3 {
        for o_ring in 0u16..=3 {
            for acl in acl_variants() {
                for cross in [false, true] {
                    for kind in [PrincipalKind::Script, PrincipalKind::Browser] {
                        for op in Operation::ALL {
                            let p_origin = if cross { other_site() } else { site() };
                            let principal =
                                PrincipalContext::new(kind, p_origin, Ring::new(p_ring));
                            let object = ObjectContext::new(
                                ObjectKind::DomElement,
                                site(),
                                Ring::new(o_ring),
                            )
                            .with_acl(acl);
                            checks.push((principal, object, op));
                        }
                    }
                }
            }
        }
    }
    checks
}

/// Asserts that `decide_one` decides every grid point exactly as
/// `decide(mode, …)`.
fn assert_matches_decide(
    mode: PolicyMode,
    mut decide_one: impl FnMut(&PrincipalContext, &ObjectContext, Operation) -> Decision,
) {
    let grid = grid();
    // 4 principal rings × 4 object rings × 9 ACLs × 2 origins × 2 kinds × 3 ops.
    assert_eq!(grid.len(), 1728);
    for (principal, object, op) in &grid {
        assert_eq!(
            decide_one(principal, object, *op),
            decide(mode, principal, object, *op),
            "{mode:?} mismatch: {principal} / {object} / {op}"
        );
    }
}

/// The grid through `mode`'s engine, which counts each decision once.
fn assert_engine_matches_decide(mode: PolicyMode) {
    let engine = engine_for_mode(mode);
    assert_eq!(engine.mode(), mode);
    assert_matches_decide(mode, |p, o, op| engine.decide(p, o, op));
    assert_eq!(engine.stats().decisions, 1728);
}

#[test]
fn escudo_engine_matches_decide() {
    assert_engine_matches_decide(PolicyMode::Escudo);
}

#[test]
fn same_origin_engine_matches_same_origin_mode() {
    assert_engine_matches_decide(PolicyMode::SameOriginOnly);
}

/// The grid through the reference monitor: a static binding, a tenant
/// configured in `mode`, and a tenant reloaded into `mode` from the other one.
/// Each decision must be `decide(mode, …)` and each audit record must name
/// `mode`.
#[test]
fn static_and_tenant_monitors_match_decide() {
    use PolicyMode::{Escudo, SameOriginOnly};
    for (mode, other) in [(Escudo, SameOriginOnly), (SameOriginOnly, Escudo)] {
        let tenant = |mode| Arc::new(Tenant::new("t", TenantConfig::default().with_mode(mode)));
        let reloaded = tenant(other);
        let mut flipped = Erm::with_tenant(Arc::clone(&reloaded));
        reloaded.reload_with(mode);
        flipped.pin();
        for mut erm in [Erm::new(mode), Erm::with_tenant(tenant(mode)), flipped] {
            assert_matches_decide(mode, |p, o, op| erm.check(p, o, op));
            assert_eq!(erm.audit().len(), 1728);
            assert!(erm.audit().iter().all(|record| record.mode == mode));
            assert_eq!(erm.engine_stats().decisions, 1728);
        }
    }
}

#[test]
fn decide_many_matches_decide_for_the_whole_grid() {
    let grid = grid();
    let batch: Vec<(&PrincipalContext, &ObjectContext, Operation)> =
        grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
    for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
        let engine: Arc<dyn PolicyEngine> = engine_for_mode(mode);
        let decisions = engine.decide_many(&batch);
        assert_eq!(decisions.len(), grid.len());
        for ((principal, object, op), got) in grid.iter().zip(&decisions) {
            assert_eq!(*got, decide(mode, principal, object, *op));
        }
    }
}
