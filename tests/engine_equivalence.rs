//! Engine/decide equivalence: the engines, however built, must return
//! **byte-identical** decisions to the `escudo_core::policy::decide` free function.
//!
//! The grid is exhaustive over rings 0..=3 for principal and object, every
//! `Operation`, same- and cross-origin pairs, a spread of ACL variants, and both
//! principal exemption cases (script vs browser chrome).

use std::sync::Arc;

use escudo::core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
use escudo::core::tenant::TenantConfig;
use escudo::core::{
    decide, engine_for_mode, Acl, Operation, Origin, PolicyEngine, PolicyMode, Ring,
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

/// Asserts that `engine` decides every grid point exactly as `decide(mode, …)`,
/// and counts each decision once.
fn assert_matches_decide(engine: &dyn PolicyEngine, mode: PolicyMode) {
    let grid = grid();
    // 4 principal rings × 4 object rings × 9 ACLs × 2 origins × 2 kinds × 3 ops.
    assert_eq!(grid.len(), 1728);
    assert_eq!(engine.mode(), mode);
    for (principal, object, op) in &grid {
        assert_eq!(
            engine.decide(principal, object, *op),
            decide(mode, principal, object, *op),
            "{mode:?} mismatch: {principal} / {object} / {op}"
        );
    }
    assert_eq!(engine.stats().decisions, grid.len() as u64);
}

#[test]
fn escudo_engine_matches_decide() {
    assert_matches_decide(&*engine_for_mode(PolicyMode::Escudo), PolicyMode::Escudo);
}

#[test]
fn same_origin_engine_matches_same_origin_mode() {
    assert_matches_decide(
        &*engine_for_mode(PolicyMode::SameOriginOnly),
        PolicyMode::SameOriginOnly,
    );
}

#[test]
fn tenant_built_engines_match_decide() {
    for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
        let engine = TenantConfig::default().with_mode(mode).build_engine();
        assert_matches_decide(&*engine, mode);
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
