//! The pluggable policy engine: one decision core shared by every enforcement point.
//!
//! The paper's prototype spreads the ESCUDO Reference Monitor "over several places
//! because the places to embed the checks is specific to the object type". That is
//! fine for *enforcement* — the checks must live where the objects live — but the
//! *decision procedure* itself should exist exactly once, behind one interface, so it
//! can be shared and swapped independently of the enforcement points (WebSpec argues
//! for a single machine-checkable decision core; WebPol shows fine-grained policies
//! only scale when evaluation is factored out of enforcement).
//!
//! This module provides that factoring:
//!
//! * [`PolicyEngine`] — the trait every decision core implements: [`decide`]
//!   (one mediation) and [`decide_many`] (batch mediation),
//! * [`RuleEngine`] — the engine for either [`PolicyMode`]: it evaluates the
//!   three rules with [`crate::policy::decide`] on every check and counts
//!   decisions with one relaxed counter,
//! * [`engine_for_mode`] — the factory the browser uses to pick an engine.
//!
//! The three rules are a few comparisons, so the engine keeps no memo of past
//! decisions: evaluating them directly is cheaper than any cache lookup, and it
//! is exactly the paper's model. The engine takes `&self` and is `Send + Sync`,
//! so one engine can be shared by every page of a browsing session (or every
//! session of a multi-tenant server) via `Arc<dyn PolicyEngine>`.
//!
//! [`decide`]: PolicyEngine::decide
//! [`decide_many`]: PolicyEngine::decide_many
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use escudo_core::engine::{engine_for_mode, PolicyEngine};
//! use escudo_core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
//! use escudo_core::{Acl, Operation, Origin, PolicyMode, Ring};
//!
//! let engine: Arc<dyn PolicyEngine> = engine_for_mode(PolicyMode::Escudo);
//! let origin = Origin::new("http", "blog.example", 80);
//! let script = PrincipalContext::new(PrincipalKind::Script, origin.clone(), Ring::new(3));
//! let post = ObjectContext::new(ObjectKind::DomElement, origin, Ring::new(1))
//!     .with_acl(Acl::uniform(Ring::new(1)));
//!
//! assert!(engine.decide(&script, &post, Operation::Write).is_denied());
//! assert_eq!(engine.stats().decisions, 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::context::{ObjectContext, PrincipalContext};
use crate::operation::Operation;
use crate::policy::{decide, Decision, PolicyMode};

/// Counters of an engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total decisions requested.
    pub decisions: u64,
    /// Always 0: no engine memoizes decisions. Kept only because perfbench
    /// reads it for `core.engine.hit_ratio`.
    pub cache_hits: u64,
}

/// The single decision interface every enforcement point goes through.
///
/// Implementations must be cheap to share: `decide` takes `&self` and the trait
/// requires `Send + Sync`, so one engine instance can serve every page, thread and
/// tenant of a deployment behind an `Arc<dyn PolicyEngine>`.
pub trait PolicyEngine: Send + Sync + fmt::Debug {
    /// The policy mode this engine enforces.
    fn mode(&self) -> PolicyMode;

    /// Decides whether `principal` may perform `op` on `object`.
    ///
    /// Must return exactly what [`crate::policy::decide`] returns for this engine's
    /// mode.
    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision;

    /// Batch mediation: decides a slice of checks in order, each exactly as
    /// [`decide`](PolicyEngine::decide) would.
    fn decide_many(
        &self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision>;

    /// The engine's counters.
    fn stats(&self) -> EngineStats;

    /// Always 0, like [`EngineStats::cache_hits`]. Kept only because perfbench
    /// implements and reads it.
    fn cache_hits(&self) -> u64 {
        0
    }
}

/// The engine for either policy mode: the paper's rules plus one relaxed
/// decision counter.
#[derive(Debug)]
pub struct RuleEngine {
    mode: PolicyMode,
    decisions: AtomicU64,
}

impl RuleEngine {
    /// Creates an engine enforcing `mode`.
    #[must_use]
    pub fn new(mode: PolicyMode) -> Self {
        RuleEngine {
            mode,
            decisions: AtomicU64::new(0),
        }
    }
}

impl PolicyEngine for RuleEngine {
    fn mode(&self) -> PolicyMode {
        self.mode
    }

    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        decide(self.mode, principal, object, op)
    }

    fn decide_many(
        &self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        self.decisions
            .fetch_add(checks.len() as u64, Ordering::Relaxed);
        checks
            .iter()
            .map(|(principal, object, op)| decide(self.mode, principal, object, *op))
            .collect()
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            decisions: self.decisions.load(Ordering::Relaxed),
            cache_hits: 0,
        }
    }
}

/// The factory enforcement layers use: a fresh [`RuleEngine`] for `mode`.
#[must_use]
pub fn engine_for_mode(mode: PolicyMode) -> Arc<dyn PolicyEngine> {
    Arc::new(RuleEngine::new(mode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Acl;
    use crate::context::{ObjectKind, PrincipalKind};
    use crate::origin::Origin;
    use crate::ring::Ring;

    fn site() -> Origin {
        Origin::new("http", "app.example", 80)
    }

    fn other_site() -> Origin {
        Origin::new("http", "evil.example", 80)
    }

    fn script(ring: u16) -> PrincipalContext {
        PrincipalContext::new(PrincipalKind::Script, site(), Ring::new(ring))
    }

    fn dom(ring: u16, acl: Acl) -> ObjectContext {
        ObjectContext::new(ObjectKind::DomElement, site(), Ring::new(ring)).with_acl(acl)
    }

    #[test]
    fn decisions_match_the_free_function() {
        let engine = RuleEngine::new(PolicyMode::Escudo);
        let object = dom(2, Acl::uniform(Ring::new(1)));
        for ring in 0u16..5 {
            for op in Operation::ALL {
                let expected = decide(PolicyMode::Escudo, &script(ring), &object, op);
                assert_eq!(engine.decide(&script(ring), &object, op), expected);
                assert_eq!(engine.decide(&script(ring), &object, op), expected);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.decisions, 30);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn decide_many_matches_individual_decides() {
        let engine = RuleEngine::new(PolicyMode::Escudo);
        let p1 = script(1);
        let p3 = script(3);
        let foreign = PrincipalContext::new(PrincipalKind::Script, other_site(), Ring::new(0));
        let object = dom(2, Acl::uniform(Ring::new(1)));
        let batch: Vec<(&PrincipalContext, &ObjectContext, Operation)> = vec![
            (&p1, &object, Operation::Read),
            (&p3, &object, Operation::Write),
            (&foreign, &object, Operation::Read),
            (&p1, &object, Operation::Read),
        ];
        let results = engine.decide_many(&batch);
        for ((p, o, op), got) in batch.iter().zip(&results) {
            assert_eq!(*got, decide(PolicyMode::Escudo, p, o, *op));
        }
        // One counter bump per batch, by the batch's length.
        assert_eq!(engine.stats().decisions, 4);
    }

    #[test]
    fn same_origin_engine_is_the_sop_baseline() {
        let engine = RuleEngine::new(PolicyMode::SameOriginOnly);
        let object = dom(0, Acl::ring_zero_only());
        // Ring is irrelevant under the SOP…
        assert!(engine
            .decide(&script(u16::MAX), &object, Operation::Write)
            .is_allowed());
        // …but a cross-origin principal is still denied.
        let foreign = PrincipalContext::new(PrincipalKind::Script, other_site(), Ring::new(0));
        assert!(engine
            .decide(&foreign, &object, Operation::Read)
            .is_denied());
        assert_eq!(engine.mode(), PolicyMode::SameOriginOnly);
        assert_eq!(engine.stats().decisions, 2);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn factory_picks_the_engine_by_mode() {
        assert_eq!(
            engine_for_mode(PolicyMode::Escudo).mode(),
            PolicyMode::Escudo
        );
        assert_eq!(
            engine_for_mode(PolicyMode::SameOriginOnly).mode(),
            PolicyMode::SameOriginOnly
        );
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = engine_for_mode(PolicyMode::Escudo);
        let mut handles = Vec::new();
        for ring in 0u16..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let object = ObjectContext::new(
                    ObjectKind::DomElement,
                    Origin::new("http", "app.example", 80),
                    Ring::new(2),
                )
                .with_acl(Acl::uniform(Ring::new(1)));
                let p = PrincipalContext::new(
                    PrincipalKind::Script,
                    Origin::new("http", "app.example", 80),
                    Ring::new(ring),
                );
                for _ in 0..100 {
                    let got = engine.decide(&p, &object, Operation::Read);
                    assert_eq!(
                        got,
                        decide(PolicyMode::Escudo, &p, &object, Operation::Read)
                    );
                }
            }));
        }
        for handle in handles {
            handle.join().expect("thread");
        }
        assert_eq!(engine.stats().decisions, 400);
    }
}
