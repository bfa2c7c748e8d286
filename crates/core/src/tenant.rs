//! The multi-tenant policy control plane: each tenant's published policy,
//! token-bucket admission control and the tenant registry.
//!
//! ESCUDO's protection model assumes one reference monitor per browser; a
//! served deployment runs many origin-groups (*tenants*) in one process. This
//! module is the routing layer above [`crate::policy::decide`]:
//!
//! * [`TenantPolicy`] — a generation number and the [`PolicyMode`] it
//!   enforces, packed in one `AtomicU64`: pinning it ([`Tenant::policy`]) is
//!   one Acquire load, a hot reload ([`Tenant::reload_with`]) one
//!   `fetch_update`, and a plan decided under a pinned value is never torn.
//! * [`AdmissionControl`] — a token bucket rate-limiting mediation throughput
//!   per tenant, with configurable burst/refill and a saturating `rejected`
//!   counter. Enforced at the `Erm` facade so browser- and script-initiated
//!   paths are both covered.
//! * [`TenantRegistry`] — tenant id → [`Tenant`], each tenant owning an
//!   independent policy word, decision counter and admission bucket, so a
//!   noisy tenant cannot starve another's mediation.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::context::{ObjectContext, PrincipalContext};
use crate::engine::EngineStats;
use crate::operation::Operation;
use crate::policy::{decide, Decision, PolicyMode};

// ---------------------------------------------------------------------------
// Published policy.

/// A tenant's published policy: the generation number (1 at creation, bumped
/// by every reload) and the mode that generation enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// The generation number.
    pub generation: u64,
    /// The policy mode of this generation.
    pub mode: PolicyMode,
}

impl TenantPolicy {
    fn pack(self) -> u64 {
        self.generation << 1 | u64::from(self.mode == PolicyMode::SameOriginOnly)
    }

    fn unpack(word: u64) -> Self {
        let mode = match word & 1 {
            0 => PolicyMode::Escudo,
            _ => PolicyMode::SameOriginOnly,
        };
        TenantPolicy {
            generation: word >> 1,
            mode,
        }
    }
}

// ---------------------------------------------------------------------------
// Clocks.

/// The time source an [`AdmissionControl`] bucket refills against.
///
/// `std::time::Instant` cannot be constructed at arbitrary points, so the
/// bucket meters against a monotonic nanosecond counter instead: the wall
/// clock in production ([`MonotonicClock`]), a hand-advanced counter in tests
/// and benches ([`ManualClock`]) so refill behaviour is deterministic and
/// exactly gateable rather than pinned to `refill_per_sec = 0`.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Nanoseconds elapsed since the clock's own epoch. Must be monotonic.
    fn now_ns(&self) -> u64;
}

/// The production clock: nanoseconds since the clock was created.
#[derive(Debug)]
pub struct MonotonicClock {
    anchor: Instant,
}

impl MonotonicClock {
    /// A clock anchored at the moment of creation.
    #[must_use]
    pub fn new() -> Self {
        MonotonicClock {
            anchor: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock: time moves only when the test says so.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at 0 ns.
    #[must_use]
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `delta`.
    pub fn advance(&self, delta: Duration) {
        self.advance_ns(u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Advances the clock by `delta_ns` nanoseconds.
    pub fn advance_ns(&self, delta_ns: u64) {
        let _ = self
            .ns
            .fetch_update(Ordering::Release, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta_ns))
            });
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Admission control.

/// Counters of one tenant's admission bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Mediation checks admitted.
    pub admitted: u64,
    /// Mediation checks rejected (saturating — the counter never wraps).
    pub rejected: u64,
    /// Bucket capacity (0 = unlimited).
    pub burst: u64,
    /// Refill rate in tokens per second.
    pub refill_per_sec: u64,
}

/// A token-bucket rate limiter on mediation throughput. One token admits one
/// policy check; a batch is admitted all-or-nothing (a partial plan would not
/// be generation- or audit-coherent). A `burst` of 0 disables limiting.
#[derive(Debug)]
pub struct AdmissionControl {
    burst: u64,
    refill_per_sec: u64,
    clock: Arc<dyn Clock>,
    state: Mutex<BucketState>,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill_ns: u64,
}

impl AdmissionControl {
    /// An unlimited bucket: every check admits, nothing is counted rejected.
    #[must_use]
    pub fn unlimited() -> Self {
        AdmissionControl::new(0, 0)
    }

    /// A bucket holding at most `burst` tokens, refilled continuously at
    /// `refill_per_sec` tokens per second (starts full). `burst == 0` means
    /// unlimited; `refill_per_sec == 0` with a burst means the bucket never
    /// refills (useful for deterministic tests and hard caps). Meters against
    /// the wall clock; use [`AdmissionControl::with_clock`] to inject a
    /// [`ManualClock`] instead.
    #[must_use]
    pub fn new(burst: u64, refill_per_sec: u64) -> Self {
        AdmissionControl::with_clock(burst, refill_per_sec, Arc::new(MonotonicClock::new()))
    }

    /// A bucket metering refill against an injected [`Clock`].
    #[must_use]
    pub fn with_clock(burst: u64, refill_per_sec: u64, clock: Arc<dyn Clock>) -> Self {
        let now_ns = clock.now_ns();
        AdmissionControl {
            burst,
            refill_per_sec,
            clock,
            state: Mutex::new(BucketState {
                tokens: burst as f64,
                last_refill_ns: now_ns,
            }),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// `true` when this bucket never rejects.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.burst == 0
    }

    /// Requests admission for `n` checks, all-or-nothing. Admission consumes
    /// `n` tokens; rejection bumps the saturating `rejected` counter by `n`
    /// and consumes nothing.
    pub fn try_admit(&self, n: u64) -> bool {
        if n == 0 {
            return true;
        }
        if self.is_unlimited() {
            saturating_bump(&self.admitted, n);
            return true;
        }
        let admitted = {
            let mut state = self.state.lock().expect("admission bucket poisoned");
            let now_ns = self.clock.now_ns();
            let elapsed_secs = now_ns.saturating_sub(state.last_refill_ns) as f64 / 1e9;
            let refill = elapsed_secs * self.refill_per_sec as f64;
            state.tokens = (state.tokens + refill).min(self.burst as f64);
            state.last_refill_ns = now_ns;
            if state.tokens >= n as f64 {
                state.tokens -= n as f64;
                true
            } else {
                false
            }
        };
        if admitted {
            saturating_bump(&self.admitted, n);
        } else {
            saturating_bump(&self.rejected, n);
        }
        admitted
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            burst: self.burst,
            refill_per_sec: self.refill_per_sec,
        }
    }
}

fn saturating_bump(counter: &AtomicU64, n: u64) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(n))
    });
}

// ---------------------------------------------------------------------------
// Tenants and the registry.

/// Per-tenant policy and admission configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// The policy mode the tenant's first generation enforces.
    pub mode: PolicyMode,
    /// Admission-bucket capacity (0 = unlimited).
    pub admission_burst: u64,
    /// Admission refill rate, tokens per second.
    pub admission_refill_per_sec: u64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            mode: PolicyMode::Escudo,
            admission_burst: 0,
            admission_refill_per_sec: 0,
        }
    }
}

impl TenantConfig {
    /// Sets the policy mode (builder style).
    #[must_use]
    pub fn with_mode(mut self, mode: PolicyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the admission token bucket (builder style).
    #[must_use]
    pub fn with_admission(mut self, burst: u64, refill_per_sec: u64) -> Self {
        self.admission_burst = burst;
        self.admission_refill_per_sec = refill_per_sec;
        self
    }
}

/// One tenant of the control plane: a published [`TenantPolicy`], the count
/// of decisions made under its generation, and an admission bucket. Cheap to
/// share (`Arc<Tenant>`); every browser session bound to the tenant reads the
/// same word and bucket.
#[derive(Debug)]
pub struct Tenant {
    id: String,
    config: TenantConfig,
    /// The published [`TenantPolicy`], as `generation << 1 | sop_bit`.
    policy: AtomicU64,
    decisions: AtomicU64,
    admission: AdmissionControl,
}

impl Tenant {
    /// Creates a free-standing tenant (registry-less tests and benches).
    #[must_use]
    pub fn new(id: &str, config: TenantConfig) -> Self {
        Tenant::with_clock(id, config, Arc::new(MonotonicClock::new()))
    }

    /// Creates a tenant whose admission bucket refills against the given
    /// [`Clock`] — a [`ManualClock`] makes throttling fully deterministic.
    #[must_use]
    pub fn with_clock(id: &str, config: TenantConfig, clock: Arc<dyn Clock>) -> Self {
        let first = TenantPolicy {
            generation: 1,
            mode: config.mode,
        };
        Tenant {
            id: id.to_string(),
            config,
            policy: AtomicU64::new(first.pack()),
            decisions: AtomicU64::new(0),
            admission: AdmissionControl::with_clock(
                config.admission_burst,
                config.admission_refill_per_sec,
                clock,
            ),
        }
    }

    /// The tenant id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The configuration the tenant was registered with.
    #[must_use]
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// The admission bucket.
    #[must_use]
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// The currently published policy (one Acquire load). A caller pins a
    /// plan by deciding the whole plan against the value it read here.
    #[must_use]
    pub fn policy(&self) -> TenantPolicy {
        TenantPolicy::unpack(self.policy.load(Ordering::Acquire))
    }

    /// The currently published generation number.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.policy().generation
    }

    /// Decisions counted since the last reload. The count is exact only when
    /// no plan runs across a reload: a plan pinned before the reload counts
    /// toward the new generation if it is decided after the reset.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            decisions: self.decisions.load(Ordering::Relaxed),
            cache_hits: 0,
        }
    }

    /// Decides `checks` in order under the `pinned` policy's mode, each
    /// exactly as [`decide`] would, and counts them.
    pub fn decide_many(
        &self,
        pinned: TenantPolicy,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        self.decisions
            .fetch_add(checks.len() as u64, Ordering::Relaxed);
        checks
            .iter()
            .map(|(principal, object, op)| decide(pinned.mode, principal, object, *op))
            .collect()
    }

    /// Hot policy reload of this tenant's own configured mode: publishes the
    /// next generation and restarts the decision count. Returns the retired
    /// policy.
    pub fn reload(&self) -> TenantPolicy {
        self.reload_with(self.config.mode)
    }

    /// Hot policy reload publishing `mode` as the next generation. Plans
    /// pinned to the retired policy finish under it undisturbed.
    pub fn reload_with(&self, mode: PolicyMode) -> TenantPolicy {
        let next = |word| {
            let generation = TenantPolicy::unpack(word).generation + 1;
            Some(TenantPolicy { generation, mode }.pack())
        };
        let retired = self
            .policy
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, next)
            .expect("the update always publishes");
        self.decisions.store(0, Ordering::Relaxed);
        TenantPolicy::unpack(retired)
    }
}

/// The tenant routing layer: tenant id → [`Tenant`]. Registration is
/// get-or-create; lookups clone the `Arc`, so the read lock is held only for
/// the probe.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: RwLock<Vec<Arc<Tenant>>>,
}

impl TenantRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        TenantRegistry::default()
    }

    /// Returns the tenant registered under `id`, creating it with `config` if
    /// absent. An existing tenant is returned unchanged — re-registration
    /// never resets a live policy or its counters (use [`Tenant::reload`]).
    pub fn register(&self, id: &str, config: TenantConfig) -> Arc<Tenant> {
        if let Some(existing) = self.get(id) {
            return existing;
        }
        let mut tenants = self.tenants.write().expect("tenant registry poisoned");
        // Re-probe under the write lock: another thread may have registered
        // the id between our read probe and here.
        if let Some(existing) = tenants.iter().find(|t| t.id == id) {
            return Arc::clone(existing);
        }
        let tenant = Arc::new(Tenant::new(id, config));
        tenants.push(Arc::clone(&tenant));
        tenant
    }

    /// Looks up a tenant by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenant registry poisoned")
            .iter()
            .find(|t| t.id == id)
            .map(Arc::clone)
    }

    /// Snapshot of every registered tenant, in registration order.
    #[must_use]
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenant registry poisoned")
            .iter()
            .map(Arc::clone)
            .collect()
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.read().expect("tenant registry poisoned").len()
    }

    /// `true` when no tenant is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hot-reloads the tenant registered under `id` to its own configured
    /// mode. Returns the retired policy, or `None` for an unknown id.
    pub fn reload(&self, id: &str) -> Option<TenantPolicy> {
        self.get(id).map(|tenant| tenant.reload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
    use crate::{Operation, Origin, Ring};

    fn check_pair() -> (PrincipalContext, ObjectContext) {
        let origin = Origin::new("http", "app.example", 80);
        (
            PrincipalContext::new(PrincipalKind::Script, origin.clone(), Ring::new(3)),
            ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1)),
        )
    }

    #[test]
    fn reload_publishes_the_next_word_without_disturbing_pinned_plans() {
        let tenant = Tenant::new("acme", TenantConfig::default());
        let pinned = tenant.policy();
        assert_eq!((pinned.generation, pinned.mode), (1, PolicyMode::Escudo));
        assert_eq!(tenant.reload_with(PolicyMode::SameOriginOnly), pinned);
        let published = tenant.policy();
        assert_eq!(
            (published.generation, published.mode),
            (2, PolicyMode::SameOriginOnly)
        );

        // A plan pinned before the reload is still decided under ESCUDO.
        let (principal, object) = check_pair();
        let check = [(&principal, &object, Operation::Read)];
        assert!(tenant.decide_many(pinned, &check)[0].is_denied());
        assert!(tenant.decide_many(published, &check)[0].is_allowed());
        assert_eq!(tenant.engine_stats().decisions, 2);

        // `reload` publishes the configured mode and restarts the count.
        assert_eq!(tenant.reload(), published);
        assert_eq!(tenant.policy().mode, PolicyMode::Escudo);
        assert_eq!(
            (tenant.generation(), tenant.engine_stats().decisions),
            (3, 0)
        );
    }

    #[test]
    fn token_bucket_admits_the_burst_and_counts_the_rest_rejected() {
        // refill 0: deterministic — exactly `burst` tokens, ever.
        let bucket = AdmissionControl::new(4, 0);
        assert!(bucket.try_admit(3));
        assert!(!bucket.try_admit(2), "only 1 token left");
        assert!(bucket.try_admit(1));
        assert!(!bucket.try_admit(1));
        let stats = bucket.stats();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.burst, 4);

        // Batches are all-or-nothing: an over-burst batch rejects whole.
        let batch = AdmissionControl::new(8, 0);
        assert!(!batch.try_admit(9));
        assert!(batch.try_admit(8));
        assert_eq!(batch.stats().rejected, 9);

        let open = AdmissionControl::unlimited();
        assert!(open.is_unlimited());
        assert!(open.try_admit(1_000_000));
        assert_eq!(open.stats().rejected, 0);
        assert!(open.try_admit(0));
    }

    #[test]
    fn token_bucket_refills_against_the_injected_clock() {
        // 10 tokens/sec against a manual clock: refill is exact, not racy.
        let clock = Arc::new(ManualClock::new());
        let bucket = AdmissionControl::with_clock(2, 10, Arc::clone(&clock) as Arc<dyn Clock>);
        assert!(bucket.try_admit(2), "starts full");
        assert!(!bucket.try_admit(1), "drained; clock has not moved");

        // 100 ms at 10 tokens/sec refills exactly one token.
        clock.advance(Duration::from_millis(100));
        assert!(bucket.try_admit(1));
        assert!(!bucket.try_admit(1), "the single refilled token is spent");

        // A long sleep clamps at the burst: 10 s would mint 100 tokens but
        // the bucket holds 2.
        clock.advance(Duration::from_secs(10));
        assert!(bucket.try_admit(2));
        assert!(!bucket.try_admit(1));

        let stats = bucket.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.rejected, 3);
    }

    #[test]
    fn manual_clock_advances_only_by_hand() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.advance_ns(7);
        clock.advance(Duration::from_micros(1));
        assert_eq!(clock.now_ns(), 1_007);
        // Saturates instead of wrapping.
        clock.advance_ns(u64::MAX);
        assert_eq!(clock.now_ns(), u64::MAX);
    }

    #[test]
    fn monotonic_clock_moves_forward() {
        let clock = MonotonicClock::new();
        let first = clock.now_ns();
        std::thread::yield_now();
        assert!(clock.now_ns() >= first);
    }

    #[test]
    fn tenant_with_clock_throttles_deterministically() {
        let clock = Arc::new(ManualClock::new());
        let tenant = Tenant::with_clock(
            "metered",
            TenantConfig::default().with_admission(4, 1),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        assert!(tenant.admission().try_admit(4));
        assert!(!tenant.admission().try_admit(1));
        clock.advance(Duration::from_secs(2));
        assert!(tenant.admission().try_admit(2));
        assert_eq!(tenant.admission().stats().admitted, 6);
        assert_eq!(tenant.admission().stats().rejected, 1);
    }

    #[test]
    fn registry_routes_by_id_with_independent_engines() {
        let registry = TenantRegistry::new();
        assert!(registry.is_empty());
        let a = registry.register("a", TenantConfig::default());
        let b = registry.register("b", TenantConfig::default().with_admission(10, 100));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.get("a").unwrap().id(), "a");
        assert!(registry.get("ghost").is_none());

        // Re-registration returns the live tenant unchanged.
        let again = registry.register("a", TenantConfig::default());
        assert!(Arc::ptr_eq(&a, &again));

        // Independent counters: deciding through A counts only on A.
        let (principal, object) = check_pair();
        a.decide_many(a.policy(), &[(&principal, &object, Operation::Read)]);
        assert_eq!(a.engine_stats().decisions, 1);
        assert_eq!(b.engine_stats().decisions, 0);
        assert_eq!(b.config().admission_burst, 10);
        assert_eq!(b.admission().stats().burst, 10);

        // Registry-level reload bumps only the named tenant's generation.
        assert!(registry.reload("a").is_some());
        assert_eq!(a.generation(), 2);
        assert_eq!(b.generation(), 1);
        assert_eq!(a.engine_stats().decisions, 0, "reload is a fresh epoch");
        assert!(registry.reload("ghost").is_none());
        assert_eq!(registry.tenants().len(), 2);
    }

    #[test]
    fn sop_tenants_build_the_baseline_engine() {
        let tenant = Tenant::new(
            "legacy",
            TenantConfig::default().with_mode(PolicyMode::SameOriginOnly),
        );
        let pinned = tenant.policy();
        assert_eq!(pinned.mode, PolicyMode::SameOriginOnly);
        let (principal, object) = check_pair();
        assert!(
            tenant.decide_many(pinned, &[(&principal, &object, Operation::Read)])[0].is_allowed()
        );
        // The baseline's stats surface through the same path as Escudo's.
        assert_eq!(tenant.engine_stats().decisions, 1);
    }
}
