//! One coherent observability surface for the whole control plane.
//!
//! Every layer of the stack keeps its own counters — the engine's decision
//! count, the reference monitor's check/denial/audit-drop tallies, the cookie
//! jar's shard statistics, the network fabric's request log, prefetch cache
//! and speculative-request count, and each tenant's admission bucket. Before
//! this module, some of those counters ([`Erm::audit_dropped`], the
//! same-origin baseline's stats) had no exported surface at all: they could be asserted in unit tests but never
//! observed from a running deployment.
//!
//! [`ControlPlaneSnapshot`] gathers all of them into a single struct with a
//! **stable field layout** ([`ControlPlaneSnapshot::fields`]): every snapshot
//! renders the same keys in the same order, so the benches' `--json` writer can
//! export it verbatim and the trajectory comparator can diff snapshots across
//! commits without schema drift.

use escudo_core::tenant::{AdmissionStats, TenantConfig, TenantRegistry};
use escudo_core::EngineStats;
use escudo_net::{JarStats, SharedCookieJar, SharedNetwork};

use crate::browser::Browser;
use crate::erm::Erm;

/// Counters of one [`Erm`] reference monitor, including the audit-ring drop
/// counter that previously had no exported surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErmCounters {
    /// Total mediated checks.
    pub checks: u64,
    /// Checks that were denied (including admission-control shedding).
    pub denials: u64,
    /// Audit records currently retained in the ring.
    pub audit_retained: u64,
    /// Bound on retained audit records.
    pub audit_capacity: u64,
    /// Audit records dropped because the ring was full.
    pub audit_dropped: u64,
}

impl ErmCounters {
    /// Reads the counters of `erm`.
    #[must_use]
    pub fn gather(erm: &Erm) -> Self {
        ErmCounters {
            checks: erm.checks(),
            denials: erm.denials(),
            audit_retained: erm.audit().len() as u64,
            audit_capacity: erm.audit_capacity() as u64,
            audit_dropped: erm.audit_dropped(),
        }
    }
}

/// Counters of one [`SharedNetwork`] fabric: request log, prefetch cache,
/// speculative requests, the precision of its latency waits and the deadline
/// window's per-origin deferrals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Requests currently resident in the bounded log.
    pub log_len: u64,
    /// Bound on retained log entries.
    pub log_capacity: u64,
    /// Log entries dropped because the log was full.
    pub dropped_log_entries: u64,
    /// Navigations served from the prefetch cache.
    pub prefetch_hits: u64,
    /// Prefetched entries discarded because their mediation plan went stale.
    pub prefetch_stale_discards: u64,
    /// Entries resident in the prefetch cache.
    pub prefetched_entries: u64,
    /// Speculative requests completed on prefetch threads
    /// ([`SharedNetwork::background_requests`]).
    pub pool_jobs_executed: u64,
    /// Always 0: nothing preempts a fetch. Kept only because perfbench reads
    /// it for `net.fetch_pool.preemptions_per_op`.
    pub pool_preemptions: u64,
    /// Failing faults injected by installed fault plans (timeouts + panics).
    pub fault_injected: u64,
    /// Dispatches slowed by an injected `SlowBy` schedule.
    pub fault_slowdowns: u64,
    /// Retry attempts granted across all resilient dispatches.
    pub retry_attempts: u64,
    /// Resilient dispatches that succeeded only after retrying.
    pub retry_successes: u64,
    /// Retries refused because a batch deadline budget ran dry.
    pub retry_deadline_exhausted: u64,
    /// Circuit-breaker trips (including half-open re-trips).
    pub breaker_trips: u64,
    /// Half-open probes admitted after a breaker cooldown.
    pub breaker_probes: u64,
    /// Breakers closed by a successful half-open probe.
    pub breaker_recoveries: u64,
    /// Dispatches refused outright by an open breaker.
    pub breaker_fast_fails: u64,
    /// Fetches served from persistent response-cache entries (zero-copy hits).
    pub cache_hits: u64,
    /// Cache entries discarded because their freshness TTL had lapsed.
    pub cache_expired: u64,
    /// Cache entries evicted by the per-shard LRU capacity bound.
    pub cache_evictions: u64,
    /// Responses inserted into the cache (both layers).
    pub cache_stored: u64,
    /// Duplicate plan slots served by batch-level single-flight coalescing.
    pub cache_coalesced: u64,
    /// Entries currently resident in the response cache (both layers).
    pub cache_entries: u64,
    /// Latency waits that actually slept.
    pub latency_waits: u64,
    /// Total nanoseconds those waits woke past their due times.
    pub wait_overshoot_ns: u64,
    /// Deadline-window requests whose send waited on an origin's in-flight
    /// bound, their own or the one holding the plan's head.
    pub window_origin_deferrals: u64,
}

impl FabricCounters {
    /// Reads the counters of `fabric`.
    #[must_use]
    pub fn gather(fabric: &SharedNetwork) -> Self {
        FabricCounters {
            log_len: fabric.log_len() as u64,
            log_capacity: fabric.log_capacity() as u64,
            dropped_log_entries: fabric.dropped_log_entries(),
            prefetch_hits: fabric.prefetch_hits(),
            prefetch_stale_discards: fabric.prefetch_stale_discards(),
            prefetched_entries: fabric.prefetched_entries() as u64,
            pool_jobs_executed: fabric.background_requests(),
            pool_preemptions: 0,
            fault_injected: fabric.faults_injected(),
            fault_slowdowns: fabric.fault_slowdowns(),
            retry_attempts: fabric.retry_attempts(),
            retry_successes: fabric.retry_successes(),
            retry_deadline_exhausted: fabric.retry_deadline_exhausted(),
            breaker_trips: fabric.breaker_trips(),
            breaker_probes: fabric.breaker_probes(),
            breaker_recoveries: fabric.breaker_recoveries(),
            breaker_fast_fails: fabric.breaker_fast_fails(),
            cache_hits: fabric.cache_hits(),
            cache_expired: fabric.cache_expired(),
            cache_evictions: fabric.cache_evictions(),
            cache_stored: fabric.cache_stored(),
            cache_coalesced: fabric.cache_coalesced(),
            cache_entries: fabric.cache_entries() as u64,
            latency_waits: fabric.latency_waits(),
            wait_overshoot_ns: fabric.wait_overshoot_ns(),
            window_origin_deferrals: fabric.window_origin_deferrals(),
        }
    }
}

/// One tenant's slice of the control plane: its engine generation, the
/// generation's engine statistics and its admission bucket.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The tenant id.
    pub id: String,
    /// The currently published engine generation.
    pub generation: u64,
    /// The current generation's engine statistics.
    pub engine: EngineStats,
    /// The tenant's admission-control counters.
    pub admission: AdmissionStats,
    /// The tenant's configuration (policy mode, admission posture).
    pub config: TenantConfig,
}

/// A one-word judgement over a [`ControlPlaneSnapshot`]'s own fields: is this
/// deployment keeping up, visibly straining, or shedding so hard its numbers
/// can no longer be trusted?
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthVerdict {
    /// All thresholds comfortably clear.
    Ok,
    /// Operating, but losing fidelity: noticeable admission shedding, audit
    /// records dropping, log entries dropping, or a mostly-stale prefetch
    /// cache.
    Degraded,
    /// Shedding or dropping a majority of its work — counters understate what
    /// actually happened.
    Failing,
}

impl HealthVerdict {
    /// A stable numeric code for JSON export: `Ok` = 0, `Degraded` = 1,
    /// `Failing` = 2.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            HealthVerdict::Ok => 0,
            HealthVerdict::Degraded => 1,
            HealthVerdict::Failing => 2,
        }
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = match self {
            HealthVerdict::Ok => "ok",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Failing => "failing",
        };
        write!(f, "{word}")
    }
}

/// The unified observability snapshot of ISSUE 7: engine + reference monitor +
/// cookie jar + network fabric + per-tenant admission, in one struct.
#[derive(Debug, Clone)]
pub struct ControlPlaneSnapshot {
    /// Statistics of the engine the observed session currently enforces
    /// through, in either policy mode.
    pub engine: EngineStats,
    /// The observed session's reference-monitor counters.
    pub erm: ErmCounters,
    /// The shared cookie jar's shard statistics.
    pub jar: JarStats,
    /// The shared network fabric's counters.
    pub fabric: FabricCounters,
    /// Per-tenant snapshots, sorted by tenant id (empty without a registry).
    pub tenants: Vec<TenantSnapshot>,
}

impl ControlPlaneSnapshot {
    /// Gathers a snapshot from the individual layers. Pass the control plane's
    /// [`TenantRegistry`] to include every registered tenant; `None` snapshots
    /// a single-tenant (library-mode) deployment.
    #[must_use]
    pub fn gather(
        erm: &Erm,
        jar: &SharedCookieJar,
        fabric: &SharedNetwork,
        registry: Option<&TenantRegistry>,
    ) -> Self {
        let mut tenants: Vec<TenantSnapshot> = registry
            .map(|registry| {
                registry
                    .tenants()
                    .iter()
                    .map(|tenant| TenantSnapshot {
                        id: tenant.id().to_string(),
                        generation: tenant.generation(),
                        engine: tenant.engine_stats(),
                        admission: tenant.admission().stats(),
                        config: *tenant.config(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        tenants.sort_by(|a, b| a.id.cmp(&b.id));
        ControlPlaneSnapshot {
            engine: erm.engine_stats(),
            erm: ErmCounters::gather(erm),
            jar: jar.stats(),
            fabric: FabricCounters::gather(fabric),
            tenants,
        }
    }

    /// Gathers a snapshot through a [`Browser`] session's own handles. If the
    /// session is tenant-bound and no registry is given, the snapshot still
    /// carries that one tenant's slice.
    #[must_use]
    pub fn from_browser(browser: &Browser, registry: Option<&TenantRegistry>) -> Self {
        let mut snapshot = ControlPlaneSnapshot::gather(
            browser.erm(),
            browser.cookie_jar(),
            browser.fabric(),
            registry,
        );
        if registry.is_none() {
            if let Some(tenant) = browser.tenant() {
                snapshot.tenants.push(TenantSnapshot {
                    id: tenant.id().to_string(),
                    generation: tenant.generation(),
                    engine: tenant.engine_stats(),
                    admission: tenant.admission().stats(),
                    config: *tenant.config(),
                });
            }
        }
        snapshot
    }

    /// Judges the snapshot against fixed thresholds over its own fields.
    ///
    /// * **Shed rate** — rejected / (admitted + rejected) summed over every
    ///   tenant's admission bucket. Over 5% is [`HealthVerdict::Degraded`];
    ///   over 50% is [`HealthVerdict::Failing`].
    /// * **Audit drop rate** — audit records dropped per mediated check. Over
    ///   5% is `Degraded`; over 50% is `Failing` (the audit trail no longer
    ///   reflects enforcement). A monitor of audit capacity 0 keeps no trail
    ///   by design and drops every record, so this signal is skipped for it.
    /// * **Prefetch staleness** — stale discards / (hits + stale discards).
    ///   Over 50% is `Degraded`: the prefetcher is mostly wasted work.
    /// * **Log drops** — any dropped request-log entry is `Degraded` (the
    ///   fabric log understates traffic).
    ///
    /// The verdict is the worst of the four signals.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn health(&self) -> HealthVerdict {
        let rate = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let (admitted, rejected) = self.tenants.iter().fold((0u64, 0u64), |(a, r), t| {
            (
                a.saturating_add(t.admission.admitted),
                r.saturating_add(t.admission.rejected),
            )
        });
        let shed_rate = rate(rejected, admitted.saturating_add(rejected));
        let audit_drop_rate = if self.erm.audit_capacity == 0 {
            0.0
        } else {
            rate(self.erm.audit_dropped, self.erm.checks)
        };
        let prefetch_stale_rate = rate(
            self.fabric.prefetch_stale_discards,
            self.fabric
                .prefetch_hits
                .saturating_add(self.fabric.prefetch_stale_discards),
        );

        if shed_rate > 0.5 || audit_drop_rate > 0.5 {
            HealthVerdict::Failing
        } else if shed_rate > 0.05
            || audit_drop_rate > 0.05
            || prefetch_stale_rate > 0.5
            || self.fabric.dropped_log_entries > 0
        {
            HealthVerdict::Degraded
        } else {
            HealthVerdict::Ok
        }
    }

    /// The snapshot flattened to `(key, value)` pairs in a **stable order**:
    /// `engine_*`, then `erm_*`, then `jar_*`, then `fabric_*`, then one
    /// `tenant_<id>_*` block per tenant in id order. This is the layout the
    /// benches' `--json` writer exports, so adding a field here (always at the
    /// end of its block) is the only way the exported schema may evolve.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn fields(&self) -> Vec<(String, f64)> {
        let mut fields: Vec<(String, f64)> = Vec::new();
        let mut push = |key: String, value: f64| fields.push((key, value));

        push("engine_decisions".into(), self.engine.decisions as f64);

        push("erm_checks".into(), self.erm.checks as f64);
        push("erm_denials".into(), self.erm.denials as f64);
        push("erm_audit_retained".into(), self.erm.audit_retained as f64);
        push("erm_audit_capacity".into(), self.erm.audit_capacity as f64);
        push("erm_audit_dropped".into(), self.erm.audit_dropped as f64);

        push("jar_stored".into(), self.jar.stored as f64);
        push("jar_replaced".into(), self.jar.replaced as f64);
        push("jar_evicted".into(), self.jar.evicted as f64);
        push("jar_expired".into(), self.jar.expired as f64);
        push("jar_resident".into(), self.jar.resident as f64);
        push("jar_shards".into(), self.jar.shards.len() as f64);

        push("fabric_log_len".into(), self.fabric.log_len as f64);
        push(
            "fabric_log_capacity".into(),
            self.fabric.log_capacity as f64,
        );
        push(
            "fabric_dropped_log_entries".into(),
            self.fabric.dropped_log_entries as f64,
        );
        push(
            "fabric_prefetch_hits".into(),
            self.fabric.prefetch_hits as f64,
        );
        push(
            "fabric_prefetch_stale_discards".into(),
            self.fabric.prefetch_stale_discards as f64,
        );
        push(
            "fabric_prefetched_entries".into(),
            self.fabric.prefetched_entries as f64,
        );
        push(
            "fabric_pool_jobs_executed".into(),
            self.fabric.pool_jobs_executed as f64,
        );

        // Chaos counters, exported by the benches as `cp_fault_*` /
        // `cp_retry_*` / `cp_breaker_*` — the trajectory comparator treats
        // them as informational so chaos tallies can never flake a perf gate.
        push("fault_injected".into(), self.fabric.fault_injected as f64);
        push("fault_slowdowns".into(), self.fabric.fault_slowdowns as f64);
        push("retry_attempts".into(), self.fabric.retry_attempts as f64);
        push("retry_successes".into(), self.fabric.retry_successes as f64);
        push(
            "retry_deadline_exhausted".into(),
            self.fabric.retry_deadline_exhausted as f64,
        );
        push("breaker_trips".into(), self.fabric.breaker_trips as f64);
        push("breaker_probes".into(), self.fabric.breaker_probes as f64);
        push(
            "breaker_recoveries".into(),
            self.fabric.breaker_recoveries as f64,
        );
        push(
            "breaker_fast_fails".into(),
            self.fabric.breaker_fast_fails as f64,
        );

        // Response-cache counters, exported by the benches as `cp_cache_*` —
        // informational to the trajectory comparator (hit-rate *gates* stay in
        // the benches themselves, where the workload is controlled).
        push("cache_hits".into(), self.fabric.cache_hits as f64);
        push("cache_expired".into(), self.fabric.cache_expired as f64);
        push("cache_evictions".into(), self.fabric.cache_evictions as f64);
        push("cache_stored".into(), self.fabric.cache_stored as f64);
        push("cache_coalesced".into(), self.fabric.cache_coalesced as f64);
        push("cache_entries".into(), self.fabric.cache_entries as f64);
        push(
            "fabric_latency_waits".into(),
            self.fabric.latency_waits as f64,
        );
        push(
            "fabric_wait_overshoot_ns".into(),
            self.fabric.wait_overshoot_ns as f64,
        );
        push(
            "fabric_window_origin_deferrals".into(),
            self.fabric.window_origin_deferrals as f64,
        );

        for tenant in &self.tenants {
            let prefix = format!("tenant_{}", tenant.id);
            push(format!("{prefix}_generation"), tenant.generation as f64);
            push(
                format!("{prefix}_decisions"),
                tenant.engine.decisions as f64,
            );
            push(
                format!("{prefix}_admitted"),
                tenant.admission.admitted as f64,
            );
            push(
                format!("{prefix}_rejected"),
                tenant.admission.rejected as f64,
            );
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_core::tenant::{Tenant, TenantConfig};
    use escudo_core::PolicyMode;
    use std::sync::Arc;

    #[test]
    fn snapshot_reaches_every_layer_including_audit_drops_and_sop_stats() {
        use escudo_core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
        use escudo_core::{Operation, Origin, Ring};

        let origin = Origin::new("http", "app.example", 80);
        let principal = PrincipalContext::new(PrincipalKind::Script, origin.clone(), Ring::new(1));
        let object = ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1));

        // A same-origin monitor with a tiny audit ring: after three
        // checks the ring has dropped one record — and both the baseline's
        // stats and the drop counter are now reachable through the snapshot.
        let mut erm = Erm::new(PolicyMode::SameOriginOnly).with_audit_capacity(2);
        for _ in 0..3 {
            erm.check(&principal, &object, Operation::Read);
        }
        let jar = SharedCookieJar::new();
        let fabric = SharedNetwork::new();
        let snapshot = ControlPlaneSnapshot::gather(&erm, &jar, &fabric, None);
        assert_eq!(snapshot.engine.decisions, 3);
        assert_eq!(snapshot.erm.checks, 3);
        assert_eq!(snapshot.erm.audit_retained, 2);
        assert_eq!(snapshot.erm.audit_dropped, 1);
        assert!(snapshot.tenants.is_empty());
    }

    #[test]
    fn fields_layout_is_stable_and_covers_registered_tenants() {
        let registry = TenantRegistry::new();
        registry.register("beta", TenantConfig::default());
        registry.register("alpha", TenantConfig::default().with_admission(2, 0));
        // A batch over the burst bound is rejected whole.
        assert!(!registry.get("alpha").unwrap().admission().try_admit(5));
        let erm = Erm::new(PolicyMode::Escudo);
        let jar = SharedCookieJar::new();
        let fabric = SharedNetwork::new();
        let snapshot = ControlPlaneSnapshot::gather(&erm, &jar, &fabric, Some(&registry));

        // Tenants come back sorted by id regardless of registration order.
        let ids: Vec<&str> = snapshot.tenants.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["alpha", "beta"]);

        let fields = snapshot.fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        // The four layer blocks appear in order, each block contiguous.
        let first_of = |prefix: &str| keys.iter().position(|k| k.starts_with(prefix)).unwrap();
        assert!(first_of("engine_") < first_of("erm_"));
        assert!(first_of("erm_") < first_of("jar_"));
        assert!(first_of("jar_") < first_of("fabric_"));
        assert!(first_of("fabric_") < first_of("tenant_alpha_"));
        assert!(first_of("tenant_alpha_") < first_of("tenant_beta_"));
        // The wait-precision counters, then the window's per-origin
        // deferrals, close the fabric block.
        let tenants = first_of("tenant_alpha_");
        assert_eq!(
            keys[tenants - 3..tenants],
            [
                "fabric_latency_waits",
                "fabric_wait_overshoot_ns",
                "fabric_window_origin_deferrals"
            ]
        );

        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // Rejection counts shed *checks*, not batches: the whole 5-check plan.
        assert_eq!(get("tenant_alpha_rejected"), 5.0);
        assert_eq!(get("tenant_alpha_generation"), 1.0);
        assert_eq!(get("erm_audit_dropped"), 0.0);

        // Gathering twice yields the identical key sequence — the stable layout
        // the JSON exporter depends on.
        let again = ControlPlaneSnapshot::gather(&erm, &jar, &fabric, Some(&registry));
        let keys_again: Vec<String> = again.fields().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, keys_again);
    }

    #[test]
    fn health_verdict_worsens_with_shedding_and_audit_drops() {
        let erm = Erm::new(PolicyMode::Escudo);
        let jar = SharedCookieJar::new();
        let fabric = SharedNetwork::new();
        let mut snapshot = ControlPlaneSnapshot::gather(&erm, &jar, &fabric, None);
        assert_eq!(snapshot.health(), HealthVerdict::Ok);
        assert_eq!(snapshot.health().code(), 0);

        // 10% of admission traffic shed → Degraded.
        snapshot.tenants.push(TenantSnapshot {
            id: "metered".into(),
            generation: 1,
            engine: EngineStats::default(),
            admission: AdmissionStats {
                admitted: 90,
                rejected: 10,
                burst: 8,
                refill_per_sec: 0,
            },
            config: TenantConfig::default(),
        });
        assert_eq!(snapshot.health(), HealthVerdict::Degraded);

        // A majority shed → Failing, regardless of the other signals.
        snapshot.tenants[0].admission.rejected = 200;
        assert_eq!(snapshot.health(), HealthVerdict::Failing);
        assert_eq!(snapshot.health().code(), 2);
        assert_eq!(snapshot.health().to_string(), "failing");

        // Audit drops alone degrade, then fail.
        snapshot.tenants.clear();
        snapshot.erm.checks = 100;
        snapshot.erm.audit_dropped = 10;
        assert_eq!(snapshot.health(), HealthVerdict::Degraded);
        snapshot.erm.audit_dropped = 80;
        assert_eq!(snapshot.health(), HealthVerdict::Failing);
    }

    #[test]
    fn a_monitor_with_auditing_off_reads_ok() {
        use escudo_core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
        use escudo_core::{Operation, Origin, Ring};

        let origin = Origin::new("http", "app.example", 80);
        let principal = PrincipalContext::new(PrincipalKind::Script, origin.clone(), Ring::new(1));
        let object = ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1));
        let mut erm = Erm::new(PolicyMode::Escudo).with_audit_capacity(0);
        for _ in 0..10 {
            erm.check(&principal, &object, Operation::Read);
        }
        let jar = SharedCookieJar::new();
        let fabric = SharedNetwork::new();
        let snapshot = ControlPlaneSnapshot::gather(&erm, &jar, &fabric, None);
        // Every record was dropped, and the count still says so.
        assert_eq!(snapshot.erm.audit_capacity, 0);
        assert_eq!(snapshot.erm.audit_dropped, 10);
        assert_eq!(snapshot.erm.checks, 10);
        assert_eq!(snapshot.health(), HealthVerdict::Ok);
    }

    #[test]
    fn health_flags_stale_prefetch_and_log_drops_as_degraded() {
        let erm = Erm::new(PolicyMode::Escudo);
        let jar = SharedCookieJar::new();
        let fabric = SharedNetwork::new();
        let mut snapshot = ControlPlaneSnapshot::gather(&erm, &jar, &fabric, None);

        // A mostly-stale prefetch cache is wasted work, not lost data.
        snapshot.fabric.prefetch_hits = 1;
        snapshot.fabric.prefetch_stale_discards = 9;
        assert_eq!(snapshot.health(), HealthVerdict::Degraded);
        snapshot.fabric.prefetch_stale_discards = 0;
        assert_eq!(snapshot.health(), HealthVerdict::Ok);

        // Any dropped request-log entry understates traffic.
        snapshot.fabric.dropped_log_entries = 1;
        assert_eq!(snapshot.health(), HealthVerdict::Degraded);
    }

    #[test]
    fn from_browser_includes_the_sessions_own_tenant_without_a_registry() {
        let tenant = Arc::new(Tenant::new("solo", TenantConfig::default()));
        let browser = Browser::with_tenant(Arc::clone(&tenant));
        let snapshot = ControlPlaneSnapshot::from_browser(&browser, None);
        assert_eq!(snapshot.tenants.len(), 1);
        assert_eq!(snapshot.tenants[0].id, "solo");
        assert_eq!(snapshot.tenants[0].generation, 1);

        let plain = Browser::new(PolicyMode::Escudo);
        let snapshot = ControlPlaneSnapshot::from_browser(&plain, None);
        assert!(snapshot.tenants.is_empty());
    }
}
