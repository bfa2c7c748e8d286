//! The ESCUDO Reference Monitor (ERM) — a thin enforcement facade.
//!
//! The prototype's ERM "enforces access-decisions based on the security contexts" and
//! "is spread over several places because the places to embed the checks is specific
//! to the object type". In this reproduction every enforcement point funnels into
//! [`Erm::check`], but the *decision* itself is made by a shared
//! [`PolicyEngine`] — the ERM only enforces, audits and
//! counts. One engine can back every page of a session (or every session of a
//! tenant), so its decision counter covers all of them.
//!
//! The audit log is a **bounded ring buffer**: long-running workloads keep the most
//! recent [`Erm::audit_capacity`] records and count what was dropped, so memory no
//! longer grows without limit.
//!
//! In the multi-tenant control plane the monitor binds to a [`Tenant`] instead of a
//! fixed engine ([`Erm::with_tenant`]): every mediation entry point revalidates the
//! tenant's generation-swapped [`EngineHandle`](escudo_core::EngineHandle) **once**,
//! so a hot policy reload lands between mediation plans, never inside one — and the
//! tenant's token-bucket [`AdmissionControl`](escudo_core::AdmissionControl) is
//! enforced here, covering browser- and script-initiated paths alike. A throttled
//! check is denied fail-closed with [`DenyReason::Throttled`].

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::SystemTime;

use escudo_core::policy::AuditRecord;
use escudo_core::tenant::{AdmissionStats, EngineReader, Tenant};
use escudo_core::{
    engine_for_mode, Decision, DenyReason, EngineStats, ObjectContext, Operation, Origin,
    PolicyEngine, PolicyMode, PrincipalContext,
};
use escudo_net::{Cookie, SharedCookieJar, Url};

/// The cookies the monitor admitted onto one request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attachment {
    /// The admitted cookies' names, in RFC 6265 §5.4 attach order.
    pub names: Vec<String>,
    /// The `Cookie` header value: the admitted `name=value` pairs joined by
    /// `"; "`, empty when nothing was admitted.
    pub header: String,
}

/// The cookie attachments of a mediation plan ([`Erm::mediate_jar`]), one per
/// request in input order. Requests with the same candidate set and the same
/// decisions share one [`Attachment`].
#[derive(Debug, Clone, Default)]
pub struct PlanAttachments {
    attachments: Vec<Attachment>,
    of_request: Vec<usize>,
}

impl PlanAttachments {
    /// The attachment of request `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not a request of the plan.
    #[must_use]
    pub fn get(&self, index: usize) -> &Attachment {
        &self.attachments[self.of_request[index]]
    }

    /// The attachments in request order.
    pub fn iter(&self) -> impl Iterator<Item = &Attachment> {
        self.of_request
            .iter()
            .map(|&index| &self.attachments[index])
    }
}

/// One jar walk of a page plan: the (scheme, host) it answered for and the
/// range of the plan's cookies it returned (§5.4 order).
struct HostWalk<'u> {
    scheme: &'u str,
    host: &'u str,
    cookies: Range<usize>,
}

/// The candidate sets of a page plan, read from one jar snapshot.
struct CandidatePlan<'u> {
    hosts: Vec<HostWalk<'u>>,
    /// Every host walk's cookies, walk after walk.
    cookies: Vec<Cookie>,
    /// Each distinct candidate list: indices into `cookies`, in §5.4 order.
    /// Distinct hosts own distinct indices, so equal lists share a host (or
    /// are empty).
    sets: Vec<Vec<usize>>,
    /// Each request's set, in input order.
    set_of: Vec<usize>,
}

impl<'u> CandidatePlan<'u> {
    /// Walks the jar once per (scheme, host) of `urls`, all with one `now`, and
    /// files each URL under the set of its path-matching candidates. A page
    /// touches a handful of hosts and sets, so both are found by linear probe.
    fn walk(jar: &SharedCookieJar, urls: impl ExactSizeIterator<Item = &'u Url>) -> Self {
        let now = SystemTime::now();
        let mut plan = CandidatePlan {
            hosts: Vec::new(),
            cookies: Vec::new(),
            sets: Vec::new(),
            set_of: Vec::with_capacity(urls.len()),
        };
        let mut members: Vec<usize> = Vec::new();
        for url in urls {
            let seen = plan
                .hosts
                .iter()
                .find(|h| h.scheme == url.scheme() && h.host == url.host());
            let range = match seen {
                Some(walk) => walk.cookies.clone(),
                None => {
                    let start = plan.cookies.len();
                    plan.cookies
                        .extend(jar.host_candidates(url.scheme(), url.host(), now));
                    let range = start..plan.cookies.len();
                    plan.hosts.push(HostWalk {
                        scheme: url.scheme(),
                        host: url.host(),
                        cookies: range.clone(),
                    });
                    range
                }
            };
            members.clear();
            members.extend(range.filter(|&index| plan.cookies[index].path_matches(url.path())));
            let set = match plan.sets.iter().position(|set| *set == members) {
                Some(set) => set,
                None => {
                    plan.sets.push(members.clone());
                    plan.sets.len() - 1
                }
            };
            plan.set_of.push(set);
        }
        plan
    }

    /// The attachment of set `set`'s members for which `admitted(k)` holds,
    /// `k` being the member's position in the set.
    fn attachment(&self, set: usize, admitted: impl Fn(usize) -> bool) -> Attachment {
        let mut attachment = Attachment::default();
        for (k, &member) in self.sets[set].iter().enumerate() {
            if !admitted(k) {
                continue;
            }
            let cookie = &self.cookies[member];
            if !attachment.header.is_empty() {
                attachment.header.push_str("; ");
            }
            attachment.header.push_str(&cookie.name);
            attachment.header.push('=');
            attachment.header.push_str(&cookie.value);
            attachment.names.push(cookie.name.clone());
        }
        attachment
    }
}

/// Default bound on retained audit records.
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// What the monitor decides through: a fixed engine, or a tenant whose
/// generation-swapped handle is revalidated at each mediation entry point.
#[derive(Debug, Clone)]
enum EngineBinding {
    /// One engine for the monitor's lifetime (the library deployment).
    Static(Arc<dyn PolicyEngine>),
    /// A control-plane tenant: engine reads go through a generation-checked
    /// reader, admission goes through the tenant's token bucket.
    Tenant {
        tenant: Arc<Tenant>,
        reader: EngineReader,
    },
}

/// The reference monitor: a facade over a shared [`PolicyEngine`] plus a bounded
/// audit ring buffer and plain counters.
#[derive(Debug, Clone)]
pub struct Erm {
    binding: EngineBinding,
    audit: VecDeque<AuditRecord>,
    audit_capacity: usize,
    audit_dropped: u64,
    checks: u64,
    denials: u64,
}

impl Erm {
    /// Creates a reference monitor enforcing the given policy mode with a fresh
    /// [`RuleEngine`](escudo_core::RuleEngine).
    #[must_use]
    pub fn new(mode: PolicyMode) -> Self {
        Erm::with_engine(engine_for_mode(mode))
    }

    /// Creates a reference monitor enforcing through an existing (possibly shared)
    /// engine — this is how several pages, sessions or tenants share one engine.
    #[must_use]
    pub fn with_engine(engine: Arc<dyn PolicyEngine>) -> Self {
        Erm::with_binding(EngineBinding::Static(engine))
    }

    /// Creates a reference monitor bound to a control-plane tenant: decisions go
    /// through the tenant's generation-swapped engine handle (revalidated once per
    /// mediation plan, so a hot reload is never observed mid-plan), and every plan
    /// first passes the tenant's admission bucket.
    #[must_use]
    pub fn with_tenant(tenant: Arc<Tenant>) -> Self {
        let reader = EngineReader::new(tenant.handle().clone());
        Erm::with_binding(EngineBinding::Tenant { tenant, reader })
    }

    fn with_binding(binding: EngineBinding) -> Self {
        Erm {
            binding,
            audit: VecDeque::new(),
            audit_capacity: DEFAULT_AUDIT_CAPACITY,
            audit_dropped: 0,
            checks: 0,
            denials: 0,
        }
    }

    /// Bounds the audit ring buffer to `capacity` records (builder style). The oldest
    /// records are dropped first; [`Erm::audit_dropped`] counts them. A capacity of 0
    /// retains and builds no record, but still counts every drop.
    #[must_use]
    pub fn with_audit_capacity(mut self, capacity: usize) -> Self {
        self.audit_capacity = capacity;
        while self.audit.len() > capacity {
            self.audit.pop_front();
            self.audit_dropped += 1;
        }
        self
    }

    /// The policy mode in force. For a tenant binding this is the mode of the
    /// generation pinned by the last mediation (a hot reload shows up here once
    /// the next plan revalidates the handle).
    #[must_use]
    pub fn mode(&self) -> PolicyMode {
        self.engine().mode()
    }

    /// The decision engine: the static engine, or the tenant engine generation
    /// pinned by the last mediation.
    #[must_use]
    pub fn engine(&self) -> &Arc<dyn PolicyEngine> {
        match &self.binding {
            EngineBinding::Static(engine) => engine,
            EngineBinding::Tenant { reader, .. } => reader.pinned().engine(),
        }
    }

    /// The bound tenant, when this monitor enforces for one.
    #[must_use]
    pub fn tenant(&self) -> Option<&Arc<Tenant>> {
        match &self.binding {
            EngineBinding::Static(_) => None,
            EngineBinding::Tenant { tenant, .. } => Some(tenant),
        }
    }

    /// The engine generation the last mediation plan was pinned to (`None` for a
    /// static binding).
    #[must_use]
    pub fn generation(&self) -> Option<u64> {
        match &self.binding {
            EngineBinding::Static(_) => None,
            EngineBinding::Tenant { reader, .. } => Some(reader.pinned().generation()),
        }
    }

    /// The bound tenant's admission-bucket counters (`None` for a static binding).
    #[must_use]
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.tenant().map(|tenant| tenant.admission().stats())
    }

    /// Statistics of the underlying engine.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine().stats()
    }

    /// Revalidates a tenant binding against the handle's published generation.
    /// Called exactly once at each public mediation entry point: everything a
    /// single plan decides afterwards reads the pinned generation, so the plan
    /// is generation-consistent even while a hot reload lands concurrently.
    fn sync_generation(&mut self) {
        if let EngineBinding::Tenant { reader, .. } = &mut self.binding {
            reader.refresh();
        }
    }

    /// Requests admission for `n` checks from the bound tenant's token bucket.
    /// Static bindings admit everything.
    fn admit(&self, n: u64) -> bool {
        match &self.binding {
            EngineBinding::Static(_) => true,
            EngineBinding::Tenant { tenant, .. } => tenant.admission().try_admit(n),
        }
    }

    fn record(&mut self, record: AuditRecord) {
        if self.audit.len() >= self.audit_capacity {
            self.audit.pop_front();
            self.audit_dropped += 1;
        }
        self.audit.push_back(record);
    }

    /// Mediates one access. Returns the decision and records it. A tenant-bound
    /// monitor revalidates the engine generation first and passes the tenant's
    /// admission bucket; a throttled check is denied with
    /// [`DenyReason::Throttled`].
    pub fn check(
        &mut self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        operation: Operation,
    ) -> Decision {
        self.sync_generation();
        self.decide_batch(&[(principal, object, operation)])
            .pop()
            .expect("one check yields one decision")
    }

    /// Batch mediation: one engine batch for the whole slice. Returns the
    /// decisions in order, with counting and auditing identical to repeated
    /// [`Erm::check`] calls. For a tenant binding the whole batch is decided by
    /// **one** engine generation (pinned before the first decision) and admitted
    /// all-or-nothing by the token bucket.
    pub fn check_many(
        &mut self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        self.sync_generation();
        self.decide_batch(checks)
    }

    /// Decides one already-pinned mediation plan: no generation revalidation
    /// happens here, so every caller that syncs once and then issues one or more
    /// `decide_batch` calls stays on a single generation for the whole plan.
    fn decide_batch(
        &mut self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        let decisions = if self.admit(checks.len() as u64) {
            self.engine().decide_many(checks)
        } else {
            vec![Decision::Deny(DenyReason::Throttled); checks.len()]
        };
        self.checks += checks.len() as u64;
        self.denials += decisions.iter().filter(|d| d.is_denied()).count() as u64;
        if self.audit_capacity == 0 {
            // Nothing is retained, so no record is built.
            self.audit_dropped += checks.len() as u64;
            return decisions;
        }
        let mode = self.mode();
        for ((principal, object, operation), decision) in checks.iter().zip(&decisions) {
            self.record(AuditRecord {
                principal: (*principal).clone(),
                object: (*object).clone(),
                operation: *operation,
                mode,
                decision: decision.clone(),
            });
        }
        decisions
    }

    /// Cookie mediation, the one entry point for every request and every
    /// `document.cookie` read: batch-mediates `operation` over every cookie the
    /// shared jar holds in scope for each of `requests`, in RFC 6265 §5.4
    /// attach order (longest path first, then earliest creation), and decides
    /// the whole plan in **one** engine batch. `object_for` supplies each
    /// cookie's security context (the page's context table, or the
    /// browser-wide policy store when no page is loaded).
    ///
    /// The plan reads one jar snapshot, taken with one `now`: the jar is walked
    /// once per (scheme, host), and each URL's candidates are the path-matching
    /// subsequence of its host's walk (§5.4 order survives the filter).
    /// Requests with identical candidate lists share one candidate set, and
    /// `object_for` runs once per distinct (name, origin) candidate cookie,
    /// so it must depend on nothing else. Requests whose set and decisions
    /// agree share one [`Attachment`]: one name list and one `Cookie` header
    /// string. Auditing copies no label: a record shares its principal's and
    /// its object's.
    ///
    /// A tenant-bound monitor pins one engine generation for the whole plan
    /// and asks admission once for all its checks, all or nothing; a throttled
    /// plan attaches nothing. Under the same-origin baseline every in-scope
    /// cookie is admitted without consulting the engine: that is exactly the
    /// legacy behaviour CSRF exploits. The engine batch holds one check per
    /// (request, in-scope cookie) in input order, so counting and auditing do
    /// not depend on how requests are grouped into plans.
    ///
    /// For a page's subresources this is phase 1 of the pipelined loader:
    /// every decision is fixed here, before any fetch is dispatched, so the
    /// mediation outcome cannot depend on transport completion order.
    pub fn mediate_jar(
        &mut self,
        jar: &SharedCookieJar,
        requests: &[(&Url, &PrincipalContext)],
        operation: Operation,
        object_for: impl Fn(&str, Origin) -> ObjectContext,
    ) -> PlanAttachments {
        self.sync_generation();
        let plan = CandidatePlan::walk(jar, requests.iter().map(|(url, _)| *url));

        // The same-origin baseline attaches every in-scope candidate without
        // consulting the engine, but admission still meters the plan.
        if self.mode() == PolicyMode::SameOriginOnly {
            let total: usize = plan.set_of.iter().map(|&set| plan.sets[set].len()).sum();
            if !self.admit(total as u64) {
                return PlanAttachments {
                    attachments: vec![Attachment::default()],
                    of_request: vec![0; requests.len()],
                };
            }
            return PlanAttachments {
                attachments: (0..plan.sets.len())
                    .map(|set| plan.attachment(set, |_| true))
                    .collect(),
                of_request: plan.set_of,
            };
        }

        // One cookie object per distinct (name, origin) among the candidates,
        // shared by every set that holds it: a `Domain` cookie that several
        // host walks return is one object.
        let mut objects: Vec<(usize, ObjectContext)> = Vec::new();
        let mut object_of: Vec<usize> = vec![usize::MAX; plan.cookies.len()];
        for &member in plan.sets.iter().flatten() {
            if object_of[member] != usize::MAX {
                continue;
            }
            let cookie = &plan.cookies[member];
            let built = objects.iter().position(|&(first, _)| {
                let other = &plan.cookies[first];
                other.name == cookie.name
                    && other.host == cookie.host
                    && other.scheme == cookie.scheme
                    && other.port == cookie.port
            });
            object_of[member] = built.unwrap_or_else(|| {
                objects.push((member, object_for(&cookie.name, cookie.origin())));
                objects.len() - 1
            });
        }

        // One engine batch: every (request, candidate) pair in input order.
        let total: usize = plan.set_of.iter().map(|&set| plan.sets[set].len()).sum();
        let mut checks: Vec<(&PrincipalContext, &ObjectContext, Operation)> =
            Vec::with_capacity(total);
        for ((_, principal), &set) in requests.iter().zip(&plan.set_of) {
            checks.extend(
                plan.sets[set]
                    .iter()
                    .map(|&member| (*principal, &objects[object_of[member]].1, operation)),
            );
        }
        let decisions = self.decide_batch(&checks);

        // Requests whose set and decisions agree share one attachment. Each
        // attachment remembers the first request's decision offset.
        let admitted = |offset: usize, k: usize| decisions[offset + k].is_allowed();
        let mut firsts: Vec<(usize, usize)> = Vec::new();
        let mut attachments: Vec<Attachment> = Vec::new();
        let mut of_request = Vec::with_capacity(requests.len());
        let mut offset = 0;
        for &set in &plan.set_of {
            let len = plan.sets[set].len();
            let same = |&(first_set, first): &(usize, usize)| {
                first_set == set && (0..len).all(|k| admitted(first, k) == admitted(offset, k))
            };
            let index = match firsts.iter().position(same) {
                Some(index) => index,
                None => {
                    attachments.push(plan.attachment(set, |k| admitted(offset, k)));
                    firsts.push((set, offset));
                    attachments.len() - 1
                }
            };
            of_request.push(index);
            offset += len;
        }
        PlanAttachments {
            attachments,
            of_request,
        }
    }

    /// Convenience: mediate and convert a denial into an `Err(String)` describing the
    /// violated rule (used by the script host, where a denial becomes an exception).
    pub fn require(
        &mut self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        operation: Operation,
    ) -> Result<(), String> {
        match self.check(principal, object, operation) {
            Decision::Allow => Ok(()),
            Decision::Deny(reason) => Err(format!(
                "{operation} on {label} denied ({reason})",
                label = if object.label.is_empty() {
                    object.kind.to_string()
                } else {
                    object.label.to_string()
                }
            )),
        }
    }

    /// Number of checks performed so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of denials so far.
    #[must_use]
    pub fn denials(&self) -> u64 {
        self.denials
    }

    /// The retained audit records, oldest first (empty when audit retention is
    /// disabled). At most [`Erm::audit_capacity`] records are retained.
    #[must_use]
    pub fn audit(&self) -> &VecDeque<AuditRecord> {
        &self.audit
    }

    /// The bound on retained audit records.
    #[must_use]
    pub fn audit_capacity(&self) -> usize {
        self.audit_capacity
    }

    /// Number of audit records dropped because the ring buffer was full.
    #[must_use]
    pub fn audit_dropped(&self) -> u64 {
        self.audit_dropped
    }

    /// Drains the audit log, returning the records retained so far (oldest first).
    pub fn take_audit(&mut self) -> Vec<AuditRecord> {
        self.audit.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_core::context::{ObjectKind, PrincipalKind};
    use escudo_core::{Acl, Origin, Ring};

    fn site() -> Origin {
        Origin::new("http", "forum.example", 80)
    }

    fn script(ring: u16) -> PrincipalContext {
        PrincipalContext::new(PrincipalKind::Script, site(), Ring::new(ring))
    }

    fn cookie() -> ObjectContext {
        ObjectContext::new(ObjectKind::Cookie, site(), Ring::new(1))
            .with_acl(Acl::uniform(Ring::new(1)))
            .with_label("cookie sid")
    }

    #[test]
    fn checks_and_denials_are_counted_and_audited() {
        let mut erm = Erm::new(PolicyMode::Escudo);
        assert!(erm
            .check(&script(1), &cookie(), Operation::Read)
            .is_allowed());
        assert!(erm
            .check(&script(3), &cookie(), Operation::Read)
            .is_denied());
        assert_eq!(erm.checks(), 2);
        assert_eq!(erm.denials(), 1);
        assert_eq!(erm.audit().len(), 2);
        assert!(erm.audit()[1].decision.is_denied());
        let drained = erm.take_audit();
        assert_eq!(drained.len(), 2);
        assert!(erm.audit().is_empty());
    }

    #[test]
    fn require_names_the_object_and_rule() {
        let mut erm = Erm::new(PolicyMode::Escudo);
        let err = erm
            .require(&script(3), &cookie(), Operation::Use)
            .unwrap_err();
        assert!(err.contains("cookie sid"), "got: {err}");
        assert!(err.contains("ring rule"), "got: {err}");
        assert!(erm.require(&script(0), &cookie(), Operation::Use).is_ok());
    }

    #[test]
    fn sop_mode_only_applies_the_origin_rule() {
        let mut erm = Erm::new(PolicyMode::SameOriginOnly);
        assert!(erm
            .check(&script(9), &cookie(), Operation::Write)
            .is_allowed());
        let foreign = PrincipalContext::new(
            PrincipalKind::Script,
            Origin::new("http", "evil.example", 80),
            Ring::new(0),
        );
        assert!(erm.check(&foreign, &cookie(), Operation::Read).is_denied());
        assert_eq!(erm.mode(), PolicyMode::SameOriginOnly);
    }

    #[test]
    fn audit_ring_buffer_is_bounded_and_counts_drops() {
        let mut erm = Erm::new(PolicyMode::Escudo).with_audit_capacity(3);
        for _ in 0..10 {
            erm.check(&script(1), &cookie(), Operation::Read);
        }
        assert_eq!(erm.checks(), 10);
        assert_eq!(erm.audit().len(), 3);
        assert_eq!(erm.audit_dropped(), 7);
        assert_eq!(erm.audit_capacity(), 3);
        // Zero capacity retains nothing but keeps counting checks, denials
        // and drops.
        let mut none = Erm::new(PolicyMode::Escudo).with_audit_capacity(0);
        none.check(&script(1), &cookie(), Operation::Read);
        none.check(&script(3), &cookie(), Operation::Read);
        assert!(none.audit().is_empty());
        assert_eq!(none.checks(), 2);
        assert_eq!(none.denials(), 1);
        assert_eq!(none.audit_dropped(), 2);
    }

    #[test]
    fn monitors_share_one_engine() {
        let engine = engine_for_mode(PolicyMode::Escudo);
        let mut a = Erm::with_engine(Arc::clone(&engine));
        let mut b = Erm::with_engine(Arc::clone(&engine));
        a.check(&script(1), &cookie(), Operation::Read);
        b.check(&script(1), &cookie(), Operation::Read);
        assert_eq!(engine.stats().decisions, 2);
        assert_eq!(a.engine_stats().decisions, 2);
        assert_eq!(a.checks(), 1);
    }

    #[test]
    fn mediate_jar_collects_in_attach_order_and_applies_the_policy() {
        use escudo_net::SetCookie;

        let jar = SharedCookieJar::new();
        let setting = Url::parse("http://forum.example/login.php").unwrap();
        jar.store(&setting, &SetCookie::new("sid", "s1"));
        jar.store(
            &setting,
            &SetCookie::new("admin", "a1").with_path("/forum/admin"),
        );
        jar.store(&setting, &SetCookie::new("data", "d1"));

        let mut erm = Erm::new(PolicyMode::Escudo);
        let request = Url::parse("http://forum.example/forum/admin/tool.php").unwrap();
        let ring1 = |_: &str, origin: Origin| {
            ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1))
                .with_acl(Acl::uniform(Ring::new(1)))
        };

        // §5.4 order: the longest-path cookie first, then creation order.
        let p1 = script(1);
        let plan = erm.mediate_jar(&jar, &[(&request, &p1)], Operation::Use, ring1);
        assert_eq!(plan.get(0).header, "admin=a1; sid=s1; data=d1");
        assert_eq!(plan.get(0).names, ["admin", "sid", "data"]);
        assert_eq!(erm.checks(), 3);

        // A ring-3 principal is denied every ring-1 cookie — same batch path.
        let p3 = script(3);
        let plan = erm.mediate_jar(&jar, &[(&request, &p3)], Operation::Use, ring1);
        assert_eq!(plan.get(0), &Attachment::default());
        assert_eq!(erm.denials(), 3);
    }

    /// The per-request reference path: one jar query, one admission request
    /// and one engine batch per request. Plan mediation is compared against
    /// it.
    fn mediate_one(
        erm: &mut Erm,
        jar: &SharedCookieJar,
        url: &Url,
        principal: &PrincipalContext,
        object_for: impl Fn(&str, Origin) -> ObjectContext,
    ) -> Vec<String> {
        erm.sync_generation();
        let candidates = jar.candidates_for(url);
        let pair = |cookie: &Cookie| format!("{}={}", cookie.name, cookie.value);
        if erm.mode() == PolicyMode::SameOriginOnly {
            if !erm.admit(candidates.len() as u64) {
                return Vec::new();
            }
            return candidates.iter().map(pair).collect();
        }
        let objects: Vec<ObjectContext> = candidates
            .iter()
            .map(|cookie| object_for(&cookie.name, cookie.origin()))
            .collect();
        let checks: Vec<(&PrincipalContext, &ObjectContext, Operation)> = objects
            .iter()
            .map(|object| (principal, object, Operation::Use))
            .collect();
        erm.decide_batch(&checks)
            .iter()
            .zip(&candidates)
            .filter(|(decision, _)| decision.is_allowed())
            .map(|(_, cookie)| pair(cookie))
            .collect()
    }

    /// Runs `requests` as one [`Erm::mediate_jar`] plan and through
    /// [`mediate_one`] per request, on fresh monitors of `mode`, and asserts
    /// that attachments, counters and the full audit sequence agree.
    fn assert_plan_matches_per_request(
        jar: &SharedCookieJar,
        requests: &[(&Url, &PrincipalContext)],
        mode: PolicyMode,
    ) -> PlanAttachments {
        // Ring 0 for `admin`, ring 1 for every other cookie: decisions vary
        // with the principal's ring *and* with the cookie.
        let object_for = |name: &str, origin: Origin| {
            let ring = Ring::new(u16::from(name != "admin"));
            ObjectContext::new(ObjectKind::Cookie, origin, ring)
                .with_acl(Acl::uniform(ring))
                .with_label(format!("cookie {name}"))
        };
        let mut batch = Erm::new(mode);
        let plan = batch.mediate_jar(jar, requests, Operation::Use, object_for);
        let mut oracle = Erm::new(mode);
        assert_eq!(plan.iter().count(), requests.len());
        for (index, (url, principal)) in requests.iter().enumerate() {
            let pairs = mediate_one(&mut oracle, jar, url, principal, object_for);
            let attachment = plan.get(index);
            assert_eq!(
                attachment.header,
                pairs.join("; "),
                "{mode:?} request {index}"
            );
            let names: Vec<&str> = pairs
                .iter()
                .map(|pair| pair.split_once('=').expect("name=value").0)
                .collect();
            assert_eq!(attachment.names, names, "{mode:?} request {index}");
        }
        assert_eq!(batch.checks(), oracle.checks());
        assert_eq!(batch.denials(), oracle.denials());
        assert_eq!(batch.audit(), oracle.audit());
        plan
    }

    /// Number of distinct attachment objects a plan's requests share.
    fn distinct(plan: &PlanAttachments) -> usize {
        let mut shared: Vec<*const Attachment> = plan.iter().map(std::ptr::from_ref).collect();
        shared.sort_unstable();
        shared.dedup();
        shared.len()
    }

    #[test]
    fn mediate_jar_many_matches_per_request_mediation() {
        use escudo_net::SetCookie;
        use std::time::{Duration, SystemTime};

        let jar = SharedCookieJar::new();
        let forum = Url::parse("http://forum.example/login.php").unwrap();
        jar.store(&forum, &SetCookie::new("sid", "s1"));
        jar.store(
            &forum,
            &SetCookie::new("admin", "a1").with_path("/forum/admin"),
        );
        // Expires while resident: in scope when stored, gone when planned.
        let mut brief = SetCookie::new("brief", "b1");
        brief.expires = Some(SystemTime::now() + Duration::from_millis(50));
        jar.store(&forum, &brief);
        // One host over both schemes: `tok` is `Secure`, `pref` is not.
        let secure_setter = Url::parse("https://shop.example/").unwrap();
        let mut tok = SetCookie::new("tok", "t1");
        tok.secure = true;
        jar.store(&secure_setter, &tok);
        jar.store(&secure_setter, &SetCookie::new("pref", "p1"));
        // A parent-domain `Domain` cookie next to a host-only one.
        let www = Url::parse("http://www.example.com/").unwrap();
        let mut wide = SetCookie::new("wide", "w1");
        wide.domain = Some("example.com".into());
        jar.store(&www, &wide);
        jar.store(&www, &SetCookie::new("local", "l1"));
        std::thread::sleep(Duration::from_millis(60));

        let admin_url = Url::parse("http://forum.example/forum/admin/tool.php").unwrap();
        let index_url = Url::parse("http://forum.example/index.php").unwrap();
        let shop_http = Url::parse("http://shop.example/cart").unwrap();
        let shop_https = Url::parse("https://shop.example/cart").unwrap();
        let www_url = Url::parse("http://www.example.com/a.png").unwrap();
        let api_url = Url::parse("http://api.example.com/b.png").unwrap();
        let (p0, p1, p3) = (script(0), script(1), script(3));
        // The origin rule also decides: a cookie attaches only for a
        // principal of the cookie's own origin.
        let ring1_of = |origin: &str| {
            PrincipalContext::new(
                PrincipalKind::Script,
                Origin::parse_url(origin).unwrap(),
                Ring::new(1),
            )
        };
        let shop = ring1_of("https://shop.example");
        let www = ring1_of("http://www.example.com");
        let parent = ring1_of("http://example.com");
        // Mixed principals, two paths on one host, both schemes of one host,
        // and repeated URLs.
        let requests: Vec<(&Url, &PrincipalContext)> = vec![
            (&admin_url, &p1),
            (&index_url, &p1),
            (&shop_http, &shop),
            (&shop_https, &shop),
            (&www_url, &www),
            (&api_url, &parent),
            (&admin_url, &p3),
            (&admin_url, &p0),
            (&index_url, &p1),
            (&admin_url, &p1),
        ];

        let plan = assert_plan_matches_per_request(&jar, &requests, PolicyMode::Escudo);
        let headers: Vec<&str> = plan.iter().map(|a| a.header.as_str()).collect();
        assert_eq!(
            headers,
            [
                // §5.4 order within a request; `admin` is ring 0, denied to ring 1.
                "sid=s1",
                "sid=s1",
                "pref=p1",
                "tok=t1; pref=p1",
                // `wide` belongs to `example.com`: the origin rule denies it
                // to a `www.example.com` principal.
                "local=l1",
                "wide=w1",
                "",
                "admin=a1; sid=s1",
                "sid=s1",
                "sid=s1",
            ]
        );
        // Repeated (set, decisions) outcomes share one attachment.
        assert_eq!(distinct(&plan), 8);

        // The same-origin baseline attaches every candidate without engine
        // checks, one attachment per candidate set.
        let sop = assert_plan_matches_per_request(&jar, &requests, PolicyMode::SameOriginOnly);
        assert_eq!(sop.get(6).header, "admin=a1; sid=s1");
        assert_eq!(sop.get(1).header, "sid=s1");
        assert_eq!(distinct(&sop), 6);
    }

    #[test]
    fn tenant_binding_pins_a_generation_per_plan_and_throttles_fail_closed() {
        use escudo_core::tenant::{Tenant, TenantConfig};
        use escudo_core::DenyReason;

        // --- generation pinning: a reload is observed between plans, not inside.
        let tenant = Arc::new(Tenant::new("acme", TenantConfig::default()));
        let mut erm = Erm::with_tenant(Arc::clone(&tenant));
        assert_eq!(erm.generation(), Some(1));
        assert_eq!(erm.mode(), PolicyMode::Escudo);
        assert!(erm
            .check(&script(3), &cookie(), Operation::Read)
            .is_denied());

        tenant.reload_with(
            TenantConfig::default()
                .with_mode(PolicyMode::SameOriginOnly)
                .build_engine(),
        );
        // Until the next mediation the monitor still reports the pinned epoch.
        assert_eq!(erm.generation(), Some(1));
        // The next plan revalidates: same check, new generation, SOP semantics.
        assert!(erm
            .check(&script(3), &cookie(), Operation::Read)
            .is_allowed());
        assert_eq!(erm.generation(), Some(2));
        assert_eq!(erm.mode(), PolicyMode::SameOriginOnly);
        assert_eq!(erm.tenant().unwrap().id(), "acme");

        // --- admission: burst 3, no refill — the 4th check is shed, denied
        // fail-closed with the distinct Throttled attribution, and audited.
        let throttled = Arc::new(Tenant::new(
            "metered",
            TenantConfig::default().with_admission(3, 0),
        ));
        let mut erm = Erm::with_tenant(Arc::clone(&throttled));
        for _ in 0..3 {
            assert!(erm
                .check(&script(1), &cookie(), Operation::Read)
                .is_allowed());
        }
        let shed = erm.check(&script(1), &cookie(), Operation::Read);
        assert_eq!(shed.deny_reason(), Some(&DenyReason::Throttled));
        assert_eq!(erm.checks(), 4);
        assert_eq!(erm.denials(), 1);
        assert!(erm.audit()[3].decision.is_denied());
        let stats = erm.admission_stats().unwrap();
        assert_eq!((stats.admitted, stats.rejected), (3, 1));

        // Batches are all-or-nothing: an empty bucket rejects the whole plan.
        let p1 = script(1);
        let object = cookie();
        let decisions = erm.check_many(&[(&p1, &object, Operation::Read); 2]);
        assert!(decisions
            .iter()
            .all(|d| d.deny_reason() == Some(&DenyReason::Throttled)));
        assert_eq!(erm.admission_stats().unwrap().rejected, 3);

        // A static binding exposes no tenant surface and never throttles.
        let unbound = Erm::new(PolicyMode::Escudo);
        assert!(unbound.tenant().is_none());
        assert_eq!(unbound.generation(), None);
        assert!(unbound.admission_stats().is_none());
    }

    #[test]
    fn sop_tenant_mediation_is_metered_too() {
        use escudo_core::tenant::{Tenant, TenantConfig};
        use escudo_net::SetCookie;

        let jar = SharedCookieJar::new();
        let url = Url::parse("http://forum.example/index.php").unwrap();
        jar.store(&url, &SetCookie::new("sid", "s1"));
        let tenant = Arc::new(Tenant::new(
            "legacy",
            TenantConfig::default()
                .with_mode(PolicyMode::SameOriginOnly)
                .with_admission(1, 0),
        ));
        let ring1 = |_: &str, origin: Origin| {
            ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1))
                .with_acl(Acl::uniform(Ring::new(1)))
        };
        let mut erm = Erm::with_tenant(Arc::clone(&tenant));
        let p1 = script(1);
        // First plan: one candidate, one token — attaches.
        let plan = erm.mediate_jar(&jar, &[(&url, &p1)], Operation::Use, ring1);
        assert_eq!(plan.get(0).header, "sid=s1");
        // Bucket empty: the baseline fast path is still metered, and a
        // two-request plan is shed whole: both attach nothing.
        let plan = erm.mediate_jar(&jar, &[(&url, &p1), (&url, &p1)], Operation::Use, ring1);
        assert_eq!(plan.iter().count(), 2);
        assert!(plan
            .iter()
            .all(|attachment| attachment == &Attachment::default()));
        // Rejection counts the plan's checks, one per candidate.
        assert_eq!(tenant.admission().stats().rejected, 2);
        assert_eq!(erm.checks(), 0, "the baseline consults no engine");
    }

    #[test]
    fn check_many_counts_and_audits_like_check() {
        let mut erm = Erm::new(PolicyMode::Escudo);
        let p1 = script(1);
        let p3 = script(3);
        let object = cookie();
        let decisions = erm.check_many(&[
            (&p1, &object, Operation::Read),
            (&p3, &object, Operation::Read),
        ]);
        assert!(decisions[0].is_allowed());
        assert!(decisions[1].is_denied());
        assert_eq!(erm.checks(), 2);
        assert_eq!(erm.denials(), 1);
        assert_eq!(erm.audit().len(), 2);
    }
}
