//! The pluggable policy engine: one decision core shared by every enforcement point.
//!
//! The paper's prototype spreads the ESCUDO Reference Monitor "over several places
//! because the places to embed the checks is specific to the object type". That is
//! fine for *enforcement* — the checks must live where the objects live — but the
//! *decision procedure* itself should exist exactly once, behind one interface, so it
//! can be shared, swapped and accelerated independently of the enforcement points
//! (WebSpec argues for a single machine-checkable decision core; WebPol shows
//! fine-grained policies only scale when evaluation is factored out of enforcement).
//!
//! This module provides that factoring:
//!
//! * [`PolicyEngine`] — the trait every decision core implements: [`decide`]
//!   (one mediation) and [`decide_many`] (batch mediation: engines with shared
//!   locked state may acquire it once per batch; the lock-free production
//!   engine simply streams the slice through its wait-free resolve),
//! * [`EscudoEngine`] — the production engine: it **interns** principal and object
//!   contexts into small integer ids ([`PrincipalId`], [`ObjectId`]) via the
//!   lock-free [`ContextInterner`], and **memoizes** decisions in a **sharded** hash
//!   cache keyed on `(principal_id, object_id, operation)` so hot DOM/event paths
//!   skip the origin/ring/ACL recomputation entirely,
//! * [`SameOriginEngine`] — the legacy same-origin baseline behind the same trait,
//! * [`engine_for_mode`] — the factory the browser uses to pick an engine.
//!
//! Both engines take `&self` and are `Send + Sync`, so one engine can be shared by
//! every page of a browsing session (or every session of a multi-tenant server) via
//! `Arc<dyn PolicyEngine>`.
//!
//! # Concurrency architecture
//!
//! The engine is **lock-free on the interning path and lock-striped on the cache
//! path**, so concurrent sessions never serialize on any global lock:
//!
//! * contexts intern through a [`ContextInterner`] — an append-only, lock-free
//!   bucket table ([`crate::interner::AtomicInterner`]): warm lookups are a
//!   wait-free walk of published slots, and first-touch interning is a CAS-append
//!   where a losing thread adopts the winner's dense id. A first-touch *storm*
//!   (many threads × many new origins) therefore scales instead of convoying
//!   behind the write half of the `RwLock<ContextTable>` this replaced; the
//!   single-threaded [`ContextTable`] is retained as the reference
//!   implementation the `interner_concurrent` bench gates against.
//! * the decision cache is split into [`EscudoEngine::shard_count`] independent
//!   shards, each behind its own small mutex, selected by `hash(pid, oid, op)`.
//!   Two threads checking different decisions almost always land on different
//!   shards and proceed without contending.
//! * every shard is bounded independently; when one shard fills up only *that*
//!   shard is cleared ([`ShardStats::evictions`] counts these), so a burst of new
//!   contexts can no longer wipe the whole warm cache at once.
//! * statistics are per-shard relaxed counters. [`EngineStats`] is derived as
//!   `decisions = hits + misses`, which keeps a concurrent `stats()` reader
//!   self-consistent by construction (`cache_hits` can never exceed `decisions`).
//!
//! [`decide`]: PolicyEngine::decide
//! [`decide_many`]: PolicyEngine::decide_many
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use escudo_core::engine::{engine_for_mode, EscudoEngine, PolicyEngine};
//! use escudo_core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
//! use escudo_core::{Acl, Operation, Origin, PolicyMode, Ring};
//!
//! let engine: Arc<dyn PolicyEngine> = engine_for_mode(PolicyMode::Escudo);
//! let origin = Origin::new("http", "blog.example", 80);
//! let script = PrincipalContext::new(PrincipalKind::Script, origin.clone(), Ring::new(3));
//! let post = ObjectContext::new(ObjectKind::DomElement, origin, Ring::new(1))
//!     .with_acl(Acl::uniform(Ring::new(1)));
//!
//! // First check computes the three rules; the second is served from the cache.
//! assert!(engine.decide(&script, &post, Operation::Write).is_denied());
//! assert!(engine.decide(&script, &post, Operation::Write).is_denied());
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::acl::Acl;
use crate::context::{ObjectContext, PrincipalContext, PrincipalKind};
use crate::interner::AtomicInterner;
use crate::operation::Operation;
use crate::origin::Origin;
use crate::policy::{decide, Decision, PolicyMode};
use crate::ring::Ring;

/// A fast non-cryptographic hasher (the rustc `FxHash` multiply-xor scheme) for the
/// interner and decision-cache maps. Decision keys are attacker-influenced only
/// through page markup the application already trusts itself to serve, and the maps
/// are bounded, so DoS-grade collision resistance (SipHash) buys nothing here —
/// while string hashing sits directly on the mediation hot path.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add_to_hash(u64::from_le_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add_to_hash(u64::from(u32::from_le_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        for &byte in bytes {
            self.add_to_hash(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Interned id of a principal's decision-relevant context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(u32);

impl PrincipalId {
    /// The raw interned index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

/// Interned id of an object's decision-relevant context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(u32);

impl ObjectId {
    /// The raw interned index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

/// The decision-relevant part of a [`PrincipalContext`].
///
/// The decision procedure never looks at the free-form `label`, and of the `kind` it
/// only distinguishes the browser chrome (which is exempt from mediation). Dropping
/// the irrelevant fields here is what makes interning effective: thousands of
/// distinctly-labelled principals collapse onto a handful of ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrincipalKey {
    is_browser: bool,
    origin: Origin,
    ring: Ring,
}

impl PrincipalKey {
    fn of(principal: &PrincipalContext) -> Self {
        PrincipalKey {
            is_browser: principal.kind == PrincipalKind::Browser,
            origin: principal.origin.clone(),
            ring: principal.ring,
        }
    }

    /// Field-wise comparison against a borrowed context — the alloc-free probe.
    fn matches(&self, principal: &PrincipalContext) -> bool {
        self.is_browser == (principal.kind == PrincipalKind::Browser)
            && self.ring == principal.ring
            && self.origin == principal.origin
    }
}

/// Hashes the decision-relevant fields of a principal context without building a
/// [`PrincipalKey`] (no clones on the probe path).
fn hash_principal(principal: &PrincipalContext) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u8(u8::from(principal.kind == PrincipalKind::Browser));
    hasher.write(principal.origin.scheme().as_bytes());
    hasher.write(principal.origin.host().as_bytes());
    hasher.write_u16(principal.origin.port());
    hasher.write_u16(principal.ring.level());
    hasher.finish()
}

/// The decision-relevant part of an [`ObjectContext`] (origin, ring, ACL — the
/// object's kind and label never influence the three rules).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ObjectKey {
    origin: Origin,
    ring: Ring,
    acl: Acl,
}

impl ObjectKey {
    fn of(object: &ObjectContext) -> Self {
        ObjectKey {
            origin: object.origin.clone(),
            ring: object.ring,
            acl: object.acl,
        }
    }

    /// Field-wise comparison against a borrowed context — the alloc-free probe.
    fn matches(&self, object: &ObjectContext) -> bool {
        self.ring == object.ring && self.acl == object.acl && self.origin == object.origin
    }
}

/// Hashes the decision-relevant fields of an object context without building an
/// [`ObjectKey`] (no clones on the probe path).
fn hash_object(object: &ObjectContext) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(object.origin.scheme().as_bytes());
    hasher.write(object.origin.host().as_bytes());
    hasher.write_u16(object.origin.port());
    hasher.write_u16(object.ring.level());
    hasher.write_u16(object.acl.read.level());
    hasher.write_u16(object.acl.write.level());
    hasher.write_u16(object.acl.use_.level());
    hasher.finish()
}

/// Interning table mapping security contexts onto dense small-integer ids.
///
/// Two contexts receive the same id exactly when the decision procedure cannot
/// distinguish them — same origin, same ring, same ACL (and, for principals, the same
/// browser-chrome exemption). Ids are dense (`0, 1, 2, …`), so downstream layers can
/// index arrays with them.
///
/// This is the **single-threaded reference implementation** (`&mut self`
/// interning). The production engine uses the lock-free [`ContextInterner`]
/// instead; this table is retained as the oracle the `interner_concurrent` bench
/// races against (wrapped in the `RwLock` the old engine used) and as the
/// convenient table for single-owner workload analysis.
#[derive(Debug, Default)]
pub struct ContextTable {
    // Keyed by the 64-bit fx hash of the borrowed context fields; the bucket holds the
    // owned keys for exact comparison. Probing therefore never clones a context —
    // only a genuinely new context pays the key allocation.
    principals: FxHashMap<u64, Vec<(PrincipalKey, PrincipalId)>>,
    objects: FxHashMap<u64, Vec<(ObjectKey, ObjectId)>>,
    principal_count: usize,
    object_count: usize,
}

impl ContextTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        ContextTable::default()
    }

    /// Looks up an already-interned principal context without mutating the table.
    ///
    /// In the retained `RwLock` reference protocol this is the read-locked fast
    /// path: once a context has been seen, any number of threads can resolve its
    /// id under the shared lock.
    #[must_use]
    pub fn lookup_principal(&self, principal: &PrincipalContext) -> Option<PrincipalId> {
        self.principals
            .get(&hash_principal(principal))?
            .iter()
            .find(|(key, _)| key.matches(principal))
            .map(|(_, id)| *id)
    }

    /// Looks up an already-interned object context without mutating the table.
    #[must_use]
    pub fn lookup_object(&self, object: &ObjectContext) -> Option<ObjectId> {
        self.objects
            .get(&hash_object(object))?
            .iter()
            .find(|(key, _)| key.matches(object))
            .map(|(_, id)| *id)
    }

    /// Interns a principal context, returning its stable id.
    pub fn intern_principal(&mut self, principal: &PrincipalContext) -> PrincipalId {
        let bucket = self
            .principals
            .entry(hash_principal(principal))
            .or_default();
        if let Some((_, id)) = bucket.iter().find(|(key, _)| key.matches(principal)) {
            return *id;
        }
        let id = PrincipalId(u32::try_from(self.principal_count).expect("≤ u32::MAX principals"));
        self.principal_count += 1;
        bucket.push((PrincipalKey::of(principal), id));
        id
    }

    /// Interns an object context, returning its stable id.
    pub fn intern_object(&mut self, object: &ObjectContext) -> ObjectId {
        let bucket = self.objects.entry(hash_object(object)).or_default();
        if let Some((_, id)) = bucket.iter().find(|(key, _)| key.matches(object)) {
            return *id;
        }
        let id = ObjectId(u32::try_from(self.object_count).expect("≤ u32::MAX objects"));
        self.object_count += 1;
        bucket.push((ObjectKey::of(object), id));
        id
    }

    /// Number of distinct principal contexts interned so far.
    #[must_use]
    pub fn principal_count(&self) -> usize {
        self.principal_count
    }

    /// Number of distinct object contexts interned so far.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.object_count
    }
}

/// The lock-free context interner: two [`AtomicInterner`] bucket tables (one per
/// context kind) mapping decision-relevant contexts onto dense
/// [`PrincipalId`]/[`ObjectId`]s, through `&self`.
///
/// This replaces the `RwLock<ContextTable>` the sharded engine used to carry:
/// warm lookups are wait-free (no lock at all), and a first-touch storm — many
/// threads interning many genuinely new contexts at once — proceeds as
/// concurrent CAS-appends instead of convoying behind one write lock. Ids are
/// assigned exactly as [`ContextTable`] assigns them (dense, in first-claim
/// order), so the two implementations are interchangeable for everything
/// downstream of the id.
#[derive(Debug, Default)]
pub struct ContextInterner {
    principals: AtomicInterner<PrincipalKey>,
    objects: AtomicInterner<ObjectKey>,
}

impl ContextInterner {
    /// Creates an interner sized for an engine's realistic context population
    /// (tens of distinct contexts; see
    /// [`DEFAULT_INTERNER_BUCKETS`](crate::interner::DEFAULT_INTERNER_BUCKETS)).
    #[must_use]
    pub fn new() -> Self {
        ContextInterner::default()
    }

    /// Creates an interner with an explicit bucket count per context kind
    /// (rounded up to a power of two) — storm-scale tables should size up so
    /// chains stay shallow.
    #[must_use]
    pub fn with_buckets(buckets: usize) -> Self {
        ContextInterner {
            principals: AtomicInterner::with_buckets(buckets),
            objects: AtomicInterner::with_buckets(buckets),
        }
    }

    /// Wait-free lookup of an already-interned principal context.
    #[must_use]
    pub fn lookup_principal(&self, principal: &PrincipalContext) -> Option<PrincipalId> {
        self.principals
            .lookup(hash_principal(principal), |key| key.matches(principal))
            .map(PrincipalId)
    }

    /// Wait-free lookup of an already-interned object context.
    #[must_use]
    pub fn lookup_object(&self, object: &ObjectContext) -> Option<ObjectId> {
        self.objects
            .lookup(hash_object(object), |key| key.matches(object))
            .map(ObjectId)
    }

    /// Interns a principal context through `&self`: wait-free when warm, a
    /// CAS-append on first touch. Racing threads interning the same context all
    /// observe one dense id.
    pub fn intern_principal(&self, principal: &PrincipalContext) -> PrincipalId {
        PrincipalId(self.principals.intern(
            hash_principal(principal),
            |key| key.matches(principal),
            || PrincipalKey::of(principal),
        ))
    }

    /// Interns an object context through `&self` (see
    /// [`ContextInterner::intern_principal`]).
    pub fn intern_object(&self, object: &ObjectContext) -> ObjectId {
        ObjectId(self.objects.intern(
            hash_object(object),
            |key| key.matches(object),
            || ObjectKey::of(object),
        ))
    }

    /// Number of distinct principal contexts interned so far.
    #[must_use]
    pub fn principal_count(&self) -> usize {
        self.principals.len()
    }

    /// Number of distinct object contexts interned so far.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Slot claims (either kind) that lost their CAS to a racing thread — the
    /// direct measure of first-touch contention.
    #[must_use]
    pub fn cas_retries(&self) -> u64 {
        self.principals.cas_retries() + self.objects.cas_retries()
    }

    /// The deepest bucket chain across both tables, in entries — the walk length
    /// of the unluckiest probe (stats-path only; walks the tables).
    #[must_use]
    pub fn max_bucket_depth(&self) -> usize {
        self.principals
            .max_bucket_depth()
            .max(self.objects.max_bucket_depth())
    }
}

/// Counters of one decision-cache shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Decisions this shard served from its cache.
    pub hits: u64,
    /// Decisions this shard had to compute (and, capacity permitting, fill).
    pub misses: u64,
    /// Times this shard was cleared wholesale because it reached its bound.
    pub evictions: u64,
    /// Entries resident in the shard when the snapshot was taken.
    pub entries: u64,
}

/// Counters describing how an engine's cache is performing.
///
/// Snapshots are **self-consistent**: `decisions` is derived as
/// `cache_hits + cache_misses` from the same per-shard counter reads, so a reader
/// racing concurrent `decide` calls can never observe `cache_hits > decisions`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total decisions requested (always `cache_hits + cache_misses`).
    pub decisions: u64,
    /// Decisions served from the memoization cache.
    pub cache_hits: u64,
    /// Decisions that had to run the full origin/ring/ACL procedure.
    pub cache_misses: u64,
    /// Distinct principal contexts interned.
    pub interned_principals: u64,
    /// Distinct object contexts interned.
    pub interned_objects: u64,
    /// First-touch slot claims the lock-free interner lost to a racing thread
    /// (0 for engines without an interner). A storm of new contexts shows up
    /// here — warm steady state never increments it.
    pub interner_cas_retries: u64,
    /// Deepest interner bucket chain, in entries — the walk length of the
    /// unluckiest context probe (0 for engines without an interner).
    pub interner_max_bucket_depth: u64,
    /// Total capacity-triggered wholesale shard clears.
    pub evictions: u64,
    /// Per-shard breakdown (empty for engines without a cache).
    pub shards: Vec<ShardStats>,
}

impl EngineStats {
    /// Cache hit rate in `[0, 1]` (0 when no decisions were made).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.decisions as f64
        }
    }
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
    /// mode — engines may cache or precompute, never diverge.
    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision;

    /// Batch mediation: decides a slice of checks in order.
    ///
    /// Engines with shared internal state can acquire their locks once for the whole
    /// batch, which is what makes bulk paths (cookie attachment across a jar, event
    /// floods) cheaper than `n` individual `decide` calls.
    fn decide_many(
        &self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        checks
            .iter()
            .map(|(p, o, op)| self.decide(p, o, *op))
            .collect()
    }

    /// Cache/interning statistics. Every implementation must uphold
    /// `decisions == cache_hits + cache_misses`; engines without a cache report
    /// every decision as a miss.
    fn stats(&self) -> EngineStats;

    /// Decisions served from the cache so far — for hot callers that only need the
    /// hit counter. The default derives it from [`stats`](PolicyEngine::stats);
    /// engines with cheaper reads (lock-free counters) should override it.
    fn cache_hits(&self) -> u64 {
        self.stats().cache_hits
    }
}

/// One lock stripe of the decision cache: a small bounded map plus its counters.
#[derive(Debug, Default)]
struct CacheShard {
    cache: Mutex<FxHashMap<(PrincipalId, ObjectId, Operation), Decision>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// This shard's *current* entry bound. Starts at the engine's base
    /// [`EscudoEngine::shard_capacity`] and is rebalanced from observed
    /// eviction skew: hot shards borrow budget from cold ones while the total
    /// across all shards stays exactly `base × shard_count`.
    capacity: AtomicUsize,
}

impl CacheShard {
    fn with_capacity(capacity: usize) -> Self {
        CacheShard {
            capacity: AtomicUsize::new(capacity),
            ..CacheShard::default()
        }
    }
}

/// The production ESCUDO engine: context interning plus a sharded decision cache.
///
/// The three MAC rules are pure functions of `(principal context, object context,
/// operation)`, so their outcome can be memoized. The engine interns both contexts
/// into small ids through the lock-free [`ContextInterner`] and keys the cache on
/// `(principal_id, object_id, op)`; repeated checks on hot DOM and event-dispatch
/// paths are then a wait-free interner walk plus one shard-local hash lookup —
/// no global lock anywhere on the decision path.
///
/// The cache is split into [`EscudoEngine::shard_count`] lock stripes selected by
/// `hash(pid, oid, op)`, so concurrent sessions contend only when they race on the
/// *same* decisions. Each shard is bounded independently
/// ([`EscudoEngine::with_cache_capacity`] divides the total bound across shards);
/// a full shard is cleared wholesale, evicting only its own slice of the cache
/// (decisions are pure, so eviction can never produce a wrong answer — only a
/// recomputation).
#[derive(Debug)]
pub struct EscudoEngine {
    interner: ContextInterner,
    shards: Vec<CacheShard>,
    /// Bound on entries per shard; 0 disables memoization entirely.
    shard_capacity: usize,
}

/// Default bound on the number of memoized decisions (divided across the shards;
/// see [`EscudoEngine::with_cache_capacity`] for the exact shard-granular bound).
pub const DEFAULT_CACHE_CAPACITY: usize = 64 * 1024;

/// The default decision-cache shard count: sized from the machine's
/// [`std::thread::available_parallelism`] (shards exist to keep concurrent
/// threads off each other's locks, so the thread count is the right yardstick),
/// rounded up to a power of two and clamped to `[4, 64]` — at least a few
/// stripes even on a single-core runner (two sessions on one core still
/// interleave), and bounded so a many-core machine does not fragment the cache
/// capacity into slivers. [`EscudoEngine::with_shards`] overrides it.
#[must_use]
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .next_power_of_two()
        .clamp(4, 64)
}

impl Default for EscudoEngine {
    fn default() -> Self {
        EscudoEngine::new()
    }
}

impl EscudoEngine {
    /// Creates an engine with the default shard count and cache capacity.
    #[must_use]
    pub fn new() -> Self {
        EscudoEngine::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an engine bounding the decision cache to roughly `capacity` entries,
    /// spread over [`default_shard_count()`] shards.
    ///
    /// The bound is shard-granular: `capacity` is divided across the shards rounding
    /// up, so the total resident entries can exceed `capacity` by up to
    /// `shard_count - 1` (each shard holds at least one entry when memoization is
    /// enabled at all).
    ///
    /// A capacity of `0` disables memoization entirely (every decision recomputes the
    /// rules — the configuration the cold-path benchmarks measure).
    #[must_use]
    pub fn with_cache_capacity(capacity: usize) -> Self {
        EscudoEngine::with_shards(default_shard_count(), capacity)
    }

    /// Creates an engine with an explicit shard count and cache capacity.
    ///
    /// `shard_count` is rounded up to a power of two (and at least 1) so shard
    /// selection is a mask; `capacity` is divided across the shards as described on
    /// [`EscudoEngine::with_cache_capacity`].
    #[must_use]
    pub fn with_shards(shard_count: usize, capacity: usize) -> Self {
        let shard_count = shard_count.max(1).next_power_of_two();
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shard_count)
        };
        EscudoEngine {
            interner: ContextInterner::new(),
            shards: (0..shard_count)
                .map(|_| CacheShard::with_capacity(shard_capacity))
                .collect(),
            shard_capacity,
        }
    }

    /// The lock-free context interner backing this engine (storm observability:
    /// occupancy, CAS retries, bucket depth).
    #[must_use]
    pub fn interner(&self) -> &ContextInterner {
        &self.interner
    }

    /// Number of lock stripes in the decision cache.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// *Base* bound on memoized decisions per shard (0 when memoization is
    /// disabled). Individual shards drift from this base as eviction skew is
    /// observed — see [`EscudoEngine::shard_capacities`] — but the total across
    /// all shards stays exactly `shard_capacity() × shard_count()`.
    #[must_use]
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// The current per-shard entry bounds, after any eviction-skew rebalances.
    /// Always sums to `shard_capacity() × shard_count()`, and every shard keeps
    /// at least `max(1, shard_capacity() / 2)` (when memoization is enabled).
    #[must_use]
    pub fn shard_capacities(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| shard.capacity.load(Ordering::Relaxed))
            .collect()
    }

    /// Redistributes the total cache budget across the shards in proportion to
    /// their observed eviction counts: a shard whose keys keep overflowing its
    /// slice gets a larger bound, paid for by shards that never evict. Runs on
    /// each eviction (evictions are rare by construction — each one wipes a
    /// whole shard — so this O(shards) pass is off the hot path).
    ///
    /// Invariants: the per-shard bounds always sum to exactly
    /// `shard_capacity × shard_count` (the configured total is a hard bound,
    /// redistributed but never grown), and no shard drops below
    /// `max(1, shard_capacity / 2)` (a cold shard keeps a useful working set —
    /// skew is a forecast, not a guarantee).
    fn rebalance_shards(&self) {
        if self.shard_capacity == 0 || self.shards.len() < 2 {
            return;
        }
        let total = self.shard_capacity * self.shards.len();
        let floor = (self.shard_capacity / 2).max(1);
        let spendable = total - floor * self.shards.len();
        let weights: Vec<u64> = self
            .shards
            .iter()
            .map(|shard| 1 + shard.evictions.load(Ordering::Relaxed))
            .collect();
        let weight_sum: u64 = weights.iter().sum();
        let mut bounds: Vec<usize> = weights
            .iter()
            .map(|w| floor + usize::try_from(spendable as u64 * w / weight_sum).unwrap_or(0))
            .collect();
        // Flooring the proportional shares drops at most `shards - 1` entries;
        // hand the remainder to the hottest shards so the total stays exact.
        let mut leftover = total - bounds.iter().sum::<usize>();
        let mut order: Vec<usize> = (0..bounds.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
        for index in order {
            if leftover == 0 {
                break;
            }
            bounds[index] += 1;
            leftover -= 1;
        }
        for (shard, bound) in self.shards.iter().zip(bounds) {
            shard.capacity.store(bound, Ordering::Relaxed);
        }
    }

    /// Drops every memoized decision (interned ids survive — they are still valid).
    /// Explicit clears are not counted as evictions.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            shard.cache.lock().expect("shard lock").clear();
        }
    }

    /// Resolves the interned ids of a context pair: a wait-free published-slot
    /// walk when both are already known (the steady-state path), a lock-free
    /// CAS-append only on first touch. Racing first touches of the same context
    /// converge on one dense id (the losers adopt the winner's).
    fn intern_pair(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
    ) -> (PrincipalId, ObjectId) {
        (
            self.interner.intern_principal(principal),
            self.interner.intern_object(object),
        )
    }

    /// Picks the cache shard for a decision key.
    ///
    /// The shard index comes from the *high* hash bits: the shard's own `FxHashMap`
    /// derives its bucket index from the low bits of this same hash scheme, so
    /// masking the low bits here would leave every key in shard `i` congruent to
    /// `i` modulo the shard count — stranding all of them on a fraction of the
    /// map's slots and turning the warm path into long probe chains.
    fn shard_for(&self, pid: PrincipalId, oid: ObjectId, op: Operation) -> &CacheShard {
        let mut hasher = FxHasher::default();
        hasher.write_u32(pid.0);
        hasher.write_u32(oid.0);
        hasher.write_u8(op as u8);
        &self.shards[((hasher.finish() >> 32) as usize) & (self.shards.len() - 1)]
    }

    /// Decides for an already-interned context pair: shard probe, then compute + fill
    /// on a miss. The decision itself is computed outside any lock (it is pure).
    fn decide_interned(
        &self,
        pid: PrincipalId,
        oid: ObjectId,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision {
        let shard = self.shard_for(pid, oid, op);
        let key = (pid, oid, op);
        if let Some(cached) = shard.cache.lock().expect("shard lock").get(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        let decision = decide(PolicyMode::Escudo, principal, object, op);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        if self.shard_capacity > 0 {
            let mut evicted = false;
            {
                let mut cache = shard.cache.lock().expect("shard lock");
                if cache.len() >= shard.capacity.load(Ordering::Relaxed)
                    && !cache.contains_key(&key)
                {
                    // Decisions are pure: a wholesale clear is always safe, keeps the
                    // eviction policy trivial (no LRU bookkeeping on the hot path), and —
                    // because shards are bounded independently — only evicts this shard's
                    // slice of the cache.
                    cache.clear();
                    shard.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted = true;
                }
                cache.insert(key, decision.clone());
            }
            if evicted {
                // Adapt outside the shard lock: this shard just proved its slice
                // of keys outgrows its bound, so let it borrow budget from
                // shards that never evict.
                self.rebalance_shards();
            }
        }
        decision
    }
}

impl PolicyEngine for EscudoEngine {
    fn mode(&self) -> PolicyMode {
        PolicyMode::Escudo
    }

    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision {
        let (pid, oid) = self.intern_pair(principal, object);
        self.decide_interned(pid, oid, principal, object, op)
    }

    fn stats(&self) -> EngineStats {
        let principals = self.interner.principal_count() as u64;
        let objects = self.interner.object_count() as u64;
        let mut shards = Vec::with_capacity(self.shards.len());
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let snapshot = ShardStats {
                hits: shard.hits.load(Ordering::Relaxed),
                misses: shard.misses.load(Ordering::Relaxed),
                evictions: shard.evictions.load(Ordering::Relaxed),
                entries: shard.cache.lock().expect("shard lock").len() as u64,
            };
            hits += snapshot.hits;
            misses += snapshot.misses;
            evictions += snapshot.evictions;
            shards.push(snapshot);
        }
        EngineStats {
            // Derived from the same counter reads, so `cache_hits ≤ decisions` and
            // `decisions == cache_hits + cache_misses` hold in every snapshot, even
            // with decides racing this reader.
            decisions: hits + misses,
            cache_hits: hits,
            cache_misses: misses,
            interned_principals: principals,
            interned_objects: objects,
            interner_cas_retries: self.interner.cas_retries(),
            interner_max_bucket_depth: self.interner.max_bucket_depth() as u64,
            evictions,
            shards,
        }
    }

    /// Lock-free: sums the per-shard hit counters without touching the interner
    /// lock, the shard mutexes or the heap (unlike a full
    /// [`stats`](PolicyEngine::stats) snapshot).
    fn cache_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.hits.load(Ordering::Relaxed))
            .sum()
    }
}

/// The legacy same-origin baseline behind the [`PolicyEngine`] trait.
///
/// The origin rule is a handful of string comparisons, so this engine neither interns
/// nor caches — it exists so the "without ESCUDO" configuration runs through exactly
/// the same enforcement plumbing as the full model.
#[derive(Debug, Default)]
pub struct SameOriginEngine {
    decisions: AtomicU64,
}

impl SameOriginEngine {
    /// Creates the baseline engine.
    #[must_use]
    pub fn new() -> Self {
        SameOriginEngine::default()
    }
}

impl PolicyEngine for SameOriginEngine {
    fn mode(&self) -> PolicyMode {
        PolicyMode::SameOriginOnly
    }

    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        decide(PolicyMode::SameOriginOnly, principal, object, op)
    }

    fn stats(&self) -> EngineStats {
        let decisions = self.decisions.load(Ordering::Relaxed);
        EngineStats {
            decisions,
            // No cache: every decision runs the full procedure, i.e. is a miss —
            // which also preserves the `decisions == hits + misses` invariant.
            cache_misses: decisions,
            ..EngineStats::default()
        }
    }
}

/// The factory enforcement layers use: the full engine for [`PolicyMode::Escudo`],
/// the baseline for [`PolicyMode::SameOriginOnly`].
#[must_use]
pub fn engine_for_mode(mode: PolicyMode) -> Arc<dyn PolicyEngine> {
    match mode {
        PolicyMode::Escudo => Arc::new(EscudoEngine::new()),
        PolicyMode::SameOriginOnly => Arc::new(SameOriginEngine::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ObjectKind, PrincipalKind};

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
    fn interning_collapses_label_variants() {
        let mut table = ContextTable::new();
        let a = script(3).with_label("inline script #1");
        let b = script(3).with_label("inline script #2");
        let c = script(2);
        assert_eq!(table.intern_principal(&a), table.intern_principal(&b));
        assert_ne!(table.intern_principal(&a), table.intern_principal(&c));
        assert_eq!(table.principal_count(), 2);

        let x = dom(1, Acl::uniform(Ring::new(1))).with_label("post");
        let y = dom(1, Acl::uniform(Ring::new(1))).with_label("other post");
        let z = dom(1, Acl::uniform(Ring::new(0)));
        assert_eq!(table.intern_object(&x), table.intern_object(&y));
        assert_ne!(table.intern_object(&x), table.intern_object(&z));
        assert_eq!(table.object_count(), 2);
    }

    #[test]
    fn interning_distinguishes_browser_chrome() {
        let mut table = ContextTable::new();
        let chrome = PrincipalContext::browser(site());
        let ring0_script = script(0);
        // Same origin and ring, but only one of them enjoys the chrome exemption.
        assert_ne!(
            table.intern_principal(&chrome),
            table.intern_principal(&ring0_script)
        );
    }

    #[test]
    fn cached_decisions_match_the_free_function() {
        let engine = EscudoEngine::new();
        let object = dom(2, Acl::uniform(Ring::new(1)));
        for ring in 0u16..5 {
            for op in Operation::ALL {
                let expected = decide(PolicyMode::Escudo, &script(ring), &object, op);
                // Cold, then cached: both must be byte-identical to `decide`.
                assert_eq!(engine.decide(&script(ring), &object, op), expected);
                assert_eq!(engine.decide(&script(ring), &object, op), expected);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.decisions, 30);
        assert_eq!(stats.cache_hits, 15);
        assert_eq!(stats.cache_misses, 15);
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn decide_many_matches_individual_decides() {
        let engine = EscudoEngine::new();
        let p1 = script(1);
        let p3 = script(3);
        let foreign = PrincipalContext::new(PrincipalKind::Script, other_site(), Ring::new(0));
        let object = dom(2, Acl::uniform(Ring::new(1)));
        let batch: Vec<(&PrincipalContext, &ObjectContext, Operation)> = vec![
            (&p1, &object, Operation::Read),
            (&p3, &object, Operation::Write),
            (&foreign, &object, Operation::Read),
            (&p1, &object, Operation::Read), // repeat → served from cache
        ];
        let results = engine.decide_many(&batch);
        for ((p, o, op), got) in batch.iter().zip(&results) {
            assert_eq!(*got, decide(PolicyMode::Escudo, p, o, *op));
        }
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let engine = EscudoEngine::with_cache_capacity(0);
        let object = dom(1, Acl::uniform(Ring::new(1)));
        engine.decide(&script(1), &object, Operation::Read);
        engine.decide(&script(1), &object, Operation::Read);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn bounded_cache_clears_instead_of_growing() {
        let engine = EscudoEngine::with_cache_capacity(8);
        let object = dom(3, Acl::uniform(Ring::new(3)));
        // 20 distinct principals → more keys than capacity; every decision stays correct.
        for ring in 0u16..20 {
            let p = script(ring);
            let expected = decide(PolicyMode::Escudo, &p, &object, Operation::Read);
            assert_eq!(engine.decide(&p, &object, Operation::Read), expected);
        }
        // And cache hits still happen for re-checks after the clears.
        let before = engine.stats().cache_hits;
        engine.decide(&script(19), &object, Operation::Read);
        assert_eq!(engine.stats().cache_hits, before + 1);
    }

    #[test]
    fn clear_cache_forces_recomputation_but_not_wrong_answers() {
        let engine = EscudoEngine::new();
        let object = dom(2, Acl::uniform(Ring::new(2)));
        let expected = decide(PolicyMode::Escudo, &script(2), &object, Operation::Write);
        assert_eq!(
            engine.decide(&script(2), &object, Operation::Write),
            expected
        );
        engine.clear_cache();
        assert_eq!(
            engine.decide(&script(2), &object, Operation::Write),
            expected
        );
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn same_origin_engine_is_the_sop_baseline() {
        let engine = SameOriginEngine::new();
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
    fn lookup_is_the_readonly_face_of_interning() {
        let mut table = ContextTable::new();
        let p = script(2);
        let o = dom(1, Acl::uniform(Ring::new(1)));
        assert_eq!(table.lookup_principal(&p), None);
        assert_eq!(table.lookup_object(&o), None);
        let pid = table.intern_principal(&p);
        let oid = table.intern_object(&o);
        assert_eq!(table.lookup_principal(&p), Some(pid));
        assert_eq!(table.lookup_object(&o), Some(oid));
        // A context differing only in its label resolves to the same id.
        assert_eq!(
            table.lookup_principal(&script(2).with_label("renamed")),
            Some(pid)
        );
    }

    #[test]
    fn context_interner_matches_the_reference_table() {
        // Same insertion order → byte-identical ids: the lock-free interner is a
        // drop-in replacement for the single-threaded reference table.
        let mut table = ContextTable::new();
        let interner = ContextInterner::new();
        let objects: Vec<ObjectContext> = (0u16..6)
            .map(|ring| dom(ring % 4, Acl::uniform(Ring::new(ring % 3))))
            .collect();
        for ring in 0u16..8 {
            let p = script(ring % 5); // repeats after 5: warm re-interns
            assert_eq!(
                table.intern_principal(&p).index(),
                interner.intern_principal(&p).index()
            );
        }
        for object in &objects {
            assert_eq!(
                table.intern_object(object).index(),
                interner.intern_object(object).index()
            );
        }
        assert_eq!(table.principal_count(), interner.principal_count());
        assert_eq!(table.object_count(), interner.object_count());
        // Lookup is the readonly face here too, label-insensitive included.
        let relabeled = script(2).with_label("renamed");
        assert_eq!(
            interner.lookup_principal(&relabeled),
            Some(interner.intern_principal(&script(2)))
        );
        assert_eq!(
            interner.lookup_object(&dom(19, Acl::uniform(Ring::new(1)))),
            None
        );
        // Single-threaded interning never loses a claim.
        assert_eq!(interner.cas_retries(), 0);
        assert!(interner.max_bucket_depth() >= 1);
    }

    #[test]
    fn engine_stats_surface_interner_occupancy() {
        let engine = EscudoEngine::new();
        let object = dom(1, Acl::uniform(Ring::new(1)));
        engine.decide(&script(1), &object, Operation::Read);
        engine.decide(&script(2), &object, Operation::Read);
        let stats = engine.stats();
        assert_eq!(stats.interned_principals, 2);
        assert_eq!(stats.interned_objects, 1);
        assert_eq!(stats.interner_cas_retries, 0);
        assert!(stats.interner_max_bucket_depth >= 1);
    }

    #[test]
    fn shard_count_is_a_power_of_two_and_at_least_one() {
        assert_eq!(EscudoEngine::with_shards(0, 64).shard_count(), 1);
        assert_eq!(EscudoEngine::with_shards(1, 64).shard_count(), 1);
        assert_eq!(EscudoEngine::with_shards(5, 64).shard_count(), 8);
        assert_eq!(EscudoEngine::with_shards(16, 64).shard_count(), 16);
        // The default adapts to the machine: a power of two in [4, 64].
        let default = default_shard_count();
        assert_eq!(EscudoEngine::new().shard_count(), default);
        assert!(default.is_power_of_two());
        assert!((4..=64).contains(&default));
        // Capacity is divided across shards; zero disables memoization everywhere.
        assert_eq!(EscudoEngine::with_shards(4, 64).shard_capacity(), 16);
        assert_eq!(EscudoEngine::with_shards(4, 0).shard_capacity(), 0);
    }

    #[test]
    fn per_shard_stats_sum_to_the_aggregates() {
        let engine = EscudoEngine::with_shards(4, 1024);
        let object = dom(2, Acl::uniform(Ring::new(1)));
        for ring in 0u16..12 {
            for op in Operation::ALL {
                engine.decide(&script(ring), &object, op);
                engine.decide(&script(ring), &object, op);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(
            stats.shards.iter().map(|s| s.hits).sum::<u64>(),
            stats.cache_hits
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.misses).sum::<u64>(),
            stats.cache_misses
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.evictions).sum::<u64>(),
            stats.evictions
        );
        assert_eq!(stats.decisions, stats.cache_hits + stats.cache_misses);
        assert_eq!(
            stats.shards.iter().map(|s| s.entries).sum::<u64>(),
            stats.cache_misses,
            "every distinct decision should be resident (no evictions at this size)"
        );
        // The key space is spread over more than one stripe.
        assert!(
            stats.shards.iter().filter(|s| s.entries > 0).count() > 1,
            "decisions should not all collapse onto one shard: {stats:?}"
        );
    }

    #[test]
    fn a_full_shard_evicts_only_its_own_slice() {
        // 2 shards × 8 entries each. A witness decision parked in one shard must
        // survive the other shard overflowing and being cleared.
        let engine = EscudoEngine::with_shards(2, 16);
        let object = dom(3, Acl::uniform(Ring::new(3)));
        let oid = engine.interner.intern_object(&object);
        let lands_in_shard0 = |ring: u16| {
            let pid = engine.interner.intern_principal(&script(ring));
            std::ptr::eq(
                engine.shard_for(pid, oid, Operation::Read),
                &engine.shards[0],
            )
        };
        let witness = (0u16..200)
            .find(|ring| lands_in_shard0(*ring))
            .expect("some key hashes to shard 0");
        engine.decide(&script(witness), &object, Operation::Read);

        // Overflow the *other* shard with distinct keys until it has evicted.
        let mut filled = 0;
        for ring in 200u16..2000 {
            if !lands_in_shard0(ring) {
                let p = script(ring);
                let expected = decide(PolicyMode::Escudo, &p, &object, Operation::Read);
                assert_eq!(engine.decide(&p, &object, Operation::Read), expected);
                filled += 1;
                if filled == 20 {
                    break;
                }
            }
        }
        let stats = engine.stats();
        assert!(stats.evictions > 0, "20 keys into 8 slots must evict");
        // Eviction-skew rebalancing may have grown the hot shard's bound, but
        // every shard must respect its *current* bound and the total budget is
        // conserved exactly.
        let capacities = engine.shard_capacities();
        assert_eq!(
            capacities.iter().sum::<usize>(),
            engine.shard_capacity() * engine.shard_count()
        );
        for (shard, capacity) in stats.shards.iter().zip(&capacities) {
            assert!(
                shard.entries <= *capacity as u64,
                "shard exceeded its bound {capacity}: {shard:?}"
            );
        }
        // The witness sat in the untouched shard: still a cache hit.
        let hits_before = engine.stats().cache_hits;
        engine.decide(&script(witness), &object, Operation::Read);
        assert_eq!(
            engine.stats().cache_hits,
            hits_before + 1,
            "eviction in one shard must not clear the other"
        );
    }

    #[test]
    fn hot_shards_borrow_capacity_from_cold_ones() {
        // 2 shards × 8 entries. Every key is steered into one shard, which
        // keeps overflowing; the rebalancer should shift budget toward it.
        let engine = EscudoEngine::with_shards(2, 16);
        let base = engine.shard_capacity();
        assert_eq!(engine.shard_capacities(), vec![base, base]);

        let object = dom(3, Acl::uniform(Ring::new(3)));
        let oid = engine.interner.intern_object(&object);
        let hot_index = {
            let pid = engine.interner.intern_principal(&script(0));
            usize::from(!std::ptr::eq(
                engine.shard_for(pid, oid, Operation::Read),
                &engine.shards[0],
            ))
        };
        let mut driven = 0u32;
        for ring in 0u16..4000 {
            let pid = engine.interner.intern_principal(&script(ring));
            if !std::ptr::eq(
                engine.shard_for(pid, oid, Operation::Read),
                &engine.shards[hot_index],
            ) {
                continue;
            }
            let p = script(ring);
            let expected = decide(PolicyMode::Escudo, &p, &object, Operation::Read);
            assert_eq!(engine.decide(&p, &object, Operation::Read), expected);
            driven += 1;
            if driven == 100 {
                break;
            }
        }
        assert!(engine.stats().evictions > 0, "100 keys into 8 slots evict");

        let capacities = engine.shard_capacities();
        let cold_index = 1 - hot_index;
        assert!(
            capacities[hot_index] > base,
            "hot shard should have grown: {capacities:?}"
        );
        assert!(
            capacities[cold_index] < base,
            "cold shard should have shrunk: {capacities:?}"
        );
        // Hard invariants: exact total, and the cold shard keeps its floor.
        assert_eq!(capacities.iter().sum::<usize>(), base * 2);
        assert!(capacities[cold_index] >= (base / 2).max(1));
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine: Arc<dyn PolicyEngine> = Arc::new(EscudoEngine::new());
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
