//! Mediation-keyed shared response cache.
//!
//! ESCUDO's deployability argument rests on keeping mediation overhead small, and
//! the largest remaining hot-path cost is paying full wire latency for every repeat
//! navigation. This module caches *transport*, never *mediation*: entries are keyed
//! by the URL (a `GET`; any other method by `"{method} {url}"`, so methods never
//! share an entry) and validated against the **mediated cookie header** the
//! browser's reference monitor computed for the request. The mediation plan always
//! executes — a hit only skips the origin round-trip — so ESCUDO/SOP verdicts and
//! check/denial counts are cache-invariant by construction. A request whose
//! mediated header differs from the stored one (a different session, a revoked
//! cookie) misses and evicts the stale entry, so the cache fails closed.
//!
//! Layout follows the jar/engine precedent: a power-of-two shard array selected by
//! the high 32 bits of an FNV-1a hash, each shard a capacity-bounded LRU behind its
//! own mutex. Entries hold `Arc<Response>` so a hit is a refcount bump with zero
//! body clone. Freshness comes from `Cache-Control: max-age=N` metered against a
//! caller-supplied clock reading (the fabric injects its [`Clock`], so expiry is
//! exactly countable under a manual clock); `no-store` responses are never
//! inserted, and neither is any response carrying `Set-Cookie` — per shared-cache
//! semantics a response that sets cookies is per-recipient state, and storing it
//! would replay one session's credential into every later consumer whose mediated
//! header happens to match. Speculative prefetch rides the same structure as a
//! *one-shot* layer: one-shot entries are stored without requiring `max-age`
//! (falling back to [`ONE_SHOT_DEFAULT_TTL_NS`] so unconsumed speculation cannot
//! linger) and are removed on first hit, preserving the old `PrefetchCache`
//! contract. Lookups name the [`CacheLayers`] the caller opted into; an entry in
//! a foreign layer is an ordinary miss and stays in place for the sessions that
//! did opt in.
//!
//! [`Clock`]: escudo_core::tenant::Clock

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::message::{Method, Response};

/// Default total entry capacity of the fabric's shared cache.
pub const RESPONSE_CACHE_CAPACITY: usize = 128;

/// Default shard count (power of two, per the jar precedent).
pub const RESPONSE_CACHE_SHARDS: usize = 8;

/// Freshness bound for one-shot (prefetch) entries whose response declared no
/// `max-age`: speculation is meant to be consumed by the very next navigation,
/// so an unconsumed entry expires instead of lingering until LRU pressure.
pub const ONE_SHOT_DEFAULT_TTL_NS: u64 = 30_000_000_000;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Which layers of the cache a lookup may serve. A session consults only the
/// layers it opted into — speculative prefetch serves one-shot entries, the
/// persistent response cache serves `max-age` entries — and an entry in a
/// foreign layer is an ordinary miss, left untouched for the sessions that did
/// opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLayers {
    /// Serve (and consume) one-shot speculative-prefetch entries.
    pub one_shot: bool,
    /// Serve persistent `max-age` entries.
    pub persistent: bool,
}

impl CacheLayers {
    /// No layer: the plan consults nothing.
    pub const NONE: CacheLayers = CacheLayers {
        one_shot: false,
        persistent: false,
    };
    /// Both layers (a session that opted into speculation and caching).
    pub const BOTH: CacheLayers = CacheLayers {
        one_shot: true,
        persistent: true,
    };
    /// Only one-shot speculative entries (a prefetch-only session).
    pub const ONE_SHOT: CacheLayers = CacheLayers {
        one_shot: true,
        persistent: false,
    };
    /// Only persistent entries (a cache-only session, or mediated XHR).
    pub const PERSISTENT: CacheLayers = CacheLayers {
        one_shot: false,
        persistent: true,
    };

    fn serves(self, one_shot: bool) -> bool {
        if one_shot {
            self.one_shot
        } else {
            self.persistent
        }
    }
}

/// One cached response plus the metadata needed to validate a hit.
#[derive(Debug)]
struct CacheEntry {
    /// The mediated `Cookie` header the response was fetched under.
    cookie_header: String,
    response: Arc<Response>,
    stored_at_ns: u64,
    /// Freshness lifetime: `max-age`, or [`ONE_SHOT_DEFAULT_TTL_NS`] for a
    /// one-shot entry whose response declared none.
    ttl_ns: u64,
    /// Prefetch layer: remove on first hit.
    one_shot: bool,
    /// Recency stamp for LRU eviction within the shard.
    touched: u64,
}

impl CacheEntry {
    fn is_expired(&self, now_ns: u64) -> bool {
        now_ns.saturating_sub(self.stored_at_ns) >= self.ttl_ns
    }
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, CacheEntry>,
    /// Monotonic per-shard recency counter.
    tick: u64,
}

/// A successful cache lookup.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The cached response; cloning the `Arc` is the whole cost of the hit.
    pub response: Arc<Response>,
    /// `true` when this hit consumed a one-shot (prefetched) entry.
    pub one_shot: bool,
}

/// The sharded, capacity-bounded, mediation-keyed response cache.
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    one_shot_hits: AtomicU64,
    stale: AtomicU64,
    expired: AtomicU64,
    evicted: AtomicU64,
    stored: AtomicU64,
    coalesced: AtomicU64,
}

impl ResponseCache {
    /// Creates a cache holding at most `capacity` entries across `shard_count`
    /// shards. The shard count is rounded up to a power of two; capacity is split
    /// evenly across shards (rounding up).
    #[must_use]
    pub fn new(capacity: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1).next_power_of_two();
        let shard_capacity = capacity.max(1).div_ceil(shard_count);
        ResponseCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            one_shot_hits: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The one cacheability rule: a response may enter the cache only when it
    /// is a 2xx, is not marked `no-store`, and carries no `Set-Cookie` (that
    /// is per-recipient state — caching it would replay one session's
    /// credential into another session whose mediated header matches).
    /// Persistent entries additionally need an explicit `max-age`, so dynamic
    /// pages never enter the shared cache; one-shot (prefetch) entries do not.
    #[must_use]
    pub fn admits(response: &Response, one_shot: bool) -> bool {
        response.status.is_success()
            && !response.headers.cache_no_store()
            && response.headers.get("Set-Cookie").is_none()
            && (one_shot || response.headers.cache_max_age().is_some())
    }

    /// The entry key: a `GET` is keyed by its URL itself, borrowed; any other
    /// method by `"{method} {url}"`. A serialized URL starts with its scheme
    /// and holds no space, so the two forms never collide.
    fn key(method: Method, url: &str) -> Cow<'_, str> {
        match method {
            Method::Get => Cow::Borrowed(url),
            _ => Cow::Owned(format!("{method} {url}")),
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        let hash = fnv1a(key.as_bytes());
        let index = ((hash >> 32) as usize) & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Stores a response fetched under `cookie_header`, overwriting any previous
    /// entry for `method` and `url`. Returns `false` (and stores nothing) when
    /// [`ResponseCache::admits`] refuses the response. One-shot (prefetch)
    /// entries without `max-age` fall back to [`ONE_SHOT_DEFAULT_TTL_NS`] —
    /// but a one-shot store never downgrades a fresh persistent entry to
    /// consumed-on-first-hit.
    pub fn store(
        &self,
        method: Method,
        url: &str,
        cookie_header: &str,
        response: impl Into<Arc<Response>>,
        now_ns: u64,
        one_shot: bool,
    ) -> bool {
        let response = response.into();
        if !ResponseCache::admits(&response, one_shot) {
            return false;
        }
        let ttl_ns = response
            .headers
            .cache_max_age()
            .map_or(ONE_SHOT_DEFAULT_TTL_NS, |seconds| {
                seconds.saturating_mul(1_000_000_000)
            });
        let key = ResponseCache::key(method, url);
        let mut shard = self.shard_for(&key).lock().expect("cache shard lock");
        if one_shot {
            if let Some(existing) = shard.entries.get(key.as_ref()) {
                if !existing.one_shot && !existing.is_expired(now_ns) {
                    return false;
                }
            }
        }
        shard.tick += 1;
        let touched = shard.tick;
        let entry = CacheEntry {
            cookie_header: cookie_header.to_string(),
            response,
            stored_at_ns: now_ns,
            ttl_ns,
            one_shot,
            touched,
        };
        let overwrote = shard.entries.insert(key.into_owned(), entry).is_some();
        if !overwrote && shard.entries.len() > self.shard_capacity {
            let oldest = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                shard.entries.remove(&oldest);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stored.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Looks up `method` and `url` — borrowing the URL as the key of a `GET`,
    /// so a lookup allocates nothing — under the mediated `cookie_header`, serving
    /// only the `layers` the caller opted into.
    ///
    /// An expired entry is removed and counted (`None`). An entry in a layer
    /// the caller did not opt into is an ordinary miss — it stays in place,
    /// undiscarded, for the sessions that did opt in. An in-layer entry fetched
    /// under a *different* mediated header is removed and counted as stale
    /// (`None`) — the fail-closed path. A one-shot hit consumes the entry; a
    /// persistent hit bumps its recency. A plain miss touches no counter.
    pub fn lookup(
        &self,
        method: Method,
        url: &str,
        cookie_header: &str,
        now_ns: u64,
        layers: CacheLayers,
    ) -> Option<CacheHit> {
        if !layers.one_shot && !layers.persistent {
            return None;
        }
        let key = ResponseCache::key(method, url);
        let key = key.as_ref();
        let mut guard = self.shard_for(key).lock().expect("cache shard lock");
        let shard = &mut *guard;
        let entry = shard.entries.get_mut(key)?;
        // Every outcome but a miss in a foreign layer and a persistent hit
        // removes the entry; only a one-shot hit serves it.
        let (counter, served) = if entry.is_expired(now_ns) {
            (&self.expired, false)
        } else if !layers.serves(entry.one_shot) {
            return None;
        } else if entry.cookie_header != cookie_header {
            (&self.stale, false)
        } else if entry.one_shot {
            (&self.one_shot_hits, true)
        } else {
            shard.tick += 1;
            entry.touched = shard.tick;
            let response = Arc::clone(&entry.response);
            drop(guard);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(CacheHit {
                response,
                one_shot: false,
            });
        };
        let removed = shard.entries.remove(key).expect("entry present");
        drop(guard);
        counter.fetch_add(1, Ordering::Relaxed);
        served.then_some(CacheHit {
            response: removed.response,
            one_shot: true,
        })
    }

    /// Total live entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").entries.len())
            .sum()
    }

    /// `true` when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live one-shot (prefetched) entries across all shards.
    #[must_use]
    pub fn one_shot_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard lock")
                    .entries
                    .values()
                    .filter(|e| e.one_shot)
                    .count()
            })
            .sum()
    }

    /// Persistent-entry hits served so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// One-shot (prefetch) hits served so far.
    #[must_use]
    pub fn one_shot_hits(&self) -> u64 {
        self.one_shot_hits.load(Ordering::Relaxed)
    }

    /// Entries discarded because the mediated cookie header changed.
    #[must_use]
    pub fn stale_discards(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Entries discarded at lookup because their `max-age` lifetime had passed.
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Entries evicted to keep a shard within capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Successful stores (including overwrites).
    #[must_use]
    pub fn stored(&self) -> u64 {
        self.stored.load(Ordering::Relaxed)
    }

    /// Duplicate plan slots served from a single dispatch (batch single-flight).
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Records `n` duplicate plan slots coalesced onto one dispatch.
    pub fn note_coalesced(&self, n: u64) {
        self.coalesced.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cacheable(body: &str, max_age: u64) -> Response {
        Response::ok_text(body).with_max_age(max_age)
    }

    #[test]
    fn persistent_entries_require_an_explicit_max_age() {
        let cache = ResponseCache::new(8, 2);
        assert!(!cache.store(
            Method::Get,
            "http://a/x",
            "",
            Response::ok_text("dynamic"),
            0,
            false
        ));
        assert!(cache.store(
            Method::Get,
            "http://a/x",
            "",
            cacheable("static", 60),
            0,
            false
        ));
        assert_eq!(cache.len(), 1);
        let hit = cache
            .lookup(Method::Get, "http://a/x", "", 0, CacheLayers::BOTH)
            .expect("hit");
        assert!(!hit.one_shot);
        assert_eq!(hit.response.body, "static");
        assert_eq!(cache.hits(), 1);
        // A hit leaves a persistent entry in place.
        assert!(cache
            .lookup(Method::Get, "http://a/x", "", 0, CacheLayers::BOTH)
            .is_some());
    }

    #[test]
    fn no_store_is_honored_for_both_layers() {
        let cache = ResponseCache::new(8, 2);
        let secret = Response::ok_text("secret").with_max_age(60);
        let mut secret = secret;
        secret.headers.set("Cache-Control", "no-store, max-age=60");
        assert!(!cache.store(Method::Get, "http://a/s", "", secret.clone(), 0, false));
        assert!(!cache.store(Method::Get, "http://a/s", "", secret, 0, true));
        assert!(cache.is_empty());
    }

    #[test]
    fn one_shot_entries_store_without_max_age_and_vanish_on_first_hit() {
        let cache = ResponseCache::new(8, 2);
        assert!(cache.store(
            Method::Get,
            "http://a/p",
            "sid=1",
            Response::ok_text("pre"),
            0,
            true
        ));
        assert_eq!(cache.one_shot_len(), 1);
        let hit = cache
            .lookup(Method::Get, "http://a/p", "sid=1", 0, CacheLayers::BOTH)
            .expect("hit");
        assert!(hit.one_shot);
        assert_eq!(cache.one_shot_hits(), 1);
        assert!(cache
            .lookup(Method::Get, "http://a/p", "sid=1", 0, CacheLayers::BOTH)
            .is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn a_different_mediated_header_discards_the_entry() {
        let cache = ResponseCache::new(8, 2);
        cache.store(
            Method::Get,
            "http://a/x",
            "sid=alice",
            cacheable("a", 60),
            0,
            false,
        );
        assert!(cache
            .lookup(
                Method::Get,
                "http://a/x",
                "sid=mallory",
                0,
                CacheLayers::BOTH
            )
            .is_none());
        assert_eq!(cache.stale_discards(), 1);
        // Fail closed: the entry is gone, even for the original header.
        assert!(cache
            .lookup(Method::Get, "http://a/x", "sid=alice", 0, CacheLayers::BOTH)
            .is_none());
        assert_eq!(cache.stale_discards(), 1);
    }

    #[test]
    fn ttl_expiry_is_exactly_countable() {
        let cache = ResponseCache::new(8, 2);
        cache.store(
            Method::Get,
            "http://a/x",
            "",
            cacheable("x", 5),
            1_000,
            false,
        );
        let just_before = 1_000 + 5_000_000_000 - 1;
        assert!(cache
            .lookup(
                Method::Get,
                "http://a/x",
                "",
                just_before,
                CacheLayers::BOTH
            )
            .is_some());
        assert!(cache
            .lookup(
                Method::Get,
                "http://a/x",
                "",
                just_before + 1,
                CacheLayers::BOTH
            )
            .is_none());
        assert_eq!(cache.expired(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn shards_stay_bounded_and_count_evictions() {
        let cache = ResponseCache::new(4, 4); // 1 entry per shard
        for i in 0..32 {
            let url = format!("http://a/{i}");
            cache.store(Method::Get, &url, "", cacheable("x", 60), 0, false);
        }
        assert!(cache.len() <= 4);
        assert_eq!(cache.evictions() + cache.len() as u64, 32);
        // Overwriting an existing URL does not evict.
        let survivor = (0..32)
            .map(|i| format!("http://a/{i}"))
            .find(|url| {
                cache
                    .lookup(Method::Get, url, "", 0, CacheLayers::BOTH)
                    .is_some()
            })
            .expect("some entry survives");
        let before = cache.evictions();
        cache.store(Method::Get, &survivor, "", cacheable("y", 60), 0, false);
        assert_eq!(cache.evictions(), before);
        assert_eq!(
            cache
                .lookup(Method::Get, &survivor, "", 0, CacheLayers::BOTH)
                .expect("overwritten entry")
                .response
                .body,
            "y"
        );
    }

    #[test]
    fn set_cookie_responses_are_refused_by_both_layers() {
        let cache = ResponseCache::new(8, 2);
        let mut tainted = cacheable("per-user", 60);
        tainted.headers.append("Set-Cookie", "token=alice");
        assert!(!cache.store(Method::Get, "http://a/t", "", tainted.clone(), 0, false));
        assert!(!cache.store(Method::Get, "http://a/t", "", tainted, 0, true));
        assert!(cache.is_empty());
        assert_eq!(cache.stored(), 0);
    }

    #[test]
    fn a_one_shot_store_never_downgrades_a_fresh_persistent_entry() {
        let cache = ResponseCache::new(8, 2);
        assert!(cache.store(
            Method::Get,
            "http://a/x",
            "",
            cacheable("keep", 60),
            0,
            false
        ));
        assert!(!cache.store(
            Method::Get,
            "http://a/x",
            "",
            Response::ok_text("spec"),
            0,
            true
        ));
        let hit = cache
            .lookup(Method::Get, "http://a/x", "", 0, CacheLayers::BOTH)
            .expect("hit");
        assert!(!hit.one_shot, "the persistent entry survives");
        assert_eq!(hit.response.body, "keep");
        // Once the persistent entry's lifetime has passed, speculation may
        // replace it.
        let after_expiry = 60_000_000_001;
        assert!(cache.store(
            Method::Get,
            "http://a/x",
            "",
            Response::ok_text("spec"),
            after_expiry,
            true
        ));
        let hit = cache
            .lookup(
                Method::Get,
                "http://a/x",
                "",
                after_expiry,
                CacheLayers::BOTH,
            )
            .expect("hit");
        assert!(hit.one_shot);
    }

    #[test]
    fn ttl_less_one_shot_entries_expire_at_the_default_bound() {
        let cache = ResponseCache::new(8, 2);
        cache.store(
            Method::Get,
            "http://a/p",
            "",
            Response::ok_text("pre"),
            0,
            true,
        );
        assert!(cache
            .lookup(
                Method::Get,
                "http://a/p",
                "",
                ONE_SHOT_DEFAULT_TTL_NS - 1,
                CacheLayers::BOTH
            )
            .is_some());
        cache.store(
            Method::Get,
            "http://a/p",
            "",
            Response::ok_text("pre"),
            0,
            true,
        );
        assert!(cache
            .lookup(
                Method::Get,
                "http://a/p",
                "",
                ONE_SHOT_DEFAULT_TTL_NS,
                CacheLayers::BOTH
            )
            .is_none());
        assert_eq!(cache.expired(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn lookups_serve_only_opted_in_layers_and_leave_the_rest_in_place() {
        let cache = ResponseCache::new(8, 2);
        cache.store(
            Method::Get,
            "http://a/p",
            "",
            Response::ok_text("pre"),
            0,
            true,
        );
        cache.store(
            Method::Get,
            "http://a/x",
            "",
            cacheable("per", 60),
            0,
            false,
        );
        // A persistent-only consumer must not consume the one-shot entry…
        assert!(cache
            .lookup(Method::Get, "http://a/p", "", 0, CacheLayers::PERSISTENT)
            .is_none());
        assert_eq!(cache.one_shot_len(), 1, "the one-shot entry stays");
        // …and a one-shot-only consumer must not serve the persistent one.
        assert!(cache
            .lookup(Method::Get, "http://a/x", "", 0, CacheLayers::ONE_SHOT)
            .is_none());
        assert_eq!(cache.len(), 2);
        // A foreign-layer miss is not a discard, even under a foreign header.
        assert!(cache
            .lookup(
                Method::Get,
                "http://a/p",
                "sid=other",
                0,
                CacheLayers::PERSISTENT
            )
            .is_none());
        assert_eq!(cache.stale_discards(), 0);
        // Each entry still serves its own layer.
        assert!(cache
            .lookup(Method::Get, "http://a/p", "", 0, CacheLayers::ONE_SHOT)
            .is_some());
        assert!(cache
            .lookup(Method::Get, "http://a/x", "", 0, CacheLayers::PERSISTENT)
            .is_some());
    }

    #[test]
    fn methods_key_separately() {
        let cache = ResponseCache::new(8, 2);
        cache.store(
            Method::Get,
            "http://a/x",
            "",
            cacheable("get", 60),
            0,
            false,
        );
        assert!(cache
            .lookup(Method::Head, "http://a/x", "", 0, CacheLayers::BOTH)
            .is_none());
        assert!(cache
            .lookup(Method::Get, "http://a/x", "", 0, CacheLayers::BOTH)
            .is_some());
    }
}
