//! The thread-safe, host-sharded cookie store for concurrent multi-session
//! deployments.
//!
//! [`CookieJar`](crate::CookieJar) is a single-threaded value owned by one browser.
//! A server-side deployment runs many sessions at once, and ESCUDO mediates every
//! cookie `use` through the reference monitor — so the jar those sessions share must
//! be safe to hit from many OS threads without turning into a global-lock convoy.
//!
//! [`SharedCookieJar`] keeps the jar's **scope/attach split** intact: the jar answers
//! *scope* questions (which cookies are candidates for this request), while whether a
//! candidate is actually **attached** is the `use` operation of the ESCUDO model,
//! decided by the attach filter the caller (the browser's reference monitor) passes
//! to [`SharedCookieJar::cookie_header_for`].
//!
//! Layout mirrors the sharded decision cache in `escudo-core`:
//!
//! * the store is split into [`SharedCookieJar::shard_count`] shards (a power of two,
//!   so shard selection is a mask over the host hash), each an independent `Mutex`'d
//!   map of host → cookie list — sessions working different hosts never contend;
//! * every shard keeps its own stored/replaced/evicted counters and an independent
//!   capacity bound with **least-recently-stored-first** batch eviction (lowest
//!   touch index goes first; an actively refreshed session cookie is never the
//!   first casualty), so one cookie-heavy tenant can only thrash its own stripe;
//! * candidate collection probes the request host and each of its parent-domain
//!   suffixes (a `Domain=example.com` cookie lives under the `example.com` key but
//!   must be found for a request to `www.example.com`), then sorts the survivors
//!   into RFC 6265 §5.4 attach order: longest path first, then earliest creation —
//!   byte-identical to what a single-threaded [`CookieJar`](crate::CookieJar) replay
//!   of the same operations would produce, as long as the shared jar stays below
//!   its capacity bound (the single-threaded jar is unbounded and never evicts).
//!
//! Store-time admissibility (the §5.3 step-6 `Domain` gate, single-label rejection,
//! default-path computation) is the exact same [`jar::accept`](crate::jar) path the
//! single-threaded jar uses, so the two stores can never disagree on what enters.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use crate::cookie::{Cookie, SetCookie};
use crate::url::Url;

/// Default number of jar shards (a power of two so shard selection is a mask).
pub const DEFAULT_JAR_SHARD_COUNT: usize = 16;

/// Default bound on resident cookies (divided across the shards).
pub const DEFAULT_JAR_CAPACITY: usize = 16 * 1024;

/// A cookie plus two jar-global indices:
///
/// * `created` orders attachment under RFC 6265 §5.4 — replacement keeps the
///   original value (§5.3 step 11.3 preserves creation-time);
/// * `touched` orders *eviction* — bumped on every store including replacements,
///   so capacity pressure removes the least-recently-stored cookie first (§5.3
///   step 12 prioritizes by access recency, not creation order) and an actively
///   refreshed session cookie is never the first casualty.
#[derive(Debug, Clone)]
struct StoredCookie {
    cookie: Cookie,
    created: u64,
    touched: u64,
}

/// The data behind one shard's mutex: host → cookies, plus the resident count so
/// the capacity check is O(1) instead of a whole-map sweep per store.
#[derive(Debug, Default)]
struct ShardState {
    hosts: HashMap<String, Vec<StoredCookie>>,
    resident: usize,
}

/// One lock stripe of the shared jar.
#[derive(Debug, Default)]
struct JarShard {
    state: Mutex<ShardState>,
    stored: AtomicU64,
    replaced: AtomicU64,
    evicted: AtomicU64,
    expired: AtomicU64,
}

/// Counters of one jar shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JarShardStats {
    /// New cookies inserted into this shard.
    pub stored: u64,
    /// Stores that replaced an existing (name, host, path) cookie in place.
    pub replaced: u64,
    /// Cookies evicted (least-recently-stored first) because the shard hit its
    /// capacity bound.
    pub evicted: u64,
    /// Cookies lazily dropped on probe because their expiry deadline had passed.
    pub expired: u64,
    /// Cookies resident in the shard when the snapshot was taken.
    pub resident: u64,
}

/// Aggregate statistics of a [`SharedCookieJar`], derived from one pass over the
/// per-shard counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JarStats {
    /// Total new cookies inserted.
    pub stored: u64,
    /// Total in-place replacements.
    pub replaced: u64,
    /// Total capacity evictions.
    pub evicted: u64,
    /// Total expiry drops.
    pub expired: u64,
    /// Total cookies resident across all shards.
    pub resident: u64,
    /// Per-shard breakdown.
    pub shards: Vec<JarShardStats>,
}

/// FNV-1a over the host bytes. The per-shard `HashMap` uses std's independently
/// keyed SipHash, so there is no bucket-index correlation to dodge here — but the
/// high bits are still the better-mixed half of an FNV hash, and using them keeps
/// the scheme consistent with the engine's shard selection.
fn host_hash(host: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in host.bytes() {
        hash ^= u64::from(byte.to_ascii_lowercase());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The thread-safe, host-sharded cookie store shared by concurrent sessions.
///
/// Taken by `&self` everywhere; hand sessions an `Arc<SharedCookieJar>` (that is
/// what [`Browser::with_jar`](../../escudo_browser/struct.Browser.html) threads
/// through browser- and script-initiated requests).
#[derive(Debug)]
pub struct SharedCookieJar {
    shards: Vec<JarShard>,
    /// Bound on resident cookies per shard; 0 means unbounded.
    shard_capacity: usize,
    /// Jar-global creation counter ordering cookies across hosts and shards.
    creation: AtomicU64,
}

impl Default for SharedCookieJar {
    fn default() -> Self {
        SharedCookieJar::new()
    }
}

impl SharedCookieJar {
    /// Creates a jar with the default shard count and capacity.
    #[must_use]
    pub fn new() -> Self {
        SharedCookieJar::with_shards(DEFAULT_JAR_SHARD_COUNT, DEFAULT_JAR_CAPACITY)
    }

    /// Creates a jar with an explicit shard count and total capacity.
    ///
    /// `shard_count` is rounded up to a power of two (and at least 1) so shard
    /// selection is a mask. `capacity` is divided across the shards rounding up
    /// (so the total bound can exceed `capacity` by up to `shard_count - 1`);
    /// a capacity of 0 disables the bound entirely.
    #[must_use]
    pub fn with_shards(shard_count: usize, capacity: usize) -> Self {
        let shard_count = shard_count.max(1).next_power_of_two();
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shard_count)
        };
        SharedCookieJar {
            shards: (0..shard_count).map(|_| JarShard::default()).collect(),
            shard_capacity,
            creation: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bound on resident cookies per shard (0 when unbounded).
    #[must_use]
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Picks the shard owning a cookie-host key (high hash bits, masked).
    fn shard_for(&self, host: &str) -> &JarShard {
        &self.shards[((host_hash(host) >> 32) as usize) & (self.shards.len() - 1)]
    }

    /// Stores (or replaces) a cookie delivered by a response from `url`, applying
    /// the exact same admissibility gate as [`CookieJar::store`](crate::CookieJar):
    /// a foreign or single-label `Domain` attribute is rejected (RFC 6265 §5.3
    /// step 6), and a missing/relative `Path` takes the setting URL's default-path
    /// (§5.1.4).
    ///
    /// Replacing an existing (name, host, path) cookie keeps its creation index
    /// (§5.3 step 11.3), so the §5.4 attach order is stable under session refresh —
    /// but refreshes its eviction ("touch") index. When the owning shard is at
    /// capacity, the least-recently-stored ~eighth of the shard is evicted in one
    /// batch, so actively refreshed cookies survive and the eviction scan amortizes
    /// to O(1) per store instead of running under the lock on every insert.
    pub fn store(&self, url: &Url, directive: &SetCookie) {
        let Some(cookie) = crate::jar::accept(url, directive) else {
            return;
        };
        let now = SystemTime::now();
        let shard = self.shard_for(&cookie.host);
        let mut state = shard.state.lock().expect("jar shard lock");
        purge_expired(shard, &mut state, &cookie.host, now);
        // RFC 6265 §5.2.2: an already-expired directive (`Max-Age=0`, negative
        // `Max-Age`, past `Expires`) deletes the matching (name, host, path)
        // cookie instead of storing anything.
        if cookie.expired(now) {
            if let Some(entries) = state.hosts.get_mut(&cookie.host) {
                let before = entries.len();
                entries.retain(|s| !(s.cookie.name == cookie.name && s.cookie.path == cookie.path));
                let removed = before - entries.len();
                if entries.is_empty() {
                    state.hosts.remove(&cookie.host);
                }
                state.resident -= removed;
            }
            return;
        }
        if let Some(entries) = state.hosts.get_mut(&cookie.host) {
            if let Some(existing) = entries
                .iter_mut()
                .find(|s| s.cookie.name == cookie.name && s.cookie.path == cookie.path)
            {
                existing.cookie = cookie;
                existing.touched = self.creation.fetch_add(1, Ordering::Relaxed);
                shard.replaced.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if self.shard_capacity > 0 && state.resident >= self.shard_capacity {
            let batch = (self.shard_capacity / 8).max(1);
            let evicted = evict_least_recently_stored(&mut state, batch);
            shard.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        let created = self.creation.fetch_add(1, Ordering::Relaxed);
        let host_key = cookie.host.clone();
        state.hosts.entry(host_key).or_default().push(StoredCookie {
            cookie,
            created,
            touched: created,
        });
        state.resident += 1;
        shard.stored.fetch_add(1, Ordering::Relaxed);
    }

    /// All cookies whose scope matches a request to `url`, regardless of policy, in
    /// RFC 6265 §5.4 attach order: longest path first, then earliest creation first.
    ///
    /// Returns owned clones: candidates cross the shard-lock boundary, and the
    /// caller (the reference monitor's batch mediation) needs the name/value/origin
    /// anyway. This is [`SharedCookieJar::host_candidates`] for the URL's scheme
    /// and host, filtered to the cookies whose path scope covers the URL's path.
    #[must_use]
    pub fn candidates_for(&self, url: &Url) -> Vec<Cookie> {
        let mut candidates = self.host_candidates(url.scheme(), url.host(), SystemTime::now());
        candidates.retain(|c| c.path_matches(url.path()));
        candidates
    }

    /// Every cookie in scope for a request over `scheme` to `host` at *some*
    /// path — host-only and `Domain` scope and `Secure` applied, path not yet —
    /// in RFC 6265 §5.4 attach order, with expiry judged at `now`.
    ///
    /// A request's own candidates are the subsequence whose
    /// [`Cookie::path_matches`] its path: filtering keeps the order, so a page
    /// plan walks the jar once per (scheme, host) and answers every URL on that
    /// host from the one result. The request host and each of its parent-domain
    /// suffixes are probed — one short-held shard lock per probe key, never all
    /// shards at once. Each probe lazily drops cookies whose expiry deadline has
    /// passed (the lock is already held, so expiry costs one `retain` pass over
    /// the probed host entry).
    #[must_use]
    pub fn host_candidates(&self, scheme: &str, host: &str, now: SystemTime) -> Vec<Cookie> {
        let host = host.to_ascii_lowercase();
        let mut matched: Vec<StoredCookie> = Vec::new();
        for key in probe_keys(&host) {
            let shard = self.shard_for(key);
            let mut state = shard.state.lock().expect("jar shard lock");
            if purge_expired(shard, &mut state, key, now) {
                let entries = &state.hosts[key];
                matched.extend(
                    entries
                        .iter()
                        .filter(|s| s.cookie.in_host_scope(scheme, &host))
                        .cloned(),
                );
            }
        }
        matched.sort_by(|a, b| {
            b.cookie
                .path
                .len()
                .cmp(&a.cookie.path.len())
                .then(a.created.cmp(&b.created))
        });
        matched.into_iter().map(|s| s.cookie).collect()
    }

    /// Builds the `Cookie` request-header value for a request to `url`, attaching
    /// only the candidates accepted by `attach_filter` — the hook through which the
    /// ESCUDO reference monitor enforces the `use` operation on each cookie.
    ///
    /// Returns `None` when no cookie survives the filter (no header should be sent).
    /// For any sequence of operations that stays below the capacity bound, the
    /// result is byte-identical to replaying the same sequence against a
    /// single-threaded [`CookieJar`](crate::CookieJar) — which is unbounded, so once
    /// capacity eviction fires the shared jar may (correctly) answer with fewer
    /// cookies than the replay.
    pub fn cookie_header_for<F>(&self, url: &Url, mut attach_filter: F) -> Option<String>
    where
        F: FnMut(&Cookie) -> bool,
    {
        let attached: Vec<String> = self
            .candidates_for(url)
            .iter()
            .filter(|c| attach_filter(c))
            .map(Cookie::to_cookie_pair)
            .collect();
        if attached.is_empty() {
            None
        } else {
            Some(attached.join("; "))
        }
    }

    /// Looks up a stored cookie by host and name. When the same name exists under
    /// several paths the winner is deterministic: longest path first, then earliest
    /// creation — the §5.4 ordering [`SharedCookieJar::cookie_header_for`] attaches
    /// in.
    #[must_use]
    pub fn get(&self, host: &str, name: &str) -> Option<Cookie> {
        let key = host.to_ascii_lowercase();
        let shard = self.shard_for(&key);
        let mut state = shard.state.lock().expect("jar shard lock");
        purge_expired(shard, &mut state, &key, SystemTime::now());
        state
            .hosts
            .get(&key)?
            .iter()
            .filter(|s| s.cookie.name == name)
            .min_by_key(|s| (std::cmp::Reverse(s.cookie.path.len()), s.created))
            .map(|s| s.cookie.clone())
    }

    /// Looks up a stored cookie by host, name and exact path scope.
    #[must_use]
    pub fn get_with_path(&self, host: &str, name: &str, path: &str) -> Option<Cookie> {
        let key = host.to_ascii_lowercase();
        let shard = self.shard_for(&key);
        let mut state = shard.state.lock().expect("jar shard lock");
        purge_expired(shard, &mut state, &key, SystemTime::now());
        state
            .hosts
            .get(&key)?
            .iter()
            .find(|s| s.cookie.name == name && s.cookie.path == path)
            .map(|s| s.cookie.clone())
    }

    /// Removes the single (host, name) cookie that wins the §5.4 ordering — longest
    /// path first, then earliest creation. Returns `true` if one was removed.
    pub fn remove(&self, host: &str, name: &str) -> bool {
        let key = host.to_ascii_lowercase();
        let shard = self.shard_for(&key);
        let mut state = shard.state.lock().expect("jar shard lock");
        // Expired cookies are purged first so the §5.4 victim selection can
        // never pick an expired ghost over the live cookie `get` would return.
        purge_expired(shard, &mut state, &key, SystemTime::now());
        let Some(entries) = state.hosts.get_mut(&key) else {
            return false;
        };
        let victim = entries
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cookie.name == name)
            .min_by_key(|(_, s)| (std::cmp::Reverse(s.cookie.path.len()), s.created))
            .map(|(index, _)| index);
        match victim {
            Some(index) => {
                entries.remove(index);
                if entries.is_empty() {
                    state.hosts.remove(&key);
                }
                state.resident -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes the cookie with exactly this (host, name, path) scope. Returns `true`
    /// if one was removed.
    pub fn remove_with_path(&self, host: &str, name: &str, path: &str) -> bool {
        let key = host.to_ascii_lowercase();
        let shard = self.shard_for(&key);
        let mut state = shard.state.lock().expect("jar shard lock");
        purge_expired(shard, &mut state, &key, SystemTime::now());
        let Some(entries) = state.hosts.get_mut(&key) else {
            return false;
        };
        let before = entries.len();
        entries.retain(|s| !(s.cookie.name == name && s.cookie.path == path));
        let removed = before - entries.len();
        if entries.is_empty() {
            state.hosts.remove(&key);
        }
        state.resident -= removed;
        removed > 0
    }

    /// The number of stored cookies (sums the per-shard resident counts; each shard
    /// lock is held only long enough to read one integer).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.state.lock().expect("jar shard lock").resident)
            .sum()
    }

    /// `true` when no cookies are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every stored cookie in creation order. (The shared jar cannot
    /// hand out references across its shard locks the way
    /// [`CookieJar::iter`](crate::CookieJar::iter) does, so inspection works on a
    /// point-in-time copy.)
    #[must_use]
    pub fn snapshot(&self) -> Vec<Cookie> {
        let mut all: Vec<StoredCookie> = Vec::new();
        for shard in &self.shards {
            let state = shard.state.lock().expect("jar shard lock");
            all.extend(state.hosts.values().flatten().cloned());
        }
        all.sort_by_key(|s| s.created);
        all.into_iter().map(|s| s.cookie).collect()
    }

    /// Aggregate statistics from one pass over the per-shard counters.
    #[must_use]
    pub fn stats(&self) -> JarStats {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut total = JarStats::default();
        for shard in &self.shards {
            let snapshot = JarShardStats {
                stored: shard.stored.load(Ordering::Relaxed),
                replaced: shard.replaced.load(Ordering::Relaxed),
                evicted: shard.evicted.load(Ordering::Relaxed),
                expired: shard.expired.load(Ordering::Relaxed),
                resident: shard.state.lock().expect("jar shard lock").resident as u64,
            };
            total.stored += snapshot.stored;
            total.replaced += snapshot.replaced;
            total.evicted += snapshot.evicted;
            total.expired += snapshot.expired;
            total.resident += snapshot.resident;
            shards.push(snapshot);
        }
        total.shards = shards;
        total
    }
}

impl fmt::Display for SharedCookieJar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shared cookie jar with {} cookies over {} shards",
            self.len(),
            self.shards.len()
        )
    }
}

/// Drops every expired cookie under `key` while the shard lock is held: one
/// `retain` pass over the probed host entry, resident count and the shard's
/// `expired` counter updated to match. Returns `true` when live cookies remain
/// under `key`. This is the "lazy expiry" half of the cookie-lifetime model —
/// nothing sweeps the jar in the background; deadlines are enforced at the
/// next probe of the host that holds them.
fn purge_expired(shard: &JarShard, state: &mut ShardState, key: &str, now: SystemTime) -> bool {
    let Some(entries) = state.hosts.get_mut(key) else {
        return false;
    };
    let before = entries.len();
    entries.retain(|s| !s.cookie.expired(now));
    let removed = before - entries.len();
    if removed == 0 {
        return true;
    }
    let live = !entries.is_empty();
    if !live {
        state.hosts.remove(key);
    }
    state.resident -= removed;
    shard.expired.fetch_add(removed as u64, Ordering::Relaxed);
    live
}

/// Evicts the `count` least-recently-stored cookies (lowest touch index) from the
/// shard in one pass, returning how many were removed. Touch indices are unique
/// (one global counter value per store), so selecting the `count`-th smallest gives
/// an exact threshold: everything at or below it is evicted, nothing else.
///
/// Batching matters: evicting one cookie per insert would rescan the whole shard
/// under its mutex on *every* store once the shard fills (a store-path convoy);
/// evicting a batch amortizes one scan over `count` subsequent inserts.
fn evict_least_recently_stored(state: &mut ShardState, count: usize) -> usize {
    let mut touches: Vec<u64> = state.hosts.values().flatten().map(|s| s.touched).collect();
    if touches.is_empty() {
        return 0;
    }
    let count = count.min(touches.len());
    let (_, threshold, _) = touches.select_nth_unstable(count - 1);
    let threshold = *threshold;
    state.hosts.retain(|_, entries| {
        entries.retain(|s| s.touched > threshold);
        !entries.is_empty()
    });
    state.resident -= count;
    count
}

/// The host keys a request to `host` (already lower-cased) must probe: the
/// host itself plus every parent-domain suffix (a `Domain=example.com` cookie
/// is stored under `example.com` but matches requests to `www.example.com`),
/// as slices of `host`. Scope checking proper still happens per cookie via
/// [`Cookie::in_host_scope`]; the keys only bound which map entries can
/// possibly hold matches.
fn probe_keys(host: &str) -> impl Iterator<Item = &str> {
    let suffixes = host
        .match_indices('.')
        .map(|(dot, _)| &host[dot + 1..])
        .filter(|rest| !rest.is_empty());
    std::iter::once(host).chain(suffixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CookieJar;
    use std::time::Duration;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn store_scope_and_header_match_the_single_threaded_jar() {
        let shared = SharedCookieJar::new();
        let mut plain = CookieJar::new();
        let ops = [
            ("http://forum.example/login.php", "sid=s1; HttpOnly"),
            ("http://forum.example/login.php", "data=d1"),
            ("http://forum.example/forum/admin/tool.php", "admin=a1"),
            ("http://www.example.com/", "wide=w1; Domain=example.com"),
            ("http://other.example/", "sid=o1"),
            ("http://forum.example/login.php", "sid=s2; HttpOnly"),
        ];
        for (setting, header) in ops {
            let directive = SetCookie::parse(header).unwrap();
            shared.store(&url(setting), &directive);
            plain.store(&url(setting), &directive);
        }
        assert_eq!(shared.len(), plain.len());
        for request in [
            "http://forum.example/viewtopic.php",
            "http://forum.example/forum/admin/index.php",
            "http://www.example.com/",
            "http://shop.example.com/cart",
            "http://other.example/x",
            "http://unrelated.example/",
        ] {
            assert_eq!(
                shared.cookie_header_for(&url(request), |_| true),
                plain.cookie_header_for(&url(request), |_| true),
                "for request {request:?}"
            );
        }
    }

    #[test]
    fn domain_cookies_are_found_across_shards_via_suffix_probing() {
        let jar = SharedCookieJar::with_shards(8, 0);
        jar.store(
            &url("http://www.example.com/"),
            &SetCookie::parse("wide=1; Domain=example.com").unwrap(),
        );
        jar.store(&url("http://www.example.com/"), &SetCookie::new("own", "2"));
        // The domain cookie lives under the `example.com` key (possibly a different
        // shard than `www.example.com`) but matches the subdomain request.
        let header = jar
            .cookie_header_for(&url("http://www.example.com/"), |_| true)
            .unwrap();
        assert!(header.contains("wide=1"));
        assert!(header.contains("own=2"));
        // The host-only cookie must not leak to a sibling subdomain.
        assert_eq!(
            jar.cookie_header_for(&url("http://shop.example.com/"), |_| true)
                .as_deref(),
            Some("wide=1")
        );
    }

    #[test]
    fn attach_filter_enforces_the_use_decision() {
        let jar = SharedCookieJar::new();
        jar.store(&url("http://forum.example/"), &SetCookie::new("sid", "s1"));
        jar.store(
            &url("http://forum.example/"),
            &SetCookie::new("tracking", "t1"),
        );
        let header = jar
            .cookie_header_for(&url("http://forum.example/post"), |c| c.name == "tracking")
            .unwrap();
        assert_eq!(header, "tracking=t1");
        assert!(jar
            .cookie_header_for(&url("http://forum.example/post"), |_| false)
            .is_none());
    }

    #[test]
    fn foreign_domain_attribute_is_rejected_like_the_plain_jar() {
        let jar = SharedCookieJar::new();
        jar.store(
            &url("http://attacker.example/"),
            &SetCookie {
                domain: Some("forum.example".into()),
                ..SetCookie::new("sid", "evil")
            },
        );
        assert!(jar.is_empty(), "foreign-domain cookie must be ignored");
        jar.store(
            &url("http://attacker.example/"),
            &SetCookie {
                domain: Some("example".into()),
                ..SetCookie::new("sid", "evil")
            },
        );
        assert!(jar.is_empty(), "single-label domain must be ignored");
    }

    #[test]
    fn get_and_remove_are_path_deterministic() {
        let jar = SharedCookieJar::new();
        jar.store(
            &url("http://x.example/"),
            &SetCookie::new("sid", "root").with_path("/"),
        );
        jar.store(
            &url("http://x.example/"),
            &SetCookie::new("sid", "forum").with_path("/forum"),
        );
        assert_eq!(jar.get("x.example", "sid").unwrap().value, "forum");
        assert_eq!(
            jar.get_with_path("x.example", "sid", "/").unwrap().value,
            "root"
        );
        assert!(jar.remove("x.example", "sid"));
        assert_eq!(jar.get("x.example", "sid").unwrap().value, "root");
        assert!(jar.remove_with_path("x.example", "sid", "/"));
        assert!(jar.is_empty());
    }

    #[test]
    fn replacement_keeps_creation_order_and_counts() {
        let jar = SharedCookieJar::new();
        jar.store(&url("http://x.example/"), &SetCookie::new("a", "1"));
        jar.store(&url("http://x.example/"), &SetCookie::new("b", "2"));
        jar.store(&url("http://x.example/"), &SetCookie::new("a", "9"));
        assert_eq!(jar.len(), 2);
        let header = jar
            .cookie_header_for(&url("http://x.example/"), |_| true)
            .unwrap();
        // `a` keeps its original creation position despite being replaced last.
        assert_eq!(header, "a=9; b=2");
        let stats = jar.stats();
        assert_eq!(stats.stored, 2);
        assert_eq!(stats.replaced, 1);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.resident, 2);
    }

    #[test]
    fn shard_capacity_evicts_least_recently_stored_first() {
        // One shard, three slots (batch size 3/8 → 1): the fourth insert evicts one.
        let jar = SharedCookieJar::with_shards(1, 3);
        assert_eq!(jar.shard_count(), 1);
        assert_eq!(jar.shard_capacity(), 3);
        jar.store(&url("http://a.example/"), &SetCookie::new("oldest", "1"));
        jar.store(&url("http://b.example/"), &SetCookie::new("mid", "2"));
        jar.store(&url("http://c.example/"), &SetCookie::new("new", "3"));
        jar.store(&url("http://d.example/"), &SetCookie::new("newest", "4"));
        assert_eq!(jar.len(), 3);
        assert!(jar.get("a.example", "oldest").is_none(), "oldest evicted");
        assert!(jar.get("b.example", "mid").is_some());
        assert!(jar.get("d.example", "newest").is_some());
        let stats = jar.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.resident, 3);
        // Replacement never evicts: it does not grow the shard.
        jar.store(&url("http://d.example/"), &SetCookie::new("newest", "5"));
        assert_eq!(jar.stats().evicted, 1);
    }

    #[test]
    fn refreshing_a_cookie_protects_it_from_eviction() {
        // §5.3 step 12 evicts by store recency, not creation order: a session
        // cookie refreshed on every response must outlive stale cookies stored
        // after it.
        let jar = SharedCookieJar::with_shards(1, 3);
        jar.store(&url("http://a.example/"), &SetCookie::new("sid", "live1"));
        jar.store(&url("http://b.example/"), &SetCookie::new("stale", "1"));
        jar.store(&url("http://c.example/"), &SetCookie::new("other", "1"));
        // The server refreshes the session cookie (in-place replacement bumps the
        // touch index but keeps the creation index, so §5.4 order is unchanged).
        jar.store(&url("http://a.example/"), &SetCookie::new("sid", "live2"));
        // Capacity pressure now evicts `stale` — the least recently *stored* —
        // not the oldest-created but actively refreshed `sid`.
        jar.store(&url("http://d.example/"), &SetCookie::new("fresh", "1"));
        assert_eq!(jar.get("a.example", "sid").unwrap().value, "live2");
        assert!(jar.get("b.example", "stale").is_none(), "stale evicted");
        assert!(jar.get("d.example", "fresh").is_some());
        assert_eq!(jar.stats().evicted, 1);
    }

    #[test]
    fn large_shards_evict_in_batches() {
        // Capacity 64 in one shard → batch size 8: the insert that hits the bound
        // evicts the 8 least-recently-stored cookies in one pass, then the next 7
        // inserts proceed without scanning.
        let jar = SharedCookieJar::with_shards(1, 64);
        for i in 0..64 {
            jar.store(
                &url(&format!("http://h{i}.example/")),
                &SetCookie::new("c", "1"),
            );
        }
        assert_eq!(jar.len(), 64);
        jar.store(&url("http://trigger.example/"), &SetCookie::new("c", "1"));
        let stats = jar.stats();
        assert_eq!(stats.evicted, 8);
        assert_eq!(stats.resident, 64 - 8 + 1);
        // The eight earliest-stored hosts are gone; later ones survive.
        for i in 0..8 {
            assert!(jar.get(&format!("h{i}.example"), "c").is_none(), "h{i}");
        }
        for i in 8..64 {
            assert!(jar.get(&format!("h{i}.example"), "c").is_some(), "h{i}");
        }
    }

    #[test]
    fn expired_cookies_are_lazily_dropped_on_probe() {
        let jar = SharedCookieJar::new();
        jar.store(&url("http://a.example/"), &SetCookie::new("live", "1"));
        jar.store(
            &url("http://a.example/"),
            &SetCookie::new("stale", "1").with_max_age(3600),
        );
        assert_eq!(jar.len(), 2);
        // Backdate the stale cookie's deadline (store-time `now` is opaque):
        // replace it with a directive that is pre-expired. Per §5.2.2 this is a
        // deletion — so instead exercise the probe path with a genuinely expired
        // resident cookie by re-storing with a 0-second lifetime backdated via
        // Expires in the past.
        let mut pre_expired = SetCookie::new("stale", "2");
        pre_expired.expires = Some(std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1));
        jar.store(&url("http://a.example/"), &pre_expired);
        // The expired-at-store directive deleted the resident cookie.
        assert_eq!(jar.len(), 1);
        assert!(jar.get("a.example", "stale").is_none());
        assert_eq!(
            jar.cookie_header_for(&url("http://a.example/"), |_| true)
                .as_deref(),
            Some("live=1")
        );

        // Max-Age=0 deletion on the remaining cookie.
        jar.store(
            &url("http://a.example/"),
            &SetCookie::new("live", "").with_max_age(0),
        );
        assert!(jar.is_empty());
        assert!(jar
            .cookie_header_for(&url("http://a.example/"), |_| true)
            .is_none());
    }

    #[test]
    fn probe_purges_cookies_that_expire_while_resident() {
        let jar = SharedCookieJar::with_shards(1, 0);
        jar.store(&url("http://a.example/"), &SetCookie::new("keep", "1"));
        jar.store(
            &url("http://a.example/"),
            &SetCookie::new("brief", "1").with_max_age(3600),
        );
        // Backdate the resident cookie's deadline through the shard directly.
        {
            let mut state = jar.shards[0].state.lock().unwrap();
            state
                .hosts
                .get_mut("a.example")
                .unwrap()
                .iter_mut()
                .find(|s| s.cookie.name == "brief")
                .unwrap()
                .cookie
                .expires_at = Some(std::time::SystemTime::UNIX_EPOCH);
        }
        // The next probe physically removes it and counts the drop.
        assert_eq!(
            jar.cookie_header_for(&url("http://a.example/"), |_| true)
                .as_deref(),
            Some("keep=1")
        );
        assert_eq!(jar.len(), 1);
        let stats = jar.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(SharedCookieJar::with_shards(0, 0).shard_count(), 1);
        assert_eq!(SharedCookieJar::with_shards(3, 0).shard_count(), 4);
        assert_eq!(SharedCookieJar::with_shards(16, 0).shard_count(), 16);
    }

    #[test]
    fn snapshot_returns_creation_order() {
        let jar = SharedCookieJar::new();
        jar.store(&url("http://a.example/"), &SetCookie::new("first", "1"));
        jar.store(&url("http://b.example/"), &SetCookie::new("second", "2"));
        jar.store(&url("http://c.example/"), &SetCookie::new("third", "3"));
        let names: Vec<String> = jar.snapshot().into_iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
        assert_eq!(
            jar.to_string(),
            "shared cookie jar with 3 cookies over 16 shards"
        );
    }

    #[test]
    fn host_candidates_filtered_by_path_equal_candidates_for_on_a_seeded_grid() {
        // A seeded jar of host-only, `Domain`, path-scoped and `Secure`
        // cookies over a three-level host tree.
        let hosts = [
            "example.com",
            "www.example.com",
            "a.www.example.com",
            "other.org",
        ];
        let paths = ["/", "/a", "/a/b", "/ab", "/a/b/c.png"];
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let jar = SharedCookieJar::new();
        for i in 0..48 {
            let host = hosts[next(hosts.len())];
            let scheme = if next(2) == 0 { "http" } else { "https" };
            let mut directive = SetCookie::new(format!("c{}", next(12)), i.to_string())
                .with_path(paths[next(paths.len() - 1)]);
            directive.secure = next(3) == 0;
            if next(2) == 0 {
                // Every parent suffix of the setting host is a legal `Domain`.
                let suffix = host.find('.').map_or(host, |dot| &host[dot + 1..]);
                directive.domain = Some(if suffix.contains('.') { suffix } else { host }.into());
            }
            jar.store(&url(&format!("{scheme}://{host}/a/")), &directive);
        }
        assert!(jar.len() > 16, "the grid must hold a real mix of cookies");

        // The oracle: the whole jar in creation order, scoped per cookie,
        // then stably sorted longest path first.
        let everything = jar.snapshot();
        let now = SystemTime::now();
        for scheme in ["http", "https"] {
            for host in hosts {
                let walk = jar.host_candidates(scheme, host, now);
                for path in paths {
                    let request = url(&format!("{scheme}://{host}{path}"));
                    let mut oracle: Vec<Cookie> = everything
                        .iter()
                        .filter(|c| c.in_scope(scheme, host, path))
                        .cloned()
                        .collect();
                    oracle.sort_by_key(|c| std::cmp::Reverse(c.path.len()));
                    let filtered: Vec<Cookie> = walk
                        .iter()
                        .filter(|c| c.path_matches(path))
                        .cloned()
                        .collect();
                    assert_eq!(filtered, jar.candidates_for(&request), "{request}");
                    assert_eq!(filtered, oracle, "{request}");
                }
            }
        }
    }

    #[test]
    fn probe_keys_cover_every_parent_suffix() {
        fn keys(host: &str) -> Vec<&str> {
            probe_keys(host).collect()
        }
        assert_eq!(
            keys("a.b.example.com"),
            vec!["a.b.example.com", "b.example.com", "example.com", "com"]
        );
        assert_eq!(keys("localhost"), vec!["localhost"]);
        assert_eq!(keys("x."), vec!["x."]);
    }
}
