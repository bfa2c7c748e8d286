//! The thread-safe, `Arc`-shareable network fabric for concurrent sessions and
//! pipelined loaders.
//!
//! A registry of servers keyed by origin plus a request log: the log records
//! every request together with the names of the cookies the browser attached,
//! and the defense-effectiveness experiments (§6.4) read it to determine
//! whether a forged cross-site request carried the victim's session cookie.
//! Every fetch reaches the fabric as a [`FetchPlan`](crate::fetch::FetchPlan)
//! run by [`SharedNetwork::execute`]. The fabric is built so that concurrent
//! sessions do not contend on it:
//!
//! * **Per-origin handlers.** Each registered [`Server`] sits behind its own
//!   `Mutex`, held only for the duration of one `handle` call — requests to
//!   *distinct* origins never contend, and requests to the same origin serialize
//!   exactly as a single-threaded server would. The origin→handler map itself is a
//!   read-mostly `RwLock` (writes only at registration time).
//! * **Lock-striped, sequence-ordered request log.** Every dispatch carries a
//!   sequence number from one atomic counter; the log entry lands in the stripe
//!   selected by the sequence's low bits (round-robin, so concurrent fetches hit
//!   different stripes). Reading the log gathers the stripes and sorts by sequence,
//!   reconstructing one global order. Callers that need *deterministic* order —
//!   every fetch plan — reserve a contiguous block of sequence numbers up
//!   front ([`SharedNetwork::reserve_sequences`]) and log each pre-planned
//!   request under its pre-assigned number: the sorted log then shows plan
//!   order regardless of completion order.
//! * **Bounded log, one ring per stripe.** Like the reference monitor's audit
//!   ring, the log keeps at most [`SharedNetwork::log_capacity`] entries. A
//!   full stripe overwrites its oldest entry (the one recorded first in that
//!   stripe) in place and counts the drop, so recording stays O(1) and
//!   allocation-free at any bound and long multi-session runs stop growing
//!   memory.
//! * **Simulated per-origin latency, waited on a deadline.** A dispatch is
//!   split into *send* and *complete*. [`SharedNetwork::set_latency`] attaches
//!   a synthetic service time to an origin; sending a request decides its
//!   fault verdict and breaker admission and stamps it with a due time (now +
//!   latency + any injected slowdown), and completing it sleeps only while
//!   that due time is still ahead, then calls the handler. Waiting on a fetch
//!   therefore costs no thread: the deadline window ([`crate::window`], run
//!   by [`SharedNetwork::execute`]) keeps several requests in flight on the
//!   calling thread and completes them in due order, so the pipelining
//!   win of overlapping slow fetches is measurable in-process, without
//!   sockets.
//! * **Deadline-exact waits.** Every latency wait goes through one helper
//!   that never wakes before the due time and, where the thread's kernel
//!   timer slack could be lowered, wakes within microseconds of it: on its
//!   first wait a thread lowers its own slack from the Linux default of
//!   50µs to 1ns, once. An origin therefore costs its configured latency,
//!   not latency plus the kernel's timer coalescing. Where the slack cannot
//!   be changed (no procfs, a read-only `/proc`, another OS) the OS default
//!   stays. [`FabricCounters::latency_waits`] and
//!   [`FabricCounters::wait_overshoot_ns`] count the waits and how late they
//!   woke.
//! * **No threads of its own.** Every page plan is a deadline window on its
//!   navigating thread. Background prefetch, the one fetch that must overlap
//!   the navigating thread, runs on its session's own thread
//!   ([`crate::prefetch`]); the fabric only counts its requests
//!   ([`FabricCounters::pool_jobs_executed`]).
//! * **Mediation-keyed response cache.** The fabric owns one shared
//!   [`ResponseCache`]: sharded, capacity-bounded, holding `Arc<Response>`
//!   entries keyed by URL (`"{method} {url}"` for a method other than `GET`)
//!   and validated against the **mediated cookie header** the consuming
//!   request just computed for itself. The mediation plan is the
//!   key, so a stale plan (cookies or policy changed since the entry was
//!   stored) discards the entry and the request fetches live — a hit can
//!   never change a security decision, only skip a wire round trip whose
//!   request bytes it already proved identical. Speculative prefetch is the
//!   cache's *one-shot* layer: entries parked by background speculation are
//!   consumed at most once, exactly as the old bespoke prefetch cache did.
//! * **One counter reader.** Every counter the fabric keeps (log drops,
//!   chaos, cache, prefetch, waits, window deferrals) is read through
//!   [`FabricCounters::gather`]; [`FabricCounters::fields`] exports them
//!   under stable keys.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use escudo_core::{Clock, MonotonicClock, Origin};

use crate::error::NetError;
use crate::fault::{FaultDecision, FaultOutcome, FetchPolicy};
use crate::message::{Method, Request, Response};
use crate::network::{LoggedRequest, Server};
use crate::response_cache::{
    CacheHit, CacheLayers, ResponseCache, RESPONSE_CACHE_CAPACITY, RESPONSE_CACHE_SHARDS,
};

/// Default number of log stripes (a power of two so stripe selection is a mask).
pub const DEFAULT_LOG_STRIPE_COUNT: usize = 8;

/// Default bound on retained log entries (divided across the stripes).
pub const DEFAULT_LOG_CAPACITY: usize = 64 * 1024;

thread_local! {
    /// Whether this thread has already tried to lower its timer slack.
    static SLACK_LOWERED: Cell<bool> = const { Cell::new(false) };
}

/// Lowers the calling thread's kernel timer slack to 1ns, once per thread:
/// reads the thread id from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`) and writes `1` to `/proc/<tid>/timerslack_ns`, the
/// per-task file a thread may always write for itself. Any failure keeps the
/// OS default.
fn lower_timer_slack_once() {
    if SLACK_LOWERED.with(|lowered| lowered.replace(true)) {
        return;
    }
    if let Ok(link) = std::fs::read_link("/proc/thread-self") {
        if let Some(tid) = link.file_name() {
            let path = std::path::Path::new("/proc")
                .join(tid)
                .join("timerslack_ns");
            let _ = std::fs::write(path, "1");
        }
    }
}

/// Sleeps until `due` and returns the instant it woke, never earlier than
/// `due`. The fabric's one latency wait: the first wait on a thread lowers
/// that thread's timer slack ([`lower_timer_slack_once`]), so the sleep ends
/// within microseconds of `due` instead of up to 50µs after it.
fn wait_until(due: Instant) -> Instant {
    lower_timer_slack_once();
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::thread::sleep(due - now);
    }
}

/// One registered origin: the handler behind its own short-held mutex, the
/// synthetic service latency dispatches to this origin pay, and an EWMA of the
/// time the handler call itself takes.
/// Handlers live behind an `Arc` so a dispatch can clone its handle out of the
/// origin map and **drop the map's read guard before sleeping or calling the
/// handler** — a concurrent `register` write therefore only ever waits for the
/// map lookup itself, never for a slow handler, and (on writer-preferring
/// rwlocks) cannot convoy dispatches to unrelated origins behind that writer.
struct OriginHandler {
    server: Mutex<Box<dyn Server + Send>>,
    /// Configured simulated latency in nanoseconds (atomic so `set_latency` can
    /// update it through the map's *read* guard).
    latency_ns: AtomicU64,
    /// EWMA of the handler call's duration in nanoseconds (0 = no samples
    /// yet); relaxed updates — an estimate, not an accounting invariant.
    handler_ns: AtomicU64,
}

impl OriginHandler {
    fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns.load(Ordering::Relaxed))
    }
}

/// A request that has been sent and not yet completed: its breaker admission
/// and fault verdict are decided, and its response may be taken no earlier
/// than `due` (see [`SharedNetwork::send`] and [`SharedNetwork::complete`]).
pub(crate) struct InFlight {
    handler: Arc<OriginHandler>,
    pub(crate) origin: Origin,
    /// Kept whole so a retry can re-send it verbatim.
    pub(crate) request: Request,
    fault: FaultDecision,
    sent: Instant,
    pub(crate) due: Instant,
}

/// A log entry tagged with its global sequence number. Entries within a stripe are
/// kept in the order they were recorded, *not* sorted (a pre-reserved sequence may
/// be recorded late); readers sort globally when they gather the stripes.
#[derive(Debug, Clone)]
struct SequencedEntry {
    sequence: u64,
    entry: LoggedRequest,
}

impl SequencedEntry {
    fn new(sequence: u64, request: &Request, status: u16) -> Self {
        SequencedEntry {
            sequence,
            entry: LoggedRequest {
                method: request.method,
                url: request.url.clone(),
                cookie_names: request
                    .cookie_pairs()
                    .map(|(name, _)| name.to_string())
                    .collect(),
                status,
            },
        }
    }

    /// Rewrites this entry to log `request`, reusing its URL and cookie-name
    /// buffers: no allocation unless a string outgrows the one it replaces.
    fn overwrite(&mut self, sequence: u64, request: &Request, status: u16) {
        self.sequence = sequence;
        let entry = &mut self.entry;
        entry.method = request.method;
        entry.url.clone_from(&request.url);
        entry.status = status;
        let mut count = 0;
        for (name, _) in request.cookie_pairs() {
            match entry.cookie_names.get_mut(count) {
                Some(slot) => {
                    slot.clear();
                    slot.push_str(name);
                }
                None => entry.cookie_names.push(name.to_string()),
            }
            count += 1;
        }
        entry.cookie_names.truncate(count);
    }
}

/// The `Arc`-shareable network fabric: per-origin mutexed handlers, a lock-striped
/// sequence-ordered request log, and per-origin simulated latency.
///
/// Taken by `&self` everywhere; hand sessions an `Arc<SharedNetwork>` (that is what
/// `Browser::with_network` threads through browser- and script-initiated requests).
pub struct SharedNetwork {
    servers: RwLock<HashMap<Origin, Arc<OriginHandler>>>,
    stripes: Vec<Mutex<VecDeque<SequencedEntry>>>,
    /// Bound on retained entries per stripe; 0 means unbounded.
    stripe_capacity: usize,
    dropped: AtomicU64,
    sequence: AtomicU64,
    /// The shared mediation-keyed response cache (persistent `max-age` layer
    /// plus the one-shot speculative-prefetch layer).
    pub(crate) cache: ResponseCache,
    /// Installed per-origin fault plans (independent of server registration —
    /// a plan may precede the origin it targets). See [`crate::fault`].
    pub(crate) faults: RwLock<HashMap<Origin, Arc<crate::fault::FaultState>>>,
    /// Lazily-created per-origin circuit breakers (only policies with a
    /// breaker threshold ever populate this).
    pub(crate) breakers: RwLock<HashMap<Origin, Arc<crate::fault::Breaker>>>,
    /// The injectable clock that meters retry backoff, batch deadlines and
    /// breaker cooldowns; a `ManualClock` makes all three exactly countable.
    pub(crate) clock: RwLock<Arc<dyn Clock>>,
    /// Monotonic chaos observability counters (faults, retries, breakers).
    chaos: crate::fault::ChaosCounters,
    /// Latency waits that actually slept (the due time was still ahead).
    latency_waits: AtomicU64,
    /// Sum over those waits of how late each woke past its due time.
    wait_overshoot_ns: AtomicU64,
    /// Window entries whose send waited, directly or behind the plan's head,
    /// on an origin at [`crate::window::MAX_IN_FLIGHT_PER_ORIGIN`].
    pub(crate) window_origin_deferrals: AtomicU64,
    /// Speculative requests completed on prefetch threads.
    pub(crate) background_requests: AtomicU64,
}

impl Default for SharedNetwork {
    fn default() -> Self {
        SharedNetwork::new()
    }
}

impl SharedNetwork {
    /// Creates an empty fabric with the default log bound.
    #[must_use]
    pub fn new() -> Self {
        SharedNetwork::with_log_capacity(DEFAULT_LOG_CAPACITY)
    }

    /// Creates an empty fabric whose request log retains at most `capacity`
    /// entries (0 disables the bound). The capacity is divided across
    /// [`DEFAULT_LOG_STRIPE_COUNT`] stripes rounding up, so the total bound can
    /// exceed `capacity` by up to `stripes - 1`.
    #[must_use]
    pub fn with_log_capacity(capacity: usize) -> Self {
        SharedNetwork::with_log_config(DEFAULT_LOG_STRIPE_COUNT, capacity)
    }

    /// Creates an empty fabric with an explicit stripe count (rounded up to a
    /// power of two, at least 1) and total log capacity (0 = unbounded).
    #[must_use]
    pub fn with_log_config(stripes: usize, capacity: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let stripe_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(stripes)
        };
        SharedNetwork {
            servers: RwLock::new(HashMap::new()),
            stripes: (0..stripes).map(|_| Mutex::new(VecDeque::new())).collect(),
            stripe_capacity,
            dropped: AtomicU64::new(0),
            sequence: AtomicU64::new(0),
            cache: ResponseCache::new(RESPONSE_CACHE_CAPACITY, RESPONSE_CACHE_SHARDS),
            faults: RwLock::new(HashMap::new()),
            breakers: RwLock::new(HashMap::new()),
            clock: RwLock::new(Arc::new(MonotonicClock::new())),
            chaos: crate::fault::ChaosCounters::default(),
            latency_waits: AtomicU64::new(0),
            wait_overshoot_ns: AtomicU64::new(0),
            window_origin_deferrals: AtomicU64::new(0),
            background_requests: AtomicU64::new(0),
        }
    }

    /// The fabric's chaos counters (crate-internal; read through
    /// [`FabricCounters::gather`]).
    pub(crate) fn chaos(&self) -> &crate::fault::ChaosCounters {
        &self.chaos
    }

    /// Registers a server for an origin given as a URL string (the path is
    /// ignored). Re-registering an origin replaces the handler but keeps any
    /// configured latency.
    ///
    /// # Panics
    ///
    /// Panics if `origin_url` cannot be parsed — registration happens at setup
    /// time with literal URLs, so a parse failure is a programming error.
    pub fn register<S: Server + Send + 'static>(&self, origin_url: &str, server: S) {
        let origin = Origin::parse_url(origin_url)
            .expect("network registration requires a valid origin URL");
        self.register_origin(origin, server);
    }

    /// Registers a server for an already-parsed origin.
    pub fn register_origin<S: Server + Send + 'static>(&self, origin: Origin, server: S) {
        let mut servers = self.servers.write().expect("network server map lock");
        let (latency_ns, handler_ns) = servers.get(&origin).map_or((0, 0), |h| {
            (
                h.latency_ns.load(Ordering::Relaxed),
                h.handler_ns.load(Ordering::Relaxed),
            )
        });
        servers.insert(
            origin,
            Arc::new(OriginHandler {
                server: Mutex::new(Box::new(server)),
                latency_ns: AtomicU64::new(latency_ns),
                handler_ns: AtomicU64::new(handler_ns),
            }),
        );
    }

    /// Clones the handler handle for an origin out of the map, holding the map's
    /// read guard only for the lookup — never across a latency sleep or a
    /// handler call.
    fn handler(&self, origin: &Origin) -> Result<Arc<OriginHandler>, NetError> {
        self.servers
            .read()
            .expect("network server map lock")
            .get(origin)
            .cloned()
            .ok_or_else(|| NetError::HostUnreachable(origin.to_string()))
    }

    /// Configures the synthetic service latency every dispatch to this origin
    /// pays (waited on a deadline outside all locks, so in-flight fetches
    /// overlap their waits).
    ///
    /// # Panics
    ///
    /// Panics if `origin_url` cannot be parsed or names an unregistered origin —
    /// latency is benchmark configuration, so a dangling origin is a setup bug.
    pub fn set_latency(&self, origin_url: &str, latency: Duration) {
        let origin = Origin::parse_url(origin_url)
            .expect("latency configuration requires a valid origin URL");
        self.handler(&origin)
            .expect("latency configuration requires a registered origin")
            .latency_ns
            .store(
                u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
    }

    /// The configured latency for an origin (zero when unset or unregistered).
    #[must_use]
    pub fn latency(&self, origin: &Origin) -> Duration {
        self.handler(origin).map_or(Duration::ZERO, |h| h.latency())
    }

    /// Estimated service time of one dispatch to `origin`, in nanoseconds: the
    /// configured latency plus the EWMA of the handler call's duration, taken
    /// over clean dispatches only (latency, timer slack and injected
    /// slowdowns are not part of it). Zero when the origin is unregistered or
    /// nothing is known yet.
    #[must_use]
    pub fn estimated_service_ns(&self, origin: &Origin) -> u64 {
        self.handler(origin).map_or(0, |h| {
            h.latency_ns
                .load(Ordering::Relaxed)
                .saturating_add(h.handler_ns.load(Ordering::Relaxed))
        })
    }

    /// `true` when a server is registered for the origin of `url`.
    #[must_use]
    pub fn knows(&self, url: &crate::url::Url) -> bool {
        self.knows_origin(&url.origin())
    }

    /// `true` when a server is registered for `origin`.
    #[must_use]
    pub fn knows_origin(&self, origin: &Origin) -> bool {
        self.servers
            .read()
            .expect("network server map lock")
            .contains_key(origin)
    }

    /// Reserves a contiguous block of `count` sequence numbers and returns the
    /// first. [`execute`](SharedNetwork::execute) reserves one block per
    /// logged plan and logs request *i* under `start + i`, so the
    /// sequence-sorted log reads in plan order no matter which request
    /// finished first. Public for harnesses that fill the log directly with
    /// [`record_cache_hit`](SharedNetwork::record_cache_hit) (perfbench's
    /// steady-state fabric does).
    pub fn reserve_sequences(&self, count: u64) -> u64 {
        self.sequence.fetch_add(count, Ordering::Relaxed)
    }

    /// The *send* half of a dispatch to `origin` (the request URL's origin,
    /// which the window has already computed): admits the request through
    /// the origin's circuit breaker (when `policy` has one), consults the
    /// origin's fault plan, and stamps the request with the instant its
    /// response is due — now + the configured latency + any injected
    /// slowdown. Nothing waits here; [`complete`](SharedNetwork::complete)
    /// does, and only while the due time is still ahead.
    ///
    /// # Errors
    ///
    /// [`NetError::CircuitOpen`] when the breaker refused admission, and
    /// [`NetError::HostUnreachable`] when no server is registered for the
    /// request's origin. Neither is retried.
    pub(crate) fn send(
        &self,
        request: Request,
        origin: Origin,
        policy: &FetchPolicy,
    ) -> Result<InFlight, NetError> {
        self.breaker_admit(&origin, policy)?;
        // The map's read guard is dropped inside `handler()`: the wait and the
        // handler call hold only this origin's own mutex, so registration
        // writes and dispatches to other origins proceed unimpeded.
        let handler = self.handler(&origin)?;
        let fault = self.fault_decision(&origin);
        let sent = Instant::now();
        let wait = handler
            .latency()
            .saturating_add(Duration::from_nanos(fault.slow_ns));
        Ok(InFlight {
            handler,
            origin,
            request,
            fault,
            sent,
            due: sent + wait,
        })
    }

    /// The *complete* half of a dispatch: sleeps only while the request's due
    /// time is still ahead, applies its fault verdict, takes the origin's
    /// handler mutex for exactly one `handle` call, folds the call's duration
    /// into the handler-time EWMA — but **only for clean dispatches**, so
    /// injected chaos cannot poison the service-time estimate — and records
    /// the log entry under `sequence` (speculative dispatches pass `None`).
    ///
    /// The sleep ([`wait_until`]) never ends before the due time. The first
    /// wait on each thread lowers that thread's timer slack to 1ns, once,
    /// where the OS allows it; from then on a wait ends within microseconds
    /// of the due time. Each wait that slept counts in
    /// [`FabricCounters::latency_waits`], and how late it woke in
    /// [`FabricCounters::wait_overshoot_ns`].
    ///
    /// # Panics
    ///
    /// Panics when the fault plan injects a panic, and whenever the handler
    /// itself panics; the window contains both per slot. A handler that
    /// panicked still answers the origin's later requests.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the fault plan times the dispatch out.
    pub(crate) fn complete(
        &self,
        flight: &InFlight,
        sequence: Option<u64>,
    ) -> Result<Response, NetError> {
        if flight.due > Instant::now() {
            let overshoot = wait_until(flight.due) - flight.due;
            self.latency_waits.fetch_add(1, Ordering::Relaxed);
            self.wait_overshoot_ns.fetch_add(
                u64::try_from(overshoot.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        let fault = flight.fault;
        if fault.slow_ns > 0 {
            self.chaos.fault_slowdowns.fetch_add(1, Ordering::Relaxed);
        }
        match fault.outcome {
            FaultOutcome::Panic => {
                self.chaos.faults_injected.fetch_add(1, Ordering::Relaxed);
                // Deliberately *before* the handler lock: an injected panic
                // must not poison the origin's mutex, so the origin heals the
                // moment its schedule (or a retry) lets a dispatch through.
                panic!(
                    "injected fault: origin `{}` panicked by plan",
                    flight.origin
                );
            }
            FaultOutcome::Timeout => {
                self.chaos.faults_injected.fetch_add(1, Ordering::Relaxed);
                let elapsed_ns =
                    u64::try_from(flight.sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                return Err(NetError::Timeout {
                    origin: flight.origin.to_string(),
                    elapsed_ns,
                });
            }
            FaultOutcome::Proceed => {}
        }
        let (response, handler_ns) = {
            // A handler that panicked poisoned this mutex; the window
            // contained that panic and failed only its own request. The
            // fabric keeps no state of its own under this lock, so the next
            // request takes the guard back and asks the handler again.
            let mut server = flight
                .handler
                .server
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let start = Instant::now();
            let response = server.handle(&flight.request);
            (response, start.elapsed())
        };
        // Fold the handler call's duration into the EWMA behind
        // `estimated_service_ns`: new = 7/8·old + 1/8·sample. A sample is at
        // least 1 ns, because 0 means "no samples yet".
        if fault.is_clean() {
            let sample = u64::try_from(handler_ns.as_nanos())
                .unwrap_or(u64::MAX)
                .max(1);
            let ewma = &flight.handler.handler_ns;
            let old = ewma.load(Ordering::Relaxed);
            let next = if old == 0 {
                sample
            } else {
                old - old / 8 + sample / 8
            };
            ewma.store(next, Ordering::Relaxed);
        }
        if let Some(sequence) = sequence {
            self.record(sequence, &flight.request, response.status.0);
        }
        Ok(response)
    }

    /// Stores the response to a `GET` of `url` in the shared mediation-keyed
    /// cache, fetched under the plan summarized by `cookie_header` (the exact
    /// `Cookie` header the monitor attached, empty string for none).
    /// `one_shot` entries (speculative prefetch) are consumed on first hit.
    /// What may enter at all is [`ResponseCache::admits`]'s one rule. Returns
    /// `true` when the response entered the cache.
    pub(crate) fn cache_store(
        &self,
        url: &str,
        cookie_header: &str,
        response: Arc<Response>,
        one_shot: bool,
    ) -> bool {
        // Refused responses (`no-store`, `Set-Cookie`, no `max-age`) never
        // read the clock.
        if !ResponseCache::admits(&response, one_shot) {
            return false;
        }
        self.cache.store(
            Method::Get,
            url,
            cookie_header,
            response,
            self.clock_now_ns(),
            one_shot,
        )
    }

    /// Looks up the shared cache for a `GET` of `url`, serving only the
    /// [`CacheLayers`] the caller opted into (an entry in a foreign layer is an
    /// ordinary miss, left in place), and **only** when `cookie_header` — the
    /// header the consuming request just mediated for itself — matches the plan
    /// the entry was stored under. On an in-layer mismatch the entry is
    /// discarded (stale plan) and `None` is returned, so a cached response can
    /// never substitute for a request the monitor would build differently
    /// today. Expired entries (`max-age` lifetime passed at `now_ns`, a
    /// reading of the fabric's injectable clock) are discarded and counted
    /// the same way.
    pub(crate) fn cache_lookup(
        &self,
        url: &str,
        cookie_header: &str,
        now_ns: u64,
        layers: CacheLayers,
    ) -> Option<CacheHit> {
        self.cache
            .lookup(Method::Get, url, cookie_header, now_ns, layers)
    }

    /// Logs a cache hit under the consuming request's reserved `sequence`,
    /// exactly as the live fetch it replaced would have been logged. The
    /// hit is only legal when the mediation plan matched, so method, URL and
    /// cookie names here are byte-identical to the request a cache-free run
    /// would have put on the wire — which is what keeps the log equivalent.
    /// [`execute`](SharedNetwork::execute) logs every hit it serves; this
    /// stays public for harnesses that fill the log directly (perfbench's
    /// steady-state fabric does).
    pub fn record_cache_hit(&self, sequence: u64, request: &Request, status: u16) {
        self.record(sequence, request, status);
    }

    /// Logs `request` and its response `status` in the stripe `sequence`
    /// selects. A full stripe is a ring: its oldest entry (the one recorded
    /// first in this stripe) is taken off the front, overwritten in place
    /// and pushed back as the newest, and the drop is counted — O(1), with
    /// no allocation once the stripe's entries have their buffers. An
    /// unbounded log (capacity 0) only pushes.
    fn record(&self, sequence: u64, request: &Request, status: u16) {
        let stripe = &self.stripes[(sequence as usize) & (self.stripes.len() - 1)];
        let mut entries = stripe.lock().expect("network log stripe lock");
        if self.stripe_capacity > 0 && entries.len() >= self.stripe_capacity {
            let mut oldest = entries.pop_front().expect("a full stripe has an entry");
            oldest.overwrite(sequence, request, status);
            entries.push_back(oldest);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            entries.push_back(SequencedEntry::new(sequence, request, status));
        }
    }

    /// The request log in global sequence order (the order dispatches were
    /// *planned*, which for un-reserved sequences is the order they started).
    /// Gathers one short-held lock per stripe, then sorts by sequence.
    #[must_use]
    pub fn log(&self) -> Vec<LoggedRequest> {
        let mut all: Vec<SequencedEntry> = Vec::with_capacity(self.log_len());
        for stripe in &self.stripes {
            all.extend(
                stripe
                    .lock()
                    .expect("network log stripe lock")
                    .iter()
                    .cloned(),
            );
        }
        all.sort_unstable_by_key(|e| e.sequence);
        all.into_iter().map(|e| e.entry).collect()
    }

    /// Number of retained log entries (each stripe lock held only to read a
    /// length).
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("network log stripe lock").len())
            .sum()
    }

    /// Clears the request log (e.g. between experiment trials). The drop counter
    /// is *not* reset — like the audit ring's, it is cumulative.
    pub fn clear_log(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("network log stripe lock").clear();
        }
    }

    /// The log entries for requests sent to `host`, in sequence order.
    #[must_use]
    pub fn requests_to(&self, host: &str) -> Vec<LoggedRequest> {
        let mut matched: Vec<SequencedEntry> = Vec::new();
        for stripe in &self.stripes {
            matched.extend(
                stripe
                    .lock()
                    .expect("network log stripe lock")
                    .iter()
                    .filter(|e| e.entry.url.host().eq_ignore_ascii_case(host))
                    .cloned(),
            );
        }
        matched.sort_unstable_by_key(|e| e.sequence);
        matched.into_iter().map(|e| e.entry).collect()
    }

    /// Counts the log entries for requests sent to `host` without materializing
    /// them — the common count-only query of the defense experiments.
    #[must_use]
    pub fn count_requests_to(&self, host: &str) -> usize {
        self.stripes
            .iter()
            .map(|stripe| {
                stripe
                    .lock()
                    .expect("network log stripe lock")
                    .iter()
                    .filter(|e| e.entry.url.host().eq_ignore_ascii_case(host))
                    .count()
            })
            .sum()
    }

    /// Total bound on retained log entries (0 when unbounded).
    #[must_use]
    pub fn log_capacity(&self) -> usize {
        self.stripe_capacity * self.stripes.len()
    }
}

/// Declares [`FabricCounters`] from one table: each row is a counter's doc,
/// its field and the key [`FabricCounters::fields`] exports it under, in
/// export order.
macro_rules! fabric_counters {
    ($($(#[doc = $doc:literal])+ $field:ident => $key:literal,)+) => {
        /// Counters of one [`SharedNetwork`] fabric: request log, prefetch
        /// cache, speculative requests, chaos (faults, retries, breakers),
        /// response cache, the precision of its latency waits and the deadline
        /// window's per-origin deferrals. [`FabricCounters::gather`] is the
        /// one reader of the atomics behind them.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct FabricCounters {
            $($(#[doc = $doc])+ pub $field: u64,)+
            /// Always 0: nothing preempts a fetch. Kept only because perfbench
            /// reads it for `net.fetch_pool.preemptions_per_op`; not exported.
            pub pool_preemptions: u64,
        }

        impl FabricCounters {
            /// The counters flattened to `(key, value)` pairs in table order:
            /// the fabric block of the control-plane snapshot's stable
            /// layout. A new counter is appended at the end of its group.
            #[must_use]
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$(($key, self.$field)),+]
            }
        }
    };
}

fabric_counters! {
    /// Requests currently resident in the bounded log.
    log_len => "fabric_log_len",
    /// Bound on retained log entries ([`SharedNetwork::log_capacity`]).
    log_capacity => "fabric_log_capacity",
    /// Log entries dropped because their stripe was full; cumulative, so
    /// [`SharedNetwork::clear_log`] does not reset it.
    dropped_log_entries => "fabric_dropped_log_entries",
    /// One-shot (speculative) cache entries consumed by a request whose
    /// mediation plan still matched.
    prefetch_hits => "fabric_prefetch_hits",
    /// Prefetched (one-shot) entries discarded because the consuming
    /// request's mediation plan no longer matched the one they were stored
    /// under.
    prefetch_stale_discards => "fabric_prefetch_stale_discards",
    /// Prefetched (one-shot) entries resident in the cache.
    prefetched_entries => "fabric_prefetched_entries",
    /// Speculative requests completed on prefetch threads, failed ones
    /// included.
    pool_jobs_executed => "fabric_pool_jobs_executed",
    // Chaos counters: informational to the trajectory comparator, so chaos
    // tallies can never flake a perf gate.
    /// Failing faults injected by installed fault plans (timeouts and
    /// planned panics).
    fault_injected => "fault_injected",
    /// Dispatches slowed by an injected
    /// [`FaultSchedule::SlowBy`](crate::FaultSchedule::SlowBy) schedule.
    fault_slowdowns => "fault_slowdowns",
    /// Retry attempts granted across all resilient dispatches.
    retry_attempts => "retry_attempts",
    /// Resilient dispatches that succeeded only after at least one retry.
    retry_successes => "retry_successes",
    /// Retries refused because the batch deadline budget ran dry.
    retry_deadline_exhausted => "retry_deadline_exhausted",
    /// Times an origin breaker tripped open (including half-open re-trips).
    breaker_trips => "breaker_trips",
    /// Half-open probes admitted after a breaker cooldown elapsed.
    breaker_probes => "breaker_probes",
    /// Breakers closed by a successful half-open probe.
    breaker_recoveries => "breaker_recoveries",
    /// Dispatches refused outright by an open (or probing) breaker.
    breaker_fast_fails => "breaker_fast_fails",
    // Response-cache counters: informational too; hit-rate gates stay in the
    // benches, where the workload is controlled.
    /// Persistent cache entries served (zero-copy hits); one-shot hits count
    /// under `prefetch_hits`.
    cache_hits => "cache_hits",
    /// Cache entries (either layer) discarded at lookup because their
    /// lifetime had passed on the fabric's clock.
    cache_expired => "cache_expired",
    /// Cache entries evicted to keep a shard within capacity.
    cache_evictions => "cache_evictions",
    /// Successful cache stores (including overwrites), both layers.
    cache_stored => "cache_stored",
    /// Duplicate plan slots served from a single dispatch by batch-level
    /// single-flight coalescing.
    cache_coalesced => "cache_coalesced",
    /// Live cache entries, both layers.
    cache_entries => "cache_entries",
    /// Persistent entries discarded because the consuming request's mediation
    /// plan no longer matched the one they were stored under.
    cache_stale_discards => "cache_stale_discards",
    /// Latency waits that actually slept: completions whose due time was
    /// still ahead. Zero-latency dispatches, and in-flight requests that came
    /// due while the window was busy, never count.
    latency_waits => "fabric_latency_waits",
    /// Total nanoseconds the counted latency waits woke past their due times
    /// (never negative). Divided by `latency_waits` it is the mean overshoot.
    wait_overshoot_ns => "fabric_wait_overshoot_ns",
    /// Deadline-window requests whose send waited because an origin already
    /// had [`MAX_IN_FLIGHT_PER_ORIGIN`](crate::window::MAX_IN_FLIGHT_PER_ORIGIN)
    /// requests in flight, their own or the one holding the plan's head. Each
    /// request counts once, however long it waited.
    window_origin_deferrals => "fabric_window_origin_deferrals",
}

impl FabricCounters {
    /// Reads every counter of `fabric` where it lives: the log and wait
    /// counters on the fabric, the chaos counters, and the response cache's
    /// counters plus one walk of its shards for both entry counts.
    #[must_use]
    pub fn gather(fabric: &SharedNetwork) -> Self {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (chaos, cache) = (&fabric.chaos, &fabric.cache);
        let (cache_entries, prefetched_entries) = cache.entry_counts();
        FabricCounters {
            log_len: fabric.log_len() as u64,
            log_capacity: fabric.log_capacity() as u64,
            dropped_log_entries: read(&fabric.dropped),
            prefetch_hits: read(&cache.one_shot_hits),
            prefetch_stale_discards: read(&cache.one_shot_stale),
            prefetched_entries: prefetched_entries as u64,
            pool_jobs_executed: read(&fabric.background_requests),
            pool_preemptions: 0,
            fault_injected: read(&chaos.faults_injected),
            fault_slowdowns: read(&chaos.fault_slowdowns),
            retry_attempts: read(&chaos.retry_attempts),
            retry_successes: read(&chaos.retry_successes),
            retry_deadline_exhausted: read(&chaos.retry_deadline_exhausted),
            breaker_trips: read(&chaos.breaker_trips),
            breaker_probes: read(&chaos.breaker_probes),
            breaker_recoveries: read(&chaos.breaker_recoveries),
            breaker_fast_fails: read(&chaos.breaker_fast_fails),
            cache_hits: read(&cache.hits),
            cache_expired: read(&cache.expired),
            cache_evictions: read(&cache.evicted),
            cache_stored: read(&cache.stored),
            cache_coalesced: read(&cache.coalesced),
            cache_entries: cache_entries as u64,
            cache_stale_discards: read(&cache.stale),
            latency_waits: read(&fabric.latency_waits),
            wait_overshoot_ns: read(&fabric.wait_overshoot_ns),
            window_origin_deferrals: read(&fabric.window_origin_deferrals),
        }
    }
}

impl fmt::Debug for SharedNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedNetwork")
            .field(
                "origins",
                &self
                    .servers
                    .read()
                    .expect("network server map lock")
                    .keys()
                    .collect::<Vec<_>>(),
            )
            .field("counters", &FabricCounters::gather(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::FetchPlan;
    use crate::message::StatusCode;
    use crate::url::Url;
    use std::sync::Arc;

    fn echo_server(req: &Request) -> Response {
        Response::ok_text(format!("{} {}", req.method, req.url.path()))
    }

    /// Fetches `url` as an unlogged speculative plan.
    fn speculate(net: &SharedNetwork, url: &str) -> Arc<Response> {
        let plan = FetchPlan {
            speculative: true,
            ..FetchPlan::new(vec![Request::get(url).unwrap()], 1, FetchPolicy::disabled())
        };
        net.execute(plan).pop().unwrap().outcome.unwrap()
    }

    /// Consumes the entry for a `GET` of `url` from either layer.
    fn take(net: &SharedNetwork, url: &str, cookie_header: &str) -> Option<Arc<Response>> {
        net.cache_lookup(url, cookie_header, net.clock_now_ns(), CacheLayers::BOTH)
            .map(|hit| hit.response)
    }

    #[test]
    fn dispatch_routes_by_origin_and_logs_in_sequence_order() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        net.register("http://b.example", |_req: &Request| {
            Response::error(StatusCode::FORBIDDEN, "nope")
        });
        let ra = net.fetch("http://a.example/x").unwrap();
        assert_eq!(ra.body, "GET /x");
        let rb = net.fetch("http://b.example/y").unwrap();
        assert_eq!(rb.status, StatusCode::FORBIDDEN);
        let log = net.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].url.host(), "a.example");
        assert_eq!(log[1].url.host(), "b.example");
        assert_eq!(net.count_requests_to("a.example"), 1);
        assert!(net.fetch("http://nowhere.example/").is_err());
        assert_eq!(net.log_len(), 2, "unreachable dispatches are not logged");
    }

    #[test]
    fn reserved_sequences_fix_log_order_regardless_of_dispatch_order() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        // Reserve a block, then log in *reverse* plan order — the log still
        // reads in plan order.
        let base = net.reserve_sequences(4);
        for i in (0..4u64).rev() {
            let request = Request::get(&format!("http://a.example/plan{i}")).unwrap();
            net.record_cache_hit(base + i, &request, 200);
        }
        let paths: Vec<String> = net.log().iter().map(|e| e.url.path().to_string()).collect();
        assert_eq!(paths, vec!["/plan0", "/plan1", "/plan2", "/plan3"]);
        // A later un-reserved dispatch sorts after the block.
        net.fetch("http://a.example/after").unwrap();
        assert_eq!(net.log().last().unwrap().url.path(), "/after");
    }

    #[test]
    fn concurrent_dispatches_to_distinct_origins_all_complete() {
        let net = Arc::new(SharedNetwork::new());
        for t in 0..4 {
            net.register(&format!("http://h{t}.example"), echo_server);
        }
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let net = Arc::clone(&net);
                scope.spawn(move || {
                    for i in 0..25 {
                        net.fetch(&format!("http://h{t}.example/{i}")).unwrap();
                    }
                });
            }
        });
        assert_eq!(net.log_len(), 100);
        for t in 0..4 {
            assert_eq!(net.count_requests_to(&format!("h{t}.example")), 25);
        }
        // Sequence numbers are unique and the sorted log is strictly ordered per
        // origin (each thread dispatched its own origin sequentially).
        for t in 0..4 {
            let paths: Vec<String> = net
                .requests_to(&format!("h{t}.example"))
                .iter()
                .map(|e| e.url.path().to_string())
                .collect();
            let expected: Vec<String> = (0..25).map(|i| format!("/{i}")).collect();
            assert_eq!(paths, expected);
        }
    }

    #[test]
    fn log_capacity_drops_oldest_first_and_counts() {
        // One stripe, capacity 8, batch 1: the ninth entry evicts the oldest.
        let net = SharedNetwork::with_log_config(1, 8);
        assert_eq!(net.log_capacity(), 8);
        net.register("http://a.example", echo_server);
        for i in 0..12 {
            net.fetch(&format!("http://a.example/{i}")).unwrap();
        }
        assert_eq!(net.log_len(), 8);
        assert_eq!(FabricCounters::gather(&net).dropped_log_entries, 4);
        let first = net.log()[0].url.path().to_string();
        assert_eq!(first, "/4", "oldest entries dropped first");
        net.clear_log();
        assert_eq!(net.log_len(), 0);
        assert_eq!(
            FabricCounters::gather(&net).dropped_log_entries,
            4,
            "drop counter is cumulative"
        );
    }

    #[test]
    fn a_full_striped_log_keeps_exactly_the_newest_entries() {
        let net = SharedNetwork::with_log_config(4, 32);
        net.register("http://a.example", echo_server);
        for i in 0..1000 {
            net.fetch(&format!("http://a.example/{i}")).unwrap();
        }
        assert_eq!(net.log_len(), 32);
        assert_eq!(FabricCounters::gather(&net).dropped_log_entries, 968);
        let paths: Vec<String> = net.log().iter().map(|e| e.url.path().to_string()).collect();
        let newest: Vec<String> = (968..1000).map(|i| format!("/{i}")).collect();
        assert_eq!(paths, newest);
    }

    #[test]
    fn concurrent_records_into_a_full_log_account_for_every_entry() {
        let net = Arc::new(SharedNetwork::with_log_capacity(64));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let net = Arc::clone(&net);
                scope.spawn(move || {
                    let request = Request::get(&format!("http://h{t}.example/r"))
                        .unwrap()
                        .with_header("Cookie", "sid=abc");
                    for _ in 0..5_000 {
                        net.record_cache_hit(net.reserve_sequences(1), &request, 200);
                    }
                });
            }
        });
        assert_eq!(net.log_len(), 64);
        assert_eq!(
            net.log_len() as u64 + FabricCounters::gather(&net).dropped_log_entries,
            20_000
        );
        assert!(net.log().iter().all(|e| e.cookie_names == ["sid"]));
    }

    #[test]
    fn a_handler_that_panicked_once_answers_the_next_request() {
        let net = SharedNetwork::new();
        let mut calls = 0usize;
        net.register("http://flaky.example", move |_req: &Request| {
            calls += 1;
            assert!(calls > 1, "first call panics");
            Response::ok_text("fine")
        });
        let first = net.fetch("http://flaky.example/");
        assert!(matches!(first, Err(NetError::FetchPanicked(_))));
        let second = net.fetch("http://flaky.example/").unwrap();
        assert_eq!(second.body, "fine");
    }

    #[test]
    fn latency_is_paid_per_dispatch_and_survives_reregistration() {
        let net = SharedNetwork::new();
        net.register("http://slow.example", echo_server);
        net.set_latency("http://slow.example", Duration::from_millis(5));
        assert_eq!(
            net.latency(&Origin::parse_url("http://slow.example").unwrap()),
            Duration::from_millis(5)
        );
        let start = std::time::Instant::now();
        net.fetch("http://slow.example/").unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
        // Replacing the handler keeps the configured latency.
        net.register("http://slow.example", echo_server);
        assert_eq!(
            net.latency(&Origin::parse_url("http://slow.example").unwrap()),
            Duration::from_millis(5)
        );
        // Unregistered origins report zero latency.
        assert_eq!(
            net.latency(&Origin::parse_url("http://other.example").unwrap()),
            Duration::ZERO
        );
    }

    #[test]
    fn the_service_estimate_is_latency_plus_handler_time_not_timer_slack() {
        // The EWMA times the handler call only, so the sleep's timer slack
        // (50µs by default on Linux, far more on a loaded host) never reaches
        // the estimate: an echo origin at 2ms reads 2ms plus a few µs.
        let net = SharedNetwork::new();
        net.register("http://slow.example", echo_server);
        net.set_latency("http://slow.example", Duration::from_millis(2));
        let origin = Origin::parse_url("http://slow.example").unwrap();
        assert_eq!(
            net.estimated_service_ns(&origin),
            2_000_000,
            "no samples yet"
        );
        for i in 0..5 {
            net.fetch(&format!("http://slow.example/{i}")).unwrap();
        }
        let estimate = net.estimated_service_ns(&origin);
        assert!(
            estimate > 2_000_000,
            "clean dispatches seeded the handler EWMA"
        );
        assert!(
            estimate < 3_000_000,
            "estimate {estimate}ns carries more than handler time on top of the latency"
        );
    }

    #[test]
    fn latency_waits_count_only_dispatches_that_slept() {
        let net = SharedNetwork::new();
        net.register("http://fast.example", echo_server);
        net.register("http://slow.example", echo_server);
        net.set_latency("http://slow.example", Duration::from_micros(200));
        for i in 0..5 {
            net.fetch(&format!("http://fast.example/{i}")).unwrap();
        }
        let counters = FabricCounters::gather(&net);
        assert_eq!(counters.latency_waits, 0, "zero latency never sleeps");
        assert_eq!(counters.wait_overshoot_ns, 0);
        for i in 0..7 {
            net.fetch(&format!("http://slow.example/{i}")).unwrap();
        }
        assert_eq!(FabricCounters::gather(&net).latency_waits, 7);
        net.fetch("http://fast.example/after").unwrap();
        assert_eq!(FabricCounters::gather(&net).latency_waits, 7);
    }

    /// Reads the calling thread's timer slack, or `None` where procfs does
    /// not expose it.
    fn own_timer_slack() -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        let path = std::path::Path::new("/proc")
            .join(link.file_name()?)
            .join("timerslack_ns");
        Some(std::fs::read_to_string(path).ok()?.trim().to_string())
    }

    #[test]
    fn the_first_latency_wait_lowers_the_threads_timer_slack() {
        if own_timer_slack().is_none() {
            println!("skipped: /proc/thread-self/timerslack_ns is not available");
            return;
        }
        let net = Arc::new(SharedNetwork::new());
        net.register("http://fast.example", echo_server);
        net.register("http://slow.example", echo_server);
        net.set_latency("http://slow.example", Duration::from_micros(100));
        // A thread that never waits on latency keeps the slack it inherited.
        let untouched = {
            let net = Arc::clone(&net);
            std::thread::spawn(move || {
                let inherited = own_timer_slack();
                for i in 0..3 {
                    net.fetch(&format!("http://fast.example/{i}")).unwrap();
                }
                (inherited, own_timer_slack())
            })
            .join()
            .unwrap()
        };
        assert_eq!(untouched.0, untouched.1);
        // One latency wait on a fresh thread lowers that thread's slack.
        let lowered = {
            let net = Arc::clone(&net);
            std::thread::spawn(move || {
                net.fetch("http://slow.example/").unwrap();
                own_timer_slack()
            })
            .join()
            .unwrap()
        };
        assert_eq!(lowered.as_deref(), Some("1"));
    }

    #[test]
    fn knows_reports_registration() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        assert!(net.knows(&Url::parse("http://a.example/x").unwrap()));
        assert!(!net.knows(&Url::parse("http://other.example/").unwrap()));
    }

    #[test]
    fn prefetch_cache_hits_only_on_a_matching_mediation_plan() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        let url = "http://a.example/page";
        let response = speculate(&net, url);
        assert_eq!(net.log_len(), 0, "speculative dispatches are unlogged");
        net.cache_store(url, "sid=abc", response, true);
        assert_eq!(FabricCounters::gather(&net).prefetched_entries, 1);

        // A different plan (the jar changed since the speculation) discards
        // the entry instead of serving it.
        assert!(take(&net, url, "sid=zzz").is_none());
        let counters = FabricCounters::gather(&net);
        assert_eq!(counters.prefetch_stale_discards, 1);
        assert_eq!(
            counters.prefetched_entries, 0,
            "stale entries are discarded"
        );

        // A matching plan consumes the entry exactly once.
        let response = speculate(&net, url);
        net.cache_store(url, "sid=abc", response, true);
        let hit = take(&net, url, "sid=abc").unwrap();
        assert_eq!(hit.body, "GET /page");
        assert_eq!(FabricCounters::gather(&net).prefetch_hits, 1);
        assert!(take(&net, url, "sid=abc").is_none());
        assert_eq!(
            FabricCounters::gather(&net).prefetch_stale_discards,
            1,
            "a plain miss is not a stale discard"
        );
    }

    #[test]
    fn prefetch_cache_is_bounded_and_overwrites_per_url() {
        use crate::response_cache::RESPONSE_CACHE_CAPACITY;
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        let ok = Arc::new(Response::ok_text("x"));
        let stored = 4 * RESPONSE_CACHE_CAPACITY;
        for i in 0..stored {
            net.cache_store(&format!("http://a.example/{i}"), "", ok.clone(), true);
        }
        let counters = FabricCounters::gather(&net);
        assert!(
            counters.prefetched_entries <= RESPONSE_CACHE_CAPACITY as u64,
            "the cache stays within its capacity bound"
        );
        assert_eq!(
            counters.cache_evictions + counters.prefetched_entries,
            stored as u64,
            "every overflow store evicted exactly one entry"
        );
        // Re-storing a URL overwrites in place rather than duplicating or evicting.
        let url = &format!("http://a.example/{}", stored - 1);
        let evictions_before = FabricCounters::gather(&net).cache_evictions;
        net.cache_store(url, "a=1", ok.clone(), true);
        net.cache_store(url, "a=2", ok, true);
        assert_eq!(
            FabricCounters::gather(&net).cache_evictions,
            evictions_before
        );
        assert!(take(&net, url, "a=2").is_some());
        assert!(take(&net, url, "a=2").is_none());
    }

    #[test]
    fn prefetch_hits_log_under_their_reserved_sequence() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        let sequence = net.reserve_sequences(1);
        let request = Request::get("http://a.example/hit")
            .unwrap()
            .with_header("Cookie", "sid=abc");
        net.record_cache_hit(sequence, &request, 200);
        let log = net.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].url.path(), "/hit");
        assert_eq!(log[0].cookie_names, vec!["sid".to_string()]);
        assert_eq!(log[0].status, 200);
    }

    #[test]
    fn stateful_handlers_serialize_behind_their_origin_mutex() {
        let net = Arc::new(SharedNetwork::new());
        let mut hits = 0usize;
        net.register("http://count.example", move |_req: &Request| {
            hits += 1;
            Response::ok_text(hits.to_string())
        });
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let net = Arc::clone(&net);
                scope.spawn(move || {
                    for _ in 0..10 {
                        net.fetch("http://count.example/").unwrap();
                    }
                });
            }
        });
        // 40 concurrent hits, each seeing a consistent counter: the final dispatch
        // observes 41.
        let last = net.fetch("http://count.example/").unwrap();
        assert_eq!(last.body, "41");
    }

    #[test]
    fn fault_storms_leave_the_service_time_ewma_untouched() {
        use crate::fault::FaultPlan;
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        let origin = Origin::parse_url("http://a.example").unwrap();
        // Establish a clean baseline estimate.
        for i in 0..5 {
            net.fetch(&format!("http://a.example/warm{i}")).unwrap();
        }
        let baseline = net.estimated_service_ns(&origin);
        assert!(baseline > 0, "warm dispatches seeded the EWMA");
        // A storm of 5ms slowdowns and timeouts: every dispatch is faulted,
        // so *no* sample reaches the EWMA and the estimate stays exactly at
        // its pre-storm value — injected chaos cannot poison the planner's
        // fan-out cutover.
        net.inject_fault(
            "http://a.example",
            FaultPlan::new().slow_by(5_000_000).every_nth(2),
        );
        for i in 0..10 {
            let _ = net.fetch(&format!("http://a.example/storm{i}"));
        }
        assert_eq!(
            net.estimated_service_ns(&origin),
            baseline,
            "faulted dispatches must be excluded from the EWMA"
        );
        let counters = FabricCounters::gather(&net);
        assert_eq!(counters.fault_slowdowns, 10);
        assert_eq!(counters.fault_injected, 5);
        // Healing the origin resumes EWMA updates.
        net.clear_fault("http://a.example");
        net.fetch("http://a.example/healed").unwrap();
        assert!(net.estimated_service_ns(&origin) > 0);
    }
}
