//! The traced run's instruments. Every one of them sits *outside* the crates
//! under test, at a boundary the benchmark can reach through public API:
//!
//! * [`TracedEngine`] decorates the `Arc<dyn PolicyEngine>` a session is built
//!   with and counts `decide`/`decide_many` calls, checks and busy time;
//! * [`TracedServer`] wraps one origin's `Server` and counts dispatches and
//!   handler busy time, attributing each request to its session by site host;
//! * [`Tracer::begin_op`] / [`Tracer::end_op`] bracket one benchmark op.
//!
//! Spans are kept in memory (bounded) and written out as JSON lines when the
//! benchmark ends.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use escudo_core::{
    engine_for_mode, Decision, EngineStats, ObjectContext, Operation, PolicyEngine, PolicyMode,
    PrincipalContext,
};
use escudo_net::{Request, Response, Server};

/// Spans retained per traced run; later spans are counted, not stored.
const SPAN_CAPACITY: usize = 200_000;

thread_local! {
    /// The op the current thread is working on (0 outside any op). Mediation
    /// runs on the navigating thread, so the engine decorator reads it here.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// One timed interval. `parent` is the op span that caused it (`None` for the
/// op span itself); times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op this span belongs to.
    pub op: u64,
    /// The causing span's op id, `None` for an op span.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `core.engine.decide_many`.
    pub name: &'static str,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
}

/// Counters the instruments add to (all relaxed: statistics only).
#[derive(Debug, Default)]
struct Counters {
    engine_calls: AtomicU64,
    engine_checks: AtomicU64,
    engine_busy_ns: AtomicU64,
    dispatches: AtomicU64,
    origin_busy_ns: AtomicU64,
}

/// A point-in-time copy of the tracer's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounts {
    /// `decide` plus `decide_many` calls.
    pub engine_calls: u64,
    /// Checks decided (one per `decide`, the batch length per `decide_many`).
    pub engine_checks: u64,
    /// Wall time inside the engine, ns.
    pub engine_busy_ns: u64,
    /// Requests that reached an origin handler.
    pub dispatches: u64,
    /// Simulated origin time: configured latency plus handler time, ns.
    pub origin_busy_ns: u64,
}

/// The span store and counters of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    counters: Counters,
    /// The op each session is currently running, for server wrappers that
    /// run on fetch-pool threads.
    session_op: Vec<AtomicU64>,
    /// Per session: latency plus handler time of its subresource dispatches.
    fanout_work_ns: Vec<AtomicU64>,
}

/// An op in progress (see [`Tracer::begin_op`]).
#[derive(Debug, Clone, Copy)]
pub struct OpGuard {
    /// The op id.
    pub op: u64,
    /// When the op began.
    pub start: Instant,
}

impl Tracer {
    /// A tracer for a workload with `sessions` concurrent sessions.
    #[must_use]
    pub fn new(sessions: usize) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            counters: Counters::default(),
            session_op: (0..sessions).map(|_| AtomicU64::new(0)).collect(),
            fanout_work_ns: (0..sessions).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span of `op` from `start` to `end`.
    pub fn span(
        &self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            op,
            parent,
            name,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
        };
        let mut spans = self.spans.lock().expect("span store lock");
        if spans.len() < SPAN_CAPACITY {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a layer span of `op` whose duration is known but whose start
    /// inside the op is not (the phase timings of `PageLoadStats`): it is
    /// anchored at the op's start.
    pub fn phase(&self, guard: OpGuard, name: &'static str, duration_ns: u128) {
        let duration =
            std::time::Duration::from_nanos(u64::try_from(duration_ns).unwrap_or(u64::MAX));
        self.span(
            guard.op,
            Some(guard.op),
            name,
            guard.start,
            guard.start + duration,
        );
    }

    /// Starts an op of `session` on the current thread.
    pub fn begin_op(&self, session: usize) -> OpGuard {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        CURRENT_OP.with(|current| current.set(op));
        self.session_op[session].store(op, Ordering::Relaxed);
        OpGuard {
            op,
            start: Instant::now(),
        }
    }

    /// Ends an op begun with [`Tracer::begin_op`], recording its span.
    pub fn end_op(&self, guard: OpGuard, name: &'static str, end: Instant) {
        CURRENT_OP.with(|current| current.set(0));
        self.span(guard.op, None, name, guard.start, end);
    }

    /// Latency plus handler time of `session`'s subresource dispatches so far.
    #[must_use]
    pub fn fanout_work_ns(&self, session: usize) -> u64 {
        self.fanout_work_ns[session].load(Ordering::Relaxed)
    }

    /// Adds dispatches and origin time observed by other means than a
    /// [`TracedServer`] (the scenario sessions, whose servers the benchmark
    /// cannot wrap).
    pub fn add_dispatches(&self, dispatches: u64, origin_busy_ns: u64) {
        self.counters
            .dispatches
            .fetch_add(dispatches, Ordering::Relaxed);
        self.counters
            .origin_busy_ns
            .fetch_add(origin_busy_ns, Ordering::Relaxed);
    }

    /// The counters so far.
    #[must_use]
    pub fn counts(&self) -> TraceCounts {
        let c = &self.counters;
        TraceCounts {
            engine_calls: c.engine_calls.load(Ordering::Relaxed),
            engine_checks: c.engine_checks.load(Ordering::Relaxed),
            engine_busy_ns: c.engine_busy_ns.load(Ordering::Relaxed),
            dispatches: c.dispatches.load(Ordering::Relaxed),
            origin_busy_ns: c.origin_busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Spans stored and spans dropped past the capacity.
    #[must_use]
    pub fn span_count(&self) -> (usize, u64) {
        (
            self.spans.lock().expect("span store lock").len(),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Writes every stored span to `path` as JSON lines.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store lock");
        let mut out = String::with_capacity(spans.len() * 96);
        for span in spans.iter() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }

    fn engine_call(&self, name: &'static str, checks: usize, start: Instant) {
        let end = Instant::now();
        let c = &self.counters;
        c.engine_calls.fetch_add(1, Ordering::Relaxed);
        c.engine_checks.fetch_add(checks as u64, Ordering::Relaxed);
        c.engine_busy_ns.fetch_add(
            u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let op = CURRENT_OP.with(Cell::get);
        self.span(op, Some(op), name, start, end);
    }
}

/// Decorates a policy engine with call, check and busy-time accounting. Every
/// method delegates, so decisions and cache behaviour are the inner engine's.
#[derive(Debug)]
pub struct TracedEngine {
    inner: Arc<dyn PolicyEngine>,
    tracer: Arc<Tracer>,
}

impl TracedEngine {
    /// A fresh engine for `mode`, decorated when a tracer is given.
    #[must_use]
    pub fn for_mode(mode: PolicyMode, tracer: Option<&Arc<Tracer>>) -> Arc<dyn PolicyEngine> {
        let engine = engine_for_mode(mode);
        match tracer {
            Some(tracer) => TracedEngine::wrap(engine, tracer),
            None => engine,
        }
    }

    /// Wraps `inner`.
    #[must_use]
    pub fn wrap(inner: Arc<dyn PolicyEngine>, tracer: &Arc<Tracer>) -> Arc<dyn PolicyEngine> {
        Arc::new(TracedEngine {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl PolicyEngine for TracedEngine {
    fn mode(&self) -> PolicyMode {
        self.inner.mode()
    }

    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(principal, object, op);
        self.tracer.engine_call("core.engine.decide", 1, start);
        decision
    }

    fn decide_many(
        &self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        let start = Instant::now();
        let decisions = self.inner.decide_many(checks);
        self.tracer
            .engine_call("core.engine.decide_many", checks.len(), start);
        decisions
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn cache_hits(&self) -> u64 {
        self.inner.cache_hits()
    }
}

/// Wraps one origin's server. The fabric sleeps the origin's configured
/// latency just before calling the handler, so the span starts `latency_ns`
/// before the handler does.
pub struct TracedServer<S> {
    inner: S,
    tracer: Arc<Tracer>,
    session: usize,
    latency_ns: u64,
    subresource: bool,
}

impl<S: Server> TracedServer<S> {
    /// Wraps `inner`, which serves `session`'s site with `latency_ns` of
    /// configured latency; `subresource` marks origins the page's fan-out
    /// fetches from.
    pub fn new(
        inner: S,
        tracer: &Arc<Tracer>,
        session: usize,
        latency_ns: u64,
        subresource: bool,
    ) -> Self {
        TracedServer {
            inner,
            tracer: Arc::clone(tracer),
            session,
            latency_ns,
            subresource,
        }
    }
}

impl<S: Server> Server for TracedServer<S> {
    fn handle(&mut self, request: &Request) -> Response {
        let start = Instant::now();
        let response = self.inner.handle(request);
        let end = Instant::now();
        let work = self.latency_ns + u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let tracer = &self.tracer;
        tracer.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        tracer
            .counters
            .origin_busy_ns
            .fetch_add(work, Ordering::Relaxed);
        if self.subresource {
            tracer.fanout_work_ns[self.session].fetch_add(work, Ordering::Relaxed);
        }
        let op = tracer.session_op[self.session].load(Ordering::Relaxed);
        let began = start
            .checked_sub(std::time::Duration::from_nanos(self.latency_ns))
            .unwrap_or(start);
        tracer.span(op, Some(op), "net.origin", began, end);
        response
    }
}
