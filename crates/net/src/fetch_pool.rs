//! The persistent fetch worker pool: parked OS threads the fabric reuses across
//! page loads, scheduled over a **two-lane priority queue**.
//!
//! Waiting on a fetch's latency needs no thread: the deadline window
//! ([`crate::window`]) keeps a plan's requests in flight on the navigating
//! thread and sleeps once for all of them. The pool exists for the work that
//! does need threads: callers that ask [`SharedNetwork::dispatch_batch`] for
//! an explicit batch width, so their handler calls run on several threads,
//! and **background prefetch**, which must overlap whatever the navigating
//! thread does next. The browser's page loads never come here; every
//! subresource plan is a window. Each lane runs its claimed request as a
//! width-1 window, so a lane, too, waits on the request's due time rather
//! than on a fixed sleep:
//!
//! * a lane-split job queue plus a `Condvar` the idle workers park on —
//!   submission is a short lock hold and one notify per woken worker,
//!   microseconds instead of thread spawns;
//! * workers are spawned **lazily** the first time a batch actually needs them
//!   (fabrics that never fan out — most unit tests, and sessions that load
//!   pages without prefetch — never start a thread) and then persist,
//!   parked, for the fabric's lifetime;
//! * the pool grows on demand up to [`MAX_POOL_WORKERS`], sized by each batch's
//!   requested parallelism with [`std::thread::available_parallelism`] as the
//!   floor for the first growth step;
//! * the **submitting thread is always worker 0**: it drains its own batch
//!   alongside the pool, so a batch never deadlocks waiting for pool capacity
//!   and the sequential semantics of a one-worker batch are exactly the inline
//!   dispatch path;
//! * dropping the pool (i.e. the fabric) shuts the workers down and joins them.
//!
//! # Priority lanes
//!
//! The queue is no longer strict FIFO. Every ticket carries a [`Priority`] lane
//! tag and workers serve lanes in order — [`Priority::Navigation`] first, then
//! [`Priority::Bulk`], then [`Priority::Background`] — so a navigation-critical
//! batch submitted behind a sibling session's deep bulk-image storm does not
//! wait its full FIFO turn. Two mechanisms keep the lanes honest:
//!
//! * **Preemption.** A worker draining a bulk or background batch polls a
//!   lock-free "navigation tickets queued" signal between requests; when
//!   navigation work is waiting, it parks its unfinished batch back at the
//!   *front* of its lane (preserving that batch's exact concurrency bound) and
//!   goes to claim the navigation ticket instead. A batch is only ever
//!   preempted at request boundaries — an in-flight fetch always completes.
//! * **Anti-starvation credit.** After [`NAVIGATION_CREDIT`] consecutive
//!   navigation tickets handed out while lower-lane work waited, the queue
//!   serves one bulk/background ticket regardless, so a navigation storm can
//!   slow the bulk lanes but never halt them.
//!
//! # Tickets, not jobs
//!
//! The shared queue holds **claim tickets**, not individual fetches. A batch of
//! `n` requests submitted at parallelism `w` enqueues `w - 1` tickets; whichever
//! worker pops a ticket *drains that batch's own pending list* until it is
//! empty. Concurrency on one batch is therefore **exactly bounded** by its
//! ticket count plus the submitting thread — a fully grown pool cannot gang up
//! on a narrow batch — and submission wakes only as many workers as there are
//! tickets (no thundering herd on small batches).
//!
//! A panicking origin handler is contained per request: the unwind is caught,
//! the request's result slot is completed with [`NetError::FetchPanicked`], and
//! both the ticket and the worker keep going — one poisoned handler fails its
//! own fetch, never hangs the navigating thread or kills the pool.
//!
//! Because submission is cheap and the workers are already warm, "overlap the
//! next navigation with the current fan-out" is now just another batch
//! submission: [`SharedNetwork::submit_background_batch`] enqueues speculative
//! prefetch work on the background lane and returns immediately, so the
//! navigating thread fans the current page out while the pool fills the
//! prefetch cache behind it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

use crate::error::NetError;
use crate::fault::{BatchBudget, FetchPolicy};
use crate::message::{Request, Response};
use crate::shared_network::SharedNetwork;
use crate::window::{run_window, SlotResult};

/// Hard bound on pool threads, far above any realistic fan-out parallelism — a
/// backstop against a caller requesting absurd batch widths, not a tuning knob.
pub const MAX_POOL_WORKERS: usize = 64;

/// Anti-starvation credit: after this many consecutive navigation tickets
/// served while bulk/background work waited, one lower-lane ticket is served
/// even though navigation work remains queued.
pub const NAVIGATION_CREDIT: u32 = 4;

/// The scheduling lane a fetch batch rides through the pool's priority queue.
///
/// Lanes are served strictly in order — `Navigation`, then `Bulk`, then
/// `Background` — subject to the [`NAVIGATION_CREDIT`] anti-starvation valve,
/// and a worker draining a lower lane yields to freshly queued navigation work
/// at the next request boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Navigation-critical work: the document fetch's render-blocking
    /// companions (stylesheets, scripts). Preempts the lower lanes.
    Navigation,
    /// Ordinary page fan-out — images and other non-blocking subresources.
    #[default]
    Bulk,
    /// Speculative work (prefetch). Runs only when nothing better is queued
    /// and yields to navigation work between requests.
    Background,
}

/// One submitted batch: the pending requests any ticket holder may claim, the
/// per-request result slots, and the rendezvous the submitter waits on.
///
/// The batch holds the fabric **weakly**: the pool lives *inside* the fabric,
/// so a worker must never be the one to drop the fabric's last strong
/// reference — that would run the pool's own `Drop` (which joins the workers)
/// on a worker thread. The submitter blocked in `dispatch_batch` holds a
/// strong reference for the whole batch, so the upgrade only fails for work
/// orphaned by a vanished submitter, which completes with an error.
struct BatchWork {
    fabric: Weak<SharedNetwork>,
    /// Sequence base for the request log; `None` for speculative batches,
    /// which dispatch unlogged so prefetch cannot perturb the sequence-ordered
    /// log the oracle-equivalence harness compares.
    base: Option<u64>,
    /// Requests not yet claimed, as `(index, request)`: the index picks the
    /// result slot and is added to `base` for the log. One short lock hold
    /// per claim; ticket holders loop until this is empty.
    pending: Mutex<VecDeque<(usize, Request)>>,
    /// Per-request outcome plus the retries that slot consumed (always 0
    /// without a retry budget).
    slots: Vec<Mutex<Option<SlotResult>>>,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    finished: Condvar,
    /// The batch's shared retry budget; `None` runs the bare single-attempt
    /// dispatch (the disabled-policy fast path — no request clones, no
    /// breaker lookups).
    budget: Option<Arc<BatchBudget>>,
}

impl BatchWork {
    fn new(
        fabric: &Arc<SharedNetwork>,
        base: Option<u64>,
        requests: Vec<Request>,
        budget: Option<Arc<BatchBudget>>,
    ) -> Arc<Self> {
        let count = requests.len();
        Arc::new(BatchWork {
            fabric: Arc::downgrade(fabric),
            base,
            pending: Mutex::new(requests.into_iter().enumerate().collect()),
            slots: (0..count).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(count),
            // An empty batch is born finished; `wait` must not park on it.
            done: Mutex::new(count == 0),
            finished: Condvar::new(),
            budget,
        })
    }

    /// Claims and dispatches **one** pending request. Returns `false` when no
    /// claim remained — the batch's pending list is empty (though ticket
    /// holders may still be finishing claims made earlier).
    ///
    /// A panic inside the origin's handler is caught here, per request: the
    /// slot is completed with [`NetError::FetchPanicked`] and the caller keeps
    /// going — one poisoned handler cannot hang the batch or kill a pool
    /// worker.
    fn drain_one(&self) -> bool {
        let claimed = self.pending.lock().expect("batch pending list").pop_front();
        let Some((index, request)) = claimed else {
            return false;
        };
        let outcome = match self.fabric.upgrade() {
            Some(fabric) => {
                let entry = vec![(index, request)];
                let outcome = run_window(&fabric, self.base, entry, 1, self.budget.as_deref())
                    .pop()
                    .expect("one request, one outcome");
                // The strong reference must die *before* the completion
                // signal: once `complete` wakes the submitter, the
                // fabric's owner may drop it at any moment, and this
                // thread must not be holding the last count when it does.
                drop(fabric);
                outcome
            }
            None => (
                Err(NetError::HostUnreachable(format!(
                    "network fabric dropped before dispatching {}",
                    request.url
                ))),
                0,
            ),
        };
        self.complete(index, outcome);
        true
    }

    /// Drains the batch's pending list to empty. Run by the submitting thread
    /// (and by workers holding navigation tickets, which are never preempted),
    /// so the batch's concurrency is exactly `tickets + 1`. Returns how many
    /// requests this call dispatched.
    fn drain(&self) -> u64 {
        let mut ran = 0;
        while self.drain_one() {
            ran += 1;
        }
        ran
    }

    /// `true` while unclaimed requests remain — the preemption path only parks
    /// a ticket that still has work behind it.
    fn has_pending(&self) -> bool {
        !self.pending.lock().expect("batch pending list").is_empty()
    }

    fn complete(&self, index: usize, outcome: (Result<Response, NetError>, u32)) {
        *self.slots[index].lock().expect("batch result slot") = Some(outcome);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().expect("batch done flag") = true;
            self.finished.notify_all();
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("batch done flag");
        while !*done {
            done = self.finished.wait(done).expect("batch done flag");
        }
    }

    fn take_results(&self) -> Vec<(Result<Response, NetError>, u32)> {
        self.slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("batch result slot")
                    .take()
                    .expect("every request of a finished batch has a result")
            })
            .collect()
    }
}

/// The state workers share: the lane-split ticket queue and the park/wake
/// machinery. Workers hold an `Arc` of *this* (never of the fabric), and
/// batches hold the fabric only weakly, so the fabric → pool → worker
/// ownership chain stays acyclic and the fabric's last strong reference can
/// never die on a worker thread.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Parked workers wait here; submission notifies one worker per ticket.
    available: Condvar,
    /// Requests dispatched by pool workers (not the helping submitter) —
    /// observability.
    executed: AtomicU64,
    /// Unclaimed navigation tickets, mirrored outside the queue lock: the
    /// signal bulk/background drains poll between requests to decide whether
    /// to yield. Mutated only under the queue lock; read lock-free.
    navigation_queued: AtomicUsize,
    /// Times a worker parked a bulk/background ticket mid-batch to pick up
    /// queued navigation work.
    preemptions: AtomicU64,
}

struct PoolQueue {
    /// Claim tickets per lane: popping one commits the worker to draining that
    /// batch (until preempted, for the lower lanes).
    navigation: VecDeque<Arc<BatchWork>>,
    bulk: VecDeque<Arc<BatchWork>>,
    background: VecDeque<Arc<BatchWork>>,
    /// Consecutive navigation tickets handed out while lower-lane work waited;
    /// at [`NAVIGATION_CREDIT`] the next pop serves a lower lane instead.
    navigation_streak: u32,
    shutdown: bool,
}

impl PoolQueue {
    fn lane_mut(&mut self, lane: Priority) -> &mut VecDeque<Arc<BatchWork>> {
        match lane {
            Priority::Navigation => &mut self.navigation,
            Priority::Bulk => &mut self.bulk,
            Priority::Background => &mut self.background,
        }
    }

    /// Pops the next ticket by lane priority — navigation first, bulk, then
    /// background — with the anti-starvation credit letting one lower-lane
    /// ticket through after every [`NAVIGATION_CREDIT`] navigation pops made
    /// while lower-lane work sat waiting.
    fn pop_ticket(&mut self) -> Option<(Arc<BatchWork>, Priority)> {
        let lower_waiting = !self.bulk.is_empty() || !self.background.is_empty();
        if !self.navigation.is_empty()
            && (!lower_waiting || self.navigation_streak < NAVIGATION_CREDIT)
        {
            self.navigation_streak += 1;
            return self
                .navigation
                .pop_front()
                .map(|w| (w, Priority::Navigation));
        }
        self.navigation_streak = 0;
        if let Some(work) = self.bulk.pop_front() {
            return Some((work, Priority::Bulk));
        }
        if let Some(work) = self.background.pop_front() {
            return Some((work, Priority::Background));
        }
        self.navigation
            .pop_front()
            .map(|w| (w, Priority::Navigation))
    }
}

/// The persistent, lazily-grown worker pool one [`SharedNetwork`] owns.
pub(crate) struct FetchPool {
    shared: Arc<PoolShared>,
    /// Spawned worker handles; joined on drop. The `Mutex` also serializes
    /// growth, so two racing `ensure_workers` calls cannot over-spawn.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Lock-free mirror of `handles.len()` for the stats path.
    workers: AtomicUsize,
}

impl FetchPool {
    pub(crate) fn new() -> Self {
        FetchPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue {
                    navigation: VecDeque::new(),
                    bulk: VecDeque::new(),
                    background: VecDeque::new(),
                    navigation_streak: 0,
                    shutdown: false,
                }),
                available: Condvar::new(),
                executed: AtomicU64::new(0),
                navigation_queued: AtomicUsize::new(0),
                preemptions: AtomicU64::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            workers: AtomicUsize::new(0),
        }
    }

    /// Parked worker threads currently alive.
    pub(crate) fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    /// Requests dispatched by pool workers (the helping submitter's share is
    /// not counted here — it never crossed a thread).
    pub(crate) fn jobs_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Times a worker parked a bulk/background batch mid-drain to serve queued
    /// navigation work.
    pub(crate) fn preemptions(&self) -> u64 {
        self.shared.preemptions.load(Ordering::Relaxed)
    }

    /// Grows the pool to at least `wanted` workers (capped at
    /// [`MAX_POOL_WORKERS`]). Existing parked workers are reused; only the
    /// shortfall is spawned. First growth also covers the machine's available
    /// parallelism so a warm pool serves later, wider batches without a second
    /// growth stop.
    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(MAX_POOL_WORKERS);
        if self.workers() >= wanted {
            return;
        }
        let mut handles = self.handles.lock().expect("pool handle list");
        let target = wanted
            .max(
                std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get)
                    .min(MAX_POOL_WORKERS),
            )
            .max(handles.len());
        while handles.len() < target {
            let shared = Arc::clone(&self.shared);
            handles.push(
                std::thread::Builder::new()
                    .name("escudo-fetch".into())
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn fetch worker"),
            );
        }
        self.workers.store(handles.len(), Ordering::Relaxed);
    }

    /// Enqueues `tickets` claim tickets for `work` on `priority`'s lane under
    /// one lock hold and wakes exactly that many parked workers — a small
    /// batch on a fully grown pool does not stampede every thread.
    fn submit(&self, work: &Arc<BatchWork>, tickets: usize, priority: Priority) {
        {
            let mut queue = self.shared.queue.lock().expect("fetch pool queue");
            queue
                .lane_mut(priority)
                .extend((0..tickets).map(|_| Arc::clone(work)));
            if priority == Priority::Navigation {
                // Mirrored under the queue lock so pops (which decrement, also
                // under the lock) can never race it below zero.
                self.shared
                    .navigation_queued
                    .fetch_add(tickets, Ordering::Relaxed);
            }
        }
        for _ in 0..tickets {
            self.shared.available.notify_one();
        }
    }
}

impl Drop for FetchPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("fetch pool queue");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.handles.lock().expect("pool handle list").drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for FetchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchPool")
            .field("workers", &self.workers())
            .field("jobs_executed", &self.jobs_executed())
            .field("preemptions", &self.preemptions())
            .finish()
    }
}

/// A worker: park on the condvar, drain a batch per claimed ticket, exit on
/// shutdown. Pending tickets are drained even after shutdown is flagged, so a
/// fabric dropped mid-batch still completes the batch before the join.
///
/// Bulk and background tickets are drained **preemptibly**: between requests
/// the worker polls the navigation-queued signal, and when navigation work is
/// waiting it parks the unfinished batch back at the front of its lane (the
/// batch's concurrency bound is a ticket count, so parking the ticket keeps
/// the bound exact) and loops around — the lane order then hands it the
/// navigation ticket. Navigation tickets drain to completion.
fn worker_loop(shared: &PoolShared) {
    loop {
        let (work, lane) = {
            let mut queue = shared.queue.lock().expect("fetch pool queue");
            loop {
                if let Some((work, lane)) = queue.pop_ticket() {
                    if lane == Priority::Navigation {
                        shared.navigation_queued.fetch_sub(1, Ordering::Relaxed);
                    }
                    break (work, lane);
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("fetch pool queue");
            }
        };
        let mut ran = 0;
        while work.drain_one() {
            ran += 1;
            if lane != Priority::Navigation
                && shared.navigation_queued.load(Ordering::Relaxed) > 0
                && work.has_pending()
            {
                {
                    let mut queue = shared.queue.lock().expect("fetch pool queue");
                    queue.lane_mut(lane).push_front(Arc::clone(&work));
                }
                shared.preemptions.fetch_add(1, Ordering::Relaxed);
                shared.available.notify_one();
                break;
            }
        }
        shared.executed.fetch_add(ran, Ordering::Relaxed);
    }
}

/// An in-flight speculative batch on the background lane, created by
/// [`SharedNetwork::submit_background_batch`]. The submitter is **not** a
/// drain lane while the batch is in flight — the whole point is overlapping
/// the speculation with other work — and collects the outcomes by joining.
pub struct BackgroundBatch {
    work: Arc<BatchWork>,
}

impl BackgroundBatch {
    /// Blocks until every request has an outcome and returns them in plan
    /// order. The joining thread helps drain whatever the pool has not claimed
    /// yet, so a background batch completes even on a fabric whose pool is
    /// saturated with higher-priority work.
    #[must_use]
    pub fn join(self) -> Vec<Result<Response, NetError>> {
        self.work.drain();
        self.work.wait();
        self.work
            .take_results()
            .into_iter()
            .map(|(outcome, _retries)| outcome)
            .collect()
    }
}

impl std::fmt::Debug for BackgroundBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackgroundBatch")
            .field("requests", &self.work.slots.len())
            .finish()
    }
}

impl SharedNetwork {
    /// Dispatches a pre-planned batch of requests — request `i` under sequence
    /// `base + i` — across the fabric's persistent worker pool, returning the
    /// outcomes in plan order. `priority` picks the queue lane the batch's
    /// claim tickets ride (see [`Priority`]); it never changes the results,
    /// only how soon a loaded pool gets to them.
    ///
    /// `parallelism` bounds how many fetches run concurrently, **exactly**: the
    /// batch enqueues `parallelism - 1` claim tickets and only ticket holders
    /// (plus the calling thread) can claim its requests, so even a fully grown
    /// pool cannot run a narrow batch wider than asked. At `1` the batch
    /// dispatches inline on the calling thread in plan order — byte-identical
    /// to the sequential oracle, no pool involvement. Above `1`, the calling
    /// thread submits the tickets, drains its own batch alongside the woken
    /// workers (it is worker 0, as the scoped-thread loader's navigating
    /// thread was), and parks on the batch's condvar only while ticket holders
    /// finish the tail.
    ///
    /// # Errors
    ///
    /// Each slot carries its own [`NetError`] — one unreachable origin fails
    /// that fetch, and a panicking origin handler fails its own slot with
    /// [`NetError::FetchPanicked`]; neither hangs or fails the batch.
    pub fn dispatch_batch(
        self: &Arc<Self>,
        base: u64,
        requests: Vec<Request>,
        parallelism: usize,
        priority: Priority,
    ) -> Vec<Result<Response, NetError>> {
        self.dispatch_batch_with_policy(
            base,
            requests,
            parallelism,
            priority,
            &FetchPolicy::disabled(),
        )
        .into_iter()
        .map(|(outcome, _retries)| outcome)
        .collect()
    }

    /// [`dispatch_batch`](SharedNetwork::dispatch_batch) through the resilient
    /// fetch path: each slot runs the bounded-retry loop of
    /// [`crate::fault`] (breaker admission, verbatim re-dispatch of the
    /// already-mediated request, virtual backoff metered against the batch's
    /// shared deadline budget on the fabric clock) and reports how many
    /// retries it consumed alongside its outcome. A disabled policy is the
    /// exact bare path — no budget allocation, no request clones.
    ///
    /// # Errors
    ///
    /// Each slot carries its own final [`NetError`] exactly as in
    /// [`dispatch_batch`](SharedNetwork::dispatch_batch), plus
    /// [`NetError::Timeout`] for exhausted injected faults and
    /// [`NetError::CircuitOpen`] when the origin's breaker refused admission.
    pub fn dispatch_batch_with_policy(
        self: &Arc<Self>,
        base: u64,
        requests: Vec<Request>,
        parallelism: usize,
        priority: Priority,
        policy: &FetchPolicy,
    ) -> Vec<(Result<Response, NetError>, u32)> {
        let count = requests.len();
        if count == 0 {
            return Vec::new();
        }
        let budget = (!policy.is_disabled()).then(|| Arc::new(BatchBudget::new(self, *policy)));
        let parallelism = parallelism.min(count);
        if parallelism <= 1 {
            // A width-1 window: the same panic containment and retry loop as
            // the pooled drain, so whether a batch lands inline or on the
            // pool never changes what a poisoned handler does to the caller.
            let entries = requests.into_iter().enumerate().collect();
            return run_window(self, Some(base), entries, 1, budget.as_deref());
        }
        let work = BatchWork::new(self, Some(base), requests, budget);
        // The submitter is one of the `parallelism` lanes; ticket the rest.
        self.pool().ensure_workers(parallelism - 1);
        self.pool().submit(&work, parallelism - 1, priority);
        work.drain();
        work.wait();
        work.take_results()
    }

    /// Submits an **unlogged** speculative batch on the background lane and
    /// returns immediately — the prefetch side of the scheduler. The requests
    /// dispatch with full latency and panic containment but are never recorded
    /// in the sequence-ordered log (a consumed prefetch hit is logged at
    /// consumption time instead), so speculation cannot perturb what the
    /// oracle-equivalence harness compares.
    ///
    /// Unlike [`dispatch_batch`](SharedNetwork::dispatch_batch), the caller is
    /// not a drain lane: all `parallelism` tickets go to the pool so the
    /// speculation overlaps whatever the caller does next. Collect the
    /// outcomes with [`BackgroundBatch::join`].
    pub fn submit_background_batch(
        self: &Arc<Self>,
        requests: Vec<Request>,
        parallelism: usize,
    ) -> BackgroundBatch {
        self.submit_background_batch_with_policy(requests, parallelism, &FetchPolicy::disabled())
    }

    /// [`submit_background_batch`](SharedNetwork::submit_background_batch)
    /// through the resilient fetch path: each speculative slot spends the
    /// bounded retry budget of `policy` (breaker admission, virtual backoff
    /// against the batch deadline), raising prefetch hit rates under flaky
    /// origins. Speculation stays unlogged either way — retries happen on the
    /// background lane and only a consumed hit ever reaches the log — so the
    /// oracle-equivalence harness sees nothing new.
    pub fn submit_background_batch_with_policy(
        self: &Arc<Self>,
        requests: Vec<Request>,
        parallelism: usize,
        policy: &FetchPolicy,
    ) -> BackgroundBatch {
        let count = requests.len();
        let budget = (!policy.is_disabled()).then(|| Arc::new(BatchBudget::new(self, *policy)));
        let work = BatchWork::new(self, None, requests, budget);
        if count > 0 {
            let tickets = parallelism.clamp(1, count);
            self.pool().ensure_workers(tickets);
            self.pool().submit(&work, tickets, Priority::Background);
        }
        BackgroundBatch { work }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::StatusCode;
    use std::time::Duration;

    fn echo(req: &Request) -> Response {
        Response::ok_text(req.url.path().to_string())
    }

    fn fabric_with_origins(n: usize, latency: Duration) -> Arc<SharedNetwork> {
        let fabric = Arc::new(SharedNetwork::new());
        for k in 0..n {
            let origin = format!("http://h{k}.example");
            fabric.register(&origin, echo);
            fabric.set_latency(&origin, latency);
        }
        fabric
    }

    fn plan(fabric: &Arc<SharedNetwork>, count: usize, origins: usize) -> (u64, Vec<Request>) {
        let requests: Vec<Request> = (0..count)
            .map(|i| Request::get(&format!("http://h{}.example/r{i}", i % origins)).unwrap())
            .collect();
        (fabric.reserve_sequences(count as u64), requests)
    }

    #[test]
    fn batch_results_and_log_read_in_plan_order() {
        let fabric = fabric_with_origins(4, Duration::ZERO);
        let (base, requests) = plan(&fabric, 8, 4);
        let results = fabric.dispatch_batch(base, requests, 4, Priority::Bulk);
        assert_eq!(results.len(), 8);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.as_ref().unwrap().body, format!("/r{i}"));
        }
        let paths: Vec<String> = fabric.log().iter().map(|e| e.url.path().into()).collect();
        let expected: Vec<String> = (0..8).map(|i| format!("/r{i}")).collect();
        assert_eq!(paths, expected);
    }

    #[test]
    fn parallelism_one_never_touches_the_pool() {
        let fabric = fabric_with_origins(2, Duration::ZERO);
        let (base, requests) = plan(&fabric, 4, 2);
        let results = fabric.dispatch_batch(base, requests, 1, Priority::Navigation);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(fabric.fetch_pool_workers(), 0, "inline path spawns nothing");
    }

    #[test]
    fn workers_persist_across_batches() {
        let fabric = fabric_with_origins(4, Duration::from_micros(50));
        for _ in 0..3 {
            let (base, requests) = plan(&fabric, 8, 4);
            let results = fabric.dispatch_batch(base, requests, 4, Priority::Bulk);
            assert!(results.iter().all(Result::is_ok));
        }
        let after_first = fabric.fetch_pool_workers();
        assert!(after_first >= 3, "pool retains its parked workers");
        let (base, requests) = plan(&fabric, 8, 4);
        fabric.dispatch_batch(base, requests, 4, Priority::Bulk);
        assert_eq!(
            fabric.fetch_pool_workers(),
            after_first,
            "a later batch reuses the parked workers instead of spawning"
        );
        assert_eq!(fabric.log_len(), 32);
    }

    #[test]
    fn unreachable_origins_fail_their_slot_not_the_batch() {
        let fabric = fabric_with_origins(2, Duration::ZERO);
        let base = fabric.reserve_sequences(3);
        let requests = vec![
            Request::get("http://h0.example/a").unwrap(),
            Request::get("http://nowhere.example/b").unwrap(),
            Request::get("http://h1.example/c").unwrap(),
        ];
        let results = fabric.dispatch_batch(base, requests, 2, Priority::Bulk);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NetError::HostUnreachable(_))));
        assert!(results[2].is_ok());
        // The unreachable dispatch is not logged, matching dispatch_sequenced.
        assert_eq!(fabric.log_len(), 2);
    }

    #[test]
    fn panicking_handlers_fail_their_slot_and_spare_the_pool() {
        let fabric = fabric_with_origins(1, Duration::ZERO);
        fabric.register("http://boom.example", |req: &Request| -> Response {
            panic!("handler exploded on {}", req.url.path())
        });
        let base = fabric.reserve_sequences(4);
        let requests = vec![
            Request::get("http://h0.example/a").unwrap(),
            Request::get("http://boom.example/b").unwrap(),
            Request::get("http://h0.example/c").unwrap(),
            Request::get("http://boom.example/d").unwrap(),
        ];
        // The batch completes — no hang — with the panicking slots failed.
        let results = fabric.dispatch_batch(base, requests, 3, Priority::Bulk);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NetError::FetchPanicked(_))));
        assert!(results[2].is_ok());
        assert!(matches!(results[3], Err(NetError::FetchPanicked(_))));
        // The pool survived: a later healthy batch over the same workers runs
        // to completion. (The panicked origin's handler mutex is poisoned, but
        // the pool and every other origin are unaffected.)
        let (base, requests) = plan(&fabric, 4, 1);
        let results = fabric.dispatch_batch(base, requests, 3, Priority::Bulk);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn inline_batches_contain_panics_like_pooled_ones() {
        // Parallelism 1 takes the inline path; a panicking handler must fail
        // its own slot there too — whether a batch runs inline or on the pool
        // must not decide between a soft error and a crashed navigating
        // thread.
        let fabric = fabric_with_origins(1, Duration::ZERO);
        fabric.register("http://boom.example", |_req: &Request| -> Response {
            panic!("inline handler exploded")
        });
        let base = fabric.reserve_sequences(3);
        let requests = vec![
            Request::get("http://h0.example/a").unwrap(),
            Request::get("http://boom.example/b").unwrap(),
            Request::get("http://h0.example/c").unwrap(),
        ];
        let results = fabric.dispatch_batch(base, requests, 1, Priority::Bulk);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NetError::FetchPanicked(_))));
        assert!(results[2].is_ok());
        assert_eq!(fabric.fetch_pool_workers(), 0, "inline path spawns nothing");
    }

    #[test]
    fn parallelism_strictly_bounds_batch_concurrency() {
        // A grown pool (4 workers) must not gang up on a width-2 batch: with
        // a handler counting concurrent entries, the high-water mark stays
        // ≤ 2 even though more workers are parked and hungry.
        let fabric = Arc::new(SharedNetwork::new());
        let in_flight = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        for k in 0..4 {
            let in_flight = Arc::clone(&in_flight);
            let high_water = Arc::clone(&high_water);
            fabric.register(&format!("http://h{k}.example"), move |req: &Request| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Response::ok_text(req.url.path().to_string())
            });
        }
        // Grow the pool to 4 with a wide batch first.
        let (base, requests) = plan(&fabric, 8, 4);
        fabric.dispatch_batch(base, requests, 5, Priority::Bulk);
        assert!(fabric.fetch_pool_workers() >= 4);
        // Now a narrow batch: the bound must hold despite the grown pool.
        high_water.store(0, Ordering::SeqCst);
        let (base, requests) = plan(&fabric, 12, 4);
        let results = fabric.dispatch_batch(base, requests, 2, Priority::Bulk);
        assert!(results.iter().all(Result::is_ok));
        assert!(
            high_water.load(Ordering::SeqCst) <= 2,
            "width-2 batch ran {} fetches concurrently",
            high_water.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let fabric = fabric_with_origins(4, Duration::from_micros(100));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let fabric = Arc::clone(&fabric);
                scope.spawn(move || {
                    let (base, requests) = plan(&fabric, 8, 4);
                    let results = fabric.dispatch_batch(base, requests, 4, Priority::Bulk);
                    assert!(results.iter().all(Result::is_ok));
                });
            }
        });
        assert_eq!(fabric.log_len(), 24);
        assert!(fabric.fetch_pool_workers() <= MAX_POOL_WORKERS);
    }

    #[test]
    fn status_codes_travel_through_the_pool() {
        let fabric = Arc::new(SharedNetwork::new());
        fabric.register("http://deny.example", |_req: &Request| {
            Response::error(StatusCode::FORBIDDEN, "no")
        });
        let base = fabric.reserve_sequences(2);
        let requests = vec![
            Request::get("http://deny.example/x").unwrap(),
            Request::get("http://deny.example/y").unwrap(),
        ];
        let results = fabric.dispatch_batch(base, requests, 2, Priority::Bulk);
        for result in results {
            assert_eq!(result.unwrap().status, StatusCode::FORBIDDEN);
        }
    }

    #[test]
    fn navigation_tickets_pop_before_queued_bulk_with_anti_starvation_credit() {
        // Pure queue-policy test: queue 6 navigation tickets behind 2 bulk and
        // 1 background ticket. Pops must serve navigation first, let exactly
        // one bulk ticket through after NAVIGATION_CREDIT consecutive
        // navigation pops, and drain background last.
        let fabric = fabric_with_origins(1, Duration::ZERO);
        let nav = BatchWork::new(&fabric, Some(0), Vec::new(), None);
        let bulk = BatchWork::new(&fabric, Some(0), Vec::new(), None);
        let background = BatchWork::new(&fabric, None, Vec::new(), None);
        let mut queue = PoolQueue {
            navigation: (0..6).map(|_| Arc::clone(&nav)).collect(),
            bulk: (0..2).map(|_| Arc::clone(&bulk)).collect(),
            background: VecDeque::from([Arc::clone(&background)]),
            navigation_streak: 0,
            shutdown: false,
        };
        let mut order = Vec::new();
        while let Some((_, lane)) = queue.pop_ticket() {
            order.push(lane);
        }
        use Priority::{Background, Bulk, Navigation};
        assert_eq!(
            order,
            vec![
                Navigation, Navigation, Navigation, Navigation, // credit exhausted
                Bulk,       // anti-starvation valve fires
                Navigation, Navigation, // remaining navigation work
                Bulk, Background, // lanes drain in priority order
            ]
        );
    }

    #[test]
    fn background_batches_dispatch_unlogged_and_join_in_plan_order() {
        let fabric = fabric_with_origins(2, Duration::from_micros(50));
        let requests: Vec<Request> = (0..4)
            .map(|i| Request::get(&format!("http://h{}.example/bg{i}", i % 2)).unwrap())
            .collect();
        let batch = fabric.submit_background_batch(requests, 2);
        let results = batch.join();
        assert_eq!(results.len(), 4);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.as_ref().unwrap().body, format!("/bg{i}"));
        }
        // Speculative dispatches never touch the sequence-ordered log.
        assert_eq!(fabric.log_len(), 0);
        // An empty batch joins immediately instead of parking forever.
        assert!(fabric
            .submit_background_batch(Vec::new(), 4)
            .join()
            .is_empty());
    }

    #[test]
    fn resilient_batches_retry_faulted_slots_and_keep_the_log_in_plan_order() {
        use crate::fault::FaultPlan;
        let fabric = fabric_with_origins(2, Duration::ZERO);
        // The first dispatch to h0 times out once; a single retry heals it.
        fabric.inject_fault("http://h0.example", FaultPlan::new().fail_first(1));
        let (base, requests) = plan(&fabric, 6, 2);
        let policy = FetchPolicy::default().with_max_retries(2);
        let results = fabric.dispatch_batch_with_policy(base, requests, 3, Priority::Bulk, &policy);
        assert!(results.iter().all(|(outcome, _)| outcome.is_ok()));
        let total_retries: u32 = results.iter().map(|(_, retries)| *retries).sum();
        assert_eq!(total_retries, 1, "exactly the one faulted slot retried");
        assert_eq!(fabric.faults_injected(), 1);
        assert_eq!(fabric.retry_attempts(), 1);
        assert_eq!(fabric.retry_successes(), 1);
        // The healed retry logged under its originally reserved sequence, so
        // the sequence-sorted log still reads in exact plan order.
        let paths: Vec<String> = fabric.log().iter().map(|e| e.url.path().into()).collect();
        let expected: Vec<String> = (0..6).map(|i| format!("/r{i}")).collect();
        assert_eq!(paths, expected);
    }

    #[test]
    fn queued_navigation_work_preempts_a_draining_bulk_batch() {
        // Saturate the pool with one wide, slow bulk batch from a helper
        // thread, then submit a navigation batch: workers finishing a bulk
        // request must park the bulk ticket and serve navigation first. The
        // preemption counter is the witness; the bulk batch still completes
        // (anti-starvation is about fairness, completion is structural — the
        // submitter always drains its own batch).
        let fabric = Arc::new(SharedNetwork::new());
        fabric.register("http://slow.example", |req: &Request| {
            std::thread::sleep(Duration::from_millis(2));
            Response::ok_text(req.url.path().to_string())
        });
        fabric.register("http://nav.example", echo);
        // Many more requests than drain lanes: the batch's pending list must
        // still hold work when the navigation batch arrives, because only a
        // ticket with work behind it parks.
        const BULK_REQUESTS: usize = 192;
        let bulk_fabric = Arc::clone(&fabric);
        let storm = std::thread::spawn(move || {
            let base = bulk_fabric.reserve_sequences(BULK_REQUESTS as u64);
            let requests = (0..BULK_REQUESTS)
                .map(|i| Request::get(&format!("http://slow.example/b{i}")).unwrap())
                .collect();
            let results = bulk_fabric.dispatch_batch(base, requests, 48, Priority::Bulk);
            assert!(results.iter().all(Result::is_ok));
        });
        // Wait until the storm's first round has demonstrably completed (its
        // entries reach the log) so every pool worker is mid-drain, then ask
        // for navigation work.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while fabric.log_len() < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        let base = fabric.reserve_sequences(4);
        let requests = (0..4)
            .map(|i| Request::get(&format!("http://nav.example/n{i}")).unwrap())
            .collect();
        let results = fabric.dispatch_batch(base, requests, 4, Priority::Navigation);
        assert!(results.iter().all(Result::is_ok));
        storm.join().unwrap();
        assert!(
            fabric.fetch_pool_preemptions() >= 1,
            "no bulk worker yielded to the queued navigation batch"
        );
        assert_eq!(
            fabric.log_len(),
            BULK_REQUESTS + 4,
            "both batches completed"
        );
    }
}
