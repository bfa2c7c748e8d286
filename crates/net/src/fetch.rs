//! The fetch pipeline: every fetch the browser makes is a [`FetchPlan`] run
//! by one executor, [`SharedNetwork::execute`].
//!
//! Mediation happens before a plan exists: each request already carries the
//! `Cookie` header the reference monitor attached. What follows is transport,
//! stated here once for navigations and XHR (width-1 plans), subresource
//! plans and speculative prefetch. A plan says what its transport may use;
//! the executor derives every other rule:
//!
//! 1. **Sequences.** A logged plan reserves one contiguous block of log
//!    sequences before anything else happens, so the sequence-sorted log
//!    reads in plan order however the fetches complete. A speculative plan is
//!    unlogged.
//! 2. **Consult.** Only `GET` requests without a body are looked up, and only
//!    in [`FetchPlan::layers`]. A hit is logged under its slot's sequence,
//!    byte-identical to the live fetch it replaces.
//! 3. **Single-flight.** When the plan may use the persistent layer, a later
//!    slot repeating an earlier miss's (URL, `Cookie` header) rides that
//!    slot's fetch. It is logged under its own sequence and counted in
//!    [`FabricCounters::cache_coalesced`](crate::FabricCounters::cache_coalesced).
//! 4. **Windows.** Each stage runs as one deadline window ([`crate::window`])
//!    with its own retry budget. A duplicate whose primary failed runs after
//!    all stages, in plan order, as its own width-1 window with its own
//!    budget, exactly as a slot that was never coalesced.
//! 5. **Admit.** A wire response of a cacheable slot enters the persistent
//!    layer when the plan may use it and
//!    [`ResponseCache::admits`](crate::ResponseCache::admits) accepts it.
//!    A speculative plan consults nothing; its responses enter the one-shot
//!    layer when the batch is joined on the navigating thread
//!    ([`crate::prefetch::BackgroundBatch::join`]), so a page's own
//!    subresource consult never races a one-shot entry.
//!
//! A width-1 window contains a handler panic like any other, so a navigation
//! or XHR to a panicking origin fails with [`NetError::FetchPanicked`]
//! instead of unwinding the session.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::NetError;
use crate::fault::FetchPolicy;
use crate::message::{Method, Request, Response};
use crate::response_cache::{CacheLayers, ResponseCache};
use crate::shared_network::SharedNetwork;
use crate::url::Url;
use crate::window::run_window;

/// A batch of already-mediated requests and what their transport may use.
#[derive(Debug, Clone)]
pub struct FetchPlan {
    /// The requests in plan order, each carrying its mediated `Cookie` header.
    pub requests: Vec<Request>,
    /// Plan indices at which a new stage starts. Each stage's window drains
    /// before the next one starts (a page's critical resources, then its
    /// images); empty for a single stage.
    pub stages: Vec<usize>,
    /// The cache layers the plan may consult; the persistent layer also
    /// admits its responses and enables single-flight.
    pub layers: CacheLayers,
    /// Speculation: unlogged, consults nothing, stores nothing itself.
    pub speculative: bool,
    /// Bound on the requests each window keeps in flight overall (the
    /// per-origin bound of 6 applies under any width).
    pub width: usize,
    /// Retries, deadline and breaker for every request of the plan.
    pub policy: FetchPolicy,
}

impl FetchPlan {
    /// A logged single-stage plan over `requests` that consults no cache.
    #[must_use]
    pub fn new(requests: Vec<Request>, width: usize, policy: FetchPolicy) -> Self {
        FetchPlan {
            requests,
            stages: Vec::new(),
            layers: CacheLayers::NONE,
            speculative: false,
            width,
            policy,
        }
    }
}

/// Where a fetched slot's response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The wire: the origin was asked (or the attempt failed).
    Wire,
    /// A persistent `max-age` cache entry.
    Persistent,
    /// A one-shot speculative-prefetch entry, consumed by this hit.
    OneShot,
    /// An earlier slot of the same plan with the same URL and `Cookie` header.
    Coalesced,
}

/// One slot's outcome, in plan order.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The response, or the final error once the slot's retries ran out.
    pub outcome: Result<Arc<Response>, NetError>,
    /// Retries the slot consumed.
    pub retries: u32,
    /// Where the response came from.
    pub source: Source,
    /// `true` when the response entered the cache: the persistent layer for
    /// a logged plan, the one-shot layer when a speculative batch is joined.
    pub cached: bool,
}

impl Fetched {
    fn served(response: Arc<Response>, source: Source) -> Self {
        Fetched {
            outcome: Ok(response),
            retries: 0,
            source,
            cached: false,
        }
    }
}

/// A plan slot while the executor runs.
#[derive(Default)]
struct Slot {
    /// Taken when the request goes on the wire.
    request: Option<Request>,
    /// A cacheable miss whose wire response the persistent layer may admit.
    storable: bool,
    /// The earlier slot whose fetch this duplicate rides.
    primary: Option<usize>,
    fetched: Option<Fetched>,
}

/// The `Cookie` header a request carries, empty for none: the mediation plan
/// a cache entry is keyed by.
pub(crate) fn cookie_header(request: &Request) -> &str {
    request.headers.get("Cookie").unwrap_or("")
}

impl SharedNetwork {
    /// Runs `plan` and returns one [`Fetched`] per request, in plan order:
    /// consult, single-flight, one deadline window per stage, then admission
    /// (see the [module docs](crate::fetch)). Each slot carries its own
    /// error; none fails the plan.
    pub fn execute(&self, plan: FetchPlan) -> Vec<Fetched> {
        let count = plan.requests.len();
        let base = (!plan.speculative).then(|| self.reserve_sequences(count as u64));
        let mut slots: Vec<Slot> = plan
            .requests
            .into_iter()
            .map(|request| Slot {
                request: Some(request),
                ..Slot::default()
            })
            .collect();
        if let Some(base) = base.filter(|_| plan.layers.one_shot || plan.layers.persistent) {
            self.consult(base, plan.layers, &mut slots);
        }
        let mut start = 0;
        for end in plan.stages.into_iter().chain([count]) {
            let end = end.clamp(start, count);
            let stage = (start..end)
                .filter(|&i| slots[i].fetched.is_none() && slots[i].primary.is_none())
                .collect();
            self.run_stage(base, &mut slots, stage, plan.width, plan.policy);
            start = end;
        }
        for i in 0..count {
            let Some(primary) = slots[i].primary else {
                continue;
            };
            match slots[primary].fetched.as_ref().map(|f| f.outcome.clone()) {
                Some(Ok(response)) => {
                    let request = slots[i].request.take().expect("duplicate has request");
                    let sequence = base.expect("only logged plans coalesce") + i as u64;
                    self.record_cache_hit(sequence, &request, response.status.0);
                    self.cache.note_coalesced(1);
                    slots[i].fetched = Some(Fetched::served(response, Source::Coalesced));
                }
                _ => self.run_stage(base, &mut slots, vec![i], 1, plan.policy),
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.fetched.expect("every plan slot resolved"))
            .collect()
    }

    /// Looks every cacheable slot up in `layers`, logging each hit under its
    /// slot's sequence. With the persistent layer in play, each miss is
    /// marked storable or pointed at the first slot with its URL and `Cookie`
    /// header.
    ///
    /// Lookups borrow their keys: each slot's URL is serialized once, into
    /// one reused buffer, and its `Cookie` header is read in place.
    /// Single-flight keys on the slots' own URLs and headers, borrowed too;
    /// an owned `(url, header)` pair is built only for a wire response the
    /// persistent layer admits ([`SharedNetwork::run_stage`]). Freshness is
    /// judged at one fabric-clock reading for the whole plan.
    fn consult(&self, base: u64, layers: CacheLayers, slots: &mut [Slot]) {
        let now_ns = self.clock_now_ns();
        let mut url = String::new();
        for (i, slot) in slots.iter_mut().enumerate() {
            let request = slot.request.as_ref().expect("unsent slot has request");
            if request.method != Method::Get || !request.body.is_empty() {
                continue;
            }
            url.clear();
            write!(url, "{}", request.url).expect("writing to a String cannot fail");
            let cookie = cookie_header(request);
            if let Some(hit) = self.cache_lookup(&url, cookie, now_ns, layers) {
                self.record_cache_hit(base + i as u64, request, hit.response.status.0);
                let source = if hit.one_shot {
                    Source::OneShot
                } else {
                    Source::Persistent
                };
                slot.fetched = Some(Fetched::served(hit.response, source));
            } else {
                slot.storable = layers.persistent;
            }
        }
        // Single-flight: a repeated miss rides the first slot with its key.
        let mut first_slot: HashMap<(&Url, &str), usize> = HashMap::new();
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            let Some(request) = slot.request.as_ref().filter(|_| slot.storable) else {
                continue;
            };
            match first_slot.entry((&request.url, cookie_header(request))) {
                Entry::Occupied(primary) => duplicates.push((i, *primary.get())),
                Entry::Vacant(vacant) => {
                    vacant.insert(i);
                }
            }
        }
        for (i, primary) in duplicates {
            slots[i].storable = false;
            slots[i].primary = Some(primary);
        }
    }

    /// Runs the slots at `indices` as one deadline window, which spends its
    /// own retry budget, and offers each successful storable response to the
    /// persistent layer, whose
    /// [`ResponseCache::admits`](crate::ResponseCache::admits) decides before
    /// the entry's key is built.
    fn run_stage(
        &self,
        base: Option<u64>,
        slots: &mut [Slot],
        indices: Vec<usize>,
        width: usize,
        policy: FetchPolicy,
    ) {
        if indices.is_empty() {
            return;
        }
        let entries = indices
            .iter()
            .map(|&i| (i, slots[i].request.take().expect("unsent slot has request")))
            .collect();
        let results = run_window(self, base, entries, width, policy);
        for (i, (outcome, retries)) in indices.into_iter().zip(results) {
            let mut cached = false;
            let outcome = outcome.map(|(response, request)| {
                let response = Arc::new(response);
                if slots[i].storable && ResponseCache::admits(&response, false) {
                    let url = request.url.to_string();
                    cached = self.cache_store(
                        &url,
                        cookie_header(&request),
                        Arc::clone(&response),
                        false,
                    );
                }
                response
            });
            slots[i].fetched = Some(Fetched {
                outcome,
                retries,
                source: Source::Wire,
                cached,
            });
        }
    }
}

#[cfg(test)]
impl SharedNetwork {
    /// Runs `requests` as one logged, uncached plan of `width`, returning
    /// each slot's outcome and retries.
    pub(crate) fn run_plan(
        &self,
        requests: Vec<Request>,
        width: usize,
        policy: &FetchPolicy,
    ) -> Vec<(Result<Arc<Response>, NetError>, u32)> {
        self.execute(FetchPlan::new(requests, width, *policy))
            .into_iter()
            .map(|fetched| (fetched.outcome, fetched.retries))
            .collect()
    }

    /// Runs a `GET` of `url` as a logged, uncached width-1 plan under
    /// `policy`: a navigation of a session without a cache.
    pub(crate) fn fetch_with(
        &self,
        url: &str,
        policy: &FetchPolicy,
    ) -> Result<Arc<Response>, NetError> {
        let request = Request::get(url).expect("test URL");
        self.run_plan(vec![request], 1, policy).remove(0).0
    }

    /// [`fetch_with`](SharedNetwork::fetch_with) under the disabled policy.
    pub(crate) fn fetch(&self, url: &str) -> Result<Arc<Response>, NetError> {
        self.fetch_with(url, &FetchPolicy::disabled())
    }
}
