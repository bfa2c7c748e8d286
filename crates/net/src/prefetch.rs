//! Background prefetch: a session's speculative fetches run on a thread of
//! its own, so they overlap whatever the navigating thread does next.
//!
//! A [`Prefetcher`] starts its thread on the first speculation, feeds it jobs
//! over a channel and joins it on drop. Each job is a speculative
//! [`FetchPlan`] that the thread runs with [`SharedNetwork::execute`]: one
//! **unlogged** deadline window ([`crate::window`]) that spends the
//! session's retry policy, and in which a panicking handler fails its own
//! slot as in every window. Speculation never reaches the sequence-ordered
//! log (a consumed prefetch hit is logged when it is consumed), so it cannot
//! perturb what the oracle-equivalence harness compares. Its responses enter
//! the cache's one-shot layer when the batch is joined
//! ([`BackgroundBatch::join`]).
//!
//! The thread belongs to the session, not to the batch or the fabric: a
//! thread per batch would pay a spawn, and the first wait's timer-slack
//! write, on every prefetching navigation, and one thread per fabric would
//! queue each session behind the others' speculation.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::NetError;
use crate::fetch::{cookie_header, FetchPlan, Fetched, Source};
use crate::shared_network::SharedNetwork;

/// One speculative plan on its way to the prefetch thread.
type Job = Box<dyn FnOnce() + Send>;

/// A session's background prefetch thread, started by the first
/// [`submit`](Prefetcher::submit) and joined on drop.
#[derive(Debug, Default)]
pub struct Prefetcher {
    worker: Option<(Sender<Job>, JoinHandle<()>)>,
}

impl Prefetcher {
    /// Hands a speculative `plan` to the prefetch thread, which runs it with
    /// [`SharedNetwork::execute`], and returns at once. Collect the outcomes
    /// with [`BackgroundBatch::join`].
    pub fn submit(&mut self, fabric: &Arc<SharedNetwork>, plan: FetchPlan) -> BackgroundBatch {
        debug_assert!(plan.speculative, "the prefetch thread runs speculation");
        let (reply, outcomes) = mpsc::channel();
        let batch = BackgroundBatch {
            fabric: Arc::clone(fabric),
            keys: plan
                .requests
                .iter()
                .map(|request| (request.url.to_string(), cookie_header(request).to_string()))
                .collect(),
            outcomes,
        };
        let fabric = Arc::clone(fabric);
        let job: Job = Box::new(move || {
            let fetched = fabric.execute(plan);
            fabric
                .background_requests
                .fetch_add(fetched.len() as u64, Ordering::Relaxed);
            // The submitter may have stopped waiting; nothing to report.
            let _ = reply.send(fetched);
        });
        let (jobs, _) = self.worker.get_or_insert_with(spawn_worker);
        // A send fails only when the thread is gone; the job's reply channel
        // goes with it, and `join` reports every slot as failed.
        let _ = jobs.send(job);
        batch
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        if let Some((jobs, thread)) = self.worker.take() {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

fn spawn_worker() -> (Sender<Job>, JoinHandle<()>) {
    let (jobs, queue) = mpsc::channel::<Job>();
    let thread = std::thread::Builder::new()
        .name("escudo-prefetch".into())
        .spawn(move || queue.into_iter().for_each(|job| job()))
        .expect("spawn prefetch thread");
    (jobs, thread)
}

/// A speculative plan in flight on a [`Prefetcher`]'s thread.
#[derive(Debug)]
pub struct BackgroundBatch {
    fabric: Arc<SharedNetwork>,
    /// `(url, Cookie header)` of each request: its one-shot cache key.
    keys: Vec<(String, String)>,
    outcomes: Receiver<Vec<Fetched>>,
}

impl BackgroundBatch {
    /// Blocks until the batch's window has finished, offers each response to
    /// the cache's one-shot layer under its request's mediated `Cookie`
    /// header ([`Fetched::cached`] says whether it entered), and returns the
    /// outcomes in plan order. Storing here, on the navigating thread, keeps
    /// a page's own subresource consult from racing a one-shot entry.
    #[must_use]
    pub fn join(self) -> Vec<Fetched> {
        let mut fetched = self.outcomes.recv().unwrap_or_else(|_| {
            let stopped = Fetched {
                outcome: Err(NetError::FetchPanicked(
                    "the prefetch thread stopped before the batch finished".into(),
                )),
                retries: 0,
                source: Source::Wire,
                cached: false,
            };
            vec![stopped; self.keys.len()]
        });
        for (slot, (url, cookie)) in fetched.iter_mut().zip(&self.keys) {
            if let Ok(response) = &slot.outcome {
                slot.cached = self
                    .fabric
                    .cache_store(url, cookie, Arc::clone(response), true);
            }
        }
        fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FetchPolicy;
    use crate::message::{Request, Response};
    use crate::FabricCounters;
    use std::time::Duration;

    fn submit(
        prefetcher: &mut Prefetcher,
        fabric: &Arc<SharedNetwork>,
        urls: &[&str],
    ) -> Vec<Result<Arc<Response>, NetError>> {
        let requests = urls.iter().map(|url| Request::get(url).unwrap()).collect();
        let plan = FetchPlan {
            speculative: true,
            ..FetchPlan::new(requests, usize::MAX, FetchPolicy::disabled())
        };
        prefetcher
            .submit(fabric, plan)
            .join()
            .into_iter()
            .map(|fetched| fetched.outcome)
            .collect()
    }

    #[test]
    fn background_batches_dispatch_unlogged_and_join_in_plan_order() {
        let fabric = Arc::new(SharedNetwork::new());
        for origin in ["http://h0.example", "http://h1.example"] {
            fabric.register(origin, |req: &Request| {
                Response::ok_text(req.url.path().to_string())
            });
            fabric.set_latency(origin, Duration::from_micros(50));
        }
        let mut prefetcher = Prefetcher::default();
        let urls = [
            "http://h0.example/a",
            "http://h1.example/b",
            "http://h0.example/c",
        ];
        let results = submit(&mut prefetcher, &fabric, &urls);
        let bodies: Vec<&str> = results
            .iter()
            .map(|r| r.as_ref().unwrap().body.as_str())
            .collect();
        assert_eq!(bodies, ["/a", "/b", "/c"]);
        // Speculative dispatches never touch the sequence-ordered log.
        assert_eq!(fabric.log_len(), 0);
        assert_eq!(FabricCounters::gather(&fabric).pool_jobs_executed, 3);
        assert!(submit(&mut prefetcher, &fabric, &[]).is_empty());
    }

    #[test]
    fn panicking_handlers_fail_their_slot_and_spare_the_thread() {
        let fabric = Arc::new(SharedNetwork::new());
        fabric.register("http://h0.example", |req: &Request| {
            Response::ok_text(req.url.path().to_string())
        });
        fabric.register("http://boom.example", |_req: &Request| -> Response {
            panic!("prefetch handler exploded")
        });
        let mut prefetcher = Prefetcher::default();
        let urls = [
            "http://h0.example/a",
            "http://boom.example/b",
            "http://h0.example/c",
        ];
        let results = submit(&mut prefetcher, &fabric, &urls);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NetError::FetchPanicked(_))));
        assert!(results[2].is_ok());
        // The same thread serves the next batch.
        assert!(submit(&mut prefetcher, &fabric, &urls[..1])[0].is_ok());
        assert_eq!(FabricCounters::gather(&fabric).pool_jobs_executed, 4);
    }
}
