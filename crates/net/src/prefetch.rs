//! Background prefetch: a session's speculative fetches run on a thread of
//! its own, so they overlap whatever the navigating thread does next.
//!
//! A [`Prefetcher`] starts its thread on the first speculation, feeds it jobs
//! over a channel and joins it on drop. Each speculative batch runs there as
//! one **unlogged** deadline window ([`crate::window`]) with no overall
//! width, so only the window's per-origin bound limits it. The batch spends
//! the session's [`FetchPolicy`], and a panicking handler fails its own slot
//! as in every window. Speculation never reaches the sequence-ordered log (a
//! consumed prefetch hit is logged when it is consumed), so it cannot perturb
//! what the oracle-equivalence harness compares.
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
use crate::fault::{BatchBudget, FetchPolicy};
use crate::message::{Request, Response};
use crate::shared_network::SharedNetwork;
use crate::window::run_window;

/// The outcomes of one speculative batch, in plan order.
type Outcomes = Vec<Result<Response, NetError>>;

/// One speculative batch on its way to the prefetch thread.
struct Job {
    fabric: Arc<SharedNetwork>,
    requests: Vec<Request>,
    policy: FetchPolicy,
    reply: Sender<Outcomes>,
}

/// A session's background prefetch thread, started by the first
/// [`submit`](Prefetcher::submit) and joined on drop.
#[derive(Debug, Default)]
pub struct Prefetcher {
    worker: Option<(Sender<Job>, JoinHandle<()>)>,
}

impl Prefetcher {
    /// Hands `requests` to the prefetch thread as one unlogged deadline
    /// window under `policy` and returns at once. Collect the outcomes with
    /// [`BackgroundBatch::join`].
    pub fn submit(
        &mut self,
        fabric: &Arc<SharedNetwork>,
        requests: Vec<Request>,
        policy: &FetchPolicy,
    ) -> BackgroundBatch {
        let (reply, outcomes) = mpsc::channel();
        let batch = BackgroundBatch {
            requests: requests.len(),
            outcomes,
        };
        let job = Job {
            fabric: Arc::clone(fabric),
            requests,
            policy: *policy,
            reply,
        };
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
        .spawn(move || {
            for job in queue {
                let budget =
                    (!job.policy.is_disabled()).then(|| BatchBudget::new(&job.fabric, job.policy));
                let entries = job.requests.into_iter().enumerate().collect();
                let outcomes: Outcomes =
                    run_window(&job.fabric, None, entries, usize::MAX, budget.as_ref())
                        .into_iter()
                        .map(|(outcome, _retries)| outcome)
                        .collect();
                job.fabric
                    .background_requests
                    .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
                // The submitter may have stopped waiting; nothing to report.
                let _ = job.reply.send(outcomes);
            }
        })
        .expect("spawn prefetch thread");
    (jobs, thread)
}

/// A speculative batch in flight on a [`Prefetcher`]'s thread.
#[derive(Debug)]
pub struct BackgroundBatch {
    requests: usize,
    outcomes: Receiver<Outcomes>,
}

impl BackgroundBatch {
    /// Blocks until the batch's window has finished and returns the outcomes
    /// in plan order.
    #[must_use]
    pub fn join(self) -> Outcomes {
        self.outcomes.recv().unwrap_or_else(|_| {
            (0..self.requests)
                .map(|_| {
                    Err(NetError::FetchPanicked(
                        "the prefetch thread stopped before the batch finished".into(),
                    ))
                })
                .collect()
        })
    }
}

impl SharedNetwork {
    /// Speculative requests completed on prefetch threads, failed ones
    /// included.
    #[must_use]
    pub fn background_requests(&self) -> u64 {
        self.background_requests.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn submit(prefetcher: &mut Prefetcher, fabric: &Arc<SharedNetwork>, urls: &[&str]) -> Outcomes {
        let requests = urls.iter().map(|url| Request::get(url).unwrap()).collect();
        prefetcher
            .submit(fabric, requests, &FetchPolicy::disabled())
            .join()
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
        assert_eq!(fabric.background_requests(), 3);
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
        assert_eq!(fabric.background_requests(), 4);
    }
}
