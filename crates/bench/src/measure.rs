//! Timed page loads, event dispatches and policy-decision throughput, plus
//! the timing kit every bench shares: [`spawn_join`], [`timed_threads`],
//! [`Rate`], [`best_of`] and [`p99_ns`].

use std::ops::Sub;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use escudo_browser::{Browser, PolicyMode};
use escudo_core::context::{ObjectContext, PrincipalContext};
use escudo_core::{Operation, PolicyEngine, RuleEngine};
use escudo_dom::EventType;
use escudo_net::{Request, Response};

use crate::workload::DecisionCheck;

/// The timing sample of one page load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadSample {
    /// Parse time in nanoseconds.
    pub parse_ns: u128,
    /// ESCUDO bookkeeping (label extraction) time in nanoseconds.
    pub label_ns: u128,
    /// Script execution time in nanoseconds.
    pub script_ns: u128,
    /// Layout/render time in nanoseconds.
    pub render_ns: u128,
    /// Subresource fetches dispatched during the load.
    pub subresource_requests: u64,
    /// Cookie-`use` denials issued while mediating the load's subresources.
    pub subresource_denials: u64,
    /// Wall-clock time of the subresource fetch fan-out, in nanoseconds
    /// (overlapped time under the pipelined loader).
    pub subresource_fetch_ns: u128,
}

impl LoadSample {
    /// The quantity Figure 4 plots: parse + ESCUDO bookkeeping + render.
    #[must_use]
    pub fn parse_and_render_ns(&self) -> u128 {
        self.parse_ns + self.label_ns + self.render_ns
    }
}

/// Loads `html` once in a fresh browser under `mode` and returns the timing sample.
#[must_use]
pub fn load_once(mode: PolicyMode, html: &str) -> LoadSample {
    let mut browser = Browser::new(mode);
    let page_html = html.to_string();
    browser
        .fabric()
        .register("http://workload.example", move |_req: &Request| {
            Response::ok_html(page_html.clone())
        });
    let page = browser
        .navigate("http://workload.example/")
        .expect("workload page loads");
    let stats = browser.page(page).stats;
    LoadSample {
        parse_ns: stats.parse_ns,
        label_ns: stats.label_ns,
        script_ns: stats.script_ns,
        render_ns: stats.render_ns,
        subresource_requests: stats.subresource_requests,
        subresource_denials: stats.subresource_denials,
        subresource_fetch_ns: stats.subresource_fetch_ns,
    }
}

/// Runs `work(t)` for `t` in `0..threads` on scoped threads and returns the
/// results in thread order.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn spawn_join<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || work(t))).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Runs `work(t)` on `threads` scoped threads released together by a barrier
/// and returns the results in thread order with the timed window: from the
/// *earliest* per-thread start (taken right after the barrier) to the
/// *latest* per-thread finish. Spawn and join overhead stay outside the
/// window, every thread's work falls inside it, and no thread's head start
/// can shorten it.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub fn timed_threads<T: Send>(
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, Duration) {
    let barrier = Barrier::new(threads);
    let runs = spawn_join(threads, |t| {
        barrier.wait();
        let start = Instant::now();
        let result = work(t);
        (start, Instant::now(), result)
    });
    let first_start = runs
        .iter()
        .map(|run| run.0)
        .min()
        .expect("at least one thread");
    let last_finish = runs
        .iter()
        .map(|run| run.1)
        .max()
        .expect("at least one thread");
    (
        runs.into_iter().map(|run| run.2).collect(),
        last_finish - first_start,
    )
}

/// Operations completed inside one timed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    /// Threads the window ran on (for page loads: the in-flight bound).
    pub width: usize,
    /// Operations completed inside the window, across all threads.
    pub ops: u64,
    /// Wall-clock nanoseconds of the window.
    pub elapsed_ns: u128,
}

impl Rate {
    /// Aggregate operations per second.
    #[must_use]
    pub fn per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1.0e9 / self.elapsed_ns as f64
        }
    }

    /// Mean nanoseconds per operation (aggregate wall time / operations).
    #[must_use]
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.ops as f64
        }
    }
}

/// The best of repeated samples: the one with the lowest `key`, and the
/// max−min spread of `key` across all of them. Scheduler noise only ever
/// slows a run down, so the fastest sample is the least noisy estimate and
/// the spread is the bench's own run-to-run noise.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn best_of<T, K>(samples: impl IntoIterator<Item = T>, key: impl Fn(&T) -> K) -> (T, K)
where
    K: Copy + PartialOrd + Sub<Output = K>,
{
    let mut samples = samples.into_iter();
    let mut best = samples.next().expect("best of zero samples");
    let (mut low, mut high) = (key(&best), key(&best));
    for sample in samples {
        let value = key(&sample);
        if value > high {
            high = value;
        }
        if value < low {
            low = value;
            best = sample;
        }
    }
    (best, high - low)
}

/// Nearest-rank p99: the smallest sample at least 99% of the samples do not
/// exceed (the ⌈0.99·n⌉-th smallest). Sorts `samples` in place.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn p99_ns(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "p99 of an empty sample set");
    samples.sort_unstable();
    samples[(samples.len() * 99).div_ceil(100) - 1]
}

/// Statistics over repeated samples of one quantity (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleStats {
    /// Number of samples.
    pub runs: usize,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median in nanoseconds (robust against scheduler noise on sub-millisecond loads).
    pub median_ns: u128,
    /// Minimum in nanoseconds.
    pub min_ns: u128,
    /// Maximum in nanoseconds.
    pub max_ns: u128,
}

impl SampleStats {
    /// Computes statistics from raw samples.
    #[must_use]
    pub fn from_samples(samples: &[u128]) -> Self {
        if samples.is_empty() {
            return SampleStats::default();
        }
        let sum: u128 = samples.iter().sum();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        SampleStats {
            runs: samples.len(),
            mean_ns: sum as f64 / samples.len() as f64,
            median_ns: sorted[sorted.len() / 2],
            min_ns: sorted[0],
            max_ns: *sorted.last().expect("non-empty"),
        }
    }

    /// Minimum in milliseconds.
    #[must_use]
    pub fn min_ms(&self) -> f64 {
        self.min_ns as f64 / 1_000_000.0
    }
}

/// Measures the parse+render time of `html` over `runs` loads under each of
/// the two `modes`, interleaved: every run loads the page once per mode, and
/// the mode that goes first alternates from run to run. A burst of host noise
/// then slows both modes alike instead of skewing whichever block it lands
/// in. Returns one [`SampleStats`] per mode, in the order of `modes`.
#[must_use]
pub fn measure_parse_render(modes: [PolicyMode; 2], html: &str, runs: usize) -> [SampleStats; 2] {
    let mut samples = [Vec::with_capacity(runs), Vec::with_capacity(runs)];
    for run in 0..runs {
        for k in 0..2 {
            let m = k ^ (run % 2);
            samples[m].push(load_once(modes[m], html).parse_and_render_ns());
        }
    }
    samples.map(|s| SampleStats::from_samples(&s))
}

/// Measures UI-event dispatch time: fires `click` on a handler-carrying element `runs`
/// times and reports per-dispatch statistics.
#[must_use]
pub fn measure_event_dispatch(
    mode: PolicyMode,
    html: &str,
    element_id: &str,
    runs: usize,
) -> SampleStats {
    let mut browser = Browser::new(mode);
    let page_html = html.to_string();
    browser
        .fabric()
        .register("http://workload.example", move |_req: &Request| {
            Response::ok_html(page_html.clone())
        });
    let page = browser
        .navigate("http://workload.example/")
        .expect("workload page loads");
    let samples: Vec<u128> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let _ = browser.fire_event(page, element_id, EventType::Click);
            start.elapsed().as_nanos()
        })
        .collect();
    SampleStats::from_samples(&samples)
}

/// Decision throughput of the ESCUDO engine, per check and per batch, next to
/// the raw decision procedure and the same-origin baseline engine.
///
/// * `engine` — [`RuleEngine::decide`](PolicyEngine::decide) in ESCUDO mode,
/// * `batch` — [`PolicyEngine::decide_many`] over the whole workload,
/// * `free_fn` — the raw `escudo_core::policy::decide` free function (no engine),
/// * `sop` — the same-origin baseline engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionReport {
    /// Number of checks in the workload.
    pub checks: usize,
    /// Nanoseconds per decision through the ESCUDO engine.
    pub engine_ns: f64,
    /// Nanoseconds per decision for `decide_many` batches on the ESCUDO engine.
    pub batch_ns: f64,
    /// Nanoseconds per decision through the raw free function.
    pub free_fn_ns: f64,
    /// Nanoseconds per decision through the same-origin baseline engine.
    pub sop_ns: f64,
}

impl DecisionReport {
    /// Decisions per second for a per-decision cost in nanoseconds.
    #[must_use]
    pub fn per_second(ns: f64) -> f64 {
        if ns > 0.0 {
            1.0e9 / ns
        } else {
            0.0
        }
    }
}

fn ns_per_check(checks: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / checks.max(1) as f64
}

/// The [best](best_of) of `passes` timed runs of `f`, in nanoseconds per check.
fn best_ns_per_check(passes: usize, checks: usize, mut f: impl FnMut()) -> f64 {
    best_of((0..passes).map(|_| ns_per_check(checks, &mut f)), |&ns| ns).0
}

/// Measures decision throughput over `workload`, taking the best of `passes`
/// timed repetitions for every path.
#[must_use]
pub fn measure_decision_paths(workload: &[DecisionCheck], passes: usize) -> DecisionReport {
    let passes = passes.max(1);
    let n = workload.len();
    let per_check = |engine: &RuleEngine| {
        best_ns_per_check(passes, n, || {
            for (p, o, op) in workload {
                std::hint::black_box(engine.decide(p, o, *op));
            }
        })
    };

    let engine = RuleEngine::new(PolicyMode::Escudo);
    let engine_ns = per_check(&engine);
    let batch: Vec<(&PrincipalContext, &ObjectContext, Operation)> =
        workload.iter().map(|(p, o, op)| (p, o, *op)).collect();
    let batch_ns = best_ns_per_check(passes, n, || {
        std::hint::black_box(engine.decide_many(&batch)).clear();
    });
    let free_fn_ns = best_ns_per_check(passes, n, || {
        for (p, o, op) in workload {
            std::hint::black_box(escudo_core::decide(PolicyMode::Escudo, p, o, *op));
        }
    });
    let sop_ns = per_check(&RuleEngine::new(PolicyMode::SameOriginOnly));

    DecisionReport {
        checks: n,
        engine_ns,
        batch_ns,
        free_fn_ns,
        sop_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{decision_workload, figure4_scenarios, generate_page};

    #[test]
    fn load_once_produces_nonzero_timings() {
        let html = generate_page(&figure4_scenarios()[2]);
        let escudo = load_once(PolicyMode::Escudo, &html);
        assert!(escudo.parse_ns > 0);
        assert!(escudo.render_ns > 0);
        assert!(escudo.label_ns > 0);
        let sop = load_once(PolicyMode::SameOriginOnly, &html);
        // The baseline browser does no ESCUDO bookkeeping at all.
        assert_eq!(sop.label_ns, 0);
    }

    #[test]
    fn sample_stats_summarize_correctly() {
        let stats = SampleStats::from_samples(&[10, 20, 30]);
        assert_eq!(stats.runs, 3);
        assert!((stats.mean_ns - 20.0).abs() < f64::EPSILON);
        assert_eq!(stats.min_ns, 10);
        assert_eq!(stats.max_ns, 30);
        assert_eq!(SampleStats::from_samples(&[]).runs, 0);
    }

    #[test]
    fn event_dispatch_measurement_runs() {
        let html = generate_page(&figure4_scenarios()[1]);
        let stats = measure_event_dispatch(PolicyMode::Escudo, &html, "action-0", 5);
        assert_eq!(stats.runs, 5);
        assert!(stats.mean_ns > 0.0);
    }

    #[test]
    fn timed_threads_covers_every_threads_work() {
        let pause = |t: usize| Duration::from_millis(2 * (t as u64 + 1));
        let (spans, window) = timed_threads(3, |t| {
            let start = Instant::now();
            thread::sleep(pause(t));
            (t, start.elapsed())
        });
        // Results come back in thread order, and the window holds each one.
        assert_eq!(spans.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 1, 2]);
        for (t, span) in spans {
            assert!(span >= pause(t));
            assert!(
                window >= span,
                "window {window:?} misses thread {t}'s {span:?}"
            );
        }
    }

    #[test]
    fn best_of_keeps_the_lowest_key_and_its_spread() {
        let rate = |ops: u64, elapsed_ns: u128| Rate {
            width: 1,
            ops,
            elapsed_ns,
        };
        let (best, spread) = best_of(
            [rate(10, 300), rate(10, 100), rate(10, 200)],
            Rate::ns_per_op,
        );
        assert_eq!(best.elapsed_ns, 100, "the fastest sample wins");
        assert!((spread - 20.0).abs() < 1e-9);
        assert!((best.per_sec() - 1.0e8).abs() < 1e-3);
        assert_eq!(best_of([7u64, 3, 9], |&p99| p99), (3, 6));
        // A single sample is its own best, with no spread.
        assert_eq!(best_of([5u64], |&p99| p99), (5, 0));
    }

    #[test]
    fn p99_is_the_nearest_rank() {
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(p99_ns(&mut hundred), 99);
        // Below 100 samples the nearest rank is the maximum.
        let mut thirty: Vec<u64> = (1..=30).collect();
        assert_eq!(p99_ns(&mut thirty), 30);
        assert_eq!(p99_ns(&mut [30, 10, 20]), 30);
    }

    #[test]
    fn decision_paths_are_measured() {
        let workload = decision_workload(8, 8);
        let report = measure_decision_paths(&workload, 3);
        assert_eq!(report.checks, 64);
        assert!(report.engine_ns > 0.0);
        assert!(report.batch_ns > 0.0);
        assert!(report.free_fn_ns > 0.0);
        assert!(report.sop_ns > 0.0);
    }
}
