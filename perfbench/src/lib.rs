//! The repository benchmark: closed-loop workloads driven against the real
//! `escudo_browser::Browser` stack, with every output checked.
//!
//! * [`run_end_to_end`] measures what a user of the system sees, with no
//!   instrument installed.
//! * [`run_traced`] repeats the workload with the instruments of [`trace`]
//!   installed and reads the counters the crates already export
//!   (`PageLoadStats`, `EngineStats`, `JarStats`, `FabricCounters`) to build
//!   the per-layer table.
//!
//! `README.md` in this directory maps every metric to its layer, workload and
//! predicted effect.

pub mod apps;
pub mod fabric;
pub mod figure4;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_browser::{FabricCounters, Page};
use escudo_core::PolicyEngine;
use escudo_net::{Method, Request, SharedCookieJar, SharedNetwork, Url};

use stats::{median, ms, quantile, ratio, us};
use trace::{TraceCounts, Tracer};

/// Share of a traced run's budget spent on the untraced baseline window that
/// `trace.overhead_ratio` and `tail.latency_ms_p99` are read from.
const UNTRACED_SHARE: f64 = 0.4;

/// Budget of each reference pass that fills per-layer metrics the traced
/// workload does not exercise (see [`run_traced`]).
const REFERENCE_BUDGET: Duration = Duration::from_secs(2);

/// The scenario ids of `escudo_apps::scenario::registry()`, in registry order.
pub const SCENARIOS: [&str; 6] = ["forum", "calendar", "blog", "spa", "adnet", "vault"];

/// The per-layer metrics, in output order, with their units.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("html.parse_us_p50", "us"),
        ("browser.label_us_p50", "us"),
        ("script.exec_us_p50", "us"),
        ("browser.render_us_p50", "us"),
        ("browser.unaccounted_us_p50", "us"),
        ("browser.unaccounted_frac", "ratio"),
    ]
    .iter()
    .map(|(n, u)| ((*n).to_string(), *u))
    .collect();
    for page in 1..=figure4::PAGES {
        names.push((format!("fig4.p{page}.parse_render_ratio"), "ratio"));
        names.push((format!("fig4.p{page}.escudo_load_us_p50"), "us"));
    }
    for (n, u) in [
        ("core.engine.calls_per_op", "count/op"),
        ("core.engine.checks_per_op", "count/op"),
        ("core.engine.busy_us_per_op", "us/op"),
        ("core.engine.hit_ratio", "ratio"),
        ("browser.erm.checks_per_op", "count/op"),
        ("browser.erm.denials_per_op", "count/op"),
        ("net.fanout_us_p50", "us"),
        ("net.fanout_overlap", "ratio"),
        ("net.fetch_pool.jobs_per_op", "count/op"),
        ("net.fetch_pool.preemptions_per_op", "count/op"),
        ("net.dispatch.requests_per_op", "count/op"),
        ("apps.origin_busy_us_per_op", "us/op"),
        ("net.log.dropped_per_op", "count/op"),
        ("net.retries_per_op", "count/op"),
        ("net.subresource_errors_per_op", "count/op"),
        ("net.response_cache.hit_ratio", "ratio"),
        ("net.response_cache.stored_per_op", "count/op"),
        ("net.response_cache.entries", "count"),
        ("net.shared_jar.stored_per_op", "count/op"),
        ("net.shared_jar.replaced_per_op", "count/op"),
        ("net.shared_jar.evicted_per_op", "count/op"),
    ] {
        names.push((n.to_string(), u));
    }
    for scenario in SCENARIOS {
        names.push((format!("apps.{scenario}.cell_us_p50"), "us"));
    }
    names.push(("tail.latency_ms_p99".to_string(), "ms"));
    names.push(("trace.overhead_ratio".to_string(), "ratio"));
    names
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's eight Figure 4 pages, paired ESCUDO/SOP, in memory.
    Figure4,
    /// Two sessions on one engine, jar and fabric, each loading its own site
    /// of 16 images behind 100 µs origins with the response cache on.
    SharedFabric,
    /// `SharedFabric` with the response cache off and only the `no-store`
    /// images: the same dispatches, with no cache consult.
    SharedFabricNoCache,
    /// Two clients replaying the 64-cell scenario matrix.
    AppSessions,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Figure4,
        Workload::SharedFabric,
        Workload::SharedFabricNoCache,
        Workload::AppSessions,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figure4 => "figure4",
            Workload::SharedFabric => "shared_fabric",
            Workload::SharedFabricNoCache => "shared_fabric_nocache",
            Workload::AppSessions => "app_sessions",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Concurrent sessions (client threads) the workload runs.
    #[must_use]
    pub fn sessions(self) -> usize {
        match self {
            Workload::Figure4 => 1,
            Workload::SharedFabric | Workload::SharedFabricNoCache => fabric::SESSIONS,
            Workload::AppSessions => apps::CLIENTS,
        }
    }
}

/// A built workload, ready to measure.
pub trait World {
    /// Runs ops until `budget` has passed (at least one op), checking each.
    fn measure(&mut self, budget: Duration) -> Window;
}

/// Builds `workload`'s world from `seed`: inputs, servers, sessions and
/// warm-up. With a tracer, the instruments are installed.
#[must_use]
pub fn build(workload: Workload, seed: u64, tracer: Option<&Arc<Tracer>>) -> Box<dyn World> {
    match workload {
        Workload::Figure4 => Box::new(figure4::Figure4::new(seed, tracer)),
        Workload::SharedFabric => Box::new(fabric::SharedFabric::new(seed, tracer, true)),
        Workload::SharedFabricNoCache => Box::new(fabric::SharedFabric::new(seed, tracer, false)),
        Workload::AppSessions => Box::new(apps::AppSessions::new(seed, tracer)),
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Ops attempted (navigations, or scenario cells).
    pub attempted: u64,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// Wall time of the window.
    pub elapsed: Duration,
    /// Wall time (ns) of each op the latency metrics cover, per op class (a
    /// Figure 4 page; one class elsewhere). The samples are kept compact so
    /// that the benchmark's own storage barely moves `rss_mb_peak`.
    pub latency_ns: Vec<Vec<u32>>,
    /// ESCUDO/SOP wall-time ratio per pair of ops.
    pub pair_ratios: Vec<f32>,
    /// Per-layer samples (collected only when traced).
    pub layers: Layers,
}

impl Window {
    /// Counts one op that just completed and whether its checks passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds the wall time of an op of `class` to the latency samples.
    pub fn latency(&mut self, class: usize, ns: u64) {
        if self.latency_ns.len() <= class {
            self.latency_ns.resize_with(class + 1, Vec::new);
        }
        self.latency_ns[class].push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// Adds the ESCUDO/SOP ratio of one pair of ops.
    pub fn pair(&mut self, escudo_ns: u64, sop_ns: u64) {
        self.pair_ratios
            .push((escudo_ns as f64 / sop_ns.max(1) as f64) as f32);
    }

    /// Every latency sample, ns.
    #[must_use]
    pub fn all_latency_ns(&self) -> Vec<u64> {
        self.latency_ns
            .iter()
            .flatten()
            .map(|&ns| u64::from(ns))
            .collect()
    }

    /// The per-op latency `q`-quantile, ms: the geometric mean over op
    /// classes of each class's quantile. The eight Figure 4 pages differ in
    /// size by 25×, and a quantile pooled over them would sit on the edge
    /// between two pages and jump with the page mix of the run.
    #[must_use]
    pub fn latency_ms(&self, q: f64) -> f64 {
        let logs: Vec<f64> = self
            .latency_ns
            .iter()
            .filter_map(|class| quantile(class, q))
            .map(|ns| f64::from(ns).ln())
            .collect();
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp() / 1e6
    }

    /// Completed ops per second of the window.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        ratio(self.attempted as f64, self.elapsed.as_secs_f64())
    }

    /// Folds in another session's window, measured over the same time.
    pub fn merge(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.latency_ns.len() < other.latency_ns.len() {
            self.latency_ns
                .resize_with(other.latency_ns.len(), Vec::new);
        }
        for (mine, theirs) in self.latency_ns.iter_mut().zip(other.latency_ns) {
            mine.extend(theirs);
        }
        self.pair_ratios.extend(other.pair_ratios);
        self.layers.merge(other.layers);
    }
}

/// Runs ops through `op` until `budget` has passed, at least once.
pub fn run_for(budget: Duration, mut op: impl FnMut()) {
    let start = Instant::now();
    loop {
        op();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Request-log bound of the shared fabrics. With the fabric's default bound
/// (64 Ki entries) a single-threaded page load slows by about a quarter while
/// the log fills and keeps drifting once it is full, so no run length gives a
/// steady figure; a 4 Ki bound reaches its steady state within setup.
pub const LOG_CAPACITY: usize = 4096;

/// A fabric with a [`LOG_CAPACITY`] request-log bound, its log filled to
/// that bound with entries for a host no workload uses, so that every window
/// measures the fabric in its steady state: log full, every dispatch
/// evicting. A log still growing toward its bound slows each run down as it
/// fills, so figures would depend on run length.
#[must_use]
pub fn steady_fabric() -> Arc<SharedNetwork> {
    let fabric = Arc::new(SharedNetwork::with_log_capacity(LOG_CAPACITY));
    let request = Request::new(
        Method::Get,
        Url::parse("http://log-fill.example/").expect("literal URL parses"),
    );
    let capacity = fabric.log_capacity() as u64;
    let base = fabric.reserve_sequences(capacity);
    for offset in 0..capacity {
        fabric.record_cache_hit(base + offset, &request, 200);
    }
    fabric
}

/// Counters read from the shared layers at the start and end of a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    /// Fetch-pool jobs run by parked workers.
    pub pool_jobs: u64,
    /// Bulk jobs preempted by navigation-lane arrivals.
    pub preemptions: u64,
    /// Request-log entries dropped past the log bound.
    pub log_dropped: u64,
    /// Retry attempts granted.
    pub retries: u64,
    /// Persistent response-cache hits.
    pub cache_hits: u64,
    /// Responses admitted to the response cache.
    pub cache_stored: u64,
    /// Entries resident in the response cache (a level, not a delta).
    pub cache_entries: u64,
    /// New cookies stored in the jar.
    pub jar_stored: u64,
    /// In-place cookie replacements.
    pub jar_replaced: u64,
    /// Cookies evicted by the jar's capacity bound.
    pub jar_evicted: u64,
    /// Decisions requested of the ESCUDO engines.
    pub decisions: u64,
    /// Of those, decisions served from the engine cache.
    pub decision_hits: u64,
}

impl NetCounters {
    /// Reads the counters of one fabric, one jar and the given ESCUDO engines.
    #[must_use]
    pub fn gather(
        fabric: &SharedNetwork,
        jar: &SharedCookieJar,
        escudo_engines: &[&Arc<dyn PolicyEngine>],
    ) -> Self {
        let f = FabricCounters::gather(fabric);
        let j = jar.stats();
        let (decisions, decision_hits) = escudo_engines
            .iter()
            .map(|engine| engine.stats())
            .fold((0, 0), |(d, h), s| (d + s.decisions, h + s.cache_hits));
        NetCounters {
            pool_jobs: f.pool_jobs_executed,
            preemptions: f.pool_preemptions,
            log_dropped: f.dropped_log_entries,
            retries: f.retry_attempts,
            cache_hits: f.cache_hits,
            cache_stored: f.cache_stored,
            cache_entries: f.cache_entries,
            jar_stored: j.stored,
            jar_replaced: j.replaced,
            jar_evicted: j.evicted,
            decisions,
            decision_hits,
        }
    }

    /// The change since `before`; `cache_entries` stays the current level.
    #[must_use]
    pub fn since(self, before: NetCounters) -> NetCounters {
        NetCounters {
            pool_jobs: self.pool_jobs.saturating_sub(before.pool_jobs),
            preemptions: self.preemptions.saturating_sub(before.preemptions),
            log_dropped: self.log_dropped.saturating_sub(before.log_dropped),
            retries: self.retries.saturating_sub(before.retries),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            cache_stored: self.cache_stored.saturating_sub(before.cache_stored),
            cache_entries: self.cache_entries,
            jar_stored: self.jar_stored.saturating_sub(before.jar_stored),
            jar_replaced: self.jar_replaced.saturating_sub(before.jar_replaced),
            jar_evicted: self.jar_evicted.saturating_sub(before.jar_evicted),
            decisions: self.decisions.saturating_sub(before.decisions),
            decision_hits: self.decision_hits.saturating_sub(before.decision_hits),
        }
    }

    /// Adds another world's counters (levels add too: separate caches).
    pub fn add(&mut self, other: NetCounters) {
        self.pool_jobs += other.pool_jobs;
        self.preemptions += other.preemptions;
        self.log_dropped += other.log_dropped;
        self.retries += other.retries;
        self.cache_hits += other.cache_hits;
        self.cache_stored += other.cache_stored;
        self.cache_entries += other.cache_entries;
        self.jar_stored += other.jar_stored;
        self.jar_replaced += other.jar_replaced;
        self.jar_evicted += other.jar_evicted;
        self.decisions += other.decisions;
        self.decision_hits += other.decision_hits;
    }
}

/// Per-layer samples of a traced window.
#[derive(Debug, Default)]
pub struct Layers {
    /// Parse time per ESCUDO navigation, ns.
    pub parse_ns: Vec<u64>,
    /// Labelling time per ESCUDO navigation, ns.
    pub label_ns: Vec<u64>,
    /// Script time per ESCUDO navigation that ran scripts, ns.
    pub script_ns: Vec<u64>,
    /// Render time per ESCUDO navigation, ns.
    pub render_ns: Vec<u64>,
    /// Navigation wall time the load's own phase timings leave out, ns.
    pub unaccounted_ns: Vec<u64>,
    /// Total wall time of the navigations above, ns.
    pub navigation_wall_ns: u64,
    /// Subresource fan-out wall time per navigation that fanned out, ns.
    pub fanout_ns: Vec<u64>,
    /// Configured latency plus origin time of the fan-outs' dispatches, ns.
    pub fanout_work_ns: u64,
    /// Reference-monitor checks over all ops.
    pub erm_checks: u64,
    /// Reference-monitor denials over all ops.
    pub erm_denials: u64,
    /// Subresources that errored or came back non-2xx.
    pub subresource_errors: u64,
    /// Per Figure 4 page: ESCUDO/SOP parse+render ratios of its pairs.
    pub fig4_ratios: BTreeMap<usize, Vec<f64>>,
    /// Per Figure 4 page: ESCUDO navigation wall times, ns.
    pub fig4_escudo_ns: BTreeMap<usize, Vec<u64>>,
    /// Per scenario id: cell wall times, ns.
    pub cell_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Shared-layer counters over the window.
    pub counters: NetCounters,
}

impl Layers {
    /// Records the document pipeline of one ESCUDO navigation of `wall_ns`.
    pub fn page(&mut self, page: &Page, wall_ns: u64) {
        let s = &page.stats;
        let as_u64 = |ns: u128| u64::try_from(ns).unwrap_or(u64::MAX);
        self.parse_ns.push(as_u64(s.parse_ns));
        self.label_ns.push(as_u64(s.label_ns));
        if !page.scripts.is_empty() {
            self.script_ns.push(as_u64(s.script_ns));
        }
        self.render_ns.push(as_u64(s.render_ns));
        let accounted = as_u64(s.total_ns() + s.subresource_fetch_ns);
        self.unaccounted_ns.push(wall_ns.saturating_sub(accounted));
        self.navigation_wall_ns += wall_ns;
        if s.subresource_requests > 0 {
            self.fanout_ns.push(as_u64(s.subresource_fetch_ns));
        }
        self.subresource_errors +=
            page.subresources.iter().filter(|s| !s.succeeded()).count() as u64;
    }

    /// Folds another session's samples into these.
    pub fn merge(&mut self, other: Layers) {
        self.parse_ns.extend(other.parse_ns);
        self.label_ns.extend(other.label_ns);
        self.script_ns.extend(other.script_ns);
        self.render_ns.extend(other.render_ns);
        self.unaccounted_ns.extend(other.unaccounted_ns);
        self.navigation_wall_ns += other.navigation_wall_ns;
        self.fanout_ns.extend(other.fanout_ns);
        self.fanout_work_ns += other.fanout_work_ns;
        self.erm_checks += other.erm_checks;
        self.erm_denials += other.erm_denials;
        self.subresource_errors += other.subresource_errors;
        for (page, ratios) in other.fig4_ratios {
            self.fig4_ratios.entry(page).or_default().extend(ratios);
        }
        for (page, ns) in other.fig4_escudo_ns {
            self.fig4_escudo_ns.entry(page).or_default().extend(ns);
        }
        for (id, ns) in other.cell_ns {
            self.cell_ns.entry(id).or_default().extend(ns);
        }
        self.counters.add(other.counters);
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value (ops, pairs or navigations).
    pub samples: usize,
    /// Where the value came from when not from the run's own workload.
    pub source: Option<&'static str>,
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted over every measured window.
    pub attempted: u64,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `true` when every op's outputs passed their checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Failed ops over attempted ops.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The metric named `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn absorb(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// A human-readable table: every metric with its unit and sample count.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(
                out,
                "{:<36} {:>14.4} {:<9} n={}",
                m.name, m.value, m.unit, m.samples
            );
            if let Some(source) = m.source {
                let _ = write!(out, "  (from a {source} reference pass)");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{:<36} {:>14.4} {:<9} failed={} attempted={}",
            "fail_frac",
            self.fail_frac(),
            "ratio",
            self.failed,
            self.attempted
        );
        out
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        source: None,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn rss_mb_peak() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run, in `CHUNKS` chunks. Each chunk builds the world afresh,
/// timing the build, and measures it for an equal share of `budget`.
/// `setup_s`, the latency percentiles and the op rate are each the median
/// over the chunks of the chunk's own figure: on a shared host, a stretch of
/// co-tenant load that covers less than half of a run does not move them,
/// while a change that slows most ops moves every chunk. The overhead ratio
/// is the median over every pair of the run.
#[must_use]
pub fn run_end_to_end(workload: Workload, seed: u64, budget: Duration) -> Outcome {
    const CHUNKS: u32 = 30;
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let (mut p50, mut p90, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    let mut ratios = Vec::new();
    for _ in 0..CHUNKS {
        let start = Instant::now();
        let mut world = build(workload, seed, None);
        setup_s.push(start.elapsed().as_secs_f64());
        let chunk = world.measure(budget / CHUNKS);
        outcome.absorb(&chunk);
        p50.push(chunk.latency_ms(0.5));
        p90.push(chunk.latency_ms(0.9));
        rates.push(chunk.throughput());
        samples += chunk.latency_ns.iter().map(Vec::len).sum::<usize>();
        ratios.extend(chunk.pair_ratios);
    }
    outcome.metrics = vec![
        metric("latency_ms_p50", median(&p50).unwrap_or(0.0), "ms", samples),
        metric("latency_ms_p90", median(&p90).unwrap_or(0.0), "ms", samples),
        metric(
            "throughput_ops_s",
            median(&rates).unwrap_or(0.0),
            "1/s",
            outcome.attempted as usize,
        ),
        metric(
            "escudo_overhead_ratio",
            median(&ratios).map_or(0.0, f64::from),
            "ratio",
            ratios.len(),
        ),
        metric(
            "setup_s",
            median(&setup_s).unwrap_or(0.0),
            "s",
            setup_s.len(),
        ),
        metric("rss_mb_peak", rss_mb_peak(), "MB", 1),
    ];
    outcome
}

/// The per-layer table of one traced window, holding only metrics that have
/// samples on this workload.
fn layer_table(window: &Window, counts: TraceCounts) -> BTreeMap<String, Metric> {
    let l = &window.layers;
    let c = &l.counters;
    let ops = window.attempted.max(1) as f64;
    let n = window.attempted as usize;
    let mut table = BTreeMap::new();
    let mut put = |m: Metric| {
        table.insert(m.name.clone(), m);
    };
    let p50_us = |name: &str, samples: &[u64], put: &mut dyn FnMut(Metric)| {
        if let Some(p50) = median(samples) {
            put(metric(name, us(p50), "us", samples.len()));
        }
    };
    p50_us("html.parse_us_p50", &l.parse_ns, &mut put);
    p50_us("browser.label_us_p50", &l.label_ns, &mut put);
    p50_us("script.exec_us_p50", &l.script_ns, &mut put);
    p50_us("browser.render_us_p50", &l.render_ns, &mut put);
    p50_us("browser.unaccounted_us_p50", &l.unaccounted_ns, &mut put);
    if l.navigation_wall_ns > 0 {
        let unaccounted: u64 = l.unaccounted_ns.iter().sum();
        put(metric(
            "browser.unaccounted_frac",
            ratio(unaccounted as f64, l.navigation_wall_ns as f64),
            "ratio",
            l.unaccounted_ns.len(),
        ));
    }
    for (page, ratios) in &l.fig4_ratios {
        if let Some(r) = median(ratios) {
            put(metric(
                &format!("fig4.p{page}.parse_render_ratio"),
                r,
                "ratio",
                ratios.len(),
            ));
        }
    }
    for (page, ns) in &l.fig4_escudo_ns {
        p50_us(&format!("fig4.p{page}.escudo_load_us_p50"), ns, &mut put);
    }
    for (id, ns) in &l.cell_ns {
        p50_us(&format!("apps.{id}.cell_us_p50"), ns, &mut put);
    }
    p50_us("net.fanout_us_p50", &l.fanout_ns, &mut put);
    let fanout_wall: u64 = l.fanout_ns.iter().sum();
    if fanout_wall > 0 {
        put(metric(
            "net.fanout_overlap",
            ratio(l.fanout_work_ns as f64, fanout_wall as f64),
            "ratio",
            l.fanout_ns.len(),
        ));
    }
    let per_op = |x: u64| x as f64 / ops;
    for (name, value, unit) in [
        (
            "core.engine.calls_per_op",
            per_op(counts.engine_calls),
            "count/op",
        ),
        (
            "core.engine.checks_per_op",
            per_op(counts.engine_checks),
            "count/op",
        ),
        (
            "core.engine.busy_us_per_op",
            us(counts.engine_busy_ns) / ops,
            "us/op",
        ),
        (
            "core.engine.hit_ratio",
            ratio(c.decision_hits as f64, c.decisions as f64),
            "ratio",
        ),
        (
            "browser.erm.checks_per_op",
            per_op(l.erm_checks),
            "count/op",
        ),
        (
            "browser.erm.denials_per_op",
            per_op(l.erm_denials),
            "count/op",
        ),
        (
            "net.fetch_pool.jobs_per_op",
            per_op(c.pool_jobs),
            "count/op",
        ),
        (
            "net.fetch_pool.preemptions_per_op",
            per_op(c.preemptions),
            "count/op",
        ),
        (
            "net.dispatch.requests_per_op",
            per_op(counts.dispatches),
            "count/op",
        ),
        (
            "apps.origin_busy_us_per_op",
            us(counts.origin_busy_ns) / ops,
            "us/op",
        ),
        ("net.log.dropped_per_op", per_op(c.log_dropped), "count/op"),
        ("net.retries_per_op", per_op(c.retries), "count/op"),
        (
            "net.subresource_errors_per_op",
            per_op(l.subresource_errors),
            "count/op",
        ),
        (
            "net.response_cache.hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_stored) as f64),
            "ratio",
        ),
        (
            "net.response_cache.stored_per_op",
            per_op(c.cache_stored),
            "count/op",
        ),
        (
            "net.response_cache.entries",
            c.cache_entries as f64,
            "count",
        ),
        (
            "net.shared_jar.stored_per_op",
            per_op(c.jar_stored),
            "count/op",
        ),
        (
            "net.shared_jar.replaced_per_op",
            per_op(c.jar_replaced),
            "count/op",
        ),
        (
            "net.shared_jar.evicted_per_op",
            per_op(c.jar_evicted),
            "count/op",
        ),
    ] {
        put(metric(name, value, unit, n));
    }
    table
}

/// Measures one traced window of `workload`, returning the window, the
/// tracer and the trace counters the window added.
fn traced_window(
    workload: Workload,
    seed: u64,
    budget: Duration,
) -> (Window, Arc<Tracer>, TraceCounts) {
    let tracer = Tracer::new(workload.sessions());
    let mut world = build(workload, seed, Some(&tracer));
    let before = tracer.counts();
    let window = world.measure(budget);
    drop(world);
    let after = tracer.counts();
    let counts = TraceCounts {
        engine_calls: after.engine_calls - before.engine_calls,
        engine_checks: after.engine_checks - before.engine_checks,
        engine_busy_ns: after.engine_busy_ns - before.engine_busy_ns,
        dispatches: after.dispatches - before.dispatches,
        origin_busy_ns: after.origin_busy_ns - before.origin_busy_ns,
    };
    (window, tracer, counts)
}

/// The traced run: an untraced baseline window, then a traced window of the
/// same workload, from which the per-layer table is built. Metrics that need
/// a layer this workload never exercises (Figure 4 pages off `figure4`,
/// scenario cells off `app_sessions`, fan-out on `figure4`, page phases on
/// `app_sessions`, whose pages the benchmark cannot reach) come from short
/// traced reference passes of the other workloads, and are marked as such in
/// the table. Returns the outcome and the main window's tracer.
#[must_use]
pub fn run_traced(workload: Workload, seed: u64, budget: Duration) -> (Outcome, Arc<Tracer>) {
    let mut outcome = Outcome::default();

    let baseline = build(workload, seed, None).measure(budget.mul_f64(UNTRACED_SHARE));
    outcome.absorb(&baseline);

    let (window, tracer, counts) =
        traced_window(workload, seed, budget.mul_f64(1.0 - UNTRACED_SHARE));
    outcome.absorb(&window);
    let mut table = layer_table(&window, counts);
    let baseline_ns = baseline.all_latency_ns();
    let p99 = quantile(&baseline_ns, 0.99).map_or(0.0, ms);
    table.insert(
        "tail.latency_ms_p99".to_string(),
        metric("tail.latency_ms_p99", p99, "ms", baseline_ns.len()),
    );
    table.insert(
        "trace.overhead_ratio".to_string(),
        metric(
            "trace.overhead_ratio",
            ratio(window.latency_ms(0.5), baseline.latency_ms(0.5)),
            "ratio",
            window.all_latency_ns().len(),
        ),
    );

    let names = per_layer_metrics();
    let references = [
        Workload::Figure4,
        Workload::SharedFabric,
        Workload::AppSessions,
    ];
    for other in references {
        if other == workload || names.iter().all(|(name, _)| table.contains_key(name)) {
            continue;
        }
        let (reference, _, counts) = traced_window(other, seed, REFERENCE_BUDGET);
        outcome.absorb(&reference);
        for (name, mut m) in layer_table(&reference, counts) {
            m.source = Some(other.name());
            table.entry(name).or_insert(m);
        }
    }

    outcome.metrics = names
        .into_iter()
        .map(|(name, unit)| {
            table.remove(&name).unwrap_or_else(|| {
                eprintln!("perfbench: no samples for {name}");
                metric(&name, 0.0, unit, 0)
            })
        })
        .collect();
    (outcome, tracer)
}
