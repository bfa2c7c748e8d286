//! `figure4`: the paper's eight Figure 4 pages, loaded in memory with zero
//! latency and no subresources by one client thread. Every ESCUDO navigation
//! is paired with an SOP navigation of the same page; the page order of each
//! round and the order within each pair come from the seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_bench::workload::{figure4_scenarios, generate_page};
use escudo_browser::{Browser, PageLoadStats, PolicyMode};
use escudo_core::PolicyEngine;
use escudo_net::{Request, Response, SharedCookieJar, SharedNetwork};

use crate::stats::Rng;
use crate::trace::{TracedEngine, TracedServer, Tracer};
use crate::{run_for, steady_fabric, Layers, NetCounters, Window, World};

/// Figure 4 pages.
pub const PAGES: usize = 8;

/// Navigations a session makes before it is replaced: a `Browser` keeps every
/// page it loaded, so an unrecycled session would grow with run length.
const RECYCLE_AFTER: usize = 64;

/// Warm-up rounds (each loads every page once per mode) run during setup.
const WARMUP_ROUNDS: usize = 6;

/// Render boxes a correctly loaded Figure 4 page must exceed.
const MIN_BOXES: usize = 10;

/// One session per mode, sharing the fabric and the jar.
struct Session {
    browser: Browser,
    navigations: usize,
}

/// The built `figure4` world.
pub struct Figure4 {
    fabric: Arc<SharedNetwork>,
    jar: Arc<SharedCookieJar>,
    /// Engines for ESCUDO and SOP, shared by every session of that mode.
    engines: [Arc<dyn PolicyEngine>; 2],
    sessions: [Session; 2],
    urls: Vec<String>,
    rng: Rng,
    tracer: Option<Arc<Tracer>>,
    /// Warm-up ops that failed a check, carried into the first window.
    warmup_failed: u64,
}

const MODES: [PolicyMode; 2] = [PolicyMode::Escudo, PolicyMode::SameOriginOnly];

impl Figure4 {
    /// Generates the pages, registers one origin per page and warms up.
    #[must_use]
    pub fn new(seed: u64, tracer: Option<&Arc<Tracer>>) -> Self {
        let fabric = steady_fabric();
        let mut urls = Vec::new();
        for scenario in figure4_scenarios() {
            let html = generate_page(&scenario);
            let origin = format!("http://p{}.figure4.example", scenario.id);
            let server = move |_: &Request| Response::ok_html(html.clone());
            match tracer {
                Some(tracer) => {
                    fabric.register(&origin, TracedServer::new(server, tracer, 0, 0, false))
                }
                None => fabric.register(&origin, server),
            }
            urls.push(format!("{origin}/index.html"));
        }
        let engines = MODES.map(|mode| TracedEngine::for_mode(mode, tracer));
        let jar = Arc::new(SharedCookieJar::new());
        let session = |engine: &Arc<dyn PolicyEngine>| Session {
            browser: Browser::with_network(
                Arc::clone(engine),
                Arc::clone(&jar),
                Arc::clone(&fabric),
            ),
            navigations: 0,
        };
        let sessions = [session(&engines[0]), session(&engines[1])];
        let mut world = Figure4 {
            fabric,
            jar,
            engines,
            sessions,
            urls,
            rng: Rng::new(seed, 0x0F16_0004),
            tracer: tracer.cloned(),
            warmup_failed: 0,
        };
        let mut warmup = Window::default();
        for _ in 0..WARMUP_ROUNDS {
            world.round(&mut warmup, None);
        }
        world.warmup_failed = warmup.failed;
        world
    }

    /// Navigates session `mode` to page `index`, returning the navigation's
    /// wall time and load statistics, or `None` when it failed a check.
    fn navigate(
        &mut self,
        mode: usize,
        index: usize,
        layers: Option<&mut Layers>,
    ) -> Option<(u64, PageLoadStats)> {
        if self.sessions[mode].navigations == RECYCLE_AFTER {
            self.sessions[mode] = Session {
                browser: Browser::with_network(
                    Arc::clone(&self.engines[mode]),
                    Arc::clone(&self.jar),
                    Arc::clone(&self.fabric),
                ),
                navigations: 0,
            };
        }
        let session = &mut self.sessions[mode];
        session.navigations += 1;
        let checks_before = session.browser.erm().checks();
        let denials_before = session.browser.erm().denials();
        let guard = self.tracer.as_ref().map(|t| t.begin_op(0));
        let start = Instant::now();
        let result = session.browser.navigate(&self.urls[index]);
        let end = Instant::now();
        let wall_ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let id = result.ok()?;
        let page = session.browser.page(id);
        if let (Some(tracer), Some(guard)) = (&self.tracer, guard) {
            tracer.end_op(guard, "navigation", end);
            for (name, ns) in [
                ("html.parse", page.stats.parse_ns),
                ("browser.label", page.stats.label_ns),
                ("script.exec", page.stats.script_ns),
                ("browser.render", page.stats.render_ns),
            ] {
                tracer.phase(guard, name, ns);
            }
        }
        if let Some(layers) = layers {
            layers.erm_checks += session.browser.erm().checks() - checks_before;
            layers.erm_denials += session.browser.erm().denials() - denials_before;
            if MODES[mode] == PolicyMode::Escudo {
                layers.page(page, wall_ns);
            }
        }
        let ok = page.all_scripts_succeeded()
            && page.render_stats.boxes > MIN_BOXES
            && (MODES[mode] == PolicyMode::Escudo || page.stats.label_ns == 0);
        ok.then_some((wall_ns, page.stats))
    }

    /// One ESCUDO/SOP pair on page `index`, in seeded order.
    fn pair(&mut self, index: usize, window: &mut Window, traced: bool) {
        let order = if self.rng.coin() { [0, 1] } else { [1, 0] };
        let mut results: [Option<(u64, PageLoadStats)>; 2] = [None, None];
        for mode in order {
            let layers = traced.then_some(&mut window.layers);
            results[mode] = self.navigate(mode, index, layers);
            window.record(results[mode].is_some());
        }
        let [Some((escudo_ns, escudo)), Some((sop_ns, sop))] = results else {
            return;
        };
        window.latency(index, escudo_ns);
        window.pair(escudo_ns, sop_ns);
        if traced {
            let page = index + 1;
            let layers = &mut window.layers;
            let ratio =
                escudo.parse_and_render_ns() as f64 / sop.parse_and_render_ns().max(1) as f64;
            layers.fig4_ratios.entry(page).or_default().push(ratio);
            layers
                .fig4_escudo_ns
                .entry(page)
                .or_default()
                .push(escudo_ns);
        }
    }

    /// Every page once per mode, in a seeded order.
    fn round(&mut self, window: &mut Window, deadline: Option<(Instant, Duration)>) {
        let mut order: Vec<usize> = (0..PAGES).collect();
        self.rng.shuffle(&mut order);
        for index in order {
            self.pair(index, window, deadline.is_some() && self.tracer.is_some());
            if deadline.is_some_and(|(start, budget)| start.elapsed() >= budget) {
                return;
            }
        }
    }

    fn counters(&self) -> NetCounters {
        NetCounters::gather(&self.fabric, &self.jar, &[&self.engines[0]])
    }
}

impl World for Figure4 {
    fn measure(&mut self, budget: Duration) -> Window {
        let before = self.counters();
        let start = Instant::now();
        let mut window = Window {
            attempted: self.warmup_failed,
            failed: std::mem::take(&mut self.warmup_failed),
            ..Window::default()
        };
        run_for(budget, || self.round(&mut window, Some((start, budget))));
        window.elapsed = start.elapsed();
        window.layers.counters = self.counters().since(before);
        window
    }
}
