//! `app_sessions`: two client threads replay the 64-cell scenario matrix
//! (`escudo_apps::scenario::registry()`: 6 apps, 32 cases, 2 modes). Each
//! thread visits the cases in its own seeded order and runs both modes of a
//! case back to back, in seeded order. Every cell is a fresh session doing
//! logins, form POSTs with redirects, XHR, script DOM writes and ERM denials;
//! each must reproduce the verdict the registry expects and the check and
//! denial counts of the fault-free baseline pass made during setup.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use escudo_apps::scenario::{install_chaos_hook, registry, Scenario, Verdict};
use escudo_browser::{Browser, PolicyMode};
use escudo_core::PolicyEngine;
use escudo_net::{SharedCookieJar, SharedNetwork};

use crate::stats::Rng;
use crate::trace::{TracedEngine, Tracer};
use crate::{run_for, NetCounters, Window, World};

/// Client threads.
pub const CLIENTS: usize = 2;

/// Full matrix passes run during setup after the baseline pass.
const WARMUP_PASSES: usize = 2;

const MODES: [PolicyMode; 2] = [PolicyMode::Escudo, PolicyMode::SameOriginOnly];

/// The handles of one session a cell staged, collected by the chaos hook.
type Handles = (
    Arc<dyn PolicyEngine>,
    Arc<SharedCookieJar>,
    Arc<SharedNetwork>,
);

/// One case of the matrix with its baseline `(checks, denials)` per mode.
#[derive(Debug, Clone, Copy)]
struct Case {
    scenario: usize,
    case: usize,
    baseline: [(u64, u64); 2],
}

/// The built `app_sessions` world.
pub struct AppSessions {
    scenarios: Vec<Scenario>,
    cases: Vec<Case>,
    seed: u64,
    /// Measured windows so far, so every window draws fresh orders.
    windows: u64,
    tracer: Option<Arc<Tracer>>,
    warmup_failed: u64,
}

impl AppSessions {
    /// Builds the registry, captures the fault-free baseline pass and warms up.
    #[must_use]
    pub fn new(seed: u64, tracer: Option<&Arc<Tracer>>) -> Self {
        let scenarios = registry();
        let mut cases = Vec::new();
        let mut warmup_failed = 0;
        for (s, scenario) in scenarios.iter().enumerate() {
            for (c, case) in scenario.cases.iter().enumerate() {
                let mut baseline = [(0, 0); 2];
                for (m, mode) in MODES.into_iter().enumerate() {
                    let run = case.run(mode);
                    if Verdict::from_success(run.succeeded) != case.expected.expected(mode) {
                        warmup_failed += 1;
                    }
                    baseline[m] = (run.checks, run.denials);
                }
                cases.push(Case {
                    scenario: s,
                    case: c,
                    baseline,
                });
            }
        }
        let mut world = AppSessions {
            scenarios,
            cases,
            seed,
            windows: 0,
            tracer: tracer.cloned(),
            warmup_failed,
        };
        let mut warmup = Window::default();
        let mut rng = Rng::new(seed, 0xA990_0000);
        for _ in 0..WARMUP_PASSES {
            world.pass(&mut rng, 0, &mut warmup, None, None);
        }
        world.warmup_failed += warmup.failed;
        world
    }

    /// The `(scenario, case, mode)` baseline checks and denials, summed per
    /// mode: `[(ESCUDO checks, denials), (SOP checks, denials)]`.
    #[must_use]
    pub fn baseline_totals(&self) -> [(u64, u64); 2] {
        let mut totals = [(0, 0); 2];
        for case in &self.cases {
            for (total, (checks, denials)) in totals.iter_mut().zip(case.baseline) {
                total.0 += checks;
                total.1 += denials;
            }
        }
        totals
    }

    /// One cell: runs `case` under `MODES[mode]`, checks it, and returns its
    /// wall time when the checks passed.
    fn cell(
        &self,
        case: Case,
        mode: usize,
        client: usize,
        window: &mut Window,
        collected: Option<&Mutex<Vec<Handles>>>,
    ) -> Option<u64> {
        let scenario = &self.scenarios[case.scenario];
        let staged = &scenario.cases[case.case];
        let guard = self.tracer.as_ref().map(|t| t.begin_op(client));
        let start = Instant::now();
        let run = staged.run(MODES[mode]);
        let end = Instant::now();
        let wall_ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let ok = Verdict::from_success(run.succeeded) == staged.expected.expected(MODES[mode])
            && (run.checks, run.denials) == case.baseline[mode];
        window.record(ok);
        if let (Some(tracer), Some(guard), Some(collected)) = (&self.tracer, guard, collected) {
            tracer.end_op(guard, "cell", end);
            let layers = &mut window.layers;
            layers.erm_checks += run.checks;
            layers.erm_denials += run.denials;
            layers.cell_ns.entry(scenario.id).or_default().push(wall_ns);
            for (engine, jar, fabric) in collected.lock().expect("handle collector lock").drain(..)
            {
                let escudo: &[&Arc<dyn PolicyEngine>] = if engine.mode() == PolicyMode::Escudo {
                    &[&engine]
                } else {
                    &[]
                };
                layers
                    .counters
                    .add(NetCounters::gather(&fabric, &jar, escudo));
                // The apps' servers are registered inside the cell, out of the
                // benchmark's reach: their time is the fabric's own per-origin
                // service estimate for every logged request.
                let log = fabric.log();
                let busy: u64 = log
                    .iter()
                    .map(|entry| fabric.estimated_service_ns(&entry.url.origin()))
                    .sum();
                tracer.add_dispatches(log.len() as u64, busy);
            }
        }
        ok.then_some(wall_ns)
    }

    /// Every case once, both modes back to back, in `rng`'s order; stops early
    /// once `deadline` has passed. `collected` holds the handles the traced
    /// run's chaos hook gathers.
    fn pass(
        &self,
        rng: &mut Rng,
        client: usize,
        window: &mut Window,
        deadline: Option<(Instant, Duration)>,
        collected: Option<&Mutex<Vec<Handles>>>,
    ) {
        let mut order = self.cases.clone();
        rng.shuffle(&mut order);
        for case in order {
            let modes = if rng.coin() { [0, 1] } else { [1, 0] };
            let mut walls = [None, None];
            for mode in modes {
                walls[mode] = self.cell(case, mode, client, window, collected);
            }
            if let [Some(escudo), Some(sop)] = walls {
                window.latency(0, escudo);
                window.latency(0, sop);
                window.pair(escudo, sop);
            }
            if deadline.is_some_and(|(start, budget)| start.elapsed() >= budget) {
                return;
            }
        }
    }

    /// One client thread's share of a window.
    fn client(&self, client: usize, window_index: u64, budget: Duration, start: Instant) -> Window {
        let mut part = Window::default();
        let mut rng = Rng::new(
            self.seed ^ window_index.rotate_left(32),
            0xA990_0001 + client as u64,
        );
        let collected: Arc<Mutex<Vec<Handles>>> = Arc::default();
        // Traced: every cell's session is rebuilt exactly as `Browser::new`
        // builds it, but around a decorated engine, and its handles kept.
        let _guard = self.tracer.as_ref().map(|tracer| {
            let tracer = Arc::clone(tracer);
            let collected = Arc::clone(&collected);
            install_chaos_hook(Arc::new(move |browser: &mut Browser| {
                let engine = TracedEngine::for_mode(browser.mode(), Some(&tracer));
                let jar = Arc::new(SharedCookieJar::new());
                let fabric = Arc::new(SharedNetwork::new());
                *browser = Browser::with_network(
                    Arc::clone(&engine),
                    Arc::clone(&jar),
                    Arc::clone(&fabric),
                );
                collected
                    .lock()
                    .expect("handle collector lock")
                    .push((engine, jar, fabric));
            }))
        });
        let collect = self.tracer.as_ref().map(|_| collected.as_ref());
        run_for(budget, || {
            self.pass(&mut rng, client, &mut part, Some((start, budget)), collect);
        });
        part
    }
}

impl World for AppSessions {
    fn measure(&mut self, budget: Duration) -> Window {
        let mut window = Window {
            attempted: self.warmup_failed,
            failed: std::mem::take(&mut self.warmup_failed),
            ..Window::default()
        };
        self.windows += 1;
        let window_index = self.windows;
        let this = &*self;
        let start = Instant::now();
        let parts: Vec<Window> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| scope.spawn(move || this.client(client, window_index, budget, start)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        window.elapsed = start.elapsed();
        for part in parts {
            window.merge(part);
        }
        window
    }
}
