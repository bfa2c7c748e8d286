//! `shared_fabric`: two session threads share one ESCUDO engine, one SOP
//! engine, one cookie jar and one network fabric with the response cache on.
//! `shared_fabric_nocache` is the same world with the response cache off and
//! only the 8 `no-store` images on each page: every navigation makes the same
//! dispatches as on `shared_fabric`, with no cache consult and no hit.
//! Each session loads its own site: a tiny ring-1 document that sets a ring-1
//! `Domain` session cookie, plus 16 images over 4 image origins, half
//! `max-age=3600` and half `no-store`, every origin at 100 µs ± 20 µs of
//! simulated latency. Every ESCUDO navigation is paired with an SOP
//! navigation of the same site, in seeded order.

use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_browser::{Browser, PageLoadStats, PolicyMode};
use escudo_core::config::CookiePolicy;
use escudo_core::{Acl, PolicyEngine, Ring};
use escudo_net::{
    FaultPlan, Request, Response, SetCookie, SharedCookieJar, SharedNetwork, StatusCode,
};

use crate::stats::Rng;
use crate::trace::{TracedEngine, TracedServer, Tracer};
use crate::{run_for, steady_fabric, Layers, NetCounters, Window, World};

/// Concurrent sessions, one per site.
pub const SESSIONS: usize = 2;

/// Images per site with the response cache on; half of them, the `no-store`
/// ones, with it off.
pub const IMAGES: usize = 16;

/// Image origins per site.
const IMAGE_ORIGINS: usize = 4;

/// Mean simulated latency of every origin, µs; each origin gets a seeded
/// jitter of up to ±[`LATENCY_JITTER_US`].
const LATENCY_US: u64 = 100;
const LATENCY_JITTER_US: u64 = 20;

/// Freshness of the cacheable images, seconds — far beyond any run.
const MAX_AGE_SECS: u64 = 3600;

/// Navigations a browser makes before it is replaced (see `figure4`).
const RECYCLE_AFTER: usize = 32;

/// ESCUDO/SOP pairs each session runs during setup.
const WARMUP_PAIRS: usize = 24;

const MODES: [PolicyMode; 2] = [PolicyMode::Escudo, PolicyMode::SameOriginOnly];

/// Dispatches [`SharedFabric::fail_image_origin`] fails: more than any run
/// makes.
const FAULT_DISPATCHES: u64 = u64::MAX / 2;

fn site_host(index: usize) -> String {
    format!("site{index}.fabric.example")
}

fn cookie_name(index: usize) -> String {
    format!("sid{index}")
}

fn cookie_value(index: usize) -> String {
    format!("session-{index}")
}

/// Registers site `index` on `fabric` and returns its document URL and its
/// image count. Without `cache`, the page holds only the `no-store` images.
fn register_site(
    fabric: &SharedNetwork,
    index: usize,
    rng: &mut Rng,
    tracer: Option<&Arc<Tracer>>,
    cache: bool,
) -> (String, usize) {
    let host = site_host(index);
    // Image j lives on origin j % 4; images 0–3 and 8–11 are cacheable, so
    // every origin serves two cacheable and two no-store images.
    let mut images: Vec<String> = (0..IMAGES)
        .filter_map(|j| {
            let cacheable = (j / IMAGE_ORIGINS).is_multiple_of(2);
            let kind = if cacheable { 'c' } else { 'n' };
            (cache || !cacheable)
                .then(|| format!("http://img{}.{host}/{kind}{j}.png", j % IMAGE_ORIGINS))
        })
        .collect();
    let image_count = images.len();
    rng.shuffle(&mut images);
    let tags: String = images
        .iter()
        .map(|src| format!("<img src=\"{src}\">"))
        .collect();
    let document = format!(
        "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\"><h1 id=\"title\">site {index}</h1>{tags}</body></html>"
    );

    let mut jittered = || {
        let us = LATENCY_US - LATENCY_JITTER_US + rng.below(2 * LATENCY_JITTER_US + 1);
        Duration::from_micros(us)
    };
    let register = |origin: &str,
                    latency: Duration,
                    subresource: bool,
                    server: Box<dyn FnMut(&Request) -> Response + Send>| {
        let latency_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        match tracer {
            Some(tracer) => fabric.register(
                origin,
                TracedServer::new(server, tracer, index, latency_ns, subresource),
            ),
            None => fabric.register(origin, server),
        }
        fabric.set_latency(origin, latency);
    };

    let name = cookie_name(index);
    let value = cookie_value(index);
    // Every request is checked where it arrives: each origin answers 403
    // unless it received the site's own session cookie and nothing else.
    // The document origin accepts no cookie until it has set the session
    // cookie; a 403 document has no images, so the navigation fails its check.
    let own_cookie = {
        let own = (name.clone(), value.clone());
        move |request: &Request| request.cookies() == [own.clone()]
    };
    let policy = CookiePolicy::new(name.clone(), Ring::new(1)).with_acl(Acl::uniform(Ring::new(1)));
    let domain = host.clone();
    let (doc_name, doc_value) = (name.clone(), value.clone());
    let doc_own_cookie = own_cookie.clone();
    let mut cookie_set = false;
    register(
        &format!("http://{host}"),
        jittered(),
        false,
        Box::new(move |request: &Request| {
            let expected = cookie_set || !request.cookies().is_empty();
            if expected && !doc_own_cookie(request) {
                return Response::error(StatusCode::FORBIDDEN, "missing or foreign session cookie");
            }
            cookie_set = true;
            Response::ok_html(document.clone())
                .with_cookie(SetCookie {
                    domain: Some(domain.clone()),
                    path: Some("/".to_string()),
                    ..SetCookie::new(doc_name.clone(), doc_value.clone())
                })
                .with_cookie_policy(&policy)
        }),
    );
    for origin in 0..IMAGE_ORIGINS {
        let own_cookie = own_cookie.clone();
        register(
            &format!("http://img{origin}.{host}"),
            jittered(),
            true,
            Box::new(move |request: &Request| {
                if !own_cookie(request) {
                    return Response::error(
                        StatusCode::FORBIDDEN,
                        "missing or foreign session cookie",
                    );
                }
                let mut response = Response::ok_text("png");
                if request.url.path().starts_with("/c") {
                    response = response.with_max_age(MAX_AGE_SECS);
                } else {
                    response.headers.set("Cache-Control", "no-store");
                }
                response
            }),
        );
    }
    (format!("http://{host}/index.html"), image_count)
}

/// One session thread: a browser per mode on its own site.
struct Session {
    index: usize,
    url: String,
    images: usize,
    browsers: [Browser; 2],
    navigations: [usize; 2],
    engines: [Arc<dyn PolicyEngine>; 2],
    jar: Arc<SharedCookieJar>,
    fabric: Arc<SharedNetwork>,
    rng: Rng,
    tracer: Option<Arc<Tracer>>,
    cache: bool,
}

/// A session browser on the shared engine, jar and fabric, with the response
/// cache on or off.
fn session_browser(
    engine: &Arc<dyn PolicyEngine>,
    jar: &Arc<SharedCookieJar>,
    fabric: &Arc<SharedNetwork>,
    cache: bool,
) -> Browser {
    let mut browser =
        Browser::with_network(Arc::clone(engine), Arc::clone(jar), Arc::clone(fabric));
    browser.set_response_cache_enabled(cache);
    browser
}

impl Session {
    /// Navigates the `mode` browser to the site, returning the wall time and
    /// load statistics, or `None` when the navigation failed a check.
    fn navigate(
        &mut self,
        mode: usize,
        layers: Option<&mut Layers>,
    ) -> Option<(u64, PageLoadStats)> {
        if self.navigations[mode] == RECYCLE_AFTER {
            self.browsers[mode] =
                session_browser(&self.engines[mode], &self.jar, &self.fabric, self.cache);
            self.navigations[mode] = 0;
        }
        self.navigations[mode] += 1;
        let browser = &mut self.browsers[mode];
        let checks_before = browser.erm().checks();
        let denials_before = browser.erm().denials();
        let fanout_before = self
            .tracer
            .as_ref()
            .map_or(0, |t| t.fanout_work_ns(self.index));
        let guard = self.tracer.as_ref().map(|t| t.begin_op(self.index));
        let start = Instant::now();
        let result = browser.navigate(&self.url);
        let end = Instant::now();
        let wall_ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let page = browser.page(result.ok()?);
        if let (Some(tracer), Some(guard)) = (&self.tracer, guard) {
            tracer.end_op(guard, "navigation", end);
            for (name, ns) in [
                ("html.parse", page.stats.parse_ns),
                ("browser.label", page.stats.label_ns),
                ("browser.render", page.stats.render_ns),
                ("net.fanout", page.stats.subresource_fetch_ns),
            ] {
                tracer.phase(guard, name, ns);
            }
        }
        if let Some(layers) = layers {
            layers.erm_checks += browser.erm().checks() - checks_before;
            layers.erm_denials += browser.erm().denials() - denials_before;
            if MODES[mode] == PolicyMode::Escudo {
                layers.page(page, wall_ns);
                let tracer = self
                    .tracer
                    .as_ref()
                    .expect("layers are collected when traced");
                layers.fanout_work_ns += tracer.fanout_work_ns(self.index) - fanout_before;
            }
        }
        let own = cookie_name(self.index);
        let ok = page.subresources.len() == self.images
            && page
                .subresources
                .iter()
                .all(|s| s.succeeded() && s.attached_cookies == [own.as_str()]);
        ok.then_some((wall_ns, page.stats))
    }

    /// One ESCUDO/SOP pair, in seeded order.
    fn pair(&mut self, window: &mut Window) {
        let traced = self.tracer.is_some();
        let order = if self.rng.coin() { [0, 1] } else { [1, 0] };
        let mut walls: [Option<u64>; 2] = [None, None];
        for mode in order {
            let layers = traced.then_some(&mut window.layers);
            walls[mode] = self.navigate(mode, layers).map(|(wall, _)| wall);
            window.record(walls[mode].is_some());
        }
        if let [Some(escudo), Some(sop)] = walls {
            window.latency(0, escudo);
            window.pair(escudo, sop);
        }
    }
}

/// The built `shared_fabric` world.
pub struct SharedFabric {
    fabric: Arc<SharedNetwork>,
    jar: Arc<SharedCookieJar>,
    escudo_engine: Arc<dyn PolicyEngine>,
    sessions: Vec<Session>,
    warmup_failed: u64,
}

impl SharedFabric {
    /// Registers both sites, builds the sessions, with the response cache on
    /// when `cache` is set, and warms up.
    #[must_use]
    pub fn new(seed: u64, tracer: Option<&Arc<Tracer>>, cache: bool) -> Self {
        let fabric = steady_fabric();
        let jar = Arc::new(SharedCookieJar::new());
        let engines = MODES.map(|mode| TracedEngine::for_mode(mode, tracer));
        let mut site_rng = Rng::new(seed, 0x5A_B81C);
        let sessions = (0..SESSIONS)
            .map(|index| {
                let (url, images) = register_site(&fabric, index, &mut site_rng, tracer, cache);
                Session {
                    index,
                    url,
                    images,
                    browsers: engines
                        .each_ref()
                        .map(|e| session_browser(e, &jar, &fabric, cache)),
                    navigations: [0; 2],
                    engines: engines.clone(),
                    jar: Arc::clone(&jar),
                    fabric: Arc::clone(&fabric),
                    rng: Rng::new(seed, 0x5E55_0000 + index as u64),
                    tracer: tracer.cloned(),
                    cache,
                }
            })
            .collect();
        let [escudo_engine, _] = engines;
        let mut world = SharedFabric {
            fabric,
            jar,
            escudo_engine,
            sessions,
            warmup_failed: 0,
        };
        let mut warmup = Window::default();
        for session in &mut world.sessions {
            for _ in 0..WARMUP_PAIRS {
                session.pair(&mut warmup);
            }
        }
        world.warmup_failed = warmup.failed;
        world
    }

    /// Makes one image origin of site 0 fail every dispatch from now on
    /// (`FaultPlan` `FailFirst`). The sessions keep the default
    /// `FetchPolicy::disabled()`, so no retry masks it: the benchmark's own
    /// tests use it to show that the output checks catch failures.
    pub fn fail_image_origin(&self) {
        self.fabric.inject_fault(
            &format!("http://img1.{}", site_host(0)),
            FaultPlan::new().fail_first(FAULT_DISPATCHES),
        );
    }

    fn counters(&self) -> NetCounters {
        NetCounters::gather(&self.fabric, &self.jar, &[&self.escudo_engine])
    }
}

impl World for SharedFabric {
    fn measure(&mut self, budget: Duration) -> Window {
        let mut window = Window {
            attempted: self.warmup_failed,
            failed: std::mem::take(&mut self.warmup_failed),
            ..Window::default()
        };
        let before = self.counters();
        let start = Instant::now();
        let parts: Vec<Window> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .iter_mut()
                .map(|session| {
                    scope.spawn(move || {
                        let mut part = Window::default();
                        run_for(budget, || session.pair(&mut part));
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect()
        });
        window.elapsed = start.elapsed();
        for part in parts {
            window.merge(part);
        }
        window.layers.counters = self.counters().since(before);
        window
    }
}
