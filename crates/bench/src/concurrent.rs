//! The concurrent multi-session workload: N OS threads against one shared engine.
//!
//! The ROADMAP's north star is a deployment serving many users at once, which means
//! one [`EscudoEngine`] (one interning table, one warm decision cache) backing many
//! *independent* browsing sessions concurrently. This module provides the two drivers
//! the `policy_concurrent` bench and the CI gate are built on:
//!
//! * [`run_concurrent_sessions`] — the end-to-end workload: every thread owns a full
//!   browser stack (network, DOM, script interpreter) and drives a real
//!   forum/blog/calendar session — login, page loads, policy-mediated cookie
//!   attachment, script execution — while *sharing* the policy engine with every
//!   other thread,
//! * [`measure_concurrent_throughput`] — the decision-path microbenchmark: T threads
//!   hammer the shared warm engine with the standard decision workload inside one
//!   [`timed_threads`] window.
//!
//! Both return engine statistics taken through the same concurrent `stats()` path the
//! production monitor would use, so the reported hit rates are the self-consistent
//! snapshots the sharded engine guarantees.
//!
//! The **shared cookie jar** ([`SharedCookieJar`]) gets the same treatment for the
//! `jar_concurrent` bench and its CI gate:
//!
//! * [`run_shared_jar_sessions`] — N full browser sessions (disjoint hosts, one
//!   forum instance each) concurrently storing into and attaching from one shared
//!   jar, with cross-session isolation counted afterwards,
//! * [`run_jar_oracle_sessions`] — a deterministic store/header script per session,
//!   every concurrent result compared byte-for-byte against a single-threaded
//!   [`CookieJar`] replay ([`replay_on_shared_jar`] and [`replay_on_oracle_jar`],
//!   which `tests/jar_concurrency.rs` drives too),
//! * [`measure_jar_throughput`] — T threads building `Cookie` headers against one
//!   pre-populated shared jar inside one [`timed_threads`] window.

use std::sync::Arc;

use escudo_apps::{BlogApp, CalendarApp, CalendarConfig, ForumApp, ForumConfig};
use escudo_browser::Browser;
use escudo_core::{EngineStats, EscudoEngine, PolicyEngine};
use escudo_net::{CookieJar, JarStats, SetCookie, SharedCookieJar, Url};

use crate::measure::{spawn_join, timed_threads, Rate};
use crate::oracle::mismatches;
use crate::workload::DecisionCheck;

/// What one session thread did to the shared engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionTally {
    /// Pages successfully loaded (parse + label extraction + scripts + render).
    pub page_loads: u64,
    /// Reference-monitor checks the thread's browser performed.
    pub checks: u64,
    /// Denials among those checks.
    pub denials: u64,
}

/// The aggregate outcome of a concurrent multi-session run.
#[derive(Debug, Clone)]
pub struct SessionWorkloadReport {
    /// Number of OS threads (= concurrent sessions).
    pub threads: usize,
    /// Rounds of page loads each session performed after login.
    pub rounds: usize,
    /// Per-thread tallies, in thread order.
    pub tallies: Vec<SessionTally>,
    /// Engine statistics after all sessions finished.
    pub stats: EngineStats,
}

impl SessionWorkloadReport {
    /// Total pages loaded across all sessions.
    #[must_use]
    pub fn page_loads(&self) -> u64 {
        self.tallies.iter().map(|t| t.page_loads).sum()
    }

    /// Total reference-monitor checks across all sessions.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.tallies.iter().map(|t| t.checks).sum()
    }

    /// Total denials across all sessions.
    #[must_use]
    pub fn denials(&self) -> u64 {
        self.tallies.iter().map(|t| t.denials).sum()
    }
}

impl SessionTally {
    fn of(browser: &Browser, page_loads: u64) -> Self {
        SessionTally {
            page_loads,
            checks: browser.erm().checks(),
            denials: browser.erm().denials(),
        }
    }
}

/// Drives one forum session at `host`: login as `user`, then `rounds` × (topic
/// view + index).
fn drive_forum(mut browser: Browser, host: &str, user: &str, rounds: usize) -> SessionTally {
    let forum = ForumApp::new(ForumConfig::default());
    let state = forum.state();
    browser.fabric().register(&format!("http://{host}"), forum);
    browser
        .navigate(&format!("http://{host}/login.php?user={user}"))
        .expect("forum login");
    state
        .lock()
        .expect("app state lock")
        .topics
        .push(escudo_apps::forum::Topic {
            id: 1,
            title: format!("{user}'s topic"),
            author: user.to_string(),
            body: "workload seed post".to_string(),
        });
    for _ in 0..rounds {
        browser
            .navigate(&format!("http://{host}/viewtopic.php?t=1"))
            .expect("topic view");
        browser
            .navigate(&format!("http://{host}/index.php"))
            .expect("forum index");
    }
    SessionTally::of(&browser, 1 + 2 * rounds as u64)
}

/// Drives one blog session: `rounds + 1` front-page loads (comments, ad slot,
/// inline scripts — the Figure 3 page).
fn drive_blog(mut browser: Browser, rounds: usize) -> SessionTally {
    browser
        .fabric()
        .register("http://blog.example", BlogApp::new());
    for _ in 0..=rounds {
        browser
            .navigate("http://blog.example/")
            .expect("blog front page");
    }
    SessionTally::of(&browser, rounds as u64 + 1)
}

/// Drives one calendar session: login, then `rounds` month views.
fn drive_calendar(mut browser: Browser, user: &str, rounds: usize) -> SessionTally {
    let calendar = CalendarApp::new(CalendarConfig::default());
    let state = calendar.state();
    browser
        .fabric()
        .register("http://calendar.example", calendar);
    browser
        .navigate(&format!("http://calendar.example/login.php?user={user}"))
        .expect("calendar login");
    state
        .lock()
        .expect("app state lock")
        .events
        .push(escudo_apps::calendar::Event {
            id: 1,
            day: 12,
            title: format!("{user}'s standup"),
            description: "concurrent workload seed event".to_string(),
            author: user.to_string(),
        });
    for _ in 0..rounds {
        browser
            .navigate("http://calendar.example/index.php")
            .expect("calendar month view");
    }
    SessionTally::of(&browser, 1 + rounds as u64)
}

/// Runs `threads` independent application sessions concurrently against one shared
/// engine, `rounds` page-load rounds each.
///
/// Thread `t` drives the forum, the blog or the calendar (rotating by `t % 3`) with
/// its own user name, its own in-memory server and its own browser — only the policy
/// engine (and therefore the interning table and decision cache) is shared, exactly
/// as in a multi-tenant enforcement deployment.
///
/// # Panics
///
/// Panics if any session thread fails a page load — the workload is deterministic, so
/// a failure is a real regression, not noise.
#[must_use]
pub fn run_concurrent_sessions(
    engine: &Arc<EscudoEngine>,
    threads: usize,
    rounds: usize,
) -> SessionWorkloadReport {
    let tallies = spawn_join(threads, |t| {
        let browser = Browser::with_engine(Arc::clone(engine) as _);
        let user = format!("user{t}");
        match t % 3 {
            0 => drive_forum(browser, "forum.example", &user, rounds),
            1 => drive_blog(browser, rounds),
            _ => drive_calendar(browser, &user, rounds),
        }
    });
    SessionWorkloadReport {
        threads,
        rounds,
        tallies,
        stats: engine.stats(),
    }
}

/// Measures steady-state aggregate decision throughput: a fresh engine is warmed with
/// one full pass over `workload`, then `threads` OS threads each re-run the workload
/// `passes_per_thread` times concurrently inside one [`timed_threads`] window.
/// Returns the window's [`Rate`] (one operation = one decision) and the cache hit
/// rate over the window only, so it reports the steady state the gate cares about,
/// not the warm-up misses.
#[must_use]
pub fn measure_concurrent_throughput(
    workload: &[DecisionCheck],
    threads: usize,
    passes_per_thread: usize,
) -> (Rate, f64) {
    let engine = EscudoEngine::new();
    for (principal, object, op) in workload {
        std::hint::black_box(engine.decide(principal, object, *op));
    }
    let warm = engine.stats();

    let (_, window) = timed_threads(threads, |_| {
        for _ in 0..passes_per_thread {
            for (principal, object, op) in workload {
                std::hint::black_box(engine.decide(principal, object, *op));
            }
        }
    });

    let stats = engine.stats();
    let decisions = stats.decisions - warm.decisions;
    let hits = stats.cache_hits - warm.cache_hits;
    let rate = Rate {
        width: threads,
        ops: decisions,
        elapsed_ns: window.as_nanos(),
    };
    let hit_rate = if decisions == 0 {
        0.0
    } else {
        hits as f64 / decisions as f64
    };
    (rate, hit_rate)
}

// --------------------------------------------------------------- shared cookie jar

/// The outcome of the shared-jar multi-session workload.
#[derive(Debug, Clone)]
pub struct JarWorkloadReport {
    /// The sessions (one OS thread each, each against its own host).
    pub sessions: SessionWorkloadReport,
    /// Shared-jar statistics after all sessions finished.
    pub jar_stats: JarStats,
    /// Sessions whose own session cookie was present in the shared jar at the end.
    pub sessions_with_cookies: usize,
    /// Cookies that leaked across session hosts: candidates for session `t`'s host
    /// whose stored host is a *different* session's host. Must be 0.
    pub isolation_violations: usize,
}

/// The host session `t` of the shared-jar workload drives.
#[must_use]
pub fn jar_session_host(t: usize) -> String {
    format!("forum{t}.example")
}

/// Runs `threads` full browser sessions concurrently, all storing into **one**
/// shared cookie jar (and deciding through one shared engine). Session `t` drives
/// its own forum instance at [`jar_session_host`]`(t)` — login plus `rounds` ×
/// (topic view + index) — so the jar sees concurrent stores and policy-mediated
/// attachments from every thread while each session's cookies stay scoped to its
/// own host.
///
/// # Panics
///
/// Panics if any session thread fails a page load — the workload is deterministic,
/// so a failure is a real regression, not noise.
#[must_use]
pub fn run_shared_jar_sessions(
    engine: &Arc<EscudoEngine>,
    jar: &Arc<SharedCookieJar>,
    threads: usize,
    rounds: usize,
) -> JarWorkloadReport {
    let tallies = spawn_join(threads, |t| {
        let browser = Browser::with_jar(Arc::clone(engine) as _, Arc::clone(jar));
        drive_forum(browser, &jar_session_host(t), &format!("user{t}"), rounds)
    });

    // Cross-session isolation: every candidate for session t's host must have been
    // stored under exactly that host (forum cookies are host-only).
    let mut sessions_with_cookies = 0;
    let mut isolation_violations = 0;
    for t in 0..threads {
        let host = jar_session_host(t);
        let url = Url::parse(&format!("http://{host}/index.php")).expect("session url");
        let candidates = jar.candidates_for(&url);
        if candidates
            .iter()
            .any(|c| c.name == escudo_apps::forum::SID_COOKIE)
        {
            sessions_with_cookies += 1;
        }
        isolation_violations += candidates
            .iter()
            .filter(|c| !c.host.eq_ignore_ascii_case(&host))
            .count();
    }

    JarWorkloadReport {
        sessions: SessionWorkloadReport {
            threads,
            rounds,
            tallies,
            stats: engine.stats(),
        },
        jar_stats: jar.stats(),
        sessions_with_cookies,
        isolation_violations,
    }
}

/// Replays the deterministic per-session oracle script for `host` through
/// `store` and `header`, returning every header built, in script order. Each
/// round stores under several path scopes (default-path, explicit,
/// replacement) and then builds four headers that exercise §5.4 ordering and
/// path scoping: `/forum/viewtopic.php`, `/forum/admin/index.php`,
/// `/blog/index.php` and `/`.
fn replay_jar_script(
    host: &str,
    rounds: usize,
    mut store: impl FnMut(&Url, &SetCookie),
    mut header: impl FnMut(&Url) -> Option<String>,
) -> Vec<Option<String>> {
    let url = |suffix: &str| Url::parse(&format!("http://{host}{suffix}")).expect("script url");
    let mut headers = Vec::new();
    for round in 0..rounds {
        // Default-path store: set from /forum/login.php → scope /forum.
        store(
            &url("/forum/login.php"),
            &SetCookie::new("sid", format!("s{round}")),
        );
        // Host-wide store plus a deeper explicit scope.
        store(
            &url("/forum/login.php"),
            &SetCookie::new("data", format!("d{round}")).with_path("/"),
        );
        store(
            &url("/forum/admin/tool.php"),
            &SetCookie::new("admin", format!("a{round}")),
        );
        // The last two are out of the default-path scope: only the host-wide
        // cookie may attach.
        for path in [
            "/forum/viewtopic.php?t=1",
            "/forum/admin/index.php",
            "/blog/index.php",
            "/",
        ] {
            headers.push(header(&url(path)));
        }
    }
    headers
}

/// Runs `rounds` rounds of the oracle script for `host` against the shared
/// `jar` and returns the headers it built.
#[must_use]
pub fn replay_on_shared_jar(
    jar: &SharedCookieJar,
    host: &str,
    rounds: usize,
) -> Vec<Option<String>> {
    replay_jar_script(
        host,
        rounds,
        |url, directive| jar.store(url, directive),
        |url| jar.cookie_header_for(url, |_| true),
    )
}

/// Runs `rounds` rounds of the oracle script for `host` against a fresh
/// single-threaded [`CookieJar`]: the headers a shared jar must reproduce.
#[must_use]
pub fn replay_on_oracle_jar(host: &str, rounds: usize) -> Vec<Option<String>> {
    let oracle = std::cell::RefCell::new(CookieJar::new());
    replay_jar_script(
        host,
        rounds,
        |url, directive| oracle.borrow_mut().store(url, directive),
        |url| oracle.borrow().cookie_header_for(url, |_| true),
    )
}

/// The outcome of the shared-jar oracle run.
#[derive(Debug, Clone, Copy, Default)]
pub struct JarOracleReport {
    /// Number of OS threads (= concurrent sessions, disjoint hosts).
    pub threads: usize,
    /// `Cookie` headers built across all threads.
    pub headers: u64,
    /// Headers that differed from the single-threaded [`CookieJar`] oracle replay.
    pub mismatches: u64,
}

/// Runs the deterministic jar script on `threads` concurrent sessions over **one**
/// shared jar (disjoint hosts, so each session's answers are deterministic), then
/// replays every session's script on a fresh single-threaded [`CookieJar`] and
/// counts headers that are not byte-identical.
///
/// # Panics
///
/// Panics if a session thread panics.
#[must_use]
pub fn run_jar_oracle_sessions(threads: usize, rounds: usize) -> JarOracleReport {
    let jar = SharedCookieJar::new();
    let host = |t: usize| format!("oracle{t}.example");
    let observed = spawn_join(threads, |t| replay_on_shared_jar(&jar, &host(t), rounds));
    let mut report = JarOracleReport {
        threads,
        ..JarOracleReport::default()
    };
    for (t, observed_headers) in observed.iter().enumerate() {
        let expected = replay_on_oracle_jar(&host(t), rounds);
        report.headers += observed_headers.len() as u64;
        report.mismatches += mismatches(observed_headers, &expected) as u64;
    }
    report
}

/// Measures steady-state header-build throughput: a jar is pre-populated with
/// `hosts` × `cookies_per_host` cookies under mixed path scopes, then `threads` OS
/// threads each build the `Cookie` header for every host's request URLs
/// `passes_per_thread` times inside one [`timed_threads`] window (one operation =
/// one header).
#[must_use]
pub fn measure_jar_throughput(
    hosts: usize,
    cookies_per_host: usize,
    threads: usize,
    passes_per_thread: usize,
) -> Rate {
    let jar = SharedCookieJar::new();
    let mut request_urls = Vec::with_capacity(hosts * 2);
    for h in 0..hosts {
        let host = format!("bench{h}.example");
        for c in 0..cookies_per_host {
            let setting =
                Url::parse(&format!("http://{host}/app{}/login.php", c % 3)).expect("setting url");
            jar.store(
                &setting,
                &SetCookie::new(format!("cookie{c}"), format!("v{c}")),
            );
        }
        request_urls
            .push(Url::parse(&format!("http://{host}/app0/index.php")).expect("request url"));
        request_urls.push(Url::parse(&format!("http://{host}/")).expect("request url"));
    }

    let (_, window) = timed_threads(threads, |_| {
        for _ in 0..passes_per_thread {
            for url in &request_urls {
                std::hint::black_box(jar.cookie_header_for(url, |_| true));
            }
        }
    });
    Rate {
        width: threads,
        ops: (request_urls.len() * passes_per_thread * threads) as u64,
        elapsed_ns: window.as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::best_of;
    use crate::workload::decision_workload;

    #[test]
    fn concurrent_sessions_share_one_engine_and_all_load() {
        let engine = Arc::new(EscudoEngine::new());
        let report = run_concurrent_sessions(&engine, 3, 2);
        assert_eq!(report.threads, 3);
        assert_eq!(report.tallies.len(), 3);
        // Every session (forum, blog, calendar) loaded its pages.
        for tally in &report.tallies {
            assert!(tally.page_loads >= 3, "tally: {tally:?}");
            assert!(tally.checks > 0, "tally: {tally:?}");
        }
        // The shared engine saw every session's checks and its stats are consistent.
        assert!(report.stats.decisions > 0);
        assert_eq!(
            report.stats.decisions,
            report.stats.cache_hits + report.stats.cache_misses
        );
        // Repeated page loads within and across sessions hit the shared cache.
        assert!(report.stats.cache_hits > 0, "stats: {:?}", report.stats);
    }

    #[test]
    fn throughput_window_is_steady_state() {
        let workload = decision_workload(8, 8);
        let (rate, hit_rate) = measure_concurrent_throughput(&workload, 2, 3);
        assert_eq!(rate.width, 2);
        assert_eq!(rate.ops, (workload.len() * 2 * 3) as u64);
        assert!(rate.elapsed_ns > 0);
        // The engine was warmed before the window: the window is all cache hits.
        assert!(hit_rate > 0.99, "steady-state hit rate: {hit_rate}");
        assert!(rate.per_sec() > 0.0);
        assert!(rate.ns_per_op() > 0.0);
    }

    #[test]
    fn best_throughput_takes_the_fastest_sample() {
        let workload = decision_workload(4, 4);
        let samples: Vec<Rate> = (0..3)
            .map(|_| measure_concurrent_throughput(&workload, 1, 2).0)
            .collect();
        let (best, spread) = best_of(samples.iter().copied(), Rate::ns_per_op);
        assert_eq!(best.ops, (workload.len() * 2) as u64);
        for sample in &samples {
            assert!(
                best.ns_per_op() <= sample.ns_per_op(),
                "{best:?} vs {sample:?}"
            );
            assert!(sample.ns_per_op() - best.ns_per_op() <= spread);
        }
    }

    #[test]
    fn shared_jar_sessions_stay_isolated_per_host() {
        let engine = Arc::new(EscudoEngine::new());
        let jar = Arc::new(SharedCookieJar::new());
        let report = run_shared_jar_sessions(&engine, &jar, 3, 2);
        assert_eq!(report.sessions.threads, 3);
        assert_eq!(report.sessions.tallies.len(), 3);
        for tally in &report.sessions.tallies {
            assert!(tally.page_loads >= 5, "tally: {tally:?}");
            assert!(tally.checks > 0, "tally: {tally:?}");
        }
        // Every session's login cookie reached the shared jar; none leaked across
        // session hosts.
        assert_eq!(report.sessions_with_cookies, 3);
        assert_eq!(report.isolation_violations, 0);
        assert!(
            report.jar_stats.stored >= 3,
            "stats: {:?}",
            report.jar_stats
        );
        assert_eq!(report.jar_stats.evicted, 0);
    }

    #[test]
    fn jar_oracle_run_is_byte_identical_single_threaded_and_concurrent() {
        // Single session: trivially deterministic, must match the oracle.
        let report = run_jar_oracle_sessions(1, 2);
        assert_eq!(report.headers, 8);
        assert_eq!(report.mismatches, 0);
        // Concurrent sessions over disjoint hosts share the jar's shards but not
        // any host entry — still byte-identical to the per-session replay.
        let report = run_jar_oracle_sessions(4, 2);
        assert_eq!(report.headers, 32);
        assert_eq!(report.mismatches, 0);
    }

    #[test]
    fn jar_throughput_counts_every_header_in_the_window() {
        let rate = measure_jar_throughput(4, 3, 2, 5);
        assert_eq!(rate.width, 2);
        assert_eq!(rate.ops, (4 * 2) as u64 * 5 * 2);
        assert!(rate.elapsed_ns > 0);
        assert!(rate.per_sec() > 0.0);
    }
}
