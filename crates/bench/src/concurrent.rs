//! The concurrent decision and cookie-jar workloads behind the
//! `policy_concurrent` and `jar_concurrent` timing gates:
//!
//! * [`measure_concurrent_throughput`] — T threads hammer one shared ESCUDO
//!   [`RuleEngine`] with the standard decision workload inside one
//!   [`timed_threads`] window,
//! * [`measure_jar_throughput`] — T threads build `Cookie` headers against one
//!   pre-populated [`SharedCookieJar`] inside one [`timed_threads`] window.
//!
//! [`replay_on_shared_jar`] and [`replay_on_oracle_jar`] replay one
//! deterministic store/header script against the shared jar and against a
//! single-threaded [`CookieJar`]; `tests/jar_concurrency.rs` and the tier-1
//! tests below compare the two byte for byte. The tests below also run the
//! end-to-end workloads: forum, blog and calendar sessions sharing one engine,
//! and forum sessions sharing one jar.

use escudo_core::{PolicyEngine, PolicyMode, RuleEngine};
use escudo_net::{CookieJar, SetCookie, SharedCookieJar, Url};

use crate::measure::{timed_threads, Rate};
use crate::workload::DecisionCheck;

/// Measures steady-state aggregate decision throughput: a fresh engine runs one
/// warm-up pass over `workload`, then `threads` OS threads each re-run the
/// workload `passes_per_thread` times concurrently inside one [`timed_threads`]
/// window. Returns the window's [`Rate`]; one operation is one decision.
#[must_use]
pub fn measure_concurrent_throughput(
    workload: &[DecisionCheck],
    threads: usize,
    passes_per_thread: usize,
) -> Rate {
    let engine = RuleEngine::new(PolicyMode::Escudo);
    for (principal, object, op) in workload {
        std::hint::black_box(engine.decide(principal, object, *op));
    }

    let (_, window) = timed_threads(threads, |_| {
        for _ in 0..passes_per_thread {
            for (principal, object, op) in workload {
                std::hint::black_box(engine.decide(principal, object, *op));
            }
        }
    });
    Rate {
        width: threads,
        ops: (workload.len() * passes_per_thread * threads) as u64,
        elapsed_ns: window.as_nanos(),
    }
}

// --------------------------------------------------------------- shared cookie jar

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
    use std::sync::Arc;

    use escudo_apps::{BlogApp, CalendarApp, CalendarConfig, ForumApp, ForumConfig};
    use escudo_browser::Browser;
    use escudo_core::engine_for_mode;

    use super::*;
    use crate::measure::{best_of, spawn_join};
    use crate::oracle::mismatches;
    use crate::workload::decision_workload;

    /// Page loads and reference-monitor checks of one session.
    #[derive(Debug)]
    struct Tally {
        page_loads: u64,
        checks: u64,
    }

    fn tally(browser: &Browser, page_loads: u64) -> Tally {
        Tally {
            page_loads,
            checks: browser.erm().checks(),
        }
    }

    /// Drives one forum session at `host`: login as `user`, then `rounds` ×
    /// (topic view + index).
    fn drive_forum(mut browser: Browser, host: &str, user: &str, rounds: usize) -> Tally {
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
        tally(&browser, 1 + 2 * rounds as u64)
    }

    /// Drives one blog session: `rounds + 1` front-page loads (comments, ad
    /// slot, inline scripts — the Figure 3 page).
    fn drive_blog(mut browser: Browser, rounds: usize) -> Tally {
        browser
            .fabric()
            .register("http://blog.example", BlogApp::new());
        for _ in 0..=rounds {
            browser
                .navigate("http://blog.example/")
                .expect("blog front page");
        }
        tally(&browser, rounds as u64 + 1)
    }

    /// Drives one calendar session: login, then `rounds` month views.
    fn drive_calendar(mut browser: Browser, user: &str, rounds: usize) -> Tally {
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
        tally(&browser, 1 + rounds as u64)
    }

    #[test]
    fn concurrent_sessions_share_one_engine_and_all_load() {
        // Forum, blog and calendar sessions, each with its own user, server
        // and browser, sharing only the policy engine.
        let engine = engine_for_mode(PolicyMode::Escudo);
        let tallies = spawn_join(3, |t| {
            let browser = Browser::with_engine(Arc::clone(&engine));
            let user = format!("user{t}");
            match t {
                0 => drive_forum(browser, "forum.example", &user, 3),
                1 => drive_blog(browser, 3),
                _ => drive_calendar(browser, &user, 3),
            }
        });
        for tally in &tallies {
            assert!(tally.page_loads >= 4, "tally: {tally:?}");
            assert!(tally.checks > 0, "tally: {tally:?}");
        }
        // The shared engine decided exactly every session's checks.
        assert_eq!(
            engine.stats().decisions,
            tallies.iter().map(|tally| tally.checks).sum::<u64>()
        );
    }

    #[test]
    fn throughput_window_is_steady_state() {
        let workload = decision_workload(8, 8);
        let rate = measure_concurrent_throughput(&workload, 2, 3);
        assert_eq!(rate.width, 2);
        assert_eq!(rate.ops, (workload.len() * 2 * 3) as u64);
        assert!(rate.elapsed_ns > 0);
        assert!(rate.per_sec() > 0.0);
        assert!(rate.ns_per_op() > 0.0);
    }

    #[test]
    fn best_throughput_takes_the_fastest_sample() {
        let workload = decision_workload(4, 4);
        let samples: Vec<Rate> = (0..3)
            .map(|_| measure_concurrent_throughput(&workload, 1, 2))
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
        // Forum sessions on disjoint hosts storing into and attaching from
        // one shared jar: every session's host-only login cookie must reach
        // the jar under its own host and no other.
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let host = |t: usize| format!("forum{t}.example");
        let tallies = spawn_join(3, |t| {
            let browser = Browser::with_jar(Arc::clone(&engine), Arc::clone(&jar));
            drive_forum(browser, &host(t), &format!("user{t}"), 3)
        });
        for tally in &tallies {
            assert_eq!(tally.page_loads, 7, "tally: {tally:?}");
            assert!(tally.checks > 0, "tally: {tally:?}");
        }
        for t in 0..3 {
            let url = Url::parse(&format!("http://{}/index.php", host(t))).unwrap();
            let candidates = jar.candidates_for(&url);
            assert!(
                candidates
                    .iter()
                    .any(|c| c.name == escudo_apps::forum::SID_COOKIE),
                "session {t} lost its session cookie"
            );
            assert!(
                candidates
                    .iter()
                    .all(|c| c.host.eq_ignore_ascii_case(&host(t))),
                "a cookie leaked onto {}",
                host(t)
            );
        }
        let stats = jar.stats();
        assert!(stats.stored >= 3, "stats: {stats:?}");
        assert_eq!(stats.evicted, 0);
    }

    #[test]
    fn jar_oracle_run_is_byte_identical_single_threaded_and_concurrent() {
        // 8 concurrent sessions over disjoint hosts share the jar's shards
        // but no host entry, so each must build exactly the headers of its
        // single-threaded `CookieJar` replay.
        const SESSIONS: usize = 8;
        const ROUNDS: usize = 25;
        let jar = SharedCookieJar::new();
        let host = |t: usize| format!("oracle{t}.example");
        let observed = spawn_join(SESSIONS, |t| replay_on_shared_jar(&jar, &host(t), ROUNDS));
        for (t, headers) in observed.iter().enumerate() {
            assert_eq!(headers.len(), 4 * ROUNDS);
            assert_eq!(
                mismatches(headers, &replay_on_oracle_jar(&host(t), ROUNDS)),
                0,
                "session {t} diverged from the single-threaded oracle"
            );
        }
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
