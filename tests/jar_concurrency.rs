//! Concurrency equivalence for the shared cookie jar: N threads storing into and
//! reading from one [`SharedCookieJar`] — over disjoint *and* overlapping hosts —
//! must produce `Cookie` headers byte-identical to a single-threaded [`CookieJar`]
//! oracle replaying the same operations. The disjoint-host script is
//! `escudo_bench::concurrent`'s; its 8-session × 25-round run is the tier-1
//! gate `concurrent::tests::jar_oracle_run_is_byte_identical_single_threaded_and_concurrent`.

use std::thread;

use escudo::net::{CookieJar, SetCookie, SharedCookieJar, Url};
use escudo_bench::concurrent::{replay_on_oracle_jar, replay_on_shared_jar};

const THREADS: usize = 8;
const ROUNDS: usize = 10;

fn url(s: &str) -> Url {
    Url::parse(s).unwrap()
}

#[test]
fn disjoint_host_sessions_match_the_single_threaded_oracle() {
    let jar = SharedCookieJar::new();
    let observed: Vec<(String, Vec<Option<String>>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let jar = &jar;
                scope.spawn(move || {
                    let host = format!("session{t}.example");
                    let headers = replay_on_shared_jar(jar, &host, ROUNDS);
                    (host, headers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("session thread panicked"))
            .collect()
    });

    for (host, headers) in &observed {
        let expected = replay_on_oracle_jar(host, ROUNDS);
        assert_eq!(
            headers, &expected,
            "shared-jar headers for {host} diverged from the single-threaded oracle"
        );
        // Sanity on the script itself: the default-path cookie never reaches /blog.
        for chunk in headers.chunks(4) {
            let blog = chunk[2].as_deref().unwrap_or("");
            assert!(
                !blog.contains("sid="),
                "default-path leak into /blog: {blog}"
            );
            assert!(
                !blog.contains("admin="),
                "deep-path leak into /blog: {blog}"
            );
        }
    }
    // 3 stores per round per session, `sid`/`data`/`admin` replaced every round.
    assert_eq!(jar.len(), THREADS * 3);
    let stats = jar.stats();
    assert_eq!(stats.stored, (THREADS * 3) as u64);
    assert_eq!(stats.replaced, (THREADS * 3 * (ROUNDS - 1)) as u64);
}

#[test]
fn overlapping_host_stores_converge_to_the_oracle_state() {
    // Every thread stores thread-unique cookie names under the SAME two hosts, each
    // cookie with a distinct path depth — so the final §5.4 attach order (longest
    // path first) is deterministic regardless of store interleaving, and the final
    // headers must equal a single-threaded replay in any store order.
    let jar = SharedCookieJar::new();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let jar = &jar;
            scope.spawn(move || {
                for host in ["shared.example", "other.example"] {
                    // Unique path depth per thread: /d, /d/d, /d/d/d, …
                    let dir = "/d".repeat(t + 1);
                    jar.store(
                        &url(&format!("http://{host}{dir}/login.php")),
                        &SetCookie::new(format!("c{t}"), format!("v{t}")),
                    );
                }
            });
        }
    });

    let mut oracle = CookieJar::new();
    for t in 0..THREADS {
        for host in ["shared.example", "other.example"] {
            let dir = "/d".repeat(t + 1);
            oracle.store(
                &url(&format!("http://{host}{dir}/login.php")),
                &SetCookie::new(format!("c{t}"), format!("v{t}")),
            );
        }
    }

    for host in ["shared.example", "other.example"] {
        // A request deep enough to match every path scope sees all cookies,
        // longest path first.
        let deep = url(&format!("http://{host}{}/page.php", "/d".repeat(THREADS)));
        let observed = jar.cookie_header_for(&deep, |_| true);
        let expected = oracle.cookie_header_for(&deep, |_| true);
        assert_eq!(observed, expected, "deep request to {host}");
        assert_eq!(
            observed.as_deref(),
            Some("c7=v7; c6=v6; c5=v5; c4=v4; c3=v3; c2=v2; c1=v1; c0=v0"),
            "§5.4 order must be longest path first for {host}"
        );
        // A shallow request sees only the shallow scopes.
        let shallow = url(&format!("http://{host}/d/x.php"));
        assert_eq!(
            jar.cookie_header_for(&shallow, |_| true),
            oracle.cookie_header_for(&shallow, |_| true),
            "shallow request to {host}"
        );
    }
    assert_eq!(jar.len(), THREADS * 2);
}

#[test]
fn concurrent_readers_see_consistent_headers_during_writes() {
    // Readers racing a writer on the same host must only ever observe prefixes of
    // the writer's deterministic store sequence: cookie `w{i}` (all under one path
    // scope) appears only after `w{i-1}`, because creation order ties §5.4 order.
    let jar = SharedCookieJar::new();
    let writes = 50;
    thread::scope(|scope| {
        let jar_ref = &jar;
        scope.spawn(move || {
            for i in 0..writes {
                jar_ref.store(
                    &url("http://race.example/app/page.php"),
                    &SetCookie::new(format!("w{i}"), "1"),
                );
            }
        });
        for _ in 0..3 {
            scope.spawn(move || {
                for _ in 0..200 {
                    let header = jar_ref
                        .cookie_header_for(&url("http://race.example/app/x"), |_| true)
                        .unwrap_or_default();
                    let names: Vec<&str> = header
                        .split("; ")
                        .filter(|s| !s.is_empty())
                        .map(|pair| pair.split('=').next().unwrap())
                        .collect();
                    for (i, name) in names.iter().enumerate() {
                        assert_eq!(
                            *name,
                            format!("w{i}"),
                            "snapshot must be a creation-order prefix, got {names:?}"
                        );
                    }
                }
            });
        }
    });
    assert_eq!(jar.len(), writes);
}
