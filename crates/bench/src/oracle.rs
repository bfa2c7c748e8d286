//! The mediation oracles the tier-1 tests share.
//!
//! ESCUDO's reference monitor decides from the principal's and the object's
//! security contexts alone, so nothing below it — pipelining, caching,
//! speculation, retries, thread scheduling — may change what it decides. The
//! tests check that one invariant three ways, each with one helper here:
//!
//! * [`Transcript`] — what a session's mediation left behind: the fabric's
//!   sequence-sorted request log, each page's subresource URLs with the
//!   cookie names attached to them, and the ERM's check and denial counts.
//!   [`Transcript::diff`] compares a variant run against its oracle run,
//! * [`scan_leaks`] — many sessions sharing one fabric: every session's hosts
//!   may carry only that session's cookie in the shared log,
//! * [`run_matrix_with_hook`] — the full scenario matrix with a hook applied
//!   to every staged session browser, handing back the session fabrics so a
//!   run can count what the variant (chaos, cache) actually did.
//!
//! The contexts mediation decides from are themselves checked against one
//! oracle: [`label_oracle`], a two-pass labelling written for clarity, which
//! the page loader's one-pass walk must reproduce node for node.

use std::sync::{Arc, Mutex};

use escudo_apps::scenario::{install_chaos_hook, registry, MatrixReport};
use escudo_browser::{Browser, SecurityContextTable};
use escudo_core::config::{AcAttributes, ResolvedLabel};
use escudo_core::{Origin, Ring};
use escudo_dom::{Document, NodeId};
use escudo_net::{LoggedRequest, SharedNetwork};

/// One session's mediation record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Transcript {
    /// The fabric's sequence-sorted request log.
    pub log: Vec<LoggedRequest>,
    /// Per page loaded, in load order: each subresource's URL with the names
    /// of the cookies mediation attached to it, in plan order.
    pub pages: Vec<Vec<(String, Vec<String>)>>,
    /// Reference-monitor checks the session performed.
    pub checks: u64,
    /// Denials among those checks.
    pub denials: u64,
}

impl Transcript {
    /// Navigates `browser` to each of `urls` in turn and transcribes the
    /// session. The browser's fabric should serve this session alone, so its
    /// log is the session's.
    ///
    /// # Panics
    ///
    /// Panics if a page load fails.
    pub fn record(
        browser: &mut Browser,
        urls: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Transcript {
        let mut pages = Vec::new();
        for url in urls {
            let page = browser
                .navigate(url.as_ref())
                .expect("transcript page load");
            pages.push(
                browser
                    .page(page)
                    .subresources
                    .iter()
                    .map(|s| (s.url.to_string(), s.attached_cookies.clone()))
                    .collect(),
            );
        }
        Transcript {
            log: browser.fabric().log(),
            pages,
            checks: browser.erm().checks(),
            denials: browser.erm().denials(),
        }
    }

    /// Compares this run against `oracle`, entry by entry and page by page.
    #[must_use]
    pub fn diff(&self, oracle: &Transcript) -> TranscriptDiff {
        let pages = || self.pages.iter().zip(&oracle.pages);
        TranscriptDiff {
            requests: self.log.len().max(oracle.log.len()),
            log_mismatches: mismatches(&self.log, &oracle.log),
            attachment_mismatches: pages()
                .filter(|(a, b)| a.iter().map(|s| &s.1).ne(b.iter().map(|s| &s.1)))
                .count()
                + self.pages.len().abs_diff(oracle.pages.len()),
            order_violations: pages()
                .filter(|(a, b)| a.iter().map(|s| &s.0).ne(b.iter().map(|s| &s.0)))
                .count(),
            mediation_mismatches: usize::from(self.checks != oracle.checks)
                + usize::from(self.denials != oracle.denials),
        }
    }
}

/// Positions at which `run` and `oracle` differ, plus any length difference.
#[must_use]
pub fn mismatches<T: PartialEq>(run: &[T], oracle: &[T]) -> usize {
    run.iter().zip(oracle).filter(|(a, b)| a != b).count() + run.len().abs_diff(oracle.len())
}

/// How a run's [`Transcript`] differs from its oracle's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranscriptDiff {
    /// Log entries compared (the longer log's length).
    pub requests: usize,
    /// Sequence-sorted log entries that differ (method, URL, attached cookie
    /// names, status), plus any length difference.
    pub log_mismatches: usize,
    /// Pages whose per-subresource attached cookie names differ, plus any
    /// difference in the number of pages.
    pub attachment_mismatches: usize,
    /// Pages whose subresources were recorded in a different order (or to
    /// different URLs) than the oracle's document order.
    pub order_violations: usize,
    /// Reference-monitor counters (checks, denials) that differ: 0 to 2.
    pub mediation_mismatches: usize,
}

/// Cross-session cookie leakage in one shared request log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakScan {
    /// Log entries scanned.
    pub requests: usize,
    /// Per session, in session order: how often its own cookie was attached
    /// to a request for one of its hosts.
    pub own_attachments: Vec<usize>,
    /// Cookies attached to a session's hosts that are not that session's own.
    /// Must be 0.
    pub violations: usize,
}

impl LeakScan {
    /// Sessions whose requests carried their own cookie at least once.
    #[must_use]
    pub fn sessions_with_cookies(&self) -> usize {
        self.own_attachments.iter().filter(|&&n| n > 0).count()
    }
}

/// Scans a shared log for each `(site, own_cookie)` session: every entry for
/// `site` or one of its subdomains may carry `own_cookie` and nothing else.
#[must_use]
pub fn scan_leaks(
    log: &[LoggedRequest],
    sessions: impl IntoIterator<Item = (String, String)>,
) -> LeakScan {
    let mut scan = LeakScan {
        requests: log.len(),
        ..LeakScan::default()
    };
    for (site, own_cookie) in sessions {
        let subdomain = format!(".{site}");
        let mut own = 0;
        for entry in log {
            let host = entry.url.host().to_ascii_lowercase();
            if host != site && !host.ends_with(&subdomain) {
                continue;
            }
            for name in &entry.cookie_names {
                if *name == own_cookie {
                    own += 1;
                } else {
                    scan.violations += 1;
                }
            }
        }
        scan.own_attachments.push(own);
    }
    scan
}

/// Replays the full scenario registry with `stage` applied to every session
/// browser the executor stages, and returns the matrix with the fabrics of
/// those sessions, in staging order.
pub fn run_matrix_with_hook(
    stage: impl Fn(&mut Browser) + Send + Sync + 'static,
) -> (MatrixReport, Vec<Arc<SharedNetwork>>) {
    let fabrics = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&fabrics);
    let report = {
        let _guard = install_chaos_hook(Arc::new(move |browser: &mut Browser| {
            stage(browser);
            sink.lock()
                .expect("session fabric sink lock")
                .push(Arc::clone(browser.fabric()));
        }));
        MatrixReport::run(&registry())
    };
    let fabrics = std::mem::take(&mut *fabrics.lock().expect("session fabric sink lock"));
    (report, fabrics)
}

/// The reference labelling of a parsed page of `origin` whose response did
/// (`header_config`) or did not carry an ESCUDO policy header, in two plain
/// passes: the oracle the page loader's one-pass walk is tested against.
/// Returns the page's context table, without policies, and its legacy flag.
///
/// 1. A scan of every element decides `legacy`: the page declares no
///    `ring`/`r`/`w`/`x` attribute (names matched case-sensitively, values
///    unchecked) and no policy header.
/// 2. A depth-first walk with an explicit stack labels every element: an AC
///    tag (per [`AcAttributes::parse`], which matches names in any case and
///    reads a malformed declaration as none) resolves against the enclosing
///    scope's ring, ring 0 outside every scope; any other element takes the
///    enclosing scope's label, or the page default outside every scope.
///    Other nodes get no entry, so they read as the page default.
#[must_use]
pub fn label_oracle(
    document: &Document,
    origin: Origin,
    header_config: bool,
) -> (SecurityContextTable, bool) {
    let has_ac_tags = document.all_elements().iter().any(|&node| {
        document
            .attributes(node)
            .iter()
            .any(|(name, _)| matches!(name.as_str(), "ring" | "r" | "w" | "x"))
    });
    let legacy = !(has_ac_tags || header_config);
    let mut contexts = SecurityContextTable::new(origin, legacy);
    // (node, label of the nearest enclosing AC scope, if any)
    let mut stack: Vec<(NodeId, Option<ResolvedLabel>)> = document
        .children(document.root())
        .map(|child| (child, None))
        .collect();
    while let Some((node, inherited)) = stack.pop() {
        let label_for_children = if document.element(node).is_some() {
            let attrs = AcAttributes::parse(
                document
                    .attributes(node)
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.as_str())),
            )
            .unwrap_or_default();
            let label = if attrs.is_ac_tag() {
                attrs.resolve(inherited.map_or(Ring::INNERMOST, |l| l.ring))
            } else {
                inherited.unwrap_or_else(|| contexts.default_label())
            };
            contexts.set_node_label(node, label);
            if attrs.is_ac_tag() {
                Some(label)
            } else {
                inherited
            }
        } else {
            inherited
        };
        for child in document.children(node) {
            stack.push((child, label_for_children));
        }
    }
    (contexts, legacy)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use escudo_core::{engine_for_mode, PolicyMode};
    use escudo_net::{Method, SharedCookieJar, Url};

    use super::*;
    use crate::loader::{build_loader_fabric, PAGE_URL};

    fn loader_transcript() -> Transcript {
        let fabric = build_loader_fabric(4, 2, |_| Duration::ZERO);
        let jar = Arc::new(SharedCookieJar::new());
        let mut browser = Browser::with_network(engine_for_mode(PolicyMode::Escudo), jar, fabric);
        Transcript::record(&mut browser, [PAGE_URL, PAGE_URL])
    }

    #[test]
    fn the_diff_counts_each_planted_mismatch_once() {
        let oracle = loader_transcript();
        assert_eq!(oracle.log.len(), 10, "2 × (1 page + 4 images)");
        assert_eq!(
            oracle.diff(&oracle.clone()),
            TranscriptDiff {
                requests: 10,
                ..TranscriptDiff::default()
            }
        );

        let mut run = oracle.clone();
        assert_eq!(run.pages[1][2].1, ["sid"], "the image carried the cookie");
        run.pages[1][2].1.clear();
        run.log[3].status = 500;
        let diff = run.diff(&oracle);
        assert_eq!(diff.attachment_mismatches, 1);
        assert_eq!(diff.log_mismatches, 1);
        assert_eq!(diff.order_violations, 0);
        assert_eq!(diff.mediation_mismatches, 0);

        let mut run = oracle.clone();
        run.pages[0].swap(0, 1);
        let diff = run.diff(&oracle);
        assert_eq!(diff.order_violations, 1);
        assert_eq!(diff.log_mismatches, 0);

        let mut run = oracle.clone();
        run.denials += 1;
        run.log.pop();
        let diff = run.diff(&oracle);
        assert_eq!(diff.mediation_mismatches, 1);
        assert_eq!(diff.log_mismatches, 1, "a missing entry is a mismatch");
    }

    #[test]
    fn the_leak_scan_counts_a_planted_foreign_cookie() {
        let entry = |url: &str, cookie: &str| LoggedRequest {
            method: Method::Get,
            url: Url::parse(url).expect("log url"),
            cookie_names: vec![cookie.to_string()],
            status: 200,
        };
        let mut log = vec![
            entry("http://site0.example/index.php", "sid0"),
            entry("http://img0.site0.example/a.png", "sid0"),
            entry("http://site1.example/index.php", "sid1"),
            entry("http://img0.site1.example/a.png", "sid1"),
        ];
        let sessions = || (0..2).map(|t| (format!("site{t}.example"), format!("sid{t}")));
        let clean = scan_leaks(&log, sessions());
        assert_eq!(clean.violations, 0);
        assert_eq!(clean.own_attachments, [2, 2]);

        log.push(entry("http://img1.site0.example/b.png", "sid1"));
        let leaky = scan_leaks(&log, sessions());
        assert_eq!(leaky.violations, 1);
        assert_eq!(leaky.requests, 5);
        assert_eq!(leaky.sessions_with_cookies(), 2);
    }
}
