//! A loaded page: the DOM, its security contexts, its scripts and its statistics.

use escudo_core::{Origin, Ring};
use escudo_dom::{Document, NodeId};
use escudo_html::ParseReport;
use escudo_net::Url;

use crate::context::SecurityContextTable;
use crate::render::RenderStats;

/// A script collected from the page, in document order, with the ring it runs in.
#[derive(Debug, Clone)]
pub struct ScriptUnit {
    /// The `script` element (or handler-carrying element) the code came from.
    pub node: NodeId,
    /// The script source.
    pub source: String,
    /// The ring the script executes in (the ring of the AC scope it appears in).
    pub ring: Ring,
}

/// The result of executing one script.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// The element the script came from.
    pub node: NodeId,
    /// The ring the script ran in.
    pub ring: Ring,
    /// `Ok(final value as text)` or `Err(error message)`.
    pub result: Result<String, String>,
    /// `true` when the script was aborted by a reference-monitor denial.
    pub denied: bool,
}

impl ScriptOutcome {
    /// `true` when the script was stopped by the ESCUDO reference monitor.
    #[must_use]
    pub fn was_denied(&self) -> bool {
        self.denied
    }

    /// `true` when the script ran to completion without error.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }
}

/// Timing and bookkeeping collected while loading a page — the quantities behind the
/// paper's Figure 4 ("parsing and rendering time") and the UI-event measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageLoadStats {
    /// Time spent parsing the HTML into a DOM, in nanoseconds.
    pub parse_ns: u128,
    /// Time spent extracting security contexts (ESCUDO bookkeeping), in nanoseconds.
    pub label_ns: u128,
    /// Time spent executing the page's scripts, in nanoseconds.
    pub script_ns: u128,
    /// Time spent in layout/rendering, in nanoseconds.
    pub render_ns: u128,
    /// Reference-monitor checks performed during the load.
    pub policy_checks: u64,
    /// Denials issued during the load.
    pub policy_denials: u64,
    /// Subresource (`img`) fetches dispatched for this page — including ones whose
    /// dispatch failed (the per-subresource outcome records the error).
    pub subresource_requests: u64,
    /// Cookie-`use` denials issued while mediating this page's subresource
    /// requests (phase 1 of the pipelined loader, before any fetch is dispatched).
    pub subresource_denials: u64,
    /// Wall-clock time of subresource planning (phase 1), in nanoseconds: from
    /// the start of the document walk to the handoff of the finished fetch
    /// plan — resolution, principals, cookie mediation and request build. 0
    /// when the page has no fetchable subresource.
    pub subresource_plan_ns: u128,
    /// Wall-clock time of the subresource fetch fan-out (phase 2), in nanoseconds.
    /// With the pipelined loader this is the *overlapped* time, not the sum of
    /// per-fetch times.
    pub subresource_fetch_ns: u128,
    /// Speculative background fetches submitted while loading this page
    /// (markup `rel=prefetch` hints plus visited-link predictions).
    pub prefetch_issued: u64,
    /// `true` when this page's own navigation fetch was served from the
    /// fabric's prefetch cache (the mediation plan matched, so the cached
    /// response is byte-identical to what a live dispatch would have returned).
    pub prefetch_hit: bool,
}

impl PageLoadStats {
    /// Parse + label + render time: the quantity Figure 4 plots.
    #[must_use]
    pub fn parse_and_render_ns(&self) -> u128 {
        self.parse_ns + self.label_ns + self.render_ns
    }

    /// Total accounted time including script execution.
    #[must_use]
    pub fn total_ns(&self) -> u128 {
        self.parse_and_render_ns() + self.script_ns
    }
}

/// Which deadline window a planned subresource goes out in: render-critical
/// resources (stylesheets, external scripts) are dispatched in a window of
/// their own that completes before the image window starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubresourceKind {
    /// Render-blocking (`link rel=stylesheet`, `script src`): the first window.
    Critical,
    /// Image (`img src`): the second window.
    Image,
}

/// The recorded outcome of one subresource fetch. Outcomes are recorded in
/// **plan order** (critical resources in document order, then images in
/// document order) regardless of which pipelined fetch finished first — the
/// mediation plan is fixed before any fetch is dispatched, and results are
/// placed back by plan index.
#[derive(Debug, Clone)]
pub struct SubresourceOutcome {
    /// The element that issued the request.
    pub node: NodeId,
    /// The window the fetch went out in (critical vs. image).
    pub kind: SubresourceKind,
    /// The resolved request URL.
    pub url: Url,
    /// Names of the cookies the reference monitor admitted onto the request
    /// (decided in phase 1, before the fetch was dispatched).
    pub attached_cookies: Vec<String>,
    /// The response status, when the dispatch reached a server.
    pub status: Option<u16>,
    /// The dispatch error, when it did not (e.g. the host became unreachable,
    /// or a faulted origin exhausted the session's retry budget — subresource
    /// failures degrade into this field rather than failing the page).
    pub error: Option<String>,
    /// Retries the session's [`FetchPolicy`](escudo_net::FetchPolicy) spent on
    /// this fetch (0 when it succeeded first try or the policy is disabled).
    pub retries: u32,
}

impl SubresourceOutcome {
    /// `true` when the fetch reached a server and came back 2xx.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.status.is_some_and(|s| (200..300).contains(&s))
    }
}

/// A fully loaded page.
#[derive(Debug, Clone)]
pub struct Page {
    /// The URL the page was loaded from.
    pub url: Url,
    /// The page's origin.
    pub origin: Origin,
    /// The DOM.
    pub document: Document,
    /// The security-context table (node labels, cookie policies, API rings).
    pub contexts: SecurityContextTable,
    /// Scripts found in the page, in document order.
    pub scripts: Vec<ScriptUnit>,
    /// Outcomes of the scripts executed so far.
    pub script_outcomes: Vec<ScriptOutcome>,
    /// Per-subresource fetch outcomes, in document order.
    pub subresources: Vec<SubresourceOutcome>,
    /// `link rel=prefetch` speculation hints (raw `href` values), in document
    /// order, extracted once at load time alongside the scripts.
    pub prefetch_hints: Vec<String>,
    /// The parser's report (including rejected node-splitting end tags).
    pub parse_report: ParseReport,
    /// Rendering statistics from the last layout pass.
    pub render_stats: RenderStats,
    /// Load timing and policy counters.
    pub stats: PageLoadStats,
    /// `true` when the page carried no ESCUDO configuration and is treated as a legacy
    /// (same-origin-policy) page.
    pub legacy: bool,
}

impl Page {
    /// Shorthand: the text content of the element with the given `id` attribute.
    #[must_use]
    pub fn text_of(&self, id: &str) -> Option<String> {
        let node = self.document.get_element_by_id(id)?;
        Some(self.document.text_content(node))
    }

    /// Shorthand: whether any script in the page was denied by the reference monitor.
    #[must_use]
    pub fn any_script_denied(&self) -> bool {
        self.script_outcomes.iter().any(ScriptOutcome::was_denied)
    }

    /// Shorthand: whether every script ran to completion.
    #[must_use]
    pub fn all_scripts_succeeded(&self) -> bool {
        self.script_outcomes.iter().all(ScriptOutcome::succeeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_compose() {
        let stats = PageLoadStats {
            parse_ns: 10,
            label_ns: 5,
            script_ns: 20,
            render_ns: 15,
            policy_checks: 3,
            policy_denials: 1,
            subresource_requests: 4,
            subresource_denials: 1,
            subresource_plan_ns: 30,
            subresource_fetch_ns: 40,
            prefetch_issued: 2,
            prefetch_hit: true,
        };
        assert_eq!(stats.parse_and_render_ns(), 30);
        assert_eq!(stats.total_ns(), 50);
    }

    #[test]
    fn subresource_outcome_success_requires_a_2xx_status() {
        let mut outcome = SubresourceOutcome {
            node: escudo_dom::Document::new().create_element("img"),
            kind: SubresourceKind::Image,
            url: Url::parse("http://img.example/a.png").unwrap(),
            attached_cookies: vec!["sid".into()],
            status: Some(200),
            error: None,
            retries: 0,
        };
        assert!(outcome.succeeded());
        outcome.status = Some(404);
        assert!(!outcome.succeeded());
        outcome.status = None;
        outcome.error = Some("host unreachable".into());
        assert!(!outcome.succeeded());
    }

    #[test]
    fn script_outcome_flags() {
        let denied = ScriptOutcome {
            node: escudo_dom::Document::new().create_element("script"),
            ring: Ring::new(3),
            result: Err("access denied: ring rule".into()),
            denied: true,
        };
        assert!(denied.was_denied());
        assert!(!denied.succeeded());
    }
}
