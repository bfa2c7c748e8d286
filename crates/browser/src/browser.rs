//! The browser: navigation, script execution, request issuance, event dispatch,
//! history and visited links.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use escudo_core::config::CookiePolicy;
use escudo_core::tenant::Tenant;
use escudo_core::{
    engine_for_mode, Operation, Origin, PolicyEngine, PolicyMode, PrincipalContext, PrincipalKind,
};
use escudo_dom::EventType;
use escudo_net::{
    BackgroundBatch, CacheLayers, FetchPlan, FetchPolicy, Fetched, Method, Prefetcher, Request,
    Response, SharedCookieJar, SharedNetwork, Source, Url,
};
use escudo_script::Interpreter;

use crate::erm::Erm;
use crate::error::BrowserError;
use crate::host::BrowserHost;
use crate::loader::{LoadOptions, PageLoader, ResponsePolicies};
use crate::page::{Page, ScriptOutcome, SubresourceOutcome};
use crate::render::Renderer;

/// A handle to a loaded page. Ids count up from 0 in load order and are never
/// reused, so the id of an evicted page can never name a newer one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId(usize);

/// Pages one session retains: the current page plus the
/// `RETAINED_PAGES - 1` loaded before it, its back/forward window. The
/// navigation that loads one page more drops the oldest. A constant, not a
/// setting: Firefox likewise keeps at most 8 pages for back/forward.
pub const RETAINED_PAGES: usize = 8;

/// URLs one session's history keeps, newest last; a navigation past the bound
/// drops the oldest, so a script's `history.length` saturates here. Chromium
/// caps session history at the same 50 entries.
pub const MAX_HISTORY: usize = 50;

/// Default bound on the subresource requests one page load keeps **in
/// flight** at once overall — the width of its subresource plan's deadline
/// windows ([`SharedNetwork::execute`]). It is not a thread count: a window
/// waits on all of its requests from the navigating thread. The default,
/// `usize::MAX`, sets no page-wide cap: only the window's per-origin bound of
/// [`MAX_IN_FLIGHT_PER_ORIGIN`](escudo_net::window::MAX_IN_FLIGHT_PER_ORIGIN)
/// (6) applies, as in browsers. A bound of 1 sends each request only after the
/// previous one completed — the sequential oracle the `loader_concurrent`
/// bench compares against.
pub const DEFAULT_SUBRESOURCE_WORKERS: usize = usize::MAX;

/// Bound on the speculative fetches one page load may submit to the session's
/// prefetch thread (markup `rel=prefetch` hints first, then visited-link
/// predictions).
/// Speculation must never be able to crowd out real traffic, so the predictor
/// is truncated rather than throttled.
pub const PREFETCH_MAX_CANDIDATES: usize = 8;

/// The browser. One instance corresponds to one browsing session (cookie jar, history,
/// visited links) enforcing one [`PolicyMode`].
///
/// What a session retains is bounded, however long it runs: the newest
/// [`RETAINED_PAGES`] pages and the newest [`MAX_HISTORY`] history entries.
/// Only the visited-link set grows, and only with distinct URLs.
///
/// The cookie jar is held through an `Arc<SharedCookieJar>` handle: by default each
/// browser gets a private jar, but [`Browser::with_jar`] lets many concurrent
/// sessions share one host-sharded store (the server-side multi-session deployment),
/// exactly as [`Browser::with_engine`] shares one decision engine.
pub struct Browser {
    fabric: Arc<SharedNetwork>,
    jar: Arc<SharedCookieJar>,
    erm: Erm,
    /// The newest [`MAX_HISTORY`] URLs navigated to, oldest first.
    history: VecDeque<Url>,
    visited: HashSet<String>,
    /// The newest [`RETAINED_PAGES`] pages, oldest first.
    pages: VecDeque<Page>,
    /// The id of `pages[0]`; every lower id was evicted.
    first_retained: usize,
    viewport_width: u32,
    /// Bound on a page's in-flight subresource requests overall (≥ 1; 1 =
    /// fully sequential; `usize::MAX` = only the per-origin bound).
    subresource_workers: usize,
    /// Cookie policies remembered per (host, cookie name), so a policy declared when a
    /// cookie was set keeps protecting it on later pages of the same application.
    cookie_policies: Vec<(String, CookiePolicy)>,
    /// `true` when this session speculatively prefetches likely next navigations
    /// (markup hints + visited links) on its prefetch thread. Off by
    /// default: speculation is a per-session opt-in.
    prefetch_enabled: bool,
    /// This session's prefetch thread, started by its first speculation.
    prefetcher: Prefetcher,
    /// Navigation fetches this session served from the prefetch cache.
    prefetch_hits: u64,
    /// `true` when this session serves repeat fetches from the fabric's shared
    /// response cache (persistent `max-age` entries) and coalesces duplicate
    /// subresource fetches within one plan. Off by default: caching is a
    /// per-session opt-in, exactly like speculation.
    response_cache_enabled: bool,
    /// Fetches this session served from persistent response-cache entries
    /// (navigations and subresources; one-shot prefetch hits count separately).
    cache_hits: u64,
    /// The resilience policy every fetch plan of this session runs under
    /// (navigation, subresources, prefetch and script-initiated XHR alike).
    /// Disabled by default: one attempt per request.
    fetch_policy: FetchPolicy,
}

impl std::fmt::Debug for Browser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Browser")
            .field("mode", &self.erm.mode())
            .field("pages", &self.pages.len())
            .field("cookies", &self.jar.len())
            .field("history", &self.history.len())
            .finish()
    }
}

impl Browser {
    /// Creates a browser enforcing the given policy mode with a fresh decision engine.
    #[must_use]
    pub fn new(mode: PolicyMode) -> Self {
        Browser::with_engine(engine_for_mode(mode))
    }

    /// Creates a browser enforcing through an existing (possibly shared) decision
    /// engine. Several browsers — e.g. one per simulated user session against the same
    /// application — can share one engine and therefore one decision counter. The
    /// cookie jar stays private to this browser.
    #[must_use]
    pub fn with_engine(engine: Arc<dyn PolicyEngine>) -> Self {
        Browser::with_jar(engine, Arc::new(SharedCookieJar::new()))
    }

    /// Creates a browser enforcing through an existing engine *and* storing cookies
    /// in an existing (possibly shared) jar, over a private network fabric. This is
    /// the multi-session deployment: N sessions share one decision engine and
    /// one host-sharded cookie store, and every browser- or script-initiated
    /// request of every session mediates its cookie `use` through the same
    /// reference-monitor path.
    #[must_use]
    pub fn with_jar(engine: Arc<dyn PolicyEngine>, jar: Arc<SharedCookieJar>) -> Self {
        Browser::with_network(engine, jar, Arc::new(SharedNetwork::new()))
    }

    /// Creates a browser whose requests travel an existing (possibly shared)
    /// network fabric, completing the shared-everything deployment: engine, jar
    /// *and* servers are shared, so N concurrent sessions hit one set of
    /// registered applications and write one sequence-ordered request log —
    /// today each session no longer has to clone its own private world.
    #[must_use]
    pub fn with_network(
        engine: Arc<dyn PolicyEngine>,
        jar: Arc<SharedCookieJar>,
        fabric: Arc<SharedNetwork>,
    ) -> Self {
        Browser::from_erm(Erm::with_engine(engine), jar, fabric)
    }

    /// Creates a browser session bound to a control-plane tenant: every
    /// enforcement point decides under the tenant's published
    /// [`TenantPolicy`](escudo_core::TenantPolicy) and passes its token-bucket
    /// admission control. The session pins the policy (one atomic load) at the
    /// start of each navigation, event dispatch and prefetch, so a hot policy
    /// reload ([`Tenant::reload`]) takes effect at the next of those — a reload
    /// that lands mid-navigation never splits one page across generations.
    #[must_use]
    pub fn with_tenant(tenant: Arc<Tenant>) -> Self {
        Browser::with_tenant_network(
            tenant,
            Arc::new(SharedCookieJar::new()),
            Arc::new(SharedNetwork::new()),
        )
    }

    /// Tenant-bound counterpart of [`Browser::with_network`]: the session binds
    /// to `tenant` for policy and admission while sharing the given cookie jar
    /// and network fabric with other sessions (of this tenant or others).
    #[must_use]
    pub fn with_tenant_network(
        tenant: Arc<Tenant>,
        jar: Arc<SharedCookieJar>,
        fabric: Arc<SharedNetwork>,
    ) -> Self {
        Browser::from_erm(Erm::with_tenant(tenant), jar, fabric)
    }

    fn from_erm(erm: Erm, jar: Arc<SharedCookieJar>, fabric: Arc<SharedNetwork>) -> Self {
        Browser {
            erm,
            fabric,
            jar,
            history: VecDeque::new(),
            visited: HashSet::new(),
            pages: VecDeque::new(),
            first_retained: 0,
            viewport_width: 1024,
            subresource_workers: DEFAULT_SUBRESOURCE_WORKERS,
            cookie_policies: Vec::new(),
            prefetch_enabled: false,
            prefetcher: Prefetcher::default(),
            prefetch_hits: 0,
            response_cache_enabled: false,
            cache_hits: 0,
            fetch_policy: FetchPolicy::disabled(),
        }
    }

    /// The policy mode in force. For a tenant-bound session this is the mode
    /// of the generation pinned at the start of the last navigation, event
    /// dispatch or prefetch, and may change across a hot reload.
    #[must_use]
    pub fn mode(&self) -> PolicyMode {
        self.erm.mode()
    }

    /// The control-plane tenant this session is bound to, if any.
    #[must_use]
    pub fn tenant(&self) -> Option<&Arc<Tenant>> {
        self.erm.tenant()
    }

    /// The network fabric this session's requests travel: register servers
    /// on it, read its request log, or clone the `Arc` to share servers, the
    /// log and simulated latencies with another session.
    #[must_use]
    pub fn fabric(&self) -> &Arc<SharedNetwork> {
        &self.fabric
    }

    /// Bounds how many subresource requests a page load keeps in flight at
    /// once overall (see [`DEFAULT_SUBRESOURCE_WORKERS`]); the per-origin
    /// bound of 6 applies under any value. `1` makes the fetch fan-out fully
    /// sequential (the oracle path the bench gates compare against); values
    /// are clamped to at least 1.
    pub fn set_subresource_workers(&mut self, workers: usize) {
        self.subresource_workers = workers.max(1);
    }

    /// The configured bound on in-flight subresource requests.
    #[must_use]
    pub fn subresource_workers(&self) -> usize {
        self.subresource_workers
    }

    /// Enables or disables speculative prefetch for this session. When enabled,
    /// every page load submits its `rel=prefetch` hints and visited-link
    /// predictions to the session's prefetch thread, and later navigations may
    /// consume the cached responses — but only when the navigation's own
    /// mediated cookie attachment matches the one the speculation was fetched
    /// with, so prefetch can never change a mediation decision.
    pub fn set_prefetch_enabled(&mut self, enabled: bool) {
        self.prefetch_enabled = enabled;
    }

    /// `true` when speculative prefetch is enabled for this session.
    #[must_use]
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_enabled
    }

    /// Navigation fetches this session has served from the prefetch cache.
    #[must_use]
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Enables or disables the shared response cache for this session. When
    /// enabled, `GET` fetches whose mediated `Cookie` header matches a fresh
    /// cached entry are served as a refcount bump — mediation still runs in
    /// full, only the transport is skipped, and the hit is logged under the
    /// fetch's own sequence number — and duplicate URLs within one subresource
    /// plan dispatch once (single-flight). Responses become cacheable only by
    /// declaring `Cache-Control: max-age=N`, and a response carrying
    /// `Set-Cookie` is never cached (per-recipient state must not be shared
    /// across sessions). This opt-in serves only persistent entries; one-shot
    /// prefetch entries stay behind [`Browser::set_prefetch_enabled`].
    pub fn set_response_cache_enabled(&mut self, enabled: bool) {
        self.response_cache_enabled = enabled;
    }

    /// `true` when the shared response cache is enabled for this session.
    #[must_use]
    pub fn response_cache_enabled(&self) -> bool {
        self.response_cache_enabled
    }

    /// Fetches this session has served from persistent response-cache entries.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Sets the resilience policy for every fetch this session makes —
    /// navigations, the subresource fan-out and script-initiated XHR. Retries
    /// re-dispatch the already-mediated request **verbatim** (one mediation
    /// plan, one policy generation, no re-mediation), so the policy can mask
    /// transient fabric faults but never widen a security decision. The
    /// default is [`FetchPolicy::disabled`]: one attempt per request.
    pub fn set_fetch_policy(&mut self, policy: FetchPolicy) {
        self.fetch_policy = policy;
    }

    /// The resilience policy in force for this session's fetches.
    #[must_use]
    pub fn fetch_policy(&self) -> FetchPolicy {
        self.fetch_policy
    }

    /// The cookie jar handle (clone the `Arc` to share it with another session).
    #[must_use]
    pub fn cookie_jar(&self) -> &Arc<SharedCookieJar> {
        &self.jar
    }

    /// The reference monitor (audit log, counters).
    #[must_use]
    pub fn erm(&self) -> &Erm {
        &self.erm
    }

    /// Navigation history, oldest first: the newest [`MAX_HISTORY`] URLs.
    #[must_use]
    pub fn history(&self) -> &VecDeque<Url> {
        &self.history
    }

    /// `true` when the given URL has been visited in this session.
    #[must_use]
    pub fn is_visited(&self, url: &str) -> bool {
        Url::parse(url)
            .map(|u| self.visited.contains(&u.to_string()))
            .unwrap_or(false)
    }

    /// A retained page: the current page or one loaded before it, up to
    /// [`RETAINED_PAGES`] in all.
    ///
    /// # Panics
    ///
    /// Panics only if `id` is outside that window: a page this browser has
    /// evicted, or an id it never issued. Use [`Browser::try_page`] where an id
    /// may be that old.
    #[must_use]
    pub fn page(&self, id: PageId) -> &Page {
        self.try_page(id)
            .expect("page id is within the retained window")
    }

    /// A retained page, as [`Browser::page`] without the panic.
    ///
    /// # Errors
    ///
    /// [`BrowserError::NoSuchPage`] when `id` names an evicted page or one this
    /// browser never issued.
    pub fn try_page(&self, id: PageId) -> Result<&Page, BrowserError> {
        self.slot(id).map(|slot| &self.pages[slot])
    }

    /// The position of page `id` in `pages`, if it is retained.
    fn slot(&self, id: PageId) -> Result<usize, BrowserError> {
        id.0.checked_sub(self.first_retained)
            .filter(|&slot| slot < self.pages.len())
            .ok_or(BrowserError::NoSuchPage(id.0))
    }

    // ------------------------------------------------------------- navigation

    /// Navigates to a URL as a user action (address bar / bookmark): the request is
    /// issued by the browser itself, so session cookies are attached.
    ///
    /// # Errors
    ///
    /// Fails when the URL is invalid or no server is registered for its origin.
    pub fn navigate(&mut self, url: &str) -> Result<PageId, BrowserError> {
        let url = Url::parse(url)?;
        let principal = PrincipalContext::browser(url.origin());
        self.load_page(url, Method::Get, String::new(), principal)
    }

    /// Follows a link (`a href`) in a loaded page. The anchor element is the
    /// HTTP-request-issuing principal, so cookie attachment is subject to its ring.
    ///
    /// # Errors
    ///
    /// Fails when the page is not retained, the element does not exist or has no
    /// `href`, or the target host is unreachable.
    pub fn click_link(&mut self, page: PageId, element_id: &str) -> Result<PageId, BrowserError> {
        let (target, principal) = {
            let page = self.try_page(page)?;
            let node = page
                .document
                .get_element_by_id(element_id)
                .ok_or_else(|| BrowserError::NoSuchElement(element_id.to_string()))?;
            let href = page
                .document
                .attribute(node, "href")
                .ok_or_else(|| BrowserError::NoSuchElement(format!("{element_id}[href]")))?;
            let target = page.url.join(href)?;
            let principal = page
                .contexts
                .request_issuer_principal(node, format!("anchor #{element_id}"));
            (target, principal)
        };
        self.load_page(target, Method::Get, String::new(), principal)
    }

    /// Submits a form in a loaded page, optionally overriding/adding fields. The form
    /// element is the HTTP-request-issuing principal.
    ///
    /// # Errors
    ///
    /// Fails when the page is not retained, the form does not exist, or the
    /// target host is unreachable.
    pub fn submit_form(
        &mut self,
        page: PageId,
        form_id: &str,
        overrides: &[(&str, &str)],
    ) -> Result<PageId, BrowserError> {
        let (target, method, body, principal) = {
            let page = self.try_page(page)?;
            let form = page
                .document
                .get_element_by_id(form_id)
                .ok_or_else(|| BrowserError::NoSuchElement(form_id.to_string()))?;
            let action = page.document.attribute(form, "action").unwrap_or("");
            let target = page.url.join(action)?;
            let method = page
                .document
                .attribute(form, "method")
                .unwrap_or("post")
                .parse::<Method>()
                .unwrap_or(Method::Post);

            // Collect input/textarea fields inside the form.
            let mut fields: Vec<(String, String)> = Vec::new();
            for node in page.document.descendants(form) {
                let Some(tag) = page.document.tag_name(node) else {
                    continue;
                };
                if tag != "input" && tag != "textarea" && tag != "select" {
                    continue;
                }
                let Some(name) = page.document.attribute(node, "name") else {
                    continue;
                };
                let value = if tag == "textarea" {
                    page.document.text_content(node)
                } else {
                    page.document
                        .attribute(node, "value")
                        .unwrap_or("")
                        .to_string()
                };
                fields.push((name.to_string(), value));
            }
            for (name, value) in overrides {
                match fields.iter_mut().find(|(n, _)| n == name) {
                    Some(entry) => entry.1 = (*value).to_string(),
                    None => fields.push(((*name).to_string(), (*value).to_string())),
                }
            }
            let body = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{}={}",
                        escudo_net::url::percent_encode(k),
                        escudo_net::url::percent_encode(v)
                    )
                })
                .collect::<Vec<_>>()
                .join("&");
            let principal = page
                .contexts
                .request_issuer_principal(form, format!("form #{form_id}"));
            (target, method, body, principal)
        };
        self.load_page(target, method, body, principal)
    }

    fn load_page(
        &mut self,
        url: Url,
        method: Method,
        body: String,
        principal: PrincipalContext,
    ) -> Result<PageId, BrowserError> {
        // One pin per navigation: the request, labelling, the page's scripts
        // and its subresources are all decided under one tenant generation.
        self.erm.pin();
        let prefetch_hits_before = self.prefetch_hits;
        let (mut response, mut policies) = self.fetch(url.clone(), method, body, &principal)?;
        let mut final_url = url;
        // Follow a small number of redirects (form POST → see-other → GET).
        let mut redirects = 0;
        while response.status.is_redirect() && redirects < 5 {
            let Some(location) = response.headers.get("Location").map(str::to_string) else {
                break;
            };
            final_url = final_url.join(&location)?;
            let browser_principal = PrincipalContext::browser(final_url.origin());
            (response, policies) = self.fetch(
                final_url.clone(),
                Method::Get,
                String::new(),
                &browser_principal,
            )?;
            redirects += 1;
        }

        // Build the page under the mode pinned above, the one every later
        // check of this navigation uses.
        let options = LoadOptions {
            mode: self.erm.mode(),
            viewport_width: self.viewport_width,
        };
        let mut page = PageLoader::load(&final_url, &response, policies, &options);

        // `fetch` remembered the cookie policies this response declared; make
        // every remembered policy for the same host available to this page.
        let host = final_url.host();
        for (policy_host, policy) in &self.cookie_policies {
            if policy_host.eq_ignore_ascii_case(host)
                && page.contexts.cookie_policy(&policy.name).is_none()
            {
                page.contexts.add_cookie_policy(policy.clone());
            }
        }

        // Browser state: history and visited links (mandatorily ring 0).
        if self.history.len() == MAX_HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(final_url.clone());
        self.visited.insert(final_url.to_string());

        // Execute the page's scripts in document order.
        self.execute_scripts(&mut page);

        // Start speculating on the *next* navigation before fanning out this
        // page's subresources: the speculative window runs on the session's
        // prefetch thread while the subresource windows below are in flight,
        // so prediction overlaps the current page's own fetch work.
        let speculation = self.submit_speculative(self.prefetch_candidates(&page));

        // Issue subresource requests (critical resources and images). These are
        // HTTP-request-issuing principals.
        self.load_subresources(&mut page);

        // Harvest the speculative responses into the fabric's prefetch cache.
        page.stats.prefetch_issued = speculation.map_or(0, |batch| batch.join().len() as u64);
        page.stats.prefetch_hit = self.prefetch_hits > prefetch_hits_before;

        // Re-render to account for script-driven DOM changes.
        if !page.scripts.is_empty() {
            let start = Instant::now();
            let renderer = Renderer::new(self.viewport_width);
            let (_, stats) = renderer.layout(&page.document);
            page.render_stats = stats;
            page.stats.render_ns += start.elapsed().as_nanos();
        }

        page.stats.policy_checks = self.erm.checks();
        page.stats.policy_denials = self.erm.denials();

        // The oldest retained page is dropped here, before the push, so the
        // window never holds more than `RETAINED_PAGES`.
        if self.pages.len() == RETAINED_PAGES {
            self.pages.pop_front();
            self.first_retained += 1;
        }
        self.pages.push_back(page);
        Ok(PageId(self.first_retained + self.pages.len() - 1))
    }

    /// Issues one HTTP request with policy-mediated cookie attachment, as a
    /// width-1 plan that may use the cache layers this session opted into, and
    /// stores any cookies (and cookie policies) the response carries. Returns
    /// the response with its policy headers, parsed once here.
    fn fetch(
        &mut self,
        url: Url,
        method: Method,
        body: String,
        principal: &PrincipalContext,
    ) -> Result<(Arc<Response>, ResponsePolicies), BrowserError> {
        let mut request = Request::new(method, url.clone());
        if !body.is_empty() {
            request.body = body;
            request
                .headers
                .set("Content-Type", "application/x-www-form-urlencoded");
        }
        self.attach_cookies(
            std::slice::from_mut(&mut request),
            std::slice::from_ref(principal),
        );
        let plan = FetchPlan {
            layers: CacheLayers {
                one_shot: self.prefetch_enabled,
                persistent: self.response_cache_enabled,
            },
            ..FetchPlan::new(vec![request], 1, self.fetch_policy)
        };
        let fetched = self.fabric.execute(plan).remove(0);
        self.count_hit(&fetched);
        let response = fetched.outcome?;
        // `Set-Cookie` is applied only when the response came off the wire: the
        // cache refuses Set-Cookie-bearing responses outright, and a hit must
        // never be able to write another session's credential into this jar.
        if fetched.source == Source::Wire {
            for directive in response.set_cookies() {
                self.jar.store(&url, &directive);
            }
        }
        let policies = ResponsePolicies::parse(&response);
        for policy in &policies.cookies {
            self.remember_cookie_policy(url.host(), policy);
        }
        Ok((response, policies))
    }

    /// Counts a cache hit by the layer that served it.
    fn count_hit(&mut self, fetched: &Fetched) {
        match fetched.source {
            Source::OneShot => self.prefetch_hits += 1,
            Source::Persistent => self.cache_hits += 1,
            Source::Wire | Source::Coalesced => {}
        }
    }

    fn remember_cookie_policy(&mut self, host: &str, policy: &CookiePolicy) {
        if let Some(entry) = self
            .cookie_policies
            .iter_mut()
            .find(|(h, p)| h.eq_ignore_ascii_case(host) && p.name == policy.name)
        {
            if entry.1 != *policy {
                entry.1 = policy.clone();
            }
        } else {
            self.cookie_policies
                .push((host.to_string(), policy.clone()));
        }
    }

    /// Cookie attachment — the `use` operation — for browser-initiated
    /// requests (navigations, redirects, form posts and speculative
    /// prefetches): one [`Erm::mediate_jar`] plan over `requests`, request `i`
    /// issued by `principals[i]`, with cookie contexts from the browser-wide
    /// remembered policies.
    fn attach_cookies(&mut self, requests: &mut [Request], principals: &[PrincipalContext]) {
        let cookie_policies = &self.cookie_policies;
        let inputs: Vec<(&Url, &PrincipalContext)> = requests
            .iter()
            .map(|request| &request.url)
            .zip(principals)
            .collect();
        let plan = self
            .erm
            .mediate_jar(&self.jar, &inputs, Operation::Use, |name, origin| {
                cookie_object_from_store(cookie_policies, name, origin)
            });
        for (request, attached) in requests.iter_mut().zip(plan.iter()) {
            if !attached.header.is_empty() {
                request.headers.set("Cookie", attached.header.clone());
            }
        }
    }
}

/// The security context of a cookie when no page is loaded: the browser-wide
/// remembered policies, falling back to the ring-0 default.
fn cookie_object_from_store(
    cookie_policies: &[(String, CookiePolicy)],
    name: &str,
    cookie_origin: escudo_core::Origin,
) -> escudo_core::ObjectContext {
    let policy = cookie_policies.iter().find(|(host, policy)| {
        host.eq_ignore_ascii_case(cookie_origin.host()) && policy.applies_to(name)
    });
    match policy {
        Some((_, policy)) => escudo_core::ObjectContext {
            kind: escudo_core::ObjectKind::Cookie,
            origin: cookie_origin,
            ring: policy.ring,
            acl: policy.acl,
            label: format!("cookie {name}").into(),
        },
        None => escudo_core::ObjectContext {
            kind: escudo_core::ObjectKind::Cookie,
            origin: cookie_origin,
            ring: escudo_core::Ring::INNERMOST,
            acl: escudo_core::Acl::permissive(),
            label: format!("cookie {name}").into(),
        },
    }
}

impl Browser {
    // ------------------------------------------------------------- scripts & events

    fn execute_scripts(&mut self, page: &mut Page) {
        let scripts = page.scripts.clone();
        for unit in scripts {
            let start = Instant::now();
            let principal = page
                .contexts
                .script_principal(unit.node, &format!("script in {}", unit.ring));
            let mut host = BrowserHost::new(
                &mut self.erm,
                &mut page.document,
                &mut page.contexts,
                &self.jar,
                &self.fabric,
                self.history.len(),
                page.url.clone(),
                principal,
                self.fetch_policy,
                self.response_cache_enabled,
            );
            let result = Interpreter::new(&mut host).run(&unit.source);
            let outcome = ScriptOutcome::of(unit.node, unit.ring, result);
            page.stats.script_ns += start.elapsed().as_nanos();
            page.script_outcomes.push(outcome);
        }
    }

    /// Delivers a UI event to the element with the given `id`. Delivery is an implicit
    /// `use` of the element; if the element carries an inline handler (`onclick`, …)
    /// the handler runs as a script principal in the element's ring.
    ///
    /// # Errors
    ///
    /// Fails when the page is not retained or the element does not exist. An
    /// event sent to an evicted page fails closed: no check is made and no
    /// handler runs.
    pub fn fire_event(
        &mut self,
        page_id: PageId,
        element_id: &str,
        event: EventType,
    ) -> Result<Option<ScriptOutcome>, BrowserError> {
        let slot = self.slot(page_id)?;
        self.erm.pin();
        let page = &mut self.pages[slot];
        let node = page
            .document
            .get_element_by_id(element_id)
            .ok_or_else(|| BrowserError::NoSuchElement(element_id.to_string()))?;

        // Event delivery is a `use` of the target element, performed here on behalf of
        // the user (browser chrome), so it is always permitted — but it is still a
        // mediated operation and shows up in the audit trail and the timing numbers.
        let chrome = PrincipalContext::browser(page.origin.clone());
        let object = page.contexts.dom_object(node, &format!("#{element_id}"));
        let decision = self.erm.check(&chrome, &object, Operation::Use);
        debug_assert!(decision.is_allowed());

        let Some(source) = page
            .document
            .attribute(node, &event.handler_attribute())
            .map(str::to_string)
        else {
            return Ok(None);
        };

        let start = Instant::now();
        let principal = PrincipalContext {
            kind: PrincipalKind::EventHandler,
            origin: page.origin.clone(),
            ring: page.contexts.node_label(node).ring,
            label: format!("on{event} handler of #{element_id}").into(),
        };
        let ring = principal.ring;
        let mut host = BrowserHost::new(
            &mut self.erm,
            &mut page.document,
            &mut page.contexts,
            &self.jar,
            &self.fabric,
            self.history.len(),
            page.url.clone(),
            principal,
            self.fetch_policy,
            self.response_cache_enabled,
        );
        let result = Interpreter::new(&mut host).run(&source);
        let outcome = ScriptOutcome::of(node, ring, result);
        page.stats.script_ns += start.elapsed().as_nanos();
        page.script_outcomes.push(outcome.clone());
        Ok(Some(outcome))
    }

    // ------------------------------------------------------------- prefetch

    /// Speculatively fetches `url` on the session's prefetch thread and caches
    /// the response for a later navigation of this session (or any session
    /// whose mediated cookie attachment for `url` is identical). Blocks until
    /// the speculative fetch completes; the in-page predictor of every page
    /// load overlaps the same work with the subresource fan-out instead.
    ///
    /// Returns `true` when a response was fetched and cached. Returns `false`
    /// when speculation is disabled ([`Browser::set_prefetch_enabled`]), the
    /// URL is invalid or unregistered, or the fetch failed.
    pub fn prefetch(&mut self, url: &str) -> bool {
        let url = Url::parse(url).ok();
        let Some(url) = url.filter(|url| self.prefetch_enabled && self.fabric.knows(url)) else {
            return false;
        };
        self.erm.pin();
        self.submit_speculative(vec![url])
            .is_some_and(|batch| batch.join().iter().any(|fetched| fetched.cached))
    }

    /// The likely next navigations of this page, most confident first: markup
    /// `rel=prefetch` hints, then anchors whose target this session has already
    /// visited (the visited-link predictor). Deduplicated, restricted to
    /// registered origins, excluding the page itself, truncated to
    /// [`PREFETCH_MAX_CANDIDATES`]; none when speculation is off.
    fn prefetch_candidates(&self, page: &Page) -> Vec<Url> {
        if !self.prefetch_enabled {
            return Vec::new();
        }
        let current = page.url.to_string();
        let mut seen: Vec<String> = Vec::new();
        let mut candidates: Vec<Url> = Vec::new();
        let hinted = page.prefetch_hints.iter().cloned().map(|href| (href, true));
        let anchors = page
            .document
            .elements_by_tag_name("a")
            .into_iter()
            .filter_map(|node| page.document.attribute(node, "href").map(str::to_string))
            .map(|href| (href, false));
        for (href, hinted) in hinted.chain(anchors) {
            let Ok(target) = page.url.join(&href) else {
                continue;
            };
            let key = target.to_string();
            if !hinted && !self.visited.contains(&key) {
                continue;
            }
            if key == current || seen.contains(&key) || !self.fabric.knows(&target) {
                continue;
            }
            seen.push(key);
            candidates.push(target);
            if candidates.len() == PREFETCH_MAX_CANDIDATES {
                break;
            }
        }
        candidates
    }

    /// Mediates one speculative request per candidate, all in one mediation
    /// plan, and submits them to the session's prefetch thread as one
    /// speculative plan. Each request is built exactly as the future
    /// navigation would build it — browser principal, cookie attachment
    /// through the same reference-monitor path — so speculation is itself
    /// fully mediated; a tenant-bound session decides all candidates under
    /// its pinned generation and admits them all or none. The attached `Cookie`
    /// header becomes the cache key the real navigation's plan is later
    /// validated against. Speculation spends the session's own retry budget:
    /// a transiently faulted prefetch may still land in the cache, and the
    /// plan stays unlogged either way, so retrying here can never perturb the
    /// request-log oracle. Joining the batch parks its responses in the
    /// prefetch cache. Their `Set-Cookie` directives are *never* applied:
    /// speculation must not mutate session state, and the cache refuses
    /// Set-Cookie-bearing responses outright, so such a speculation is simply
    /// dropped and the real navigation pays the wire cost.
    fn submit_speculative(&mut self, candidates: Vec<Url>) -> Option<BackgroundBatch> {
        if candidates.is_empty() {
            return None;
        }
        let principals: Vec<PrincipalContext> = candidates
            .iter()
            .map(|url| PrincipalContext::browser(url.origin()))
            .collect();
        let mut requests: Vec<Request> = candidates
            .into_iter()
            .map(|url| Request::new(Method::Get, url))
            .collect();
        self.attach_cookies(&mut requests, &principals);
        let plan = FetchPlan {
            speculative: true,
            ..FetchPlan::new(requests, usize::MAX, self.fetch_policy)
        };
        Some(self.prefetcher.submit(&self.fabric, plan))
    }

    // ------------------------------------------------------------- subresources

    /// Issues the HTTP requests for the page's external subresources. The
    /// render-critical ones (`link rel=stylesheet`, `script src`) are
    /// dispatched first, then the `img` fetches. Each element is an
    /// HTTP-request-issuing principal; cookie attachment for its request is
    /// mediated exactly like any other `use` of the cookies (`img` is the
    /// CSRF-by-image vector).
    ///
    /// The loader is a two-phase pipeline, keeping mediation provably independent
    /// of the transport:
    ///
    /// 1. **Plan** — one walk over the document collects every fetchable
    ///    subresource (critical resources in document order, then images in
    ///    document order), the fabric is asked once per origin whether it
    ///    serves it, and one [`Erm::mediate_jar`] batch fixes every
    ///    request's cookie attachment. The plan reads one jar snapshot, taken
    ///    with one `now`: one jar walk per (scheme, host), one `Cookie` header
    ///    string per distinct attachment, one engine batch per page. No fetch
    ///    has been dispatched yet, so no completion order — and no scheduling
    ///    decision — can influence a decision.
    /// 2. **Fan out** — one [`FetchPlan`] of two stages, the already-mediated
    ///    critical requests, then the image requests, run by
    ///    [`SharedNetwork::execute`]. Each stage is a **deadline window** on
    ///    the navigating thread: up to `subresource_workers` requests in
    ///    flight overall (no page-wide cap by default) and at most 6 to any
    ///    one origin, completed in due order, with no other thread involved.
    ///    Outcomes come back in plan order, so [`Page::subresources`] and the
    ///    sequence-sorted request log both read in plan order regardless of
    ///    which fetch finished first.
    fn load_subresources(&mut self, page: &mut Page) {
        use crate::page::SubresourceKind;

        // ------------------------------------------------------------- phase 1
        let plan_start = Instant::now();
        let found = escudo_html::subresources(&page.document);
        let entries = found
            .critical
            .iter()
            .map(|&(node, tag, src)| (SubresourceKind::Critical, node, tag, src))
            .chain(
                found
                    .images
                    .iter()
                    .map(|&(node, src)| (SubresourceKind::Image, node, "img", src)),
            );
        // Whether the fabric knows an origin is asked once per origin.
        let mut origins: Vec<(Origin, bool)> = Vec::new();
        let mut planned: Vec<(escudo_dom::NodeId, Url, PrincipalContext, SubresourceKind)> =
            Vec::with_capacity(found.critical.len() + found.images.len());
        // Each principal's label is written here, then copied once into its
        // shared `Arc<str>`.
        let mut label = String::new();
        for (kind, node, tag, src) in entries {
            let Ok(target) = page.url.join(src) else {
                continue;
            };
            let seen = origins.iter().find(|(origin, _)| {
                origin.port() == target.port()
                    && origin.host() == target.host()
                    && origin.scheme() == target.scheme()
            });
            let known = match seen {
                Some(&(_, known)) => known,
                None => {
                    let origin = target.origin();
                    let known = self.fabric.knows_origin(&origin);
                    origins.push((origin, known));
                    known
                }
            };
            if !known {
                continue;
            }
            label.clear();
            label.push_str(tag);
            label.push_str(" src=");
            label.push_str(src);
            let principal = page.contexts.request_issuer_principal(node, label.as_str());
            planned.push((node, target, principal, kind));
        }
        if planned.is_empty() {
            return;
        }

        let denials_before = self.erm.denials();
        let mediation_inputs: Vec<(&Url, &PrincipalContext)> = planned
            .iter()
            .map(|(_, url, principal, _)| (url, principal))
            .collect();
        let attachments = self.erm.mediate_jar(
            &self.jar,
            &mediation_inputs,
            Operation::Use,
            |name, origin| page.contexts.cookie_object(name, origin),
        );
        page.stats.subresource_denials = self.erm.denials() - denials_before;

        let requests: Vec<Request> = planned
            .iter()
            .zip(attachments.iter())
            .map(|((_, url, _, _), attached)| {
                let mut request = Request::new(Method::Get, url.clone());
                if !attached.header.is_empty() {
                    request.headers.append("Cookie", attached.header.clone());
                }
                request
            })
            .collect();

        // ------------------------------------------------------------- phase 2
        let count = requests.len();
        let critical_count = planned
            .iter()
            .filter(|(_, _, _, kind)| *kind == SubresourceKind::Critical)
            .count();
        // A cache-enabled session may also consume its own speculation here; a
        // default session consults nothing.
        let layers = CacheLayers {
            one_shot: self.prefetch_enabled && self.response_cache_enabled,
            persistent: self.response_cache_enabled,
        };
        let plan = FetchPlan {
            stages: vec![critical_count],
            layers,
            ..FetchPlan::new(requests, self.subresource_workers, self.fetch_policy)
        };
        page.stats.subresource_plan_ns = plan_start.elapsed().as_nanos();
        let start = Instant::now();
        let outcomes = self.fabric.execute(plan);
        page.stats.subresource_fetch_ns = start.elapsed().as_nanos();
        page.stats.subresource_requests = count as u64;

        // Record outcomes in plan order, not completion order. A slot whose
        // retries ran dry degrades into `error` — the page load itself never
        // fails on a subresource.
        page.subresources.reserve(count);
        for (((node, url, _, kind), attached), fetched) in
            planned.into_iter().zip(attachments.iter()).zip(outcomes)
        {
            self.count_hit(&fetched);
            let (status, error) = match fetched.outcome {
                Ok(response) => (Some(response.status.0), None),
                Err(error) => (None, Some(error.to_string())),
            };
            page.subresources.push(SubresourceOutcome {
                node,
                kind,
                url,
                attached_cookies: attached.names.clone(),
                status,
                error,
                retries: fetched.retries,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_net::{FaultPlan, Response, Server};

    struct Static(String);
    impl Server for Static {
        fn handle(&mut self, _req: &Request) -> Response {
            Response::ok_html(self.0.clone())
        }
    }

    fn browser_with(mode: PolicyMode, html: &str) -> Browser {
        let browser = Browser::new(mode);
        browser
            .fabric()
            .register("http://app.example", Static(html.to_string()));
        browser
    }

    #[test]
    fn navigation_loads_a_page_and_updates_history() {
        let mut browser = browser_with(
            PolicyMode::Escudo,
            "<html><body ring=1><p id=hello>hi</p></body></html>",
        );
        let page = browser.navigate("http://app.example/index.php").unwrap();
        assert_eq!(browser.page(page).text_of("hello").as_deref(), Some("hi"));
        assert_eq!(browser.history().len(), 1);
        assert!(browser.is_visited("http://app.example/index.php"));
        assert!(!browser.is_visited("http://app.example/other.php"));
    }

    #[test]
    fn low_ring_script_cannot_modify_high_ring_region() {
        let html = r#"<html><body ring=1 r=1 w=1 x=1>
            <div ring=1 r=1 w=1 x=1 id=post>Original</div>
            <div ring=3 r=3 w=3 x=3 id=comment>
              <script>document.getElementById('post').innerHTML = 'defaced';</script>
            </div>
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        let page = browser.navigate("http://app.example/").unwrap();
        assert!(browser.page(page).any_script_denied());
        assert_eq!(
            browser.page(page).text_of("post").as_deref(),
            Some("Original")
        );

        // Under the same-origin baseline the same attack succeeds.
        let mut sop = browser_with(PolicyMode::SameOriginOnly, html);
        let page = sop.navigate("http://app.example/").unwrap();
        assert!(!sop.page(page).any_script_denied());
        assert_eq!(sop.page(page).text_of("post").as_deref(), Some("defaced"));
    }

    #[test]
    fn high_ring_script_may_modify_lower_ring_regions() {
        let html = r#"<html><body ring=1 r=1 w=1 x=1>
            <div ring=3 r=2 w=2 x=2 id=message>old</div>
            <div ring=1 r=1 w=1 x=1>
              <script>document.getElementById('message').innerHTML = 'moderated';</script>
            </div>
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        let page = browser.navigate("http://app.example/").unwrap();
        assert!(browser.page(page).all_scripts_succeeded());
        assert_eq!(
            browser.page(page).text_of("message").as_deref(),
            Some("moderated")
        );
    }

    #[test]
    fn legacy_pages_behave_like_sop_under_escudo() {
        let html = r#"<html><body>
            <div id=target>old</div>
            <script>document.getElementById('target').innerHTML = 'changed';</script>
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        let page = browser.navigate("http://app.example/").unwrap();
        assert!(browser.page(page).legacy);
        assert!(browser.page(page).all_scripts_succeeded());
        assert_eq!(
            browser.page(page).text_of("target").as_deref(),
            Some("changed")
        );
    }

    #[test]
    fn event_handlers_run_in_the_elements_ring() {
        let html = r#"<html><body ring=1 r=1 w=1 x=1>
            <div id=status>idle</div>
            <button id=good onclick="document.getElementById('status').innerHTML = 'clicked';">ok</button>
            <div ring=3 r=3 w=3 x=3>
              <button id=evil onclick="document.getElementById('status').innerHTML = 'pwned';">x</button>
            </div>
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        let page = browser.navigate("http://app.example/").unwrap();

        let ok = browser
            .fire_event(page, "good", EventType::Click)
            .unwrap()
            .unwrap();
        assert!(ok.succeeded());
        assert_eq!(
            browser.page(page).text_of("status").as_deref(),
            Some("clicked")
        );

        let evil = browser
            .fire_event(page, "evil", EventType::Click)
            .unwrap()
            .unwrap();
        assert!(evil.was_denied());
        assert_eq!(
            browser.page(page).text_of("status").as_deref(),
            Some("clicked")
        );

        // Firing an event on an element without a handler is a no-op.
        assert!(browser
            .fire_event(page, "status", EventType::Click)
            .unwrap()
            .is_none());
    }

    #[test]
    fn setting_configuration_attributes_from_scripts_is_denied() {
        let html = r#"<html><body ring=1 r=1 w=1 x=1>
            <div ring=3 r=3 w=3 x=3 id=user>
              <script>document.getElementById('user').setAttribute('ring', '0');</script>
            </div>
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        let page = browser.navigate("http://app.example/").unwrap();
        assert!(browser.page(page).any_script_denied());
        // The label table still holds ring 3 for the element.
        let doc = &browser.page(page).document;
        let user = doc.get_element_by_id("user").unwrap();
        assert_eq!(
            browser.page(page).contexts.node_label(user).ring,
            escudo_core::Ring::new(3)
        );
    }

    #[test]
    fn sessions_sharing_a_jar_see_each_others_cookies() {
        use escudo_core::engine_for_mode;
        use escudo_net::SharedCookieJar;

        struct SetThenEcho;
        impl Server for SetThenEcho {
            fn handle(&mut self, req: &Request) -> Response {
                if req.url.path() == "/login.php" {
                    Response::ok_html("<html><body ring=1>in</body></html>")
                        .with_cookie(escudo_net::SetCookie::new("sid", "shared"))
                } else {
                    Response::ok_html("<html><body ring=1>page</body></html>")
                }
            }
        }

        let jar = Arc::new(SharedCookieJar::new());
        let engine = engine_for_mode(PolicyMode::Escudo);

        // Session A logs in; the cookie lands in the shared jar.
        let mut a = Browser::with_jar(Arc::clone(&engine), Arc::clone(&jar));
        a.fabric().register("http://app.example", SetThenEcho);
        a.navigate("http://app.example/login.php").unwrap();
        assert_eq!(jar.get("app.example", "sid").unwrap().value, "shared");

        // Session B (own browser, own network) shares the jar: its request to the
        // same host attaches the session cookie session A established.
        let mut b = Browser::with_jar(engine, jar);
        b.fabric().register("http://app.example", SetThenEcho);
        b.navigate("http://app.example/index.php").unwrap();
        let log = b.fabric().log();
        assert_eq!(log.last().unwrap().cookie_names, vec!["sid"]);

        // A browser built through `with_engine` keeps a private jar.
        let mut lone = Browser::new(PolicyMode::Escudo);
        lone.fabric().register("http://app.example", SetThenEcho);
        lone.navigate("http://app.example/index.php").unwrap();
        assert!(lone.fabric().log().last().unwrap().cookie_names.is_empty());
    }

    #[test]
    fn subresource_loader_records_document_order_and_stats() {
        use std::time::Duration;

        let html = r#"<html><body ring=1>
            <img src="http://img0.example/a.png">
            <img src="http://img1.example/b.png">
            <img src="http://img0.example/c.png">
            <img src="http://missing.example/d.png">
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        for host in ["http://img0.example", "http://img1.example"] {
            browser.fabric().register(host, |req: &Request| {
                Response::ok_text(format!("img {}", req.url.path()))
            });
        }
        // Skew the latencies so the *first* image is the slowest: under the
        // pipelined loader it completes last, but outcomes and the
        // sequence-sorted log must still read in document order.
        browser
            .fabric()
            .set_latency("http://img0.example", Duration::from_millis(3));
        assert_eq!(browser.subresource_workers(), DEFAULT_SUBRESOURCE_WORKERS);

        let page = browser.navigate("http://app.example/index.php").unwrap();
        let page = browser.page(page);
        // The unregistered host is filtered at plan time; three fetches dispatch.
        assert_eq!(page.stats.subresource_requests, 3);
        assert_eq!(page.subresources.len(), 3);
        assert!(page.stats.subresource_fetch_ns > 0);
        let urls: Vec<String> = page
            .subresources
            .iter()
            .map(|s| s.url.to_string())
            .collect();
        assert_eq!(
            urls,
            vec![
                "http://img0.example/a.png",
                "http://img1.example/b.png",
                "http://img0.example/c.png",
            ]
        );
        assert!(page.subresources.iter().all(SubresourceOutcome::succeeded));
        // Sequence-sorted shared log: the main page, then the images in document
        // order — completion order is irrelevant.
        let paths: Vec<String> = browser
            .fabric()
            .log()
            .iter()
            .map(|e| e.url.path().to_string())
            .collect();
        assert_eq!(paths, vec!["/index.php", "/a.png", "/b.png", "/c.png"]);
    }

    #[test]
    fn subresource_planning_time_is_recorded_only_for_pages_that_plan() {
        let with_images = r#"<html><body ring=1>
            <img src="http://img0.example/a.png">
            <img src="http://img0.example/b.png">
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, with_images);
        browser
            .fabric()
            .register("http://img0.example", |_req: &Request| {
                Response::ok_text("img")
            });
        let page = browser.navigate("http://app.example/").unwrap();
        let stats = browser.page(page).stats;
        assert_eq!(stats.subresource_requests, 2);
        assert!(stats.subresource_plan_ns > 0);

        let mut bare = browser_with(
            PolicyMode::Escudo,
            "<html><body><p>no images</p></body></html>",
        );
        let page = bare.navigate("http://app.example/").unwrap();
        let stats = bare.page(page).stats;
        assert_eq!(stats.subresource_requests, 0);
        assert_eq!(stats.subresource_plan_ns, 0);
    }

    #[test]
    fn a_default_session_has_no_page_wide_cap_on_in_flight_images() {
        use std::sync::Mutex;
        use std::time::Duration;

        // Reverse-skewed latencies: the last origin in plan order answers
        // first, but only if its request went out with the others.
        let images: String = (0..5)
            .map(|k| format!("<img src=\"http://h{k}.example/i.png\">"))
            .collect();
        let html = format!("<html><body ring=1>{images}</body></html>");
        let first_call = |workers: Option<usize>| {
            let mut browser = browser_with(PolicyMode::Escudo, &html);
            let calls: Arc<Mutex<Vec<String>>> = Arc::default();
            for k in 0..5u64 {
                let origin = format!("http://h{k}.example");
                let calls = Arc::clone(&calls);
                browser.fabric().register(&origin, move |req: &Request| {
                    calls.lock().unwrap().push(req.url.host().to_string());
                    Response::ok_text("img")
                });
                browser
                    .fabric()
                    .set_latency(&origin, Duration::from_millis(4 * (5 - k)));
            }
            if let Some(workers) = workers {
                browser.set_subresource_workers(workers);
            }
            let page = browser.navigate("http://app.example/index.php").unwrap();
            assert!(browser
                .page(page)
                .subresources
                .iter()
                .all(SubresourceOutcome::succeeded));
            let calls = calls.lock().unwrap();
            assert_eq!(calls.len(), 5);
            calls[0].clone()
        };
        assert_eq!(first_call(None), "h4.example");
        assert_eq!(first_call(Some(4)), "h3.example");
    }

    #[test]
    fn a_page_of_100k_nested_divs_loads_on_a_default_stack() {
        const DEPTH: usize = 100_000;
        // The script at the innermost level reads the outermost div's
        // `innerHTML`: a serialization 100K levels deep.
        let html = format!(
            "<html><body><div id=top>{}deep<img src=\"http://img.example/deep.png\">\
             <script>document.getElementById('top').innerHTML.length;</script>",
            "<div>".repeat(DEPTH - 1)
        );
        for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
            let mut browser = browser_with(mode, &html);
            browser
                .fabric()
                .register("http://img.example", |_req: &Request| {
                    Response::ok_text("img")
                });
            let page = browser.navigate("http://app.example/index.php").unwrap();
            let page = browser.page(page);
            // html, body, the divs, the text run and the image.
            assert_eq!(page.render_stats.boxes, DEPTH + 4, "{mode:?}");
            assert_eq!(page.subresources.len(), 1);
            assert!(page.subresources[0].succeeded());
            assert_eq!(page.script_outcomes.len(), 1);
            let top = page.document.get_element_by_id("top").unwrap();
            let length = page.document.inner_html(top).chars().count();
            assert_eq!(page.script_outcomes[0].result, Ok(length.to_string()));
        }
    }

    #[test]
    fn critical_resources_ride_the_navigation_lane_ahead_of_images() {
        use crate::page::SubresourceKind;

        // Document order interleaves an image between the critical resources;
        // the plan still puts both critical fetches first.
        let html = r#"<html><head>
            <link rel="stylesheet" href="http://assets.example/site.css">
        </head><body ring=1>
            <img src="http://assets.example/banner.png">
            <script src="http://assets.example/app.js"></script>
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        browser
            .fabric()
            .register("http://assets.example", |req: &Request| {
                Response::ok_text(format!("asset {}", req.url.path()))
            });

        let page = browser.navigate("http://app.example/index.php").unwrap();
        let page = browser.page(page);
        let plan: Vec<(SubresourceKind, String)> = page
            .subresources
            .iter()
            .map(|s| (s.kind, s.url.path().to_string()))
            .collect();
        assert_eq!(
            plan,
            vec![
                (SubresourceKind::Critical, "/site.css".to_string()),
                (SubresourceKind::Critical, "/app.js".to_string()),
                (SubresourceKind::Image, "/banner.png".to_string()),
            ]
        );
        assert!(page.subresources.iter().all(SubresourceOutcome::succeeded));
        // The sequence-sorted log reads in plan order: critical window first.
        let paths: Vec<String> = browser
            .fabric()
            .log()
            .iter()
            .map(|e| e.url.path().to_string())
            .collect();
        assert_eq!(
            paths,
            vec!["/index.php", "/site.css", "/app.js", "/banner.png"]
        );
    }

    #[test]
    fn prefetch_hint_serves_the_next_navigation_from_cache() {
        let html = concat!(
            "<html><head>",
            r#"<link rel="prefetch" href="/next.php">"#,
            "</head><body ring=1>hub</body></html>"
        );
        let mut browser = browser_with(PolicyMode::Escudo, html);

        // Speculation is a per-session opt-in: a default session never touches
        // the prefetch cache.
        browser.navigate("http://app.example/hub.php").unwrap();
        assert_eq!(browser.fabric().prefetched_entries(), 0);
        assert!(!browser.prefetch("http://app.example/next.php"));

        browser.set_prefetch_enabled(true);
        let hub = browser.navigate("http://app.example/hub.php").unwrap();
        assert_eq!(browser.page(hub).stats.prefetch_issued, 1);
        assert!(!browser.page(hub).stats.prefetch_hit);
        assert_eq!(browser.fabric().prefetched_entries(), 1);

        // The speculative fetch is unlogged; the log grows only when the hit
        // is consumed — under the navigation's own sequence number.
        let logged_before = browser.fabric().log().len();
        let next = browser.navigate("http://app.example/next.php").unwrap();
        assert!(browser.page(next).stats.prefetch_hit);
        assert_eq!(browser.prefetch_hits(), 1);
        assert_eq!(browser.fabric().prefetch_hits(), 1);
        assert_eq!(browser.fabric().prefetched_entries(), 0);
        let log = browser.fabric().log();
        assert_eq!(log.len(), logged_before + 1);
        assert_eq!(log.last().unwrap().url.path(), "/next.php");

        // The explicit API refills the cache for the next repeat navigation.
        assert!(browser.prefetch("http://app.example/next.php"));
        assert_eq!(browser.fabric().prefetched_entries(), 1);
        assert!(!browser.prefetch("http://unregistered.example/x"));
        assert!(!browser.prefetch("not a url"));
    }

    #[test]
    fn prefetch_spends_the_session_retry_budget() {
        // The hub hints an item on its own origin whose first dispatch times
        // out. With one retry the speculation heals into the prefetch cache;
        // with the disabled policy it fails, and the item is fetched live.
        let hub = concat!(
            "<html><head>",
            r#"<link rel="prefetch" href="http://item.example/item.php">"#,
            "</head><body ring=1>hub</body></html>"
        );
        for (policy, healed) in [
            (FetchPolicy::disabled().with_max_retries(1), true),
            (FetchPolicy::disabled(), false),
        ] {
            let mut browser = browser_with(PolicyMode::Escudo, hub);
            browser.fabric().register(
                "http://item.example",
                Static("<html><body ring=1>item</body></html>".into()),
            );
            browser
                .fabric()
                .inject_fault("http://item.example", FaultPlan::new().fail_first(1));
            browser.set_fetch_policy(policy);
            browser.set_prefetch_enabled(true);

            let page = browser.navigate("http://app.example/hub.php").unwrap();
            assert_eq!(browser.page(page).stats.prefetch_issued, 1);
            let fabric = Arc::clone(browser.fabric());
            assert_eq!(fabric.prefetched_entries(), usize::from(healed));
            assert_eq!(fabric.retry_attempts(), u64::from(healed));
            assert_eq!(fabric.retry_successes(), u64::from(healed));
            // Speculation logs nothing: the log holds the hub alone.
            let log = browser.fabric().log();
            assert_eq!(log.len(), 1);
            assert_eq!(log[0].url.path(), "/hub.php");

            let item = browser.navigate("http://item.example/item.php").unwrap();
            assert_eq!(browser.page(item).stats.prefetch_hit, healed);
            assert_eq!(fabric.prefetch_hits(), u64::from(healed));
            // One timed-out speculative dispatch in both runs; a live fetch
            // is the item origin's second dispatch and goes through.
            assert_eq!(fabric.faults_injected(), 1);
            assert_eq!(browser.fabric().log().len(), 2);
        }
    }

    #[test]
    fn visited_anchors_feed_the_prefetch_predictor() {
        let html = r#"<html><body ring=1>
            <a id=seen href="/seen.php">back</a>
            <a id=new href="/new.php">on</a>
        </body></html>"#;
        let mut browser = browser_with(PolicyMode::Escudo, html);
        browser.set_prefetch_enabled(true);

        // Nothing visited yet: anchors alone predict nothing.
        let first = browser.navigate("http://app.example/index.php").unwrap();
        assert_eq!(browser.page(first).stats.prefetch_issued, 0);

        // After visiting /seen.php, re-loading the hub speculates on it (and
        // only it — /new.php was never visited).
        browser.navigate("http://app.example/seen.php").unwrap();
        let again = browser.navigate("http://app.example/index.php").unwrap();
        assert_eq!(browser.page(again).stats.prefetch_issued, 1);
        assert_eq!(browser.fabric().prefetched_entries(), 1);
        let hit = browser.navigate("http://app.example/seen.php").unwrap();
        assert!(browser.page(hit).stats.prefetch_hit);
    }

    #[test]
    fn sessions_sharing_a_fabric_share_servers_and_log() {
        let fabric = Arc::new(SharedNetwork::new());
        let engine = engine_for_mode(PolicyMode::Escudo);
        let jar = Arc::new(SharedCookieJar::new());
        let a = Browser::with_network(Arc::clone(&engine), Arc::clone(&jar), Arc::clone(&fabric));
        a.fabric().register(
            "http://app.example",
            Static("<html><body ring=1>shared</body></html>".to_string()),
        );
        // Session B registered nothing, but reaches session A's server through the
        // shared fabric — and both sessions read one request log.
        let mut b = Browser::with_network(engine, jar, fabric);
        b.navigate("http://app.example/from-b.php").unwrap();
        assert_eq!(a.fabric().log().len(), 1);
        assert_eq!(a.fabric().count_requests_to("app.example"), 1);
        assert_eq!(a.fabric().log()[0].url.path(), "/from-b.php");
    }

    /// A ring-1 post and a ring-3 comment script that overwrites it: denied
    /// under ESCUDO, allowed under the same-origin baseline.
    const DEFACEABLE: &str = r#"<html><body ring=1 r=1 w=1 x=1>
            <div ring=1 r=1 w=1 x=1 id=post>Original</div>
            <div ring=3 r=3 w=3 x=3 id=comment>
              <script>document.getElementById('post').innerHTML = 'defaced';</script>
            </div>
        </body></html>"#;

    #[test]
    fn tenant_bound_session_observes_hot_reload_at_the_next_navigation() {
        use escudo_core::tenant::{Tenant, TenantConfig};

        let tenant = Arc::new(Tenant::new("acme", TenantConfig::default()));
        let mut browser = Browser::with_tenant(Arc::clone(&tenant));
        browser
            .fabric()
            .register("http://app.example", Static(DEFACEABLE.to_string()));
        assert_eq!(browser.tenant().unwrap().id(), "acme");
        assert_eq!(browser.mode(), PolicyMode::Escudo);

        // Generation 1 (ESCUDO): the ring-3 script is denied.
        let page = browser.navigate("http://app.example/").unwrap();
        assert!(browser.page(page).any_script_denied());
        assert_eq!(
            browser.page(page).text_of("post").as_deref(),
            Some("Original")
        );

        // The control plane hot-reloads the tenant to the SOP baseline. The
        // already-loaded page is untouched; the *next* navigation pins the new
        // generation and the same attack now succeeds.
        tenant.reload_with(PolicyMode::SameOriginOnly);
        let page = browser.navigate("http://app.example/").unwrap();
        assert!(!browser.page(page).any_script_denied());
        assert_eq!(
            browser.page(page).text_of("post").as_deref(),
            Some("defaced")
        );
        assert_eq!(browser.mode(), PolicyMode::SameOriginOnly);
        assert_eq!(tenant.generation(), 2);
    }

    #[test]
    fn a_reload_inside_a_navigation_waits_for_the_next_navigation() {
        use escudo_core::tenant::{Tenant, TenantConfig};

        use PolicyMode::{Escudo, SameOriginOnly};
        for (from, to, first, second) in [
            (Escudo, SameOriginOnly, "Original", "defaced"),
            (SameOriginOnly, Escudo, "defaced", "Original"),
        ] {
            // The server reloads the tenant while serving the first response:
            // after the session pinned generation 1, before the page exists.
            let tenant = Arc::new(Tenant::new("acme", TenantConfig::default().with_mode(from)));
            let reloader = Arc::clone(&tenant);
            let mut browser = Browser::with_tenant(Arc::clone(&tenant));
            browser
                .fabric()
                .register("http://app.example", move |_: &Request| {
                    if reloader.generation() == 1 {
                        reloader.reload_with(to);
                    }
                    Response::ok_html(DEFACEABLE)
                });

            let page = browser.navigate("http://app.example/").unwrap();
            assert_eq!(tenant.generation(), 2);
            assert_eq!(browser.page(page).text_of("post").as_deref(), Some(first));
            let audit = browser.erm().audit();
            assert!(!audit.is_empty());
            assert!(audit.iter().all(|record| record.mode == from), "{from:?}");
            assert_eq!(browser.erm().generation(), Some(1));

            let page = browser.navigate("http://app.example/").unwrap();
            assert_eq!(browser.erm().generation(), Some(2));
            assert_eq!(browser.mode(), to);
            assert_eq!(browser.page(page).text_of("post").as_deref(), Some(second));
        }
    }

    #[test]
    fn tenant_admission_sheds_navigation_mediation() {
        use escudo_core::tenant::{Tenant, TenantConfig};
        use escudo_net::SetCookie;

        struct SetThenEcho;
        impl Server for SetThenEcho {
            fn handle(&mut self, req: &Request) -> Response {
                if req.url.path() == "/login.php" {
                    Response::ok_html("<html><body ring=1>in</body></html>")
                        .with_cookie(SetCookie::new("sid", "s1"))
                } else {
                    Response::ok_html("<html><body ring=1>page</body></html>")
                }
            }
        }

        // One token, no refill: the login's cookie mediation (zero candidates —
        // free) stores the cookie; the next navigation's single-cookie plan
        // consumes the token; the one after that is shed and attaches nothing.
        let tenant = Arc::new(Tenant::new(
            "metered",
            TenantConfig::default().with_admission(1, 0),
        ));
        let mut browser = Browser::with_tenant(Arc::clone(&tenant));
        browser.fabric().register("http://app.example", SetThenEcho);
        browser.navigate("http://app.example/login.php").unwrap();
        browser.navigate("http://app.example/a.php").unwrap();
        let log = browser.fabric().log();
        assert_eq!(log.last().unwrap().cookie_names, vec!["sid"]);

        browser.navigate("http://app.example/b.php").unwrap();
        let log = browser.fabric().log();
        assert!(log.last().unwrap().cookie_names.is_empty());
        let stats = tenant.admission().stats();
        assert_eq!((stats.admitted, stats.rejected), (1, 1));
    }

    #[test]
    fn tenant_speculation_is_one_plan_admitted_all_or_nothing() {
        use escudo_core::tenant::{Tenant, TenantConfig};
        use escudo_net::SetCookie;

        struct Hub;
        impl Server for Hub {
            fn handle(&mut self, req: &Request) -> Response {
                match req.url.path() {
                    "/login.php" => Response::ok_html("<html><body ring=1>in</body></html>")
                        .with_cookie(SetCookie::new("sid", "s1")),
                    "/hub.php" => Response::ok_html(concat!(
                        "<html><head>",
                        r#"<link rel="prefetch" href="/a.php">"#,
                        r#"<link rel="prefetch" href="/b.php">"#,
                        "</head><body ring=1>hub</body></html>"
                    )),
                    _ => Response::ok_html("<html><body ring=1>item</body></html>"),
                }
            }
        }

        // The login attaches nothing (free); the hub navigation attaches
        // `sid` (one token); the speculative plan asks once for both of its
        // candidates' `sid` checks. With one token left it is shed whole:
        // neither candidate attaches, and both checks are rejected.
        for (burst, admitted, rejected) in [(2, 1, 2), (3, 3, 0)] {
            let tenant = Arc::new(Tenant::new(
                "metered",
                TenantConfig::default().with_admission(burst, 0),
            ));
            let mut browser = Browser::with_tenant(Arc::clone(&tenant));
            browser.fabric().register("http://app.example", Hub);
            browser.set_prefetch_enabled(true);
            browser.navigate("http://app.example/login.php").unwrap();
            let hub = browser.navigate("http://app.example/hub.php").unwrap();
            assert_eq!(browser.page(hub).stats.prefetch_issued, 2);
            let stats = tenant.admission().stats();
            assert_eq!(
                (stats.admitted, stats.rejected),
                (admitted, rejected),
                "burst {burst}"
            );
            // A shed plan denies its checks as throttled, all of them.
            assert_eq!(browser.erm().denials(), rejected, "burst {burst}");
        }
    }

    #[test]
    fn missing_pages_and_elements_are_reported() {
        let mut browser = browser_with(PolicyMode::Escudo, "<html><body ring=1></body></html>");
        let page = browser.navigate("http://app.example/").unwrap();
        assert!(matches!(
            browser.fire_event(page, "ghost", EventType::Click),
            Err(BrowserError::NoSuchElement(_))
        ));
        assert!(matches!(
            browser.click_link(page, "ghost"),
            Err(BrowserError::NoSuchElement(_))
        ));
        assert!(browser.navigate("http://unregistered.example/").is_err());
        assert!(browser.navigate("not a url").is_err());
    }

    /// A page with a handler, a self link and a form, so that an entry point
    /// can fail only on its page id.
    const INTERACTIVE: &str = r#"<html><body ring=1 r=1 w=1 x=1>
        <div id=status>idle</div>
        <button id=button onclick="document.getElementById('status').innerHTML = 'clicked';">go</button>
        <a id=link href="/index.php">again</a>
        <form id=form action="/index.php" method=get><input name=q value=x></form>
    </body></html>"#;

    /// A session that has evicted its first page, that page's id, and an id
    /// the session never issued (issued by another browser that loaded more).
    fn session_with_stale_ids() -> (Browser, PageId, PageId) {
        let mut browser = browser_with(PolicyMode::Escudo, INTERACTIVE);
        let evicted = browser.navigate("http://app.example/index.php").unwrap();
        for _ in 0..RETAINED_PAGES {
            browser.navigate("http://app.example/index.php").unwrap();
        }
        let mut other = browser_with(PolicyMode::Escudo, INTERACTIVE);
        let mut foreign = other.navigate("http://app.example/index.php").unwrap();
        for _ in 0..2 * RETAINED_PAGES {
            foreign = other.navigate("http://app.example/index.php").unwrap();
        }
        assert!(matches!(
            browser.try_page(evicted),
            Err(BrowserError::NoSuchPage(0))
        ));
        assert!(other.try_page(foreign).is_ok());
        (browser, evicted, foreign)
    }

    /// `fire_event` on `stale` fails with `NoSuchPage` before any check is
    /// made or any handler runs.
    fn assert_event_fails_closed(browser: &mut Browser, stale: PageId) {
        let checks = browser.erm().checks();
        let audited = browser.erm().audit().len();
        let logged = browser.fabric().log_len();
        let error = browser
            .fire_event(stale, "button", EventType::Click)
            .unwrap_err();
        assert_eq!(error, BrowserError::NoSuchPage(stale.0));
        assert_eq!(browser.erm().checks(), checks);
        assert_eq!(browser.erm().audit().len(), audited);
        assert_eq!(browser.fabric().log_len(), logged);
    }

    #[test]
    fn an_event_on_an_evicted_page_fails_closed() {
        let (mut browser, evicted, _) = session_with_stale_ids();
        assert_event_fails_closed(&mut browser, evicted);
        // The retained pages still take the same event.
        let current = PageId(RETAINED_PAGES);
        assert!(browser
            .fire_event(current, "button", EventType::Click)
            .unwrap()
            .unwrap()
            .succeeded());
        assert_eq!(
            browser.page(current).text_of("status").as_deref(),
            Some("clicked")
        );
    }

    #[test]
    fn an_event_on_a_never_issued_page_fails_closed() {
        let (mut browser, _, foreign) = session_with_stale_ids();
        assert_event_fails_closed(&mut browser, foreign);
    }

    #[test]
    fn a_link_on_an_evicted_page_is_no_such_page() {
        let (mut browser, evicted, _) = session_with_stale_ids();
        let logged = browser.fabric().log_len();
        assert_eq!(
            browser.click_link(evicted, "link"),
            Err(BrowserError::NoSuchPage(0))
        );
        assert_eq!(browser.fabric().log_len(), logged);
        assert!(browser.click_link(PageId(1), "link").is_ok());
    }

    #[test]
    fn a_link_on_a_never_issued_page_is_no_such_page() {
        let (mut browser, _, foreign) = session_with_stale_ids();
        assert_eq!(
            browser.click_link(foreign, "link"),
            Err(BrowserError::NoSuchPage(foreign.0))
        );
    }

    #[test]
    fn a_form_on_an_evicted_page_is_no_such_page() {
        let (mut browser, evicted, _) = session_with_stale_ids();
        let logged = browser.fabric().log_len();
        assert_eq!(
            browser.submit_form(evicted, "form", &[]),
            Err(BrowserError::NoSuchPage(0))
        );
        assert_eq!(browser.fabric().log_len(), logged);
        assert!(browser.submit_form(PageId(1), "form", &[]).is_ok());
    }

    #[test]
    fn a_form_on_a_never_issued_page_is_no_such_page() {
        let (mut browser, _, foreign) = session_with_stale_ids();
        assert_eq!(
            browser.submit_form(foreign, "form", &[]),
            Err(BrowserError::NoSuchPage(foreign.0))
        );
    }

    #[test]
    fn history_keeps_the_newest_urls_and_scripts_read_the_bound() {
        let mut browser = browser_with(
            PolicyMode::Escudo,
            "<html><body><script>history.length;</script></body></html>",
        );
        let urls: Vec<String> = (0..MAX_HISTORY + 10)
            .map(|i| format!("http://app.example/p{i}.php"))
            .collect();
        let mut page = None;
        for url in &urls {
            page = Some(browser.navigate(url).unwrap());
        }
        let newest: Vec<String> = browser.history().iter().map(Url::to_string).collect();
        assert_eq!(newest, urls[urls.len() - MAX_HISTORY..]);
        let page = browser.page(page.unwrap());
        assert_eq!(page.script_outcomes[0].result, Ok(MAX_HISTORY.to_string()));
        assert!(urls.iter().all(|url| browser.is_visited(url)));
    }
}
