//! The browser's implementation of [`escudo_script::Host`].
//!
//! This is where "the ERM is spread over several places" in the prototype becomes
//! concrete: every DOM, cookie, XMLHttpRequest and history operation a script performs
//! lands in one of these methods, which (1) builds the object's security context from
//! the [`SecurityContextTable`], (2) asks the [`Erm`] for a decision with the script's
//! ambient principal, and only then (3) performs the effect.

use std::collections::HashMap;

use escudo_core::config::{NativeApi, AC_ATTRIBUTES};
use escudo_core::{Operation, PolicyMode, PrincipalContext};
use escudo_dom::{Document, NodeId};
use escudo_html::{Token, Tokenizer};
use escudo_net::{
    CacheLayers, FetchPlan, FetchPolicy, Method, Request, SetCookie, SharedCookieJar,
    SharedNetwork, Url,
};
use escudo_script::{Host, HostError, HostNodeId, HostXhrId, XhrOutcome};

use crate::context::SecurityContextTable;
use crate::erm::Erm;
use crate::loader::label_dynamic_subtree;

/// The state handed to the interpreter for one script execution.
pub struct BrowserHost<'a> {
    pub(crate) mode: PolicyMode,
    pub(crate) erm: &'a mut Erm,
    pub(crate) document: &'a mut Document,
    pub(crate) contexts: &'a mut SecurityContextTable,
    pub(crate) jar: &'a SharedCookieJar,
    pub(crate) fabric: &'a SharedNetwork,
    /// Entries in the session history, which keeps at most
    /// [`MAX_HISTORY`](crate::MAX_HISTORY): what `history.length` reads.
    pub(crate) history_len: usize,
    pub(crate) page_url: Url,
    pub(crate) principal: PrincipalContext,
    pub(crate) console: Vec<String>,
    /// The session's resilience policy, applied to script-initiated XHR
    /// exactly as the browser applies it to navigations.
    pub(crate) fetch_policy: FetchPolicy,
    /// Whether the session opted into the fabric's shared response cache;
    /// script-initiated XHRs then consult its persistent layer.
    pub(crate) response_cache_enabled: bool,
    xhrs: HashMap<HostXhrId, (String, String)>,
    next_xhr: HostXhrId,
}

impl std::fmt::Debug for BrowserHost<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrowserHost")
            .field("mode", &self.mode)
            .field("principal", &self.principal.ring)
            .field("page_url", &self.page_url)
            .finish()
    }
}

impl<'a> BrowserHost<'a> {
    /// Assembles a host for one script execution.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        mode: PolicyMode,
        erm: &'a mut Erm,
        document: &'a mut Document,
        contexts: &'a mut SecurityContextTable,
        jar: &'a SharedCookieJar,
        fabric: &'a SharedNetwork,
        history_len: usize,
        page_url: Url,
        principal: PrincipalContext,
        fetch_policy: FetchPolicy,
        response_cache_enabled: bool,
    ) -> Self {
        BrowserHost {
            mode,
            erm,
            document,
            contexts,
            jar,
            fabric,
            history_len,
            page_url,
            principal,
            console: Vec::new(),
            fetch_policy,
            response_cache_enabled,
            xhrs: HashMap::new(),
            next_xhr: 0,
        }
    }

    /// Messages the script logged via `console.log` / `alert`.
    #[must_use]
    pub fn console(&self) -> &[String] {
        &self.console
    }

    fn node(&self, handle: HostNodeId) -> Result<NodeId, HostError> {
        self.document
            .node_id_at(handle as usize)
            .ok_or_else(|| HostError::NotFound(format!("node {handle}")))
    }

    fn node_label_text(&self, node: NodeId) -> String {
        match self.document.tag_name(node) {
            Some(tag) => match self.document.attribute(node, "id") {
                Some(id) => format!("<{tag} id=\"{id}\">"),
                None => format!("<{tag}>"),
            },
            None => format!("node {node}"),
        }
    }

    fn check_dom(&mut self, node: NodeId, op: Operation) -> Result<(), HostError> {
        let label = self.node_label_text(node);
        let object = self.contexts.dom_object(node, &label);
        self.erm
            .require(&self.principal, &object, op)
            .map_err(HostError::AccessDenied)
    }

    fn check_api(&mut self, api: NativeApi) -> Result<(), HostError> {
        let object = self.contexts.api_object(api);
        self.erm
            .require(&self.principal, &object, Operation::Use)
            .map_err(HostError::AccessDenied)
    }

    fn check_browser_state(&mut self, op: Operation) -> Result<(), HostError> {
        let object = self.contexts.browser_state_object();
        self.erm
            .require(&self.principal, &object, op)
            .map_err(HostError::AccessDenied)
    }

    /// Parses an HTML fragment directly into the page's document under `parent` and
    /// labels every created node with the dynamic-content clamp (creator ∧ parent).
    fn insert_fragment(&mut self, parent: NodeId, html: &str) -> Result<(), HostError> {
        let parent_ring = self.contexts.node_label(parent).ring;
        let mut created_roots: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = vec![parent];
        let mut tokenizer = Tokenizer::new(html);
        loop {
            match tokenizer.next_token() {
                Token::Eof => break,
                Token::Doctype(_) => {}
                Token::Comment(text) => {
                    let node = self.document.create_comment(&text);
                    let top = *stack.last().expect("fragment stack is never empty");
                    let _ = self.document.append_child(top, node);
                }
                Token::Text(text) => {
                    if text.is_empty() {
                        continue;
                    }
                    let node = self.document.create_text(&text);
                    let top = *stack.last().expect("fragment stack is never empty");
                    let _ = self.document.append_child(top, node);
                }
                Token::StartTag {
                    name,
                    attrs,
                    self_closing,
                } => {
                    let node = self.document.create_element(&name);
                    for (attr_name, value) in &attrs {
                        self.document.set_attribute(node, attr_name, value);
                    }
                    let top = *stack.last().expect("fragment stack is never empty");
                    let _ = self.document.append_child(top, node);
                    if top == parent {
                        created_roots.push(node);
                    }
                    let is_void = matches!(
                        name.as_str(),
                        "area"
                            | "base"
                            | "br"
                            | "col"
                            | "embed"
                            | "hr"
                            | "img"
                            | "input"
                            | "link"
                            | "meta"
                            | "param"
                            | "source"
                            | "track"
                            | "wbr"
                    );
                    if !self_closing && !is_void {
                        stack.push(node);
                    }
                }
                Token::EndTag { name, .. } => {
                    if let Some(position) = stack
                        .iter()
                        .skip(1)
                        .rposition(|&n| self.document.is_element_named(n, &name))
                    {
                        stack.truncate(position + 1);
                    }
                }
            }
        }
        for root in created_roots {
            label_dynamic_subtree(
                self.document,
                self.contexts,
                root,
                self.principal.ring,
                parent_ring,
            );
        }
        Ok(())
    }

    /// Attaches cookies to an outgoing request according to the policy mode: the
    /// legacy baseline attaches everything in scope (which is what CSRF exploits),
    /// ESCUDO performs a `use` check per cookie, all in one batch. The candidates
    /// come from the (possibly session-shared) jar through [`Erm::mediate_jar`],
    /// the same path browser-initiated requests take.
    fn attach_cookies(&mut self, request: &mut Request, principal: &PrincipalContext) {
        let plan = self.erm.mediate_jar(
            self.jar,
            &[(&request.url, principal)],
            Operation::Use,
            |name, origin| self.contexts.cookie_object(name, origin),
        );
        let attached = &plan.get(0).header;
        if !attached.is_empty() {
            request.headers.set("Cookie", attached.clone());
        }
    }
}

impl Host for BrowserHost<'_> {
    fn get_element_by_id(&mut self, id: &str) -> Result<Option<HostNodeId>, HostError> {
        Ok(self
            .document
            .get_element_by_id(id)
            .map(|node| node.index() as HostNodeId))
    }

    fn get_elements_by_tag_name(&mut self, tag: &str) -> Result<Vec<HostNodeId>, HostError> {
        Ok(self
            .document
            .elements_by_tag_name(tag)
            .into_iter()
            .map(|node| node.index() as HostNodeId)
            .collect())
    }

    fn create_element(&mut self, tag: &str) -> Result<HostNodeId, HostError> {
        let node = self.document.create_element(tag);
        // Content created by a principal is never more privileged than the principal.
        self.contexts.set_node_label(
            node,
            escudo_core::config::ResolvedLabel {
                ring: self.principal.ring,
                acl: escudo_core::Acl::uniform(self.principal.ring),
            },
        );
        Ok(node.index() as HostNodeId)
    }

    fn create_text_node(&mut self, text: &str) -> Result<HostNodeId, HostError> {
        let node = self.document.create_text(text);
        Ok(node.index() as HostNodeId)
    }

    fn document_body(&mut self) -> Result<Option<HostNodeId>, HostError> {
        Ok(self
            .document
            .elements_by_tag_name("body")
            .first()
            .map(|node| node.index() as HostNodeId))
    }

    fn document_write(&mut self, html: &str) -> Result<(), HostError> {
        let Some(&body) = self.document.elements_by_tag_name("body").first() else {
            return Err(HostError::NotFound("document body".into()));
        };
        self.check_dom(body, Operation::Write)?;
        self.insert_fragment(body, html)
    }

    fn append_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError> {
        let parent = self.node(parent)?;
        let child = self.node(child)?;
        self.check_dom(parent, Operation::Write)?;
        let parent_ring = self.contexts.node_label(parent).ring;
        label_dynamic_subtree(
            self.document,
            self.contexts,
            child,
            self.principal.ring,
            parent_ring,
        );
        self.document
            .append_child(parent, child)
            .map_err(|e| HostError::Unsupported(e.to_string()))
    }

    fn remove_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError> {
        let parent = self.node(parent)?;
        let child = self.node(child)?;
        self.check_dom(parent, Operation::Write)?;
        self.check_dom(child, Operation::Write)?;
        self.document
            .remove(child)
            .map_err(|e| HostError::Unsupported(e.to_string()))
    }

    fn set_attribute(
        &mut self,
        node: HostNodeId,
        name: &str,
        value: &str,
    ) -> Result<(), HostError> {
        let node = self.node(node)?;
        // §5(1): the ring mapping happens exactly once; configuration attributes are
        // not remappable through the DOM API.
        if self.mode == PolicyMode::Escudo
            && AC_ATTRIBUTES
                .iter()
                .any(|attr| attr.eq_ignore_ascii_case(name))
        {
            return Err(HostError::AccessDenied(format!(
                "escudo configuration attribute `{name}` cannot be modified after the \
                 one-time ring mapping"
            )));
        }
        self.check_dom(node, Operation::Write)?;
        self.document.set_attribute(node, name, value);
        Ok(())
    }

    fn get_attribute(&mut self, node: HostNodeId, name: &str) -> Result<Option<String>, HostError> {
        let node = self.node(node)?;
        self.check_dom(node, Operation::Read)?;
        Ok(self.document.attribute(node, name).map(str::to_string))
    }

    fn get_inner_html(&mut self, node: HostNodeId) -> Result<String, HostError> {
        let node = self.node(node)?;
        self.check_dom(node, Operation::Read)?;
        Ok(self.document.inner_html(node))
    }

    fn set_inner_html(&mut self, node: HostNodeId, html: &str) -> Result<(), HostError> {
        let node = self.node(node)?;
        self.check_dom(node, Operation::Write)?;
        self.document.remove_children(node);
        self.insert_fragment(node, html)
    }

    fn get_text_content(&mut self, node: HostNodeId) -> Result<String, HostError> {
        let node = self.node(node)?;
        self.check_dom(node, Operation::Read)?;
        Ok(self.document.text_content(node))
    }

    fn tag_name(&mut self, node: HostNodeId) -> Result<String, HostError> {
        let node = self.node(node)?;
        Ok(self
            .document
            .tag_name(node)
            .unwrap_or("#text")
            .to_ascii_uppercase())
    }

    fn cookie_get(&mut self) -> Result<String, HostError> {
        self.check_api(NativeApi::CookieApi)?;
        let plan = self.erm.mediate_jar(
            self.jar,
            &[(&self.page_url, &self.principal)],
            Operation::Read,
            |name, origin| self.contexts.cookie_object(name, origin),
        );
        Ok(plan.get(0).header.clone())
    }

    fn cookie_set(&mut self, cookie: &str) -> Result<(), HostError> {
        self.check_api(NativeApi::CookieApi)?;
        let directive = SetCookie::parse(cookie)
            .map_err(|e| HostError::Unsupported(format!("malformed cookie: {e}")))?;
        if self.mode == PolicyMode::Escudo {
            let object = self
                .contexts
                .cookie_object(&directive.name, self.page_url.origin());
            let principal = self.principal.clone();
            self.erm
                .require(&principal, &object, Operation::Write)
                .map_err(HostError::AccessDenied)?;
        }
        self.jar.store(&self.page_url, &directive);
        Ok(())
    }

    fn xhr_create(&mut self) -> Result<HostXhrId, HostError> {
        self.next_xhr += 1;
        self.xhrs
            .insert(self.next_xhr, (String::new(), String::new()));
        Ok(self.next_xhr)
    }

    fn xhr_open(&mut self, xhr: HostXhrId, method: &str, url: &str) -> Result<(), HostError> {
        let entry = self
            .xhrs
            .get_mut(&xhr)
            .ok_or_else(|| HostError::NotFound(format!("xhr {xhr}")))?;
        *entry = (method.to_string(), url.to_string());
        Ok(())
    }

    fn xhr_set_request_header(
        &mut self,
        _xhr: HostXhrId,
        _name: &str,
        _value: &str,
    ) -> Result<(), HostError> {
        Ok(())
    }

    fn xhr_send(&mut self, xhr: HostXhrId, body: &str) -> Result<XhrOutcome, HostError> {
        let (method, target) = self
            .xhrs
            .get(&xhr)
            .cloned()
            .ok_or_else(|| HostError::NotFound(format!("xhr {xhr}")))?;

        // The XMLHttpRequest API is itself a ring-labelled object (Table 3/5 assign it
        // to ring 1); invoking it is a `use` of that native API.
        self.check_api(NativeApi::XmlHttpRequest)?;

        let url = self
            .page_url
            .join(&target)
            .map_err(|e| HostError::Network(e.to_string()))?;
        // XMLHttpRequest is same-origin under both the SOP and ESCUDO (the origin rule).
        if url.origin() != self.page_url.origin() {
            return Err(HostError::AccessDenied(format!(
                "origin rule: XMLHttpRequest to {} from page {}",
                url.origin(),
                self.page_url.origin()
            )));
        }

        let method = method.parse::<Method>().unwrap_or(Method::Get);
        let mut request = Request::new(method, url);
        if !body.is_empty() {
            request.body = body.to_string();
            request
                .headers
                .set("Content-Type", "application/x-www-form-urlencoded");
        }
        let principal = self.principal.clone();
        self.attach_cookies(&mut request, &principal);
        // A width-1 plan: a retry re-sends this one mediated request verbatim.
        // XHR may use only the persistent layer: one-shot prefetch entries are
        // reserved for the navigation speculation predicted.
        let plan = FetchPlan {
            layers: CacheLayers {
                one_shot: false,
                persistent: self.response_cache_enabled,
            },
            ..FetchPlan::new(vec![request], 1, self.fetch_policy)
        };
        let outcome = self.fabric.execute(plan).remove(0).outcome;
        let response = outcome.map_err(|e| HostError::Network(e.to_string()))?;
        Ok(XhrOutcome {
            status: response.status.0,
            body: response.body.clone(),
        })
    }

    fn history_length(&mut self) -> Result<usize, HostError> {
        self.check_browser_state(Operation::Read)?;
        Ok(self.history_len)
    }

    fn history_back(&mut self) -> Result<(), HostError> {
        self.check_browser_state(Operation::Use)?;
        // Navigation itself is driven by the Browser; for scripts this is a no-op once
        // authorized.
        Ok(())
    }

    fn log(&mut self, message: &str) {
        self.console.push(message.to_string());
    }

    fn alert(&mut self, message: &str) {
        self.console.push(format!("alert: {message}"));
    }
}
