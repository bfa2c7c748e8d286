//! The security-context table.
//!
//! The paper's prototype "maintains a security context derived from the configuration
//! information provided by the application, tracks it through the browser, and makes
//! it available whenever a principal makes a request". This table is that store. It is
//! deliberately **not** part of the DOM: scripts have no way to read or write it, which
//! is what makes the one-time ring mapping tamper-proof (§5).
//!
//! Node labels are a dense side table indexed by [`NodeId::index`]: the page loader
//! fills it in one pre-order walk of the parsed document, each element's entry
//! derived from its parent's, and nodes created at run time extend it. An empty entry
//! (a text node, or an element outside every AC scope) reads as the page default.

use std::collections::HashMap;
use std::sync::Arc;

use escudo_core::config::{ApiPolicy, CookiePolicy, NativeApi, ResolvedLabel};
use escudo_core::{Acl, ObjectContext, ObjectKind, Origin, PrincipalContext, PrincipalKind, Ring};
use escudo_dom::NodeId;

/// Per-page security contexts: node labels, cookie policies and native-API rings.
#[derive(Debug, Clone)]
pub struct SecurityContextTable {
    origin: Origin,
    /// Indexed by [`NodeId::index`]; `None` reads as [`Self::default_label`].
    node_labels: Vec<Option<ResolvedLabel>>,
    cookie_policies: Vec<CookiePolicy>,
    api_rings: HashMap<NativeApi, Ring>,
    /// The label applied to content that carries no configuration at all (legacy pages
    /// collapse to a single fully-privileged ring; configured pages fail safe).
    default_label: ResolvedLabel,
}

impl SecurityContextTable {
    /// Creates a table for a page of the given origin.
    ///
    /// `legacy` selects the backwards-compatibility behaviour: a page with no ESCUDO
    /// configuration at all is treated as a single ring-0 system with permissive ACLs,
    /// which makes ESCUDO behave exactly like the same-origin policy for it.
    #[must_use]
    pub fn new(origin: Origin, legacy: bool) -> Self {
        let default_label = if legacy {
            ResolvedLabel {
                ring: Ring::INNERMOST,
                acl: Acl::permissive(),
            }
        } else {
            ResolvedLabel {
                ring: Ring::OUTERMOST,
                acl: Acl::ring_zero_only(),
            }
        };
        SecurityContextTable {
            origin,
            node_labels: Vec::new(),
            cookie_policies: Vec::new(),
            api_rings: HashMap::new(),
            default_label,
        }
    }

    /// The page origin.
    #[must_use]
    pub fn origin(&self) -> &Origin {
        &self.origin
    }

    /// The label used for unlabeled content.
    #[must_use]
    pub fn default_label(&self) -> ResolvedLabel {
        self.default_label
    }

    /// Replaces every node label with `node_labels`, indexed by [`NodeId::index`]:
    /// the page loader's one labelling pass hands its table over here.
    pub(crate) fn set_node_labels(&mut self, node_labels: Vec<Option<ResolvedLabel>>) {
        self.node_labels = node_labels;
    }

    /// Records the label of a node (done exactly once, at parse/creation time).
    pub fn set_node_label(&mut self, node: NodeId, label: ResolvedLabel) {
        let index = node.index();
        if index >= self.node_labels.len() {
            self.node_labels.resize(index + 1, None);
        }
        self.node_labels[index] = Some(label);
    }

    /// The label of a node (falling back to the page default for unlabeled nodes, e.g.
    /// text nodes, elements outside every AC scope, or nodes created before labelling).
    #[must_use]
    pub fn node_label(&self, node: NodeId) -> ResolvedLabel {
        self.node_labels
            .get(node.index())
            .copied()
            .flatten()
            .unwrap_or(self.default_label)
    }

    /// Adds a cookie policy received via the `X-Escudo-Cookie-Policy` header.
    pub fn add_cookie_policy(&mut self, policy: CookiePolicy) {
        self.cookie_policies.push(policy);
    }

    /// The policy applying to a cookie name, if any (first match wins; `*` matches
    /// all). Absent a policy the fail-safe default applies: ring 0.
    #[must_use]
    pub fn cookie_policy(&self, name: &str) -> Option<&CookiePolicy> {
        self.cookie_policies.iter().find(|p| p.applies_to(name))
    }

    /// All cookie policies.
    #[must_use]
    pub fn cookie_policies(&self) -> &[CookiePolicy] {
        &self.cookie_policies
    }

    /// Records a native-API ring assignment from the `X-Escudo-Api-Policy` header.
    pub fn set_api_ring(&mut self, policy: ApiPolicy) {
        self.api_rings.insert(policy.api, policy.ring);
    }

    /// The ring required to invoke a native API. The fail-safe default is ring 0 for
    /// ESCUDO-configured pages; legacy pages run everything in ring 0 anyway.
    #[must_use]
    pub fn api_ring(&self, api: NativeApi) -> Ring {
        self.api_rings.get(&api).copied().unwrap_or(Ring::INNERMOST)
    }

    /// `true` if any API ring was explicitly configured.
    #[must_use]
    pub fn has_api_config(&self) -> bool {
        !self.api_rings.is_empty()
    }

    // -------------------------------------------------------- context builders

    /// The object context of a DOM node.
    #[must_use]
    pub fn dom_object(&self, node: NodeId, label: &str) -> ObjectContext {
        let resolved = self.node_label(node);
        ObjectContext {
            kind: ObjectKind::DomElement,
            origin: self.origin.clone(),
            ring: resolved.ring,
            acl: resolved.acl,
            label: label.into(),
        }
    }

    /// The object context of a cookie (by name) belonging to `cookie_origin`.
    #[must_use]
    pub fn cookie_object(&self, name: &str, cookie_origin: Origin) -> ObjectContext {
        let (ring, acl) = match self.cookie_policy(name) {
            Some(policy) => (policy.ring, policy.acl),
            // Fail-safe default from the paper: unlabelled cookies belong to ring 0.
            None => (self.default_label.ring.most_privileged(Ring::INNERMOST), {
                if self.default_label.ring == Ring::INNERMOST {
                    Acl::permissive()
                } else {
                    Acl::uniform(Ring::INNERMOST)
                }
            }),
        };
        ObjectContext {
            kind: ObjectKind::Cookie,
            origin: cookie_origin,
            ring,
            acl,
            label: format!("cookie {name}").into(),
        }
    }

    /// The object context of a native API.
    #[must_use]
    pub fn api_object(&self, api: NativeApi) -> ObjectContext {
        let ring = self.api_ring(api);
        ObjectContext {
            kind: ObjectKind::NativeApi,
            origin: self.origin.clone(),
            ring,
            acl: Acl::uniform(ring),
            label: format!("native API {api}").into(),
        }
    }

    /// The object context of browser state (history, visited links): mandatorily
    /// ring 0, not configurable.
    #[must_use]
    pub fn browser_state_object(&self) -> ObjectContext {
        ObjectContext::browser_state(self.origin.clone())
    }

    /// The principal context of a script (or event handler) running at the privilege
    /// of `node`.
    #[must_use]
    pub fn script_principal(&self, node: NodeId, label: &str) -> PrincipalContext {
        PrincipalContext {
            kind: PrincipalKind::Script,
            origin: self.origin.clone(),
            ring: self.node_label(node).ring,
            label: label.into(),
        }
    }

    /// The principal context of an HTTP-request-issuing element (img, form, a, …).
    #[must_use]
    pub fn request_issuer_principal(
        &self,
        node: NodeId,
        label: impl Into<Arc<str>>,
    ) -> PrincipalContext {
        PrincipalContext {
            kind: PrincipalKind::RequestIssuer,
            origin: self.origin.clone(),
            ring: self.node_label(node).ring,
            label: label.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_dom::Document;

    fn origin() -> Origin {
        Origin::new("http", "app.example", 80)
    }

    /// Real node ids for keying the table in tests.
    fn two_nodes() -> (Document, NodeId, NodeId) {
        let mut doc = Document::new();
        let a = doc.create_element("div");
        let b = doc.create_element("p");
        (doc, a, b)
    }

    #[test]
    fn legacy_default_is_fully_privileged() {
        let table = SecurityContextTable::new(origin(), true);
        let label = table.default_label();
        assert_eq!(label.ring, Ring::INNERMOST);
        assert_eq!(label.acl, Acl::permissive());
    }

    #[test]
    fn configured_default_is_fail_safe() {
        let table = SecurityContextTable::new(origin(), false);
        let label = table.default_label();
        assert_eq!(label.ring, Ring::OUTERMOST);
        assert_eq!(label.acl, Acl::ring_zero_only());
    }

    #[test]
    fn node_labels_are_recorded_and_looked_up() {
        let (_doc, node, other) = two_nodes();
        let mut table = SecurityContextTable::new(origin(), false);
        table.set_node_label(
            node,
            ResolvedLabel {
                ring: Ring::new(2),
                acl: Acl::uniform(Ring::new(2)),
            },
        );
        assert_eq!(table.node_label(node).ring, Ring::new(2));
        assert_eq!(table.node_label(other).ring, Ring::OUTERMOST);
    }

    #[test]
    fn cookie_policies_match_by_name_and_wildcard() {
        let mut table = SecurityContextTable::new(origin(), false);
        table.add_cookie_policy(CookiePolicy::new("sid", Ring::new(1)));
        table.add_cookie_policy(CookiePolicy::new("*", Ring::new(2)));
        assert_eq!(table.cookie_policy("sid").unwrap().ring, Ring::new(1));
        assert_eq!(table.cookie_policy("other").unwrap().ring, Ring::new(2));

        let ctx = table.cookie_object("sid", origin());
        assert_eq!(ctx.ring, Ring::new(1));
        assert_eq!(ctx.kind, ObjectKind::Cookie);
    }

    #[test]
    fn unlabelled_cookie_defaults_to_ring_zero() {
        let table = SecurityContextTable::new(origin(), false);
        let ctx = table.cookie_object("anything", origin());
        assert_eq!(ctx.ring, Ring::INNERMOST);
    }

    #[test]
    fn api_rings_default_to_zero_and_are_configurable() {
        let mut table = SecurityContextTable::new(origin(), false);
        assert_eq!(table.api_ring(NativeApi::XmlHttpRequest), Ring::INNERMOST);
        assert!(!table.has_api_config());
        table.set_api_ring(ApiPolicy::new(NativeApi::XmlHttpRequest, Ring::new(1)));
        assert_eq!(table.api_ring(NativeApi::XmlHttpRequest), Ring::new(1));
        assert!(table.has_api_config());
        let ctx = table.api_object(NativeApi::XmlHttpRequest);
        assert_eq!(ctx.ring, Ring::new(1));
    }

    #[test]
    fn principal_builders_use_node_rings() {
        let (_doc, node, _other) = two_nodes();
        let mut table = SecurityContextTable::new(origin(), false);
        table.set_node_label(
            node,
            ResolvedLabel {
                ring: Ring::new(3),
                acl: Acl::uniform(Ring::new(3)),
            },
        );
        let script = table.script_principal(node, "comment script");
        assert_eq!(script.ring, Ring::new(3));
        assert_eq!(script.kind, PrincipalKind::Script);
        let issuer = table.request_issuer_principal(node, "img");
        assert_eq!(issuer.kind, PrincipalKind::RequestIssuer);
    }

    #[test]
    fn browser_state_is_always_ring_zero() {
        let table = SecurityContextTable::new(origin(), false);
        let state = table.browser_state_object();
        assert_eq!(state.ring, Ring::INNERMOST);
        assert_eq!(state.kind, ObjectKind::BrowserState);
    }
}
