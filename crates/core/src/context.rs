//! Security contexts — the per-principal and per-object records the browser extracts
//! from the application's configuration and tracks internally.
//!
//! The prototype in the paper "maintains a security context derived from the
//! configuration information provided by the application, tracks it through the
//! browser, and makes it available whenever a principal makes a request". These are
//! those records, kept deliberately outside the DOM so scripts can never observe or
//! mutate them.

use std::fmt;
use std::sync::Arc;

use crate::acl::Acl;
use crate::operation::Operation;
use crate::origin::Origin;
use crate::ring::Ring;

/// The kind of principal attempting an access (Table 1, left column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrincipalKind {
    /// A JavaScript program (inline `<script>`, external script, or `javascript:` URL).
    Script,
    /// A UI event handler (`onclick`, `onload`, …) — script-invoking, but delivered by
    /// the browser in response to a user event.
    EventHandler,
    /// An HTTP-request-issuing HTML element: `a`, `img`, `form`, `iframe`, `embed`.
    RequestIssuer,
    /// The browser itself (chrome) acting on its own behalf — e.g. rendering, or the
    /// user navigating via the address bar. Always maximally privileged.
    Browser,
}

impl fmt::Display for PrincipalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrincipalKind::Script => "script",
            PrincipalKind::EventHandler => "event handler",
            PrincipalKind::RequestIssuer => "request-issuing element",
            PrincipalKind::Browser => "browser",
        };
        f.write_str(s)
    }
}

/// The kind of object being accessed (Table 1, right column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A DOM element (or subtree) of the web page.
    DomElement,
    /// A cookie stored for the page's site.
    Cookie,
    /// A native-code API exposed to scripts (XMLHttpRequest, the DOM API itself).
    NativeApi,
    /// Browser state: history, visited-link information, cache.
    BrowserState,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::DomElement => "DOM element",
            ObjectKind::Cookie => "cookie",
            ObjectKind::NativeApi => "native API",
            ObjectKind::BrowserState => "browser state",
        };
        f.write_str(s)
    }
}

/// The security context of a principal: who it is, where it came from, and which ring
/// it executes in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrincipalContext {
    /// What kind of principal this is.
    pub kind: PrincipalKind,
    /// The origin that instantiated the principal.
    pub origin: Origin,
    /// The ring the principal executes in.
    pub ring: Ring,
    /// A human-readable description used in audit logs and deny reasons
    /// (e.g. `"inline script #3"`, `"img src=http://evil/…"`). Shared, so an
    /// audit record copies a reference, not the text.
    pub label: Arc<str>,
}

impl PrincipalContext {
    /// Creates a principal context with an empty label.
    #[must_use]
    pub fn new(kind: PrincipalKind, origin: Origin, ring: Ring) -> Self {
        PrincipalContext {
            kind,
            origin,
            ring,
            label: Arc::default(),
        }
    }

    /// Attaches a human-readable label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<Arc<str>>) -> Self {
        self.label = label.into();
        self
    }

    /// A maximally privileged browser-chrome principal for the given origin.
    ///
    /// The browser itself (rendering, user navigation) is not constrained by the
    /// application's rings; it corresponds to the trusted computing base.
    #[must_use]
    pub fn browser(origin: Origin) -> Self {
        PrincipalContext::new(PrincipalKind::Browser, origin, Ring::INNERMOST)
            .with_label("browser chrome")
    }
}

impl fmt::Display for PrincipalContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {} from {}", self.kind, self.ring, self.origin)?;
        if !self.label.is_empty() {
            write!(f, " ({})", self.label)?;
        }
        Ok(())
    }
}

/// The security context of an object: its origin, its ring, and its (optional) ACL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectContext {
    /// What kind of object this is.
    pub kind: ObjectKind,
    /// The origin the object belongs to.
    pub origin: Origin,
    /// The ring the object is assigned to.
    pub ring: Ring,
    /// The object's ACL. When the application provides no ACL the object is governed
    /// by the ring rule alone, which we represent with a fully permissive ACL.
    pub acl: Acl,
    /// A human-readable description used in audit logs (e.g. `"cookie phpbb2mysql_sid"`).
    /// Shared, so an audit record copies a reference, not the text.
    pub label: Arc<str>,
}

impl ObjectContext {
    /// Creates an object context with no explicit ACL (ring rule only).
    #[must_use]
    pub fn new(kind: ObjectKind, origin: Origin, ring: Ring) -> Self {
        ObjectContext {
            kind,
            origin,
            ring,
            acl: Acl::permissive(),
            label: Arc::default(),
        }
    }

    /// Sets the ACL (builder style). The ACL is clamped so it can never be more
    /// permissive than the object's ring — the paper notes such an ACL would be
    /// ineffective anyway because the ring rule also applies.
    #[must_use]
    pub fn with_acl(mut self, acl: Acl) -> Self {
        self.acl = acl.clamped_to_ring(self.ring);
        self
    }

    /// Attaches a human-readable label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<Arc<str>>) -> Self {
        self.label = label.into();
        self
    }

    /// The fail-safe context for unlabeled DOM content: least-privileged ring with a
    /// ring-0-only ACL ("if a ring specification is missing, ESCUDO assumes a safe
    /// default value").
    #[must_use]
    pub fn fail_safe_dom(origin: Origin) -> Self {
        ObjectContext::new(ObjectKind::DomElement, origin, Ring::OUTERMOST)
            .with_acl(Acl::ring_zero_only())
    }

    /// The mandatory context for browser state (history, visited links): ring 0, not
    /// configurable by the application.
    #[must_use]
    pub fn browser_state(origin: Origin) -> Self {
        ObjectContext::new(ObjectKind::BrowserState, origin, Ring::INNERMOST)
            .with_acl(Acl::ring_zero_only())
            .with_label("browser state")
    }

    /// The least-privileged ring allowed to perform `op` on this object, considering
    /// both the ring and the ACL.
    #[must_use]
    pub fn effective_bound(&self, op: Operation) -> Ring {
        self.acl.bound(op).most_privileged(self.ring)
    }
}

impl fmt::Display for ObjectContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} ({}) from {}",
            self.kind, self.ring, self.acl, self.origin
        )?;
        if !self.label.is_empty() {
            write!(f, " ({})", self.label)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> Origin {
        Origin::new("http", "app.example", 80)
    }

    #[test]
    fn with_acl_clamps_to_the_objects_ring() {
        // Object in ring 2 declaring an ACL that would admit ring 5 for writes:
        // the stored ACL must not admit anything beyond ring 2.
        let ctx = ObjectContext::new(ObjectKind::DomElement, origin(), Ring::new(2))
            .with_acl(Acl::new(Ring::new(5), Ring::new(5), Ring::new(1)));
        assert_eq!(ctx.acl.read, Ring::new(2));
        assert_eq!(ctx.acl.write, Ring::new(2));
        assert_eq!(ctx.acl.use_, Ring::new(1));
    }

    #[test]
    fn fail_safe_dom_defaults() {
        let ctx = ObjectContext::fail_safe_dom(origin());
        assert_eq!(ctx.ring, Ring::OUTERMOST);
        assert_eq!(ctx.acl, Acl::ring_zero_only());
    }

    #[test]
    fn browser_state_is_ring_zero() {
        let ctx = ObjectContext::browser_state(origin());
        assert_eq!(ctx.ring, Ring::INNERMOST);
        assert_eq!(ctx.kind, ObjectKind::BrowserState);
    }

    #[test]
    fn browser_principal_is_maximally_privileged() {
        let p = PrincipalContext::browser(origin());
        assert_eq!(p.ring, Ring::INNERMOST);
        assert_eq!(p.kind, PrincipalKind::Browser);
    }

    #[test]
    fn effective_bound_combines_ring_and_acl() {
        let ctx = ObjectContext::new(ObjectKind::Cookie, origin(), Ring::new(1))
            .with_acl(Acl::uniform(Ring::new(1)));
        assert_eq!(ctx.effective_bound(Operation::Use), Ring::new(1));

        let strict = ObjectContext::new(ObjectKind::Cookie, origin(), Ring::new(3))
            .with_acl(Acl::uniform(Ring::new(2)));
        assert_eq!(strict.effective_bound(Operation::Read), Ring::new(2));
    }

    #[test]
    fn display_mentions_ring_and_origin() {
        let p = PrincipalContext::new(PrincipalKind::Script, origin(), Ring::new(3))
            .with_label("user comment script");
        let s = p.to_string();
        assert!(s.contains("ring 3"));
        assert!(s.contains("app.example"));
        assert!(s.contains("user comment script"));
    }
}
