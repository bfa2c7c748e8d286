//! The in-memory network: a registry of servers keyed by origin, plus a request log.
//!
//! The log records every dispatched request together with the names of the cookies the
//! browser attached; the defense-effectiveness experiments (§6.4) read it to determine
//! whether a forged cross-site request carried the victim's session cookie.
//!
//! [`Network`] is the single-owner convenience handle: a thin wrapper over the
//! `Arc`-shareable [`SharedNetwork`](crate::SharedNetwork) fabric, which holds the
//! actual per-origin handlers, the lock-striped sequence-ordered log and the
//! simulated latencies. Single-session tests keep the old ergonomics; concurrent
//! deployments clone the fabric handle ([`Network::fabric`]) and share servers
//! across sessions.

use std::fmt;
use std::sync::Arc;

use escudo_core::Origin;

use crate::error::NetError;
use crate::message::{Method, Request, Response};
use crate::shared_network::SharedNetwork;
use crate::url::Url;

/// A server-side request handler registered with the [`Network`].
///
/// The in-memory applications (`escudo-apps`) implement this to stand in for the
/// PHP applications the paper modified. Handlers must be `Send`: they live behind
/// a per-origin mutex on the shared fabric and may be driven from any session
/// thread (and from a session's background prefetch thread).
pub trait Server {
    /// Handles one request and produces a response.
    fn handle(&mut self, request: &Request) -> Response;
}

impl<F> Server for F
where
    F: FnMut(&Request) -> Response,
{
    fn handle(&mut self, request: &Request) -> Response {
        self(request)
    }
}

/// A log entry recorded for every dispatched request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedRequest {
    /// The request method.
    pub method: Method,
    /// The full request URL.
    pub url: Url,
    /// Names of the cookies the browser attached to the request.
    pub cookie_names: Vec<String>,
    /// The response status that was returned.
    pub status: u16,
}

impl fmt::Display for LoggedRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [cookies: {}] -> {}",
            self.method,
            self.url,
            if self.cookie_names.is_empty() {
                "none".to_string()
            } else {
                self.cookie_names.join(", ")
            },
            self.status
        )
    }
}

/// The single-owner handle over a (possibly shared) network fabric.
#[derive(Default)]
pub struct Network {
    fabric: Arc<SharedNetwork>,
}

impl Network {
    /// Creates a network over a fresh private fabric.
    #[must_use]
    pub fn new() -> Self {
        Network::default()
    }

    /// Creates a handle over an existing (possibly shared) fabric — this is how
    /// several concurrent sessions talk to the same servers and write one
    /// sequence-ordered request log.
    #[must_use]
    pub fn with_fabric(fabric: Arc<SharedNetwork>) -> Self {
        Network { fabric }
    }

    /// The underlying fabric (clone the `Arc` to share it with another session).
    #[must_use]
    pub fn fabric(&self) -> &Arc<SharedNetwork> {
        &self.fabric
    }

    /// Registers a server for an origin given as a URL string (the path is ignored).
    ///
    /// # Panics
    ///
    /// Panics if `origin_url` cannot be parsed — registration happens at setup time
    /// with literal URLs, so a parse failure is a programming error.
    pub fn register<S: Server + Send + 'static>(&mut self, origin_url: &str, server: S) {
        self.fabric.register(origin_url, server);
    }

    /// Registers a server for an already-parsed origin.
    pub fn register_origin<S: Server + Send + 'static>(&mut self, origin: Origin, server: S) {
        self.fabric.register_origin(origin, server);
    }

    /// `true` when a server is registered for the origin of `url`.
    #[must_use]
    pub fn knows(&self, url: &Url) -> bool {
        self.fabric.knows(url)
    }

    /// Dispatches a request to the server registered for its origin, logging it.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::HostUnreachable`] when no server is registered for the
    /// request's origin.
    pub fn dispatch(&self, request: Request) -> Result<Response, NetError> {
        self.fabric.dispatch(request)
    }

    /// The request log in global sequence order, oldest first. (Owned snapshot:
    /// the fabric's log is striped across locks, so entries cannot be borrowed.)
    #[must_use]
    pub fn log(&self) -> Vec<LoggedRequest> {
        self.fabric.log()
    }

    /// Clears the request log (e.g. between experiment trials).
    pub fn clear_log(&self) {
        self.fabric.clear_log();
    }

    /// Convenience query: the log entries for requests sent to `host`.
    #[must_use]
    pub fn requests_to(&self, host: &str) -> Vec<LoggedRequest> {
        self.fabric.requests_to(host)
    }

    /// Counts the log entries for requests sent to `host` without materializing
    /// them — the common count-only query of the defense experiments.
    #[must_use]
    pub fn count_requests_to(&self, host: &str) -> usize {
        self.fabric.count_requests_to(host)
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("fabric", &self.fabric)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::StatusCode;

    fn echo_server(req: &Request) -> Response {
        Response::ok_text(format!("{} {}", req.method, req.url.path()))
    }

    #[test]
    fn dispatch_routes_by_origin() {
        let mut net = Network::new();
        net.register("http://a.example", echo_server);
        net.register("http://b.example", |_req: &Request| {
            Response::error(StatusCode::FORBIDDEN, "nope")
        });

        let ra = net
            .dispatch(Request::get("http://a.example/x").unwrap())
            .unwrap();
        assert_eq!(ra.body, "GET /x");
        let rb = net
            .dispatch(Request::get("http://b.example/y").unwrap())
            .unwrap();
        assert_eq!(rb.status, StatusCode::FORBIDDEN);
    }

    #[test]
    fn unknown_hosts_are_unreachable() {
        let net = Network::new();
        let err = net
            .dispatch(Request::get("http://nowhere.example/").unwrap())
            .unwrap_err();
        assert!(matches!(err, NetError::HostUnreachable(_)));
    }

    #[test]
    fn different_port_is_a_different_origin() {
        let mut net = Network::new();
        net.register("http://a.example:8080", echo_server);
        assert!(net
            .dispatch(Request::get("http://a.example/").unwrap())
            .is_err());
        assert!(net
            .dispatch(Request::get("http://a.example:8080/").unwrap())
            .is_ok());
    }

    #[test]
    fn the_log_records_cookies_and_status() {
        let mut net = Network::new();
        net.register("http://forum.example", echo_server);
        let req = Request::get("http://forum.example/post")
            .unwrap()
            .with_header("Cookie", "sid=abc; data=1");
        net.dispatch(req).unwrap();
        net.dispatch(Request::get("http://forum.example/plain").unwrap())
            .unwrap();

        assert_eq!(net.log().len(), 2);
        assert_eq!(net.log()[0].cookie_names, vec!["sid", "data"]);
        assert!(net.log()[1].cookie_names.is_empty());
        assert_eq!(net.requests_to("forum.example").len(), 2);
        assert_eq!(net.count_requests_to("forum.example"), 2);
        assert!(net.requests_to("other.example").is_empty());
        assert_eq!(net.count_requests_to("other.example"), 0);

        net.clear_log();
        assert!(net.log().is_empty());
    }

    #[test]
    fn closures_can_be_servers_and_knows_reports_registration() {
        let mut net = Network::new();
        let mut hits = 0usize;
        net.register("http://count.example", move |_req: &Request| {
            hits += 1;
            Response::ok_text(hits.to_string())
        });
        assert!(net.knows(&Url::parse("http://count.example/a").unwrap()));
        assert!(!net.knows(&Url::parse("http://other.example/").unwrap()));
        let first = net
            .dispatch(Request::get("http://count.example/").unwrap())
            .unwrap();
        let second = net
            .dispatch(Request::get("http://count.example/").unwrap())
            .unwrap();
        assert_eq!(first.body, "1");
        assert_eq!(second.body, "2");
    }

    #[test]
    fn sessions_sharing_a_fabric_see_each_others_servers_and_log() {
        let fabric = Arc::new(SharedNetwork::new());
        let mut a = Network::with_fabric(Arc::clone(&fabric));
        a.register("http://app.example", echo_server);
        // A second handle over the same fabric reaches the same server…
        let b = Network::with_fabric(Arc::clone(&fabric));
        assert!(b.knows(&Url::parse("http://app.example/").unwrap()));
        b.dispatch(Request::get("http://app.example/from-b").unwrap())
            .unwrap();
        // …and both handles read one shared, sequence-ordered log.
        assert_eq!(a.log().len(), 1);
        assert_eq!(a.log()[0].url.path(), "/from-b");
        assert!(Arc::ptr_eq(a.fabric(), b.fabric()));
    }

    #[test]
    fn logged_request_display_is_readable() {
        let entry = LoggedRequest {
            method: Method::Get,
            url: Url::parse("http://forum.example/post?x=1").unwrap(),
            cookie_names: vec!["sid".into()],
            status: 200,
        };
        let s = entry.to_string();
        assert!(s.contains("GET"));
        assert!(s.contains("sid"));
        assert!(s.contains("200"));
    }
}
