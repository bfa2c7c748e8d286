//! What the in-memory network is made of: the [`Server`] a registered origin
//! answers with, and the [`LoggedRequest`] the fabric's request log records.
//!
//! The log records every request together with the names of the cookies the
//! browser attached; the defense-effectiveness experiments (§6.4) read it to
//! determine whether a forged cross-site request carried the victim's session
//! cookie. The fabric itself is [`SharedNetwork`](crate::SharedNetwork).

use std::fmt;

use crate::message::{Method, Request, Response};
use crate::url::Url;

/// A server-side request handler registered with a
/// [`SharedNetwork`](crate::SharedNetwork).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NetError;
    use crate::fault::FetchPolicy;
    use crate::fetch::FetchPlan;
    use crate::shared_network::SharedNetwork;

    fn echo_server(req: &Request) -> Response {
        Response::ok_text(format!("{} {}", req.method, req.url.path()))
    }

    #[test]
    fn unknown_hosts_are_unreachable() {
        let net = SharedNetwork::new();
        let err = net.fetch("http://nowhere.example/").unwrap_err();
        assert!(matches!(err, NetError::HostUnreachable(_)));
    }

    #[test]
    fn different_port_is_a_different_origin() {
        let net = SharedNetwork::new();
        net.register("http://a.example:8080", echo_server);
        assert!(net.fetch("http://a.example/").is_err());
        assert!(net.fetch("http://a.example:8080/").is_ok());
    }

    #[test]
    fn the_log_records_cookies_and_status() {
        let net = SharedNetwork::new();
        net.register("http://forum.example", echo_server);
        let req = Request::get("http://forum.example/post")
            .unwrap()
            .with_header("Cookie", "sid=abc; data=1");
        net.execute(FetchPlan::new(vec![req], 1, FetchPolicy::disabled()));
        net.fetch("http://forum.example/plain").unwrap();

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
        let net = SharedNetwork::new();
        let mut hits = 0usize;
        net.register("http://count.example", move |_req: &Request| {
            hits += 1;
            Response::ok_text(hits.to_string())
        });
        assert!(net.knows(&Url::parse("http://count.example/a").unwrap()));
        assert!(!net.knows(&Url::parse("http://other.example/").unwrap()));
        let first = net.fetch("http://count.example/").unwrap();
        let second = net.fetch("http://count.example/").unwrap();
        assert_eq!(first.body, "1");
        assert_eq!(second.body, "2");
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
