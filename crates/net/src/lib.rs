//! # escudo-net
//!
//! The HTTP substrate the ESCUDO browser runs on. The paper's prototype sat inside the
//! Lobo browser and talked to real web servers; the enforcement points it adds only
//! require requests, responses, headers, cookies and origins — so this crate provides
//! exactly those as an **in-memory network**:
//!
//! * [`Url`] / [`escudo_core::Origin`] — the address space,
//! * [`Request`] / [`Response`] / [`Headers`] / [`Method`] / [`StatusCode`] — messages,
//! * [`Cookie`] / [`SetCookie`] / [`CookieJar`] / [`SharedCookieJar`] — the cookie
//!   stores (single-threaded and host-sharded concurrent) whose *attachment* decision
//!   is delegated to the caller (the browser's reference monitor decides the `use`
//!   operation),
//! * [`Network`] / [`SharedNetwork`] / [`Server`] — a host registry mapping origins
//!   to request handlers, with a request log the CSRF experiments read to see
//!   whether a session cookie was attached to a forged request. [`SharedNetwork`]
//!   is the `Arc`-shareable fabric (per-origin handler mutexes, lock-striped
//!   sequence-ordered log, simulated latency); [`Network`] is the single-owner
//!   convenience handle over one.
//!
//! # Example
//!
//! ```
//! use escudo_net::{Method, Network, Request, Response, Server, Url};
//!
//! struct Hello;
//! impl Server for Hello {
//!     fn handle(&mut self, req: &Request) -> Response {
//!         Response::ok_html(format!("<html><body>hello {}</body></html>", req.url.path()))
//!     }
//! }
//!
//! let mut net = Network::new();
//! net.register("http://hello.example", Hello);
//! let req = Request::new(Method::Get, Url::parse("http://hello.example/world")?);
//! let resp = net.dispatch(req)?;
//! assert!(resp.body.contains("hello /world"));
//! # Ok::<(), escudo_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cookie;
pub mod error;
pub mod fault;
pub mod headers;
pub mod jar;
pub mod message;
pub mod network;
pub mod prefetch;
pub mod response_cache;
pub mod shared_jar;
pub mod shared_network;
pub mod url;
pub mod window;

pub use cookie::{Cookie, SetCookie};
pub use error::NetError;
pub use fault::{BreakerPhase, FaultOutcome, FaultPlan, FaultSchedule, FetchPolicy};
pub use headers::Headers;
pub use jar::CookieJar;
pub use message::{Method, Request, Response, StatusCode};
pub use network::{LoggedRequest, Network, Server};
pub use prefetch::{BackgroundBatch, Prefetcher};
pub use response_cache::{CacheHit, CacheLayers, ResponseCache};
pub use shared_jar::{JarShardStats, JarStats, SharedCookieJar};
pub use shared_network::SharedNetwork;
pub use url::Url;
