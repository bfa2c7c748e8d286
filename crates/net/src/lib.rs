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
//! * [`SharedNetwork`] / [`Server`] — the `Arc`-shareable fabric: a host
//!   registry mapping origins to request handlers (per-origin handler mutexes,
//!   simulated latency), with a lock-striped, sequence-ordered request log the
//!   CSRF experiments read to see whether a session cookie was attached to a
//!   forged request,
//! * [`FetchPlan`] / [`SharedNetwork::execute`] — the one fetch pipeline:
//!   cache consult, single-flight, deadline windows with retries, and cache
//!   admission, run over requests the caller has already mediated.
//!
//! # Example
//!
//! ```
//! use escudo_net::{FetchPlan, FetchPolicy, Method, Request, Response, Server, SharedNetwork, Url};
//!
//! struct Hello;
//! impl Server for Hello {
//!     fn handle(&mut self, req: &Request) -> Response {
//!         Response::ok_html(format!("<html><body>hello {}</body></html>", req.url.path()))
//!     }
//! }
//!
//! let net = SharedNetwork::new();
//! net.register("http://hello.example", Hello);
//! let req = Request::new(Method::Get, Url::parse("http://hello.example/world")?);
//! let mut fetched = net.execute(FetchPlan::new(vec![req], 1, FetchPolicy::disabled()));
//! let resp = fetched.remove(0).outcome?;
//! assert!(resp.body.contains("hello /world"));
//! assert_eq!(net.log().len(), 1);
//! # Ok::<(), escudo_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cookie;
pub mod error;
pub mod fault;
pub mod fetch;
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
pub use fetch::{FetchPlan, Fetched, Source};
pub use headers::Headers;
pub use jar::CookieJar;
pub use message::{Method, Request, Response, StatusCode};
pub use network::{LoggedRequest, Server};
pub use prefetch::{BackgroundBatch, Prefetcher};
pub use response_cache::{CacheHit, CacheLayers, ResponseCache};
pub use shared_jar::{JarShardStats, JarStats, SharedCookieJar};
pub use shared_network::{FabricCounters, SharedNetwork};
pub use url::Url;
