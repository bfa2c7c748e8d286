//! # escudo-browser
//!
//! The browser engine of the ESCUDO reproduction — the stand-in for the Lobo prototype
//! the paper instruments. It ties the substrates together and contains every ESCUDO
//! enforcement point:
//!
//! * [`loader`] — fetch → parse (with nonce validation) → **one-time** security-context
//!   extraction (AC tags, scoping rule, fail-safe defaults, HTTP policy headers),
//! * [`context`] — the security-context table, kept outside the DOM so scripts can
//!   neither observe nor rewrite their labels,
//! * [`erm`] — the ESCUDO Reference Monitor: a single `check` entry point that applies
//!   the origin, ring and ACL rules (or only the origin rule in the same-origin
//!   baseline) and records an audit trail,
//! * [`host`] — the [`escudo_script::Host`] implementation that interposes the ERM on
//!   every DOM, cookie, XMLHttpRequest and history call a script makes,
//! * [`render`] — a deterministic layout pass so "parsing and rendering time"
//!   measurements exercise realistic work,
//! * [`snapshot`] — the [`ControlPlaneSnapshot`] observability surface: every
//!   counter in the stack (engine, monitor, jar, fabric, tenants) in one
//!   struct with a stable exported field layout,
//! * [`Browser`] — navigation, cookie attachment (the `use` operation), subresource
//!   and form/anchor request issuance, UI-event dispatch, history and visited links.
//!
//! # Example: a user comment cannot rewrite the blog post
//!
//! ```
//! use escudo_browser::{Browser, PolicyMode};
//! use escudo_net::{Request, Response, Server};
//!
//! struct Blog;
//! impl Server for Blog {
//!     fn handle(&mut self, _req: &Request) -> Response {
//!         Response::ok_html(concat!(
//!             "<html><body>",
//!             "<div ring=\"1\" r=\"1\" w=\"1\" x=\"1\" nonce=\"11\" id=\"post\">Original post</div nonce=\"11\">",
//!             "<div ring=\"3\" r=\"3\" w=\"3\" x=\"3\" nonce=\"22\" id=\"comment\">",
//!             "<script>document.getElementById('post').innerHTML = 'defaced';</script>",
//!             "</div nonce=\"22\">",
//!             "</body></html>",
//!         ))
//!     }
//! }
//!
//! let mut browser = Browser::new(PolicyMode::Escudo);
//! browser.fabric().register("http://blog.example", Blog);
//! let page = browser.navigate("http://blog.example/").unwrap();
//!
//! // The ring-3 comment script was denied when it tried to write the ring-1 post.
//! assert!(browser.page(page).script_outcomes[0].was_denied());
//! let doc = &browser.page(page).document;
//! let post = doc.get_element_by_id("post").unwrap();
//! assert_eq!(doc.text_content(post), "Original post");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod browser;
pub mod context;
pub mod erm;
pub mod error;
pub mod host;
pub mod loader;
pub mod page;
pub mod render;
pub mod snapshot;

pub use browser::{Browser, PageId, DEFAULT_SUBRESOURCE_WORKERS, MAX_HISTORY, RETAINED_PAGES};
pub use context::SecurityContextTable;
pub use erm::{Attachment, Erm, PlanAttachments};
pub use error::BrowserError;
pub use escudo_core::PolicyMode;
pub use loader::{LoadOptions, PageLoader, ResponsePolicies};
pub use page::{Page, PageLoadStats, ScriptOutcome, SubresourceOutcome};
pub use render::{LayoutBox, RenderStats, Renderer};
pub use snapshot::{
    ControlPlaneSnapshot, ErmCounters, FabricCounters, HealthVerdict, TenantSnapshot,
};
