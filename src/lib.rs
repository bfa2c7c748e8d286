//! # escudo
//!
//! Umbrella crate for the reproduction of *"ESCUDO: A Fine-grained Protection Model
//! for Web Browsers"* (Jayaraman, Du, Rajagopalan, Chapin — ICDCS 2010).
//!
//! It re-exports the workspace crates under one roof so examples, integration tests
//! and downstream users can depend on a single crate:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`core`] | rings, ACLs, origins, security contexts, the three MAC rules, the pluggable policy engine, configuration formats |
//! | [`net`] | in-memory HTTP substrate: URLs, requests/responses, cookies, the host registry |
//! | [`html`] | HTML tokenizer/tree builder with ESCUDO's nonce validation |
//! | [`dom`] | arena DOM |
//! | [`script`] | the ECMAScript-subset interpreter with mediated host bindings |
//! | [`browser`] | the browser engine: page loader, security-context table, reference monitor, renderer |
//! | [`apps`] | the phpBB/PHP-Calendar analogues, the blog, the attacker site, the attack corpus and the §6.4 harness |
//!
//! See `README.md` for the workspace tour, the quickstart and the engine
//! architecture diagram.
//!
//! # Quickstart
//!
//! ```
//! use escudo::browser::{Browser, PolicyMode};
//! use escudo::apps::BlogApp;
//!
//! let mut browser = Browser::new(PolicyMode::Escudo);
//! browser.fabric().register("http://blog.example", BlogApp::new());
//! let page = browser.navigate("http://blog.example/").unwrap();
//! assert!(browser.page(page).text_of("post-body").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use escudo_apps as apps;
pub use escudo_browser as browser;
pub use escudo_core as core;
pub use escudo_dom as dom;
pub use escudo_html as html;
pub use escudo_net as net;
pub use escudo_script as script;
