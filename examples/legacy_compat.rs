//! §6.3 — backwards compatibility in both directions.
//!
//! 1. An ESCUDO-configured application rendered by a *non-ESCUDO* browser: the AC
//!    attributes and policy headers are simply ignored, and the application still
//!    works (it falls back to the protection of the same-origin policy).
//! 2. A *legacy* application (no ESCUDO configuration) rendered by an ESCUDO browser:
//!    the page collapses to a single ring, so ESCUDO behaves exactly like the
//!    same-origin policy and nothing breaks.
//!
//! Run with: `cargo run --example legacy_compat`

use escudo::apps::{ForumApp, ForumConfig};
use escudo::browser::{Browser, PolicyMode};

fn main() {
    // Direction 1: ESCUDO-configured application, legacy (SOP-only) browser.
    {
        let mut browser = Browser::new(PolicyMode::SameOriginOnly);
        browser.fabric().register(
            "http://forum.example",
            ForumApp::new(ForumConfig::default()),
        );
        browser
            .navigate("http://forum.example/login.php?user=alice")
            .unwrap();
        let page = browser.navigate("http://forum.example/index.php").unwrap();
        println!("ESCUDO application on a non-ESCUDO browser:");
        println!(
            "  page loaded:                {}",
            !browser.page(page).document.all_elements().is_empty()
        );
        println!(
            "  app script ran:             {}",
            browser.page(page).all_scripts_succeeded()
        );
        println!(
            "  status line set by script:  {:?}",
            browser.page(page).text_of("app-status").unwrap_or_default()
        );
        println!("  denials (should be 0):      {}", browser.erm().denials());
    }

    println!();

    // Direction 2: legacy application, ESCUDO browser.
    {
        let mut browser = Browser::new(PolicyMode::Escudo);
        browser
            .fabric()
            .register("http://forum.example", ForumApp::new(ForumConfig::legacy()));
        browser
            .navigate("http://forum.example/login.php?user=alice")
            .unwrap();
        let page = browser.navigate("http://forum.example/index.php").unwrap();
        println!("Legacy application on the ESCUDO browser:");
        println!(
            "  treated as legacy page:     {}",
            browser.page(page).legacy
        );
        println!(
            "  app script ran:             {}",
            browser.page(page).all_scripts_succeeded()
        );
        println!(
            "  status line set by script:  {:?}",
            browser.page(page).text_of("app-status").unwrap_or_default()
        );
        println!("  denials (should be 0):      {}", browser.erm().denials());
    }

    println!();
    println!("Both directions work: ESCUDO can be deployed incrementally.");
}
