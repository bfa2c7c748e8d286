//! The introduction's advertising scenario, from one blog slot to an ad network.
//!
//! A publisher leases part of its page to advertising networks. With the
//! same-origin policy the publisher "has no further control over what appears in
//! that ad space"; with ESCUDO each slot sits in ring 2, so a malicious
//! advertisement can restyle itself but cannot rewrite the publisher's content,
//! read the session cookie, or talk to the server with the reader's authority.
//!
//! The first half walks through one rogue ad by hand; the second half runs the
//! advertising slice of the scenario registry — the single-slot blog and the
//! multi-origin ad network — cell by cell.
//!
//! Run with: `cargo run --example ad_sandbox`

use escudo::apps::scenario::{registry, MatrixReport, Scenario};
use escudo::apps::BlogApp;
use escudo::browser::{Browser, PolicyMode};

const MALICIOUS_AD: &str = "\
    var slot = document.getElementById('ad-slot-text');\
    if (slot != null) { slot.innerHTML = 'TOTALLY LEGIT AD'; }\
    document.getElementById('post-body').innerHTML = 'The publisher endorses our pills!';";

fn main() {
    for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
        println!("== {mode} ==");
        let mut browser = Browser::new(mode);
        browser.fabric().register(
            "http://blog.example",
            BlogApp::new().with_ad_script(MALICIOUS_AD),
        );
        browser
            .navigate("http://blog.example/login?user=reader")
            .unwrap();
        let page = browser.navigate("http://blog.example/").unwrap();

        println!(
            "  ad slot text:  {:?}",
            browser
                .page(page)
                .text_of("ad-slot-text")
                .unwrap_or_default()
        );
        println!(
            "  post body:     {:?}",
            browser.page(page).text_of("post-body").unwrap_or_default()
        );
        for outcome in &browser.page(page).script_outcomes {
            if let Err(error) = &outcome.result {
                println!("  ad script stopped: {error}");
            }
        }
        println!();
    }

    // The same story as a registry slice: every advertising case — benign
    // restyles, rogue defacements, cookie exfiltration across N origins —
    // with its declared verdict per policy mode.
    let ad_slice: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.id == "blog" || s.id == "adnet")
        .collect();
    let report = MatrixReport::run(&ad_slice);
    println!(
        "Advertising slice of the scenario matrix ({} cells, {} unexpected):",
        report.cells(),
        report.unexpected().len()
    );
    for outcome in &report.outcomes {
        println!("  {outcome}");
    }

    println!();
    println!("The ring-2 advertisement may update its own slot, but the moment it reaches for");
    println!("the publisher's ring-1 content the write is denied — the publisher no longer has");
    println!("to trust the advertising network's verifier.");
}
