//! Using the PHP-Calendar-like application through the ESCUDO browser.
//!
//! Demonstrates Table 4/5: the application's own client-side code keeps all its
//! privileges (it updates the page and could use the session cookie and
//! XMLHttpRequest), while calendar events created by users are isolated from one
//! another and from the application content.
//!
//! Run with: `cargo run --example calendar_demo`

use escudo::apps::{CalendarApp, CalendarConfig};
use escudo::browser::{Browser, PolicyMode};

fn main() {
    let calendar = CalendarApp::new(CalendarConfig::vulnerable());
    let state = calendar.state();

    let mut browser = Browser::new(PolicyMode::Escudo);
    browser
        .fabric()
        .register("http://calendar.example", calendar);

    // Log in and add two events through the real form-submission path.
    browser
        .navigate("http://calendar.example/login.php?user=alice")
        .unwrap();
    let page = browser
        .navigate("http://calendar.example/index.php")
        .unwrap();
    browser
        .submit_form(
            page,
            "add-event",
            &[
                ("title", "Standup"),
                ("day", "3"),
                ("description", "daily sync"),
            ],
        )
        .unwrap();
    let page = browser
        .navigate("http://calendar.example/index.php")
        .unwrap();
    browser
        .submit_form(
            page,
            "add-event",
            &[
                ("title", "Retro"),
                ("day", "7"),
                (
                    "description",
                    "<script>document.getElementById('event-1').innerHTML = 'cancelled';</script>",
                ),
            ],
        )
        .unwrap();

    // View the month. The second event carries a script that tries to rewrite the
    // first event — a cross-user integrity violation the ESCUDO configuration forbids.
    let page = browser
        .navigate("http://calendar.example/index.php")
        .unwrap();

    println!("Table 5 configuration in force:");
    for row in CalendarApp::escudo_config() {
        println!(
            "  {:<22} ring {}  (read ≤ {}, write ≤ {})",
            row.resource, row.ring, row.read, row.write
        );
    }
    println!();
    println!("Events stored on the server:");
    for event in &state.lock().unwrap().events {
        println!(
            "  #{} day {} {:?} by {}",
            event.id, event.day, event.title, event.author
        );
    }
    println!();
    println!(
        "Application status line (updated by the ring-1 app script): {:?}",
        browser.page(page).text_of("app-status").unwrap_or_default()
    );
    println!(
        "Event 1 text after loading the page:                        {:?}",
        browser.page(page).text_of("event-1").unwrap_or_default()
    );
    println!();
    for outcome in &browser.page(page).script_outcomes {
        if let Err(error) = &outcome.result {
            println!("Denied script (ran in {}): {}", outcome.ring, error);
        }
    }
    println!(
        "\nReference monitor: {} checks, {} denials — events are isolated from one another.",
        browser.erm().checks(),
        browser.erm().denials()
    );
}
