//! Integration test for §6.3 (compatibility with legacy applications) and for the
//! functional side of the case studies: the ESCUDO configuration must not break the
//! applications' own behaviour.

use escudo::apps::{CalendarApp, CalendarConfig, ForumApp, ForumConfig};
use escudo::browser::{Browser, PolicyMode};

/// ESCUDO-configured application + non-ESCUDO browser: the configuration is ignored
/// and the application still works.
#[test]
fn escudo_application_works_on_a_legacy_browser() {
    let mut browser = Browser::new(PolicyMode::SameOriginOnly);
    browser.fabric().register(
        "http://forum.example",
        ForumApp::new(ForumConfig::default()),
    );
    browser
        .navigate("http://forum.example/login.php?user=alice")
        .unwrap();
    let page = browser.navigate("http://forum.example/index.php").unwrap();

    assert!(browser.page(page).all_scripts_succeeded());
    assert_eq!(
        browser.page(page).text_of("app-status").as_deref(),
        Some("ready")
    );
    assert_eq!(browser.erm().denials(), 0);
}

/// Legacy application + ESCUDO browser: everything collapses into a single ring and
/// ESCUDO behaves exactly like the same-origin policy.
#[test]
fn legacy_application_works_on_the_escudo_browser() {
    let mut browser = Browser::new(PolicyMode::Escudo);
    browser
        .fabric()
        .register("http://forum.example", ForumApp::new(ForumConfig::legacy()));
    browser
        .navigate("http://forum.example/login.php?user=alice")
        .unwrap();
    let page = browser.navigate("http://forum.example/index.php").unwrap();

    assert!(browser.page(page).legacy);
    assert!(browser.page(page).all_scripts_succeeded());
    assert_eq!(
        browser.page(page).text_of("app-status").as_deref(),
        Some("ready")
    );
    assert_eq!(browser.erm().denials(), 0);
}

/// The ESCUDO-configured applications keep all their legitimate functionality when the
/// full model is enforced: logging in, posting through forms, running their own
/// client-side code.
#[test]
fn escudo_enforcement_does_not_break_the_forum() {
    let forum = ForumApp::new(ForumConfig::vulnerable());
    let state = forum.state();
    let mut browser = Browser::new(PolicyMode::Escudo);
    browser.fabric().register("http://forum.example", forum);

    browser
        .navigate("http://forum.example/login.php?user=alice")
        .unwrap();
    let page = browser.navigate("http://forum.example/index.php").unwrap();
    assert_eq!(
        browser.page(page).text_of("app-status").as_deref(),
        Some("ready")
    );

    // Post a topic through the real form.
    browser
        .submit_form(
            page,
            "new-topic",
            &[("subject", "Hello"), ("message", "First post")],
        )
        .unwrap();
    assert_eq!(state.lock().expect("app state lock").topics.len(), 1);
    assert_eq!(
        state.lock().expect("app state lock").topics[0].author,
        "alice"
    );

    // Reply through the topic page's form.
    let topic_page = browser
        .navigate("http://forum.example/viewtopic.php?t=1")
        .unwrap();
    browser
        .submit_form(topic_page, "reply-form", &[("message", "a reply")])
        .unwrap();
    assert_eq!(state.lock().expect("app state lock").replies.len(), 1);
}

#[test]
fn escudo_enforcement_does_not_break_the_calendar() {
    let calendar = CalendarApp::new(CalendarConfig::vulnerable());
    let state = calendar.state();
    let mut browser = Browser::new(PolicyMode::Escudo);
    browser
        .fabric()
        .register("http://calendar.example", calendar);

    browser
        .navigate("http://calendar.example/login.php?user=bob")
        .unwrap();
    let page = browser
        .navigate("http://calendar.example/index.php")
        .unwrap();
    assert_eq!(
        browser.page(page).text_of("app-status").as_deref(),
        Some("calendar ready")
    );
    browser
        .submit_form(page, "add-event", &[("title", "Standup"), ("day", "3")])
        .unwrap();
    assert_eq!(state.lock().expect("app state lock").events.len(), 1);
    assert_eq!(
        state.lock().expect("app state lock").events[0].author,
        "bob"
    );
}

/// Escudo-configured pages carry their configuration in ways a legacy browser ignores:
/// div/body attributes and optional headers only.
#[test]
fn the_configuration_channel_is_invisible_to_legacy_browsers() {
    let mut app = ForumApp::new(ForumConfig::default());
    use escudo::net::{Request, Server};
    let response = app.handle(&Request::get("http://forum.example/index.php").unwrap());
    // The configuration is carried in attributes and optional headers…
    assert!(response.body.contains("ring="));
    assert!(!response.cookie_policies().is_empty() || !response.api_policies().is_empty());
    // …but the markup is otherwise ordinary HTML (no new tags), so a legacy browser
    // parsing it sees a well-formed page.
    let parsed =
        escudo::html::parse_document(&response.body, &escudo::html::ParseOptions::legacy());
    assert!(!parsed.document.elements_by_tag_name("form").is_empty());
    assert_eq!(parsed.report.rejected_end_tags, 0);
}
