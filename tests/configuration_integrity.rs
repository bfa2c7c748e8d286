//! Integration tests for §5 (security analysis): the configuration itself must be
//! tamper-proof. Covers the two illegal-privilege-elevation routes the paper analyses
//! — a principal trying to raise its own privilege, and a principal trying to create a
//! new principal with elevated privilege — plus the node-splitting defense.

use escudo::browser::{Browser, PolicyMode};
use escudo::core::Ring;
use escudo::net::{Request, Response, Server};

struct Static(&'static str);
impl Server for Static {
    fn handle(&mut self, _req: &Request) -> Response {
        Response::ok_html(self.0)
    }
}

fn load(mode: PolicyMode, html: &'static str) -> (Browser, escudo::browser::PageId) {
    let mut browser = Browser::new(mode);
    browser
        .fabric()
        .register("http://app.example", Static(html));
    let page = browser.navigate("http://app.example/").unwrap();
    (browser, page)
}

/// §5(1): "A JavaScript program may attempt to remap an AC tag to a higher privileged
/// ring using the DOM API function setAttribute … such attempts to modify the
/// attributes cannot succeed."
#[test]
fn remapping_rings_via_set_attribute_fails() {
    let html = r#"<html><body ring=1 r=1 w=1 x=1>
        <div ring=3 r=3 w=3 x=3 id=user>
          <script>document.getElementById('user').setAttribute('ring', '0');</script>
          <script>document.getElementById('user').setAttribute('w', '3');</script>
        </div>
    </body></html>"#;
    let (browser, page) = load(PolicyMode::Escudo, html);
    // Both scripts were stopped.
    assert_eq!(browser.page(page).script_outcomes.len(), 2);
    assert!(browser
        .page(page)
        .script_outcomes
        .iter()
        .all(|o| o.was_denied()));
    // The security-context table still holds the original ring.
    let doc = &browser.page(page).document;
    let user = doc.get_element_by_id("user").unwrap();
    assert_eq!(
        browser.page(page).contexts.node_label(user).ring,
        Ring::new(3)
    );
    // And the DOM attribute itself is unchanged.
    assert_eq!(doc.attribute(user, "ring"), Some("3"));
}

/// §5(2), static variant: node-splitting. A forged `</div>` without the matching nonce
/// is ignored by the ESCUDO parser, so the injected "high-privilege" region stays
/// inside the low-privilege scope and is clamped by the scoping rule.
#[test]
fn node_splitting_is_rejected_by_nonce_validation() {
    let html = r#"<html><body ring=1 r=1 w=1 x=1>
        <div ring=3 r=3 w=3 x=3 nonce=777 id=user-region>
          user text</div><div ring=0 r=0 w=0 x=0 id=injected>
          <script>document.cookie = 'stolen=1';</script>
        </div nonce=777>
    </body></html>"#;
    let (browser, page) = load(PolicyMode::Escudo, html);
    // The forged close tag was rejected…
    assert_eq!(browser.page(page).parse_report.rejected_end_tags, 1);
    // …so the injected div is still inside the user region and clamped to ring 3.
    let doc = &browser.page(page).document;
    let region = doc.get_element_by_id("user-region").unwrap();
    let injected = doc.get_element_by_id("injected").unwrap();
    assert!(doc.is_inclusive_ancestor(region, injected));
    assert_eq!(
        browser.page(page).contexts.node_label(injected).ring,
        Ring::new(3)
    );
    // The script that hoped to run in ring 0 was denied when it touched the cookie.
    assert!(browser.page(page).any_script_denied());

    // A legacy browser accepts the split: the injected region escapes.
    let (legacy_browser, legacy_page) = load(PolicyMode::SameOriginOnly, html);
    let doc = &legacy_browser.page(legacy_page).document;
    let region = doc.get_element_by_id("user-region").unwrap();
    let injected = doc.get_element_by_id("injected").unwrap();
    assert!(!doc.is_inclusive_ancestor(region, injected));
    assert_eq!(
        legacy_browser
            .page(legacy_page)
            .parse_report
            .rejected_end_tags,
        0
    );
}

/// §5(2), dynamic variant: "a malicious principal cannot create a new principal that
/// has higher privileges than itself" — content created through the DOM API is clamped
/// to its creator's ring even if it declares `ring="0"`.
#[test]
fn dynamically_created_content_is_clamped_to_its_creator() {
    let html = r#"<html><body ring=1 r=1 w=1 x=1>
        <div id=sandbox ring=3 r=3 w=3 x=3>
          <script>
            var escape = document.createElement('div');
            escape.setAttribute('id', 'wannabe-kernel');
            document.getElementById('sandbox').appendChild(escape);
            escape.innerHTML = '<b id=payload>still ring 3</b>';
          </script>
        </div>
    </body></html>"#;
    let (browser, page) = load(PolicyMode::Escudo, html);
    // The script itself is allowed: it only touches its own ring-3 region.
    assert!(
        browser.page(page).all_scripts_succeeded(),
        "{:?}",
        browser.page(page).script_outcomes
    );
    let doc = &browser.page(page).document;
    let created = doc.get_element_by_id("wannabe-kernel").unwrap();
    let payload = doc.get_element_by_id("payload").unwrap();
    assert_eq!(
        browser.page(page).contexts.node_label(created).ring,
        Ring::new(3)
    );
    assert_eq!(
        browser.page(page).contexts.node_label(payload).ring,
        Ring::new(3)
    );
}

/// The scoping rule also applies statically: an inner AC tag cannot declare more
/// privilege than its enclosing scope.
#[test]
fn nested_ac_tags_cannot_escalate() {
    let html = r#"<html><body ring=2 r=2 w=2 x=2>
        <div ring=0 r=0 w=0 x=0 id=inner>
          <script>document.cookie = 'planted=1';</script>
        </div>
    </body></html>"#;
    let (browser, page) = load(PolicyMode::Escudo, html);
    let doc = &browser.page(page).document;
    let inner = doc.get_element_by_id("inner").unwrap();
    assert_eq!(
        browser.page(page).contexts.node_label(inner).ring,
        Ring::new(2)
    );
}

/// Browser state (history, visited links) is mandatorily ring 0: application scripts
/// outside ring 0 cannot read it, scripts in ring 0 can.
#[test]
fn browser_state_is_ring_zero_only() {
    // Note the ring-0 region lives in the head, outside the ring-1 body — the scoping
    // rule forbids a ring-0 scope nested inside a less privileged one (that nesting is
    // itself covered by `nested_ac_tags_cannot_escalate`).
    let html = r#"<html>
    <head><div ring=0 r=0 w=0 x=0>
        <script>var l = history.length;</script>
    </div></head>
    <body ring=1 r=1 w=1 x=1>
        <div id=out>none</div>
        <script>document.getElementById('out').innerHTML = 'len=' + history.length;</script>
    </body></html>"#;
    let (browser, page) = load(PolicyMode::Escudo, html);
    let outcomes = &browser.page(page).script_outcomes;
    assert_eq!(outcomes.len(), 2);
    // The ring-0 script (document order: head first) reads the history length…
    assert!(outcomes[0].succeeded());
    // …while the ring-1 application script is denied access to browser state.
    assert!(outcomes[1].was_denied());
    assert_eq!(browser.page(page).text_of("out").as_deref(), Some("none"));
}
