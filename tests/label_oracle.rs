//! The page loader labels each page in one pre-order walk. These tests hold
//! that walk to [`label_oracle`], which labels in two plain passes (an
//! all-elements scan for the legacy flag, then a stack walk for the labels):
//! every node's label and the page's legacy flag must be the oracle's on
//!
//! * the eight Figure-4 pages,
//! * every HTML page the scenario matrix serves, fetched again from each
//!   session's fabric once the matrix has run, so with its attack payloads
//!   in place,
//! * hand cases: synthesized `html`/`body`, a malformed `ring="x"`,
//!   upper-case `RING`, a nonce-only element, a nested scope that tries to
//!   raise its privilege, text nodes, and an `innerHTML` subtree added after
//!   load (whose nodes follow the dynamic-content clamp instead).

use std::sync::{Arc, Mutex};

use escudo::apps::scenario::{install_chaos_hook, registry, MatrixReport};
use escudo::browser::{Browser, LoadOptions, Page, PageLoader, PolicyMode, ResponsePolicies};
use escudo::core::config::{AcAttributes, ResolvedLabel};
use escudo::core::{scoping, Acl, Ring};
use escudo::dom::{Document, NodeId};
use escudo::html::{parse_document, ParseOptions};
use escudo::net::{
    FetchPlan, FetchPolicy, Request, Response, Server, SharedCookieJar, SharedNetwork, Url,
};
use escudo_bench::oracle::label_oracle;
use escudo_bench::workload::{figure4_scenarios, generate_page};

/// Loads `response` for `url` under ESCUDO, without running its scripts.
fn load(url: &str, response: &Response) -> Page {
    let url = Url::parse(url).expect("test URL");
    PageLoader::load(
        &url,
        response,
        ResponsePolicies::parse(response),
        &LoadOptions::default(),
    )
}

/// Asserts that `page`'s legacy flag and the label of every node of its
/// document equal the oracle's, and returns the legacy flag.
fn assert_matches_oracle(page: &Page, response: &Response, what: &str) -> bool {
    let header_config = !ResponsePolicies::parse(response).is_empty();
    let (oracle, legacy) = label_oracle(&page.document, page.origin.clone(), header_config);
    assert_eq!(page.legacy, legacy, "{what}: legacy flag");
    let mut elements = 0;
    for node in page.document.descendants(page.document.root()) {
        elements += usize::from(page.document.element(node).is_some());
        assert_eq!(
            page.contexts.node_label(node),
            oracle.node_label(node),
            "{what}: label of node {node}"
        );
    }
    assert!(elements > 0, "{what}: no element compared");
    legacy
}

fn assert_html_matches_oracle(html: &str, what: &str) -> Page {
    let response = Response::ok_html(html);
    let page = load("http://app.example/index.php", &response);
    assert_matches_oracle(&page, &response, what);
    page
}

#[test]
fn figure4_pages_are_labelled_as_the_oracle_labels_them() {
    for scenario in figure4_scenarios() {
        let response = Response::ok_html(generate_page(&scenario));
        let page = load("http://bench.example/page.php", &response);
        let legacy = assert_matches_oracle(&page, &response, scenario.name);
        assert!(!legacy, "{}: generated pages carry AC tags", scenario.name);
    }
}

/// A staged session's fabric and cookie jar.
type Session = (Arc<SharedNetwork>, Arc<SharedCookieJar>);

#[test]
fn scenario_matrix_pages_are_labelled_as_the_oracle_labels_them() {
    // Every session's fabric and jar, collected as the matrix stages them.
    let sessions: Arc<Mutex<Vec<Session>>> = Arc::default();
    let sink = Arc::clone(&sessions);
    let report = {
        let _guard = install_chaos_hook(Arc::new(move |browser: &mut Browser| {
            sink.lock().expect("session sink lock").push((
                Arc::clone(browser.fabric()),
                Arc::clone(browser.cookie_jar()),
            ));
        }));
        MatrixReport::run(&registry())
    };
    assert!(report.unexpected().is_empty());

    let sessions = std::mem::take(&mut *sessions.lock().expect("session sink lock"));
    let (mut pages, mut configured) = (0, 0);
    for (fabric, jar) in &sessions {
        let mut seen: Vec<String> = Vec::new();
        for entry in fabric.log() {
            let url = entry.url.to_string();
            if entry.method != escudo::net::Method::Get || seen.contains(&url) {
                continue;
            }
            seen.push(url);
            // Fetch the page again with every cookie the session holds for it.
            let header = jar
                .candidates_for(&entry.url)
                .iter()
                .map(|cookie| format!("{}={}", cookie.name, cookie.value))
                .collect::<Vec<_>>()
                .join("; ");
            let mut request = Request::new(escudo::net::Method::Get, entry.url.clone());
            if !header.is_empty() {
                request.headers.set("Cookie", header);
            }
            let plan = FetchPlan::new(vec![request], 1, FetchPolicy::disabled());
            let Ok(response) = fabric.execute(plan).remove(0).outcome else {
                continue;
            };
            let html = response
                .headers
                .get("Content-Type")
                .is_some_and(|kind| kind.starts_with("text/html"));
            if !response.status.is_success() || !html {
                continue;
            }
            let page = load(&entry.url.to_string(), &response);
            let legacy = assert_matches_oracle(&page, &response, &entry.url.to_string());
            pages += 1;
            configured += usize::from(!legacy);
        }
    }
    assert!(pages >= 80, "only {pages} matrix pages compared");
    assert!(
        configured > 0 && configured < pages,
        "{configured} of {pages} configured"
    );
}

#[test]
fn synthesized_html_and_body_are_labelled_like_parsed_ones() {
    let page = assert_html_matches_oracle(
        r#"<p id=stray>before</p><div ring=2 r=2 w=2 x=2 id=scope><span id=inner>in</span></div>"#,
        "no html/body",
    );
    assert!(!page.legacy);
    let inner = page.document.get_element_by_id("inner").unwrap();
    assert_eq!(page.contexts.node_label(inner).ring, Ring::new(2));
    let stray = page.document.get_element_by_id("stray").unwrap();
    assert_eq!(page.contexts.node_label(stray).ring, Ring::OUTERMOST);
}

#[test]
fn a_malformed_ring_counts_for_legacy_but_declares_nothing() {
    let page = assert_html_matches_oracle(
        r#"<html><body><div ring="x" id=bad><p id=child>c</p></div></body></html>"#,
        "ring=x",
    );
    // The legacy scan sees a `ring` attribute, whatever its value ...
    assert!(!page.legacy);
    // ... while the malformed declaration is no AC tag: fail-safe default.
    for id in ["bad", "child"] {
        let node = page.document.get_element_by_id(id).unwrap();
        assert_eq!(
            page.contexts.node_label(node),
            page.contexts.default_label(),
            "#{id}"
        );
        assert_eq!(page.contexts.node_label(node).ring, Ring::OUTERMOST);
    }
}

#[test]
fn upper_case_attribute_names_in_markup_declare_a_scope() {
    // The legacy scan matches `ring`/`r`/`w`/`x` case-sensitively, while
    // `AcAttributes::parse` matches any case. Both the tokenizer and the DOM
    // lower-case attribute names, so markup `RING` reaches both as `ring`:
    // it configures the page and declares the scope.
    let page = assert_html_matches_oracle(
        r#"<html><body><div RING=2 R=1 id=upper><i id=kid>k</i></div></body></html>"#,
        "RING",
    );
    assert!(!page.legacy);
    let kid = page.document.get_element_by_id("kid").unwrap();
    assert_eq!(
        page.contexts.node_label(kid),
        ResolvedLabel {
            ring: Ring::new(2),
            acl: Acl::new(Ring::new(1), Ring::INNERMOST, Ring::INNERMOST)
        }
    );
}

#[test]
fn a_nonce_alone_neither_configures_the_page_nor_scopes() {
    let page = assert_html_matches_oracle(
        r#"<html><body><div nonce=1234 id=n><p id=p>x</p></div nonce=1234></body></html>"#,
        "nonce only",
    );
    assert!(page.legacy);
    let p = page.document.get_element_by_id("p").unwrap();
    assert_eq!(page.contexts.node_label(p).acl, Acl::permissive());
}

#[test]
fn a_nested_scope_cannot_raise_its_privilege() {
    let page = assert_html_matches_oracle(
        r#"<html><body ring=2 r=2 w=2 x=2>
            <div ring=0 r=0 w=0 x=0 id=sneaky><div ring=1 id=deeper>x</div></div>
        </body></html>"#,
        "escalating scope",
    );
    for id in ["sneaky", "deeper"] {
        let node = page.document.get_element_by_id(id).unwrap();
        assert_eq!(page.contexts.node_label(node).ring, Ring::new(2), "#{id}");
    }
}

#[test]
fn text_nodes_keep_the_page_default() {
    let page = assert_html_matches_oracle(
        r#"<html><body ring=1 r=1 w=1 x=1><p id=p>scoped text</p></body></html>"#,
        "text nodes",
    );
    let p = page.document.get_element_by_id("p").unwrap();
    let text = page.document.first_child(p).unwrap();
    assert!(page.document.element(text).is_none());
    assert_eq!(page.contexts.node_label(p).ring, Ring::new(1));
    assert_eq!(
        page.contexts.node_label(text),
        page.contexts.default_label()
    );
}

/// The dynamic-content clamp for a subtree created at run time by a
/// principal of ring `creator` under a parent of ring `parent`.
fn dynamic_oracle(
    document: &Document,
    root: NodeId,
    creator: Ring,
    parent: Ring,
) -> Vec<(NodeId, ResolvedLabel)> {
    let mut labels = Vec::new();
    let mut stack = vec![(
        root,
        scoping::effective_ring_for_dynamic_content(creator, parent, None),
    )];
    while let Some((node, bound)) = stack.pop() {
        let ring = if document.element(node).is_some() {
            let attrs = AcAttributes::parse(
                document
                    .attributes(node)
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.as_str())),
            )
            .unwrap_or_default();
            let ring = scoping::effective_ring(bound, attrs.ring);
            labels.push((
                node,
                ResolvedLabel {
                    ring,
                    acl: Acl::uniform(ring),
                },
            ));
            ring
        } else {
            bound
        };
        stack.extend(document.children(node).map(|child| (child, ring)));
    }
    labels
}

struct Static(&'static str);

impl Server for Static {
    fn handle(&mut self, _request: &Request) -> Response {
        Response::ok_html(self.0)
    }
}

#[test]
fn an_inner_html_subtree_added_after_load_is_clamped_to_its_creator() {
    const HTML: &str = r#"<html><body ring=1 r=1 w=1 x=1>
        <div id=target ring=2 r=2 w=2 x=2>old</div>
        <script>document.getElementById('target').innerHTML = '<div ring=0 id=inner><b id=deep>x</b></div>';</script>
    </body></html>"#;
    let mut browser = Browser::new(PolicyMode::Escudo);
    browser
        .fabric()
        .register("http://app.example", Static(HTML));
    let id = browser.navigate("http://app.example/").unwrap();
    let page = browser.page(id);
    assert!(page.all_scripts_succeeded(), "{:?}", page.script_outcomes);

    // Nodes the parser made keep the oracle's labels; the parse is
    // deterministic, so a second parse has the same node ids.
    let parsed = parse_document(HTML, &ParseOptions::default()).document;
    let (oracle, legacy) = label_oracle(&parsed, page.origin.clone(), false);
    assert_eq!(page.legacy, legacy);
    let document = &page.document;
    let target = document.get_element_by_id("target").unwrap();
    let inner = document.get_element_by_id("inner").unwrap();
    assert!(inner.index() >= parsed.node_count(), "the subtree is new");
    for node in document.descendants(document.root()) {
        if node.index() < parsed.node_count() {
            assert_eq!(
                page.contexts.node_label(node),
                oracle.node_label(node),
                "node {node}"
            );
        }
    }

    // The new subtree follows the clamp: never above its creator (the ring-1
    // script) or its parent (ring 2), whatever it declares.
    let script_ring = page.scripts[0].ring;
    assert_eq!(script_ring, Ring::new(1));
    let expected = dynamic_oracle(
        document,
        inner,
        script_ring,
        page.contexts.node_label(target).ring,
    );
    assert_eq!(expected.len(), 2);
    for (node, label) in expected {
        assert_eq!(page.contexts.node_label(node), label, "node {node}");
        assert_eq!(label.ring, Ring::new(2));
    }
}
