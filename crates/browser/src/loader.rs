//! The page loader: parse, then extract the security contexts **exactly once**.
//!
//! The extraction step implements §4.1 and §5 of the paper:
//!
//! * AC attributes (`ring`, `r`, `w`, `x`) may appear on any element (the case studies
//!   label `body` directly, not only `div`s);
//! * the **scoping rule** clamps every nested declaration to its enclosing scope;
//! * missing specifications fail safe (least-privileged ring, ring-0-only ACL);
//! * cookie and native-API rings come from the optional HTTP headers;
//! * a page with *no* ESCUDO configuration at all is a legacy page: it collapses to a
//!   single fully-privileged ring, i.e. exactly the same-origin policy;
//! * the mapping is performed once, on a table the DOM cannot reach, so later
//!   `setAttribute` calls cannot re-map anything.

use std::time::Instant;

use escudo_core::config::{AcAttributes, ResolvedLabel};
use escudo_core::{PolicyMode, Ring};
use escudo_dom::{Document, NodeId};
use escudo_html::{parse_document, ParseOptions};
use escudo_net::{Response, Url};

use crate::context::SecurityContextTable;
use crate::page::{Page, PageLoadStats, ScriptUnit};
use crate::render::Renderer;

/// Options controlling a page load.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// The policy mode the browser is enforcing.
    pub mode: PolicyMode,
    /// Viewport width handed to the renderer.
    pub viewport_width: u32,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            mode: PolicyMode::Escudo,
            viewport_width: 1024,
        }
    }
}

/// The page loader. Stateless; all state lives in the returned [`Page`].
#[derive(Debug, Clone, Default)]
pub struct PageLoader;

impl PageLoader {
    /// Builds a [`Page`] from a fetched response.
    ///
    /// Scripts are collected but **not** executed here — execution needs network and
    /// cookie access and is driven by [`Browser`](crate::Browser).
    #[must_use]
    pub fn load(url: &Url, response: &Response, options: &LoadOptions) -> Page {
        let origin = url.origin();

        // 1. Parse. Nonce validation is an ESCUDO behaviour; the legacy baseline
        //    accepts forged end tags (which is what makes node splitting work there).
        let parse_options = match options.mode {
            PolicyMode::Escudo => ParseOptions::default(),
            PolicyMode::SameOriginOnly => ParseOptions::legacy(),
        };
        let parse_start = Instant::now();
        let parsed = parse_document(&response.body, &parse_options);
        let parse_ns = parse_start.elapsed().as_nanos();
        let document = parsed.document;

        // 2–3. Security-context extraction is ESCUDO bookkeeping; a legacy (SOP-only)
        // browser ignores the AC attributes and policy headers entirely, which is
        // exactly the baseline Figure 4 compares against.
        let (legacy, contexts, label_ns) = match options.mode {
            PolicyMode::Escudo => {
                let label_start = Instant::now();
                let has_header_config =
                    !response.cookie_policies().is_empty() || !response.api_policies().is_empty();
                // Cheap scan: an AC tag declares at least one of ring/r/w/x.
                let has_ac_tags = document.all_elements().iter().any(|&node| {
                    document
                        .attributes(node)
                        .iter()
                        .any(|(name, _)| matches!(name.as_str(), "ring" | "r" | "w" | "x"))
                });
                let legacy = !(has_ac_tags || has_header_config);
                let mut contexts = SecurityContextTable::new(origin.clone(), legacy);
                label_document(&document, &mut contexts);
                for policy in response.cookie_policies() {
                    contexts.add_cookie_policy(policy);
                }
                for policy in response.api_policies() {
                    contexts.set_api_ring(policy);
                }
                (legacy, contexts, label_start.elapsed().as_nanos())
            }
            PolicyMode::SameOriginOnly => {
                // Everything runs with the origin's full authority, as under the SOP.
                (true, SecurityContextTable::new(origin.clone(), true), 0)
            }
        };

        // 4. Collect scripts (inline `script` elements) in document order, each bound
        //    to the ring of the scope it appears in — and the page's `rel=prefetch`
        //    speculation hints, which the browser's predictor feeds to the
        //    session's prefetch thread.
        let scripts = collect_scripts(&document, &contexts);
        let prefetch_hints = escudo_html::prefetch_links(&document)
            .into_iter()
            .map(|(_, href)| href)
            .collect();

        // 5. Render.
        let render_start = Instant::now();
        let renderer = Renderer::new(options.viewport_width);
        let (_display_list, render_stats) = renderer.layout(&document);
        let render_ns = render_start.elapsed().as_nanos();

        Page {
            url: url.clone(),
            origin,
            document,
            contexts,
            scripts,
            script_outcomes: Vec::new(),
            subresources: Vec::new(),
            prefetch_hints,
            parse_report: parsed.report,
            render_stats,
            stats: PageLoadStats {
                parse_ns,
                label_ns,
                render_ns,
                ..PageLoadStats::default()
            },
            legacy,
        }
    }
}

/// Walks the document once, assigning every element its resolved label according to
/// the scoping rule and the fail-safe defaults.
fn label_document(document: &Document, contexts: &mut SecurityContextTable) {
    // (node, inherited label from the nearest enclosing AC scope, if any)
    let mut stack: Vec<(NodeId, Option<ResolvedLabel>)> = document
        .children(document.root())
        .map(|child| (child, None))
        .collect();
    // Depth-first; order of labelling does not matter, only parentage.
    while let Some((node, inherited)) = stack.pop() {
        let label_for_children = if document.element(node).is_some() {
            let attrs = AcAttributes::parse(
                document
                    .attributes(node)
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.as_str())),
            )
            .unwrap_or_default();
            let label = if attrs.is_ac_tag() {
                // The scope bound is the enclosing AC scope's ring; outside any scope
                // the application's own markup is the page itself (ring 0).
                let bound = inherited.map_or(Ring::INNERMOST, |l| l.ring);
                attrs.resolve(bound)
            } else {
                inherited.unwrap_or_else(|| contexts.default_label())
            };
            contexts.set_node_label(node, label);
            if attrs.is_ac_tag() {
                Some(label)
            } else {
                inherited
            }
        } else {
            // Text/comment nodes take the enclosing label implicitly via their parent
            // element; no entry is needed.
            inherited
        };
        for child in document.children(node) {
            stack.push((child, label_for_children));
        }
    }
}

/// Labels a subtree created at run time (via the DOM API or `innerHTML`): every new
/// node is clamped to the creator's ring and the insertion parent's ring, per §5.
pub(crate) fn label_dynamic_subtree(
    document: &Document,
    contexts: &mut SecurityContextTable,
    root: NodeId,
    creator_ring: Ring,
    parent_ring: Ring,
) {
    let base =
        escudo_core::scoping::effective_ring_for_dynamic_content(creator_ring, parent_ring, None);
    let mut stack = vec![(root, base)];
    while let Some((node, bound)) = stack.pop() {
        let ring = if document.element(node).is_some() {
            let attrs = AcAttributes::parse(
                document
                    .attributes(node)
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.as_str())),
            )
            .unwrap_or_default();
            // Declared rings can only drop privilege relative to the clamp.
            let ring = escudo_core::scoping::effective_ring(bound, attrs.ring);
            contexts.set_node_label(
                node,
                ResolvedLabel {
                    ring,
                    acl: escudo_core::Acl::uniform(ring),
                },
            );
            ring
        } else {
            bound
        };
        for child in document.children(node) {
            stack.push((child, ring));
        }
    }
}

/// Collects inline scripts in document order.
fn collect_scripts(document: &Document, contexts: &SecurityContextTable) -> Vec<ScriptUnit> {
    document
        .elements_by_tag_name("script")
        .into_iter()
        .filter_map(|node| {
            let source = document.text_content(node);
            if source.trim().is_empty() {
                return None;
            }
            Some(ScriptUnit {
                node,
                source,
                ring: contexts.node_label(node).ring,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_core::Acl;
    use escudo_net::Response;

    fn load(html: &str, mode: PolicyMode) -> Page {
        let url = Url::parse("http://app.example/index.php").unwrap();
        let response = Response::ok_html(html);
        PageLoader::load(
            &url,
            &response,
            &LoadOptions {
                mode,
                viewport_width: 1024,
            },
        )
    }

    #[test]
    fn legacy_pages_collapse_to_a_single_privileged_ring() {
        let page = load(
            "<html><body><p id=x>hi</p><script>var a = 1;</script></body></html>",
            PolicyMode::Escudo,
        );
        assert!(page.legacy);
        let x = page.document.get_element_by_id("x").unwrap();
        let label = page.contexts.node_label(x);
        assert_eq!(label.ring, Ring::INNERMOST);
        assert_eq!(label.acl, Acl::permissive());
        assert_eq!(page.scripts.len(), 1);
        assert_eq!(page.scripts[0].ring, Ring::INNERMOST);
    }

    #[test]
    fn ac_tags_assign_rings_and_acls() {
        let html = r#"<html><body ring=1 r=1 w=1 x=1>
            <div id=app>app content</div>
            <div ring=3 r=2 w=2 x=2 id=user>user content<script>var x=1;</script></div>
        </body></html>"#;
        let page = load(html, PolicyMode::Escudo);
        assert!(!page.legacy);
        let body = page.document.elements_by_tag_name("body")[0];
        assert_eq!(page.contexts.node_label(body).ring, Ring::new(1));
        // Non-AC children inherit the enclosing scope.
        let app = page.document.get_element_by_id("app").unwrap();
        assert_eq!(page.contexts.node_label(app).ring, Ring::new(1));
        assert_eq!(
            page.contexts.node_label(app).acl,
            Acl::uniform(Ring::new(1))
        );
        // Nested AC tag takes its declared (less privileged) ring and ACL.
        let user = page.document.get_element_by_id("user").unwrap();
        assert_eq!(page.contexts.node_label(user).ring, Ring::new(3));
        assert_eq!(
            page.contexts.node_label(user).acl,
            Acl::uniform(Ring::new(2)).clamped_to_ring(Ring::new(3))
        );
        // The script inside the user region runs at ring 3.
        assert_eq!(page.scripts.len(), 1);
        assert_eq!(page.scripts[0].ring, Ring::new(3));
    }

    #[test]
    fn scoping_rule_clamps_privilege_escalating_inner_scopes() {
        let html = r#"<html><body ring=2 r=2 w=2 x=2>
            <div ring=0 r=0 w=0 x=0 id=sneaky>wants ring 0</div>
        </body></html>"#;
        let page = load(html, PolicyMode::Escudo);
        let sneaky = page.document.get_element_by_id("sneaky").unwrap();
        assert_eq!(page.contexts.node_label(sneaky).ring, Ring::new(2));
    }

    #[test]
    fn unlabelled_content_in_a_configured_page_fails_safe() {
        let html = r#"<html><body>
            <div ring=1 r=1 w=1 x=1 id=app>app</div>
            <p id=stray>outside any AC scope</p>
        </body></html>"#;
        let page = load(html, PolicyMode::Escudo);
        let stray = page.document.get_element_by_id("stray").unwrap();
        let label = page.contexts.node_label(stray);
        assert_eq!(label.ring, Ring::OUTERMOST);
        assert_eq!(label.acl, Acl::ring_zero_only());
    }

    #[test]
    fn escudo_headers_configure_cookies_and_apis() {
        let url = Url::parse("http://app.example/").unwrap();
        let response = Response::ok_html("<html><body ring=1><p>x</p></body></html>")
            .with_cookie_policy(&escudo_core::config::CookiePolicy::new("sid", Ring::new(1)))
            .with_api_policy(&escudo_core::config::ApiPolicy::new(
                escudo_core::config::NativeApi::XmlHttpRequest,
                Ring::new(1),
            ));
        let page = PageLoader::load(&url, &response, &LoadOptions::default());
        assert!(!page.legacy);
        assert_eq!(
            page.contexts.cookie_policy("sid").unwrap().ring,
            Ring::new(1)
        );
        assert_eq!(
            page.contexts
                .api_ring(escudo_core::config::NativeApi::XmlHttpRequest),
            Ring::new(1)
        );
    }

    #[test]
    fn header_only_configuration_still_marks_the_page_as_escudo() {
        let url = Url::parse("http://app.example/").unwrap();
        let response = Response::ok_html("<html><body><p>plain</p></body></html>")
            .with_cookie_policy(&escudo_core::config::CookiePolicy::new("sid", Ring::new(1)));
        let page = PageLoader::load(&url, &response, &LoadOptions::default());
        assert!(!page.legacy);
    }

    #[test]
    fn scripts_are_collected_in_document_order_with_their_rings() {
        let html = r#"<html>
          <head><div ring=0 r=0 w=0 x=0><script>var first = 1;</script></div></head>
          <body ring=1 r=1 w=1 x=1>
            <script>var second = 2;</script>
            <div ring=3 r=3 w=3 x=3><script>var third = 3;</script></div>
          </body></html>"#;
        let page = load(html, PolicyMode::Escudo);
        assert_eq!(page.scripts.len(), 3);
        assert!(page.scripts[0].source.contains("first"));
        assert_eq!(page.scripts[0].ring, Ring::new(0));
        assert_eq!(page.scripts[1].ring, Ring::new(1));
        assert_eq!(page.scripts[2].ring, Ring::new(3));
    }

    #[test]
    fn dynamic_subtrees_are_clamped_to_their_creator() {
        let html = r#"<html><body ring=1 r=1 w=1 x=1><div id=target></div></body></html>"#;
        let mut page = load(html, PolicyMode::Escudo);
        let target = page.document.get_element_by_id("target").unwrap();
        // Simulate a ring-3 script creating <div ring=0><b>x</b></div> under target.
        let injected = page
            .document
            .create_element_with_attrs("div", &[("ring", "0")]);
        let bold = page.document.create_element("b");
        page.document.append_child(injected, bold).unwrap();
        page.document.append_child(target, injected).unwrap();
        let target_ring = page.contexts.node_label(target).ring;
        label_dynamic_subtree(
            &page.document,
            &mut page.contexts,
            injected,
            Ring::new(3),
            target_ring,
        );
        assert_eq!(page.contexts.node_label(injected).ring, Ring::new(3));
        assert_eq!(page.contexts.node_label(bold).ring, Ring::new(3));
    }

    #[test]
    fn load_stats_are_populated() {
        let page = load(
            "<html><body ring=1><p>text</p></body></html>",
            PolicyMode::Escudo,
        );
        assert!(page.stats.parse_ns > 0);
        assert!(page.render_stats.boxes > 0);
    }

    #[test]
    fn sop_mode_does_not_reject_nonce_mismatches() {
        let html = r#"<html><body><div ring=3 nonce=5>x</div><p id=after>y</p></body></html>"#;
        let escudo_page = load(html, PolicyMode::Escudo);
        let sop_page = load(html, PolicyMode::SameOriginOnly);
        // Under ESCUDO the </div> without a nonce is rejected, so `after` stays inside.
        assert_eq!(escudo_page.parse_report.rejected_end_tags, 1);
        assert_eq!(sop_page.parse_report.rejected_end_tags, 0);
    }
}
