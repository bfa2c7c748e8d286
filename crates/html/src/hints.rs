//! Resource-hint and critical-resource extraction from parsed markup.
//!
//! The browser's fetch planning needs two document-order views of a page that
//! plain tag queries cannot give it (they are per-tag, and planning cares
//! about the *interleaved* order):
//!
//! * [`subresources`] — the render-blocking external subresources
//!   (`<link rel="stylesheet" href>` and `<script src>`), fetched in a
//!   deadline window of their own ahead of the page's images, and the images
//!   themselves, from one walk;
//! * [`prefetch_links`] — `<link rel="prefetch" href>` speculation hints, the
//!   markup half of the browser's visited-link predictor, fetched on the
//!   session's prefetch thread.
//!
//! `rel` is a space-separated, ASCII case-insensitive token list per the HTML
//! spec, so `<link rel="Prefetch dns-prefetch">` counts.

use escudo_dom::{Document, NodeId};

/// `true` when `rel`'s space-separated token list contains `token`
/// (ASCII case-insensitive, per the HTML spec's link-type matching).
fn rel_contains(rel: &str, token: &str) -> bool {
    rel.split_ascii_whitespace()
        .any(|t| t.eq_ignore_ascii_case(token))
}

/// Non-empty `href`/`src`-style attribute of `id`, if present.
fn resource_attr<'d>(document: &'d Document, id: NodeId, attr: &str) -> Option<&'d str> {
    document.attribute(id, attr).filter(|v| !v.is_empty())
}

/// The fetchable subresources of a document, found in one walk: each entry is
/// the element, its tag and its raw `href`/`src` value, borrowed from the
/// document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subresources<'d> {
    /// The render-critical external subresources — `<link rel="stylesheet"
    /// href=…>` and `<script src=…>` — in document order. Inline scripts (no
    /// `src`) and links without an `href` are not resources and are skipped.
    pub critical: Vec<(NodeId, &'d str, &'d str)>,
    /// Every `<img src=…>`, in document order (an empty `src` included).
    pub images: Vec<(NodeId, &'d str)>,
}

/// The document's [`Subresources`]: critical resources and images, from one
/// walk over the document.
#[must_use]
pub fn subresources(document: &Document) -> Subresources<'_> {
    let mut found = Subresources::default();
    for id in document.descendants(document.root()) {
        let Some(element) = document.element(id) else {
            continue;
        };
        let attr = |name| element.attr(name).filter(|v: &&str| !v.is_empty());
        match element.tag.as_str() {
            "link"
                if element
                    .attr("rel")
                    .is_some_and(|rel| rel_contains(rel, "stylesheet")) =>
            {
                if let Some(href) = attr("href") {
                    found.critical.push((id, "link", href));
                }
            }
            "script" => {
                if let Some(src) = attr("src") {
                    found.critical.push((id, "script", src));
                }
            }
            tag if tag.eq_ignore_ascii_case("img") => {
                if let Some(src) = element.attr("src") {
                    found.images.push((id, src));
                }
            }
            _ => {}
        }
    }
    found
}

/// The document's `<link rel="prefetch" href=…>` speculation hints, in
/// document order, as `(node, url)` pairs.
#[must_use]
pub fn prefetch_links(document: &Document) -> Vec<(NodeId, String)> {
    document
        .all_elements()
        .into_iter()
        .filter_map(|id| {
            if !document.is_element_named(id, "link") {
                return None;
            }
            let rel = document.attribute(id, "rel")?;
            if !rel_contains(rel, "prefetch") {
                return None;
            }
            resource_attr(document, id, "href").map(|href| (id, href.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_document, ParseOptions};

    fn doc(html: &str) -> Document {
        parse_document(html, &ParseOptions::default()).document
    }

    #[test]
    fn critical_resources_interleave_stylesheets_and_scripts_in_document_order() {
        let document = doc(concat!(
            "<html><head>",
            r#"<link rel="stylesheet" href="/a.css">"#,
            r#"<script src="/b.js"></script>"#,
            r#"<link rel="stylesheet" href="/c.css">"#,
            "</head><body>",
            "<script>inline();</script>",
            r#"<img src="/d.png">"#,
            "</body></html>"
        ));
        let found = subresources(&document);
        let urls: Vec<&str> = found.critical.iter().map(|(_, _, url)| *url).collect();
        assert_eq!(urls, vec!["/a.css", "/b.js", "/c.css"]);
        let images: Vec<&str> = found.images.iter().map(|(_, src)| *src).collect();
        assert_eq!(images, vec!["/d.png"]);
    }

    #[test]
    fn non_stylesheet_links_and_attributeless_tags_are_skipped() {
        let document = doc(concat!(
            "<html><head>",
            r#"<link rel="icon" href="/favicon.ico">"#,
            r#"<link rel="stylesheet">"#,
            r#"<link href="/bare.css">"#,
            r#"<script src=""></script>"#,
            "</head></html>"
        ));
        assert!(subresources(&document).critical.is_empty());
        assert!(prefetch_links(&document).is_empty());
    }

    #[test]
    fn prefetch_rel_matching_is_token_wise_and_case_insensitive() {
        let document = doc(concat!(
            "<html><head>",
            r#"<link rel="Prefetch" href="/one">"#,
            r#"<link rel="dns-prefetch" href="/not-this">"#,
            r#"<link rel="prerender prefetch" href="/two">"#,
            "</head></html>"
        ));
        let urls: Vec<String> = prefetch_links(&document)
            .into_iter()
            .map(|(_, url)| url)
            .collect();
        assert_eq!(urls, vec!["/one", "/two"]);
    }

    #[test]
    fn stylesheet_rel_is_also_token_wise() {
        let document =
            doc(r#"<html><head><link rel="preload stylesheet" href="/s.css"></head></html>"#);
        let urls: Vec<&str> = subresources(&document)
            .critical
            .iter()
            .map(|(_, _, url)| *url)
            .collect();
        assert_eq!(urls, vec!["/s.css"]);
    }
}
