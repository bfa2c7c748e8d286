//! The tree builder: tokens → [`escudo_dom::Document`], with ESCUDO's parse-time
//! defenses (nonce validation against node splitting).

use escudo_core::Nonce;
use escudo_dom::{Document, NodeId};

use crate::token::Token;
use crate::tokenizer::Tokenizer;

/// Elements that never take children.
const VOID_ELEMENTS: [&str; 14] = [
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

fn is_void(tag: &str) -> bool {
    VOID_ELEMENTS.contains(&tag)
}

/// Options controlling parsing.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// When `true` (the default), a `</div>` closing an AC tag that carries a nonce
    /// must repeat the nonce, otherwise the end tag is ignored — the paper's defense
    /// against node-splitting attacks. Non-ESCUDO browsers (`false`) accept any end
    /// tag, which is what makes the attack possible there.
    pub validate_nonces: bool,
    /// When `true`, ensure the document has `html` and `body` elements even if the
    /// source omits them, so queries and rendering have a predictable shape.
    pub imply_document_structure: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            validate_nonces: true,
            imply_document_structure: true,
        }
    }
}

impl ParseOptions {
    /// Options matching a legacy (non-ESCUDO) browser: nonces are not validated.
    #[must_use]
    pub fn legacy() -> Self {
        ParseOptions {
            validate_nonces: false,
            imply_document_structure: true,
        }
    }
}

/// A record of a rejected end tag (nonce mismatch), kept for auditing and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonceViolation {
    /// The tag name of the rejected end tag.
    pub tag: String,
    /// The nonce the end tag carried, if any.
    pub offered: Option<Nonce>,
    /// The nonce the open AC tag expected.
    pub expected: Nonce,
}

/// Statistics and security-relevant observations from one parse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseReport {
    /// Number of tokens processed.
    pub tokens: usize,
    /// Number of elements created.
    pub elements: usize,
    /// Number of text nodes created.
    pub text_nodes: usize,
    /// Number of end tags ignored because their nonce did not match the open AC tag
    /// (each one is a defeated node-splitting attempt).
    pub rejected_end_tags: usize,
    /// Details of each rejected end tag.
    pub nonce_violations: Vec<NonceViolation>,
    /// End tags that matched no open element and were dropped.
    pub unmatched_end_tags: usize,
}

/// The outcome of parsing: the document plus the parse report.
#[derive(Debug, Clone)]
pub struct ParseResult {
    /// The constructed DOM.
    pub document: Document,
    /// Parse statistics and nonce-violation records.
    pub report: ParseReport,
}

/// Parses an HTML document.
///
/// This is the single entry point used by the browser's page loader, the examples and
/// the benchmarks.
#[must_use]
pub fn parse_document(html: &str, options: &ParseOptions) -> ParseResult {
    Builder::new(options.clone()).run(html)
}

struct OpenElement {
    node: NodeId,
    tag: String,
    nonce: Option<Nonce>,
}

struct Builder {
    options: ParseOptions,
    document: Document,
    stack: Vec<OpenElement>,
    report: ParseReport,
    html_node: Option<NodeId>,
    body_node: Option<NodeId>,
}

impl Builder {
    fn new(options: ParseOptions) -> Self {
        Builder {
            options,
            document: Document::new(),
            stack: Vec::new(),
            report: ParseReport::default(),
            html_node: None,
            body_node: None,
        }
    }

    fn run(mut self, html: &str) -> ParseResult {
        let mut tokenizer = Tokenizer::new(html);
        loop {
            let token = tokenizer.next_token();
            self.report.tokens += 1;
            match token {
                Token::Eof => break,
                other => self.process(other),
            }
        }
        if self.options.imply_document_structure {
            self.ensure_structure();
        }
        ParseResult {
            document: self.document,
            report: self.report,
        }
    }

    fn current_parent(&self) -> NodeId {
        self.stack
            .last()
            .map(|open| open.node)
            .unwrap_or_else(|| self.document.root())
    }

    fn process(&mut self, token: Token) {
        match token {
            Token::Doctype(name) => {
                let node = self.document.create_doctype(&name);
                let root = self.document.root();
                let _ = self.document.append_child(root, node);
            }
            Token::Comment(text) => {
                let node = self.document.create_comment(&text);
                let parent = self.current_parent();
                let _ = self.document.append_child(parent, node);
            }
            Token::Text(text) => {
                if text.is_empty() {
                    return;
                }
                // Whitespace-only text outside of any element is dropped (it would
                // otherwise attach to the document root between html/head/body).
                if self.stack.is_empty() && text.trim().is_empty() {
                    return;
                }
                let parent = self.current_parent();
                let node = self.document.create_text(&text);
                let _ = self.document.append_child(parent, node);
                self.report.text_nodes += 1;
            }
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => self.start_tag(&name, &attrs, self_closing),
            Token::EndTag { name, attrs } => self.end_tag(&name, &attrs),
            // Eof is handled by the run loop; reaching it here is a no-op.
            Token::Eof => {}
        }
    }

    fn start_tag(&mut self, name: &str, attrs: &[(String, String)], self_closing: bool) {
        let node = self.document.create_element(name);
        for (attr_name, value) in attrs {
            self.document.set_attribute(node, attr_name, value);
        }
        self.report.elements += 1;

        let parent = self.current_parent();
        let _ = self.document.append_child(parent, node);

        match name {
            "html" => self.html_node = Some(node),
            "body" => self.body_node = Some(node),
            _ => {}
        }

        if self_closing || is_void(name) {
            return;
        }

        let nonce = self
            .document
            .attribute(node, "nonce")
            .and_then(|value| value.parse::<Nonce>().ok());
        self.stack.push(OpenElement {
            node,
            tag: name.to_string(),
            nonce,
        });
    }

    fn end_tag(&mut self, name: &str, attrs: &[(String, String)]) {
        // Find the nearest open element with this tag name.
        let Some(position) = self.stack.iter().rposition(|open| open.tag == name) else {
            self.report.unmatched_end_tags += 1;
            return;
        };

        // ESCUDO nonce validation: if the open element carries a nonce, the end tag
        // must repeat it, otherwise the end tag is ignored ("Escudo ignores any </div>
        // tag whose random nonce does not match the number in its matching div tag").
        if self.options.validate_nonces {
            if let Some(expected) = self.stack[position].nonce {
                let offered = attrs
                    .iter()
                    .find(|(n, _)| n == "nonce")
                    .and_then(|(_, v)| v.parse::<Nonce>().ok());
                if offered != Some(expected) {
                    self.report.rejected_end_tags += 1;
                    self.report.nonce_violations.push(NonceViolation {
                        tag: name.to_string(),
                        offered,
                        expected,
                    });
                    return;
                }
            }
        }

        // Pop everything above the matched element (implicitly closing unclosed
        // children), then the element itself.
        self.stack.truncate(position);
    }

    /// Guarantees the document has `html` and `body` elements and that stray content
    /// parsed at the top level ends up inside `body`.
    fn ensure_structure(&mut self) {
        let root = self.document.root();
        let html = match self.html_node {
            Some(node) => node,
            None => {
                let node = self.document.create_element("html");
                // Move the root's existing children (except doctype) under html later;
                // first attach html to the root.
                let existing: Vec<NodeId> = self.document.children(root).collect();
                let _ = self.document.append_child(root, node);
                for child in existing {
                    if matches!(self.document.data(child), escudo_dom::NodeData::Doctype(_)) {
                        continue;
                    }
                    let _ = self.document.append_child(node, child);
                }
                self.html_node = Some(node);
                node
            }
        };
        if self.body_node.is_none() {
            let body = self.document.create_element("body");
            // Everything currently under html that is not head/body moves into body.
            let existing: Vec<NodeId> = self.document.children(html).collect();
            let _ = self.document.append_child(html, body);
            for child in existing {
                let is_head_or_body = self
                    .document
                    .tag_name(child)
                    .map(|t| t == "head" || t == "body")
                    .unwrap_or(false);
                if !is_head_or_body {
                    let _ = self.document.append_child(body, child);
                }
            }
            self.body_node = Some(body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(html: &str) -> ParseResult {
        parse_document(html, &ParseOptions::default())
    }

    #[test]
    fn builds_a_simple_page() {
        let result =
            parse("<html><head><title>t</title></head><body><p id=\"x\">hi</p></body></html>");
        let doc = &result.document;
        let p = doc.get_element_by_id("x").unwrap();
        assert_eq!(doc.text_content(p), "hi");
        assert_eq!(doc.elements_by_tag_name("title").len(), 1);
        assert_eq!(result.report.unmatched_end_tags, 0);
        assert_eq!(result.report.rejected_end_tags, 0);
    }

    #[test]
    fn deep_nesting_parses_in_linear_time() {
        // Each tag appends a fresh, childless node, so no append walks the
        // ancestors: 100K levels parse in one pass, even in a debug build.
        const DEPTH: usize = 100_000;
        let html = format!("<html><body>{}deep", "<div>".repeat(DEPTH));
        let doc = parse(&html).document;
        // html, body, the divs and the text node, all attached.
        assert_eq!(doc.descendants(doc.root()).count(), DEPTH + 3);
        let text = doc.node_id_at(DEPTH + 3).unwrap();
        assert_eq!(doc.ancestors(text).count(), DEPTH + 3);
    }

    #[test]
    fn nesting_is_preserved() {
        let result = parse("<body><div id=a><div id=b><span id=c>x</span></div></div></body>");
        let doc = &result.document;
        let a = doc.get_element_by_id("a").unwrap();
        let b = doc.get_element_by_id("b").unwrap();
        let c = doc.get_element_by_id("c").unwrap();
        assert_eq!(doc.parent(b), Some(a));
        assert_eq!(doc.parent(c), Some(b));
    }

    #[test]
    fn void_elements_do_not_swallow_siblings() {
        let result = parse("<body><img src=a.png><p id=x>text</p></body>");
        let doc = &result.document;
        let p = doc.get_element_by_id("x").unwrap();
        let body = doc.elements_by_tag_name("body")[0];
        assert_eq!(doc.parent(p), Some(body));
        assert_eq!(doc.elements_by_tag_name("img").len(), 1);
    }

    #[test]
    fn missing_structure_is_implied() {
        let result = parse("<p id=solo>hello</p>");
        let doc = &result.document;
        assert_eq!(doc.elements_by_tag_name("html").len(), 1);
        assert_eq!(doc.elements_by_tag_name("body").len(), 1);
        let p = doc.get_element_by_id("solo").unwrap();
        let body = doc.elements_by_tag_name("body")[0];
        assert!(doc.is_inclusive_ancestor(body, p));
    }

    #[test]
    fn unmatched_end_tags_are_counted_and_ignored() {
        let result = parse("<body><p>x</p></div></span></body>");
        assert_eq!(result.report.unmatched_end_tags, 2);
        assert_eq!(result.document.elements_by_tag_name("p").len(), 1);
    }

    #[test]
    fn unclosed_children_are_implicitly_closed_by_the_parent_end_tag() {
        let result = parse("<body><div id=outer><p>one<p>two</div><p id=after>x</p></body>");
        let doc = &result.document;
        let after = doc.get_element_by_id("after").unwrap();
        let outer = doc.get_element_by_id("outer").unwrap();
        // `after` must not be inside `outer`.
        assert!(!doc.is_inclusive_ancestor(outer, after));
    }

    #[test]
    fn matching_nonce_closes_the_ac_tag() {
        let html = r#"<body><div ring=3 nonce=42>inside</div nonce=42><p id=out>x</p></body>"#;
        let result = parse(html);
        let doc = &result.document;
        let out = doc.get_element_by_id("out").unwrap();
        let div = doc.elements_by_tag_name("div")[0];
        assert!(!doc.is_inclusive_ancestor(div, out));
        assert_eq!(result.report.rejected_end_tags, 0);
    }

    #[test]
    fn node_splitting_end_tag_without_nonce_is_rejected() {
        // The attacker-controlled content tries to escape the ring-3 region by closing
        // the div and opening a "new" one claiming ring 0.
        let html = r#"<body><div ring=3 nonce=42>user text</div><div ring=0 id=injected>evil</div nonce=42></body>"#;
        let result = parse(html);
        let doc = &result.document;
        assert_eq!(result.report.rejected_end_tags, 1);
        assert_eq!(
            result.report.nonce_violations[0].expected,
            Nonce::from_raw(42)
        );
        assert_eq!(result.report.nonce_violations[0].offered, None);
        // The injected div stays *inside* the original AC region.
        let injected = doc.get_element_by_id("injected").unwrap();
        let outer = doc.elements_by_tag_name("div")[0];
        assert!(doc.is_inclusive_ancestor(outer, injected));
    }

    #[test]
    fn node_splitting_with_wrong_nonce_is_rejected() {
        let html = r#"<body><div ring=3 nonce=42>text</div nonce=41><div id=injected ring=0>x</div nonce=42></body>"#;
        let result = parse(html);
        assert_eq!(result.report.rejected_end_tags, 1);
        let doc = &result.document;
        let injected = doc.get_element_by_id("injected").unwrap();
        let outer = doc.elements_by_tag_name("div")[0];
        assert!(doc.is_inclusive_ancestor(outer, injected));
    }

    #[test]
    fn legacy_mode_accepts_the_split() {
        let html = r#"<body><div ring=3 nonce=42>text</div><div id=injected ring=0>x</div></body>"#;
        let result = parse_document(html, &ParseOptions::legacy());
        let doc = &result.document;
        assert_eq!(result.report.rejected_end_tags, 0);
        let injected = doc.get_element_by_id("injected").unwrap();
        let outer = doc.elements_by_tag_name("div")[0];
        // In a non-ESCUDO browser the injected div escapes the region.
        assert!(!doc.is_inclusive_ancestor(outer, injected));
    }

    #[test]
    fn script_bodies_are_single_text_nodes() {
        let result = parse("<body><script>var x = \"<div>not a tag</div>\";</script></body>");
        let doc = &result.document;
        let script = doc.elements_by_tag_name("script")[0];
        assert_eq!(doc.children(script).count(), 1);
        assert_eq!(
            doc.text_content(script),
            "var x = \"<div>not a tag</div>\";"
        );
        // No div element was created from the string literal.
        assert!(doc.elements_by_tag_name("div").is_empty());
    }

    #[test]
    fn report_counts_are_plausible() {
        let result = parse("<body><div><p>a</p><p>b</p></div></body>");
        assert_eq!(result.report.elements, 4); // body, div, p, p
        assert_eq!(result.report.text_nodes, 2);
        assert!(result.report.tokens >= 9);
    }

    #[test]
    fn parser_never_panics_on_hostile_input() {
        for input in [
            "",
            "<",
            "><><><",
            "<div ring=",
            "<div ring=3 nonce=",
            "</div nonce=1>",
            "<script><script></script>",
            "<!DOCTYPE><!---->",
            "&#xFFFFFFFFF;",
            "<div ring=3 nonce=9999999999999999999999>",
        ] {
            let _ = parse(input);
        }
    }

    #[test]
    fn figure_3_style_blog_page_parses() {
        let html = r#"<html><body>
            <div ring=2 r=0 w=0 x=0 nonce=1111 id="post">
              <h1>Blog post</h1>
              <p>Original message</p>
            </div nonce=1111>
            <div ring=3 r=2 w=2 x=2 nonce=2222 id="comment">
              <p>User comment with <script>steal()</script></p>
            </div nonce=2222>
        </body></html>"#;
        let result = parse(html);
        let doc = &result.document;
        let post = doc.get_element_by_id("post").unwrap();
        let comment = doc.get_element_by_id("comment").unwrap();
        assert_eq!(doc.attribute(post, "ring"), Some("2"));
        assert_eq!(doc.attribute(comment, "ring"), Some("3"));
        assert!(!doc.is_inclusive_ancestor(post, comment));
        assert_eq!(result.report.rejected_end_tags, 0);
        assert_eq!(doc.elements_by_tag_name("script").len(), 1);
    }
}
