//! HTML serialization of DOM subtrees.

use crate::document::Document;
use crate::node::{NodeData, NodeId};

/// Tags serialized without a closing tag and never given children.
pub const VOID_ELEMENTS: [&str; 14] = [
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Tags whose text content is serialized raw (no entity escaping), matching how the
/// parser treats them.
pub const RAW_TEXT_ELEMENTS: [&str; 4] = ["script", "style", "textarea", "title"];

/// `true` when `tag` is a void element.
#[must_use]
pub fn is_void_element(tag: &str) -> bool {
    VOID_ELEMENTS.iter().any(|t| t.eq_ignore_ascii_case(tag))
}

/// `true` when `tag` is a raw-text element.
#[must_use]
pub fn is_raw_text_element(tag: &str) -> bool {
    RAW_TEXT_ELEMENTS
        .iter()
        .any(|t| t.eq_ignore_ascii_case(tag))
}

/// Escapes text-node content.
#[must_use]
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes attribute values (double-quoted serialization).
#[must_use]
pub fn escape_attribute(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '<' => out.push_str("&lt;"),
            _ => out.push(c),
        }
    }
    out
}

impl Document {
    /// Serializes a node and its subtree to HTML.
    #[must_use]
    pub fn outer_html(&self, id: NodeId) -> String {
        self.write(vec![Step::Open(id, false)])
    }

    /// Serializes the children of a node to HTML (the DOM `innerHTML` getter).
    #[must_use]
    pub fn inner_html(&self, id: NodeId) -> String {
        let raw = matches!(self.tag_name(id), Some(tag) if is_raw_text_element(tag));
        let mut steps = Vec::new();
        self.push_children(id, raw, &mut steps);
        self.write(steps)
    }

    /// Runs `steps` (popped last first) to HTML. The walk keeps an explicit
    /// stack of pending steps, so nesting depth costs heap, not call stack.
    fn write<'a>(&'a self, mut steps: Vec<Step<'a>>) -> String {
        let mut out = String::new();
        while let Some(step) = steps.pop() {
            let (id, raw_text) = match step {
                Step::Open(id, raw_text) => (id, raw_text),
                Step::Close(tag) => {
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                    continue;
                }
            };
            match self.data(id) {
                NodeData::Document => self.push_children(id, false, &mut steps),
                NodeData::Doctype(name) => {
                    out.push_str("<!DOCTYPE ");
                    out.push_str(name);
                    out.push('>');
                }
                NodeData::Comment(text) => {
                    out.push_str("<!--");
                    out.push_str(text);
                    out.push_str("-->");
                }
                NodeData::Text(text) => {
                    if raw_text {
                        out.push_str(text);
                    } else {
                        out.push_str(&escape_text(text));
                    }
                }
                NodeData::Element(element) => {
                    out.push('<');
                    out.push_str(&element.tag);
                    for (name, value) in &element.attrs {
                        out.push(' ');
                        out.push_str(name);
                        out.push_str("=\"");
                        out.push_str(&escape_attribute(value));
                        out.push('"');
                    }
                    out.push('>');
                    if is_void_element(&element.tag) {
                        continue;
                    }
                    steps.push(Step::Close(&element.tag));
                    self.push_children(id, is_raw_text_element(&element.tag), &mut steps);
                }
            }
        }
        out
    }

    /// Schedules the children of `id` so that they pop in document order.
    fn push_children(&self, id: NodeId, raw_text: bool, steps: &mut Vec<Step<'_>>) {
        let mut child = self.last_child(id);
        while let Some(node) = child {
            steps.push(Step::Open(node, raw_text));
            child = self.prev_sibling(node);
        }
    }
}

/// One pending step of a serialization walk.
enum Step<'a> {
    /// Write a node (raw text when the flag is set) and schedule its subtree.
    Open(NodeId, bool),
    /// Write the end tag of an element whose children are written.
    Close(&'a str),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_elements_attributes_and_text() {
        let mut doc = Document::new();
        let div = doc.create_element_with_attrs("div", &[("id", "x"), ("ring", "2")]);
        doc.append_child(doc.root(), div).unwrap();
        let t = doc.create_text("a < b & c");
        doc.append_child(div, t).unwrap();
        assert_eq!(
            doc.outer_html(div),
            "<div id=\"x\" ring=\"2\">a &lt; b &amp; c</div>"
        );
        assert_eq!(doc.inner_html(div), "a &lt; b &amp; c");
    }

    #[test]
    fn void_elements_have_no_closing_tag() {
        let mut doc = Document::new();
        let img = doc.create_element_with_attrs("img", &[("src", "http://x.example/a.png")]);
        doc.append_child(doc.root(), img).unwrap();
        assert_eq!(doc.outer_html(img), "<img src=\"http://x.example/a.png\">");
    }

    #[test]
    fn attribute_values_are_quoted_and_escaped() {
        let mut doc = Document::new();
        let a = doc.create_element_with_attrs("a", &[("href", "/q?a=1&b=\"two\"")]);
        doc.append_child(doc.root(), a).unwrap();
        assert_eq!(
            doc.outer_html(a),
            "<a href=\"/q?a=1&amp;b=&quot;two&quot;\"></a>"
        );
    }

    #[test]
    fn script_content_is_not_entity_escaped() {
        let mut doc = Document::new();
        let script = doc.create_element("script");
        doc.append_child(doc.root(), script).unwrap();
        let code = doc.create_text("if (a < b && c > d) { run(); }");
        doc.append_child(script, code).unwrap();
        assert_eq!(
            doc.outer_html(script),
            "<script>if (a < b && c > d) { run(); }</script>"
        );
        assert_eq!(doc.inner_html(script), "if (a < b && c > d) { run(); }");
    }

    #[test]
    fn comments_and_doctype_roundtrip() {
        let mut doc = Document::new();
        let dt = doc.create_doctype("html");
        doc.append_child(doc.root(), dt).unwrap();
        let c = doc.create_comment(" note ");
        doc.append_child(doc.root(), c).unwrap();
        assert_eq!(doc.outer_html(doc.root()), "<!DOCTYPE html><!-- note -->");
    }

    #[test]
    fn deep_nesting_serializes_without_recursion() {
        const DEPTH: usize = 100_000;
        let mut doc = Document::new();
        let mut parent = doc.root();
        for _ in 0..DEPTH {
            let div = doc.create_element("div");
            doc.append_child(parent, div).unwrap();
            parent = div;
        }
        let text = doc.create_text("a<b");
        doc.append_child(parent, text).unwrap();
        let expected = format!("{}a&lt;b{}", "<div>".repeat(DEPTH), "</div>".repeat(DEPTH));
        assert_eq!(doc.outer_html(doc.root()), expected);
        let outer = doc.first_child(doc.root()).unwrap();
        assert_eq!(doc.inner_html(outer), expected[5..expected.len() - 6]);
    }

    #[test]
    fn whole_document_serialization() {
        let mut doc = Document::new();
        let html = doc.create_element("html");
        doc.append_child(doc.root(), html).unwrap();
        let body = doc.create_element("body");
        doc.append_child(html, body).unwrap();
        let p = doc.create_element("p");
        doc.append_child(body, p).unwrap();
        let t = doc.create_text("hi");
        doc.append_child(p, t).unwrap();
        assert_eq!(
            doc.outer_html(doc.root()),
            "<html><body><p>hi</p></body></html>"
        );
    }
}
