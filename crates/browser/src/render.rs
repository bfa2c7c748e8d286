//! A deterministic layout ("rendering") pass.
//!
//! The paper measures "parsing and rendering time"; for the overhead comparison to be
//! meaningful the reproduction needs the renderer to do real, content-proportional
//! work. This module implements a simple block/line layout: every visible element
//! becomes a box, text is broken into lines at a fixed character width, and the
//! resulting display list plus statistics are returned. The pass is identical with and
//! without ESCUDO — ESCUDO only adds the bookkeeping measured separately — exactly as
//! in the prototype, where enforcement hooks wrap the existing pipeline.

use escudo_dom::{Document, NodeData, NodeId};

/// Horizontal pixels assumed per character (fixed-width text model).
const CHAR_WIDTH: u32 = 8;
/// Pixel height of one line of text.
const LINE_HEIGHT: u32 = 16;
/// Vertical padding added around block boxes.
const BLOCK_PADDING: u32 = 4;

/// Elements that are not rendered at all.
const INVISIBLE: [&str; 6] = ["head", "script", "style", "title", "meta", "link"];

/// One box in the display list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutBox {
    /// The node this box renders (element or text run).
    pub node: usize,
    /// X offset in pixels.
    pub x: u32,
    /// Y offset in pixels.
    pub y: u32,
    /// Box width in pixels.
    pub width: u32,
    /// Box height in pixels.
    pub height: u32,
    /// Number of text lines inside the box (0 for pure containers).
    pub lines: u32,
}

/// Aggregate statistics of one layout pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Number of boxes produced.
    pub boxes: usize,
    /// Number of text lines laid out.
    pub lines: usize,
    /// Number of characters measured.
    pub characters: usize,
    /// Total document height in pixels.
    pub height: u32,
}

/// The renderer.
#[derive(Debug, Clone)]
pub struct Renderer {
    viewport_width: u32,
}

impl Default for Renderer {
    fn default() -> Self {
        Renderer::new(1024)
    }
}

impl Renderer {
    /// Creates a renderer for the given viewport width in pixels.
    #[must_use]
    pub fn new(viewport_width: u32) -> Self {
        Renderer {
            viewport_width: viewport_width.max(64),
        }
    }

    /// Lays out the document and returns the display list plus statistics.
    ///
    /// The walk keeps an explicit stack of open containers, so nesting depth
    /// costs heap, not call stack. Children are laid out in document order,
    /// each below its previous sibling, and a container's box follows its
    /// children's (post-order).
    #[must_use]
    pub fn layout(&self, document: &Document) -> (Vec<LayoutBox>, RenderStats) {
        let mut boxes = Vec::new();
        let mut stats = RenderStats::default();
        let root = document.root();
        // The container being filled; `open` holds its enclosing containers.
        let mut current = Open {
            node: root,
            element: false,
            x: 0,
            y: 0,
            width: self.viewport_width,
            child_x: 0,
            child_width: self.viewport_width,
            cursor: 0,
            next_child: document.first_child(root),
        };
        let mut open: Vec<Open> = Vec::new();
        let height = loop {
            let Some(child) = current.next_child else {
                let height = current.close(&mut boxes);
                match open.pop() {
                    Some(parent) => {
                        current = parent;
                        current.cursor += height;
                        continue;
                    }
                    None => break height,
                }
            };
            current.next_child = document.next_sibling(child);
            match document.data(child) {
                NodeData::Text(text) => {
                    current.cursor += text_run(
                        child,
                        text,
                        current.child_x,
                        current.cursor,
                        current.child_width,
                        &mut boxes,
                        &mut stats,
                    );
                }
                NodeData::Element(element) if !INVISIBLE.iter().any(|t| *t == element.tag) => {
                    let (x, y, width) = (current.child_x, current.cursor, current.child_width);
                    let frame = Open {
                        node: child,
                        element: true,
                        x,
                        y,
                        width,
                        child_x: x + BLOCK_PADDING,
                        child_width: width.saturating_sub(2 * BLOCK_PADDING).max(CHAR_WIDTH),
                        cursor: y + BLOCK_PADDING,
                        next_child: document.first_child(child),
                    };
                    open.push(std::mem::replace(&mut current, frame));
                }
                // Invisible elements, doctypes and comments take no space;
                // only the root is a document node.
                _ => {}
            }
        };
        stats.boxes = boxes.len();
        stats.height = height;
        (boxes, stats)
    }

    /// The recursive layout the explicit-stack walk replaced, kept as the
    /// oracle it must match box for box. Lays out a node at (x, y) within
    /// `width`; returns the height consumed.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn layout_node(
        &self,
        document: &Document,
        node: NodeId,
        x: u32,
        y: u32,
        width: u32,
        boxes: &mut Vec<LayoutBox>,
        stats: &mut RenderStats,
    ) -> u32 {
        match document.data(node) {
            NodeData::Document => {
                let mut cursor = y;
                for child in document.children(node) {
                    cursor += self.layout_node(document, child, x, cursor, width, boxes, stats);
                }
                cursor - y
            }
            NodeData::Doctype(_) | NodeData::Comment(_) => 0,
            NodeData::Text(text) => text_run(node, text, x, y, width, boxes, stats),
            NodeData::Element(element) => {
                if INVISIBLE.iter().any(|t| *t == element.tag) {
                    return 0;
                }
                let inner_width = width.saturating_sub(2 * BLOCK_PADDING).max(CHAR_WIDTH);
                let mut cursor = y + BLOCK_PADDING;
                for child in document.children(node) {
                    cursor += self.layout_node(
                        document,
                        child,
                        x + BLOCK_PADDING,
                        cursor,
                        inner_width,
                        boxes,
                        stats,
                    );
                }
                let height = (cursor + BLOCK_PADDING) - y;
                boxes.push(LayoutBox {
                    node: node.index(),
                    x,
                    y,
                    width,
                    height,
                    lines: 0,
                });
                height
            }
        }
    }
}

/// A container being laid out: its own box position, where its children go
/// (`child_x`, `child_width`, and `cursor` for the next child's y), and the
/// next child to lay out.
struct Open {
    node: NodeId,
    /// `true` for an element, which gets a padded box; the document root
    /// gets neither padding nor a box.
    element: bool,
    x: u32,
    y: u32,
    width: u32,
    child_x: u32,
    child_width: u32,
    cursor: u32,
    next_child: Option<NodeId>,
}

impl Open {
    /// Closes the container once its children are laid out: pushes an
    /// element's box and returns the height the container consumed.
    fn close(self, boxes: &mut Vec<LayoutBox>) -> u32 {
        if !self.element {
            return self.cursor - self.y;
        }
        let height = (self.cursor + BLOCK_PADDING) - self.y;
        boxes.push(LayoutBox {
            node: self.node.index(),
            x: self.x,
            y: self.y,
            width: self.width,
            height,
            lines: 0,
        });
        height
    }
}

/// Lays out one text node as a run of fixed-width lines at (x, y) within
/// `width`, pushing its box unless it is blank; returns the height consumed.
fn text_run(
    node: NodeId,
    text: &str,
    x: u32,
    y: u32,
    width: u32,
    boxes: &mut Vec<LayoutBox>,
    stats: &mut RenderStats,
) -> u32 {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return 0;
    }
    let chars = trimmed.chars().count();
    let per_line = (width / CHAR_WIDTH).max(1) as usize;
    let lines = chars.div_ceil(per_line) as u32;
    stats.lines += lines as usize;
    stats.characters += chars;
    let height = lines * LINE_HEIGHT;
    boxes.push(LayoutBox {
        node: node.index(),
        x,
        y,
        width,
        height,
        lines,
    });
    height
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_html::{parse_document, ParseOptions};

    fn layout(html: &str) -> (Vec<LayoutBox>, RenderStats) {
        let doc = parse_document(html, &ParseOptions::default()).document;
        Renderer::default().layout(&doc)
    }

    /// The pages the tests below lay out.
    const FIXTURES: [&str; 6] = [
        "<body><p>tiny</p></body>",
        "<head><script>var x = 'not rendered';</script></head><body><p>hi</p></body>",
        "<body><div><div><p>deep</p></div></div></body>",
        "",
        "<!DOCTYPE html><!-- c --><html><body><p>a</p>  <img src=x.png><p>b c</p></body></html>",
        "text before <p>a paragraph</p> text after",
    ];

    /// The eight Figure-4 pages `escudo_bench::generate_page` writes, kept as
    /// test data.
    fn figure4_pages() -> impl Iterator<Item = String> {
        (1..=8).map(|id| {
            let path = format!(
                "{}/testdata/figure4_page_{id}.html",
                env!("CARGO_MANIFEST_DIR")
            );
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
        })
    }

    #[test]
    fn descendants_match_a_recursive_pre_order_on_the_figure4_pages() {
        fn pre_order(doc: &Document, node: NodeId, out: &mut Vec<NodeId>) {
            for child in doc.children(node) {
                out.push(child);
                pre_order(doc, child, out);
            }
        }
        for page in figure4_pages() {
            let doc = parse_document(&page, &ParseOptions::default()).document;
            let body = doc.elements_by_tag_name("body")[0];
            let mut expected = Vec::new();
            pre_order(&doc, body, &mut expected);
            assert!(expected.len() >= 10, "a Figure-4 body is not trivial");
            assert_eq!(doc.descendants(body).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn the_explicit_stack_layout_matches_the_recursive_oracle() {
        let figure4 = figure4_pages();
        let long_text = format!("<body><p>{}</p></body>", "word ".repeat(400));
        let pages = FIXTURES
            .iter()
            .map(|page| page.to_string())
            .chain([long_text])
            .chain(figure4);
        for page in pages {
            let doc = parse_document(&page, &ParseOptions::default()).document;
            for width in [200, 1024, 1200] {
                let renderer = Renderer::new(width);
                let mut boxes = Vec::new();
                let mut stats = RenderStats::default();
                let height = renderer.layout_node(
                    &doc,
                    doc.root(),
                    0,
                    0,
                    renderer.viewport_width,
                    &mut boxes,
                    &mut stats,
                );
                stats.boxes = boxes.len();
                stats.height = height;
                assert_eq!(renderer.layout(&doc), (boxes, stats), "width {width}");
            }
        }
    }

    #[test]
    fn deep_nesting_lays_out_without_recursion() {
        const DEPTH: usize = 100_000;
        let html = format!("<html><body>{}deep", "<div>".repeat(DEPTH));
        let (boxes, stats) = layout(&html);
        // html, body, the divs and the text run.
        assert_eq!(stats.boxes, DEPTH + 3);
        // Post-order: the innermost text run first, the html box last. That
        // deep, the width is at its one-character floor: a line per letter.
        assert_eq!(boxes[0].lines, 4);
        assert_eq!(boxes.last().unwrap().y, 0);
        assert_eq!(stats.height, boxes.last().unwrap().height);
    }

    #[test]
    fn text_produces_lines_proportional_to_length() {
        let short = layout("<body><p>tiny</p></body>").1;
        let long_text = "word ".repeat(400);
        let long = layout(&format!("<body><p>{long_text}</p></body>")).1;
        assert!(long.lines > short.lines);
        assert!(long.characters > short.characters);
        assert!(long.height > short.height);
    }

    #[test]
    fn invisible_elements_are_skipped() {
        let (_, with_script) =
            layout("<head><script>var x = 'not rendered';</script></head><body><p>hi</p></body>");
        let (_, without) = layout("<body><p>hi</p></body>");
        assert_eq!(with_script.lines, without.lines);
        assert_eq!(with_script.characters, without.characters);
    }

    #[test]
    fn nested_blocks_nest_geometrically() {
        let (boxes, stats) = layout("<body><div><div><p>deep</p></div></div></body>");
        assert!(stats.boxes >= 4);
        // Every box fits inside the viewport.
        assert!(boxes.iter().all(|b| b.x + b.width <= 1024));
        // The innermost text box is indented by the nesting padding.
        let text_box = boxes.iter().find(|b| b.lines > 0).unwrap();
        assert!(text_box.x >= 3 * BLOCK_PADDING);
    }

    #[test]
    fn empty_page_renders_to_nothing_visible() {
        let (_, stats) = layout("");
        assert_eq!(stats.lines, 0);
        assert_eq!(stats.characters, 0);
    }

    #[test]
    fn narrow_viewports_produce_more_lines() {
        let text = "x".repeat(600);
        let html = format!("<body><p>{text}</p></body>");
        let doc = parse_document(&html, &ParseOptions::default()).document;
        let wide = Renderer::new(1200).layout(&doc).1;
        let narrow = Renderer::new(200).layout(&doc).1;
        assert!(narrow.lines > wide.lines);
    }
}
