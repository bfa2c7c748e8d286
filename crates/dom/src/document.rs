//! The arena document and its mutation/query API.

use std::error::Error;
use std::fmt;

use crate::iter::{Ancestors, Children, Descendants};
use crate::node::{ElementData, Node, NodeData, NodeId};

/// Errors produced by DOM mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomError {
    /// The operation would create a cycle (a node cannot become its own descendant).
    WouldCreateCycle,
    /// The given reference node is not a child of the given parent.
    NotAChild,
    /// The node cannot accept children (text, comment, doctype nodes).
    NotAContainer,
    /// The document root cannot be moved or removed.
    CannotMoveRoot,
}

impl fmt::Display for DomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DomError::WouldCreateCycle => "operation would create a cycle in the tree",
            DomError::NotAChild => "reference node is not a child of the given parent",
            DomError::NotAContainer => "node cannot contain children",
            DomError::CannotMoveRoot => "the document root cannot be moved or removed",
        };
        f.write_str(s)
    }
}

impl Error for DomError {}

/// An HTML document held in an arena.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

impl Document {
    /// Creates a document containing only the document root node.
    #[must_use]
    pub fn new() -> Self {
        let root = Node::new(NodeData::Document);
        Document {
            nodes: vec![root],
            root: NodeId(0),
        }
    }

    /// The document root node.
    #[must_use]
    pub const fn root(&self) -> NodeId {
        self.root
    }

    /// Recovers a [`NodeId`] from a raw arena index, validating that the index refers
    /// to an existing node. Embedders (e.g. the browser's script host) use this to
    /// round-trip node handles through foreign code without exposing arena internals.
    #[must_use]
    pub fn node_id_at(&self, index: usize) -> Option<NodeId> {
        if index < self.nodes.len() {
            Some(NodeId(index))
        } else {
            None
        }
    }

    /// The number of nodes in the arena, attached or not: one more than the largest
    /// [`NodeId::index`] in use, for sizing side tables keyed by node index.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ---------------------------------------------------------------- creation

    /// Creates a detached element node.
    pub fn create_element(&mut self, tag: &str) -> NodeId {
        self.push(Node::new(NodeData::Element(ElementData::new(tag))))
    }

    /// Creates a detached element node with attributes.
    pub fn create_element_with_attrs(&mut self, tag: &str, attrs: &[(&str, &str)]) -> NodeId {
        let mut data = ElementData::new(tag);
        for (name, value) in attrs {
            data.set_attr(name, value);
        }
        self.push(Node::new(NodeData::Element(data)))
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: &str) -> NodeId {
        self.push(Node::new(NodeData::Text(text.to_string())))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: &str) -> NodeId {
        self.push(Node::new(NodeData::Comment(text.to_string())))
    }

    /// Creates a doctype node.
    pub fn create_doctype(&mut self, name: &str) -> NodeId {
        self.push(Node::new(NodeData::Doctype(name.to_string())))
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    // ---------------------------------------------------------------- accessors

    /// The payload of a node.
    #[must_use]
    pub fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0].data
    }

    /// The element payload, when `id` is an element.
    #[must_use]
    pub fn element(&self, id: NodeId) -> Option<&ElementData> {
        self.data(id).as_element()
    }

    /// The lower-cased tag name, when `id` is an element.
    #[must_use]
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.element(id).map(|e| e.tag.as_str())
    }

    /// `true` when `id` is an element with the given tag.
    #[must_use]
    pub fn is_element_named(&self, id: NodeId, tag: &str) -> bool {
        self.data(id).is_element_named(tag)
    }

    /// An attribute value of an element node.
    #[must_use]
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.element(id).and_then(|e| e.attr(name))
    }

    /// All attributes of an element node (empty for non-elements).
    #[must_use]
    pub fn attributes(&self, id: NodeId) -> &[(String, String)] {
        match self.element(id) {
            Some(e) => &e.attrs,
            None => &[],
        }
    }

    /// Sets an attribute on an element node. Ignored for non-element nodes.
    pub fn set_attribute(&mut self, id: NodeId, name: &str, value: &str) {
        if let NodeData::Element(e) = &mut self.nodes[id.0].data {
            e.set_attr(name, value);
        }
    }

    /// Removes an attribute. Returns `true` when the attribute existed.
    pub fn remove_attribute(&mut self, id: NodeId, name: &str) -> bool {
        if let NodeData::Element(e) = &mut self.nodes[id.0].data {
            e.remove_attr(name)
        } else {
            false
        }
    }

    /// Replaces the text of a text node. Ignored for other node kinds.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        if let NodeData::Text(t) = &mut self.nodes[id.0].data {
            *t = text.to_string();
        }
    }

    // ---------------------------------------------------------------- structure

    /// The parent of a node, if attached.
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].parent
    }

    /// The first child of a node.
    #[must_use]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].first_child
    }

    /// The last child of a node.
    #[must_use]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].last_child
    }

    /// The next sibling of a node.
    #[must_use]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].next_sibling
    }

    /// The previous sibling of a node.
    #[must_use]
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].prev_sibling
    }

    /// Iterator over the direct children of a node.
    #[must_use]
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children::new(self, id)
    }

    /// Iterator over all descendants of a node in document (pre-)order, excluding the
    /// node itself.
    #[must_use]
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// Iterator over the ancestors of a node, nearest first, excluding the node.
    #[must_use]
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, id)
    }

    /// `true` when `ancestor` is an ancestor of `node` (or the node itself).
    #[must_use]
    pub fn is_inclusive_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        node == ancestor || self.ancestors(node).any(|a| a == ancestor)
    }

    /// `true` when the node is attached to the document tree (reachable from the root).
    #[must_use]
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.is_inclusive_ancestor(self.root, id)
    }

    // ---------------------------------------------------------------- mutation

    /// Appends `child` as the last child of `parent`, detaching it from any previous
    /// position.
    ///
    /// # Errors
    ///
    /// * [`DomError::NotAContainer`] when `parent` is a text/comment/doctype node,
    /// * [`DomError::WouldCreateCycle`] when `child` is an ancestor of `parent`,
    /// * [`DomError::CannotMoveRoot`] when `child` is the document root.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), DomError> {
        self.check_insertable(parent, child)?;
        self.detach(child);
        let last = self.nodes[parent.0].last_child;
        self.nodes[child.0].parent = Some(parent);
        self.nodes[child.0].prev_sibling = last;
        self.nodes[child.0].next_sibling = None;
        match last {
            Some(last) => self.nodes[last.0].next_sibling = Some(child),
            None => self.nodes[parent.0].first_child = Some(child),
        }
        self.nodes[parent.0].last_child = Some(child);
        Ok(())
    }

    /// Inserts `child` into `parent` immediately before `reference`.
    ///
    /// # Errors
    ///
    /// As for [`Document::append_child`], plus [`DomError::NotAChild`] when `reference`
    /// is not a child of `parent`.
    pub fn insert_before(
        &mut self,
        parent: NodeId,
        child: NodeId,
        reference: NodeId,
    ) -> Result<(), DomError> {
        self.check_insertable(parent, child)?;
        if self.nodes[reference.0].parent != Some(parent) {
            return Err(DomError::NotAChild);
        }
        self.detach(child);
        let prev = self.nodes[reference.0].prev_sibling;
        self.nodes[child.0].parent = Some(parent);
        self.nodes[child.0].prev_sibling = prev;
        self.nodes[child.0].next_sibling = Some(reference);
        self.nodes[reference.0].prev_sibling = Some(child);
        match prev {
            Some(prev) => self.nodes[prev.0].next_sibling = Some(child),
            None => self.nodes[parent.0].first_child = Some(child),
        }
        Ok(())
    }

    /// Detaches a node (and its subtree) from the tree. The node remains valid and can
    /// be re-inserted. Detaching the root is an error.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::CannotMoveRoot`] when `id` is the document root.
    pub fn remove(&mut self, id: NodeId) -> Result<(), DomError> {
        if id == self.root {
            return Err(DomError::CannotMoveRoot);
        }
        self.detach(id);
        Ok(())
    }

    /// Removes every child of `parent` (used for `innerHTML` assignment).
    pub fn remove_children(&mut self, parent: NodeId) {
        while let Some(child) = self.nodes[parent.0].first_child {
            self.detach(child);
        }
    }

    fn check_insertable(&self, parent: NodeId, child: NodeId) -> Result<(), DomError> {
        if child == self.root {
            return Err(DomError::CannotMoveRoot);
        }
        match self.data(parent) {
            NodeData::Document | NodeData::Element(_) => {}
            _ => return Err(DomError::NotAContainer),
        }
        // A node without children is an ancestor of nothing but itself, so
        // the ancestor walk (linear in the parent's depth) is needed only for
        // a child that brings a subtree. The parser appends only fresh,
        // childless nodes, which keeps parsing deep nesting linear.
        let cycle = if self.nodes[child.0].first_child.is_none() {
            child == parent
        } else {
            self.is_inclusive_ancestor(child, parent)
        };
        if cycle {
            return Err(DomError::WouldCreateCycle);
        }
        Ok(())
    }

    fn detach(&mut self, id: NodeId) {
        let (parent, prev, next) = {
            let node = &self.nodes[id.0];
            (node.parent, node.prev_sibling, node.next_sibling)
        };
        if let Some(prev) = prev {
            self.nodes[prev.0].next_sibling = next;
        } else if let Some(parent) = parent {
            self.nodes[parent.0].first_child = next;
        }
        if let Some(next) = next {
            self.nodes[next.0].prev_sibling = prev;
        } else if let Some(parent) = parent {
            self.nodes[parent.0].last_child = prev;
        }
        let node = &mut self.nodes[id.0];
        node.parent = None;
        node.prev_sibling = None;
        node.next_sibling = None;
    }

    // ---------------------------------------------------------------- queries

    /// The first attached element whose `id` attribute equals `value`.
    #[must_use]
    pub fn get_element_by_id(&self, value: &str) -> Option<NodeId> {
        self.descendants(self.root)
            .find(|&id| self.attribute(id, "id") == Some(value))
    }

    /// All attached elements with the given tag, in document order.
    #[must_use]
    pub fn elements_by_tag_name(&self, tag: &str) -> Vec<NodeId> {
        self.descendants(self.root)
            .filter(|&id| self.is_element_named(id, tag))
            .collect()
    }

    /// All attached elements, in document order.
    #[must_use]
    pub fn all_elements(&self) -> Vec<NodeId> {
        self.descendants(self.root)
            .filter(|&id| self.element(id).is_some())
            .collect()
    }

    /// The concatenated text of all text-node descendants of `id` (plus the node's own
    /// text when it is a text node).
    #[must_use]
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        if let Some(text) = self.data(id).as_text() {
            out.push_str(text);
        }
        for descendant in self.descendants(id) {
            if let Some(text) = self.data(descendant).as_text() {
                out.push_str(text);
            }
        }
        out
    }

    /// The nearest ancestor (or the node itself) that is an element with the given tag.
    #[must_use]
    pub fn closest(&self, id: NodeId, tag: &str) -> Option<NodeId> {
        if self.is_element_named(id, tag) {
            return Some(id);
        }
        self.ancestors(id).find(|&a| self.is_element_named(a, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let html = doc.create_element("html");
        doc.append_child(doc.root(), html).unwrap();
        let body = doc.create_element("body");
        doc.append_child(html, body).unwrap();
        let div = doc.create_element_with_attrs("div", &[("id", "main"), ("class", "post")]);
        doc.append_child(body, div).unwrap();
        (doc, html, body, div)
    }

    #[test]
    fn build_and_query() {
        let (mut doc, _html, body, div) = sample();
        let text = doc.create_text("hello world");
        doc.append_child(div, text).unwrap();

        assert_eq!(doc.get_element_by_id("main"), Some(div));
        assert_eq!(doc.get_element_by_id("nope"), None);
        assert_eq!(doc.elements_by_tag_name("div"), vec![div]);
        assert_eq!(doc.text_content(body), "hello world");
        assert_eq!(doc.tag_name(div), Some("div"));
        assert_eq!(doc.attribute(div, "class"), Some("post"));
        assert!(doc.is_attached(div));
    }

    #[test]
    fn sibling_order_is_preserved() {
        let (mut doc, _html, body, div) = sample();
        let a = doc.create_element("a");
        let b = doc.create_element("b");
        let c = doc.create_element("c");
        doc.append_child(body, a).unwrap();
        doc.append_child(body, c).unwrap();
        doc.insert_before(body, b, c).unwrap();

        let order: Vec<Option<&str>> = doc.children(body).map(|id| doc.tag_name(id)).collect();
        assert_eq!(order, vec![Some("div"), Some("a"), Some("b"), Some("c")]);
        assert_eq!(doc.first_child(body), Some(div));
        assert_eq!(doc.last_child(body), Some(c));
        assert_eq!(doc.prev_sibling(b), Some(a));
        assert_eq!(doc.next_sibling(b), Some(c));
    }

    #[test]
    fn remove_detaches_but_keeps_the_subtree_usable() {
        let (mut doc, _html, body, div) = sample();
        let text = doc.create_text("x");
        doc.append_child(div, text).unwrap();
        doc.remove(div).unwrap();
        assert!(!doc.is_attached(div));
        assert_eq!(doc.get_element_by_id("main"), None);
        // Subtree is still intact and can be re-attached.
        assert_eq!(doc.text_content(div), "x");
        doc.append_child(body, div).unwrap();
        assert_eq!(doc.get_element_by_id("main"), Some(div));
    }

    #[test]
    fn remove_children_clears_a_container() {
        let (mut doc, _html, _body, div) = sample();
        for _ in 0..3 {
            let t = doc.create_text("x");
            doc.append_child(div, t).unwrap();
        }
        assert_eq!(doc.children(div).count(), 3);
        doc.remove_children(div);
        assert_eq!(doc.children(div).count(), 0);
        assert_eq!(doc.text_content(div), "");
    }

    #[test]
    fn cycles_and_bad_containers_are_rejected() {
        let (mut doc, html, body, div) = sample();
        assert_eq!(doc.append_child(div, html), Err(DomError::WouldCreateCycle));
        assert_eq!(doc.append_child(div, div), Err(DomError::WouldCreateCycle));
        let text = doc.create_text("t");
        doc.append_child(div, text).unwrap();
        let other = doc.create_element("p");
        assert_eq!(doc.append_child(text, other), Err(DomError::NotAContainer));
        assert_eq!(doc.remove(doc.root()), Err(DomError::CannotMoveRoot));
        let stray = doc.create_element("span");
        assert_eq!(
            doc.insert_before(body, other, stray),
            Err(DomError::NotAChild)
        );
    }

    #[test]
    fn attribute_mutation() {
        let (mut doc, _html, _body, div) = sample();
        doc.set_attribute(div, "ring", "2");
        assert_eq!(doc.attribute(div, "ring"), Some("2"));
        doc.set_attribute(div, "RING", "3");
        assert_eq!(doc.attribute(div, "ring"), Some("3"));
        assert!(doc.remove_attribute(div, "ring"));
        assert_eq!(doc.attribute(div, "ring"), None);
        assert_eq!(doc.attributes(div).len(), 2);

        // Setting attributes on a text node is a no-op, not a panic.
        let text = doc.create_text("x");
        doc.set_attribute(text, "id", "t");
        assert_eq!(doc.attribute(text, "id"), None);
        assert!(doc.attributes(text).is_empty());
    }

    #[test]
    fn ancestors_and_closest() {
        let (doc, html, body, div) = sample();
        let chain: Vec<NodeId> = doc.ancestors(div).collect();
        assert_eq!(chain, vec![body, html, doc.root()]);
        assert_eq!(doc.closest(div, "body"), Some(body));
        assert_eq!(doc.closest(div, "div"), Some(div));
        assert_eq!(doc.closest(div, "table"), None);
        assert!(doc.is_inclusive_ancestor(html, div));
        assert!(!doc.is_inclusive_ancestor(div, html));
    }

    #[test]
    fn descendants_are_in_document_order() {
        let (mut doc, _html, body, div) = sample();
        let p = doc.create_element("p");
        doc.append_child(div, p).unwrap();
        let t = doc.create_text("x");
        doc.append_child(p, t).unwrap();
        let form = doc.create_element("form");
        doc.append_child(body, form).unwrap();
        let input = doc.create_element("input");
        doc.append_child(form, input).unwrap();
        let span = doc.create_element("span");
        doc.append_child(body, span).unwrap();

        let order: Vec<NodeId> = doc.descendants(body).collect();
        assert_eq!(order, vec![div, p, t, form, input, span]);
        // A subtree walk stops at its root: the siblings after the form and
        // after the div are not their descendants.
        assert_eq!(doc.descendants(form).collect::<Vec<_>>(), vec![input]);
        assert_eq!(doc.descendants(div).collect::<Vec<_>>(), vec![p, t]);
    }

    #[test]
    fn set_text_only_affects_text_nodes() {
        let (mut doc, _html, _body, div) = sample();
        let t = doc.create_text("before");
        doc.append_child(div, t).unwrap();
        doc.set_text(t, "after");
        assert_eq!(doc.text_content(div), "after");
        doc.set_text(div, "ignored");
        assert_eq!(doc.text_content(div), "after");
    }
}
