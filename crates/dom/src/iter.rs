//! Traversal iterators over the document tree.

use crate::document::Document;
use crate::node::NodeId;

/// Iterator over the direct children of a node, in document order.
#[derive(Debug, Clone)]
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl<'a> Children<'a> {
    pub(crate) fn new(doc: &'a Document, parent: NodeId) -> Self {
        Children {
            doc,
            next: doc.first_child(parent),
        }
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        self.next = self.doc.next_sibling(current);
        Some(current)
    }
}

/// Pre-order iterator over all descendants of a node, excluding the node itself.
///
/// Each step follows the tree links — first child, else the next sibling of
/// the nearest node that has one, below the root — so the walk allocates
/// nothing and never leaves the root's subtree.
#[derive(Debug, Clone)]
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl<'a> Descendants<'a> {
    pub(crate) fn new(doc: &'a Document, root: NodeId) -> Self {
        Descendants {
            doc,
            root,
            next: doc.first_child(root),
        }
    }
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        let mut node = current;
        self.next = self.doc.first_child(current).or_else(|| loop {
            if let Some(sibling) = self.doc.next_sibling(node) {
                break Some(sibling);
            }
            match self.doc.parent(node) {
                Some(parent) if parent != self.root => node = parent,
                _ => break None,
            }
        });
        Some(current)
    }
}

/// Iterator over the ancestors of a node, nearest first, excluding the node itself.
#[derive(Debug, Clone)]
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl<'a> Ancestors<'a> {
    pub(crate) fn new(doc: &'a Document, node: NodeId) -> Self {
        Ancestors {
            doc,
            next: doc.parent(node),
        }
    }
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        self.next = self.doc.parent(current);
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterators_are_empty_for_leaf_nodes() {
        let mut doc = Document::new();
        let el = doc.create_element("p");
        doc.append_child(doc.root(), el).unwrap();
        let t = doc.create_text("x");
        doc.append_child(el, t).unwrap();

        assert_eq!(doc.children(t).count(), 0);
        assert_eq!(doc.descendants(t).count(), 0);
        assert_eq!(doc.ancestors(doc.root()).count(), 0);
    }

    #[test]
    fn descendants_cover_a_deep_tree() {
        let mut doc = Document::new();
        let mut parent = doc.root();
        let mut created = Vec::new();
        for depth in 0..50 {
            let el = doc.create_element(if depth % 2 == 0 { "div" } else { "span" });
            doc.append_child(parent, el).unwrap();
            created.push(el);
            parent = el;
        }
        let visited: Vec<NodeId> = doc.descendants(doc.root()).collect();
        assert_eq!(visited, created);
        assert_eq!(doc.ancestors(*created.last().unwrap()).count(), 50);
    }

    #[test]
    fn wide_trees_are_visited_left_to_right() {
        let mut doc = Document::new();
        let parent = doc.create_element("ul");
        doc.append_child(doc.root(), parent).unwrap();
        let mut items = Vec::new();
        for _ in 0..20 {
            let li = doc.create_element("li");
            doc.append_child(parent, li).unwrap();
            items.push(li);
        }
        let children: Vec<NodeId> = doc.children(parent).collect();
        assert_eq!(children, items);
        // Descendants of the root: the ul first, then each li in order.
        let descendants: Vec<NodeId> = doc.descendants(doc.root()).collect();
        assert_eq!(descendants[0], parent);
        assert_eq!(&descendants[1..], items.as_slice());
    }
}
