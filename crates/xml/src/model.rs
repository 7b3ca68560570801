//! The unranked ordered tree model of XML documents (paper Section 2.1).
//!
//! A document is a tree over a label alphabet `Σ = EL ∪ A ∪ {#text}`:
//! internal nodes are *element* nodes; leaves are element, *attribute* or
//! *text* nodes, the latter two carrying a string value. Node positions form
//! a tree domain (Dewey words over `ℕ`); the root carries the reserved label
//! `/`.
//!
//! Nodes live in an arena ([`Document`]) and are addressed by stable
//! [`NodeId`]s. Edits (crate module [`crate::edit`]) detach/attach subtrees
//! in place; detached nodes stay in the arena as tombstones.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use regtree_alphabet::{Alphabet, LabelKind, Symbol};

use crate::index::LabelIndex;

/// Stable handle to a node in a [`Document`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena slot.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub label: Symbol,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    /// `Some` for attribute/text leaves, `None` for element nodes
    /// (the paper's valuation `val` is the identity on element nodes).
    pub value: Option<Arc<str>>,
    /// False once detached by an edit (tombstone).
    pub alive: bool,
    /// Cached index among the parent's children (kept in sync by the edit
    /// primitives so `child_index`/`dewey` are O(1)/O(depth) even on very
    /// wide nodes).
    pub pos: u32,
}

/// An XML document: an arena-backed unranked ordered labeled tree.
///
/// The document owns its [`LabelIndex`]: the first [`Document::index`] call
/// builds it, and every structural edit in [`crate::edit`] patches it from
/// then on, so readers never rebuild it.
#[derive(Clone, Debug)]
pub struct Document {
    alphabet: Alphabet,
    pub(crate) nodes: Vec<Node>,
    index: OnceLock<LabelIndex>,
}

impl Document {
    /// Creates a document containing only the reserved `/` root.
    pub fn new(alphabet: Alphabet) -> Document {
        let root = Node {
            label: Alphabet::ROOT,
            parent: None,
            children: Vec::new(),
            value: None,
            alive: true,
            pos: 0,
        };
        Document {
            alphabet,
            nodes: vec![root],
            index: OnceLock::new(),
        }
    }

    /// The document's label index, built on the first call and kept in
    /// step with every edit after it (masks may over-approximate after
    /// deletions; see [`crate::index`]).
    pub fn index(&self) -> &LabelIndex {
        self.index.get_or_init(|| LabelIndex::build(self))
    }

    /// Runs `patch` on the index if one has been built (an unbuilt index
    /// has nothing to keep in step).
    pub(crate) fn patch_index(&mut self, patch: impl FnOnce(&mut LabelIndex, &Document)) {
        if let Some(mut index) = self.index.take() {
            patch(&mut index, self);
            self.index = OnceLock::from(index);
        }
    }

    /// The alphabet this document's labels are interned in.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The root node id (always `NodeId(0)`, labeled `/`).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Label of `n`.
    pub fn label(&self, n: NodeId) -> Symbol {
        self.nodes[n.index()].label
    }

    /// Label text of `n`.
    pub fn label_name(&self, n: NodeId) -> Arc<str> {
        self.alphabet.name(self.label(n))
    }

    /// Node kind, derived from the label partition.
    pub fn kind(&self, n: NodeId) -> LabelKind {
        self.alphabet.kind(self.label(n))
    }

    /// String value of an attribute/text leaf (`None` on element nodes).
    pub fn value(&self, n: NodeId) -> Option<&str> {
        self.nodes[n.index()].value.as_deref()
    }

    /// Parent of `n` (`None` for the root or detached subtree roots).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// Ordered children of `n`.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].children
    }

    /// Is `n` still attached to the document tree (or its detached root)?
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.nodes[n.index()].alive
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// True when the document holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes[0].children.is_empty()
    }

    /// Total arena slots (live + tombstones); used by tests.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    // ---- construction primitives (used by the builder & edit modules) ----

    pub(crate) fn push_node(
        &mut self,
        label: Symbol,
        parent: Option<NodeId>,
        value: Option<Arc<str>>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label,
            parent,
            children: Vec::new(),
            value,
            alive: true,
            pos: 0,
        });
        id
    }

    /// Appends `child` under `parent` (both must be in this arena).
    pub(crate) fn attach(&mut self, parent: NodeId, child: NodeId) {
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[child.index()].pos = self.nodes[parent.index()].children.len() as u32;
        self.nodes[parent.index()].children.push(child);
    }

    /// Re-numbers the cached sibling positions of `parent`'s children from
    /// `from` onwards (after a structural edit).
    pub(crate) fn renumber_children(&mut self, parent: NodeId, from: usize) {
        let children: Vec<NodeId> = self.nodes[parent.index()].children[from..].to_vec();
        for (offset, c) in children.into_iter().enumerate() {
            self.nodes[c.index()].pos = (from + offset) as u32;
        }
    }

    /// Creates and appends a fresh element child.
    pub(crate) fn add_element(&mut self, parent: NodeId, label: Symbol) -> NodeId {
        debug_assert_eq!(self.alphabet.kind(label), LabelKind::Element);
        let id = self.push_node(label, Some(parent), None);
        self.nodes[id.index()].pos = self.nodes[parent.index()].children.len() as u32;
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Creates and appends a fresh attribute child.
    pub(crate) fn add_attribute(&mut self, parent: NodeId, label: Symbol, value: &str) -> NodeId {
        debug_assert_eq!(self.alphabet.kind(label), LabelKind::Attribute);
        let id = self.push_node(label, Some(parent), Some(Arc::from(value)));
        self.nodes[id.index()].pos = self.nodes[parent.index()].children.len() as u32;
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Creates and appends a fresh text child.
    pub(crate) fn add_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        let id = self.push_node(Alphabet::TEXT, Some(parent), Some(Arc::from(value)));
        self.nodes[id.index()].pos = self.nodes[parent.index()].children.len() as u32;
        self.nodes[parent.index()].children.push(id);
        id
    }

    // ---- structure queries ----

    /// The Dewey position of `n`: child indices from the root (empty for the
    /// root itself). This is the paper's tree-domain word.
    pub fn dewey(&self, n: NodeId) -> Vec<u32> {
        let mut path = Vec::new();
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            let idx = self.child_index(cur).expect("child listed under parent");
            path.push(idx as u32);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Dewey position rendered as `ε` or `0.2.1`.
    pub fn dewey_string(&self, n: NodeId) -> String {
        let d = self.dewey(n);
        if d.is_empty() {
            "ε".to_string()
        } else {
            d.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(".")
        }
    }

    /// Position of `n` among its parent's children (O(1), cached).
    pub fn child_index(&self, n: NodeId) -> Option<usize> {
        self.parent(n)?;
        let pos = self.nodes[n.index()].pos as usize;
        debug_assert_eq!(
            self.parent(n)
                .map(|p| self.children(p).get(pos) == Some(&n)),
            Some(true),
            "cached sibling position out of sync"
        );
        Some(pos)
    }

    /// Is `a` an ancestor of `b` (strict)?
    pub(crate) fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = self.parent(b);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Is `a` an ancestor of `b` or equal to it?
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.is_ancestor(a, b)
    }

    /// Total document order `<` (preorder; equivalently the paper's
    /// “descendant or following” order).
    pub fn doc_order(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let da = self.dewey(a);
        let db = self.dewey(b);
        // Lexicographic comparison; a prefix precedes its extensions
        // (ancestor before descendant).
        da.cmp(&db)
    }

    /// Depth of `n` (root = 0).
    pub(crate) fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Preorder traversal of the subtree rooted at `n` (including `n`).
    pub fn descendants_or_self(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            out.push(x);
            for &c in self.children(x).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Preorder traversal of the whole live tree.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.descendants_or_self(self.root())
    }

    /// Nodes of the subtree rooted at `n`, excluding `n`.
    pub fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        let mut v = self.descendants_or_self(n);
        v.remove(0);
        v
    }

    /// The labels on the unique downward path from `from` to `to`, with
    /// `λ(from)` excluded and `λ(to)` included — exactly the word `λ(π_e)`
    /// matched against an edge expression in Definition 2.
    ///
    /// Returns `None` when `to` is not a strict descendant of `from`.
    pub fn labels_on_path(&self, from: NodeId, to: NodeId) -> Option<Vec<Symbol>> {
        let mut labels = Vec::new();
        let mut cur = to;
        loop {
            labels.push(self.label(cur));
            match self.parent(cur) {
                Some(p) if p == from => break,
                Some(p) => cur = p,
                None => return None,
            }
        }
        labels.reverse();
        Some(labels)
    }

    /// The child of `from` through which the path to its descendant `to`
    /// passes (used for the sibling-edge prefix-disjointness check).
    pub fn branch_child(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let mut cur = to;
        loop {
            let p = self.parent(cur)?;
            if p == from {
                return Some(cur);
            }
            cur = p;
        }
    }

    /// Simple size/shape statistics.
    pub fn stats(&self) -> DocStats {
        let mut stats = DocStats::default();
        for n in self.all_nodes() {
            stats.nodes += 1;
            stats.max_depth = stats.max_depth.max(self.depth(n));
            stats.max_fanout = stats.max_fanout.max(self.children(n).len());
            match self.kind(n) {
                LabelKind::Element => stats.elements += 1,
                LabelKind::Attribute => stats.attributes += 1,
                LabelKind::Text => stats.texts += 1,
            }
        }
        stats
    }

    /// Garbage-collects tombstoned nodes, renumbering ids.
    ///
    /// Returns the remapping table `old id -> new id` (dead nodes map to
    /// `None`).
    #[cfg(test)]
    pub(crate) fn compact(&mut self) -> Vec<Option<NodeId>> {
        // Which nodes are reachable from the root?
        let mut reach = vec![false; self.nodes.len()];
        for n in self.all_nodes() {
            reach[n.index()] = true;
        }
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut new_nodes: Vec<Node> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if reach[i] && node.alive {
                remap[i] = Some(NodeId(new_nodes.len() as u32));
                new_nodes.push(node.clone());
            }
        }
        for node in &mut new_nodes {
            node.parent = node.parent.and_then(|p| remap[p.index()]);
            node.children = node
                .children
                .iter()
                .filter_map(|c| remap[c.index()])
                .collect();
        }
        self.nodes = new_nodes;
        self.index = OnceLock::new();
        // Rebuild the cached sibling positions.
        for i in 0..self.nodes.len() {
            let children = self.nodes[i].children.clone();
            for (pos, c) in children.into_iter().enumerate() {
                self.nodes[c.index()].pos = pos as u32;
            }
        }
        remap
    }

    /// Structural well-formedness: attribute/text nodes are leaves with
    /// values, element nodes carry no value, parent/child links agree, and
    /// the root is the reserved `/` element.
    pub fn check_well_formed(&self) -> Result<(), String> {
        if self.label(self.root()) != Alphabet::ROOT {
            return Err("root must carry the reserved '/' label".into());
        }
        for n in self.all_nodes() {
            let node = &self.nodes[n.index()];
            match self.kind(n) {
                LabelKind::Element => {
                    if node.value.is_some() {
                        return Err(format!(
                            "element node {} carries a value",
                            self.dewey_string(n)
                        ));
                    }
                }
                LabelKind::Attribute | LabelKind::Text => {
                    if !node.children.is_empty() {
                        return Err(format!(
                            "leaf-typed node {} has children",
                            self.dewey_string(n)
                        ));
                    }
                    if node.value.is_none() {
                        return Err(format!(
                            "attribute/text node {} has no value",
                            self.dewey_string(n)
                        ));
                    }
                }
            }
            for &c in &node.children {
                if self.parent(c) != Some(n) {
                    return Err(format!("child link mismatch at {}", self.dewey_string(n)));
                }
            }
        }
        Ok(())
    }
}

/// Size/shape statistics returned by [`Document::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DocStats {
    /// Total live nodes (including the root).
    pub nodes: usize,
    /// Element nodes.
    pub elements: usize,
    /// Attribute nodes.
    pub attributes: usize,
    /// Text nodes.
    pub texts: usize,
    /// Maximum depth.
    pub max_depth: usize,
    /// Maximum fanout.
    pub max_fanout: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, Vec<NodeId>) {
        let a = Alphabet::new();
        let mut d = Document::new(a.clone());
        let root = d.root();
        let s = d.add_element(root, a.intern("session"));
        let c1 = d.add_element(s, a.intern("candidate"));
        let idn = d.add_attribute(c1, a.intern("@IDN"), "78");
        let e1 = d.add_element(c1, a.intern("exam"));
        let disc = d.add_element(e1, a.intern("discipline"));
        let t = d.add_text(disc, "math");
        let c2 = d.add_element(s, a.intern("candidate"));
        (d, vec![root, s, c1, idn, e1, disc, t, c2])
    }

    #[test]
    fn construction_and_links() {
        let (d, ids) = sample();
        assert!(d.check_well_formed().is_ok());
        assert_eq!(d.parent(ids[1]), Some(ids[0]));
        assert_eq!(d.children(ids[1]), &[ids[2], ids[7]]);
        assert_eq!(d.value(ids[3]), Some("78"));
        assert_eq!(d.value(ids[6]), Some("math"));
        assert_eq!(d.value(ids[2]), None);
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn dewey_positions() {
        let (d, ids) = sample();
        assert_eq!(d.dewey(ids[0]), Vec::<u32>::new());
        assert_eq!(d.dewey(ids[1]), vec![0]);
        assert_eq!(d.dewey(ids[2]), vec![0, 0]);
        assert_eq!(d.dewey(ids[7]), vec![0, 1]);
        assert_eq!(d.dewey(ids[6]), vec![0, 0, 1, 0, 0]);
        assert_eq!(d.dewey_string(ids[0]), "ε");
        assert_eq!(d.dewey_string(ids[6]), "0.0.1.0.0");
    }

    #[test]
    fn document_order_is_preorder() {
        let (d, ids) = sample();
        let all = d.all_nodes();
        assert_eq!(all[0], ids[0]);
        for w in all.windows(2) {
            assert_eq!(d.doc_order(w[0], w[1]), Ordering::Less);
            assert_eq!(d.doc_order(w[1], w[0]), Ordering::Greater);
        }
        assert_eq!(d.doc_order(ids[3], ids[3]), Ordering::Equal);
    }

    #[test]
    fn ancestry() {
        let (d, ids) = sample();
        assert!(d.is_ancestor(ids[0], ids[6]));
        assert!(d.is_ancestor(ids[2], ids[4]));
        assert!(!d.is_ancestor(ids[7], ids[6]));
        assert!(!d.is_ancestor(ids[6], ids[6]));
        assert!(d.is_ancestor_or_self(ids[6], ids[6]));
    }

    #[test]
    fn labels_on_path_matches_definition() {
        let (d, ids) = sample();
        let a = d.alphabet().clone();
        // session -> text under discipline: labels exclude 'session', include target.
        let labels = d.labels_on_path(ids[1], ids[6]).unwrap();
        let names: Vec<_> = labels.iter().map(|&s| a.name(s).to_string()).collect();
        assert_eq!(names, vec!["candidate", "exam", "discipline", "#text"]);
        assert_eq!(d.labels_on_path(ids[6], ids[1]), None);
        assert_eq!(d.labels_on_path(ids[6], ids[6]), None);
    }

    #[test]
    fn branch_child_identifies_divergence() {
        let (d, ids) = sample();
        assert_eq!(d.branch_child(ids[1], ids[6]), Some(ids[2]));
        assert_eq!(d.branch_child(ids[1], ids[7]), Some(ids[7]));
        assert_eq!(d.branch_child(ids[6], ids[1]), None);
    }

    #[test]
    fn stats_counts() {
        let (d, _) = sample();
        let s = d.stats();
        assert_eq!(s.nodes, 8);
        assert_eq!(s.attributes, 1);
        assert_eq!(s.texts, 1);
        assert_eq!(s.elements, 6);
        assert_eq!(s.max_depth, 5);
    }

    #[test]
    fn well_formedness_catches_violations() {
        let a = Alphabet::new();
        let mut d = Document::new(a.clone());
        let root = d.root();
        let attr = d.add_attribute(root, a.intern("@x"), "1");
        // Force a child under an attribute (bypassing the typed API).
        let child = d.push_node(a.intern("bogus"), Some(attr), None);
        d.nodes[attr.index()].children.push(child);
        assert!(d.check_well_formed().is_err());
    }

    #[test]
    fn depth_and_descendants() {
        let (d, ids) = sample();
        assert_eq!(d.depth(ids[0]), 0);
        assert_eq!(d.depth(ids[6]), 5);
        let desc = d.descendants_or_self(ids[2]);
        assert_eq!(desc, vec![ids[2], ids[3], ids[4], ids[5], ids[6]]);
        assert_eq!(d.descendants(ids[2]).len(), 4);
    }
}
