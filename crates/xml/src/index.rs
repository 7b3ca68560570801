//! Per-document label index used to prune pattern evaluation.
//!
//! Candidate search walks document subtrees looking for nodes whose root
//! path matches an edge automaton. Most subtrees cannot possibly contain a
//! match: the automaton's accepting transitions only fire on a handful of
//! labels, and many subtrees contain none of them. The index precomputes,
//! in one pass over the document:
//!
//! * `label → nodes` occurrence lists (document order), and
//! * a per-node 64-bit Bloom mask of all labels in the node's subtree.
//!
//! A mask test `subtree_mask(n) & label_mask(l) == 0` proves label `l` does
//! not occur under `n` (one-sided: collisions on `sym % 64` may report a
//! phantom occurrence, never miss a real one), letting evaluation skip the
//! whole subtree without visiting it.
//!
//! The index belongs to its document: [`Document::index`] builds it once,
//! and the edit primitives patch it from then on (see [`LabelIndex`]).

use std::collections::HashMap;

use regtree_alphabet::Symbol;

use crate::model::{Document, NodeId};

/// Bloom bit for a label symbol (bit position `sym % 64`).
#[inline]
pub fn label_mask(sym: Symbol) -> u64 {
    1u64 << (sym.0 % 64)
}

/// Precomputed occurrence lists and subtree label masks for one document.
///
/// A document owns its index ([`Document::index`]) and the edit primitives
/// in [`crate::edit`] keep it in step:
///
/// * occurrence lists — detached nodes are removed (binary search by
///   document order, while their position is still defined), grafted
///   subtrees are spliced in at their document-order position;
/// * subtree Bloom masks — a grafted subtree's masks are computed
///   bottom-up and OR-ed into every ancestor up to the root. Deletions
///   leave ancestor masks untouched: masks are one-sided (`may contain`),
///   so a phantom bit can cost a pruning opportunity, never a wrong answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelIndex {
    /// Occurrences of each label, in document order.
    by_label: HashMap<Symbol, Vec<NodeId>>,
    /// Bloom mask of labels in each node's subtree, indexed by arena slot.
    subtree: Vec<u64>,
}

impl LabelIndex {
    /// Builds the index in a single preorder pass plus a reverse sweep.
    pub(crate) fn build(doc: &Document) -> LabelIndex {
        let mut by_label: HashMap<Symbol, Vec<NodeId>> = HashMap::new();
        let mut subtree = vec![0u64; doc.arena_len()];
        // `all_nodes` is preorder, so parents precede children; sweeping in
        // reverse folds each node's mask into its parent exactly once.
        let order = doc.all_nodes();
        for &n in &order {
            by_label.entry(doc.label(n)).or_default().push(n);
            subtree[n.index()] = label_mask(doc.label(n));
        }
        for &n in order.iter().rev() {
            if let Some(p) = doc.parent(n) {
                subtree[p.index()] |= subtree[n.index()];
            }
        }
        LabelIndex { by_label, subtree }
    }

    /// Nodes labeled `sym`, in document order (empty if the label is absent).
    pub fn nodes_with_label(&self, sym: Symbol) -> &[NodeId] {
        self.by_label.get(&sym).map_or(&[], Vec::as_slice)
    }

    /// Number of occurrences of `sym`.
    pub fn count(&self, sym: Symbol) -> usize {
        self.nodes_with_label(sym).len()
    }

    /// Bloom mask of all labels occurring in the subtree rooted at `n`
    /// (including `n` itself).
    pub(crate) fn subtree_mask(&self, n: NodeId) -> u64 {
        self.subtree[n.index()]
    }

    /// May the subtree of `n` contain any label from `mask`
    /// (a union of [`label_mask`] bits)? `false` is definitive; `true` may
    /// be a Bloom collision.
    pub fn subtree_may_intersect(&self, n: NodeId, mask: u64) -> bool {
        self.subtree[n.index()] & mask != 0
    }

    // ---- maintenance under edits ----

    /// Removes the occurrences of the subtree rooted at `n`. Must run while
    /// `n` is still attached (document order still well defined).
    pub(crate) fn remove_subtree(&mut self, doc: &Document, n: NodeId) {
        for d in doc.descendants_or_self(n) {
            if let Some(list) = self.by_label.get_mut(&doc.label(d)) {
                if let Ok(at) = list.binary_search_by(|&m| doc.doc_order(m, d)) {
                    list.remove(at);
                }
            }
        }
    }

    /// Indexes the freshly grafted subtree rooted at `new_root`: occurrence
    /// lists, its own masks (bottom-up), and the OR of its mask into every
    /// ancestor up to the root.
    pub(crate) fn insert_subtree(&mut self, doc: &Document, new_root: NodeId) {
        if self.subtree.len() < doc.arena_len() {
            self.subtree.resize(doc.arena_len(), 0);
        }
        let order = doc.descendants_or_self(new_root);
        for &d in &order {
            self.subtree[d.index()] = label_mask(doc.label(d));
            let list = self.by_label.entry(doc.label(d)).or_default();
            let at = list
                .binary_search_by(|&m| doc.doc_order(m, d))
                .unwrap_or_else(|i| i);
            list.insert(at, d);
        }
        for &d in order[1..].iter().rev() {
            let p = doc.parent(d).expect("subtree node has a parent");
            self.subtree[p.index()] |= self.subtree[d.index()];
        }
        let mask = self.subtree[new_root.index()];
        let mut cur = doc.parent(new_root);
        while let Some(a) = cur {
            self.subtree[a.index()] |= mask;
            cur = doc.parent(a);
        }
    }
}

/// Asserts that `doc`'s index agrees with a fresh build: equal occurrence
/// lists, and masks that contain (⊇) the fresh ones.
#[cfg(test)]
pub(crate) fn assert_index_sound(doc: &Document) {
    let fresh = LabelIndex::build(doc);
    for s in doc.alphabet().symbols() {
        assert_eq!(
            doc.index().nodes_with_label(s),
            fresh.nodes_with_label(s),
            "occurrences of {:?} drifted",
            doc.alphabet().name(s)
        );
    }
    for n in doc.all_nodes() {
        let exact = fresh.subtree_mask(n);
        assert_eq!(
            doc.index().subtree_mask(n) & exact,
            exact,
            "mask at {} lost bits",
            doc.dewey_string(n)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;

    fn doc() -> (Alphabet, Document) {
        let a = Alphabet::new();
        let mut d = Document::new(a.clone());
        let rec = a.intern("rec");
        let key = a.intern("key");
        let r1 = d.add_element(d.root(), rec);
        d.add_attribute(r1, a.intern("@id"), "1");
        let k1 = d.add_element(r1, key);
        d.add_text(k1, "k");
        let r2 = d.add_element(d.root(), rec);
        d.add_element(r2, a.intern("val"));
        (a, d)
    }

    #[test]
    fn occurrence_lists_in_doc_order() {
        let (a, d) = doc();
        let idx = LabelIndex::build(&d);
        let recs = idx.nodes_with_label(a.intern("rec"));
        assert_eq!(recs.len(), 2);
        assert!(d.doc_order(recs[0], recs[1]).is_lt());
        assert_eq!(idx.count(a.intern("key")), 1);
        assert_eq!(idx.count(a.intern("ghost")), 0);
    }

    #[test]
    fn subtree_masks_cover_descendants() {
        let (a, d) = doc();
        let idx = LabelIndex::build(&d);
        let key = a.intern("key");
        let val = a.intern("val");
        let recs = idx.nodes_with_label(a.intern("rec"));
        // key occurs under rec #1 only; val under rec #2 only.
        assert!(idx.subtree_may_intersect(recs[0], label_mask(key)));
        assert!(idx.subtree_may_intersect(recs[1], label_mask(val)));
        assert!(idx.subtree_may_intersect(d.root(), label_mask(key)));
        // Definitive negatives hold when the bits differ.
        if label_mask(val) != label_mask(key) {
            assert!(!idx.subtree_may_intersect(recs[0], label_mask(val)));
        }
        let both = label_mask(key) | label_mask(val);
        assert!(idx.subtree_may_intersect(d.root(), both));
    }

    #[test]
    fn masks_track_text_and_attributes() {
        let (a, d) = doc();
        let idx = LabelIndex::build(&d);
        assert!(idx.subtree_may_intersect(d.root(), label_mask(Alphabet::TEXT)));
        assert!(idx.subtree_may_intersect(d.root(), label_mask(a.intern("@id"))));
        assert_eq!(idx.count(Alphabet::TEXT), 1);
    }
}
