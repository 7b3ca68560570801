//! Versioned documents: delta edits with an incrementally maintained index.
//!
//! The naive update loop clones the whole tree per update
//! (`Update::apply_cloned` in `regtree-core`) and rebuilds the
//! [`LabelIndex`] from scratch before every recheck. A
//! [`VersionedDocument`] instead applies the `edit` primitives *in place*
//! and patches the index as it goes (`Update::apply_versioned` drives the
//! same update code through these methods):
//!
//! * occurrence lists — detached nodes are removed (binary search by
//!   document order, while their position is still defined), inserted
//!   subtrees are spliced in at their document-order position;
//! * subtree Bloom masks — an inserted subtree's masks are computed
//!   bottom-up and OR-ed into every ancestor up to the root (dirty-path
//!   propagation). Deletions leave ancestor masks untouched: masks are
//!   one-sided (`may contain`), so an over-approximation stays sound — a
//!   phantom bit can cost a pruning opportunity, never a wrong answer.
//!
//! Each mutation bumps a version counter and is recorded in a [`Delta`]
//! (edit sites, detached/inserted subtree roots, touched value leaves, and
//! a Bloom mask over every touched label) that incremental FD checking
//! consumes to scope its rechecks.

use crate::edit::{self, EditError};
use crate::index::{label_mask, LabelIndex};
use crate::model::{Document, NodeId};
use crate::spec::TreeSpec;

/// What a batch of versioned edits touched, for impact-scoped rechecking.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// Parents of structural edit positions (the nodes whose child list
    /// changed), and value-edit leaves' parents.
    pub sites: Vec<NodeId>,
    /// Subtrees detached by deletes/replacements, as
    /// `(former parent, subtree root)`. The root's parent link is cleared
    /// on detach, so the pre-edit attachment point must be recorded here
    /// for consumers that need to locate the removal in the live tree.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Roots of subtrees grafted in by inserts/replacements.
    pub inserted: Vec<NodeId>,
    /// Attribute/text leaves whose string value changed in place.
    pub value_sites: Vec<NodeId>,
    /// Union of [`label_mask`] bits over every label the edits touched.
    pub dirty_mask: u64,
    /// True when an untracked mutation ran ([`VersionedDocument::apply_opaque`]):
    /// scoping information is unavailable and consumers must assume
    /// everything changed.
    pub opaque: bool,
}

impl Delta {
    /// No edits recorded?
    pub fn is_empty(&self) -> bool {
        !self.opaque
            && self.sites.is_empty()
            && self.removed.is_empty()
            && self.inserted.is_empty()
            && self.value_sites.is_empty()
    }
}

/// A [`Document`] whose [`LabelIndex`] is maintained across edits.
///
/// All mutation goes through the delta methods below (or
/// [`apply_opaque`](VersionedDocument::apply_opaque) for arbitrary surgery,
/// which falls back to an index rebuild). Accessors hand out shared
/// references only, so index and tree cannot drift apart.
#[derive(Clone, Debug)]
pub struct VersionedDocument {
    doc: Document,
    index: LabelIndex,
    version: u64,
    pending: Delta,
}

impl VersionedDocument {
    /// Wraps a document, building its index.
    pub fn new(doc: Document) -> VersionedDocument {
        let index = LabelIndex::build(&doc);
        VersionedDocument {
            doc,
            index,
            version: 0,
            pending: Delta::default(),
        }
    }

    /// The current document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The maintained label index (masks may over-approximate after
    /// deletions; see the module docs).
    pub fn index(&self) -> &LabelIndex {
        &self.index
    }

    /// Monotone edit counter (bumped once per mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Takes the delta accumulated since the last call (or construction).
    pub fn take_delta(&mut self) -> Delta {
        std::mem::take(&mut self.pending)
    }

    fn ensure_editable(&self, n: NodeId) -> Result<NodeId, EditError> {
        if n == self.doc.root() {
            return Err(EditError::CannotEditRoot);
        }
        if !self.doc.is_alive(n) {
            return Err(EditError::Detached);
        }
        self.doc.parent(n).ok_or(EditError::Detached)
    }

    fn remove_subtree_occurrences(&mut self, n: NodeId) {
        for d in self.doc.descendants_or_self(n) {
            self.index.remove_occurrence(&self.doc, d);
        }
    }

    /// Indexes a freshly grafted subtree: occurrence lists, its own masks
    /// (bottom-up), and the dirty-path OR up to the root. Returns the
    /// subtree's mask.
    fn index_new_subtree(&mut self, new_root: NodeId) -> u64 {
        self.index.ensure_slots(self.doc.arena_len());
        let order = self.doc.descendants_or_self(new_root);
        for &d in &order {
            self.index.set_mask(d, label_mask(self.doc.label(d)));
            self.index.insert_occurrence(&self.doc, d);
        }
        for &d in order.iter().rev() {
            if d != new_root {
                let m = self.index.subtree_mask(d);
                let p = self.doc.parent(d).expect("subtree node has parent");
                self.index.or_mask(p, m);
            }
        }
        let mask = self.index.subtree_mask(new_root);
        let mut cur = self.doc.parent(new_root);
        while let Some(a) = cur {
            self.index.or_mask(a, mask);
            cur = self.doc.parent(a);
        }
        mask
    }

    /// [`edit::replace_subtree`] as a delta.
    pub fn replace_subtree(&mut self, n: NodeId, spec: &TreeSpec) -> Result<NodeId, EditError> {
        let parent = self.ensure_editable(n)?;
        spec.check(self.doc.alphabet())
            .map_err(EditError::BadSpec)?;
        let old_mask = self.index.subtree_mask(n);
        self.remove_subtree_occurrences(n);
        let new_root = edit::replace_subtree(&mut self.doc, n, spec)?;
        let new_mask = self.index_new_subtree(new_root);
        self.pending.sites.push(parent);
        self.pending.removed.push((parent, n));
        self.pending.inserted.push(new_root);
        self.pending.dirty_mask |= old_mask | new_mask;
        self.version += 1;
        Ok(new_root)
    }

    /// [`edit::delete_subtree`] as a delta.
    pub fn delete_subtree(&mut self, n: NodeId) -> Result<(), EditError> {
        let parent = self.ensure_editable(n)?;
        let old_mask = self.index.subtree_mask(n);
        self.remove_subtree_occurrences(n);
        edit::delete_subtree(&mut self.doc, n)?;
        self.pending.sites.push(parent);
        self.pending.removed.push((parent, n));
        self.pending.dirty_mask |= old_mask;
        self.version += 1;
        Ok(())
    }

    /// [`edit::insert_child`] as a delta.
    pub fn insert_child(
        &mut self,
        parent: NodeId,
        index: usize,
        spec: &TreeSpec,
    ) -> Result<NodeId, EditError> {
        let new_root = edit::insert_child(&mut self.doc, parent, index, spec)?;
        let new_mask = self.index_new_subtree(new_root);
        self.pending.sites.push(parent);
        self.pending.inserted.push(new_root);
        self.pending.dirty_mask |= new_mask;
        self.version += 1;
        Ok(new_root)
    }

    /// [`edit::append_child`] as a delta.
    #[cfg(test)]
    pub(crate) fn append_child(
        &mut self,
        parent: NodeId,
        spec: &TreeSpec,
    ) -> Result<NodeId, EditError> {
        let len = self.doc.children(parent).len();
        self.insert_child(parent, len, spec)
    }

    /// [`edit::set_value`] as a delta (no structural index change).
    pub fn set_value(&mut self, n: NodeId, value: &str) -> Result<(), EditError> {
        edit::set_value(&mut self.doc, n, value)?;
        if let Some(p) = self.doc.parent(n) {
            self.pending.sites.push(p);
        }
        self.pending.value_sites.push(n);
        self.pending.dirty_mask |= label_mask(self.doc.label(n));
        self.version += 1;
        Ok(())
    }

    /// Arbitrary document surgery: runs `f`, then rebuilds the index from
    /// scratch and marks the delta opaque (scoped rechecking impossible).
    pub fn apply_opaque<R>(&mut self, f: impl FnOnce(&mut Document) -> R) -> R {
        let r = f(&mut self.doc);
        self.index = LabelIndex::build(&self.doc);
        self.pending.opaque = true;
        self.version += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;
    use crate::serialize::to_xml;
    use regtree_alphabet::Alphabet;

    fn setup() -> (Alphabet, VersionedDocument) {
        let a = Alphabet::new();
        let doc = parse_document(
            &a,
            "<session><candidate IDN=\"78\"><level>B</level></candidate>\
             <candidate IDN=\"99\"><level>A</level></candidate></session>",
        )
        .unwrap();
        (a, VersionedDocument::new(doc))
    }

    /// The maintained occurrence lists must equal a from-scratch rebuild,
    /// and the maintained masks must cover (⊇) the rebuilt ones.
    fn assert_index_sound(v: &VersionedDocument) {
        let fresh = LabelIndex::build(v.doc());
        for s in v.doc().alphabet().symbols() {
            assert_eq!(
                v.index().nodes_with_label(s),
                fresh.nodes_with_label(s),
                "occurrences of {:?} drifted",
                v.doc().alphabet().name(s)
            );
        }
        for n in v.doc().all_nodes() {
            let maintained = v.index().subtree_mask(n);
            let exact = fresh.subtree_mask(n);
            assert_eq!(
                maintained & exact,
                exact,
                "mask at {} lost bits",
                v.doc().dewey_string(n)
            );
        }
    }

    #[test]
    fn versioned_edits_maintain_index() {
        let (a, mut v) = setup();
        let session = v.doc().children(v.doc().root())[0];
        let c1 = v.doc().children(session)[0];
        let lvl = v.doc().children(c1)[1];

        v.append_child(session, &TreeSpec::elem_named(&a, "closing", vec![]))
            .unwrap();
        assert_index_sound(&v);
        v.replace_subtree(
            lvl,
            &TreeSpec::elem_named(&a, "level", vec![TreeSpec::text("C")]),
        )
        .unwrap();
        assert_index_sound(&v);
        let c2 = v.doc().children(session)[1];
        v.delete_subtree(c2).unwrap();
        assert_index_sound(&v);
        let idn = v.doc().children(v.doc().children(session)[0])[0];
        v.set_value(idn, "42").unwrap();
        assert_index_sound(&v);
        assert_eq!(v.version(), 4);

        let delta = v.take_delta();
        assert!(!delta.is_empty());
        assert_eq!(delta.removed.len(), 2); // replace + delete
        assert_eq!(delta.inserted.len(), 2); // append + replace
        assert_eq!(delta.value_sites.len(), 1);
        assert!(v.take_delta().is_empty());
    }

    #[test]
    fn opaque_mutations_rebuild() {
        let (_a, mut v) = setup();
        let session = v.doc().children(v.doc().root())[0];
        v.apply_opaque(|doc| {
            let c = doc.children(session)[0];
            edit::delete_subtree(doc, c).unwrap();
        });
        assert_index_sound(&v);
        assert!(v.take_delta().opaque);
    }

    #[test]
    fn errors_leave_state_unchanged() {
        let (a, mut v) = setup();
        let before = to_xml(v.doc());
        let root = v.doc().root();
        assert_eq!(v.delete_subtree(root), Err(EditError::CannotEditRoot));
        let bad = TreeSpec {
            label: a.intern("@x"),
            value: None,
            children: vec![],
        };
        let session = v.doc().children(root)[0];
        let c1 = v.doc().children(session)[0];
        assert!(matches!(
            v.replace_subtree(c1, &bad),
            Err(EditError::BadSpec(_))
        ));
        assert_eq!(to_xml(v.doc()), before);
        assert_eq!(v.version(), 0);
        assert!(v.take_delta().is_empty());
        assert_index_sound(&v);
    }

    #[test]
    fn insertion_under_a_leaf_leaves_state_unchanged() {
        let (a, mut v) = setup();
        let before = to_xml(v.doc());
        let session = v.doc().children(v.doc().root())[0];
        let c1 = v.doc().children(session)[0];
        let idn = v.doc().children(c1)[0];
        let text = v.doc().children(v.doc().children(c1)[1])[0];
        let x = TreeSpec::elem_named(&a, "x", vec![]);
        for parent in [idn, text] {
            assert_eq!(v.append_child(parent, &x), Err(EditError::NotAnElement));
        }
        assert_eq!(to_xml(v.doc()), before);
        assert_eq!(v.version(), 0);
        assert!(v.take_delta().is_empty());
        assert!(v.index().nodes_with_label(a.intern("x")).is_empty());
        assert_index_sound(&v);
    }
}
