//! Versioned documents: in-place edits that record what they touched.
//!
//! A [`VersionedDocument`] is a [`Document`] plus a version counter and the
//! [`Delta`] of the edits since the last [`VersionedDocument::take_delta`].
//! Its methods run the [`crate::edit`] primitives in place, which keep the
//! document's own label index in step ([`Document::index`]); each one bumps
//! the version and records its edit sites, detached and grafted subtree
//! roots, touched value leaves and a Bloom mask over every touched label.
//! Incremental FD checking consumes the delta to scope its rechecks, and
//! `Update::apply` in `regtree-core` runs every update through these
//! methods.

use crate::edit::{self, EditError};
use crate::index::label_mask;
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

/// A [`Document`] whose edits are versioned and recorded as a [`Delta`].
///
/// All mutation goes through the delta methods below (or
/// [`apply_opaque`](VersionedDocument::apply_opaque) for arbitrary surgery).
#[derive(Clone, Debug)]
pub struct VersionedDocument {
    doc: Document,
    version: u64,
    pending: Delta,
}

impl VersionedDocument {
    /// Wraps a document at version 0 with an empty delta.
    pub fn new(doc: Document) -> VersionedDocument {
        VersionedDocument {
            doc,
            version: 0,
            pending: Delta::default(),
        }
    }

    /// The current document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Unwraps the document, dropping the version and any pending delta.
    pub fn into_doc(self) -> Document {
        self.doc
    }

    /// Monotone edit counter (bumped once per mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Takes the delta accumulated since the last call (or construction).
    pub fn take_delta(&mut self) -> Delta {
        std::mem::take(&mut self.pending)
    }

    /// [`edit::replace_subtree`] as a delta.
    pub fn replace_subtree(&mut self, n: NodeId, spec: &TreeSpec) -> Result<NodeId, EditError> {
        let parent = edit::ensure_editable(&self.doc, n)?;
        let old_mask = self.doc.index().subtree_mask(n);
        let new_root = edit::replace_subtree(&mut self.doc, n, spec)?;
        self.pending.sites.push(parent);
        self.pending.removed.push((parent, n));
        self.pending.inserted.push(new_root);
        self.pending.dirty_mask |= old_mask | self.doc.index().subtree_mask(new_root);
        self.version += 1;
        Ok(new_root)
    }

    /// [`edit::delete_subtree`] as a delta.
    pub fn delete_subtree(&mut self, n: NodeId) -> Result<(), EditError> {
        let parent = edit::ensure_editable(&self.doc, n)?;
        let old_mask = self.doc.index().subtree_mask(n);
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
        self.pending.sites.push(parent);
        self.pending.inserted.push(new_root);
        self.pending.dirty_mask |= self.doc.index().subtree_mask(new_root);
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

    /// [`edit::set_value`] as a delta.
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

    /// Arbitrary document surgery: runs `f` and marks the delta opaque
    /// (scoped rechecking impossible). Edits inside `f` keep the label
    /// index in step like any other edit.
    pub fn apply_opaque<R>(&mut self, f: impl FnOnce(&mut Document) -> R) -> R {
        let r = f(&mut self.doc);
        self.pending.opaque = true;
        self.version += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::assert_index_sound;
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

    #[test]
    fn versioned_edits_maintain_index() {
        let (a, mut v) = setup();
        let session = v.doc().children(v.doc().root())[0];
        let c1 = v.doc().children(session)[0];
        let lvl = v.doc().children(c1)[1];

        v.append_child(session, &TreeSpec::elem_named(&a, "closing", vec![]))
            .unwrap();
        assert_index_sound(v.doc());
        v.replace_subtree(
            lvl,
            &TreeSpec::elem_named(&a, "level", vec![TreeSpec::text("C")]),
        )
        .unwrap();
        assert_index_sound(v.doc());
        let c2 = v.doc().children(session)[1];
        v.delete_subtree(c2).unwrap();
        assert_index_sound(v.doc());
        let idn = v.doc().children(v.doc().children(session)[0])[0];
        v.set_value(idn, "42").unwrap();
        assert_index_sound(v.doc());
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
        v.doc().index();
        v.apply_opaque(|doc| {
            let c = doc.children(session)[0];
            edit::delete_subtree(doc, c).unwrap();
        });
        assert_index_sound(v.doc());
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
        assert_index_sound(v.doc());
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
        assert!(v.doc().index().nodes_with_label(a.intern("x")).is_empty());
        assert_index_sound(v.doc());
    }
}
