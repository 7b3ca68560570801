//! In-place editing primitives.
//!
//! The paper models an update as “replacing the sub-tree `D(w)` rooted at
//! each selected node `w` by a new sub-tree”, and observes that insertions
//! and deletions are replacements at the parent of the insertion/deletion
//! position. [`replace_subtree`] is therefore the fundamental operation;
//! [`insert_child`], [`delete_subtree`] and [`set_value`] are provided as
//! conveniences (each expressible as a parent replacement).
//!
//! Edits tombstone detached nodes; ids of untouched nodes remain stable.
//! The structural edits patch the document's label index when it has been
//! built ([`Document::index`]); value edits leave it as it is, since labels
//! do not change.

use std::sync::Arc;

use regtree_alphabet::LabelKind;

use crate::model::{Document, NodeId};
use crate::spec::TreeSpec;

/// Error raised by edit operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The target node is the reserved root, which cannot be replaced.
    CannotEditRoot,
    /// The target node was already detached by a previous edit.
    Detached,
    /// Index out of bounds for an insertion.
    BadIndex {
        /// Requested position.
        index: usize,
        /// Current number of children.
        len: usize,
    },
    /// `set_value` on a node that carries no value (an element node).
    NotALeafValue,
    /// An insertion under an attribute or text node: only elements (and
    /// the reserved root) take children.
    NotAnElement,
    /// The replacement spec is malformed for the document's alphabet.
    BadSpec(String),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::CannotEditRoot => write!(f, "the reserved root cannot be edited"),
            EditError::Detached => write!(f, "target node is already detached"),
            EditError::BadIndex { index, len } => {
                write!(f, "insert index {index} out of bounds (len {len})")
            }
            EditError::NotALeafValue => write!(f, "node carries no string value"),
            EditError::NotAnElement => write!(f, "only element nodes take children"),
            EditError::BadSpec(msg) => write!(f, "malformed replacement subtree: {msg}"),
        }
    }
}

impl std::error::Error for EditError {}

fn mark_detached(doc: &mut Document, n: NodeId) {
    for d in doc.descendants_or_self(n) {
        doc.nodes[d.index()].alive = false;
    }
    doc.nodes[n.index()].parent = None;
}

/// The parent of `n`, if `n` is an attached non-root node.
pub(crate) fn ensure_editable(doc: &Document, n: NodeId) -> Result<NodeId, EditError> {
    if n == doc.root() {
        return Err(EditError::CannotEditRoot);
    }
    if !doc.is_alive(n) {
        return Err(EditError::Detached);
    }
    doc.parent(n).ok_or(EditError::Detached)
}

/// Replaces the subtree rooted at `n` with `replacement`, returning the id of
/// the new subtree root. The new subtree occupies `n`'s position among its
/// siblings.
pub fn replace_subtree(
    doc: &mut Document,
    n: NodeId,
    replacement: &TreeSpec,
) -> Result<NodeId, EditError> {
    let parent = ensure_editable(doc, n)?;
    replacement
        .check(doc.alphabet())
        .map_err(EditError::BadSpec)?;
    let pos = doc.child_index(n).ok_or(EditError::Detached)?;
    doc.patch_index(|index, doc| index.remove_subtree(doc, n));
    let new_root = replacement.instantiate(doc);
    mark_detached(doc, n);
    doc.nodes[new_root.index()].parent = Some(parent);
    doc.nodes[new_root.index()].pos = pos as u32;
    doc.nodes[parent.index()].children[pos] = new_root;
    doc.patch_index(|index, doc| index.insert_subtree(doc, new_root));
    Ok(new_root)
}

/// Deletes the subtree rooted at `n`.
pub fn delete_subtree(doc: &mut Document, n: NodeId) -> Result<(), EditError> {
    let parent = ensure_editable(doc, n)?;
    let pos = doc.child_index(n).ok_or(EditError::Detached)?;
    doc.patch_index(|index, doc| index.remove_subtree(doc, n));
    mark_detached(doc, n);
    doc.nodes[parent.index()].children.remove(pos);
    doc.renumber_children(parent, pos);
    Ok(())
}

/// Inserts `spec` as the `index`-th child of `parent`, returning the new
/// subtree root. `parent` must be an element: attribute and text nodes are
/// leaves ([`EditError::NotAnElement`]).
pub fn insert_child(
    doc: &mut Document,
    parent: NodeId,
    index: usize,
    spec: &TreeSpec,
) -> Result<NodeId, EditError> {
    if !doc.is_alive(parent) {
        return Err(EditError::Detached);
    }
    if doc.kind(parent) != LabelKind::Element {
        return Err(EditError::NotAnElement);
    }
    spec.check(doc.alphabet()).map_err(EditError::BadSpec)?;
    let len = doc.children(parent).len();
    if index > len {
        return Err(EditError::BadIndex { index, len });
    }
    let new_root = spec.instantiate(doc);
    doc.nodes[new_root.index()].parent = Some(parent);
    doc.nodes[parent.index()].children.insert(index, new_root);
    doc.renumber_children(parent, index);
    doc.patch_index(|index, doc| index.insert_subtree(doc, new_root));
    Ok(new_root)
}

/// Appends `spec` as the last child of `parent`.
#[cfg(test)]
pub(crate) fn append_child(
    doc: &mut Document,
    parent: NodeId,
    spec: &TreeSpec,
) -> Result<NodeId, EditError> {
    let len = doc.children(parent).len();
    insert_child(doc, parent, len, spec)
}

/// Overwrites the string value of an attribute/text leaf.
pub fn set_value(doc: &mut Document, n: NodeId, value: &str) -> Result<(), EditError> {
    if !doc.is_alive(n) {
        return Err(EditError::Detached);
    }
    match doc.kind(n) {
        LabelKind::Attribute | LabelKind::Text => {
            doc.nodes[n.index()].value = Some(Arc::from(value));
            Ok(())
        }
        LabelKind::Element => Err(EditError::NotALeafValue),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::document_from_specs;
    use regtree_alphabet::Alphabet;

    fn setup() -> (Alphabet, Document) {
        let a = Alphabet::new();
        let doc = document_from_specs(
            a.clone(),
            &[TreeSpec::elem_named(
                &a,
                "session",
                vec![
                    TreeSpec::elem_named(
                        &a,
                        "candidate",
                        vec![TreeSpec::attr_named(&a, "@IDN", "78")],
                    ),
                    TreeSpec::elem_named(
                        &a,
                        "candidate",
                        vec![TreeSpec::attr_named(&a, "@IDN", "99")],
                    ),
                ],
            )],
        );
        (a, doc)
    }

    #[test]
    fn replace_preserves_sibling_position() {
        let (a, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let c1 = doc.children(session)[0];
        let new = replace_subtree(
            &mut doc,
            c1,
            &TreeSpec::elem_named(
                &a,
                "candidate",
                vec![TreeSpec::attr_named(&a, "@IDN", "11")],
            ),
        )
        .unwrap();
        assert_eq!(doc.children(session)[0], new);
        assert_eq!(doc.children(session).len(), 2);
        assert!(!doc.is_alive(c1));
        assert!(doc.check_well_formed().is_ok());
        let idn = doc.children(new)[0];
        assert_eq!(doc.value(idn), Some("11"));
    }

    #[test]
    fn delete_removes_from_parent() {
        let (_, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let c2 = doc.children(session)[1];
        delete_subtree(&mut doc, c2).unwrap();
        assert_eq!(doc.children(session).len(), 1);
        assert!(!doc.is_alive(c2));
        assert!(doc.check_well_formed().is_ok());
    }

    #[test]
    fn insert_at_positions() {
        let (a, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let front = insert_child(
            &mut doc,
            session,
            0,
            &TreeSpec::elem_named(&a, "preamble", vec![]),
        )
        .unwrap();
        assert_eq!(doc.children(session)[0], front);
        let back = append_child(
            &mut doc,
            session,
            &TreeSpec::elem_named(&a, "closing", vec![]),
        )
        .unwrap();
        assert_eq!(*doc.children(session).last().unwrap(), back);
        assert_eq!(doc.children(session).len(), 4);
        let err = insert_child(
            &mut doc,
            session,
            99,
            &TreeSpec::elem_named(&a, "x", vec![]),
        );
        assert!(matches!(err, Err(EditError::BadIndex { .. })));
    }

    #[test]
    fn set_value_only_on_leaves() {
        let (_, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let c1 = doc.children(session)[0];
        let idn = doc.children(c1)[0];
        set_value(&mut doc, idn, "42").unwrap();
        assert_eq!(doc.value(idn), Some("42"));
        assert_eq!(set_value(&mut doc, c1, "x"), Err(EditError::NotALeafValue));
    }

    #[test]
    fn only_elements_take_children() {
        let (a, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let c1 = doc.children(session)[0];
        let idn = doc.children(c1)[0];
        let text = append_child(&mut doc, c1, &TreeSpec::text("t")).unwrap();
        let (len, xml) = (doc.len(), crate::to_xml(&doc));
        for parent in [idn, text] {
            assert_eq!(
                append_child(&mut doc, parent, &TreeSpec::elem_named(&a, "x", vec![])),
                Err(EditError::NotAnElement)
            );
            assert!(doc.children(parent).is_empty());
        }
        assert_eq!((doc.len(), crate::to_xml(&doc)), (len, xml));
        assert!(doc.check_well_formed().is_ok());
    }

    #[test]
    fn root_is_protected() {
        let (a, mut doc) = setup();
        let root = doc.root();
        assert_eq!(
            replace_subtree(&mut doc, root, &TreeSpec::elem_named(&a, "x", vec![])),
            Err(EditError::CannotEditRoot)
        );
        assert_eq!(
            delete_subtree(&mut doc, root),
            Err(EditError::CannotEditRoot)
        );
    }

    #[test]
    fn detached_nodes_rejected() {
        let (a, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let c1 = doc.children(session)[0];
        delete_subtree(&mut doc, c1).unwrap();
        assert_eq!(
            replace_subtree(&mut doc, c1, &TreeSpec::elem_named(&a, "x", vec![])),
            Err(EditError::Detached)
        );
    }

    #[test]
    fn malformed_spec_rejected() {
        let (a, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let c1 = doc.children(session)[0];
        let bad = TreeSpec {
            label: a.intern("@attr"),
            value: None,
            children: Vec::new(),
        };
        assert!(matches!(
            replace_subtree(&mut doc, c1, &bad),
            Err(EditError::BadSpec(_))
        ));
        // Document unchanged on failure.
        assert!(doc.is_alive(c1));
        assert!(doc.check_well_formed().is_ok());
    }

    #[test]
    fn compact_after_edits() {
        let (a, mut doc) = setup();
        let session = doc.children(doc.root())[0];
        let c1 = doc.children(session)[0];
        replace_subtree(
            &mut doc,
            c1,
            &TreeSpec::elem_named(&a, "candidate", vec![TreeSpec::attr_named(&a, "@IDN", "5")]),
        )
        .unwrap();
        let live_before = doc.len();
        assert!(doc.arena_len() > live_before);
        doc.compact();
        assert_eq!(doc.arena_len(), live_before);
        assert!(doc.check_well_formed().is_ok());
    }
}
