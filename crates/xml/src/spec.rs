//! Arena-independent tree values.
//!
//! A [`TreeSpec`] is an owned description of a subtree — the “new sub-tree”
//! an update function `u` substitutes at a selected node (paper Section 4).
//! Specs can be built programmatically, extracted from documents, grafted
//! back in, and compared.

use std::sync::Arc;

use regtree_alphabet::{Alphabet, LabelKind, Symbol};

use crate::model::{Document, NodeId};

/// An owned subtree description.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TreeSpec {
    /// Node label.
    pub label: Symbol,
    /// Value for attribute/text nodes.
    pub value: Option<Arc<str>>,
    /// Ordered children.
    pub children: Vec<TreeSpec>,
}

impl TreeSpec {
    /// An element node spec.
    pub fn elem(label: Symbol, children: Vec<TreeSpec>) -> TreeSpec {
        TreeSpec {
            label,
            value: None,
            children,
        }
    }

    /// An element node spec, interning the label name.
    pub fn elem_named(alphabet: &Alphabet, name: &str, children: Vec<TreeSpec>) -> TreeSpec {
        TreeSpec::elem(alphabet.intern(name), children)
    }

    /// An attribute leaf spec.
    pub fn attr(label: Symbol, value: &str) -> TreeSpec {
        TreeSpec {
            label,
            value: Some(Arc::from(value)),
            children: Vec::new(),
        }
    }

    /// An attribute leaf spec, interning the label name (`@`-prefixed).
    pub fn attr_named(alphabet: &Alphabet, name: &str, value: &str) -> TreeSpec {
        debug_assert!(name.starts_with('@'), "attribute labels start with '@'");
        TreeSpec::attr(alphabet.intern(name), value)
    }

    /// A text leaf spec.
    pub fn text(value: &str) -> TreeSpec {
        TreeSpec {
            label: Alphabet::TEXT,
            value: Some(Arc::from(value)),
            children: Vec::new(),
        }
    }

    /// Number of nodes in the spec.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        1 + self.children.iter().map(TreeSpec::len).sum::<usize>()
    }

    /// Extracts the subtree rooted at `n` from a document (deep copy).
    pub fn from_document(doc: &Document, n: NodeId) -> TreeSpec {
        TreeSpec {
            label: doc.label(n),
            value: doc.value(n).map(Arc::from),
            children: doc
                .children(n)
                .iter()
                .map(|&c| TreeSpec::from_document(doc, c))
                .collect(),
        }
    }

    /// Structural validity against an alphabet's label partition.
    pub fn check(&self, alphabet: &Alphabet) -> Result<(), String> {
        match alphabet.kind(self.label) {
            LabelKind::Element => {
                if self.value.is_some() {
                    return Err(format!(
                        "element spec '{}' carries a value",
                        alphabet.name(self.label)
                    ));
                }
            }
            LabelKind::Attribute | LabelKind::Text => {
                if !self.children.is_empty() {
                    return Err(format!(
                        "leaf spec '{}' has children",
                        alphabet.name(self.label)
                    ));
                }
                if self.value.is_none() {
                    return Err(format!(
                        "leaf spec '{}' has no value",
                        alphabet.name(self.label)
                    ));
                }
            }
        }
        for c in &self.children {
            c.check(alphabet)?;
        }
        Ok(())
    }

    /// Materializes the spec as a fresh detached subtree in `doc`'s arena,
    /// returning its root id (parentless until attached).
    pub(crate) fn instantiate(&self, doc: &mut Document) -> NodeId {
        let id = doc.push_node(self.label, None, self.value.clone());
        for c in &self.children {
            let cid = c.instantiate(doc);
            doc.attach(id, cid);
        }
        id
    }
}

/// Builds a whole document from specs placed under the reserved root.
pub fn document_from_specs(alphabet: Alphabet, top: &[TreeSpec]) -> Document {
    let mut doc = Document::new(alphabet);
    let root = doc.root();
    for spec in top {
        let id = spec.instantiate(&mut doc);
        doc.attach(root, id);
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_roundtrip() {
        let a = Alphabet::new();
        let spec = TreeSpec::elem_named(
            &a,
            "exam",
            vec![
                TreeSpec::elem_named(&a, "discipline", vec![TreeSpec::text("math")]),
                TreeSpec::attr_named(&a, "@weight", "2"),
            ],
        );
        assert!(spec.check(&a).is_ok());
        assert_eq!(spec.len(), 4);
        let doc = document_from_specs(a, std::slice::from_ref(&spec));
        assert!(doc.check_well_formed().is_ok());
        let exam = doc.children(doc.root())[0];
        let extracted = TreeSpec::from_document(&doc, exam);
        assert_eq!(extracted, spec);
    }

    #[test]
    fn check_rejects_malformed() {
        let a = Alphabet::new();
        let bad_attr = TreeSpec {
            label: a.intern("@x"),
            value: None,
            children: Vec::new(),
        };
        assert!(bad_attr.check(&a).is_err());
        let bad_elem = TreeSpec {
            label: a.intern("e"),
            value: Some(Arc::from("v")),
            children: Vec::new(),
        };
        assert!(bad_elem.check(&a).is_err());
        let bad_text = TreeSpec {
            label: Alphabet::TEXT,
            value: Some(Arc::from("t")),
            children: vec![TreeSpec::text("nested")],
        };
        assert!(bad_text.check(&a).is_err());
    }

    #[test]
    fn multiple_top_level_specs() {
        let a = Alphabet::new();
        let doc = document_from_specs(
            a.clone(),
            &[
                TreeSpec::elem_named(&a, "one", vec![]),
                TreeSpec::elem_named(&a, "two", vec![]),
            ],
        );
        assert_eq!(doc.children(doc.root()).len(), 2);
        assert_eq!(doc.len(), 3);
    }
}
