//! Value equality (paper Definition 3) and canonical subtree hashing.
//!
//! Two nodes are value-equal (`=V`) when they carry the same label and type,
//! equal string values if they are attribute/text leaves, and — for element
//! nodes — have the same child positions with pairwise value-equal children.
//! In our model this is exactly: the rooted subtrees are isomorphic as
//! ordered labeled valued trees.
//!
//! FD satisfaction checking buckets condition images by a canonical 64-bit
//! hash of the rooted subtree ([`value_hash`]) and confirms candidate
//! collisions with the full structural comparison ([`value_eq`]).

use std::hash::{Hash, Hasher};

use regtree_alphabet::LabelKind;

use crate::model::{Document, NodeId};

/// Structural value equality of two rooted subtrees (possibly across
/// documents sharing an alphabet).
///
/// Iterative, so document depth is bounded by memory, not by the stack.
pub fn value_eq(da: &Document, a: NodeId, db: &Document, b: NodeId) -> bool {
    // Preorder over both trees in step: `siblings` holds the unvisited
    // right siblings of the current pair, `suspended` those of its
    // ancestors. Only a pair with children that is not the last of its
    // siblings suspends anything, so leaves and single-child chains never
    // allocate.
    let mut suspended: Vec<(&[NodeId], &[NodeId])> = Vec::new();
    let mut siblings: (&[NodeId], &[NodeId]) = (&[], &[]);
    let (mut x, mut y) = (a, b);
    loop {
        if da.label(x) != db.label(y) {
            return false;
        }
        // Same label ⇒ same kind (kind is a function of the label).
        if da.kind(x) != db.kind(y) {
            return false;
        }
        match da.kind(x) {
            LabelKind::Attribute | LabelKind::Text => {
                if da.value(x) != db.value(y) {
                    return false;
                }
            }
            LabelKind::Element => {
                let (cx, cy) = (da.children(x), db.children(y));
                if cx.len() != cy.len() {
                    return false;
                }
                if !cx.is_empty() {
                    if !siblings.0.is_empty() {
                        suspended.push(siblings);
                    }
                    siblings = (cx, cy);
                }
            }
        }
        if siblings.0.is_empty() {
            match suspended.pop() {
                Some(run) => siblings = run,
                None => return true,
            }
        }
        (x, y) = (siblings.0[0], siblings.1[0]);
        siblings = (&siblings.0[1..], &siblings.1[1..]);
    }
}

/// Value equality within one document.
pub fn value_eq_in(doc: &Document, a: NodeId, b: NodeId) -> bool {
    value_eq(doc, a, doc, b)
}

/// Canonical hash of a rooted subtree, consistent with [`value_eq`]:
/// `value_eq(a, b) ⇒ value_hash(a) == value_hash(b)`.
///
/// FNV-1a over the preorder stream of (label, value, child count) per
/// node; iterative, like [`value_eq`].
pub fn value_hash(doc: &Document, n: NodeId) -> u64 {
    let mut h = Fnv1a::new();
    // Preorder as in `value_eq`: leaves and single-child chains never
    // suspend a sibling run, so they never allocate.
    let mut suspended: Vec<&[NodeId]> = Vec::new();
    let mut siblings: &[NodeId] = &[];
    let mut n = n;
    loop {
        doc.label(n).0.hash(&mut h);
        match doc.value(n) {
            Some(v) => {
                1u8.hash(&mut h);
                v.hash(&mut h);
            }
            None => 0u8.hash(&mut h),
        }
        let children = doc.children(n);
        children.len().hash(&mut h);
        if !children.is_empty() {
            if !siblings.is_empty() {
                suspended.push(siblings);
            }
            siblings = children;
        }
        if siblings.is_empty() {
            match suspended.pop() {
                Some(run) => siblings = run,
                None => return h.finish(),
            }
        }
        n = siblings[0];
        siblings = &siblings[1..];
    }
}

/// Small, fast, deterministic FNV-1a hasher (stable across runs, unlike the
/// std `DefaultHasher` whose seeding is unspecified between processes).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// New hasher at the FNV offset basis.
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// A hashable key for “the value class of this subtree”, pairing the hash
/// with the (document, node) needed for confirmation.
#[derive(Clone, Copy, Debug)]
pub struct ValueKey {
    /// Canonical subtree hash.
    pub hash: u64,
    /// The keyed node.
    pub node: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{document_from_specs, TreeSpec};
    use regtree_alphabet::Alphabet;

    fn doc_with(a: &Alphabet, specs: &[TreeSpec]) -> Document {
        document_from_specs(a.clone(), specs)
    }

    fn exam(a: &Alphabet, disc: &str, mark: &str) -> TreeSpec {
        TreeSpec::elem_named(
            a,
            "exam",
            vec![
                TreeSpec::elem_named(a, "discipline", vec![TreeSpec::text(disc)]),
                TreeSpec::elem_named(a, "mark", vec![TreeSpec::text(mark)]),
            ],
        )
    }

    #[test]
    fn equal_subtrees_are_value_equal() {
        let a = Alphabet::new();
        let d = doc_with(&a, &[exam(&a, "math", "15"), exam(&a, "math", "15")]);
        let kids = d.children(d.root());
        assert!(value_eq_in(&d, kids[0], kids[1]));
        assert_eq!(value_hash(&d, kids[0]), value_hash(&d, kids[1]));
    }

    #[test]
    fn differing_values_break_equality() {
        let a = Alphabet::new();
        let d = doc_with(&a, &[exam(&a, "math", "15"), exam(&a, "math", "12")]);
        let kids = d.children(d.root());
        assert!(!value_eq_in(&d, kids[0], kids[1]));
    }

    #[test]
    fn differing_structure_breaks_equality() {
        let a = Alphabet::new();
        let short = TreeSpec::elem_named(
            &a,
            "exam",
            vec![TreeSpec::elem_named(
                &a,
                "discipline",
                vec![TreeSpec::text("math")],
            )],
        );
        let d = doc_with(&a, &[exam(&a, "math", "15"), short]);
        let kids = d.children(d.root());
        assert!(!value_eq_in(&d, kids[0], kids[1]));
    }

    #[test]
    fn child_order_matters() {
        let a = Alphabet::new();
        let swapped = TreeSpec::elem_named(
            &a,
            "exam",
            vec![
                TreeSpec::elem_named(&a, "mark", vec![TreeSpec::text("15")]),
                TreeSpec::elem_named(&a, "discipline", vec![TreeSpec::text("math")]),
            ],
        );
        let d = doc_with(&a, &[exam(&a, "math", "15"), swapped]);
        let kids = d.children(d.root());
        assert!(!value_eq_in(&d, kids[0], kids[1]));
    }

    #[test]
    fn equality_across_documents() {
        let a = Alphabet::new();
        let d1 = doc_with(&a, &[exam(&a, "bio", "9")]);
        let d2 = doc_with(&a, &[exam(&a, "bio", "9")]);
        let n1 = d1.children(d1.root())[0];
        let n2 = d2.children(d2.root())[0];
        assert!(value_eq(&d1, n1, &d2, n2));
        assert_eq!(value_hash(&d1, n1), value_hash(&d2, n2));
    }

    #[test]
    fn value_equality_is_equivalence_on_sample() {
        let a = Alphabet::new();
        let d = doc_with(
            &a,
            &[
                exam(&a, "math", "15"),
                exam(&a, "math", "15"),
                exam(&a, "bio", "9"),
            ],
        );
        let nodes = d.all_nodes();
        // Reflexive.
        for &n in &nodes {
            assert!(value_eq_in(&d, n, n));
        }
        // Symmetric + transitive over all pairs/triples of top subtrees.
        let kids = d.children(d.root()).to_vec();
        for &x in &kids {
            for &y in &kids {
                assert_eq!(value_eq_in(&d, x, y), value_eq_in(&d, y, x));
                for &z in &kids {
                    if value_eq_in(&d, x, y) && value_eq_in(&d, y, z) {
                        assert!(value_eq_in(&d, x, z));
                    }
                }
            }
        }
    }

    /// Pinned values of the FNV-1a preorder stream: a change of traversal
    /// must not change any hash.
    #[test]
    fn hashes_are_pinned() {
        let a = Alphabet::new();
        let d = crate::parse_document(
            &a,
            "<s><i k=\"1\"><v>x</v><w/></i><i k=\"2\"><v>y</v></i></s>",
        )
        .unwrap();
        let s = d.children(d.root())[0];
        let i0 = d.children(s)[0];
        let [k, v, w] = d.children(i0) else {
            panic!("i has three children");
        };
        let text = d.children(*v)[0];
        for (n, pinned) in [
            (d.root(), 0xe120_32eb_03fa_268d_u64),
            (s, 0x14f6_3235_e907_cc76),
            (i0, 0x403c_abe6_5e31_c04f),
            (*k, 0x0e7b_dfc6_93da_af84),
            (*v, 0xf074_0cc9_9ddf_7f8a),
            (text, 0xd664_62a7_4186_dd0e),
            (*w, 0x5cb3_62aa_ca06_3fa9),
        ] {
            assert_eq!(value_hash(&d, n), pinned, "n{}", n.0);
        }
        let chain = format!("{}x{}", "<a>".repeat(50), "</a>".repeat(50));
        let deep = crate::parse_document(&a, &chain).unwrap();
        assert_eq!(value_hash(&deep, deep.root()), 0xa5cb_adf3_df93_f953);
    }

    #[test]
    fn hash_is_deterministic() {
        let a = Alphabet::new();
        let d = doc_with(&a, &[exam(&a, "math", "15")]);
        let n = d.children(d.root())[0];
        assert_eq!(value_hash(&d, n), value_hash(&d, n));
    }
}
