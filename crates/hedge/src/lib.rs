//! Unranked bottom-up (hedge) tree automata for `regtree`.
//!
//! The paper's Proposition 3 works entirely with “regular Bottom-Up tree
//! automata”: the schema `S` is one (`A_S`), patterns compile to them, and
//! the independence criterion is an emptiness test on their product. This
//! crate provides the automata; `regtree-core` explores their product and
//! decides its emptiness on the fly:
//!
//! * [`HedgeAutomaton`] — nondeterministic bottom-up automata over unranked
//!   trees, with regular horizontal languages ([`regtree_automata::Nfa`]s
//!   whose letters are tree states);
//! * [`compiled`] — the arena/CSR form the lazy product engine runs on;
//! * [`partition`] — guard minterm classes, so guard conjunctions are
//!   word-parallel mask intersections;
//! * [`Schema`] — a DTD-like rule language compiled to automata.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod compiled;
pub mod partition;
pub mod schema;

pub use automaton::{
    generic_element_label, horizontal_epsilon, horizontal_interleaved, horizontal_star,
    HedgeAutomaton, HedgeTransition, LabelGuard, TreeState, ValidationError,
};
pub use compiled::{CompiledAutomaton, Csr, ANY_LETTER};
pub use partition::{iter_classes, GuardMask, GuardPartition};
pub use schema::{Schema, SchemaError};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use regtree_alphabet::Alphabet;
    use regtree_xml::{document_from_specs, Document, TreeSpec};

    /// A fixed alphabet: a, b, c elements (symbols 2, 3, 4).
    fn alpha() -> Alphabet {
        Alphabet::with_labels(["a", "b", "c"])
    }

    /// Random small schema over {a, b, c}: every label gets a random content
    /// model drawn from a few shapes.
    fn arb_schema() -> impl Strategy<Value = Schema> {
        let model = prop_oneof![
            Just("EMPTY".to_string()),
            Just("a*".to_string()),
            Just("b?".to_string()),
            Just("(a|b)*".to_string()),
            Just("a b".to_string()),
            Just("c+".to_string()),
            Just("#text".to_string()),
        ];
        (
            model.clone(),
            model.clone(),
            model,
            prop_oneof![Just("a"), Just("b"), Just("a*"), Just("(a|b)+")],
        )
            .prop_map(|(ma, mb, mc, root)| {
                let a = alpha();
                let text = format!("root: {root}\na: {ma}\nb: {mb}\nc: {mc}\n");
                Schema::parse(&a, &text).expect("generated schema parses")
            })
    }

    /// Random document over {a, b, c} elements and text.
    fn arb_doc() -> impl Strategy<Value = Document> {
        let leaf = prop_oneof![
            (0u32..3).prop_map(|i| TreeSpec::elem(regtree_alphabet::Symbol(i + 2), vec![])),
            Just(TreeSpec::text("t")),
        ];
        let spec = leaf.prop_recursive(3, 24, 3, |inner| {
            ((0u32..3), prop::collection::vec(inner, 0..4))
                .prop_map(|(i, children)| TreeSpec::elem(regtree_alphabet::Symbol(i + 2), children))
        });
        prop::collection::vec(spec, 0..3).prop_map(|tops| document_from_specs(alpha(), &tops))
    }

    /// Reference implementation of schema acceptance by direct recursion.
    fn schema_accepts_ref(schema: &Schema, doc: &Document) -> bool {
        fn node_ok(schema: &Schema, doc: &Document, n: regtree_xml::NodeId) -> bool {
            use regtree_alphabet::LabelKind;
            match doc.kind(n) {
                LabelKind::Attribute | LabelKind::Text => doc.children(n).is_empty(),
                LabelKind::Element => {
                    let Some((_, model)) = schema.rules().iter().find(|(l, _)| *l == doc.label(n))
                    else {
                        return false;
                    };
                    let word: Vec<_> = doc.children(n).iter().map(|&c| doc.label(c)).collect();
                    model.matches(&word) && doc.children(n).iter().all(|&c| node_ok(schema, doc, c))
                }
            }
        }
        let word: Vec<_> = doc
            .children(doc.root())
            .iter()
            .map(|&c| doc.label(c))
            .collect();
        schema.root_model().matches(&word)
            && doc
                .children(doc.root())
                .iter()
                .all(|&c| node_ok(schema, doc, c))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The compiled automaton agrees with direct recursive validation.
        #[test]
        fn compiled_schema_agrees_with_reference(schema in arb_schema(), doc in arb_doc()) {
            let m = schema.compile();
            prop_assert_eq!(m.accepts(&doc), schema_accepts_ref(&schema, &doc));
        }
    }
}
