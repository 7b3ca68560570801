//! `regtree-oracle` — reference implementations for tests and benches.
//!
//! The product decides the independence criterion with one lazy engine
//! (`regtree-core`) that never materializes the automaton of Proposition 3.
//! This crate keeps the slow, direct constructions that the parity suites
//! compare it against, and that the E9–E11 experiments measure:
//!
//! * [`product`] — intersection of two hedge automata (the `A_S × B`
//!   product of Proposition 3);
//! * [`emptiness`] — the polynomial realizability fixpoint with
//!   witness-document extraction;
//! * [`eager_ic`] — the eager IC pipeline (materialized FD×U×bit product,
//!   schema product, emptiness) and the direct Definition 6 membership test;
//! * [`impact`] — a bounded search that confirms actual impacts, measuring
//!   the criterion's precision.
//!
//! It is never published, and no product crate may take a normal
//! dependency on it: the root package and `regtree-bench` take it as a
//! dev-dependency only.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod eager_ic;
pub mod emptiness;
pub mod impact;
pub mod product;

pub use eager_ic::{
    build_ic_automaton, check_independence_eager, in_language_naive, EagerAnalysis,
};
pub use emptiness::{
    is_empty_language, realizability, realizability_governed, witness_document,
    witness_document_governed, witness_label, witness_spec,
};
pub use impact::{classify_pair, search_impact, ImpactWitness, PairClassification};
pub use product::intersect;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use regtree_alphabet::Alphabet;
    use regtree_hedge::Schema;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Product automaton = language intersection on random docs.
        #[test]
        fn product_is_intersection(s1 in arb_schema(), s2 in arb_schema(), doc in arb_doc()) {
            let m1 = s1.compile();
            let m2 = s2.compile();
            let prod = intersect(&m1, &m2);
            prop_assert_eq!(prod.accepts(&doc), m1.accepts(&doc) && m2.accepts(&doc));
        }

        /// Emptiness witnesses are genuine members; emptiness of the product
        /// is sound on sampled documents.
        #[test]
        fn emptiness_witnesses(s1 in arb_schema(), s2 in arb_schema(), doc in arb_doc()) {
            let a = alpha();
            let prod = intersect(&s1.compile(), &s2.compile());
            match witness_document(&prod, &a) {
                Some(w) => prop_assert!(prod.accepts(&w), "witness rejected"),
                None => prop_assert!(!prod.accepts(&doc), "empty language accepted a doc"),
            }
        }

        /// A schema's own witness validates against the schema.
        #[test]
        fn schema_witness_validates(schema in arb_schema()) {
            let a = alpha();
            let m = schema.compile();
            if let Some(w) = witness_document(&m, &a) {
                prop_assert!(schema.validate(&w).is_ok());
            }
        }
    }
}
