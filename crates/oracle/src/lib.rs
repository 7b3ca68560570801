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
//!   the criterion's precision;
//! * [`membership`] — the bottom-up run of a hedge automaton on a document,
//!   the reference membership test for every compiled automaton.
//!
//! It also holds the paper's experiment code that no binary runs:
//!
//! * [`reduction`] — the PSPACE-hardness gadgets of Proposition 1
//!   (Figures 7–8), behind E7;
//! * [`inclusion`] — regular-expression inclusion, with a classical
//!   engine over complete [`Dfa`]s ([`dfa`]) and an antichain engine;
//! * [`sample`] — [`LangSampler`], random members of a regular language;
//! * [`random`] — random schema-valid documents, regexes, patterns and
//!   update payloads for the soundness proptests and scaling benches.
//!
//! It is never published, and no product crate may take a normal
//! dependency on it: the root package and `regtree-bench` take it as a
//! dev-dependency only.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod dfa;
pub mod eager_ic;
pub mod emptiness;
pub mod impact;
pub mod inclusion;
pub mod membership;
pub mod product;
pub mod random;
pub mod reduction;
pub mod sample;

pub use dfa::Dfa;
pub use eager_ic::{
    build_ic_automaton, check_independence_eager, in_language_naive, EagerAnalysis,
};
pub use emptiness::{
    is_empty_language, realizability, realizability_governed, witness_document,
    witness_document_governed, witness_label, witness_spec,
};
pub use impact::{classify_pair, search_impact, ImpactWitness, PairClassification};
pub use membership::{accepts, run};
pub use product::intersect;
pub use random::{random_document, random_pattern, random_proper_regex, random_regex, random_spec};
pub use reduction::{build_patterns, build_reduction, gadget_alphabet, ReductionInstance};
pub use sample::LangSampler;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use regtree_alphabet::{Alphabet, LabelKind, Symbol};
    use regtree_automata::{Letter, Nfa, Regex};
    use regtree_hedge::Schema;
    use regtree_pattern::{compile_pattern, RegularTreePattern, Template};
    use regtree_xml::{document_from_specs, Document, NodeId, TreeSpec};

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
            (0u32..3).prop_map(|i| TreeSpec::elem(Symbol(i + 2), vec![])),
            Just(TreeSpec::text("t")),
        ];
        let spec = leaf.prop_recursive(3, 24, 3, |inner| {
            ((0u32..3), prop::collection::vec(inner, 0..4))
                .prop_map(|(i, children)| TreeSpec::elem(Symbol(i + 2), children))
        });
        prop::collection::vec(spec, 0..3).prop_map(|tops| document_from_specs(alpha(), &tops))
    }

    /// The validation alphabet: elements a, b, c (declared) and d (never
    /// declared), attributes @k, @v (named by some models) and @u (never
    /// named) — symbols 2 to 8.
    fn validation_alpha() -> Alphabet {
        Alphabet::with_labels(["a", "b", "c", "d", "@k", "@v", "@u"])
    }

    /// Random schemas whose models mention attributes, `#text` and `_`.
    fn arb_validation_schema() -> impl Strategy<Value = Schema> {
        let models = [
            "EMPTY",
            "a*",
            "b?",
            "(a|b)*",
            "a b",
            "c+",
            "#text",
            "@k a*",
            "@k? @v? (a|b)*",
            "_*",
            "_ b",
            "#text | c",
            "@k #text*",
        ];
        let roots = ["a", "b", "a*", "(a|b)+", "_", "_*"];
        (
            0..models.len(),
            0..models.len(),
            0..models.len(),
            0..roots.len(),
        )
            .prop_map(move |(ma, mb, mc, root)| {
                let text = format!(
                    "root: {}\na: {}\nb: {}\nc: {}\n",
                    roots[root], models[ma], models[mb], models[mc]
                );
                Schema::parse(&validation_alpha(), &text).expect("generated schema parses")
            })
    }

    /// Random documents carrying undeclared elements (`d`) and attributes
    /// (`@u`) among declared ones.
    fn arb_validation_doc() -> impl Strategy<Value = Document> {
        let leaf = prop_oneof![
            (0u32..4).prop_map(|i| TreeSpec::elem(Symbol(i + 2), vec![])),
            (0u32..3).prop_map(|i| TreeSpec::attr(Symbol(i + 6), "v")),
            Just(TreeSpec::text("t")),
        ];
        let spec = leaf.prop_recursive(3, 24, 3, |inner| {
            ((0u32..4), prop::collection::vec(inner, 0..4))
                .prop_map(|(i, children)| TreeSpec::elem(Symbol(i + 2), children))
        });
        prop::collection::vec(spec, 0..3)
            .prop_map(|tops| document_from_specs(validation_alpha(), &tops))
    }

    /// DTD reading by direct recursion over the schema's regexes.
    fn schema_accepts_ref(schema: &Schema, doc: &Document) -> bool {
        fn node_ok(schema: &Schema, doc: &Document, n: NodeId) -> bool {
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
        let top = doc.children(doc.root());
        let word: Vec<_> = top.iter().map(|&c| doc.label(c)).collect();
        schema.root_model().matches(&word) && top.iter().all(|&c| node_ok(schema, doc, c))
    }

    /// Random templates over {a, b, c}: a root plus up to 4 nodes attached
    /// to random earlier nodes.
    fn arb_pattern() -> impl Strategy<Value = RegularTreePattern> {
        let edge = prop_oneof![
            Just("a"),
            Just("b"),
            Just("c"),
            Just("a/b"),
            Just("(a|b)"),
            Just("_"),
            Just("_*/a"),
            Just("a+"),
            Just("(a|b)/c?"),
        ];
        (
            prop::collection::vec((edge, any::<prop::sample::Index>()), 1..5),
            any::<prop::sample::Index>(),
        )
            .prop_map(|(edges, sel)| {
                let mut t = Template::new(alpha());
                let mut nodes = vec![t.root()];
                for (regex, parent) in edges {
                    let p = nodes[parent.index(nodes.len())];
                    nodes.push(t.add_child_str(p, regex).expect("edges are proper"));
                }
                let selected = nodes[1 + sel.index(nodes.len() - 1)];
                RegularTreePattern::monadic(t, selected).expect("valid")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `A_S` accepts exactly the documents `Schema::validate` admits,
        /// which are exactly those of the DTD reading; a rejected
        /// document's error names the first node, in document order, that
        /// the `A_S` run leaves stateless while all its children have a
        /// state.
        #[test]
        fn validation_agrees_with_the_schema_automaton(
            schema in arb_validation_schema(),
            doc in arb_validation_doc(),
        ) {
            let states = run(&schema.compile(), &doc);
            let verdict = schema.validate(&doc);
            prop_assert_eq!(accepts(&schema.compile(), &doc), verdict.is_ok());
            prop_assert_eq!(schema_accepts_ref(&schema, &doc), verdict.is_ok());
            let origin = doc.all_nodes().into_iter().find(|&n| {
                states[n.index()].is_empty()
                    && doc.children(n).iter().all(|c| !states[c.index()].is_empty())
            });
            prop_assert_eq!(verdict.err().map(|e| e.node), origin);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The compiled pattern automaton, marked or not, accepts exactly
        /// the documents with at least one mapping.
        #[test]
        fn automaton_matches_evaluator(p in arb_pattern(), doc in arb_doc()) {
            let has_mapping = !p.mappings(&doc).is_empty();
            prop_assert_eq!(accepts(&compile_pattern(&p, false).automaton, &doc), has_mapping);
            prop_assert_eq!(accepts(&compile_pattern(&p, true).automaton, &doc), has_mapping);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Product automaton = language intersection on random docs.
        #[test]
        fn product_is_intersection(s1 in arb_schema(), s2 in arb_schema(), doc in arb_doc()) {
            let m1 = s1.compile();
            let m2 = s2.compile();
            let prod = intersect(&m1, &m2);
            prop_assert_eq!(accepts(&prod, &doc), accepts(&m1, &doc) && accepts(&m2, &doc));
        }

        /// Emptiness witnesses are genuine members; emptiness of the product
        /// is sound on sampled documents.
        #[test]
        fn emptiness_witnesses(s1 in arb_schema(), s2 in arb_schema(), doc in arb_doc()) {
            let a = alpha();
            let prod = intersect(&s1.compile(), &s2.compile());
            match witness_document(&prod, &a) {
                Some(w) => prop_assert!(accepts(&prod, &w), "witness rejected"),
                None => prop_assert!(!accepts(&prod, &doc), "empty language accepted a doc"),
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

    /// Strategy producing arbitrary regexes over `k` letters.
    fn arb_regex(k: u32) -> impl Strategy<Value = Regex> {
        let leaf = prop_oneof![
            (0..k).prop_map(|i| Regex::Atom(Symbol(i + 2))), // skip reserved
            Just(Regex::AnyAtom),
            Just(Regex::Epsilon),
        ];
        leaf.prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::seq),
                prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
                inner.clone().prop_map(Regex::star),
                inner.clone().prop_map(Regex::plus),
                inner.prop_map(Regex::opt),
            ]
        })
    }

    fn arb_word(k: u32) -> impl Strategy<Value = Vec<Symbol>> {
        prop::collection::vec((0..k).prop_map(|i| Symbol(i + 2)), 0..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// NFA, DFA and derivative matchers agree on membership.
        #[test]
        fn engines_agree(r in arb_regex(3), w in arb_word(3)) {
            let nfa = Nfa::from_regex(&r);
            let universe: Vec<Letter> = (2..5).collect();
            let dfa = Dfa::from_nfa(&nfa, &universe);
            let letters: Vec<Letter> = w.iter().map(|s| s.0).collect();
            let by_deriv = r.matches(&w);
            prop_assert_eq!(nfa.accepts(&letters), by_deriv);
            prop_assert_eq!(dfa.accepts(&letters), by_deriv);
        }

        /// Minimization preserves membership.
        #[test]
        fn minimize_preserves(r in arb_regex(3), w in arb_word(3)) {
            let universe: Vec<Letter> = (2..5).collect();
            let dfa = Dfa::from_nfa(&Nfa::from_regex(&r), &universe);
            let min = dfa.minimize();
            let letters: Vec<Letter> = w.iter().map(|s| s.0).collect();
            prop_assert_eq!(dfa.accepts(&letters), min.accepts(&letters));
        }

        /// Complement is an involution and flips membership.
        #[test]
        fn complement_laws(r in arb_regex(3), w in arb_word(3)) {
            let universe: Vec<Letter> = (2..5).collect();
            let dfa = Dfa::from_nfa(&Nfa::from_regex(&r), &universe);
            let letters: Vec<Letter> = w.iter().map(|s| s.0).collect();
            let comp = dfa.complement();
            prop_assert_eq!(dfa.accepts(&letters), !comp.accepts(&letters));
            prop_assert_eq!(comp.complement().accepts(&letters), dfa.accepts(&letters));
        }

        /// Product automata implement boolean language operations.
        #[test]
        fn product_laws(r1 in arb_regex(3), r2 in arb_regex(3), w in arb_word(3)) {
            let universe: Vec<Letter> = (2..5).collect();
            let d1 = Dfa::from_nfa(&Nfa::from_regex(&r1), &universe);
            let d2 = Dfa::from_nfa(&Nfa::from_regex(&r2), &universe);
            let letters: Vec<Letter> = w.iter().map(|s| s.0).collect();
            let (m1, m2) = (d1.accepts(&letters), d2.accepts(&letters));
            prop_assert_eq!(d1.intersect(&d2).accepts(&letters), m1 && m2);
            prop_assert_eq!(d1.union(&d2).accepts(&letters), m1 || m2);
            prop_assert_eq!(d1.difference(&d2).accepts(&letters), m1 && !m2);
        }

        /// Antichain and classical inclusion agree; witnesses are genuine.
        #[test]
        fn inclusion_engines_agree(r1 in arb_regex(2), r2 in arb_regex(2)) {
            let universe: Vec<Letter> = (2..4).collect();
            let n1 = Nfa::from_regex(&r1);
            let n2 = Nfa::from_regex(&r2);
            let anti = inclusion::nfa_included(&n1, &n2, &universe);
            let d1 = Dfa::from_nfa(&n1, &universe);
            let d2 = Dfa::from_nfa(&n2, &universe);
            let classic = inclusion::dfa_included(&d1, &d2);
            prop_assert_eq!(anti.is_ok(), classic.is_ok());
            if let Err(w) = anti {
                prop_assert!(n1.accepts(&w));
                prop_assert!(!n2.accepts(&w));
            }
        }

        /// Sampled words are language members.
        #[test]
        fn samples_are_members(r in arb_regex(3), seed in any::<u64>(), len in 0usize..12) {
            use rand::SeedableRng;
            let nfa = Nfa::from_regex(&r);
            let universe: Vec<Letter> = (2..5).collect();
            let sampler = LangSampler::new(&nfa, &universe);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            match sampler.sample(&mut rng, len) {
                Some(w) => prop_assert!(nfa.accepts(&w)),
                None => prop_assert!(Dfa::from_nfa(&nfa, &universe).is_empty_language()),
            }
        }
    }
}
