//! Regular tree patterns (Gire & Idabal 2010, Definition 1–2).
//!
//! The paper's uniform formalism: an n-ary **regular tree pattern** is a
//! tree-shaped template whose edges carry proper regular expressions over
//! XML labels, together with a selected tuple of template nodes. Evaluated
//! on a document it returns the tuples of sub-trees rooted at the selected
//! images, over all *mappings* (embeddings respecting document order,
//! edge languages, and sibling-path disjointness).
//!
//! * [`Template`]/[`RegularTreePattern`] — construction APIs;
//! * [`eval`] — the mapping enumerator (Definition 2 semantics);
//! * [`compile`] — pattern → bottom-up tree automaton (`A_R`, the first
//!   stage of Proposition 3), with optional marking of selected subtrees
//!   used by the independence criterion;
//! * [`lang`] — the textual pattern language (positive CoreXPath plus
//!   counting predicates and value tests, round-tripping printer, spanned
//!   diagnostics); see `docs/PATTERN_LANGUAGE.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod compile;
pub mod eval;
pub mod lang;
pub mod pattern;
pub mod template;

pub use batch::parallel_map;
pub use compile::{compile_pattern, PatternAutomaton};
pub use eval::{
    enumerate_mappings, enumerate_mappings_nfa, project_mappings_anchored_governed,
    project_mappings_governed, Mapping,
};
pub use lang::{parse_pattern, CompiledPattern};
pub use pattern::{PatternError, RegularTreePattern};
pub use template::{Template, TemplateError, TemplateNodeId};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use regtree_alphabet::{Alphabet, Symbol};
    use regtree_xml::{document_from_specs, Document, TreeSpec};

    fn alpha() -> Alphabet {
        Alphabet::with_labels(["a", "b", "c"])
    }

    /// Random documents over three element labels (plus occasional text).
    fn arb_doc() -> impl Strategy<Value = Document> {
        let leaf = prop_oneof![
            (0u32..3).prop_map(|i| TreeSpec::elem(Symbol(i + 2), vec![])),
            Just(TreeSpec::text("t")),
        ];
        let spec = leaf.prop_recursive(3, 20, 3, |inner| {
            ((0u32..3), prop::collection::vec(inner, 0..3))
                .prop_map(|(i, children)| TreeSpec::elem(Symbol(i + 2), children))
        });
        prop::collection::vec(spec, 0..3).prop_map(|tops| document_from_specs(alpha(), &tops))
    }

    /// Random small edge regexes (always proper).
    fn arb_edge() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("c".to_string()),
            Just("a/b".to_string()),
            Just("(a|b)".to_string()),
            Just("_".to_string()),
            Just("_*/a".to_string()),
            Just("a+".to_string()),
            Just("(a|b)/c?".to_string()),
        ]
    }

    /// Random templates: a root plus up to 4 nodes attached to random
    /// earlier nodes.
    fn arb_pattern() -> impl Strategy<Value = RegularTreePattern> {
        (
            prop::collection::vec((arb_edge(), any::<prop::sample::Index>()), 1..5),
            any::<prop::sample::Index>(),
        )
            .prop_map(|(edges, sel)| {
                let a = alpha();
                let mut t = Template::new(a);
                let mut nodes = vec![t.root()];
                for (regex, parent) in edges {
                    let p = nodes[parent.index(nodes.len())];
                    let n = t.add_child_str(p, &regex).expect("edges are proper");
                    nodes.push(n);
                }
                let selected = nodes[1 + sel.index(nodes.len() - 1)];
                RegularTreePattern::monadic(t, selected).expect("valid")
            })
    }

    /// Checks the four conditions of Definition 2 directly on a mapping.
    fn check_definition2(template: &Template, doc: &Document, m: &Mapping) -> Result<(), String> {
        // (1) root to root
        if m.image(template.root()) != doc.root() {
            return Err("root not mapped to root".into());
        }
        // (2) document order preservation over template preorder
        let order = template.preorder();
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (a, b) = (m.image(order[i]), m.image(order[j]));
                if doc.doc_order(a, b) != std::cmp::Ordering::Less {
                    return Err(format!("order violated between t{i} and t{j}"));
                }
            }
        }
        for w in template.preorder() {
            if w == template.root() {
                continue;
            }
            let parent = template.parent(w).unwrap();
            let (u, v) = (m.image(parent), m.image(w));
            // (3) edge path word in the edge language
            let labels = doc
                .labels_on_path(u, v)
                .ok_or_else(|| "image not a strict descendant".to_string())?;
            let word: Vec<u32> = labels.iter().map(|s| s.0).collect();
            if !template.edge_nfa(w).unwrap().accepts(&word) {
                return Err("edge word not in edge language".into());
            }
            // (4) sibling-edge paths share no prefix
            for &sib in template.children(parent) {
                if sib == w {
                    continue;
                }
                let b1 = doc.branch_child(u, m.image(w)).unwrap();
                let b2 = doc.branch_child(u, m.image(sib)).unwrap();
                if b1 == b2 {
                    return Err("sibling paths share a prefix".into());
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every enumerated mapping satisfies Definition 2 verbatim.
        #[test]
        fn mappings_satisfy_definition2(p in arb_pattern(), doc in arb_doc()) {
            for m in p.mappings(&doc) {
                if let Err(e) = check_definition2(p.template(), &doc, &m) {
                    prop_assert!(false, "{}", e);
                }
            }
        }

        /// Mappings are pairwise distinct and evaluation deduplicates.
        #[test]
        fn evaluation_deduplicates(p in arb_pattern(), doc in arb_doc()) {
            let maps = p.mappings(&doc);
            for i in 0..maps.len() {
                for j in (i + 1)..maps.len() {
                    prop_assert_ne!(&maps[i], &maps[j]);
                }
            }
            let eval = p.evaluate(&doc);
            let mut uniq = eval.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), eval.len());
        }

        /// Traces are ancestor-closed subtrees containing all images.
        #[test]
        fn traces_are_subtrees(p in arb_pattern(), doc in arb_doc()) {
            for m in p.mappings(&doc) {
                let trace = m.trace_nodes(&doc);
                for &n in &trace {
                    if let Some(parent) = doc.parent(n) {
                        prop_assert!(trace.contains(&parent));
                    }
                }
                for &img in m.images() {
                    prop_assert!(trace.contains(&img));
                }
            }
        }
    }

    // ---- textual pattern language ------------------------------------

    fn arb_lang_name() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("long-name.x".to_string()),
            Just("_u2".to_string()),
        ]
    }

    fn arb_lang_test() -> impl Strategy<Value = lang::NameTest> {
        // The vendored `prop_oneof!` has no weighted arms; bias toward
        // plain names by selecting a shape index with uneven ranges.
        (0u8..6, arb_lang_name()).prop_map(|(shape, name)| match shape {
            0 => lang::NameTest::Wildcard,
            1 => lang::NameTest::Attribute(name),
            2 => lang::NameTest::Text,
            _ => lang::NameTest::Name(name),
        })
    }

    fn arb_lang_axis() -> impl Strategy<Value = lang::Axis> {
        (0u8..4).prop_map(|shape| match shape {
            0 => lang::Axis::Descendant,
            _ => lang::Axis::Child,
        })
    }

    /// Random steps over the whole grammar: nested predicates (existence,
    /// value tests with escapable strings, counting) up to depth 3.
    fn arb_lang_step() -> impl Strategy<Value = lang::Step> {
        let leaf = (arb_lang_axis(), arb_lang_test()).prop_map(|(axis, test)| lang::Step {
            axis,
            test,
            predicates: vec![],
        });
        leaf.prop_recursive(3, 12, 3, |inner| {
            let relpath =
                prop::collection::vec(inner, 1..3).prop_map(|steps| lang::RelPath { steps });
            let pred =
                (0u8..4, relpath, "[a-z \"\\\\]{0,6}", 0usize..4).prop_map(|(shape, p, v, n)| {
                    match shape {
                        0 => lang::Predicate::ValueEq(p, v),
                        1 => lang::Predicate::AtLeast(n, p),
                        _ => lang::Predicate::Exists(p),
                    }
                });
            (
                arb_lang_axis(),
                arb_lang_test(),
                prop::collection::vec(pred, 0..3),
            )
                .prop_map(|(axis, test, predicates)| lang::Step {
                    axis,
                    test,
                    predicates,
                })
        })
    }

    fn arb_lang_pattern() -> impl Strategy<Value = lang::Pattern> {
        prop::collection::vec(arb_lang_step(), 1..4).prop_map(|steps| lang::Pattern { steps })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// print → parse → compile round-trips: the re-parsed AST is equal
        /// and the compiled templates are structurally identical.
        #[test]
        fn textual_patterns_round_trip(p in arb_lang_pattern()) {
            let text = p.to_text();
            let reparsed = lang::parse_pattern(&text)
                .map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
            prop_assert_eq!(&reparsed, &p, "{}", text);
            let a = alpha();
            let direct = p.compile(&a).expect("compiles");
            let via_text = reparsed.compile(&a).expect("compiles");
            prop_assert_eq!(
                direct.pattern().template().sketch(),
                via_text.pattern().template().sketch()
            );
            prop_assert_eq!(direct.value_tests(), via_text.value_tests());
            // Printing is idempotent: the canonical form is a fixed point.
            prop_assert_eq!(reparsed.to_text(), text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `[count(p) >= n]` agrees with the naive count-and-filter oracle
        /// on random documents for n ∈ {0, 1, 2, 5}.
        #[test]
        fn counting_predicates_match_the_naive_oracle(
            doc in arb_doc(),
            n in (0u8..4).prop_map(|i| [0usize, 1, 2, 5][i as usize]),
        ) {
            let a = alpha();
            for (outer, inner) in [("a", "b"), ("b", "c"), ("a", "a")] {
                let src = format!("/{outer}[count({inner}) >= {n}]");
                let p = lang::CompiledPattern::from_text(&a, &src).expect("parses");
                let mut got: Vec<_> = p.evaluate(&doc).into_iter().map(|t| t[0]).collect();
                got.sort();
                // Oracle: outer-labeled children of the root with at least
                // n inner-labeled children (counting predicates demand n
                // distinct witnessing subtrees; for a single-label path
                // those are exactly the labeled children).
                let mut want: Vec<_> = doc
                    .children(doc.root())
                    .iter()
                    .copied()
                    .filter(|&c| &*doc.label_name(c) == outer)
                    .filter(|&c| {
                        doc.children(c)
                            .iter()
                            .filter(|&&k| &*doc.label_name(k) == inner)
                            .count()
                            >= n
                    })
                    .collect();
                want.sort();
                prop_assert_eq!(&got, &want, "{} on n={}", src, n);
            }
        }
    }
}
