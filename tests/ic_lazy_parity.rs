//! Lazy/eager parity of the independence criterion.
//!
//! The lazy on-the-fly engine (`Analyzer::independence`, backed by
//! `crates/core/src/lazy_ic.rs`) and the eager pipeline of `regtree-oracle`
//! (`check_independence_eager`: full FD×U×bit product, eager schema
//! intersection, worklist emptiness) decide the same language emptiness
//! question. This suite drives both over random FD × update-class ×
//! optional-schema triples and asserts:
//!
//! 1. identical verdicts — for an `Analyzer` with unlimited limits (the
//!    governed engine must be invisible when no budget is set), and
//! 2. every non-`Independent` verdict's witness document is accepted by the
//!    *eager* product automaton (i.e. the lazy engine's reconstructed firing
//!    tree denotes a genuine member of the IC language, schema included).

use std::sync::Arc;

use proptest::prelude::*;
use regtree_alphabet::Alphabet;
use regtree_core::{Analyzer, Fd, SummarySink, UpdateClass, Verdict};
use regtree_hedge::Schema;
use regtree_oracle::{accepts, build_ic_automaton, check_independence_eager, intersect};
use regtree_pattern::{RegularTreePattern, Template};
use regtree_xml::to_xml;

const EDGES: [&str; 7] = ["a", "b", "c", "a/b", "(a|b)", "_", "b/c"];

fn alpha() -> Alphabet {
    Alphabet::with_labels(["a", "b", "c"])
}

/// A random FD over a small template: a context edge, 1–2 condition
/// branches, and a target branch (mirrors the E8 battery's shape).
fn arb_fd() -> impl Strategy<Value = Fd> {
    (
        0..EDGES.len(),
        prop::collection::vec(0..EDGES.len(), 1..=2),
        0..EDGES.len(),
    )
        .prop_map(|(ctx_edge, conditions, target)| {
            let a = alpha();
            let mut t = Template::new(a);
            let ctx = t.add_child_str(t.root(), EDGES[ctx_edge]).unwrap();
            let mut selected = Vec::new();
            for e in conditions {
                selected.push(t.add_child_str(ctx, EDGES[e]).unwrap());
            }
            selected.push(t.add_child_str(ctx, EDGES[target]).unwrap());
            let pattern = RegularTreePattern::new(t, selected).unwrap();
            Fd::with_default_equality(pattern, ctx).unwrap()
        })
}

/// A random monadic update class: a 1–2 hop chain to the updated leaf,
/// optionally with a structural sibling branch.
fn arb_class() -> impl Strategy<Value = UpdateClass> {
    let maybe_sibling = prop_oneof![Just(Option::<usize>::None), (0..EDGES.len()).prop_map(Some),];
    (prop::collection::vec(0..EDGES.len(), 1..=2), maybe_sibling).prop_map(|(hops, sibling)| {
        let a = alpha();
        let mut t = Template::new(a);
        let mut cur = t.root();
        for e in hops {
            cur = t.add_child_str(cur, EDGES[e]).unwrap();
        }
        if let Some(e) = sibling {
            let parent = t.parent(cur).unwrap();
            let _ = t.add_child_str(parent, EDGES[e]);
        }
        UpdateClass::new(RegularTreePattern::monadic(t, cur).unwrap()).unwrap()
    })
}

/// A random small schema over {a, b, c} (same shape pool as the hedge
/// crate's proptests), or `None` for the schema-free criterion.
fn arb_schema_opt() -> impl Strategy<Value = Option<Schema>> {
    let model = prop_oneof![
        Just("EMPTY".to_string()),
        Just("a*".to_string()),
        Just("b?".to_string()),
        Just("(a|b)*".to_string()),
        Just("a b".to_string()),
        Just("c+".to_string()),
        Just("#text".to_string()),
    ];
    let schema = (
        model.clone(),
        model.clone(),
        model,
        prop_oneof![Just("a"), Just("b"), Just("a*"), Just("(a|b)+")],
    )
        .prop_map(|(ma, mb, mc, root)| {
            let a = alpha();
            let text = format!("root: {root}\na: {ma}\nb: {mb}\nc: {mc}\n");
            Schema::parse(&a, &text).expect("generated schema parses")
        });
    prop_oneof![Just(Option::<Schema>::None), schema.prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn lazy_and_eager_agree(fd in arb_fd(), class in arb_class(), schema in arb_schema_opt()) {
        // An Analyzer with no limits set: the governed lazy engine must be
        // verdict-identical to the eager pipeline on every instance.
        let mut builder = Analyzer::builder();
        if let Some(s) = &schema {
            builder = builder.schema(s.clone());
        }
        let lazy = builder.build().independence(&fd, &class);
        let eager = check_independence_eager(&fd, &class, schema.as_ref());
        prop_assert_eq!(
            lazy.verdict.is_independent(),
            eager.is_independent(),
            "analyzer (lazy) and eager disagree (schema: {})",
            schema.is_some()
        );
        // An unlimited run never reports an exhausted resource.
        prop_assert!(lazy.verdict.exhausted().is_none());
        // Tracing parity: attaching a sink that receives every span must
        // change nothing — the identical verdict and the
        // identical work counters (wall times are excluded: they vary run to
        // run, the counters must not).
        let mut traced_builder = Analyzer::builder().tracer(Arc::new(SummarySink::new()));
        if let Some(s) = &schema {
            traced_builder = traced_builder.schema(s.clone());
        }
        let traced = traced_builder.build().independence(&fd, &class);
        prop_assert_eq!(
            traced.verdict.is_independent(),
            lazy.verdict.is_independent(),
            "tracing changed the verdict"
        );
        prop_assert_eq!(traced.explored_states, lazy.explored_states);
        prop_assert_eq!(traced.metrics.states_interned, lazy.metrics.states_interned);
        prop_assert_eq!(traced.metrics.transitions_fired, lazy.metrics.transitions_fired);
        prop_assert_eq!(
            traced.metrics.guard_intersections,
            lazy.metrics.guard_intersections
        );
        prop_assert_eq!(traced.metrics.dfa_steps, lazy.metrics.dfa_steps);
        prop_assert_eq!(traced.metrics.frontier_pushes, lazy.metrics.frontier_pushes);
        prop_assert_eq!(traced.metrics.memo_entries, lazy.metrics.memo_entries);
        prop_assert_eq!(traced.metrics.memo_hits, lazy.metrics.memo_hits);
        // The never-materialized product is at least as large as what the
        // lazy engine actually interned.
        prop_assert!(lazy.explored_states <= lazy.total_states);
        if let Verdict::Unknown { witness: Some(w), .. } = &lazy.verdict {
            // The lazy witness must be a genuine member of the IC language —
            // checked against the eager product automaton, schema included.
            let mut product = build_ic_automaton(&fd, &class);
            if let Some(s) = &schema {
                product = intersect(&product, &s.compile());
            }
            prop_assert!(
                accepts(&product, w),
                "lazy witness rejected by the eager product automaton:\n{}",
                to_xml(w)
            );
        }
    }
}
