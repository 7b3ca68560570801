//! E6 (DESIGN.md): Section 5 — Examples 4–6 and the independence criterion
//! on the paper's running scenario.

use regtree::prelude::*;
use regtree_gen as gen;
use regtree_oracle::in_language_naive;

/// Example 4: the class U on Figure 1 selects exactly one node to update.
#[test]
fn e6_example4_class_u_selection() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    let class = gen::update_class_u(&a);
    let nodes = class.selected_nodes(&doc);
    assert_eq!(nodes.len(), 1, "only one mapping of U on D (Example 4)");
    assert_eq!(doc.label_name(nodes[0]).as_ref(), "level");
    // It is candidate 78's level.
    let cand = doc.parent(nodes[0]).unwrap();
    let idn = doc.children(cand)[0];
    assert_eq!(doc.value(idn), Some("78"));
}

/// Example 5: q1 has an impact on fd3.
#[test]
fn e6_example5_q1_impacts_fd3() {
    let a = gen::exam_alphabet();
    let fd3 = gen::fd3(&a);
    // Construct the document from the example: two candidates with the same
    // marks and the same level, only the first still has exams to pass.
    let doc = parse_document(
        &a,
        "<session>\
         <candidate IDN=\"1\">\
           <exam date=\"a\"><discipline>m</discipline><mark>8</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>8</mark><rank>2</rank></exam>\
           <level>D</level><toBePassed><discipline>m</discipline></toBePassed></candidate>\
         <candidate IDN=\"2\">\
           <exam date=\"a\"><discipline>m</discipline><mark>8</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>8</mark><rank>2</rank></exam>\
           <level>D</level><firstJob-Year>2010</firstJob-Year></candidate>\
         </session>",
    )
    .unwrap();
    gen::exam_schema(&a).validate(&doc).unwrap();
    assert!(satisfies(&fd3, &doc), "D satisfies fd3");
    let after = gen::update_q1(&a).apply_cloned(&doc).unwrap();
    assert!(
        !satisfies(&fd3, &after),
        "q1 decreases only candidate 1's level — fd3 violated in q1(D)"
    );
    // Consequently the criterion must NOT declare (fd3, U) independent.
    let analyzer = Analyzer::builder().schema(gen::exam_schema(&a)).build();
    let analysis = analyzer.independence(&fd3, &gen::update_class_u(&a));
    assert!(!analysis.verdict.is_independent());
}

/// Example 6: with the schema (toBePassed XOR firstJob-Year), fd5 is
/// independent of U; without the schema the criterion cannot conclude.
#[test]
fn e6_example6_schema_enables_independence() {
    let a = gen::exam_alphabet();
    let fd5 = gen::fd5(&a);
    let class = gen::update_class_u(&a);
    let schema = gen::exam_schema(&a);

    let with = Analyzer::builder()
        .schema(schema)
        .build()
        .independence(&fd5, &class);
    assert!(
        with.verdict.is_independent(),
        "updates of U only touch candidates with toBePassed, which fd5 never relates"
    );

    let without = Analyzer::builder().build().independence(&fd5, &class);
    match &without.verdict {
        Verdict::Unknown { witness, .. } => {
            // The witness document must genuinely be in the language L.
            let w = witness.as_ref().expect("witness extracted");
            assert!(in_language_naive(&fd5, &class, w), "witness ∉ L");
        }
        v => panic!("expected Unknown without schema, got {v:?}"),
    }
}

/// Semantic confirmation of Example 6: any label-preserving update of U on
/// any schema-valid document preserves fd5.
#[test]
fn e6_example6_semantic_spotcheck() {
    use rand::SeedableRng;
    let a = gen::exam_alphabet();
    let fd5 = gen::fd5(&a);
    let schema = gen::exam_schema(&a);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let ops = [
        UpdateOp::SetText("Z".into()),
        UpdateOp::AppendChild(TreeSpec::elem_named(&a, "comment", vec![])),
        UpdateOp::Delete,
    ];
    for i in 0..20 {
        let doc = gen::generate_session(&a, 8, 3, &mut rng);
        assert!(schema.validate(&doc).is_ok());
        assert!(satisfies(&fd5, &doc));
        let update = Update::new(gen::update_class_u(&a), ops[i % ops.len()].clone());
        let after = update.apply_cloned(&doc).unwrap();
        assert!(
            satisfies(&fd5, &after),
            "IC promised independence; round {i} broke it"
        );
    }
}

/// The IC automaton sizes scale with the inputs as Proposition 3 states.
#[test]
fn e6_proposition3_size_bound_sanity() {
    let a = gen::exam_alphabet();
    let small_fd = parse_fd(&a, "/session : -> candidate/level").unwrap();
    let big_fd = gen::fd3(&a);
    let class = gen::update_class_u(&a);
    let small = regtree_oracle::build_ic_automaton(&small_fd, &class);
    let big = regtree_oracle::build_ic_automaton(&big_fd, &class);
    assert!(big.num_states() > small.num_states());
    // The state count is exactly (fd states) × (u states) × 2.
    let pa_fd = compile_pattern(big_fd.pattern(), true);
    let pa_u = compile_pattern(class.pattern(), false);
    assert_eq!(
        big.num_states(),
        pa_fd.automaton.num_states() * pa_u.automaton.num_states() * 2
    );
}

/// The criterion is sound but not complete: it may say Unknown for pairs
/// with no real impact (the paper's stated trade-off vs [14]).
#[test]
fn e6_criterion_is_conservative() {
    let a = gen::exam_alphabet();
    // FD whose target is the level; updates rewrite levels — every update
    // *site* is in the FD region, so IC says Unknown…
    let fd = parse_fd(&a, "/session : candidate/@IDN -> candidate/level").unwrap();
    let class = parse_update_class(&a, "/session/candidate/level").unwrap();
    let analysis = Analyzer::builder().build().independence(&fd, &class);
    assert!(!analysis.verdict.is_independent());
    // …even though an update writing the SAME text everywhere can never
    // violate this FD (IDs are unique per candidate). The criterion cannot
    // see the concrete update function `u` — by design.
}
