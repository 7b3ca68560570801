//! E1–E3 (DESIGN.md): Figures 1–3 of the paper as executable assertions.
//!
//! The paper states exact cardinalities for the Figure 2 evaluations on the
//! Figure 1 document (“four pairs selected by R1 … two pairs selected by
//! R2”) and the order-sensitivity of Figure 3 (R3 nonempty, R4 empty).

use regtree::prelude::*;
use regtree_gen as gen;

#[test]
fn e1_figure1_document_shape() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    doc.check_well_formed().expect("well-formed");
    gen::exam_schema(&a).validate(&doc).expect("schema-valid");

    let stats = doc.stats();
    // One session, two candidates, two exams each.
    assert_eq!(stats.attributes, 2 + 4, "2 @IDN + 4 @date");
    let session = doc.children(doc.root())[0];
    assert_eq!(doc.label_name(session).as_ref(), "session");
    let candidates = doc.children(session);
    assert_eq!(candidates.len(), 2);
    // Candidate 78 has toBePassed; candidate 99 has firstJob-Year.
    let kids78: Vec<String> = doc
        .children(candidates[0])
        .iter()
        .map(|&c| doc.label_name(c).to_string())
        .collect();
    assert!(kids78.contains(&"toBePassed".to_string()));
    let kids99: Vec<String> = doc
        .children(candidates[1])
        .iter()
        .map(|&c| doc.label_name(c).to_string())
        .collect();
    assert!(kids99.contains(&"firstJob-Year".to_string()));
    // Serialization round trip.
    let xml = to_xml(&doc);
    let back = parse_document(&a, &xml).expect("reparses");
    assert!(value_eq(&doc, doc.root(), &back, back.root()));
}

#[test]
fn e2_figure2_r1_selects_four_pairs() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    let result = gen::pattern_r1(&a).evaluate(&doc);
    assert_eq!(result.len(), 4, "the paper: four pairs selected by R1 on D");
    for pair in &result {
        let (e1, e2) = (pair[0], pair[1]);
        assert_eq!(doc.label_name(e1).as_ref(), "exam");
        assert_eq!(doc.label_name(e2).as_ref(), "exam");
        // Different candidates (condition (b) of Definition 2).
        assert_ne!(doc.parent(e1), doc.parent(e2));
        // Document order.
        assert_eq!(doc.doc_order(e1, e2), std::cmp::Ordering::Less);
    }
}

#[test]
fn e2_figure2_r2_selects_two_pairs() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    let result = gen::pattern_r2(&a).evaluate(&doc);
    assert_eq!(result.len(), 2, "the paper: two pairs selected by R2 on D");
    for pair in &result {
        assert_eq!(doc.parent(pair[0]), doc.parent(pair[1]), "same candidate");
        assert_ne!(pair[0], pair[1]);
    }
}

#[test]
fn e2_compiled_automata_agree_with_evaluation() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    for pattern in [
        gen::pattern_r1(&a),
        gen::pattern_r2(&a),
        gen::pattern_r3(&a),
        gen::pattern_r4(&a),
    ] {
        let has = !pattern.evaluate(&doc).is_empty();
        let auto = compile_pattern(&pattern, false);
        assert_eq!(regtree_oracle::accepts(&auto.automaton, &doc), has);
    }
}

#[test]
fn e3_figure3_order_sensitivity() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    let r3 = gen::pattern_r3(&a).evaluate(&doc);
    let r4 = gen::pattern_r4(&a).evaluate(&doc);
    assert_eq!(
        r3.len(),
        2,
        "R3: level subtrees of candidates having passed at least one exam"
    );
    for t in &r3 {
        assert_eq!(doc.label_name(t[0]).as_ref(), "level");
    }
    assert!(
        r4.is_empty(),
        "R4 reverses the sibling order and must select nothing"
    );
}

#[test]
fn e2_scaled_evaluation_grows_quadratically() {
    // R1 on a session with n candidates (2 exams each) selects
    // 2·2·C(n,2)·… ordered cross-candidate pairs; sanity-check the counting
    // on a mid-size instance.
    use rand::SeedableRng;
    let a = gen::exam_alphabet();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    let doc = gen::generate_session(&a, 6, 2, &mut rng);
    let pairs = gen::pattern_r1(&a).evaluate(&doc).len();
    // n=6 candidates, 2 exams each: ordered candidate pairs C(6,2)=15,
    // 2×2 exam choices each → 60.
    assert_eq!(pairs, 60);
    let same = gen::pattern_r2(&a).evaluate(&doc).len();
    // per candidate: 1 ordered in-order pair → 6.
    assert_eq!(same, 6);
}
