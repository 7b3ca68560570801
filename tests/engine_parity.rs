//! Differential tests between the two pattern-evaluation engines.
//!
//! The production engine steps cached edge DFAs and prunes with the
//! document label index; the reference engine threads NFA state sets with
//! no pruning. On every instance both must return *identical* mapping
//! lists (same mappings, same order), and the batch/parallel entry points
//! must agree with their sequential counterparts.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regtree::prelude::*;
use regtree_core::update_class_from_edges;
use regtree_gen as gen;
use regtree_oracle::{random_document, random_pattern};
use regtree_pattern::{enumerate_mappings, enumerate_mappings_nfa, parallel_map};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// DFA and NFA engines enumerate identical mapping sets on random
    /// templates × random schema-valid documents.
    #[test]
    fn dfa_and_nfa_engines_agree(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = gen::exam_alphabet();
        let schema = gen::exam_schema(&a);
        let doc = random_document(&schema, rng.gen_range(1..5usize), &mut rng);
        let labels: Vec<Symbol> = a
            .symbols()
            .into_iter()
            .filter(|&s| s != Alphabet::ROOT)
            .collect();
        let pattern = random_pattern(&a, &labels, rng.gen_range(1..4usize), &mut rng);
        let fast = enumerate_mappings(pattern.template(), &doc);
        let reference = enumerate_mappings_nfa(pattern.template(), &doc);
        prop_assert_eq!(fast, reference);
    }
}

#[test]
fn engines_agree_on_figure1_and_paper_patterns() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    // R4 (two exams in the same failed discipline) matches nothing on the
    // pristine Figure 1 document — the engines must agree on that too.
    let expected_counts = [4, 2, 4, 0];
    for (p, &count) in [
        gen::pattern_r1(&a),
        gen::pattern_r2(&a),
        gen::pattern_r3(&a),
        gen::pattern_r4(&a),
    ]
    .iter()
    .zip(&expected_counts)
    {
        let fast = enumerate_mappings(p.template(), &doc);
        let reference = enumerate_mappings_nfa(p.template(), &doc);
        assert_eq!(fast, reference);
        assert_eq!(fast.len(), count);
    }
}

#[test]
fn parallel_fd_check_agrees_with_sequential_on_figure1() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    let fds = vec![
        gen::fd1(&a),
        gen::fd2(&a),
        gen::fd3(&a),
        gen::fd4(&a),
        gen::fd5(&a),
    ];
    let parallel = Analyzer::builder().build().check_fds(&fds, &doc);
    assert_eq!(parallel.outcomes.len(), fds.len());
    for (fd, par) in fds.iter().zip(&parallel.outcomes) {
        assert_eq!(par.is_satisfied(), check_fd(fd, &doc).is_ok());
        assert!(par.is_satisfied(), "Figure 1 satisfies fd1–fd5");
    }
}

#[test]
fn parallel_fd_check_agrees_on_schema_valid_sessions() {
    let a = gen::exam_alphabet();
    let schema = gen::exam_schema(&a);
    let fds = vec![gen::fd1(&a), gen::fd2(&a), gen::fd4(&a), gen::fd5(&a)];
    let mut rng = SmallRng::seed_from_u64(42);
    for _ in 0..5 {
        let doc = gen::generate_session(&a, 8, 3, &mut rng);
        schema.validate(&doc).expect("generator emits valid docs");
        let parallel = Analyzer::builder().build().check_fds(&fds, &doc);
        for (fd, par) in fds.iter().zip(&parallel.outcomes) {
            match (par.is_satisfied(), check_fd(fd, &doc)) {
                (true, Ok(())) => {}
                (false, Err(_)) => {}
                (p, s) => panic!("parallel satisfied={p:?} != sequential {s:?}"),
            }
        }
    }
}

#[test]
fn batch_evaluate_many_agrees_with_sequential() {
    let a = gen::exam_alphabet();
    let mut rng = SmallRng::seed_from_u64(7);
    let docs: Vec<Document> = (0..4)
        .map(|i| gen::generate_session(&a, 2 + i, 2, &mut rng))
        .collect();
    let patterns = [
        gen::pattern_r1(&a),
        gen::pattern_r2(&a),
        gen::pattern_r3(&a),
        gen::pattern_r4(&a),
    ];
    let batch = parallel_map(&docs, |doc| {
        patterns.iter().map(|p| p.evaluate(doc)).collect::<Vec<_>>()
    });
    for (d, doc) in docs.iter().enumerate() {
        for (p, pat) in patterns.iter().enumerate() {
            assert_eq!(batch[d][p], pat.evaluate(doc), "doc {d} pattern {p}");
        }
    }
}

#[test]
fn revalidate_full_many_agrees_with_single() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    let fds = vec![gen::fd1(&a), gen::fd2(&a), gen::fd3(&a)];
    // A custom op giving every rank its own value: the two math/15 exams
    // of Figure 1 then disagree on their rank, which violates fd1.
    let uneven_ranks = Update::new(
        update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap(),
        UpdateOp::Custom(Arc::new(|doc: &mut Document, n: NodeId| {
            let value = format!("r{}", n.index());
            for k in doc.children(n).to_vec() {
                regtree_xml::set_value(doc, k, &value).expect("rank text takes a value");
            }
        })),
    );
    let analyzer = Analyzer::builder().build();
    let q1 = gen::update_q1(&a);
    for update in [&q1, &uneven_ranks] {
        let after = update.apply_cloned(&doc).unwrap();
        let many = analyzer.check_fds(&fds, &after);
        for (fd, m) in fds.iter().zip(&many.outcomes) {
            let single = check_fd(fd, &after);
            assert_eq!(m.is_satisfied(), single.is_ok(), "{:?}", update.op);
        }
    }
    let after = uneven_ranks.apply_cloned(&doc).unwrap();
    let many = analyzer.check_fds(&fds, &after);
    assert!(
        matches!(many.outcomes[0], FdOutcome::Violated(_)),
        "uneven ranks violate fd1"
    );
}
