//! Differential tests for the incremental recheck pipeline.
//!
//! The [`IncrementalChecker`] carries verdicts and bucket state across
//! updates, rechecking only what a delta can have invalidated. The
//! reference is the dumbest sound baseline: after every update, serialize
//! the mutated document, reparse it from scratch, and run the full FD
//! check. On every instance the retained verdict must equal the reparsed
//! one — a single mismatch means the impact scoping reused a verdict it
//! was not entitled to.
//!
//! The same streams pin the one update driver's two edit backends: a
//! plain [`Document`] and a [`VersionedDocument`] must touch the same nodes
//! and end up with the same bytes.
//!
//! The reparse baseline is only as deep as the parser and serializer go,
//! so the same file checks that a very deep document survives the round
//! trip on a test thread's default stack.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regtree::prelude::*;
use regtree_core::update_class_from_edges;
use regtree_gen as gen;
use regtree_oracle::random_spec;
use regtree_xml::VersionedDocument;

const LEVELS: &[&str] = &["A", "B", "C", "D", "E"];

/// One random executable update over the exam vocabulary. The pool mixes
/// edits that cannot reach the FDs (level/firstJob-Year churn), edits
/// engineered to violate them (rank rewrites), structural edits
/// (exam deletion, subtree insertion), context-killing deletions
/// (candidate and whole-session removal, which delete the FDs' context
/// images themselves — the carried-verdict trap for a previously
/// violated FD), and the paper's `q1` level rewrite.
fn random_update(a: &Alphabet, rng: &mut SmallRng) -> Update {
    let edges = |paths: &[&str]| update_class_from_edges(a, paths).expect("exam paths parse");
    let first_only = |op: UpdateOp, rng: &mut SmallRng| {
        if rng.gen_bool(0.5) {
            UpdateOp::FirstOnly(Box::new(op))
        } else {
            op
        }
    };
    match rng.gen_range(0..8u8) {
        0 => Update::new(
            edges(&["session/candidate/level"]),
            UpdateOp::SetText(LEVELS[rng.gen_range(0..LEVELS.len())].to_string()),
        ),
        1 => {
            let op = UpdateOp::SetText(rng.gen_range(1..4u32).to_string());
            Update::new(edges(&["session/candidate/exam/rank"]), first_only(op, rng))
        }
        2 => Update::new(
            edges(&["session/candidate/exam"]),
            first_only(UpdateOp::Delete, rng),
        ),
        3 => {
            let labels: Vec<Symbol> = a
                .symbols()
                .into_iter()
                .filter(|&s| s != Alphabet::ROOT)
                .collect();
            let spec = random_spec(a, &labels, rng.gen_range(1..5usize), rng);
            Update::new(
                edges(&["session/candidate"]),
                first_only(UpdateOp::AppendChild(spec), rng),
            )
        }
        4 => Update::new(
            edges(&["session/candidate/firstJob-Year"]),
            UpdateOp::SetText("2011".to_string()),
        ),
        // Deletes fd2's context images (session/candidate) outright.
        5 => Update::new(
            edges(&["session/candidate"]),
            first_only(UpdateOp::Delete, rng),
        ),
        // Deletes every FD's context region wholesale: any verdict that
        // hinged on the dead contexts must be re-derived, not carried.
        6 => Update::new(edges(&["session"]), UpdateOp::Delete),
        _ => gen::update_q1(a),
    }
}

/// [`random_update`] plus the ops its pool leaves out: `MapText` on ranks,
/// `PrependChild`, a label-preserving `Replace`, a nested `FirstOnly`, a
/// deterministic `Custom` op, a deletion over nested selections, and a
/// label-changing `Replace` that must fail.
fn random_driver_update(a: &Alphabet, rng: &mut SmallRng) -> Update {
    let edges = |paths: &[&str]| update_class_from_edges(a, paths).expect("exam paths parse");
    match rng.gen_range(0..15u8) {
        0..=7 => random_update(a, rng),
        8 => Update::new(
            edges(&["session/candidate/exam/rank"]),
            UpdateOp::MapText(Arc::new(|old: &str| format!("{old}0"))),
        ),
        9 => {
            let labels: Vec<Symbol> = a
                .symbols()
                .into_iter()
                .filter(|&s| s != Alphabet::ROOT)
                .collect();
            let spec = random_spec(a, &labels, rng.gen_range(1..5usize), rng);
            Update::new(edges(&["session/candidate"]), UpdateOp::PrependChild(spec))
        }
        10 => {
            let rank = TreeSpec::elem_named(a, "rank", vec![TreeSpec::text("9")]);
            Update::new(
                edges(&["session/candidate/exam"]),
                UpdateOp::Replace(TreeSpec::elem_named(a, "exam", vec![rank])),
            )
        }
        11 => {
            let inner = UpdateOp::FirstOnly(Box::new(UpdateOp::SetText("F".to_string())));
            Update::new(
                edges(&["session/candidate/level"]),
                UpdateOp::FirstOnly(Box::new(inner)),
            )
        }
        12 => {
            let mark = TreeSpec::elem_named(a, "mark", vec![TreeSpec::text("0")]);
            Update::new(
                edges(&["session/candidate/exam"]),
                UpdateOp::Custom(Arc::new(move |doc: &mut Document, n: NodeId| {
                    regtree_xml::insert_child(doc, n, 0, &mark).expect("exam takes a child");
                })),
            )
        }
        // Every node below the session, in document order: each deletion
        // detaches the selections nested under it.
        13 => Update::new(edges(&["session/_+"]), UpdateOp::Delete),
        _ => Update::new(
            edges(&["session/candidate/level"]),
            UpdateOp::Replace(TreeSpec::elem_named(a, "rank", vec![])),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// The update driver's two backends agree on random update streams:
    /// `apply` on a plain document (and `apply_cloned` beside it) and
    /// `apply_versioned` touch the same nodes, fail with the same error,
    /// and serialize to the same bytes.
    #[test]
    fn document_and_versioned_drivers_agree(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = gen::exam_alphabet();
        let mut plain = gen::generate_session(
            &a,
            rng.gen_range(2..6usize),
            rng.gen_range(1..4usize),
            &mut rng,
        );
        let mut vdoc = VersionedDocument::new(plain.clone());
        for step in 0..3 {
            let update = random_driver_update(&a, &mut rng);
            let mut next = plain.clone();
            let on_plain = update.apply(&mut next).map_err(|e| e.to_string());
            let on_versioned = update.apply_versioned(&mut vdoc).map_err(|e| e.to_string());
            prop_assert_eq!(
                &on_plain,
                &on_versioned,
                "step {} of seed {}: {:?}",
                step, seed, update.op
            );
            let bytes = to_xml(&next);
            if on_plain.is_ok() {
                let cloned = update.apply_cloned(&plain).expect("applied on a clone already");
                prop_assert_eq!(&to_xml(&cloned), &bytes);
            }
            prop_assert_eq!(
                &to_xml(vdoc.doc()),
                &bytes,
                "step {} of seed {}: {:?}",
                step, seed, update.op
            );
            plain = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Incremental verdicts equal reparse-and-recheck verdicts on random
    /// documents × random update streams.
    #[test]
    fn incremental_recheck_matches_reparse(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = gen::exam_alphabet();
        let doc = gen::generate_session(
            &a,
            rng.gen_range(2..6usize),
            rng.gen_range(1..4usize),
            &mut rng,
        );
        let fds = vec![gen::fd1(&a), gen::fd2(&a), gen::fd4(&a)];
        let mut vdoc = VersionedDocument::new(doc);
        let mut checker = IncrementalChecker::new(fds.clone(), &vdoc);
        for step in 0..3 {
            let update = random_update(&a, &mut rng);
            let report = checker
                .apply_and_recheck(&mut vdoc, &update)
                .expect("pool updates never fail to apply");
            prop_assert_eq!(report.scopes.len(), fds.len());
            // Reparse from the serialized bytes: a fully independent
            // document, index, and check. A stream that deleted the whole
            // top-level element leaves nothing to reparse; check the live
            // (empty) document directly — every FD holds vacuously, and
            // the incremental side must agree rather than carry a stale
            // verdict past the dead contexts.
            let reparsed = if vdoc.doc().children(vdoc.doc().root()).is_empty() {
                None
            } else {
                Some(parse_document(&a, &to_xml(vdoc.doc())).expect("roundtrip"))
            };
            for (i, fd) in fds.iter().enumerate() {
                let baseline = match &reparsed {
                    Some(d) => check_fd(fd, d).is_ok(),
                    None => check_fd(fd, vdoc.doc()).is_ok(),
                };
                let incremental = match &report.outcomes[i] {
                    FdOutcome::Satisfied => true,
                    FdOutcome::Violated(_) => false,
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "ungoverned check came back {other:?}"
                        )))
                    }
                };
                prop_assert_eq!(
                    incremental,
                    baseline,
                    "fd {} diverged at step {} (scope {:?}, seed {})",
                    i, step, report.scopes[i], seed
                );
            }
        }
    }
}

/// A 100k-deep document parses, serializes and reparses to the same bytes
/// on the 2 MiB stack of a test thread: neither half recurses per level.
#[test]
fn deep_document_round_trips_through_parse_and_serialize() {
    let a = Alphabet::new();
    let depth = 100_000;
    let src = format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let doc = parse_document(&a, &src).expect("deep parse");
    assert_eq!(doc.len(), depth + 2);
    let xml = to_xml(&doc);
    assert_eq!(xml, src);
    let back = parse_document(&a, &xml).expect("deep reparse");
    assert_eq!(to_xml(&back), xml);
}

/// The same document through an FD check and Definition 3 value equality:
/// subtree hashing and comparison do not recurse per level either.
#[test]
fn deep_document_checks_fds_and_compares_by_value() {
    let a = Alphabet::new();
    let depth = 100_000;
    let src = format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let doc = parse_document(&a, &src).expect("deep parse");
    let fd = parse_fd(&a, "/a : a/a -> a").expect("fd parses");
    assert!(check_fd(&fd, &doc).is_ok());
    let back = parse_document(&a, &to_xml(&doc)).expect("deep reparse");
    assert!(value_eq(&doc, doc.root(), &back, back.root()));
}

/// The checker survives an update stream that empties whole contexts and
/// repopulates them, agreeing with reparse at every step (regression
/// anchor with a fixed seed so failures are reproducible verbatim).
#[test]
fn checker_agrees_across_delete_and_rebuild_cycles() {
    let a = gen::exam_alphabet();
    let mut rng = SmallRng::seed_from_u64(0xE0B1);
    let doc = gen::generate_session(&a, 4, 2, &mut rng);
    let fds = vec![gen::fd1(&a), gen::fd2(&a)];
    let mut vdoc = VersionedDocument::new(doc);
    let mut checker = IncrementalChecker::new(fds.clone(), &vdoc);
    let delete_exams = Update::new(
        update_class_from_edges(&a, &["session/candidate/exam"]).unwrap(),
        UpdateOp::Delete,
    );
    let rebuild = Update::new(
        update_class_from_edges(&a, &["session/candidate"]).unwrap(),
        UpdateOp::AppendChild(TreeSpec::elem_named(
            &a,
            "exam",
            vec![TreeSpec::elem_named(&a, "rank", vec![TreeSpec::text("1")])],
        )),
    );
    for update in [&delete_exams, &rebuild, &delete_exams] {
        checker
            .apply_and_recheck(&mut vdoc, update)
            .expect("applies");
        let reparsed = parse_document(&a, &to_xml(vdoc.doc())).expect("roundtrip");
        for (fd, outcome) in fds.iter().zip(checker.outcomes()) {
            assert_eq!(outcome.is_satisfied(), check_fd(fd, &reparsed).is_ok());
        }
    }
}
