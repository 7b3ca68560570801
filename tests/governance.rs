//! Resource governance: budgets and cancellation never produce a *wrong*
//! verdict — only a graceful `Unknown { exhausted }` — and partial results
//! (matrix cells, batch outcomes) are always complete and well-formed.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regtree::prelude::*;
use regtree_core::RunOverrides;
use regtree_gen as gen;
use regtree_xml::VersionedDocument;

/// A starved run (1-state budget) must either agree with the unlimited run
/// or report `Unknown { exhausted: Some(States) }` — never flip a verdict.
#[test]
fn one_state_budget_is_unknown_never_wrong() {
    let a = gen::exam_alphabet();
    let schema = gen::exam_schema(&a);
    let class_u = gen::update_class_u(&a);
    let fds = [gen::fd1(&a), gen::fd3(&a), gen::fd5(&a)];

    let unlimited = Analyzer::builder().schema(schema.clone()).build();
    let starved = Analyzer::builder()
        .schema(schema)
        .limits(RunLimits::default().with_max_states(1))
        .build();

    for fd in &fds {
        let full = unlimited.independence(fd, &class_u);
        let cut = starved.independence(fd, &class_u);
        match &cut.verdict {
            // If the starved run still decided, it must agree.
            Verdict::Independent => {
                assert!(
                    full.verdict.is_independent(),
                    "budgeted run said Independent where the unlimited run did not"
                );
            }
            Verdict::Unknown {
                exhausted, witness, ..
            } => {
                if let Some(r) = exhausted {
                    assert_eq!(*r, Resource::States, "wrong resource reported");
                    // An exhausted run must not fabricate a witness.
                    assert!(witness.is_none(), "exhausted run produced a witness");
                } else {
                    // A genuine (non-exhausted) Unknown must agree with the
                    // unlimited run's verdict.
                    assert!(!full.verdict.is_independent());
                }
            }
            other => panic!("unexpected verdict: {other:?}"),
        }
        // Metrics are populated even on a cut-short run (the counter
        // records the entry that crossed the cap, so it may read cap + 1).
        assert!(cut.metrics.states_interned >= 1);
    }
}

/// A pre-cancelled token: the 3×3 matrix still returns all nine cells, every
/// one `Unknown { exhausted: Some(Cancelled) }`, without panicking.
#[test]
fn cancelled_matrix_returns_partial_cells_without_panic() {
    let a = gen::exam_alphabet();
    let fd1 = gen::fd1(&a);
    let fd3 = gen::fd3(&a);
    let fd5 = gen::fd5(&a);
    let class_u = gen::update_class_u(&a);
    let class_level = parse_update_class(&a, "/session/candidate/level").expect("leaf");
    let class_rank = parse_update_class(&a, "/session/candidate/exam/rank").expect("leaf");

    let token = CancelToken::new();
    token.cancel();
    let analyzer = Analyzer::builder().build();
    let matrix = analyzer.matrix_with(
        &[("fd1", &fd1), ("fd3", &fd3), ("fd5", &fd5)],
        &[
            ("u", &class_u),
            ("level", &class_level),
            ("rank", &class_rank),
        ],
        &RunOverrides::new().cancel_token(token),
    );

    assert_eq!(
        matrix.cells.len(),
        9,
        "all cells present despite cancellation"
    );
    assert_eq!(matrix.independent_count(), 0);
    assert_eq!(matrix.exhausted_count(), 9);
    assert_eq!(
        matrix.recheck_count(),
        9,
        "cancelled cells must be rechecked"
    );
    for cell in &matrix.cells {
        assert_eq!(cell.verdict.exhausted(), Some(Resource::Cancelled));
    }
    // Every class reports every FD as needing a recheck.
    for class in 0..3 {
        assert_eq!(matrix.fds_to_recheck(class), vec![0, 1, 2]);
    }
}

/// Cancelling mid-flight from another thread: the matrix returns with every
/// cell present and no wrong `Independent` verdicts relative to a clean run.
#[test]
fn cancellation_midway_leaves_no_wrong_verdicts() {
    let a = gen::exam_alphabet();
    let schema = gen::exam_schema(&a);
    let fd1 = gen::fd1(&a);
    let fd3 = gen::fd3(&a);
    let class_u = gen::update_class_u(&a);
    let class_level = parse_update_class(&a, "/session/candidate/level").expect("leaf");

    let clean = Analyzer::builder().schema(schema.clone()).build().matrix(
        &[("fd1", &fd1), ("fd3", &fd3)],
        &[("u", &class_u), ("level", &class_level)],
    );

    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(1));
            token.cancel();
        })
    };
    let governed = Analyzer::builder().schema(schema).build().matrix_with(
        &[("fd1", &fd1), ("fd3", &fd3)],
        &[("u", &class_u), ("level", &class_level)],
        &RunOverrides::new().cancel_token(token),
    );
    canceller.join().expect("canceller thread");

    assert_eq!(governed.cells.len(), clean.cells.len());
    for (g, c) in governed.cells.iter().zip(&clean.cells) {
        if g.verdict.is_independent() {
            assert!(
                c.verdict.is_independent(),
                "cancelled run proved independence the clean run did not"
            );
        }
    }
}

/// An elapsed deadline reports `Resource::Deadline` on a single check.
#[test]
fn zero_deadline_reports_deadline_exhaustion() {
    let a = gen::exam_alphabet();
    let fd3 = gen::fd3(&a);
    let class_u = gen::update_class_u(&a);
    let analyzer = Analyzer::builder()
        .limits(RunLimits::default().with_deadline(Duration::ZERO))
        .build();
    let analysis = analyzer.independence(&fd3, &class_u);
    match analysis.verdict.exhausted() {
        Some(r) => assert_eq!(r, Resource::Deadline),
        // A degenerate instance may still decide before the first poll; it
        // must then agree with the unlimited engine.
        None => assert_eq!(
            analysis.verdict.is_independent(),
            Analyzer::builder()
                .build()
                .independence(&fd3, &class_u)
                .verdict
                .is_independent()
        ),
    }
}

/// Budgeted FD batch checking: a 0-memo budget yields `Unknown` outcomes
/// (never a wrong Satisfied/Violated) and still reports merged metrics.
#[test]
fn starved_fd_batch_is_unknown_with_metrics() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    let fds = [gen::fd1(&a), gen::fd3(&a)];

    let clean = Analyzer::builder().build().check_fds(&fds, &doc);
    let starved = Analyzer::builder()
        .limits(RunLimits::default().with_max_memo(0))
        .build()
        .check_fds(&fds, &doc);

    assert_eq!(starved.outcomes.len(), fds.len());
    for (s, c) in starved.outcomes.iter().zip(&clean.outcomes) {
        match s {
            FdOutcome::Unknown { exhausted, .. } => {
                assert_eq!(*exhausted, Resource::Memo);
            }
            // If a check finished within budget it must agree.
            other => assert_eq!(other.is_satisfied(), c.is_satisfied()),
        }
    }
    assert!(!starved.all_satisfied(), "Unknown counts as not-satisfied");
}

/// Seeding an incremental checker runs its FDs under one deadline, as
/// `check_fds` and every recheck round do. With the deadline at twice one
/// FD's seed time, most of sixteen FDs must come back
/// `Unknown { exhausted: Deadline }` and the call must return within a few
/// deadlines; a fresh deadline per FD would run all sixteen to the end.
#[test]
fn checker_seeding_shares_one_deadline() {
    let a = gen::exam_alphabet();
    let doc = gen::generate_session(&a, 400, 3, &mut SmallRng::seed_from_u64(24));
    let vdoc = VersionedDocument::new(doc);
    let fd = parse_fd(&a, "/session/candidate : exam/discipline -> exam/rank").expect("fd");
    vdoc.doc().index();
    let one = (0..5)
        .map(|_| {
            let t = Instant::now();
            IncrementalChecker::new(vec![fd.clone()], &vdoc);
            t.elapsed()
        })
        .min()
        .expect("five runs");
    let deadline = one * 2;

    let t = Instant::now();
    let checker = IncrementalChecker::with_governance(
        vec![fd; 16],
        &vdoc,
        RunLimits::default().with_deadline(deadline),
        TraceHandle::default(),
        None,
    );
    let elapsed = t.elapsed();
    let unknown = checker
        .outcomes()
        .iter()
        .filter(|o| {
            matches!(
                o,
                FdOutcome::Unknown {
                    exhausted: Resource::Deadline,
                    ..
                }
            )
        })
        .count();
    assert!(
        unknown >= 8,
        "only {unknown} of 16 FDs ran out of a {deadline:?} deadline"
    );
    assert!(
        elapsed <= deadline * 6,
        "seeding took {elapsed:?} under a {deadline:?} deadline"
    );
}
