//! E14: impact-scoped incremental rechecking vs the reparse-and-recheck
//! baseline, over a size ladder of exam sessions.
//!
//! Printed as flat `stream/<axis>/<point>/<metric>` lines (integers) for
//! `scripts/bench_json.sh` to fold into `BENCH_stream.json`:
//!
//! * `stream/ingest/*` — the ingest cost the baseline pays per update:
//!   `parse_document`, then the first
//!   [`Document::index`](regtree_xml::Document::index) call, which
//!   builds the label index.
//! * `stream/recheck/*` — a stream of point edits applied through an
//!   [`IncrementalChecker`] over a [`VersionedDocument`] against the
//!   naive client loop: serialize, reparse, recheck every FD from scratch
//!   (the first check builds the reparsed document's index, the rest
//!   share it). The checker's verdict must equal the reparsed verdict on
//!   every step (`parity_mismatches` must stay 0), and the per-update
//!   speedup at the largest point is the headline number the CI floor in
//!   `bench_json.sh` guards.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regtree_alphabet::Alphabet;
use regtree_core::{
    check_fd, parse_fd, update_class_from_edges, Fd, FdOutcome, IncrementalChecker, Update,
    UpdateOp,
};
use regtree_gen as gen;
use regtree_xml::{parse_document, to_xml, VersionedDocument};

/// Candidates per session at each ladder point (×3 exams each).
const SIZES: &[usize] = &[50, 200, 800];
/// Point edits per ladder point.
const UPDATES: usize = 40;

/// FDs anchored on the per-candidate context, so a point edit inside one
/// candidate can be rechecked against that candidate alone.
fn candidate_fds(a: &Alphabet) -> Vec<Fd> {
    vec![
        parse_fd(a, "/session/candidate : exam/discipline -> exam/rank")
            .expect("discipline->rank builds"),
        parse_fd(a, "/session/candidate : level -> firstJob-Year")
            .expect("level->firstJob-Year builds"),
    ]
}

/// One point edit: a `FirstOnly` set_text on a rotating leaf kind, so each
/// update touches exactly one node of one candidate.
fn point_edit(a: &Alphabet, step: usize, rng: &mut SmallRng) -> Update {
    let class = |path: &str| update_class_from_edges(a, &[path]).expect("exam path parses");
    let op = match step % 3 {
        0 => (
            "session/candidate/exam/rank",
            rng.gen_range(1..50u32).to_string(),
        ),
        1 => (
            "session/candidate/level",
            ["A", "B", "C", "D", "E"][rng.gen_range(0..5usize)].to_string(),
        ),
        _ => (
            "session/candidate/firstJob-Year",
            (2009 + rng.gen_range(0..5u32)).to_string(),
        ),
    };
    Update::new(
        class(op.0),
        UpdateOp::FirstOnly(Box::new(UpdateOp::SetText(op.1))),
    )
}

fn main() {
    let a = gen::exam_alphabet();
    let fds = candidate_fds(&a);
    for &n in SIZES {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let doc = gen::generate_session(&a, n, 3, &mut rng);
        let xml = to_xml(&doc);

        // Ingest: parse, then index.
        let t = Instant::now();
        let parsed = parse_document(&a, &xml).expect("parses");
        parsed.index();
        let two_pass_ns = t.elapsed().as_nanos();
        println!("stream/ingest/c{n}/nodes {}", parsed.len());
        println!("stream/ingest/c{n}/two_pass_ns {two_pass_ns}");

        // Recheck: incremental maintenance vs reparse-and-recheck.
        let mut vdoc = VersionedDocument::new(doc);
        let mut checker = IncrementalChecker::new(fds.clone(), &vdoc);
        assert!(checker.all_satisfied(), "generated sessions satisfy fds");
        let mut incremental_ns = 0u128;
        let mut reparse_ns = 0u128;
        let mut localized = 0u64;
        let mut full = 0u64;
        let mut reused = 0u64;
        let mut mismatches = 0u64;
        for step in 0..UPDATES {
            let update = point_edit(&a, step, &mut rng);
            let t = Instant::now();
            let report = checker
                .apply_and_recheck(&mut vdoc, &update)
                .expect("point edits apply");
            incremental_ns += t.elapsed().as_nanos();
            localized += report.metrics.rechecks_localized;
            full += report.metrics.rechecks_full;
            reused += report.metrics.verdicts_reused;

            let t = Instant::now();
            let reparsed = parse_document(&a, &to_xml(vdoc.doc())).expect("roundtrip");
            let baseline: Vec<bool> = fds
                .iter()
                .map(|fd| check_fd(fd, &reparsed).is_ok())
                .collect();
            reparse_ns += t.elapsed().as_nanos();
            for (outcome, base) in report.outcomes.iter().zip(&baseline) {
                let inc = match outcome {
                    FdOutcome::Satisfied => true,
                    FdOutcome::Violated(_) => false,
                    other => panic!("ungoverned check came back {other:?}"),
                };
                if inc != *base {
                    mismatches += 1;
                }
            }
        }
        let per_inc = incremental_ns / UPDATES as u128;
        let per_rep = reparse_ns / UPDATES as u128;
        println!("stream/recheck/c{n}/updates {UPDATES}");
        println!("stream/recheck/c{n}/incremental_ns_per_update {per_inc}");
        println!("stream/recheck/c{n}/reparse_ns_per_update {per_rep}");
        println!(
            "stream/recheck/c{n}/speedup_x100 {}",
            per_rep * 100 / per_inc.max(1)
        );
        println!("stream/recheck/c{n}/rechecks_localized {localized}");
        println!("stream/recheck/c{n}/rechecks_full {full}");
        println!("stream/recheck/c{n}/verdicts_reused {reused}");
        println!("stream/recheck/c{n}/parity_mismatches {mismatches}");
    }
}
