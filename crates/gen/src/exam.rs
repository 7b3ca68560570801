//! The paper's running example: the exam-session document of Figure 1, the
//! patterns of Figures 2–3, the FDs of Figures 4–5, the update class of
//! Figure 6, and a scalable generator of FD-satisfying exam sessions.
//!
//! Conventions (fixed across the whole workspace): a `candidate` element's
//! children are `@IDN`, `exam*`, `level`, then `toBePassed` or
//! `firstJob-Year`; an `exam`'s children are `@date`, `discipline`, `mark`,
//! `rank`.

use rand::Rng;

use regtree_alphabet::Alphabet;
use regtree_core::{EqualityType, Fd, Update, UpdateClass, UpdateOp};
use regtree_hedge::Schema;
use regtree_pattern::{RegularTreePattern, Template};
use regtree_xml::{Document, TreeSpec};

/// Interns every Figure 1 label.
pub fn exam_alphabet() -> Alphabet {
    Alphabet::with_labels([
        "session",
        "candidate",
        "@IDN",
        "exam",
        "@date",
        "discipline",
        "mark",
        "rank",
        "level",
        "toBePassed",
        "firstJob-Year",
    ])
}

/// The schema `Sc` of the running example (Example 6 requires each
/// candidate to have `toBePassed` XOR `firstJob-Year`).
pub const EXAM_SCHEMA: &str = "\
root: session
session: candidate*
candidate: @IDN exam+ level (toBePassed | firstJob-Year)
exam: @date discipline mark rank
discipline: #text
mark: #text
rank: #text
level: #text
toBePassed: discipline+
firstJob-Year: #text
";

/// Parses [`EXAM_SCHEMA`] over `alphabet`.
pub fn exam_schema(alphabet: &Alphabet) -> Schema {
    Schema::parse(alphabet, EXAM_SCHEMA).expect("the exam schema parses")
}

fn exam_spec(a: &Alphabet, date: &str, disc: &str, mark: &str, rank: &str) -> TreeSpec {
    TreeSpec::elem_named(
        a,
        "exam",
        vec![
            TreeSpec::attr_named(a, "@date", date),
            TreeSpec::elem_named(a, "discipline", vec![TreeSpec::text(disc)]),
            TreeSpec::elem_named(a, "mark", vec![TreeSpec::text(mark)]),
            TreeSpec::elem_named(a, "rank", vec![TreeSpec::text(rank)]),
        ],
    )
}

#[allow(clippy::too_many_arguments)]
fn candidate_spec(
    a: &Alphabet,
    idn: &str,
    exams: Vec<TreeSpec>,
    level: &str,
    to_be_passed: Option<&[&str]>,
    first_job_year: Option<&str>,
) -> TreeSpec {
    let mut children = vec![TreeSpec::attr_named(a, "@IDN", idn)];
    children.extend(exams);
    children.push(TreeSpec::elem_named(
        a,
        "level",
        vec![TreeSpec::text(level)],
    ));
    if let Some(disciplines) = to_be_passed {
        children.push(TreeSpec::elem_named(
            a,
            "toBePassed",
            disciplines
                .iter()
                .map(|d| TreeSpec::elem_named(a, "discipline", vec![TreeSpec::text(d)]))
                .collect(),
        ));
    }
    if let Some(year) = first_job_year {
        children.push(TreeSpec::elem_named(
            a,
            "firstJob-Year",
            vec![TreeSpec::text(year)],
        ));
    }
    TreeSpec::elem_named(a, "candidate", children)
}

/// The Figure 1 document: one session, two candidates with two exams each;
/// candidate 78 still has a discipline to pass, candidate 99 is graduated.
pub fn figure1_document(a: &Alphabet) -> Document {
    let session = TreeSpec::elem_named(
        a,
        "session",
        vec![
            candidate_spec(
                a,
                "78",
                vec![
                    exam_spec(a, "2009-06-02", "math", "15", "2"),
                    exam_spec(a, "2009-06-03", "physics", "8", "5"),
                ],
                "B",
                Some(&["physics"]),
                None,
            ),
            candidate_spec(
                a,
                "99",
                vec![
                    exam_spec(a, "2009-06-02", "math", "15", "2"),
                    exam_spec(a, "2009-06-04", "biology", "12", "1"),
                ],
                "A",
                None,
                Some("2010"),
            ),
        ],
    );
    regtree_xml::document_from_specs(a.clone(), &[session])
}

/// `R1` of Figure 2: pairs of exams taken by two **different** candidates.
pub fn pattern_r1(a: &Alphabet) -> RegularTreePattern {
    let mut t = Template::new(a.clone());
    let session = t.add_child_str(t.root(), "session").expect("proper");
    let e1 = t.add_child_str(session, "candidate/exam").expect("proper");
    let e2 = t.add_child_str(session, "candidate/exam").expect("proper");
    RegularTreePattern::new(t, vec![e1, e2]).expect("valid")
}

/// `R2` of Figure 2: pairs of exams taken by the **same** candidate.
pub fn pattern_r2(a: &Alphabet) -> RegularTreePattern {
    let mut t = Template::new(a.clone());
    let cand = t
        .add_child_str(t.root(), "session/candidate")
        .expect("proper");
    let e1 = t.add_child_str(cand, "exam").expect("proper");
    let e2 = t.add_child_str(cand, "exam").expect("proper");
    RegularTreePattern::new(t, vec![e1, e2]).expect("valid")
}

/// `R3` of Figure 3: level nodes of candidates with at least one exam
/// (exam branch *before* the level branch, matching document order).
pub fn pattern_r3(a: &Alphabet) -> RegularTreePattern {
    let mut t = Template::new(a.clone());
    let cand = t
        .add_child_str(t.root(), "session/candidate")
        .expect("proper");
    let _exam = t.add_child_str(cand, "exam").expect("proper");
    let level = t.add_child_str(cand, "level").expect("proper");
    RegularTreePattern::monadic(t, level).expect("valid")
}

/// `R4` of Figure 3: the same query with the sibling order flipped — empty
/// on Figure 1 because mappings must respect template order.
pub fn pattern_r4(a: &Alphabet) -> RegularTreePattern {
    let mut t = Template::new(a.clone());
    let cand = t
        .add_child_str(t.root(), "session/candidate")
        .expect("proper");
    let level = t.add_child_str(cand, "level").expect("proper");
    let _exam = t.add_child_str(cand, "exam").expect("proper");
    RegularTreePattern::monadic(t, level).expect("valid")
}

/// `fd1` (Figure 4): same discipline + same mark ⇒ same rank, per session.
/// The \[8\] trie of `expr1`: the shared `candidate/exam` prefix is one
/// template node.
pub fn fd1(a: &Alphabet) -> Fd {
    let mut t = Template::new(a.clone());
    let c = t.add_child_str(t.root(), "session").expect("proper");
    let exam = t.add_child_str(c, "candidate/exam").expect("proper");
    let discipline = t.add_child_str(exam, "discipline").expect("proper");
    let mark = t.add_child_str(exam, "mark").expect("proper");
    let rank = t.add_child_str(exam, "rank").expect("proper");
    let pattern = RegularTreePattern::new(t, vec![discipline, mark, rank]).expect("valid");
    Fd::with_default_equality(pattern, c).expect("fd1 builds")
}

/// `fd2` (Figure 4): a candidate cannot take two different exams of the
/// same discipline at the same date (target `exam`, node equality). The
/// target is the internal node both condition paths go through.
pub fn fd2(a: &Alphabet) -> Fd {
    let mut t = Template::new(a.clone());
    let c = t
        .add_child_str(t.root(), "session/candidate")
        .expect("proper");
    let exam = t.add_child_str(c, "exam").expect("proper");
    let date = t.add_child_str(exam, "@date").expect("proper");
    let discipline = t.add_child_str(exam, "discipline").expect("proper");
    let pattern = RegularTreePattern::new(t, vec![date, discipline, exam]).expect("valid");
    let equality = vec![EqualityType::Value, EqualityType::Value, EqualityType::Node];
    Fd::new(pattern, c, equality).expect("fd2 builds")
}

/// `fd3` (Figure 5): two candidates with the same marks in (at least) two
/// disciplines receive the same level. Inexpressible in \[8\]: the two
/// sibling `exam/mark` edges share the prefix `exam`.
pub fn fd3(a: &Alphabet) -> Fd {
    let mut t = Template::new(a.clone());
    let c = t.add_child_str(t.root(), "session").expect("proper");
    let cand = t.add_child_str(c, "candidate").expect("proper");
    let m1 = t.add_child_str(cand, "exam/mark").expect("proper");
    let m2 = t.add_child_str(cand, "exam/mark").expect("proper");
    let level = t.add_child_str(cand, "level").expect("proper");
    let pattern = RegularTreePattern::new(t, vec![m1, m2, level]).expect("valid");
    Fd::with_default_equality(pattern, c).expect("fd3 builds")
}

/// `fd4` (Figure 5): like `fd3` but restricted to candidates that still
/// have disciplines to pass. Inexpressible in \[8\]: the `toBePassed` leaf is
/// neither condition nor target.
pub fn fd4(a: &Alphabet) -> Fd {
    let mut t = Template::new(a.clone());
    let c = t.add_child_str(t.root(), "session").expect("proper");
    let cand = t.add_child_str(c, "candidate").expect("proper");
    let m1 = t.add_child_str(cand, "exam/mark").expect("proper");
    let m2 = t.add_child_str(cand, "exam/mark").expect("proper");
    let level = t.add_child_str(cand, "level").expect("proper");
    let _tbp = t.add_child_str(cand, "toBePassed").expect("proper");
    let pattern = RegularTreePattern::new(t, vec![m1, m2, level]).expect("valid");
    Fd::with_default_equality(pattern, c).expect("fd4 builds")
}

/// `fd5` (Figure 6): like `fd3` but restricted to *graduated* candidates
/// (those with a `firstJob-Year` child) — the FD of Example 6.
pub fn fd5(a: &Alphabet) -> Fd {
    let mut t = Template::new(a.clone());
    let c = t.add_child_str(t.root(), "session").expect("proper");
    let cand = t.add_child_str(c, "candidate").expect("proper");
    let m1 = t.add_child_str(cand, "exam/mark").expect("proper");
    let m2 = t.add_child_str(cand, "exam/mark").expect("proper");
    let level = t.add_child_str(cand, "level").expect("proper");
    let _fjy = t.add_child_str(cand, "firstJob-Year").expect("proper");
    let pattern = RegularTreePattern::new(t, vec![m1, m2, level]).expect("valid");
    Fd::with_default_equality(pattern, c).expect("fd5 builds")
}

/// The update class `U` of Figure 6/Example 4: the `level` nodes of
/// candidates that still have remaining exams to pass.
pub fn update_class_u(a: &Alphabet) -> UpdateClass {
    let mut t = Template::new(a.clone());
    let cand = t
        .add_child_str(t.root(), "session/candidate")
        .expect("proper");
    let level = t.add_child_str(cand, "level").expect("proper");
    let _tbp = t.add_child_str(cand, "toBePassed").expect("proper");
    UpdateClass::new(RegularTreePattern::monadic(t, level).expect("valid"))
        .expect("level is a leaf of T_U")
}

/// `q1` of Example 4: decrease the level to the level just below.
pub fn update_q1(a: &Alphabet) -> Update {
    Update::new(
        update_class_u(a),
        UpdateOp::MapText(std::sync::Arc::new(|old: &str| match old {
            "A" => "B".to_string(),
            "B" => "C".to_string(),
            "C" => "D".to_string(),
            _ => "E".to_string(),
        })),
    )
}

/// `q2` of Example 4: add a `comment` child to the level node.
pub fn update_q2(a: &Alphabet) -> Update {
    Update::new(
        update_class_u(a),
        UpdateOp::AppendChild(TreeSpec::elem_named(a, "comment", vec![])),
    )
}

/// Deterministic rank from `(discipline, mark)` so generated sessions
/// satisfy `fd1` by construction.
fn rank_of(discipline: &str, mark: u32) -> u32 {
    let h = discipline
        .bytes()
        .fold(7u32, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u32));
    (h ^ mark).wrapping_mul(2654435761) % 50 + 1
}

/// Deterministic level from the mark vector so generated sessions satisfy
/// `fd3`/`fd4`/`fd5` by construction.
fn level_of(marks: &[u32]) -> &'static str {
    let avg = marks.iter().sum::<u32>() / marks.len().max(1) as u32;
    match avg {
        16..=20 => "A",
        13..=15 => "B",
        10..=12 => "C",
        7..=9 => "D",
        _ => "E",
    }
}

const DISCIPLINES: &[&str] = &[
    "math",
    "physics",
    "biology",
    "history",
    "chemistry",
    "latin",
    "music",
    "geography",
];

/// Generates a schema-valid exam session with `n_candidates` candidates and
/// `exams_per_candidate` exams each, satisfying `fd1`–`fd5` by construction.
/// Size is roughly `n_candidates × (7 × exams_per_candidate + 5)` nodes.
pub fn generate_session<R: Rng>(
    a: &Alphabet,
    n_candidates: usize,
    exams_per_candidate: usize,
    rng: &mut R,
) -> Document {
    let exams_per_candidate = exams_per_candidate.clamp(1, DISCIPLINES.len());
    let mut candidates = Vec::with_capacity(n_candidates);
    for i in 0..n_candidates {
        let mut exams = Vec::with_capacity(exams_per_candidate);
        let mut marks = Vec::with_capacity(exams_per_candidate);
        let mut failed: Vec<&str> = Vec::new();
        // fd3 relates the level to *any* pair of marks, so a candidate's
        // marks must determine the level regardless of which pair a trace
        // picks: give each candidate one "ability" mark for all exams.
        let ability = rng.gen_range(0..=20u32);
        for (j, &disc) in DISCIPLINES.iter().take(exams_per_candidate).enumerate() {
            let mark = ability;
            marks.push(mark);
            if mark < 10 {
                failed.push(disc);
            }
            exams.push(exam_spec(
                a,
                &format!("2009-06-{:02}", (j % 28) + 1),
                disc,
                &mark.to_string(),
                &rank_of(disc, mark).to_string(),
            ));
        }
        // fd3/fd5 require the level to be a function of the mark vector.
        let level = level_of(&marks);
        let spec = if failed.is_empty() {
            candidate_spec(
                a,
                &format!("{}", 1000 + i),
                exams,
                level,
                None,
                Some("2010"),
            )
        } else {
            candidate_spec(
                a,
                &format!("{}", 1000 + i),
                exams,
                level,
                Some(&failed),
                None,
            )
        };
        candidates.push(spec);
    }
    let session = TreeSpec::elem_named(a, "session", candidates);
    regtree_xml::document_from_specs(a.clone(), &[session])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use regtree_core::satisfies;

    #[test]
    fn figure1_is_schema_valid() {
        let a = exam_alphabet();
        let doc = figure1_document(&a);
        exam_schema(&a).validate(&doc).unwrap();
        assert!(doc.check_well_formed().is_ok());
    }

    #[test]
    fn textual_fds_match_the_hand_built_fixtures() {
        // The \[8\]-expressible paper FDs written in the textual language
        // produce structurally identical patterns — hence identical
        // verdicts on every document. (fd3–fd5 need two structurally equal
        // sibling branches or unselected structural leaves, which the
        // path-style `ctx : conds -> target` line cannot name; they stay
        // hand-built.)
        let a = exam_alphabet();
        let pairs = [
            (
                fd1(&a),
                "/session : candidate/exam/discipline, candidate/exam/mark \
                 -> candidate/exam/rank",
            ),
            (
                fd2(&a),
                "/session/candidate : exam/@date, exam/discipline -> exam[N]",
            ),
        ];
        let doc = figure1_document(&a);
        let mut rng = SmallRng::seed_from_u64(11);
        let generated = generate_session(&a, 6, 3, &mut rng);
        for (built, text) in pairs {
            let parsed = regtree_core::parse_fd(&a, text).expect(text);
            assert_eq!(
                parsed.template().sketch(),
                built.template().sketch(),
                "template drift for {text}"
            );
            assert_eq!(parsed.pattern().selected(), built.pattern().selected());
            assert_eq!(parsed.context(), built.context());
            assert_eq!(parsed.target_equality(), built.target_equality());
            assert_eq!(satisfies(&parsed, &doc), satisfies(&built, &doc));
            assert_eq!(
                satisfies(&parsed, &generated),
                satisfies(&built, &generated)
            );
        }
    }

    #[test]
    fn figure1_satisfies_the_fds() {
        let a = exam_alphabet();
        let doc = figure1_document(&a);
        for (name, fd) in [
            ("fd1", fd1(&a)),
            ("fd2", fd2(&a)),
            ("fd3", fd3(&a)),
            ("fd4", fd4(&a)),
            ("fd5", fd5(&a)),
        ] {
            assert!(satisfies(&fd, &doc), "{name} must hold on Figure 1");
        }
    }

    #[test]
    fn generated_sessions_are_valid_and_satisfying() {
        let a = exam_alphabet();
        let mut rng = SmallRng::seed_from_u64(11);
        let doc = generate_session(&a, 20, 4, &mut rng);
        exam_schema(&a).validate(&doc).unwrap();
        for (name, fd) in [
            ("fd1", fd1(&a)),
            ("fd2", fd2(&a)),
            ("fd3", fd3(&a)),
            ("fd4", fd4(&a)),
            ("fd5", fd5(&a)),
        ] {
            assert!(satisfies(&fd, &doc), "{name} must hold on generated docs");
        }
    }

    #[test]
    fn generated_size_scales() {
        let a = exam_alphabet();
        let mut rng = SmallRng::seed_from_u64(5);
        let d1 = generate_session(&a, 10, 2, &mut rng);
        let d2 = generate_session(&a, 100, 2, &mut rng);
        assert!(d2.len() > 8 * d1.len());
    }

    #[test]
    fn class_u_on_figure1_selects_candidate78_level() {
        let a = exam_alphabet();
        let doc = figure1_document(&a);
        let nodes = update_class_u(&a).selected_nodes(&doc);
        assert_eq!(nodes.len(), 1, "only candidate 78 has toBePassed");
        assert_eq!(doc.label_name(nodes[0]).as_ref(), "level");
    }
}
