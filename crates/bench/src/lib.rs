//! Shared helpers for the `regtree` benchmark harness.
//!
//! Every bench regenerates one experiment of `EXPERIMENTS.md` (which maps
//! them back to the paper's figures and propositions). The helpers keep the
//! workloads identical across benches: deterministic seeds, the exam-session
//! generator of the running example, and the parameterized FD/update
//! families used by the Proposition 3 scaling study.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

use regtree_alphabet::Alphabet;
use regtree_core::{
    parse_fd, update_class_from_edges, Analyzer, Fd, IndependenceAnalysis, IndependenceMatrix,
    UpdateClass,
};
use regtree_hedge::Schema;
use regtree_pattern::{RegularTreePattern, Template};
use regtree_xml::Document;

/// Deterministic RNG shared by all benches.
pub fn rng() -> SmallRng {
    SmallRng::seed_from_u64(0x2010_0322)
}

/// Document sizes (candidate counts) used by the document-scaling benches.
pub const CANDIDATE_COUNTS: [usize; 4] = [10, 50, 200, 1000];

/// An exam session with `n` candidates (3 exams each), deterministic.
pub fn session(a: &Alphabet, n: usize) -> Document {
    let mut r = rng();
    regtree_gen::generate_session(a, n, 3, &mut r)
}

/// An FD with `k` conditions over a chain alphabet:
/// `/ctx : p0/v, …, p(k-1)/v -> t/v`. `|FD|` grows linearly with `k`.
pub fn fd_with_conditions(a: &Alphabet, k: usize) -> Fd {
    let conditions: Vec<String> = (0..k).map(|i| format!("p{i}/v")).collect();
    parse_fd(a, &format!("/ctx : {} -> t/v", conditions.join(", "))).expect("fd parses")
}

/// An update class whose template is a chain of `depth` single-label edges
/// (distinct labels, so `|U|` grows linearly with `depth`).
pub fn update_chain(a: &Alphabet, depth: usize) -> UpdateClass {
    let mut t = Template::new(a.clone());
    let mut cur = t.root();
    for i in 0..depth.max(1) {
        cur = t.add_child_str(cur, &format!("u{i}")).expect("proper");
    }
    UpdateClass::new(RegularTreePattern::monadic(t, cur).expect("valid")).expect("leaf")
}

/// A DTD-like schema with `n` element rules (linear `|A_S|` growth); rule
/// `si` allows children `s(i+1)*`.
pub fn chain_schema(a: &Alphabet, n: usize) -> regtree_hedge::Schema {
    let mut text = String::from("root: s0*\n");
    for i in 0..n {
        if i + 1 < n {
            text.push_str(&format!("s{i}: s{}*\n", i + 1));
        } else {
            text.push_str(&format!("s{i}: EMPTY\n"));
        }
    }
    regtree_hedge::Schema::parse(a, &text).expect("schema parses")
}

/// A synthetic path-FD corpus for the FD-set pruning study
/// (`BENCH_fdset.json`): groups of six FDs under a shared `/db` context,
/// each group `g{i}` contributing
///
/// 1. `wide`    — `/db : g{i}/d -> g{i}[N]` (kept; its region contains
///    `narrow`'s, but neither implies the other);
/// 2. `narrow`  — `/db : g{i}/d -> g{i}/r` (kept);
/// 3. `aug`     — `/db : g{i}/d, g{i}/x -> g{i}/r` (augmentation of
///    `narrow`, dropped as implied);
/// 4. `chain1`  — `/db : g{i}/c/e -> g{i}/c[N]` (kept);
/// 5. `chain2`  — `/db : g{i}/c[N] -> g{i}/c/f` (kept);
/// 6. `goal`    — `/db : g{i}/c/e -> g{i}/c/f` (transitive consequence of
///    `chain1` + `chain2`, dropped as implied).
///
/// So a full group yields 2 implied rows in 6 (≈33% of matrix cells never
/// reach the engine). `n`
/// need not be a multiple of six; a truncated trailing group just keeps
/// whatever members it has.
pub fn fdset_corpus(a: &Alphabet, n: usize) -> Vec<(String, Fd)> {
    let mut out = Vec::with_capacity(n);
    let mut g = 0usize;
    while out.len() < n {
        let specs = [
            ("wide", format!("/db : g{g}/d -> g{g}[N]")),
            ("narrow", format!("/db : g{g}/d -> g{g}/r")),
            ("aug", format!("/db : g{g}/d, g{g}/x -> g{g}/r")),
            ("chain1", format!("/db : g{g}/c/e -> g{g}/c[N]")),
            ("chain2", format!("/db : g{g}/c[N] -> g{g}/c/f")),
            ("goal", format!("/db : g{g}/c/e -> g{g}/c/f")),
        ];
        for (tag, src) in specs {
            if out.len() == n {
                break;
            }
            let fd = parse_fd(a, &src).expect("corpus FD parses");
            out.push((format!("g{g}-{tag}"), fd));
        }
        g += 1;
    }
    out
}

/// The update-class columns paired with [`fdset_corpus`]: monadic edits
/// touching a handful of early groups (so most rows are independent of
/// most columns) plus the targets of
/// group 0 (so dependent cells exist too).
pub fn fdset_classes(a: &Alphabet) -> Vec<(String, UpdateClass)> {
    ["db/g0/d", "db/g0/r", "db/g1/c/e", "db/g2/x"]
        .iter()
        .map(|e| {
            let class = update_class_from_edges(a, &[e]).expect("valid edge path");
            (e.replace('/', "-"), class)
        })
        .collect()
}

/// An alphabet with `extra` filler labels beyond the exam vocabulary
/// (for the `|Σ|` axis of the Proposition 3 study).
pub fn padded_alphabet(extra: usize) -> Alphabet {
    let a = regtree_gen::exam_alphabet();
    for i in 0..extra {
        a.intern(&format!("filler{i}"));
    }
    a
}

/// The independence criterion on a **fresh** [`Analyzer`]: every automaton
/// is recompiled, which is the per-call cost the scaling benches have
/// always measured. (The caching `Analyzer` path would amortize
/// compilation across iterations and invalidate comparisons against the
/// committed baselines.)
pub fn fresh_independence(
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
) -> IndependenceAnalysis {
    let mut b = Analyzer::builder();
    if let Some(s) = schema {
        b = b.schema(s.clone());
    }
    b.build().independence(fd, class)
}

/// The batch matrix on a **fresh** [`Analyzer`]: each call pays schema and
/// pattern compilation once and shares it across cells — the workload of
/// the removed `analyze_matrix` free function.
pub fn fresh_matrix(
    fds: &[(&str, &Fd)],
    classes: &[(&str, &UpdateClass)],
    schema: Option<&Schema>,
) -> IndependenceMatrix {
    let mut b = Analyzer::builder();
    if let Some(s) = schema {
        b = b.schema(s.clone());
    }
    b.build().matrix(fds, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build() {
        let a = regtree_gen::exam_alphabet();
        assert!(session(&a, 5).len() > 50);
        let fd = fd_with_conditions(&a, 3);
        assert_eq!(fd.conditions().len(), 3);
        let u = update_chain(&a, 4);
        assert!(u.size() > 0);
        let s = chain_schema(&a, 3);
        assert_eq!(s.rules().len(), 3);
        assert!(padded_alphabet(10).len() >= 21);
    }

    #[test]
    fn fdset_corpus_drops_a_third_of_each_full_group() {
        let a = Alphabet::new();
        let fds = fdset_corpus(&a, 12);
        assert_eq!(fds.len(), 12);
        let mut set = regtree_core::FdSet::new();
        for (name, fd) in &fds {
            set.push(name.clone(), fd.clone());
        }
        let min = set.minimize(&regtree_core::RunLimits::UNLIMITED);
        assert!(min.is_complete());
        // Two of six per group: aug and goal.
        assert_eq!(min.dropped.len(), 4);
        assert!(!fdset_classes(&a).is_empty());
    }

    #[test]
    fn fd_size_grows_with_conditions() {
        let a = regtree_gen::exam_alphabet();
        let s1 = fd_with_conditions(&a, 1).size();
        let s8 = fd_with_conditions(&a, 8).size();
        assert!(s8 > s1);
    }
}
