//! Searching for *actual* impacts (the complement of the criterion).
//!
//! The criterion is sufficient, not complete: an `Unknown` verdict may be a
//! false alarm. Since the exact problem is PSPACE-hard (Proposition 1), no
//! efficient decision exists — but a bounded, witness-guided search can
//! often *confirm* an impact, which makes the criterion's precision
//! measurable (see `examples/criterion_precision.rs`):
//!
//! 1. start from the IC emptiness witness (a document where an update site
//!    touches the FD's sensitive region) and random mutations of it;
//! 2. keep documents that are schema-valid and satisfy the FD;
//! 3. apply a battery of label-preserving concrete updates at the class's
//!    selected nodes;
//! 4. report the first `(document, update)` whose application violates the
//!    FD — a constructive proof of impact.

use rand::Rng;

use regtree_alphabet::{Alphabet, LabelKind};
use regtree_core::{satisfies, Analyzer, Fd, Update, UpdateClass, UpdateOp, Verdict};
use regtree_hedge::Schema;
use regtree_xml::{Document, TreeSpec};

/// A constructive proof that `class` impacts `fd`.
#[derive(Clone, Debug)]
pub struct ImpactWitness {
    /// A document satisfying the FD (and the schema, when given).
    pub doc: Document,
    /// The concrete update whose application violates the FD.
    pub update: Update,
}

/// Outcome of [`classify_pair`].
#[derive(Clone, Debug)]
pub enum PairClassification {
    /// The criterion proved independence.
    ProvenIndependent,
    /// The criterion was inconclusive and the search *confirmed* an impact:
    /// the verdict was a true alarm.
    ConfirmedImpact(Box<ImpactWitness>),
    /// The criterion was inconclusive and the bounded search found no
    /// impact: possibly a false alarm (or an impact beyond the budget).
    Unconfirmed,
}

/// The battery of label-preserving concrete updates tried at each site.
///
/// Uniform ops rewrite every selected node the same way; *asymmetric* ops
/// (suffix `_first`) touch only the first selected node in document order —
/// a violation needs two traces to *disagree*, which uniform rewrites of all
/// sites often cannot produce. Asymmetric ops carry per-application state,
/// so the battery must be rebuilt for every attempt.
fn op_battery(alphabet: &Alphabet) -> Vec<UpdateOp> {
    let elem = crate::emptiness::generic_element_label(alphabet);
    // Forces the site's subtree *value* to a constant — rewriting text
    // children when present and grafting one when absent. Applied uniformly
    // it merges the values of every site (the classic way a key update
    // collapses two FD condition classes); under `FirstOnly` it skews a
    // single site instead.
    let force_text = |value: &'static str| {
        UpdateOp::Custom(std::sync::Arc::new(move |doc: &mut Document, n| {
            match doc.kind(n) {
                LabelKind::Attribute | LabelKind::Text => {
                    let _ = regtree_xml::set_value(doc, n, value);
                }
                LabelKind::Element => {
                    let texts: Vec<_> = doc
                        .children(n)
                        .iter()
                        .copied()
                        .filter(|&c| doc.kind(c) == LabelKind::Text)
                        .collect();
                    if texts.is_empty() {
                        // No text children: graft one so the value changes.
                        let _ = regtree_xml::insert_child(doc, n, 0, &TreeSpec::text(value));
                    }
                    for t in texts {
                        let _ = regtree_xml::set_value(doc, t, value);
                    }
                }
            }
        }))
    };
    vec![
        // Uniform rewrites of every site.
        force_text("merged"),
        UpdateOp::SetText("mutated".into()),
        UpdateOp::AppendChild(TreeSpec::elem(elem, vec![])),
        UpdateOp::AppendChild(TreeSpec::text("extra")),
        UpdateOp::PrependChild(TreeSpec::elem(elem, vec![])),
        UpdateOp::Delete,
        // Asymmetric: only the first site changes, so two traces disagree.
        UpdateOp::FirstOnly(Box::new(force_text("skewed"))),
        UpdateOp::FirstOnly(Box::new(UpdateOp::AppendChild(TreeSpec::text("skew")))),
        UpdateOp::FirstOnly(Box::new(UpdateOp::SetText("skewed".into()))),
        UpdateOp::FirstOnly(Box::new(UpdateOp::Delete)),
    ]
}

/// Random label-preserving mutation biased toward value changes (the edits
/// most likely to separate or merge FD condition classes).
fn mutate<R: Rng>(doc: &mut Document, rng: &mut R) {
    let nodes = doc.all_nodes();
    let n = nodes[rng.gen_range(0..nodes.len())];
    match doc.kind(n) {
        LabelKind::Attribute | LabelKind::Text => {
            let fresh = format!("v{}", rng.gen_range(0..4));
            let _ = regtree_xml::set_value(doc, n, &fresh);
        }
        LabelKind::Element => {
            if doc.children(n).is_empty() {
                // Give childless elements a random text value so value
                // equality can distinguish (or merge) them — the single
                // most useful edit for separating FD condition classes.
                let fresh = format!("v{}", rng.gen_range(0..4));
                let _ = regtree_xml::insert_child(doc, n, 0, &TreeSpec::text(&fresh));
            } else if n != doc.root() && rng.gen_bool(0.1) {
                let _ = regtree_xml::delete_subtree(doc, n);
            } else if rng.gen_bool(0.6) {
                // Duplicate the subtree next to itself: FD violations need
                // at least two sibling traces to compare.
                let spec = TreeSpec::from_document(doc, n);
                let parent = match doc.parent(n) {
                    Some(p) => p,
                    None => return,
                };
                let at = doc.children(parent).len();
                let _ = regtree_xml::insert_child(doc, parent, at, &spec);
            }
        }
    }
}

/// Upper bound on the candidate pool kept by [`search_impact`].
const POOL_CAP: usize = 64;

/// Tries to confirm an impact of `class` on `fd` within a search budget.
///
/// `rounds` bounds the number of candidate documents. The search keeps a
/// pool of *admissible* documents (schema-valid and FD-satisfying), seeded
/// with the IC emptiness witness; each round mutates a random pool member
/// and, when the mutant is admissible again, feeds it back into the pool.
/// Growing the pool this way reaches witnesses that need several
/// independent edits (e.g. duplicate a record, then diversify its key and
/// value) as a chain of single-edit steps instead of demanding one lucky
/// multi-edit round. Returns a constructive witness on success.
pub fn search_impact<R: Rng>(
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
    rounds: usize,
    rng: &mut R,
) -> Option<ImpactWitness> {
    let alphabet = fd.template().alphabet().clone();
    let seed = match criterion(fd, class, schema) {
        Verdict::Unknown { witness, .. } => *witness?,
        _ => return None, // proven independent, so no impact exists
    };
    let admissible =
        |d: &Document| schema.map_or(true, |s| s.validate(d).is_ok()) && satisfies(fd, d);

    // Try the pristine witness first, then grow the pool from it.
    if admissible(&seed) {
        if let Some(w) = try_battery(fd, class, schema, &alphabet, &seed) {
            return Some(w);
        }
    }
    let mut pool: Vec<Document> = Vec::with_capacity(POOL_CAP);
    pool.push(seed);
    for round in 0..rounds {
        let mut doc = pool[rng.gen_range(0..pool.len())].clone();
        // Mostly single-edit steps; occasionally a burst for diversity.
        for _ in 0..1 + (round % 3) {
            mutate(&mut doc, rng);
        }
        if !admissible(&doc) {
            continue;
        }
        if pool.len() < POOL_CAP {
            pool.push(doc.clone());
        } else {
            let slot = rng.gen_range(0..POOL_CAP);
            pool[slot] = doc.clone();
        }
        if let Some(w) = try_battery(fd, class, schema, &alphabet, &doc) {
            return Some(w);
        }
    }
    None
}

/// The criterion's verdict, from an unlimited `Analyzer`.
fn criterion(fd: &Fd, class: &UpdateClass, schema: Option<&Schema>) -> Verdict {
    let mut builder = Analyzer::builder();
    if let Some(s) = schema {
        builder = builder.schema(s.clone());
    }
    builder.build().independence(fd, class).verdict
}

/// Applies the op battery to `doc`, returning the first FD-violating
/// `(document, update)` pair.
fn try_battery(
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
    alphabet: &Alphabet,
    doc: &Document,
) -> Option<ImpactWitness> {
    if class.selected_nodes(doc).is_empty() {
        return None;
    }
    // Asymmetric battery ops carry one-shot state: rebuild per attempt.
    for op in op_battery(alphabet) {
        let update = Update::new(class.clone(), op);
        let Ok(after) = update.apply_cloned(doc) else {
            continue;
        };
        if let Some(s) = schema {
            if s.validate(&after).is_err() {
                // The schema-relative definition only quantifies over
                // updates keeping the document valid.
                continue;
            }
        }
        if !satisfies(fd, &after) {
            return Some(ImpactWitness {
                doc: doc.clone(),
                update,
            });
        }
    }
    None
}

/// Runs the criterion and, when inconclusive, the bounded impact search.
pub fn classify_pair<R: Rng>(
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
    rounds: usize,
    rng: &mut R,
) -> PairClassification {
    if criterion(fd, class, schema).is_independent() {
        return PairClassification::ProvenIndependent;
    }
    match search_impact(fd, class, schema, rounds, rng) {
        Some(w) => PairClassification::ConfirmedImpact(Box::new(w)),
        None => PairClassification::Unconfirmed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use regtree_core::{parse_fd, update_class_from_edges};

    fn fd_kv(a: &Alphabet) -> Fd {
        parse_fd(a, "/db : rec/key -> rec/val").unwrap()
    }

    #[test]
    fn independent_pairs_yield_no_witness() {
        let a = Alphabet::new();
        let fd = fd_kv(&a);
        let class = update_class_from_edges(&a, &["db/audit"]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(search_impact(&fd, &class, None, 50, &mut rng).is_none());
        assert!(matches!(
            classify_pair(&fd, &class, None, 50, &mut rng),
            PairClassification::ProvenIndependent
        ));
    }

    #[test]
    fn target_updates_confirm_impact() {
        let a = Alphabet::new();
        let fd = fd_kv(&a);
        // Updating val subtrees directly: a true alarm the search must
        // confirm.
        let class = update_class_from_edges(&a, &["db/rec/val"]).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        match classify_pair(&fd, &class, None, 200, &mut rng) {
            PairClassification::ConfirmedImpact(w) => {
                assert!(satisfies(&fd, &w.doc));
                let after = w.update.apply_cloned(&w.doc).unwrap();
                assert!(!satisfies(&fd, &after));
            }
            other => panic!("expected a confirmed impact, got {other:?}"),
        }
    }

    #[test]
    fn condition_updates_confirm_impact() {
        let a = Alphabet::new();
        let fd = fd_kv(&a);
        // Updating key subtrees can merge two condition classes with
        // different targets.
        let class = update_class_from_edges(&a, &["db/rec/key"]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        match classify_pair(&fd, &class, None, 400, &mut rng) {
            PairClassification::ConfirmedImpact(w) => {
                let after = w.update.apply_cloned(&w.doc).unwrap();
                assert!(!satisfies(&fd, &after));
            }
            PairClassification::Unconfirmed => {
                // Acceptable for a bounded search, but with this budget the
                // witness-guided search should find the merge.
                panic!("search budget should suffice for key-merge impacts");
            }
            PairClassification::ProvenIndependent => {
                panic!("IC cannot prove independence here");
            }
        }
    }
}
