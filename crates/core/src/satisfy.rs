//! FD satisfaction checking (Definition 5).
//!
//! A document satisfies `(FD, c)` when any two traces agreeing on the
//! context image (node identity) and on every condition image (under its
//! equality type) also agree on the target image. Operationally: project
//! every mapping onto `(c, p1, …, pn, q)`, bucket the projections by
//! `(context-id, condition keys)` and verify each bucket has exactly one
//! target class.
//!
//! Value-typed keys hash the rooted subtree canonically
//! ([`regtree_xml::value_hash`]) and candidate collisions are confirmed with
//! the full structural comparison — hash collisions cannot produce false
//! verdicts.
//!
//! Trace enumeration reads the document's own label index
//! ([`Document::index`]): every FD checked on one document shares a single
//! build, and an edited document's index is patched, not rebuilt.

use std::collections::HashMap;

use regtree_runtime::{
    Budget, CancelToken, Resource, RunLimits, RunMetrics, SpanKind, Stopwatch, TraceHandle,
};
use regtree_xml::{value_eq_in, value_hash, Document, NodeId};

use crate::fd::{EqualityType, Fd};

/// A witness of an FD violation: two trace projections that agree on context
/// and conditions but disagree on the target.
#[derive(Clone, Debug)]
pub struct FdViolation {
    /// The shared context node.
    pub context: NodeId,
    /// Condition images of the first trace.
    pub conditions_a: Vec<NodeId>,
    /// Condition images of the second trace.
    pub conditions_b: Vec<NodeId>,
    /// Target image of the first trace.
    pub target_a: NodeId,
    /// Target image of the second trace.
    pub target_b: NodeId,
}

impl FdViolation {
    /// Human-readable rendering with Dewey positions.
    pub fn describe(&self, doc: &Document) -> String {
        format!(
            "FD violated under context {}: conditions {:?} / {:?} agree but targets {} and {} differ",
            doc.dewey_string(self.context),
            self.conditions_a
                .iter()
                .map(|&n| doc.dewey_string(n))
                .collect::<Vec<_>>(),
            self.conditions_b
                .iter()
                .map(|&n| doc.dewey_string(n))
                .collect::<Vec<_>>(),
            doc.dewey_string(self.target_a),
            doc.dewey_string(self.target_b),
        )
    }
}

/// A hashable first-pass key; exact equality is confirmed afterwards.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum KeyPart {
    Node(NodeId),
    ValueHash(u64),
}

/// One confirmed condition-equal class: its condition representatives and
/// the target representative every later trace must agree with.
#[derive(Clone, Debug)]
struct Group {
    conditions: Vec<NodeId>,
    target: NodeId,
}

/// The bucket structure a satisfied FD check leaves behind, keyed by
/// context node so an incremental recheck can drop the buckets of the
/// contexts an edit touched and re-derive only those
/// ([`crate::IncrementalChecker`]).
///
/// Invariant: inserting every projection of a document without hitting a
/// violation is exactly [`check_fd_governed`] returning `Satisfied` — the
/// two share this code path.
#[derive(Clone, Debug, Default)]
pub(crate) struct BucketState {
    per_context: HashMap<NodeId, HashMap<Vec<KeyPart>, Vec<Group>>>,
}

impl BucketState {
    /// Folds one `(c, p1…pn, q)` projection in; `Err` is a violation
    /// witness against a previously inserted trace of the same context.
    pub(crate) fn insert(
        &mut self,
        fd: &Fd,
        doc: &Document,
        proj: &[NodeId],
    ) -> Result<(), FdViolation> {
        let n_cond = fd.conditions().len();
        let eqs = fd.equality();
        let context = proj[0];
        let conditions: Vec<NodeId> = proj[1..1 + n_cond].to_vec();
        let target = proj[1 + n_cond];
        let key: Vec<KeyPart> = conditions
            .iter()
            .enumerate()
            .map(|(i, &c)| key_part(doc, c, eqs[i]))
            .collect();
        let groups = self
            .per_context
            .entry(context)
            .or_default()
            .entry(key)
            .or_default();
        for g in groups.iter() {
            let same_conditions = g
                .conditions
                .iter()
                .zip(conditions.iter())
                .enumerate()
                .all(|(i, (&a, &b))| nodes_equal(doc, a, b, eqs[i]));
            if !same_conditions {
                continue; // genuine hash collision: different class
            }
            if !nodes_equal(doc, g.target, target, fd.target_equality()) {
                return Err(FdViolation {
                    context,
                    conditions_a: g.conditions.clone(),
                    conditions_b: conditions,
                    target_a: g.target,
                    target_b: target,
                });
            }
            return Ok(());
        }
        groups.push(Group { conditions, target });
        Ok(())
    }

    /// Drops every bucket of `context` (its traces will be re-derived).
    pub(crate) fn remove_context(&mut self, context: NodeId) {
        self.per_context.remove(&context);
    }

    /// The context nodes currently holding buckets.
    pub(crate) fn contexts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.per_context.keys().copied()
    }
}

/// The projection tuple an FD check keeps: `(c, p1, …, pn, q)`.
pub(crate) fn fd_keep(fd: &Fd) -> Vec<regtree_pattern::TemplateNodeId> {
    let mut keep = vec![fd.context()];
    keep.extend_from_slice(fd.conditions());
    keep.push(fd.target());
    keep
}

fn key_part(doc: &Document, n: NodeId, eq: EqualityType) -> KeyPart {
    match eq {
        EqualityType::Node => KeyPart::Node(n),
        EqualityType::Value => KeyPart::ValueHash(value_hash(doc, n)),
    }
}

fn nodes_equal(doc: &Document, a: NodeId, b: NodeId, eq: EqualityType) -> bool {
    match eq {
        EqualityType::Node => a == b,
        EqualityType::Value => a == b || value_eq_in(doc, a, b),
    }
}

/// Checks `fd` on `doc`; `Err` carries a concrete violation witness.
pub fn check_fd(fd: &Fd, doc: &Document) -> Result<(), FdViolation> {
    check_fd_governed(fd, doc, &mut Budget::unlimited()).into_unlimited()
}

/// Outcome of one governed FD check: the budget can run out before the
/// trace enumeration settles, in which case the verdict is `Unknown`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum FdOutcome {
    /// Every pair of traces agrees: the FD holds on the document.
    Satisfied,
    /// A concrete pair of traces violates the FD.
    Violated(FdViolation),
    /// The run was cut short before a verdict was reached.
    #[non_exhaustive]
    Unknown {
        /// The resource that ran out.
        exhausted: Resource,
    },
}

impl FdOutcome {
    /// Is this outcome `Satisfied`?
    pub fn is_satisfied(&self) -> bool {
        matches!(self, FdOutcome::Satisfied)
    }

    /// The verdict of a run with unlimited limits and no cancel token,
    /// which cannot come back `Unknown`.
    pub(crate) fn into_unlimited(self) -> Result<(), FdViolation> {
        match self {
            FdOutcome::Satisfied => Ok(()),
            FdOutcome::Violated(v) => Err(v),
            FdOutcome::Unknown { .. } => unreachable!("an unlimited budget cannot be exhausted"),
        }
    }
}

/// [`check_fd`] under a resource [`Budget`]: pattern-evaluation work (DFA
/// steps, candidate-memo entries) is metered and the check aborts with
/// [`FdOutcome::Unknown`] once a cap or the deadline is crossed.
pub(crate) fn check_fd_governed(fd: &Fd, doc: &Document, budget: &mut Budget) -> FdOutcome {
    check_fd_governed_retaining(fd, doc, budget).0
}

/// [`check_fd_governed`] that additionally hands back the per-context
/// [`BucketState`] on a `Satisfied` verdict, for incremental rechecking to
/// patch instead of rebuild. `Violated`/`Unknown` runs return `None`: a
/// partial bucket state is not a sound basis for patching.
pub(crate) fn check_fd_governed_retaining(
    fd: &Fd,
    doc: &Document,
    budget: &mut Budget,
) -> (FdOutcome, Option<BucketState>) {
    let trace = budget.trace().clone();
    let _span = trace.span(SpanKind::FdCheck, "");
    // One unconditional poll before any work: a pre-cancelled token or an
    // already-elapsed deadline aborts even FDs that would decide before the
    // first amortized poll fires.
    if let Err(r) = budget.poll_now() {
        return (FdOutcome::Unknown { exhausted: r }, None);
    }
    let keep = fd_keep(fd);
    let projections =
        match regtree_pattern::project_mappings_governed(fd.template(), doc, &keep, budget) {
            Ok(p) => p,
            Err(r) => return (FdOutcome::Unknown { exhausted: r }, None),
        };

    let mut buckets = BucketState::default();
    for proj in projections {
        if let Err(v) = buckets.insert(fd, doc, &proj) {
            return (FdOutcome::Violated(v), None);
        }
    }
    (FdOutcome::Satisfied, Some(buckets))
}

/// Boolean convenience wrapper.
///
/// # Examples
///
/// ```
/// use regtree_core::{parse_fd, satisfies};
/// use regtree_alphabet::Alphabet;
/// use regtree_xml::parse_document;
///
/// let a = Alphabet::new();
/// let fd = parse_fd(&a, "/s : i/k -> i/v").unwrap();
/// let same = parse_document(
///     &a,
///     "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>1</v></i></s>",
/// ).unwrap();
/// let clash = parse_document(
///     &a,
///     "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>2</v></i></s>",
/// ).unwrap();
/// assert!(satisfies(&fd, &same));
/// assert!(!satisfies(&fd, &clash)); // same key, different values
/// ```
pub fn satisfies(fd: &Fd, doc: &Document) -> bool {
    check_fd(fd, doc).is_ok()
}

/// Report of a governed batch FD check: one outcome per FD (in input
/// order) plus the merged work counters of all runs.
#[derive(Clone, Debug)]
pub struct FdBatchReport {
    /// One outcome per FD, in input order.
    pub outcomes: Vec<FdOutcome>,
    /// Merged counters and wall time across all FD checks.
    pub metrics: RunMetrics,
}

impl FdBatchReport {
    /// Do all FDs hold? (`Unknown` outcomes count as not-satisfied.)
    pub fn all_satisfied(&self) -> bool {
        self.outcomes.iter().all(FdOutcome::is_satisfied)
    }
}

/// Checks many FDs on one document over scoped worker threads, under a
/// shared budget: the engine behind [`crate::Analyzer::check_fds`]. The
/// wall-clock deadline is global to the batch; count caps apply per FD. Cancellation aborts pending checks,
/// which report `Unknown { exhausted: Cancelled }`.
pub(crate) fn check_fds_governed(
    fds: &[Fd],
    doc: &Document,
    limits: &RunLimits,
    cancel: Option<&CancelToken>,
    trace: &TraceHandle,
) -> FdBatchReport {
    let search = Stopwatch::start();
    let deadline_at = Budget::new(limits).deadline_at();
    let results = regtree_pattern::parallel_map(fds, |fd| {
        let mut budget = Budget::new(limits)
            .with_deadline_at(deadline_at)
            .with_trace(trace.clone());
        if let Some(c) = cancel {
            budget = budget.with_cancel(c.clone());
        }
        let outcome = check_fd_governed(fd, doc, &mut budget);
        (outcome, budget.into_metrics())
    });
    let mut metrics = RunMetrics::default();
    let mut outcomes = Vec::with_capacity(results.len());
    for (outcome, m) in results {
        metrics.merge(&m);
        outcomes.push(outcome);
    }
    metrics.search_nanos = search.elapsed_nanos();
    FdBatchReport { outcomes, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textfd::parse_fd;
    use regtree_alphabet::Alphabet;
    use regtree_xml::parse_document;

    fn fd1(a: &Alphabet) -> Fd {
        parse_fd(
            a,
            "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
        )
        .unwrap()
    }

    fn exam(disc: &str, mark: &str, rank: &str) -> String {
        format!(
            "<exam><discipline>{disc}</discipline><mark>{mark}</mark><rank>{rank}</rank></exam>"
        )
    }

    #[test]
    fn fd1_satisfied() {
        let a = Alphabet::new();
        let doc = parse_document(
            &a,
            &format!(
                "<session><candidate>{}{}</candidate><candidate>{}</candidate></session>",
                exam("math", "15", "2"),
                exam("bio", "15", "1"),
                exam("math", "15", "2"),
            ),
        )
        .unwrap();
        assert!(satisfies(&fd1(&a), &doc));
    }

    #[test]
    fn fd1_violated_across_candidates() {
        let a = Alphabet::new();
        let doc = parse_document(
            &a,
            &format!(
                "<session><candidate>{}</candidate><candidate>{}</candidate></session>",
                exam("math", "15", "2"),
                exam("math", "15", "3"), // same discipline+mark, different rank
            ),
        )
        .unwrap();
        let err = check_fd(&fd1(&a), &doc).unwrap_err();
        assert_ne!(err.target_a, err.target_b);
        assert!(err.describe(&doc).contains("FD violated"));
    }

    #[test]
    fn different_contexts_do_not_interact() {
        let a = Alphabet::new();
        // Two sessions: same discipline+mark with different ranks, but under
        // different session (context) nodes — no violation.
        let doc = parse_document(
            &a,
            &format!(
                "<session><candidate>{}</candidate></session><session><candidate>{}</candidate></session>",
                exam("math", "15", "2"),
                exam("math", "15", "3"),
            ),
        )
        .unwrap();
        assert!(satisfies(&fd1(&a), &doc));
    }

    #[test]
    fn fd2_node_equality_target() {
        let a = Alphabet::new();
        // fd2: a candidate cannot take two different exams of the same
        // discipline at the same date (target: the exam node itself, =N).
        let fd2 = parse_fd(
            &a,
            "/session/candidate : exam/@date, exam/discipline -> exam[N]",
        )
        .unwrap();
        let ok = parse_document(
            &a,
            "<session><candidate>\
             <exam date=\"d1\"><discipline>math</discipline></exam>\
             <exam date=\"d2\"><discipline>math</discipline></exam>\
             </candidate></session>",
        )
        .unwrap();
        assert!(satisfies(&fd2, &ok));
        let bad = parse_document(
            &a,
            "<session><candidate>\
             <exam date=\"d1\"><discipline>math</discipline></exam>\
             <exam date=\"d1\"><discipline>math</discipline></exam>\
             </candidate></session>",
        )
        .unwrap();
        assert!(!satisfies(&fd2, &bad));
    }

    #[test]
    fn value_equality_is_structural() {
        let a = Alphabet::new();
        // Conditions compare whole subtrees: extra children break equality.
        let fd = parse_fd(&a, "/r : item/key -> item/val").unwrap();
        let doc = parse_document(
            &a,
            "<r><item><key><k/>x</key><val>1</val></item>\
               <item><key><k/></key><val>2</val></item></r>",
        )
        .unwrap();
        // Keys differ structurally (one has text 'x'), so no violation.
        assert!(satisfies(&fd, &doc));
    }

    #[test]
    fn no_mappings_vacuously_satisfied() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<empty/>").unwrap();
        assert!(satisfies(&fd1(&a), &doc));
    }

    #[test]
    fn same_trace_pair_is_not_a_violation() {
        let a = Alphabet::new();
        let doc = parse_document(
            &a,
            &format!(
                "<session><candidate>{}</candidate></session>",
                exam("m", "1", "1")
            ),
        )
        .unwrap();
        assert!(satisfies(&fd1(&a), &doc));
    }
}
