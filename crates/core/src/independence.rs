//! The update–FD independence criterion IC (paper Definition 6,
//! Propositions 2 and 3): its verdict and the entry points of the engine.
//!
//! `L` is the language of schema-valid documents containing a trace of the
//! FD pattern and a trace of the update pattern such that some updated node
//! lies **on** the FD trace or **inside** a subtree rooted at a
//! condition/target image. If `L = ∅`, the FD is independent of the update
//! class (Proposition 2). The check is an emptiness test on a product
//! automaton (Proposition 3) and runs in polynomial time.
//!
//! Both patterns compile to bottom-up automata
//! ([`regtree_pattern::compile_pattern`]); the FD side is compiled with
//! *marking*, so a state other than `⊥` means “on the trace or inside a
//! condition/target subtree” — exactly Definition 6's region. The product
//! of the two, the schema automaton `A_S` and an “updated node in the
//! region below” bit is explored on the fly by the lazy engine
//! (`lazy_ic`), which stops at the first accepting root firing and rebuilds
//! a witness document from it. [`crate::Analyzer::independence`] is the
//! public way in.
//!
//! Proposition 2 is only as sound as the `A_S` the product runs on, so the
//! engine's inputs have one owner, `IcInputs`, for a single pair and a
//! matrix alike. It compiles `A_S` with [`Schema::compile`] once per call:
//! a copy compiled before the FD's labels were interned would lack their
//! leaf transitions and could answer `Independent` for a dependent pair.

use std::sync::Arc;

use regtree_hedge::{CompiledAutomaton, GuardPartition, HedgeAutomaton, Schema};
use regtree_pattern::PatternAutomaton;
use regtree_runtime::{Budget, Resource, RunMetrics, SpanKind, Stopwatch};
use regtree_xml::Document;

use crate::lazy_ic::CompiledTriple;
use crate::update::UpdateClass;

/// Result of the independence analysis.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Verdict {
    /// `L = ∅`: provably independent — no update of the class can ever
    /// break the FD on a schema-valid document (Proposition 2).
    Independent,
    /// The criterion is inconclusive: either `L` is nonempty, or the run
    /// exhausted its resource budget before the emptiness fixpoint settled.
    /// In both cases the sound reading is the same — the FD must be
    /// re-verified after an update of the class.
    #[non_exhaustive]
    Unknown {
        /// A member of `L`, when `L` was proven nonempty and extraction
        /// succeeded. The witness exhibits a document where an update
        /// interacts with the FD (it does **not** prove an actual impact —
        /// IC is sufficient, not complete).
        witness: Option<Box<Document>>,
        /// The resource that ran out, when the verdict is inconclusive
        /// because the run was cut short rather than because `L ≠ ∅`.
        exhausted: Option<Resource>,
    },
}

impl Verdict {
    /// Is the verdict `Independent`?
    pub fn is_independent(&self) -> bool {
        matches!(self, Verdict::Independent)
    }

    /// The exhausted resource, when the run was cut short by its budget.
    pub fn exhausted(&self) -> Option<Resource> {
        match self {
            Verdict::Unknown { exhausted, .. } => *exhausted,
            _ => None,
        }
    }
}

/// Outcome plus measurements of the analysis.
#[derive(Clone, Debug)]
pub struct IndependenceAnalysis {
    /// The verdict.
    pub verdict: Verdict,
    /// States of the combined (pre-schema) automaton.
    pub ic_states: usize,
    /// Product states actually interned by the emptiness check, usually far
    /// fewer than `total_states`.
    pub explored_states: usize,
    /// States of the full schema×FD×U×bit product.
    pub total_states: usize,
    /// Work counters and per-phase wall time of the run.
    pub metrics: RunMetrics,
}

/// The prepared inputs of the IC checks of one call, a single pair or a
/// whole matrix, built in one step inside the caller's `Compile` span: one
/// [`GuardPartition`] over every row, every column and the schema
/// automaton, and the arena/CSR form ([`CompiledAutomaton`]) of each
/// automaton a check runs on, compiled against it once.
///
/// Rows (FD pattern automata, compiled with marking) and columns (update
/// pattern automata) come from the analyzer's pattern cache, which maps
/// identical FDs or classes to one `Arc`. A row or column whose `Arc`
/// occurred earlier is a *twin*: it is not compiled, and its cells take
/// the outcome of its representative's (`fd_rep`, `class_rep`).
pub(crate) struct IcInputs {
    fds: Vec<Arc<PatternAutomaton>>,
    classes: Vec<Arc<PatternAutomaton>>,
    /// Per row: the first run row over the same automaton.
    pub(crate) fd_rep: Vec<usize>,
    /// Per column: the first column over the same automaton.
    pub(crate) class_rep: Vec<usize>,
    partition: GuardPartition,
    /// Compiled forms of the representatives; `None` for twins and for
    /// rows that do not run.
    compiled_fds: Vec<Option<CompiledAutomaton>>,
    compiled_classes: Vec<Option<CompiledAutomaton>>,
    /// `A_S`, or the universal automaton when there is no schema.
    schema: CompiledAutomaton,
}

impl IcInputs {
    /// Prepares the checks of the rows in `run` (in row order) against every
    /// column. `A_S` is compiled here, against the alphabet as it stands
    /// now. The partition covers every row, run or not, so a row's cells do
    /// not depend on which other rows run.
    pub(crate) fn new(
        fds: Vec<Arc<PatternAutomaton>>,
        classes: Vec<Arc<PatternAutomaton>>,
        schema: Option<&Schema>,
        run: &[usize],
    ) -> IcInputs {
        let columns: Vec<usize> = (0..classes.len()).collect();
        let fd_rep = first_twins(&fds, run);
        let class_rep = first_twins(&classes, &columns);
        let a_s = schema.map_or_else(HedgeAutomaton::universal, Schema::compile);
        let partition = GuardPartition::from_automata(
            fds.iter()
                .chain(&classes)
                .map(|pa| &pa.automaton)
                .chain([&a_s]),
        );
        let compile = |pas: &[Arc<PatternAutomaton>], rep: &[usize], run: &[usize]| {
            (0..pas.len())
                .map(|i| {
                    (rep[i] == i && run.contains(&i))
                        .then(|| CompiledAutomaton::compile(&pas[i].automaton, &partition))
                })
                .collect()
        };
        IcInputs {
            compiled_fds: compile(&fds, &fd_rep, run),
            compiled_classes: compile(&classes, &class_rep, &columns),
            schema: CompiledAutomaton::compile(&a_s, &partition),
            partition,
            fds,
            classes,
            fd_rep,
            class_rep,
        }
    }
}

/// Per automaton of `pas`: the first index in `among` over the same `Arc`,
/// or its own index when there is none.
fn first_twins(pas: &[Arc<PatternAutomaton>], among: &[usize]) -> Vec<usize> {
    (0..pas.len())
        .map(|i| {
            among
                .iter()
                .copied()
                .find(|&k| Arc::ptr_eq(&pas[k], &pas[i]))
                .unwrap_or(i)
        })
        .collect()
}

/// The lazy engine on the cell `(fd, class)` of representatives of
/// `inputs`, under an explicit budget: it runs on the shared partition and
/// the [`CompiledTriple`] of the row, the column and the schema.
pub(crate) fn check_independence_governed(
    inputs: &IcInputs,
    (fd, class): (usize, usize),
    update_class: &UpdateClass,
    mut budget: Budget,
    compile_nanos: u64,
) -> IndependenceAnalysis {
    let (pa_fd, pa_u) = (&inputs.fds[fd], &inputs.classes[class]);
    let ic_states = pa_fd.automaton.num_states() * pa_u.automaton.num_states() * 2;
    // One unconditional poll before any work: a pre-cancelled token or an
    // already-elapsed deadline aborts the run even on instances so small
    // they would otherwise decide before the first amortized poll fires.
    if let Err(r) = budget.poll_now() {
        let mut metrics = budget.into_metrics();
        metrics.compile_nanos += compile_nanos;
        return IndependenceAnalysis {
            verdict: Verdict::Unknown {
                witness: None,
                exhausted: Some(r),
            },
            ic_states,
            explored_states: 0,
            total_states: 0,
            metrics,
        };
    }
    let compiled = CompiledTriple {
        f: inputs.compiled_fds[fd]
            .as_ref()
            .expect("a run representative"),
        u: inputs.compiled_classes[class]
            .as_ref()
            .expect("a representative"),
        s: &inputs.schema,
    };
    let search = Stopwatch::start();
    let trace = budget.trace().clone();
    let span = trace.span(SpanKind::IcSearch, "");
    let out = crate::lazy_ic::lazy_independence(
        pa_fd,
        pa_u,
        update_class,
        &inputs.partition,
        compiled,
        &mut budget,
    );
    drop(span);
    let mut metrics = budget.into_metrics();
    metrics.compile_nanos += compile_nanos;
    metrics.search_nanos += search.elapsed_nanos();
    IndependenceAnalysis {
        verdict: out.verdict,
        ic_states,
        explored_states: out.explored_states,
        total_states: out.total_states,
        metrics,
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::analyzer::Analyzer;
    use crate::fd::Fd;
    use crate::textfd::parse_fd;
    use crate::update::update_class_from_edges;
    use regtree_alphabet::Alphabet;
    use regtree_hedge::Schema;

    fn analyze(fd: &Fd, class: &UpdateClass, schema: Option<Schema>) -> IndependenceAnalysis {
        let mut builder = Analyzer::builder();
        if let Some(s) = schema {
            builder = builder.schema(s);
        }
        builder.build().independence(fd, class)
    }

    fn fd_rank(a: &Alphabet) -> Fd {
        parse_fd(
            a,
            "/session : candidate/exam/discipline -> candidate/exam/rank",
        )
        .unwrap()
    }

    #[test]
    fn disjoint_update_is_independent() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // Updates touch an unrelated area of the document.
        let class = update_class_from_edges(&a, &["archive/entry"]).unwrap();
        let analysis = analyze(&fd, &class, None);
        assert!(analysis.verdict.is_independent(), "{analysis:?}");
    }

    #[test]
    fn update_on_trace_interior_is_flagged() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // Candidate nodes are interior nodes of every FD trace.
        let class = update_class_from_edges(&a, &["session/candidate"]).unwrap();
        let analysis = analyze(&fd, &class, None);
        assert!(!analysis.verdict.is_independent());
    }

    #[test]
    fn sibling_label_updates_are_independent() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // 'level' subtrees are disjoint from exam discipline/rank subtrees
        // and never on an FD trace.
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let analysis = analyze(&fd, &class, None);
        assert!(analysis.verdict.is_independent(), "{analysis:?}");
    }

    #[test]
    fn schema_enables_independence_like_example6() {
        let a = Alphabet::new();
        // fd5-style: only candidates *with* a firstJob-Year child are
        // concerned by the FD.
        let mut t = regtree_pattern::Template::new(a.clone());
        let c = t.add_child_str(t.root(), "session").unwrap();
        let cand = t.add_child_str(c, "candidate").unwrap();
        let cond = t.add_child_str(cand, "exam/discipline").unwrap();
        let targ = t.add_child_str(cand, "firstJob-Year").unwrap();
        let pat = regtree_pattern::RegularTreePattern::new(t, vec![cond, targ]).unwrap();
        let fd = Fd::with_default_equality(pat, c).unwrap();
        // Updates touch levels of candidates having a toBePassed child.
        let mut tu = regtree_pattern::Template::new(a.clone());
        let ucand = tu.add_child_str(tu.root(), "session/candidate").unwrap();
        let _tbp = tu.add_child_str(ucand, "toBePassed").unwrap();
        let lvl = tu.add_child_str(ucand, "level").unwrap();
        let class =
            UpdateClass::new(regtree_pattern::RegularTreePattern::monadic(tu, lvl).unwrap())
                .unwrap();
        // Without a schema: a candidate may have both toBePassed and
        // firstJob-Year, so level updates share a trace interior (the
        // candidate node is on both traces? No — level is not on the FD
        // trace, but the criterion needs the *updated node* in the region;
        // level subtrees are not in the FD region, so even without the
        // schema this is independent).
        let no_schema = analyze(&fd, &class, None);
        assert!(no_schema.verdict.is_independent());
        // With the paper's schema (toBePassed XOR firstJob-Year) it stays
        // independent — and remains so even if the update targets the whole
        // candidate content under toBePassed.
        let schema = Schema::parse(
            &a,
            "root: session\n\
             session: candidate*\n\
             candidate: exam* level? (toBePassed | firstJob-Year)\n\
             exam: discipline\n\
             discipline: #text\n\
             level: #text\n\
             toBePassed: discipline*\n\
             firstJob-Year: #text\n",
        )
        .unwrap();
        let with_schema = analyze(&fd, &class, Some(schema));
        assert!(with_schema.verdict.is_independent());
    }

    #[test]
    fn schema_flips_unknown_to_independent() {
        let a = Alphabet::new();
        // FD over candidates with firstJob-Year; update rewrites the exam
        // subtrees of candidates with toBePassed. Without a schema a
        // candidate can have both children, so the update may hit an FD
        // condition subtree; with the XOR schema it cannot (Example 6).
        let mut t = regtree_pattern::Template::new(a.clone());
        let c = t.add_child_str(t.root(), "session").unwrap();
        let cand = t.add_child_str(c, "candidate").unwrap();
        let _fjy = t.add_child_str(cand, "firstJob-Year").unwrap();
        let cond = t.add_child_str(cand, "exam/discipline").unwrap();
        let targ = t.add_child_str(cand, "exam/rank").unwrap();
        let pat = regtree_pattern::RegularTreePattern::new(t, vec![cond, targ]).unwrap();
        let fd = Fd::with_default_equality(pat, c).unwrap();

        let mut tu = regtree_pattern::Template::new(a.clone());
        let ucand = tu.add_child_str(tu.root(), "session/candidate").unwrap();
        let _tbp = tu.add_child_str(ucand, "toBePassed").unwrap();
        let exam = tu.add_child_str(ucand, "exam").unwrap();
        let class =
            UpdateClass::new(regtree_pattern::RegularTreePattern::monadic(tu, exam).unwrap())
                .unwrap();

        let without = analyze(&fd, &class, None);
        assert!(!without.verdict.is_independent(), "{without:?}");

        let schema = Schema::parse(
            &a,
            "root: session\n\
             session: candidate*\n\
             candidate: (toBePassed | firstJob-Year) exam*\n\
             exam: discipline rank\n\
             discipline: #text\n\
             rank: #text\n\
             toBePassed: discipline*\n\
             firstJob-Year: #text\n",
        )
        .unwrap();
        let with = analyze(&fd, &class, Some(schema));
        assert!(with.verdict.is_independent(), "{with:?}");
    }

    #[test]
    fn analysis_reports_sizes() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let class = update_class_from_edges(&a, &["x/y"]).unwrap();
        let r = analyze(&fd, &class, None);
        assert!(r.ic_states > 0);
        assert!(r.total_states >= r.ic_states);
    }
}
