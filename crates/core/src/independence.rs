//! The update–FD independence criterion IC (paper Definition 6,
//! Propositions 2 and 3).
//!
//! `L` is the language of schema-valid documents containing a trace of the
//! FD pattern and a trace of the update pattern such that some updated node
//! lies **on** the FD trace or **inside** a subtree rooted at a
//! condition/target image. If `L = ∅`, the FD is independent of the update
//! class (Proposition 2). The check is an emptiness test on a product
//! automaton (Proposition 3) and runs in polynomial time.
//!
//! Construction. Both patterns compile to bottom-up automata
//! ([`regtree_pattern::compile_pattern`]); the FD side is compiled with
//! *marking*, so a state other than `⊥` means “on the trace or inside a
//! condition/target subtree” — exactly Definition 6's region. The two
//! automata are combined into a product whose states carry an extra bit:
//! “the subtree below already contains an updated node whose FD-side state
//! is ≠ ⊥”. The bit is set locally whenever the update-side state is the
//! endpoint of a selected node of `T_U` and the FD-side state is in-region,
//! and ORed upward by the horizontal languages. Acceptance: both patterns
//! complete at the root *and* the bit is set. Finally the product with the
//! schema automaton `A_S` is taken and tested for emptiness, extracting a
//! witness document when nonempty.

use regtree_automata::{Nfa, NfaBuilder, NfaLabel};
use regtree_hedge::{
    intersect, witness_document_governed, GuardPartition, HedgeAutomaton, HedgeTransition, Schema,
    TreeState,
};
use regtree_pattern::{compile_pattern, PatternAutomaton};
use regtree_runtime::{Budget, Resource, RunMetrics, SpanKind, Stopwatch};
use regtree_xml::Document;

use crate::fd::Fd;
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
    /// Size `|A|` (states + horizontal automata) of the final automaton.
    /// The lazy engine never materializes it and reports the state count of
    /// the full product instead.
    pub automaton_size: usize,
    /// Product states actually visited by the emptiness check (equals
    /// `total_states` on the eager path, usually far fewer on the lazy one).
    pub explored_states: usize,
    /// States of the full schema×FD×U×bit product.
    pub total_states: usize,
    /// Work counters and per-phase wall time of the run.
    pub metrics: RunMetrics,
}

/// Bit-aggregation mode of a product transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BitMode {
    /// Children bits unconstrained (the local event already sets the bit).
    AnyBits,
    /// No child bit set (target bit 0, no local event).
    AllZero,
    /// At least one child bit set (target bit 1, no local event).
    AtLeastOne,
}

/// Encodes the product state `(f, u, bit)`.
#[derive(Clone, Copy, Debug)]
struct Enc {
    nu: u32,
}

impl Enc {
    fn state(&self, f: TreeState, u: TreeState, bit: u32) -> TreeState {
        (f * self.nu + u) * 2 + bit
    }
}

/// Builds the IC product automaton for `fd` and `class` (before the schema
/// product). Exposed for size measurements (Proposition 3 experiments).
pub fn build_ic_automaton(fd: &Fd, class: &UpdateClass) -> HedgeAutomaton {
    let pa_fd = compile_pattern(fd.pattern(), true);
    let pa_u = compile_pattern(class.pattern(), false);
    combined(&pa_fd, &pa_u, class)
}

fn combined(
    pa_fd: &PatternAutomaton,
    pa_u: &PatternAutomaton,
    class: &UpdateClass,
) -> HedgeAutomaton {
    let nf = pa_fd.automaton.num_states() as u32;
    let nu = pa_u.automaton.num_states() as u32;
    let enc = Enc { nu };
    let mut transitions = Vec::new();

    for tf in pa_fd.automaton.transitions() {
        for tu in pa_u.automaton.transitions() {
            let Some(guard) = tf.guard.intersect(&tu.guard) else {
                continue;
            };
            // Local event: this node is an updated node (endpoint of a
            // selected T_U leaf) and sits in the FD region.
            let updated_here = pa_u
                .endpoint_of(tu.target)
                .map(|w| class.pattern().selected().contains(&w))
                .unwrap_or(false);
            let local = updated_here && pa_fd.in_region(tf.target);
            if local {
                transitions.push(HedgeTransition {
                    guard: guard.clone(),
                    horizontal: horizontal_triple(
                        &tf.horizontal,
                        &tu.horizontal,
                        nf,
                        nu,
                        enc,
                        BitMode::AnyBits,
                    ),
                    target: enc.state(tf.target, tu.target, 1),
                });
            }
            // Without (or in addition to) the local event, the bit is the OR
            // of the children bits.
            transitions.push(HedgeTransition {
                guard: guard.clone(),
                horizontal: horizontal_triple(
                    &tf.horizontal,
                    &tu.horizontal,
                    nf,
                    nu,
                    enc,
                    BitMode::AllZero,
                ),
                target: enc.state(tf.target, tu.target, u32::from(local)),
            });
            transitions.push(HedgeTransition {
                guard,
                horizontal: horizontal_triple(
                    &tf.horizontal,
                    &tu.horizontal,
                    nf,
                    nu,
                    enc,
                    BitMode::AtLeastOne,
                ),
                target: enc.state(tf.target, tu.target, 1),
            });
        }
    }

    let finals = vec![enc.state(pa_fd.acc, pa_u.acc, 1)];
    HedgeAutomaton::new((nf * nu * 2) as usize, transitions, finals)
}

/// Product of two horizontal languages over `(f, u, bit)`-encoded letters,
/// with the stated bit aggregation.
fn horizontal_triple(hf: &Nfa, hu: &Nfa, nf: u32, nu: u32, enc: Enc, mode: BitMode) -> Nfa {
    let sf_n = hf.num_states() as u32;
    let su_n = hu.num_states() as u32;
    // Product states: (sf, su, seen) with seen ∈ {0,1}.
    let mut b = NfaBuilder::new();
    for _ in 0..sf_n * su_n * 2 {
        b.add_state();
    }
    let pid = |sf: u32, su: u32, seen: u32| (sf * su_n + su) * 2 + seen;
    // ε moves of either side preserve (su, seen) / (sf, seen).
    for sf in 0..sf_n {
        for &(lf, tf2) in hf.transitions_from(sf) {
            if matches!(lf, NfaLabel::Eps) {
                for su in 0..su_n {
                    for seen in 0..2 {
                        b.add_transition(pid(sf, su, seen), NfaLabel::Eps, pid(tf2, su, seen));
                    }
                }
            }
        }
    }
    for su in 0..su_n {
        for &(lu, tu2) in hu.transitions_from(su) {
            if matches!(lu, NfaLabel::Eps) {
                for sf in 0..sf_n {
                    for seen in 0..2 {
                        b.add_transition(pid(sf, su, seen), NfaLabel::Eps, pid(sf, tu2, seen));
                    }
                }
            }
        }
    }
    // Consuming moves, synchronized on triple letters.
    let bits: &[u32] = match mode {
        BitMode::AllZero => &[0],
        _ => &[0, 1],
    };
    for sf in 0..sf_n {
        for &(lf, tf2) in hf.transitions_from(sf) {
            let f_opts: Vec<u32> = match lf {
                NfaLabel::Eps => continue,
                NfaLabel::Sym(x) => vec![x],
                NfaLabel::Any => (0..nf).collect(),
            };
            for su in 0..su_n {
                for &(lu, tu2) in hu.transitions_from(su) {
                    let u_opts: Vec<u32> = match lu {
                        NfaLabel::Eps => continue,
                        NfaLabel::Sym(y) => vec![y],
                        NfaLabel::Any => (0..nu).collect(),
                    };
                    for &x in &f_opts {
                        for &y in &u_opts {
                            for &bit in bits {
                                let letter = enc.state(x, y, bit);
                                for seen in 0..2 {
                                    let seen2 = seen | bit;
                                    b.add_transition(
                                        pid(sf, su, seen),
                                        NfaLabel::Sym(letter),
                                        pid(tf2, tu2, seen2),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    b.set_start(pid(hf.start(), hu.start(), 0));
    for sf in 0..sf_n {
        if !hf.is_accept(sf) {
            continue;
        }
        for su in 0..su_n {
            if !hu.is_accept(su) {
                continue;
            }
            match mode {
                BitMode::AnyBits => {
                    b.set_accept(pid(sf, su, 0));
                    b.set_accept(pid(sf, su, 1));
                }
                BitMode::AllZero => b.set_accept(pid(sf, su, 0)),
                BitMode::AtLeastOne => b.set_accept(pid(sf, su, 1)),
            }
        }
    }
    b.finish()
}

/// The lazy engine on precompiled inputs under an explicit budget. This is
/// the single shared entry point of [`crate::analyzer::Analyzer`], the batch
/// matrix, and the deprecated free functions. `compiled` optionally carries
/// the arena/CSR forms of the three automata (compiled against `partition`)
/// so matrix drivers pay the compilation once per automaton, not per cell.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_independence_governed(
    alphabet: &regtree_alphabet::Alphabet,
    pa_fd: &PatternAutomaton,
    pa_u: &PatternAutomaton,
    class: &UpdateClass,
    schema_auto: Option<&HedgeAutomaton>,
    partition: Option<&GuardPartition>,
    compiled: Option<crate::lazy_ic::CompiledTriple<'_>>,
    mut budget: Budget,
    compile_nanos: u64,
) -> IndependenceAnalysis {
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
            automaton_size: 0,
            explored_states: 0,
            total_states: 0,
            metrics,
        };
    }
    let search = Stopwatch::start();
    let trace = budget.trace().clone();
    let span = trace.span(SpanKind::IcSearch, "");
    let out = crate::lazy_ic::lazy_independence(
        alphabet,
        pa_fd,
        pa_u,
        class,
        schema_auto,
        partition,
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
        automaton_size: out.total_states,
        explored_states: out.explored_states,
        total_states: out.total_states,
        metrics,
    }
}

/// The lazy engine on freshly compiled inputs under an unlimited budget
/// (in-crate form for `impact` and tests; external callers go through
/// [`crate::analyzer::Analyzer`]).
pub(crate) fn check_independence_internal(
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
) -> IndependenceAnalysis {
    let alphabet = fd.template().alphabet().clone();
    let compile = Stopwatch::start();
    let pa_fd = compile_pattern(fd.pattern(), true);
    let pa_u = compile_pattern(class.pattern(), false);
    let schema_auto = schema.map(|s| s.compiled());
    let compile_nanos = compile.elapsed_nanos();
    check_independence_governed(
        &alphabet,
        &pa_fd,
        &pa_u,
        class,
        schema_auto.as_deref(),
        None,
        None,
        Budget::unlimited(),
        compile_nanos,
    )
}

/// The eager reference pipeline: materializes the full IC automaton, takes
/// the eager schema product, and runs the emptiness fixpoint on the result.
///
/// This is **not** the production path — [`crate::Analyzer::independence`]
/// runs the lazy on-the-fly engine — but it is kept public as the
/// independent reference implementation: parity tests check the lazy
/// engine's verdict against it, and it reports the exact `|A|` size of
/// Proposition 3 (the lazy engine never materializes the product).
pub fn check_independence_eager(
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
) -> IndependenceAnalysis {
    let alphabet = fd.template().alphabet().clone();
    let compile = Stopwatch::start();
    let ic = build_ic_automaton(fd, class);
    let ic_states = ic.num_states();
    let full = match schema {
        Some(s) => intersect(&ic, &s.compiled()),
        None => ic,
    };
    let compile_nanos = compile.elapsed_nanos();
    let automaton_size = full.size();
    let total_states = full.num_states();
    let search = Stopwatch::start();
    let mut budget = Budget::unlimited();
    let verdict = match witness_document_governed(&full, &alphabet, &mut budget)
        .expect("unlimited budget cannot be exhausted")
    {
        None => Verdict::Independent,
        Some(doc) => Verdict::Unknown {
            witness: Some(Box::new(doc)),
            exhausted: None,
        },
    };
    let mut metrics = budget.into_metrics();
    metrics.compile_nanos += compile_nanos;
    metrics.search_nanos += search.elapsed_nanos();
    IndependenceAnalysis {
        verdict,
        ic_states,
        automaton_size,
        explored_states: total_states,
        total_states,
        metrics,
    }
}

/// The *language membership* test of Definition 6, for a concrete document:
/// is `doc` in `L`? Used to validate the automaton construction against a
/// direct implementation in tests.
pub fn in_language_naive(fd: &Fd, class: &UpdateClass, doc: &Document) -> bool {
    use std::collections::HashSet;
    // Region: trace nodes of some FD mapping, plus subtrees under
    // condition/target images. Computed per FD mapping; the update-selected
    // node must hit the region of *some* FD mapping while some update
    // mapping selects it.
    let fd_maps = regtree_pattern::enumerate_mappings(fd.template(), doc);
    if fd_maps.is_empty() {
        return false;
    }
    let mut selected: HashSet<regtree_xml::NodeId> = HashSet::new();
    for tuple in class.pattern().evaluate(doc) {
        selected.extend(tuple);
    }
    if selected.is_empty() {
        return false;
    }
    for m in &fd_maps {
        let mut region: HashSet<regtree_xml::NodeId> = m.trace_nodes(doc).into_iter().collect();
        for &sel in fd.pattern().selected() {
            for n in doc.descendants_or_self(m.image(sel)) {
                region.insert(n);
            }
        }
        if selected.iter().any(|n| region.contains(n)) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::textfd::parse_fd;
    use crate::update::update_class_from_edges;
    use regtree_alphabet::Alphabet;
    use regtree_xml::parse_document;

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
        let analysis = check_independence_internal(&fd, &class, None);
        assert!(analysis.verdict.is_independent(), "{analysis:?}");
    }

    #[test]
    fn overlapping_update_is_flagged() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // Updates rewrite rank subtrees: directly in the FD's target region.
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let analysis = check_independence_internal(&fd, &class, None);
        match analysis.verdict {
            Verdict::Unknown {
                witness: Some(w), ..
            } => {
                assert!(in_language_naive(&fd, &class, &w), "witness not in L");
            }
            other => panic!("expected Unknown with witness, got {other:?}"),
        }
    }

    #[test]
    fn update_on_trace_interior_is_flagged() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // Candidate nodes are interior nodes of every FD trace.
        let class = update_class_from_edges(&a, &["session/candidate"]).unwrap();
        let analysis = check_independence_internal(&fd, &class, None);
        assert!(!analysis.verdict.is_independent());
    }

    #[test]
    fn sibling_label_updates_are_independent() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // 'level' subtrees are disjoint from exam discipline/rank subtrees
        // and never on an FD trace.
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let analysis = check_independence_internal(&fd, &class, None);
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
        let no_schema = check_independence_internal(&fd, &class, None);
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
        let with_schema = check_independence_internal(&fd, &class, Some(&schema));
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

        let without = check_independence_internal(&fd, &class, None);
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
        let with = check_independence_internal(&fd, &class, Some(&schema));
        assert!(with.verdict.is_independent(), "{with:?}");
    }

    #[test]
    fn naive_membership_agrees_on_examples() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let in_l = parse_document(
            &a,
            "<session><candidate><exam><discipline>m</discipline><rank>1</rank></exam></candidate></session>",
        )
        .unwrap();
        assert!(in_language_naive(&fd, &class, &in_l));
        let not_in_l = parse_document(
            &a,
            "<session><candidate><exam><discipline>m</discipline></exam></candidate></session>",
        )
        .unwrap();
        assert!(!in_language_naive(&fd, &class, &not_in_l));
    }

    #[test]
    fn analysis_reports_sizes() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let class = update_class_from_edges(&a, &["x/y"]).unwrap();
        let r = check_independence_internal(&fd, &class, None);
        assert!(r.ic_states > 0);
        assert!(r.automaton_size >= r.ic_states);
    }
}
