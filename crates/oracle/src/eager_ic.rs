//! The eager IC pipeline: the reference the lazy engine is checked against.
//!
//! `L` is the language of schema-valid documents containing a trace of the
//! FD pattern and a trace of the update pattern such that some updated node
//! lies **on** the FD trace or **inside** a subtree rooted at a
//! condition/target image (paper Definition 6). The product decides the
//! criterion with [`regtree_core::Analyzer::independence`], which never
//! materializes the automaton of Proposition 3; this module does, so the
//! parity suites can diff the two and report the exact `|A|`.
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
//! schema automaton `A_S`, compiled once per call so that it covers every
//! label interned so far, is taken ([`crate::intersect`]) and tested for
//! emptiness ([`crate::witness_document`]), extracting a witness document
//! when nonempty.

use regtree_automata::{Nfa, NfaBuilder, NfaLabel};
use regtree_core::{Fd, UpdateClass};
use regtree_hedge::{HedgeAutomaton, HedgeTransition, Schema, TreeState};
use regtree_pattern::{compile_pattern, PatternAutomaton};
use regtree_xml::Document;

use crate::emptiness::witness_document;
use crate::product::intersect;

/// Outcome and exact sizes of the eager pipeline.
#[derive(Clone, Debug)]
pub struct EagerAnalysis {
    /// A member of `L`, or `None` when `L = ∅` (the pair is independent).
    pub witness: Option<Document>,
    /// States of the combined (pre-schema) automaton.
    pub ic_states: usize,
    /// Size `|A|` (states + horizontal automata) of the final automaton.
    pub automaton_size: usize,
    /// States of the full schema×FD×U×bit product.
    pub total_states: usize,
}

impl EagerAnalysis {
    /// Is `L` empty, i.e. is the pair provably independent?
    pub fn is_independent(&self) -> bool {
        self.witness.is_none()
    }
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
/// product), for size measurements (Proposition 3 experiments).
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

/// The eager reference pipeline: materializes the full IC automaton, takes
/// the eager schema product, and runs the emptiness fixpoint on the result.
///
/// Parity tests check the lazy engine's verdict against it, and it reports
/// the exact `|A|` size of Proposition 3 (the lazy engine never
/// materializes the product).
pub fn check_independence_eager(
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
) -> EagerAnalysis {
    let alphabet = fd.template().alphabet().clone();
    let ic = build_ic_automaton(fd, class);
    let ic_states = ic.num_states();
    let full = match schema {
        Some(s) => intersect(&ic, &s.compile()),
        None => ic,
    };
    EagerAnalysis {
        witness: witness_document(&full, &alphabet),
        ic_states,
        automaton_size: full.size(),
        total_states: full.num_states(),
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
    use regtree_alphabet::Alphabet;
    use regtree_core::{parse_fd, update_class_from_edges, Analyzer, Verdict};
    use regtree_xml::parse_document;

    fn fd_rank(a: &Alphabet) -> Fd {
        parse_fd(
            a,
            "/session : candidate/exam/discipline -> candidate/exam/rank",
        )
        .unwrap()
    }

    #[test]
    fn overlapping_update_is_flagged() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // Updates rewrite rank subtrees: directly in the FD's target region.
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let analysis = Analyzer::builder().build().independence(&fd, &class);
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
}
