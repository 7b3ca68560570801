//! The product of two hedge automata.
//!
//! Proposition 3 builds the IC automaton `A` as “a product automaton between
//! the automata `A_S` and `B`”. [`intersect`] implements that product for
//! arbitrary nondeterministic hedge automata; the eager IC pipeline uses it.

use regtree_automata::{Nfa, NfaBuilder, NfaLabel};
use regtree_hedge::{HedgeAutomaton, HedgeTransition, TreeState};

/// Pair-state encoding for products: `(qa, qb) -> qa * nb + qb`.
#[derive(Clone, Copy, Debug)]
struct PairEncoding {
    /// Number of states of the second automaton.
    nb: u32,
}

impl PairEncoding {
    /// Encodes a state pair.
    fn encode(&self, qa: TreeState, qb: TreeState) -> TreeState {
        qa * self.nb + qb
    }
}

/// Product of two horizontal NFAs over pair-encoded letters: accepts a word
/// of encoded pairs iff the first projections are accepted by `ha` and the
/// second by `hb`.
fn horizontal_product(ha: &Nfa, hb: &Nfa, na: u32, enc: PairEncoding) -> Nfa {
    let sa_n = ha.num_states() as u32;
    let sb_n = hb.num_states() as u32;
    let mut b = NfaBuilder::new();
    for _ in 0..sa_n * sb_n {
        b.add_state();
    }
    let pid = |sa: u32, sb: u32| sa * sb_n + sb;
    for sa in 0..sa_n {
        for &(la, ta) in ha.transitions_from(sa) {
            if la == NfaLabel::Eps {
                for sb in 0..sb_n {
                    b.add_transition(pid(sa, sb), NfaLabel::Eps, pid(ta, sb));
                }
            }
        }
    }
    for sb in 0..sb_n {
        for &(lb, tb) in hb.transitions_from(sb) {
            if matches!(lb, NfaLabel::Eps) {
                for sa in 0..sa_n {
                    b.add_transition(pid(sa, sb), NfaLabel::Eps, pid(sa, tb));
                }
            }
        }
    }
    // Consuming moves: synchronize on pair letters.
    for sa in 0..sa_n {
        for &(la, ta) in ha.transitions_from(sa) {
            let qa_options: Vec<Option<u32>> = match la {
                NfaLabel::Eps => continue,
                NfaLabel::Sym(x) => vec![Some(x)],
                NfaLabel::Any => vec![None],
            };
            for sb in 0..sb_n {
                for &(lb, tb) in hb.transitions_from(sb) {
                    let qb_options: Vec<Option<u32>> = match lb {
                        NfaLabel::Eps => continue,
                        NfaLabel::Sym(y) => vec![Some(y)],
                        NfaLabel::Any => vec![None],
                    };
                    for &qa in &qa_options {
                        for &qb in &qb_options {
                            match (qa, qb) {
                                (Some(x), Some(y)) => {
                                    b.add_transition(
                                        pid(sa, sb),
                                        NfaLabel::Sym(enc.encode(x, y)),
                                        pid(ta, tb),
                                    );
                                }
                                (Some(x), None) => {
                                    for y in 0..enc.nb {
                                        b.add_transition(
                                            pid(sa, sb),
                                            NfaLabel::Sym(enc.encode(x, y)),
                                            pid(ta, tb),
                                        );
                                    }
                                }
                                (None, Some(y)) => {
                                    for x in 0..na {
                                        b.add_transition(
                                            pid(sa, sb),
                                            NfaLabel::Sym(enc.encode(x, y)),
                                            pid(ta, tb),
                                        );
                                    }
                                }
                                (None, None) => {
                                    // Any pair letter.
                                    b.add_transition(pid(sa, sb), NfaLabel::Any, pid(ta, tb));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    b.set_start(pid(ha.start(), hb.start()));
    for sa in 0..sa_n {
        if !ha.is_accept(sa) {
            continue;
        }
        for sb in 0..sb_n {
            if hb.is_accept(sb) {
                b.set_accept(pid(sa, sb));
            }
        }
    }
    b.finish()
}

/// Product automaton recognizing `L(a) ∩ L(b)`.
pub fn intersect(a: &HedgeAutomaton, b: &HedgeAutomaton) -> HedgeAutomaton {
    let na = a.num_states() as u32;
    let nb = b.num_states() as u32;
    let enc = PairEncoding { nb };
    let mut transitions = Vec::new();
    for ta in a.transitions() {
        for tb in b.transitions() {
            let Some(guard) = ta.guard.intersect(&tb.guard) else {
                continue;
            };
            let horizontal = horizontal_product(&ta.horizontal, &tb.horizontal, na, enc);
            transitions.push(HedgeTransition {
                guard,
                horizontal,
                target: enc.encode(ta.target, tb.target),
            });
        }
    }
    let mut finals = Vec::new();
    for &fa in a.finals() {
        for &fb in b.finals() {
            finals.push(enc.encode(fa, fb));
        }
    }
    HedgeAutomaton::new((na * nb) as usize, transitions, finals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;
    use regtree_hedge::{horizontal_star, LabelGuard};
    use regtree_xml::parse_document;

    /// Accepts documents whose root children are all `x` (at least `min`).
    fn all_x(alpha: &Alphabet, min_one: bool) -> HedgeAutomaton {
        let x = alpha.intern("x");
        let mut h = NfaBuilder::new();
        let s0 = h.add_state();
        h.add_transition(s0, NfaLabel::Sym(0), s0);
        h.set_start(s0);
        if min_one {
            let s1 = h.add_state();
            h.add_transition(s0, NfaLabel::Sym(0), s1);
            h.add_transition(s1, NfaLabel::Sym(0), s1);
            h.set_accept(s1);
        } else {
            h.set_accept(s0);
        }
        HedgeAutomaton::new(
            2,
            vec![
                HedgeTransition {
                    guard: LabelGuard::Is(x),
                    horizontal: horizontal_star(9), // x nodes are leaves (9 unused)
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    horizontal: h.finish(),
                    target: 1,
                },
            ],
            vec![1],
        )
    }

    /// Accepts documents with at most `max` root children (any labels).
    fn few_children(max: usize) -> HedgeAutomaton {
        let mut h = NfaBuilder::new();
        let mut states = vec![h.add_state()];
        for _ in 0..max {
            states.push(h.add_state());
        }
        for i in 0..max {
            h.add_transition(states[i], NfaLabel::Sym(0), states[i + 1]);
        }
        h.set_start(states[0]);
        for &s in &states {
            h.set_accept(s);
        }
        // Children take state 0 under any label; leaves only for simplicity:
        // allow arbitrary subtrees via Any + 0* horizontal.
        HedgeAutomaton::new(
            2,
            vec![
                HedgeTransition {
                    guard: LabelGuard::AnyExcept(vec![Alphabet::ROOT]),
                    horizontal: horizontal_star(0),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    horizontal: h.finish(),
                    target: 1,
                },
            ],
            vec![1],
        )
    }

    #[test]
    fn intersection_semantics() {
        let alpha = Alphabet::new();
        let a = all_x(&alpha, true);
        let b = few_children(2);
        let prod = intersect(&a, &b);
        let cases = [
            ("<x/>", true),
            ("<x/><x/>", true),
            ("<x/><x/><x/>", false), // too many for b
            ("<y/>", false),         // not x for a
        ];
        for (src, expect) in cases {
            let doc = parse_document(&alpha, src).unwrap();
            assert_eq!(crate::accepts(&prod, &doc), expect, "{src}");
            assert_eq!(
                crate::accepts(&prod, &doc),
                crate::accepts(&a, &doc) && crate::accepts(&b, &doc),
                "product law on {src}"
            );
        }
    }

    #[test]
    fn empty_document_intersection() {
        let alpha = Alphabet::new();
        let a = all_x(&alpha, false);
        let b = few_children(1);
        let prod = intersect(&a, &b);
        let mut doc = regtree_xml::Document::new(alpha);
        let _ = &mut doc;
        assert!(crate::accepts(&prod, &doc));
    }

    #[test]
    fn intersection_with_universal_is_identity() {
        let alpha = Alphabet::new();
        let a = all_x(&alpha, true);
        let uni = HedgeAutomaton::universal();
        let prod = intersect(&a, &uni);
        for src in ["<x/>", "<x/><y/>", "<y/>"] {
            let doc = parse_document(&alpha, src).unwrap();
            assert_eq!(
                crate::accepts(&prod, &doc),
                crate::accepts(&a, &doc),
                "{src}"
            );
        }
    }
}
