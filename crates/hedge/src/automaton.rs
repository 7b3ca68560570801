//! Nondeterministic bottom-up unranked tree automata (hedge automata).
//!
//! The paper assumes schemas `S` are “given by some regular Bottom-Up tree
//! automaton `A_S`” and Proposition 3 builds further bottom-up automata from
//! the regular tree patterns `FD` and `U`. A [`HedgeAutomaton`] assigns
//! *states* to document nodes bottom-up: a transition `(guard, H, q)` lets a
//! node take state `q` when its label satisfies `guard` and the word of its
//! children's states belongs to the regular *horizontal language* `H`
//! (an [`Nfa`] whose letters are tree states). A document is accepted when
//! its root can take a final state.
//!
//! The product never runs one of these on a document: the lazy engine in
//! `regtree-core` explores their product on the fly, and
//! [`crate::Schema::validate`] reads content models directly. Membership of
//! a document is a `regtree-oracle` function, for the parity tests.

use regtree_alphabet::Symbol;
use regtree_automata::{Nfa, NfaBuilder};

/// Tree-automaton state (also used as a horizontal-NFA letter).
pub type TreeState = u32;

/// Label guard of a transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LabelGuard {
    /// Fires on exactly this label.
    Is(Symbol),
    /// Fires on any label.
    Any,
    /// Fires on any label except the listed ones.
    AnyExcept(Vec<Symbol>),
}

impl LabelGuard {
    /// Does the guard accept `label`?
    pub fn matches(&self, label: Symbol) -> bool {
        match self {
            LabelGuard::Is(s) => *s == label,
            LabelGuard::Any => true,
            LabelGuard::AnyExcept(not) => !not.contains(&label),
        }
    }

    /// The conjunction of two guards, when satisfiable (the single shared
    /// implementation used by every product construction).
    pub fn intersect(&self, other: &LabelGuard) -> Option<LabelGuard> {
        match (self, other) {
            (LabelGuard::Is(x), LabelGuard::Is(y)) => (x == y).then_some(LabelGuard::Is(*x)),
            (LabelGuard::Is(x), g) | (g, LabelGuard::Is(x)) => {
                g.matches(*x).then_some(LabelGuard::Is(*x))
            }
            (LabelGuard::Any, g) | (g, LabelGuard::Any) => Some(g.clone()),
            (LabelGuard::AnyExcept(n1), LabelGuard::AnyExcept(n2)) => {
                // Merge by sort + dedup: O((n+m) log (n+m)) instead of the
                // quadratic per-element `contains` scan.
                let mut n = Vec::with_capacity(n1.len() + n2.len());
                n.extend_from_slice(n1);
                n.extend_from_slice(n2);
                n.sort_unstable();
                n.dedup();
                Some(LabelGuard::AnyExcept(n))
            }
        }
    }
}

/// One bottom-up transition.
#[derive(Clone, Debug)]
pub struct HedgeTransition {
    /// Condition on the node label.
    pub guard: LabelGuard,
    /// Regular language over children state words.
    pub horizontal: Nfa,
    /// State assigned to the node.
    pub target: TreeState,
}

/// A nondeterministic bottom-up unranked tree automaton.
#[derive(Clone, Debug)]
pub struct HedgeAutomaton {
    num_states: usize,
    transitions: Vec<HedgeTransition>,
    finals: Vec<TreeState>,
}

impl HedgeAutomaton {
    /// Creates an automaton from parts.
    pub fn new(
        num_states: usize,
        transitions: Vec<HedgeTransition>,
        finals: Vec<TreeState>,
    ) -> HedgeAutomaton {
        debug_assert!(finals.iter().all(|&f| (f as usize) < num_states));
        debug_assert!(transitions.iter().all(|t| (t.target as usize) < num_states));
        HedgeAutomaton {
            num_states,
            transitions,
            finals,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The transition list.
    pub fn transitions(&self) -> &[HedgeTransition] {
        &self.transitions
    }

    /// The final (root-accepting) states.
    pub fn finals(&self) -> &[TreeState] {
        &self.finals
    }

    /// Size measure `|A|`: states plus the sizes of all horizontal automata.
    /// This is the quantity bounded in Proposition 3.
    pub fn size(&self) -> usize {
        self.num_states
            + self
                .transitions
                .iter()
                .map(|t| t.horizontal.num_states())
                .sum::<usize>()
    }

    /// The automaton accepting every well-formed document (one state, final,
    /// reachable under any label with any children).
    pub fn universal() -> HedgeAutomaton {
        let mut b = NfaBuilder::new();
        let s = b.add_state();
        b.add_transition(s, regtree_automata::NfaLabel::Any, s);
        b.set_start(s);
        b.set_accept(s);
        HedgeAutomaton::new(
            1,
            vec![HedgeTransition {
                guard: LabelGuard::Any,
                horizontal: b.finish(),
                target: 0,
            }],
            vec![0],
        )
    }
}

/// Helper building a horizontal NFA accepting exactly the empty word.
pub fn horizontal_epsilon() -> Nfa {
    let mut b = NfaBuilder::new();
    let s = b.add_state();
    b.set_start(s);
    b.set_accept(s);
    b.finish()
}

/// Helper building a horizontal NFA accepting `q*` for one state letter.
pub fn horizontal_star(q: TreeState) -> Nfa {
    let mut b = NfaBuilder::new();
    let s = b.add_state();
    b.add_transition(s, regtree_automata::NfaLabel::Sym(q), s);
    b.set_start(s);
    b.set_accept(s);
    b.finish()
}

/// Helper building `q0* q1 q0* q2 q0* … qk q0*`: the `realize` shape used by
/// pattern compilation (Section 5.3 of DESIGN.md), with `q0` the off-trace
/// state and `q1..qk` the required, ordered special children.
pub fn horizontal_interleaved(filler: TreeState, required: &[TreeState]) -> Nfa {
    let mut b = NfaBuilder::new();
    let start = b.add_state();
    b.add_transition(start, regtree_automata::NfaLabel::Sym(filler), start);
    let mut cur = start;
    for &q in required {
        let next = b.add_state();
        b.add_transition(cur, regtree_automata::NfaLabel::Sym(q), next);
        b.add_transition(next, regtree_automata::NfaLabel::Sym(filler), next);
        cur = next;
    }
    b.set_start(start);
    b.set_accept(cur);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;
    use regtree_automata::NfaLabel;

    /// A tiny automaton: state 0 for leaves labeled `a`, state 1 for `b`
    /// nodes whose children are `a*`, final at a root containing exactly one
    /// `b`.
    fn sample(alpha: &Alphabet) -> HedgeAutomaton {
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let t_a = HedgeTransition {
            guard: LabelGuard::Is(a),
            horizontal: horizontal_epsilon(),
            target: 0,
        };
        let t_b = HedgeTransition {
            guard: LabelGuard::Is(b),
            horizontal: horizontal_star(0),
            target: 1,
        };
        let mut h = NfaBuilder::new();
        let s0 = h.add_state();
        let s1 = h.add_state();
        h.add_transition(s0, NfaLabel::Sym(1), s1);
        h.set_start(s0);
        h.set_accept(s1);
        let t_root = HedgeTransition {
            guard: LabelGuard::Is(Alphabet::ROOT),
            horizontal: h.finish(),
            target: 2,
        };
        HedgeAutomaton::new(3, vec![t_a, t_b, t_root], vec![2])
    }

    #[test]
    fn guards() {
        let a = Alphabet::new();
        let x = a.intern("x");
        let y = a.intern("y");
        assert!(LabelGuard::Is(x).matches(x));
        assert!(!LabelGuard::Is(x).matches(y));
        assert!(LabelGuard::Any.matches(x));
        assert!(LabelGuard::AnyExcept(vec![x]).matches(y));
        assert!(!LabelGuard::AnyExcept(vec![x]).matches(x));
    }

    #[test]
    fn interleaved_horizontal_language() {
        let h = horizontal_interleaved(0, &[1, 2]);
        assert!(h.accepts(&[1, 2]));
        assert!(h.accepts(&[0, 1, 0, 0, 2, 0]));
        assert!(!h.accepts(&[2, 1]));
        assert!(!h.accepts(&[1]));
        assert!(!h.accepts(&[1, 2, 1]));
        let empty_req = horizontal_interleaved(0, &[]);
        assert!(empty_req.accepts(&[]));
        assert!(empty_req.accepts(&[0, 0]));
        assert!(!empty_req.accepts(&[1]));
    }

    #[test]
    fn size_counts_horizontal_automata() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        assert!(m.size() > m.num_states());
    }

    #[test]
    fn guard_intersection_table() {
        let a = Alphabet::new();
        let x = a.intern("x");
        let y = a.intern("y");
        assert_eq!(
            LabelGuard::Is(x).intersect(&LabelGuard::Is(x)),
            Some(LabelGuard::Is(x))
        );
        assert_eq!(LabelGuard::Is(x).intersect(&LabelGuard::Is(y)), None);
        assert_eq!(
            LabelGuard::Is(x).intersect(&LabelGuard::Any),
            Some(LabelGuard::Is(x))
        );
        assert_eq!(
            LabelGuard::AnyExcept(vec![x]).intersect(&LabelGuard::Is(x)),
            None
        );
        assert_eq!(
            LabelGuard::AnyExcept(vec![x]).intersect(&LabelGuard::Is(y)),
            Some(LabelGuard::Is(y))
        );
        match LabelGuard::AnyExcept(vec![x]).intersect(&LabelGuard::AnyExcept(vec![y])) {
            Some(LabelGuard::AnyExcept(n)) => {
                assert!(n.contains(&x) && n.contains(&y));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
