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

use regtree_alphabet::{Alphabet, LabelKind, Symbol};
use regtree_automata::{Nfa, NfaBuilder};
use regtree_xml::{Document, NodeId};

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

    /// Can the guard *only* accept attribute/text labels? Such nodes are
    /// leaves in well-formed documents, so a transition guarded this way can
    /// only ever fire with the empty child word.
    pub fn forces_leaf(&self, alphabet: &Alphabet) -> bool {
        match self {
            LabelGuard::Is(s) => alphabet.kind(*s) != LabelKind::Element,
            // Any/AnyExcept guards can always be satisfied by an element
            // label (fresh element labels can be interned at will).
            LabelGuard::Any | LabelGuard::AnyExcept(_) => false,
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

    /// Computes, bottom-up, the set of states each node can take.
    ///
    /// Returns a vector indexed by arena id; nodes outside the live tree get
    /// an empty set.
    pub(crate) fn run(&self, doc: &Document) -> Vec<Vec<TreeState>> {
        let mut states: Vec<Vec<TreeState>> = vec![Vec::new(); doc.arena_len()];
        // Post-order traversal.
        let order = doc.all_nodes();
        for &n in order.iter().rev() {
            states[n.index()] = self.states_of_node(doc, n, &states);
        }
        states
    }

    fn states_of_node(
        &self,
        doc: &Document,
        n: NodeId,
        states: &[Vec<TreeState>],
    ) -> Vec<TreeState> {
        let label = doc.label(n);
        let child_sets: Vec<&Vec<TreeState>> =
            doc.children(n).iter().map(|c| &states[c.index()]).collect();
        let mut out: Vec<TreeState> = Vec::new();
        'trans: for t in &self.transitions {
            if out.contains(&t.target) || !t.guard.matches(label) {
                continue;
            }
            // Simulate the horizontal NFA over the children, where each child
            // contributes its whole state set as alternative letters.
            let mut cur = t.horizontal.initial_set();
            for set in &child_sets {
                if set.is_empty() {
                    continue 'trans; // some child has no state: no run
                }
                cur = t.horizontal.step_multi(&cur, set);
                if cur.is_empty() {
                    continue 'trans;
                }
            }
            if t.horizontal.set_accepts(&cur) {
                out.push(t.target);
            }
        }
        out.sort_unstable();
        out
    }

    /// Does the automaton accept `doc`?
    pub fn accepts(&self, doc: &Document) -> bool {
        let states = self.run(doc);
        let root_states = &states[doc.root().index()];
        self.finals.iter().any(|f| root_states.contains(f))
    }

    /// Validates `doc`, reporting the shallowest node that could take no
    /// state (useful diagnostics for schema validation).
    pub(crate) fn validate(&self, doc: &Document) -> Result<(), ValidationError> {
        let states = self.run(doc);
        // Report the *origin* of a failure: a stateless node whose children
        // all carry states (ancestors of such a node are stateless too, but
        // only as a consequence).
        for n in doc.all_nodes() {
            if states[n.index()].is_empty()
                && doc
                    .children(n)
                    .iter()
                    .all(|c| !states[c.index()].is_empty())
            {
                return Err(ValidationError {
                    node: n,
                    position: doc.dewey_string(n),
                    label: doc.label_name(n).to_string(),
                    reason: "no automaton state assignable".into(),
                });
            }
        }
        let root_states = &states[doc.root().index()];
        if self.finals.iter().any(|f| root_states.contains(f)) {
            Ok(())
        } else {
            Err(ValidationError {
                node: doc.root(),
                position: doc.dewey_string(doc.root()),
                label: doc.label_name(doc.root()).to_string(),
                reason: "root state is not accepting".into(),
            })
        }
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

    /// The automaton accepting nothing.
    pub fn empty() -> HedgeAutomaton {
        HedgeAutomaton::new(1, Vec::new(), vec![0])
    }
}

/// Validation failure with location diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationError {
    /// Offending node.
    pub node: NodeId,
    /// Its Dewey position.
    pub position: String,
    /// Its label text.
    pub label: String,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "validation failed at {} (<{}>): {}",
            self.position, self.label, self.reason
        )
    }
}

impl std::error::Error for ValidationError {}

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

/// A reusable helper: the first element label of `alphabet` distinct from the
/// reserved root, interning `"elem"` when none exists. Witness-document
/// construction uses it to realize `Any` guards.
pub fn generic_element_label(alphabet: &Alphabet) -> Symbol {
    alphabet
        .symbols_of_kind(regtree_alphabet::LabelKind::Element)
        .into_iter()
        .find(|&s| s != Alphabet::ROOT)
        .unwrap_or_else(|| alphabet.intern("elem"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_automata::NfaLabel;
    use regtree_xml::parse_document;

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
    fn accepts_matching_documents() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        let good = parse_document(&alpha, "<b><a/><a/></b>").unwrap();
        assert!(m.accepts(&good));
        let empty_b = parse_document(&alpha, "<b/>").unwrap();
        assert!(m.accepts(&empty_b));
    }

    #[test]
    fn rejects_mismatching_documents() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        for bad in ["<a/>", "<b><b/></b>", "<b><a><a/></a></b>", "<c/>"] {
            let doc = parse_document(&alpha, bad).unwrap();
            assert!(!m.accepts(&doc), "should reject {bad}");
        }
    }

    #[test]
    fn validate_reports_offending_node() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        let doc = parse_document(&alpha, "<b><c/></b>").unwrap();
        let err = m.validate(&doc).unwrap_err();
        assert_eq!(err.label, "c");
        assert_eq!(err.position, "0.0");
    }

    #[test]
    fn universal_and_empty() {
        let alpha = Alphabet::new();
        let docs = ["<x/>", "<a><b><c/></b></a>", "<p q=\"1\">text</p>"];
        let uni = HedgeAutomaton::universal();
        let none = HedgeAutomaton::empty();
        for d in docs {
            let doc = parse_document(&alpha, d).unwrap();
            assert!(uni.accepts(&doc));
            assert!(!none.accepts(&doc));
        }
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
    fn nondeterministic_union_of_states() {
        // Two transitions assign different states to the same label.
        let alpha = Alphabet::new();
        let a = alpha.intern("a");
        let t1 = HedgeTransition {
            guard: LabelGuard::Is(a),
            horizontal: horizontal_epsilon(),
            target: 0,
        };
        let t2 = HedgeTransition {
            guard: LabelGuard::Any,
            horizontal: horizontal_epsilon(),
            target: 1,
        };
        let root = HedgeTransition {
            guard: LabelGuard::Is(Alphabet::ROOT),
            horizontal: horizontal_star(1),
            target: 2,
        };
        let m = HedgeAutomaton::new(3, vec![t1, t2, root], vec![2]);
        let doc = parse_document(&alpha, "<a/>").unwrap();
        let states = m.run(&doc);
        let a_node = doc.children(doc.root())[0];
        assert_eq!(states[a_node.index()], vec![0, 1]);
        assert!(m.accepts(&doc));
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
