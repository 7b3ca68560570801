//! Nondeterministic finite word automata.
//!
//! Letters are plain `u32`s so that the same machinery serves both label
//! regexes (letters = [`regtree_alphabet::Symbol`] indices) and the
//! *horizontal* languages of hedge automata (letters = tree-automaton states).
//!
//! The size `|A_e|` of the automaton associated to an edge expression — the
//! quantity the paper's complexity bounds are stated in — is
//! [`Nfa::num_states`].

use std::collections::BTreeSet;
#[cfg(test)]
use std::collections::{HashMap, VecDeque};

use crate::ast::Regex;

/// Automaton state identifier.
pub type StateId = u32;
/// Alphabet letter (symbol index or tree-automaton state).
pub type Letter = u32;

/// A transition guard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NfaLabel {
    /// Spontaneous move.
    Eps,
    /// Consume exactly this letter.
    Sym(Letter),
    /// Consume any single letter (wildcard).
    Any,
}

/// A nondeterministic finite automaton with ε-moves and wildcard transitions.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// `trans[s]` lists the outgoing transitions of state `s`.
    trans: Vec<Vec<(NfaLabel, StateId)>>,
    start: StateId,
    accept: Vec<bool>,
}

impl Nfa {
    /// Builds an NFA directly from its parts: `trans[s]` lists state `s`'s
    /// outgoing edges and `accept[s]` flags acceptance. Hot compilation
    /// paths use this with exact-capacity vectors; prefer [`NfaBuilder`]
    /// for incremental construction.
    pub fn from_parts(
        trans: Vec<Vec<(NfaLabel, StateId)>>,
        start: StateId,
        accept: Vec<bool>,
    ) -> Nfa {
        debug_assert_eq!(trans.len(), accept.len());
        debug_assert!((start as usize) < trans.len());
        debug_assert!(trans
            .iter()
            .flatten()
            .all(|&(_, t)| (t as usize) < trans.len()));
        Nfa {
            trans,
            start,
            accept,
        }
    }

    /// Number of states (the `|A|` size measure used throughout the paper).
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `s` is accepting.
    pub fn is_accept(&self, s: StateId) -> bool {
        self.accept[s as usize]
    }

    /// Outgoing transitions of `s`.
    pub fn transitions_from(&self, s: StateId) -> &[(NfaLabel, StateId)] {
        &self.trans[s as usize]
    }

    /// All distinct concrete letters mentioned on transitions.
    pub(crate) fn used_letters(&self) -> Vec<Letter> {
        let mut out: BTreeSet<Letter> = BTreeSet::new();
        for ts in &self.trans {
            for (l, _) in ts {
                if let NfaLabel::Sym(x) = l {
                    out.insert(*x);
                }
            }
        }
        out.into_iter().collect()
    }

    /// True when some transition carries the wildcard guard.
    pub fn uses_wildcard(&self) -> bool {
        self.trans
            .iter()
            .any(|ts| ts.iter().any(|(l, _)| matches!(l, NfaLabel::Any)))
    }

    /// Compiles a regular expression with the classical Thompson construction.
    pub fn from_regex(regex: &Regex) -> Nfa {
        let mut b = NfaBuilder::new();
        let start = b.add_state();
        let end = b.add_state();
        b.compile(regex, start, end);
        b.set_start(start);
        b.set_accept(end);
        b.finish()
    }

    /// ε-closure of a sorted state set (result sorted, deduplicated).
    pub(crate) fn eps_closure(&self, states: &[StateId]) -> Vec<StateId> {
        let mut seen = vec![false; self.num_states()];
        let mut stack: Vec<StateId> = Vec::with_capacity(states.len());
        for &s in states {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        while let Some(s) = stack.pop() {
            for &(l, t) in &self.trans[s as usize] {
                if matches!(l, NfaLabel::Eps) && !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| i as StateId)
            .collect()
    }

    /// One consuming step from a *closed* state set; result is closed again.
    pub fn step(&self, closed: &[StateId], letter: Letter) -> Vec<StateId> {
        let mut next: Vec<StateId> = Vec::new();
        for &s in closed {
            for &(l, t) in &self.trans[s as usize] {
                let fires = match l {
                    NfaLabel::Eps => false,
                    NfaLabel::Sym(x) => x == letter,
                    NfaLabel::Any => true,
                };
                if fires {
                    next.push(t);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        self.eps_closure(&next)
    }

    /// The closed initial state set.
    pub fn initial_set(&self) -> Vec<StateId> {
        self.eps_closure(&[self.start])
    }

    /// Does any state of `set` accept?
    pub fn set_accepts(&self, set: &[StateId]) -> bool {
        set.iter().any(|&s| self.accept[s as usize])
    }

    /// Word membership by on-the-fly subset simulation.
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let mut cur = self.initial_set();
        for &l in word {
            if cur.is_empty() {
                return false;
            }
            cur = self.step(&cur, l);
        }
        self.set_accepts(&cur)
    }

    /// Is the recognized language empty?
    #[cfg(test)]
    pub(crate) fn is_empty_language(&self) -> bool {
        self.shortest_accepted(&[]).is_none()
    }

    /// Shortest accepted word, if any, by BFS over the subset graph.
    ///
    /// `extra_letters` widens the exploration alphabet beyond the letters the
    /// automaton mentions (needed when wildcard transitions should be
    /// witnessed by letters the automaton itself never names).
    #[cfg(test)]
    pub(crate) fn shortest_accepted(&self, extra_letters: &[Letter]) -> Option<Vec<Letter>> {
        let mut letters = self.used_letters();
        for &l in extra_letters {
            if !letters.contains(&l) {
                letters.push(l);
            }
        }
        if self.uses_wildcard() && letters.is_empty() {
            // A wildcard needs *some* concrete witness letter.
            letters.push(0);
        }
        let init = self.initial_set();
        if self.set_accepts(&init) {
            return Some(Vec::new());
        }
        let mut seen: HashMap<Vec<StateId>, ()> = HashMap::new();
        let mut queue: VecDeque<(Vec<StateId>, Vec<Letter>)> = VecDeque::new();
        seen.insert(init.clone(), ());
        queue.push_back((init, Vec::new()));
        while let Some((set, word)) = queue.pop_front() {
            for &l in &letters {
                let next = self.step(&set, l);
                if next.is_empty() {
                    continue;
                }
                let mut w2 = word.clone();
                w2.push(l);
                if self.set_accepts(&next) {
                    return Some(w2);
                }
                if !seen.contains_key(&next) {
                    seen.insert(next.clone(), ());
                    queue.push_back((next, w2));
                }
            }
        }
        None
    }
}

/// Incremental construction of an [`Nfa`].
///
/// Used directly by the hedge-automaton and pattern-compilation code, whose
/// horizontal languages are assembled state-by-state rather than via regexes.
#[derive(Clone, Debug, Default)]
pub struct NfaBuilder {
    trans: Vec<Vec<(NfaLabel, StateId)>>,
    start: StateId,
    accept: Vec<StateId>,
}

impl NfaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = self.trans.len() as StateId;
        self.trans.push(Vec::new());
        id
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, from: StateId, label: NfaLabel, to: StateId) {
        self.trans[from as usize].push((label, to));
    }

    /// Declares the start state.
    pub fn set_start(&mut self, s: StateId) {
        self.start = s;
    }

    /// Declares an accepting state.
    pub fn set_accept(&mut self, s: StateId) {
        self.accept.push(s);
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Compiles `regex` as a fragment between two existing states.
    pub(crate) fn compile(&mut self, regex: &Regex, from: StateId, to: StateId) {
        match regex {
            Regex::Empty => {}
            Regex::Epsilon => self.add_transition(from, NfaLabel::Eps, to),
            Regex::Atom(s) => self.add_transition(from, NfaLabel::Sym(s.0), to),
            Regex::AnyAtom => self.add_transition(from, NfaLabel::Any, to),
            Regex::Concat(parts) => {
                let mut cur = from;
                for (i, p) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() {
                        to
                    } else {
                        self.add_state()
                    };
                    self.compile(p, cur, next);
                    cur = next;
                }
                if parts.is_empty() {
                    self.add_transition(from, NfaLabel::Eps, to);
                }
            }
            Regex::Union(parts) => {
                for p in parts {
                    self.compile(p, from, to);
                }
            }
            Regex::Star(inner) => {
                let hub = self.add_state();
                self.add_transition(from, NfaLabel::Eps, hub);
                self.compile(inner, hub, hub);
                self.add_transition(hub, NfaLabel::Eps, to);
            }
            Regex::Plus(inner) => {
                let hub = self.add_state();
                self.compile(inner, from, hub);
                self.compile(inner, hub, hub);
                self.add_transition(hub, NfaLabel::Eps, to);
            }
            Regex::Opt(inner) => {
                self.add_transition(from, NfaLabel::Eps, to);
                self.compile(inner, from, to);
            }
        }
    }

    /// Finalizes the automaton.
    pub fn finish(self) -> Nfa {
        let mut accept = vec![false; self.trans.len()];
        for s in self.accept {
            accept[s as usize] = true;
        }
        Nfa {
            trans: self.trans,
            start: self.start,
            accept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use regtree_alphabet::Alphabet;

    fn word(a: &Alphabet, names: &[&str]) -> Vec<Letter> {
        names.iter().map(|n| a.intern(n).0).collect()
    }

    fn nfa(a: &Alphabet, src: &str) -> Nfa {
        Nfa::from_regex(&parse_regex(a, src).unwrap())
    }

    #[test]
    fn thompson_basic_membership() {
        let a = Alphabet::new();
        let m = nfa(&a, "(x|y)*/z");
        assert!(m.accepts(&word(&a, &["z"])));
        assert!(m.accepts(&word(&a, &["x", "y", "x", "z"])));
        assert!(!m.accepts(&word(&a, &["x", "y"])));
        assert!(!m.accepts(&[]));
    }

    #[test]
    fn plus_requires_one() {
        let a = Alphabet::new();
        let m = nfa(&a, "x+");
        assert!(!m.accepts(&[]));
        assert!(m.accepts(&word(&a, &["x"])));
        assert!(m.accepts(&word(&a, &["x", "x", "x"])));
        assert!(!m.accepts(&word(&a, &["y"])));
    }

    #[test]
    fn wildcard_transitions() {
        let a = Alphabet::new();
        let m = nfa(&a, "_*/end");
        assert!(m.accepts(&word(&a, &["anything", "end"])));
        assert!(m.uses_wildcard());
        assert!(!m.accepts(&word(&a, &["end", "more"])));
    }

    #[test]
    fn empty_language() {
        let m = Nfa::from_regex(&Regex::Empty);
        assert!(m.is_empty_language());
        let a = Alphabet::new();
        let m2 = nfa(&a, "x");
        assert!(!m2.is_empty_language());
    }

    #[test]
    fn shortest_accepted_is_minimal() {
        let a = Alphabet::new();
        let m = nfa(&a, "x/x/x | y");
        let w = m.shortest_accepted(&[]).unwrap();
        assert_eq!(w, word(&a, &["y"]));
        let m2 = nfa(&a, "x/y/z");
        assert_eq!(
            m2.shortest_accepted(&[]).unwrap(),
            word(&a, &["x", "y", "z"])
        );
    }

    #[test]
    fn shortest_accepted_with_wildcard_only() {
        let a = Alphabet::new();
        let _ = a; // wildcard regex mentions no letters at all
        let m = Nfa::from_regex(&Regex::AnyAtom);
        let w = m.shortest_accepted(&[]).unwrap();
        assert_eq!(w.len(), 1);
        let w2 = m.shortest_accepted(&[42]).unwrap();
        assert_eq!(w2.len(), 1);
    }

    #[test]
    fn agreement_with_derivative_matcher() {
        let a = Alphabet::new();
        let srcs = ["(x|y)*/z", "x+/y?", "_/x/_*", "(a/b)*|c+"];
        let names = ["x", "y", "z", "a", "b", "c"];
        for src in srcs {
            let r = parse_regex(&a, src).unwrap();
            let m = Nfa::from_regex(&r);
            // Exhaustively check all words of length <= 3 over the 6 names.
            let syms: Vec<_> = names.iter().map(|n| a.intern(n)).collect();
            let mut words: Vec<Vec<regtree_alphabet::Symbol>> = vec![vec![]];
            for _ in 0..3 {
                let mut next = Vec::new();
                for w in &words {
                    for &s in &syms {
                        let mut w2 = w.clone();
                        w2.push(s);
                        next.push(w2);
                    }
                }
                words.extend(next);
            }
            for w in &words {
                let letters: Vec<Letter> = w.iter().map(|s| s.0).collect();
                assert_eq!(
                    m.accepts(&letters),
                    r.matches(w),
                    "disagreement on {src} for {w:?}"
                );
            }
        }
    }

    #[test]
    fn builder_manual_automaton() {
        // Accepts exactly the two-letter word (7, 9).
        let mut b = NfaBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.add_transition(s0, NfaLabel::Sym(7), s1);
        b.add_transition(s1, NfaLabel::Sym(9), s2);
        b.set_start(s0);
        b.set_accept(s2);
        let m = b.finish();
        assert!(m.accepts(&[7, 9]));
        assert!(!m.accepts(&[7]));
        assert!(!m.accepts(&[9, 7]));
        assert_eq!(m.num_states(), 3);
        assert_eq!(m.used_letters(), vec![7, 9]);
    }
}
