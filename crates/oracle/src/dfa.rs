//! Complete deterministic finite automata over an explicit letter universe.
//!
//! A [`Dfa`] is always *complete* over its universe (a sink state is added
//! when needed), which makes complementation a simple accept-flip — the key
//! step of the classical regular-expression inclusion test
//! ([`crate::inclusion::dfa_included`]) behind the paper's Proposition 1.
//! The product's matcher determinizes edges as
//! [`regtree_automata::EdgeDfa`] instead, which needs no universe.

use std::collections::{BTreeSet, HashMap, VecDeque};

use regtree_automata::{Letter, Nfa, NfaLabel, StateId};

/// All distinct concrete letters on `nfa`'s transitions, sorted.
pub fn used_letters(nfa: &Nfa) -> Vec<Letter> {
    let mut out: BTreeSet<Letter> = BTreeSet::new();
    for s in 0..nfa.num_states() as StateId {
        for &(l, _) in nfa.transitions_from(s) {
            if let NfaLabel::Sym(x) = l {
                out.insert(x);
            }
        }
    }
    out.into_iter().collect()
}

/// A complete deterministic finite automaton.
#[derive(Clone, Debug)]
pub struct Dfa {
    /// Sorted letter universe; transitions are indexed by position here.
    letters: Vec<Letter>,
    /// `trans[s][li]` = successor of state `s` on `letters[li]`.
    trans: Vec<Vec<StateId>>,
    start: StateId,
    accept: Vec<bool>,
}

impl Dfa {
    /// Subset construction from `nfa`, complete over the union of `universe`
    /// and the letters the NFA mentions. Wildcard transitions expand to every
    /// universe letter.
    pub fn from_nfa(nfa: &Nfa, universe: &[Letter]) -> Dfa {
        let mut letters = used_letters(nfa);
        for &l in universe {
            if !letters.contains(&l) {
                letters.push(l);
            }
        }
        letters.sort_unstable();
        letters.dedup();

        let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
        let mut sets: Vec<Vec<StateId>> = Vec::new();
        let mut trans: Vec<Vec<StateId>> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();

        let init = nfa.initial_set();
        index.insert(init.clone(), 0);
        sets.push(init);
        let mut queue: VecDeque<StateId> = VecDeque::new();
        queue.push_back(0);
        trans.push(vec![0; letters.len()]); // patched below
        accept.push(false);

        while let Some(s) = queue.pop_front() {
            let set = sets[s as usize].clone();
            accept[s as usize] = nfa.set_accepts(&set);
            for (li, &l) in letters.iter().enumerate() {
                let next = nfa.step(&set, l);
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = sets.len() as StateId;
                        index.insert(next.clone(), id);
                        sets.push(next);
                        trans.push(vec![0; letters.len()]);
                        accept.push(false);
                        queue.push_back(id);
                        id
                    }
                };
                trans[s as usize][li] = id;
            }
        }
        // Note: the empty subset, if reachable, acts as the (rejecting) sink.
        Dfa {
            letters,
            trans,
            start: 0,
            accept,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The sorted letter universe this automaton is complete over.
    pub(crate) fn letters(&self) -> &[Letter] {
        &self.letters
    }

    /// Whether state `s` accepts.
    pub fn is_accept(&self, s: StateId) -> bool {
        self.accept[s as usize]
    }

    fn letter_index(&self, l: Letter) -> Option<usize> {
        self.letters.binary_search(&l).ok()
    }

    /// Deterministic step; `None` when the letter is outside the universe.
    pub(crate) fn step(&self, s: StateId, l: Letter) -> Option<StateId> {
        let li = self.letter_index(l)?;
        Some(self.trans[s as usize][li])
    }

    /// Word membership. Letters outside the universe reject (with a debug
    /// assertion, since that usually indicates a construction mistake).
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let mut cur = self.start;
        for &l in word {
            match self.step(cur, l) {
                Some(n) => cur = n,
                None => {
                    debug_assert!(false, "letter {l} outside DFA universe");
                    return false;
                }
            }
        }
        self.accept[cur as usize]
    }

    /// Complement over the same universe (valid because the DFA is complete).
    pub(crate) fn complement(&self) -> Dfa {
        let mut c = self.clone();
        for b in &mut c.accept {
            *b = !*b;
        }
        c
    }

    /// Product construction. `both` decides acceptance: intersection when
    /// `true`-`true` is required, union otherwise.
    fn product(&self, other: &Dfa, intersect: bool) -> Dfa {
        assert_eq!(
            self.letters, other.letters,
            "product requires identical letter universes"
        );
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut pairs: Vec<(StateId, StateId)> = Vec::new();
        let mut trans: Vec<Vec<StateId>> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut queue = VecDeque::new();

        let start = (self.start, other.start);
        index.insert(start, 0);
        pairs.push(start);
        trans.push(vec![0; self.letters.len()]);
        accept.push(false);
        queue.push_back(0u32);

        while let Some(s) = queue.pop_front() {
            let (p, q) = pairs[s as usize];
            accept[s as usize] = if intersect {
                self.accept[p as usize] && other.accept[q as usize]
            } else {
                self.accept[p as usize] || other.accept[q as usize]
            };
            for li in 0..self.letters.len() {
                let np = self.trans[p as usize][li];
                let nq = other.trans[q as usize][li];
                let key = (np, nq);
                let id = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = pairs.len() as StateId;
                        index.insert(key, id);
                        pairs.push(key);
                        trans.push(vec![0; self.letters.len()]);
                        accept.push(false);
                        queue.push_back(id);
                        id
                    }
                };
                trans[s as usize][li] = id;
            }
        }
        Dfa {
            letters: self.letters.clone(),
            trans,
            start: 0,
            accept,
        }
    }

    /// Language intersection.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, true)
    }

    /// Language union.
    #[cfg(test)]
    pub(crate) fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, false)
    }

    /// Language difference `self \ other`.
    pub(crate) fn difference(&self, other: &Dfa) -> Dfa {
        self.intersect(&other.complement())
    }

    /// Shortest accepted word, or `None` when the language is empty.
    pub(crate) fn shortest_accepted(&self) -> Option<Vec<Letter>> {
        let mut prev: Vec<Option<(StateId, Letter)>> = vec![None; self.num_states()];
        let mut seen = vec![false; self.num_states()];
        let mut queue = VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        let mut found = None;
        if self.accept[self.start as usize] {
            found = Some(self.start);
        }
        while found.is_none() {
            let Some(s) = queue.pop_front() else { break };
            for (li, &n) in self.trans[s as usize].iter().enumerate() {
                if !seen[n as usize] {
                    seen[n as usize] = true;
                    prev[n as usize] = Some((s, self.letters[li]));
                    if self.accept[n as usize] {
                        found = Some(n);
                        break;
                    }
                    queue.push_back(n);
                }
            }
        }
        let mut cur = found?;
        let mut word = Vec::new();
        while let Some((p, l)) = prev[cur as usize] {
            word.push(l);
            cur = p;
        }
        word.reverse();
        Some(word)
    }

    /// Is the language empty?
    pub fn is_empty_language(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// Moore partition-refinement minimization.
    pub fn minimize(&self) -> Dfa {
        let n = self.num_states();
        // Initial partition: accepting vs rejecting.
        let mut class: Vec<u32> = self.accept.iter().map(|&a| a as u32).collect();
        let mut num_classes = 2;
        loop {
            // Signature of each state: (class, classes of successors).
            let mut sig_index: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
            let mut new_class = vec![0u32; n];
            for s in 0..n {
                let sig: Vec<u32> = self.trans[s].iter().map(|&t| class[t as usize]).collect();
                let key = (class[s], sig);
                let next_id = sig_index.len() as u32;
                let id = *sig_index.entry(key).or_insert(next_id);
                new_class[s] = id;
            }
            let new_num = sig_index.len() as u32;
            class = new_class;
            if new_num == num_classes {
                break;
            }
            num_classes = new_num;
        }
        let m = num_classes as usize;
        let mut trans = vec![vec![0u32; self.letters.len()]; m];
        let mut accept = vec![false; m];
        for s in 0..n {
            let c = class[s] as usize;
            accept[c] = self.accept[s];
            for li in 0..self.letters.len() {
                trans[c][li] = class[self.trans[s][li] as usize];
            }
        }
        Dfa {
            letters: self.letters.clone(),
            trans,
            start: class[self.start as usize],
            accept,
        }
    }

    /// Enumerates all accepted words of length at most `max_len`
    /// (exponential in `max_len`).
    #[cfg(test)]
    pub(crate) fn words_up_to(&self, max_len: usize) -> Vec<Vec<Letter>> {
        let mut out = Vec::new();
        let mut frontier: Vec<(StateId, Vec<Letter>)> = vec![(self.start, Vec::new())];
        if self.accept[self.start as usize] {
            out.push(Vec::new());
        }
        for _ in 0..max_len {
            let mut next = Vec::new();
            for (s, w) in &frontier {
                for (li, &t) in self.trans[*s as usize].iter().enumerate() {
                    let mut w2 = w.clone();
                    w2.push(self.letters[li]);
                    if self.accept[t as usize] {
                        out.push(w2.clone());
                    }
                    next.push((t, w2));
                }
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;
    use regtree_automata::parse_regex;

    fn dfa(a: &Alphabet, src: &str, universe: &[&str]) -> Dfa {
        let uni: Vec<Letter> = universe.iter().map(|n| a.intern(n).0).collect();
        Dfa::from_nfa(&Nfa::from_regex(&parse_regex(a, src).unwrap()), &uni)
    }

    fn w(a: &Alphabet, names: &[&str]) -> Vec<Letter> {
        names.iter().map(|n| a.intern(n).0).collect()
    }

    #[test]
    fn subset_construction_membership() {
        let a = Alphabet::new();
        let d = dfa(&a, "(x|y)*/z", &["x", "y", "z"]);
        assert!(d.accepts(&w(&a, &["z"])));
        assert!(d.accepts(&w(&a, &["x", "y", "z"])));
        assert!(!d.accepts(&w(&a, &["x"])));
        assert!(!d.accepts(&[]));
    }

    #[test]
    fn complement_flips_membership() {
        let a = Alphabet::new();
        let d = dfa(&a, "x/y", &["x", "y"]);
        let c = d.complement();
        for word in [
            vec![],
            w(&a, &["x"]),
            w(&a, &["x", "y"]),
            w(&a, &["y", "x"]),
        ] {
            assert_eq!(d.accepts(&word), !c.accepts(&word));
        }
    }

    #[test]
    fn intersect_union_difference() {
        let a = Alphabet::new();
        let d1 = dfa(&a, "x*", &["x", "y"]);
        let d2 = dfa(&a, "x/x?", &["x", "y"]);
        let inter = d1.intersect(&d2);
        assert!(inter.accepts(&w(&a, &["x"])));
        assert!(inter.accepts(&w(&a, &["x", "x"])));
        assert!(!inter.accepts(&[]));
        let uni = d1.union(&d2);
        assert!(uni.accepts(&[]));
        let diff = d1.difference(&d2);
        assert!(diff.accepts(&[]));
        assert!(!diff.accepts(&w(&a, &["x"])));
        assert!(diff.accepts(&w(&a, &["x", "x", "x"])));
    }

    #[test]
    fn emptiness_and_witness() {
        let a = Alphabet::new();
        let d = dfa(&a, "x/y/z", &["x", "y", "z"]);
        assert_eq!(d.shortest_accepted().unwrap(), w(&a, &["x", "y", "z"]));
        let none = d.difference(&d);
        assert!(none.is_empty_language());
    }

    #[test]
    fn minimize_preserves_language() {
        let a = Alphabet::new();
        let d = dfa(&a, "(x|y)*/z/(x|y)*", &["x", "y", "z"]);
        let m = d.minimize();
        assert!(m.num_states() <= d.num_states());
        for word in d.words_up_to(4) {
            assert!(m.accepts(&word));
        }
        for word in m.words_up_to(4) {
            assert!(d.accepts(&word));
        }
    }

    #[test]
    fn wildcard_expands_over_universe() {
        let a = Alphabet::new();
        let d = dfa(&a, "_/end", &["p", "q", "end"]);
        assert!(d.accepts(&w(&a, &["p", "end"])));
        assert!(d.accepts(&w(&a, &["q", "end"])));
        assert!(d.accepts(&w(&a, &["end", "end"])));
        assert!(!d.accepts(&w(&a, &["end"])));
    }

    #[test]
    fn words_up_to_enumerates_exactly() {
        let a = Alphabet::new();
        let d = dfa(&a, "x/x?", &["x"]);
        let mut words = d.words_up_to(3);
        words.sort();
        assert_eq!(words, vec![w(&a, &["x"]), w(&a, &["x", "x"])]);
    }

    #[test]
    fn minimization_reaches_canonical_size() {
        let a = Alphabet::new();
        // Two syntactically different regexes with the same language minimize
        // to DFAs of equal size.
        let d1 = dfa(&a, "x/x* | x*/x", &["x"]).minimize();
        let d2 = dfa(&a, "x+", &["x"]).minimize();
        assert_eq!(d1.num_states(), d2.num_states());
    }
}
