//! Determinized edge automata for pattern evaluation.
//!
//! The matcher runs each template edge's word automaton as an [`EdgeDfa`]:
//! a subset construction over the letters the NFA mentions plus one
//! default column, so it is exact for the whole open-ended label alphabet.

use std::collections::{HashMap, VecDeque};

use crate::nfa::{Letter, Nfa, StateId};

/// Sentinel for the dead (empty-subset) state of an [`EdgeDfa`].
pub const EDGE_DEAD: StateId = StateId::MAX;

/// A determinized edge automaton specialized for pattern evaluation.
///
/// It needs no letter universe up front: because NFA guards are only `ε` /
/// `Sym` / `Any`, every letter the NFA does not mention behaves
/// identically, so the transition table carries one column per mentioned
/// letter plus a single default ("other") column. The result is exact for
/// the *whole* (open-ended, interned-on-demand) label alphabet.
///
/// Extras used by the evaluator to prune document traversal:
///
/// * dead-state detection (`EDGE_DEAD`, plus states that can no longer
///   reach acceptance report [`EdgeDfa::is_live`] = false) cuts DFS
///   branches early;
/// * [`EdgeDfa::final_letters`] / [`EdgeDfa::other_final`] describe which
///   letters can ever *end* an accepted word — combined with a label index
///   this rules out whole documents or subtrees without walking them.
#[derive(Clone, Debug)]
pub struct EdgeDfa {
    /// Sorted concrete letters with explicit columns.
    letters: Vec<Letter>,
    /// Row-major table: `trans[s * (letters.len() + 1) + col]`; the last
    /// column is the default for letters not in `letters`. `EDGE_DEAD`
    /// encodes the empty subset.
    trans: Vec<StateId>,
    accept: Vec<bool>,
    /// `live[s]`: some accepting state is reachable from `s`.
    live: Vec<bool>,
    /// Sorted letters on which some transition enters an accepting state.
    final_letters: Vec<Letter>,
    /// Whether an unmentioned letter can enter an accepting state.
    other_final: bool,
}

impl EdgeDfa {
    /// Subset construction from `nfa`, capped at `max_states` subsets
    /// (`None` when the cap is exceeded — callers fall back to NFA-set
    /// simulation; with the tiny automata of template edges this does not
    /// happen in practice).
    pub fn from_nfa(nfa: &Nfa, max_states: usize) -> Option<EdgeDfa> {
        let letters = nfa.used_letters();
        let width = letters.len() + 1;

        // The "other" column: only wildcard transitions fire.
        let step_other = |closed: &[StateId]| -> Vec<StateId> {
            let mut next: Vec<StateId> = Vec::new();
            for &s in closed {
                for &(l, t) in nfa.transitions_from(s) {
                    if matches!(l, crate::nfa::NfaLabel::Any) {
                        next.push(t);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            nfa.eps_closure(&next)
        };

        let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
        let mut sets: Vec<Vec<StateId>> = Vec::new();
        let mut trans: Vec<StateId> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();

        let init = nfa.initial_set();
        if init.is_empty() {
            return None; // degenerate automaton; keep the NFA path
        }
        index.insert(init.clone(), 0);
        sets.push(init);
        trans.extend(std::iter::repeat(EDGE_DEAD).take(width));
        accept.push(false);
        let mut queue: VecDeque<StateId> = VecDeque::new();
        queue.push_back(0);

        while let Some(s) = queue.pop_front() {
            let set = sets[s as usize].clone();
            accept[s as usize] = nfa.set_accepts(&set);
            for col in 0..width {
                let next = if col < letters.len() {
                    nfa.step(&set, letters[col])
                } else {
                    step_other(&set)
                };
                if next.is_empty() {
                    continue; // stays EDGE_DEAD
                }
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        if sets.len() >= max_states {
                            return None;
                        }
                        let id = sets.len() as StateId;
                        index.insert(next.clone(), id);
                        sets.push(next);
                        trans.extend(std::iter::repeat(EDGE_DEAD).take(width));
                        accept.push(false);
                        queue.push_back(id);
                        id
                    }
                };
                trans[s as usize * width + col] = id;
            }
        }
        for (s, set) in sets.iter().enumerate() {
            accept[s] = nfa.set_accepts(set);
        }

        // Liveness: reverse-reachability from accepting states.
        let n = sets.len();
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for s in 0..n {
            for col in 0..width {
                let t = trans[s * width + col];
                if t != EDGE_DEAD {
                    rev[t as usize].push(s as StateId);
                }
            }
        }
        let mut live = accept.clone();
        let mut stack: Vec<StateId> = (0..n as StateId).filter(|&s| accept[s as usize]).collect();
        while let Some(s) = stack.pop() {
            for &p in &rev[s as usize] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    stack.push(p);
                }
            }
        }

        // Which letters can end an accepted word?
        let mut final_letters: Vec<Letter> = Vec::new();
        let mut other_final = false;
        for s in 0..n {
            for col in 0..width {
                let t = trans[s * width + col];
                if t != EDGE_DEAD && accept[t as usize] {
                    if col < letters.len() {
                        final_letters.push(letters[col]);
                    } else {
                        other_final = true;
                    }
                }
            }
        }
        final_letters.sort_unstable();
        final_letters.dedup();

        Some(EdgeDfa {
            letters,
            trans,
            accept,
            live,
            final_letters,
            other_final,
        })
    }

    /// The start state (always `0`; never `EDGE_DEAD`).
    #[inline]
    pub fn start(&self) -> StateId {
        0
    }

    /// Number of (live or not) subset states.
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }

    /// One transition; `EDGE_DEAD` in or out means the run died.
    #[inline]
    pub fn step(&self, s: StateId, letter: Letter) -> StateId {
        if s == EDGE_DEAD {
            return EDGE_DEAD;
        }
        let width = self.letters.len() + 1;
        let col = match self.letters.binary_search(&letter) {
            Ok(i) => i,
            Err(_) => self.letters.len(),
        };
        self.trans[s as usize * width + col]
    }

    /// Whether `s` is accepting (`EDGE_DEAD` never is).
    #[inline]
    pub fn is_accept(&self, s: StateId) -> bool {
        s != EDGE_DEAD && self.accept[s as usize]
    }

    /// Whether acceptance is still reachable from `s`.
    #[inline]
    pub fn is_live(&self, s: StateId) -> bool {
        s != EDGE_DEAD && self.live[s as usize]
    }

    /// Sorted letters that can end an accepted word.
    pub fn final_letters(&self) -> &[Letter] {
        &self.final_letters
    }

    /// True when a letter the NFA never mentions can end an accepted word
    /// (i.e. acceptance through a wildcard transition).
    pub fn other_final(&self) -> bool {
        self.other_final
    }

    /// Word membership (used by the parity tests).
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let mut s = self.start();
        for &l in word {
            s = self.step(s, l);
            if s == EDGE_DEAD {
                return false;
            }
        }
        self.is_accept(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;

    fn edge(a: &Alphabet, src: &str) -> (crate::nfa::Nfa, EdgeDfa) {
        let n = crate::nfa::Nfa::from_regex(&crate::parser::parse_regex(a, src).unwrap());
        let d = EdgeDfa::from_nfa(&n, 4096).unwrap();
        (n, d)
    }

    #[test]
    fn edge_dfa_matches_nfa_on_short_words() {
        let a = Alphabet::new();
        let names = ["x", "y", "z"];
        let syms: Vec<Letter> = names.iter().map(|n| a.intern(n).0).collect();
        // An extra letter none of the regexes mention: exercises the
        // default ("other") column.
        let foreign = a.intern("foreign").0;
        let mut letters = syms;
        letters.push(foreign);
        for src in ["(x|y)*/z", "x+/y?", "_/x/_*", "(x/y)+", "_*/z"] {
            let (n, d) = edge(&a, src);
            let mut words: Vec<Vec<Letter>> = vec![vec![]];
            for _ in 0..3 {
                let mut next = Vec::new();
                for w in &words {
                    for &l in &letters {
                        let mut w2 = w.clone();
                        w2.push(l);
                        next.push(w2);
                    }
                }
                words.extend(next);
            }
            for w in &words {
                assert_eq!(d.accepts(w), n.accepts(w), "{src} on {w:?}");
            }
        }
    }

    #[test]
    fn edge_dfa_liveness_and_final_letters() {
        let a = Alphabet::new();
        let (_, d) = edge(&a, "x/y");
        let (x, y, z) = (a.intern("x").0, a.intern("y").0, a.intern("z").0);
        assert!(d.is_live(d.start()));
        let after_x = d.step(d.start(), x);
        assert!(d.is_live(after_x) && !d.is_accept(after_x));
        assert_eq!(d.step(d.start(), z), EDGE_DEAD);
        assert!(d.is_accept(d.step(after_x, y)));
        // Only `y` can end an accepted word.
        assert_eq!(d.final_letters(), &[y]);
        assert!(!d.other_final());
        // Wildcard endings flip `other_final`.
        let (_, dw) = edge(&a, "x/_");
        assert!(dw.other_final());
    }
}
