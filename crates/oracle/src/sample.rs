//! Random sampling of words from a regular language.
//!
//! Used to materialize witness documents (e.g. the Figure 8 construction
//! needs “a word `w ∈ L(η) \ L(η')`” and “any word `w' ∈ L(η')`”) and to
//! drive randomized soundness testing of the independence criterion.

use std::collections::VecDeque;

use rand::Rng;

use regtree_automata::{Letter, Nfa, StateId};

use crate::dfa::Dfa;

/// A sampler over the language of an automaton.
///
/// Internally determinizes once, then walks the DFA guided by the
/// distance-to-acceptance of every state so that every walk terminates in an
/// accepting state.
#[derive(Clone, Debug)]
pub struct LangSampler {
    dfa: Dfa,
    /// `dist[s]` = length of the shortest word accepted from `s`
    /// (`u32::MAX` when none exists).
    dist: Vec<u32>,
}

impl LangSampler {
    /// Builds a sampler; `universe` widens the alphabet for wildcards.
    pub fn new(nfa: &Nfa, universe: &[Letter]) -> LangSampler {
        let dfa = Dfa::from_nfa(nfa, universe);
        let dist = distances_to_accept(&dfa);
        LangSampler { dfa, dist }
    }

    /// Is the language empty?
    pub(crate) fn is_empty_language(&self) -> bool {
        self.dist[self.dfa.start() as usize] == u32::MAX
    }

    /// Samples a word, aiming for (but not guaranteeing) length near
    /// `target_len`. Returns `None` iff the language is empty.
    pub fn sample<R: Rng>(&self, rng: &mut R, target_len: usize) -> Option<Vec<Letter>> {
        if self.is_empty_language() {
            return None;
        }
        let letters = self.dfa.letters().to_vec();
        let mut word = Vec::new();
        let mut cur = self.dfa.start();
        loop {
            // Stop as soon as we are accepting and have met the length budget.
            if self.dfa.is_accept(cur) && word.len() >= target_len {
                return Some(word);
            }
            // Candidate moves keeping acceptance reachable.
            let mut viable: Vec<(Letter, StateId)> = Vec::new();
            for &l in &letters {
                if let Some(n) = self.dfa.step(cur, l) {
                    if self.dist[n as usize] != u32::MAX {
                        viable.push((l, n));
                    }
                }
            }
            if viable.is_empty() {
                // cur must already accept (dist == 0) — finish here.
                debug_assert!(self.dfa.is_accept(cur));
                return Some(word);
            }
            // When past budget, prefer moves that shrink distance-to-accept.
            let pick = if word.len() >= target_len {
                let best = viable
                    .iter()
                    .map(|&(_, n)| self.dist[n as usize])
                    .min()
                    .expect("viable nonempty");
                let best_moves: Vec<_> = viable
                    .iter()
                    .copied()
                    .filter(|&(_, n)| self.dist[n as usize] == best)
                    .collect();
                best_moves[rng.gen_range(0..best_moves.len())]
            } else {
                viable[rng.gen_range(0..viable.len())]
            };
            word.push(pick.0);
            cur = pick.1;
            // Hard safety bound.
            if word.len() > target_len.saturating_mul(4) + 64 {
                // Force-finish via shortest path to acceptance.
                while !self.dfa.is_accept(cur) {
                    let (l, n) = self
                        .shortest_move(cur)
                        .expect("distance map promised acceptance");
                    word.push(l);
                    cur = n;
                }
                return Some(word);
            }
        }
    }

    fn shortest_move(&self, s: StateId) -> Option<(Letter, StateId)> {
        let d = self.dist[s as usize];
        if d == 0 || d == u32::MAX {
            return None;
        }
        for &l in self.dfa.letters() {
            if let Some(n) = self.dfa.step(s, l) {
                if self.dist[n as usize] == d - 1 {
                    return Some((l, n));
                }
            }
        }
        None
    }
}

/// Backward BFS from accepting states over the transition graph.
fn distances_to_accept(dfa: &Dfa) -> Vec<u32> {
    let n = dfa.num_states();
    // Reverse adjacency.
    let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for s in 0..n as StateId {
        for &l in dfa.letters() {
            if let Some(t) = dfa.step(s, l) {
                rev[t as usize].push(s);
            }
        }
    }
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for s in 0..n as StateId {
        if dfa.is_accept(s) {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(s) = queue.pop_front() {
        let d = dist[s as usize];
        for &p in &rev[s as usize] {
            if dist[p as usize] == u32::MAX {
                dist[p as usize] = d + 1;
                queue.push_back(p);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use regtree_alphabet::Alphabet;
    use regtree_automata::{parse_regex, Regex};

    fn sampler(a: &Alphabet, src: &str) -> (LangSampler, Nfa) {
        let r = parse_regex(a, src).unwrap();
        let n = Nfa::from_regex(&r);
        (LangSampler::new(&n, &[]), n)
    }

    #[test]
    fn samples_are_members() {
        let a = Alphabet::new();
        let mut rng = SmallRng::seed_from_u64(7);
        for src in ["(x|y)*/z", "x+/y?", "(a/b)+|c"] {
            let (s, n) = sampler(&a, src);
            for len in [0usize, 1, 3, 8, 20] {
                let w = s.sample(&mut rng, len).unwrap();
                assert!(n.accepts(&w), "sample {w:?} not in L({src})");
            }
        }
    }

    #[test]
    fn empty_language_yields_none() {
        let s = LangSampler::new(&Nfa::from_regex(&Regex::Empty), &[]);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(s.is_empty_language());
        assert!(s.sample(&mut rng, 3).is_none());
    }

    #[test]
    fn respects_target_length_roughly() {
        let a = Alphabet::new();
        let (s, _) = sampler(&a, "x*");
        let mut rng = SmallRng::seed_from_u64(42);
        let w = s.sample(&mut rng, 50).unwrap();
        assert!(
            w.len() >= 10,
            "expected a reasonably long sample, got {}",
            w.len()
        );
    }

    #[test]
    fn fixed_length_language() {
        let a = Alphabet::new();
        let (s, n) = sampler(&a, "x/y/z");
        let mut rng = SmallRng::seed_from_u64(3);
        for target in [0usize, 1, 5, 100] {
            let w = s.sample(&mut rng, target).unwrap();
            assert_eq!(w.len(), 3);
            assert!(n.accepts(&w));
        }
    }
}
