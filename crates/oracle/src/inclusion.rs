//! Regular-language inclusion checking.
//!
//! Inclusion of regular expressions is the PSPACE-hard problem the paper
//! reduces to update–FD independence (Proposition 1). Two engines:
//!
//! * [`dfa_included`] — classical determinize → complement → intersect →
//!   emptiness (worst-case exponential, returns a shortest counterexample);
//! * [`nfa_included`] — antichain-based forward search that avoids full
//!   determinization and is usually much faster in practice.
//!
//! Both return `Err(word)` with a concrete witness `word ∈ L(A) \ L(B)` when
//! inclusion fails, which downstream code turns into a concrete
//! FD-violating document (Figure 8 of the paper).

use std::collections::VecDeque;

use regtree_automata::{Letter, Nfa, Regex, StateId};

use crate::dfa::{used_letters, Dfa};

/// DFA-based inclusion test: `L(a) ⊆ L(b)`?
///
/// `Err(w)` carries a shortest word of `L(a) \ L(b)`.
pub fn dfa_included(a: &Dfa, b: &Dfa) -> Result<(), Vec<Letter>> {
    match a.difference(b).shortest_accepted() {
        None => Ok(()),
        Some(w) => Err(w),
    }
}

/// Convenience wrapper: inclusion of two regexes over a letter universe.
///
/// The universe must cover every letter relevant to wildcards; the letters
/// mentioned by the regexes themselves are always included.
pub fn regex_included(a: &Regex, b: &Regex, universe: &[Letter]) -> Result<(), Vec<Letter>> {
    let na = Nfa::from_regex(a);
    let nb = Nfa::from_regex(b);
    nfa_included(&na, &nb, universe)
}

/// Antichain-based inclusion test on NFAs: `L(a) ⊆ L(b)`?
///
/// Explores pairs `(p, S)` where `p` is a single (nondeterministic) state of
/// `a` and `S` the determinized state set of `b`, pruning any pair subsumed by
/// a visited pair with a smaller `S`. Returns a counterexample word on
/// failure.
pub fn nfa_included(a: &Nfa, b: &Nfa, universe: &[Letter]) -> Result<(), Vec<Letter>> {
    let mut letters = used_letters(a);
    for &l in used_letters(b).iter().chain(universe) {
        if !letters.contains(&l) {
            letters.push(l);
        }
    }
    if letters.is_empty() && (a.uses_wildcard() || b.uses_wildcard()) {
        letters.push(0);
    }
    letters.sort_unstable();
    letters.dedup();

    let mut nodes: Vec<Node> = Vec::new();
    // Antichain per a-state: list of (node index) whose b_set is minimal.
    let n_a = a.num_states();
    let mut frontier_sets: Vec<Vec<Vec<StateId>>> = vec![Vec::new(); n_a];

    let b_init = b.initial_set();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &p in &a.initial_set() {
        if subsumed(&frontier_sets[p as usize], &b_init) {
            continue;
        }
        insert(&mut frontier_sets[p as usize], b_init.clone());
        nodes.push(Node {
            p,
            b_set: b_init.clone(),
            parent: None,
        });
        queue.push_back(nodes.len() - 1);
    }

    while let Some(ni) = queue.pop_front() {
        let (p, b_set, word_start) = {
            let n = &nodes[ni];
            (n.p, n.b_set.clone(), ni)
        };
        if a.is_accept(p) && !b.set_accepts(&b_set) {
            return Err(reconstruct(&nodes, word_start));
        }
        for &l in &letters {
            let a_next = a.step(&[p], l);
            if a_next.is_empty() {
                continue;
            }
            let b_next = b.step(&b_set, l);
            for &p2 in &a_next {
                if subsumed(&frontier_sets[p2 as usize], &b_next) {
                    continue;
                }
                insert(&mut frontier_sets[p2 as usize], b_next.clone());
                nodes.push(Node {
                    p: p2,
                    b_set: b_next.clone(),
                    parent: Some((ni, l)),
                });
                queue.push_back(nodes.len() - 1);
            }
        }
    }
    Ok(())
}

/// Is `candidate` subsumed by an already-seen set (some seen ⊆ candidate)?
fn subsumed(seen: &[Vec<StateId>], candidate: &[StateId]) -> bool {
    seen.iter().any(|s| is_subset(s, candidate))
}

fn is_subset(small: &[StateId], big: &[StateId]) -> bool {
    // Both sorted.
    let mut bi = 0;
    'outer: for &x in small {
        while bi < big.len() {
            match big[bi].cmp(&x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Keeps only minimal sets (drops supersets of the new set).
fn insert(seen: &mut Vec<Vec<StateId>>, set: Vec<StateId>) {
    seen.retain(|s| !is_subset(&set, s));
    seen.push(set);
}

/// Search node for witness reconstruction in [`nfa_included`].
struct Node {
    p: StateId,
    b_set: Vec<StateId>,
    parent: Option<(usize, Letter)>,
}

fn reconstruct(nodes: &[Node], mut cur: usize) -> Vec<Letter> {
    let mut word = Vec::new();
    while let Some((parent, l)) = nodes[cur].parent {
        word.push(l);
        cur = parent;
    }
    word.reverse();
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;
    use regtree_automata::parse_regex;

    fn check(a_src: &str, b_src: &str) -> Result<(), Vec<Letter>> {
        let alpha = Alphabet::new();
        let ra = parse_regex(&alpha, a_src).unwrap();
        let rb = parse_regex(&alpha, b_src).unwrap();
        let anti = regex_included(&ra, &rb, &[]);
        // Cross-check both engines on every call.
        let na = Nfa::from_regex(&ra);
        let nb = Nfa::from_regex(&rb);
        let mut uni = used_letters(&na);
        uni.extend(used_letters(&nb));
        let da = Dfa::from_nfa(&na, &uni);
        let db = Dfa::from_nfa(&nb, &uni);
        let classic = dfa_included(&da, &db);
        assert_eq!(anti.is_ok(), classic.is_ok(), "{a_src} vs {b_src}");
        if let Err(w) = &anti {
            assert!(na.accepts(w), "witness not in L(a)");
            assert!(!nb.accepts(w), "witness in L(b)");
        }
        anti
    }

    #[test]
    fn trivial_inclusions() {
        assert!(check("x", "x").is_ok());
        assert!(check("x", "x|y").is_ok());
        assert!(check("x/y", "x/_").is_ok());
        assert!(check("x+", "x*").is_ok());
        assert!(check("(x/y)*", "(x|y)*").is_ok());
    }

    #[test]
    fn failing_inclusions_give_witnesses() {
        assert!(check("x|y", "x").is_err());
        assert!(check("x*", "x+").is_err());
        let w = check("x/x", "x").unwrap_err();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn empty_language_included_in_everything() {
        let alpha = Alphabet::new();
        let empty = Regex::Empty;
        let x = parse_regex(&alpha, "x").unwrap();
        assert!(regex_included(&empty, &x, &[]).is_ok());
        assert!(regex_included(&x, &empty, &[]).is_err());
    }

    #[test]
    fn wildcard_inclusion_depends_on_universe() {
        let alpha = Alphabet::new();
        let any = parse_regex(&alpha, "_").unwrap();
        let x = parse_regex(&alpha, "x").unwrap();
        let x_sym = alpha.intern("x").0;
        let y_sym = alpha.intern("y").0;
        // With universe {x}: _ ⊆ x holds.
        assert!(regex_included(&any, &x, &[x_sym]).is_ok());
        // With universe {x, y}: _ ⊄ x (y is a counterexample).
        let err = regex_included(&any, &x, &[x_sym, y_sym]).unwrap_err();
        assert_eq!(err, vec![y_sym]);
    }

    #[test]
    fn nontrivial_equivalence() {
        // (a|b)* == (a* b*)*
        assert!(check("(a|b)*", "(a*/b*)*").is_ok());
        assert!(check("(a*/b*)*", "(a|b)*").is_ok());
    }

    #[test]
    fn antichain_handles_larger_star_heights() {
        assert!(check("(a/b/c)+", "(a/(b|c)*)+").is_ok());
        assert!(check("(a/(b|c)*)+", "(a/b/c)+").is_err());
    }
}
