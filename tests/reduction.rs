//! E7 (DESIGN.md): Proposition 1 — the reduction from regular-expression
//! inclusion to update–FD (non-)independence, exercised on a battery of
//! regex pairs including randomly generated ones.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regtree::prelude::*;
use regtree_oracle::dfa::used_letters;
use regtree_oracle::inclusion::dfa_included;
use regtree_oracle::{
    build_patterns, build_reduction, gadget_alphabet, random_proper_regex, random_regex, Dfa,
};

/// `L(η) ⊆ L(η')` by the classical engine (complete DFAs, complement,
/// product), over the letters the two regexes mention: the universe
/// `build_reduction` decides over with the antichain engine.
fn classically_included(eta: &Regex, etap: &Regex) -> bool {
    let (n, np) = (Nfa::from_regex(eta), Nfa::from_regex(etap));
    let d = Dfa::from_nfa(&n, &used_letters(&np));
    let dp = Dfa::from_nfa(&np, &used_letters(&n));
    dfa_included(&d, &dp).is_ok()
}

fn check_pair(a: &Alphabet, eta: &Regex, etap: &Regex, rng: &mut SmallRng) {
    let included = classically_included(eta, etap);
    match build_reduction(a, eta, etap, rng) {
        None => assert!(
            included,
            "build_reduction said included, the DFA engine disagrees"
        ),
        Some(inst) => {
            assert!(
                !included,
                "build_reduction found an impact, the DFA engine says included"
            );
            // The non-inclusion witness is genuine…
            assert!(eta.matches(&inst.witness_word));
            assert!(!etap.matches(&inst.witness_word));
            // …the Figure-8 document satisfies fd and is impacted by q ∈ U.
            assert!(satisfies(&inst.fd, &inst.doc), "pre-update satisfaction");
            let selected = inst.class.selected_nodes(&inst.doc);
            assert!(!selected.is_empty(), "U must select the update site");
            let after = inst.update.apply_cloned(&inst.doc).unwrap();
            assert!(!satisfies(&inst.fd, &after), "post-update violation");
        }
    }
}

#[test]
fn e7_fixed_pairs() {
    let a = gadget_alphabet();
    let mut rng = SmallRng::seed_from_u64(7);
    let pairs = [
        ("D", "D"),
        ("D", "B"),
        ("D+", "D/D+"),
        ("D/D+", "D+"),
        ("(B|D)+", "B+|D+"),
        ("B+|D+", "(B|D)+"),
        ("(B/D)*/B", "B/(D/B)*"),
        ("B/(D/B)*", "(B/D)*/B"),
        ("B?/D", "B/D|D"),
        ("D/B*", "D/B/B*"),
    ];
    for (e, ep) in pairs {
        let eta = parse_regex(&a, e).unwrap();
        let etap = parse_regex(&a, ep).unwrap();
        check_pair(&a, &eta, &etap, &mut rng);
    }
}

#[test]
fn e7_random_pairs() {
    let a = gadget_alphabet();
    let labels: Vec<_> = ["B", "D"].iter().map(|l| a.intern(l)).collect();
    let mut rng = SmallRng::seed_from_u64(2010);
    let mut impacts = 0;
    let mut inclusions = 0;
    for _ in 0..60 {
        let eta = random_proper_regex(&labels, 4, &mut rng);
        let etap = random_proper_regex(&labels, 4, &mut rng);
        let included = classically_included(&eta, &etap);
        match build_reduction(&a, &eta, &etap, &mut rng) {
            Some(inst) => {
                impacts += 1;
                assert!(!included);
                assert!(satisfies(&inst.fd, &inst.doc));
                let after = inst.update.apply_cloned(&inst.doc).unwrap();
                assert!(!satisfies(&inst.fd, &after));
            }
            None => {
                inclusions += 1;
                assert!(included);
            }
        }
    }
    assert!(impacts > 0, "random pairs should include non-inclusions");
    assert!(inclusions > 0, "random pairs should include inclusions");
}

#[test]
fn e7_reduction_patterns_grow_linearly_in_regex_size() {
    // |FD| and |U| are linear in |η| + |η'| — the reduction is polynomial,
    // it is the *decision problem* that is hard.
    let a = gadget_alphabet();
    let labels: Vec<_> = ["B", "D"].iter().map(|l| a.intern(l)).collect();
    let mut rng = SmallRng::seed_from_u64(3);
    let mut last = 0;
    for size in [2usize, 8, 32] {
        let eta = random_regex(&labels, size, &mut rng);
        let etap = random_regex(&labels, size, &mut rng);
        let (eta, etap) = (
            regtree::automata::Regex::seq([eta, regtree::automata::Regex::Atom(labels[0])]),
            regtree::automata::Regex::seq([etap, regtree::automata::Regex::Atom(labels[0])]),
        );
        let (fd, class) = build_patterns(&a, &eta, &etap);
        let total = fd.size() + class.size();
        assert!(total > last);
        last = total;
    }
}
