//! Word-level regular expressions and finite automata for `regtree`.
//!
//! Regular tree templates (Definition 1 of Gire & Idabal 2010) label every
//! edge with a *proper* regular expression over the label alphabet; the
//! paper's size and complexity bounds are stated in terms of the word
//! automata `A_e` associated to those expressions. This crate provides:
//!
//! * [`Regex`] — the expression AST with smart constructors, properness
//!   checks and a Brzozowski-derivative reference matcher;
//! * [`parse_regex`] — the concrete `candidate/exam/discipline`-style syntax;
//! * [`Nfa`] / [`NfaBuilder`] — Thompson automata plus a direct builder used
//!   for hedge-automaton horizontal languages;
//! * [`EdgeDfa`] — the determinized edge automaton the pattern matcher
//!   runs, exact over the open-ended label alphabet.
//!
//! It is the matcher's word layer and nothing more. Complete DFAs, the
//! regex-inclusion engines behind Proposition 1 and the language sampler
//! live in the unpublished `regtree-oracle` crate, which only tests,
//! benches and examples use.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod dfa;
pub mod nfa;
pub mod parser;

pub use ast::Regex;
pub use dfa::{EdgeDfa, EDGE_DEAD};
pub use nfa::{Letter, Nfa, NfaBuilder, NfaLabel, StateId};
pub use parser::{parse_regex, ParseError};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use regtree_alphabet::{Alphabet, Symbol};

    /// Strategy producing arbitrary regexes over `k` letters.
    fn arb_regex(k: u32) -> impl Strategy<Value = Regex> {
        let leaf = prop_oneof![
            (0..k).prop_map(|i| Regex::Atom(Symbol(i + 2))), // skip reserved
            Just(Regex::AnyAtom),
            Just(Regex::Epsilon),
        ];
        leaf.prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::seq),
                prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
                inner.clone().prop_map(Regex::star),
                inner.clone().prop_map(Regex::plus),
                inner.prop_map(Regex::opt),
            ]
        })
    }

    fn arb_word(k: u32) -> impl Strategy<Value = Vec<Symbol>> {
        prop::collection::vec((0..k).prop_map(|i| Symbol(i + 2)), 0..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `is_proper` is exactly “does not accept the empty word, and accepts
        /// something”.
        #[test]
        fn properness_semantics(r in arb_regex(3)) {
            let nfa = Nfa::from_regex(&r);
            let accepts_eps = nfa.accepts(&[]);
            let nonempty = !nfa.is_empty_language();
            prop_assert_eq!(r.is_proper(), !accepts_eps && nonempty);
        }

        /// Printing then reparsing preserves the language.
        #[test]
        fn display_reparse_preserves_language(r in arb_regex(3), w in arb_word(3)) {
            let a = Alphabet::with_labels(["l0", "l1", "l2"]);
            // Skip expressions that print ∅/ε literals (not part of the
            // concrete grammar).
            prop_assume!(!r.is_empty_language());
            fn mentions_eps(r: &Regex) -> bool {
                match r {
                    Regex::Epsilon | Regex::Empty => true,
                    Regex::Concat(p) | Regex::Union(p) => p.iter().any(mentions_eps),
                    Regex::Star(i) | Regex::Plus(i) | Regex::Opt(i) => mentions_eps(i),
                    _ => false,
                }
            }
            prop_assume!(!mentions_eps(&r));
            let printed = r.display(&a).to_string();
            let reparsed = parse_regex(&a, &printed).unwrap();
            prop_assert_eq!(r.matches(&w), reparsed.matches(&w), "printed: {}", printed);
        }
    }
}
