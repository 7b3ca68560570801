//! The path-based FD formalism of \[8\] as seen from regular tree patterns
//! (paper Section 3.2, Example 3).
//!
//! In \[8\] an FD is `(C, (P1[E1], …, Pn[En] → Q[E]))` with `C` an absolute
//! simple linear path to the context and `P1..Pn`, `Q` simple linear paths
//! relative to it. The paper builds an equivalent regular tree pattern by
//! factorizing the longest common prefixes of the condition and target
//! paths into a trie below the context node; [`crate::parse_fd`] performs
//! that construction on the concrete syntax
//!
//! ```text
//! /session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank
//! /session/candidate : exam/date, exam/discipline -> exam[N]
//! ```
//!
//! This module provides the *inexpressibility* checks of Example 3 — the
//! structural properties every \[8\]-built pattern has, which `fd3`/`fd4`
//! style RTP dependencies violate — and [`PathFdError`], the error
//! `parse_fd` reports for FDs the construction cannot take.

use std::fmt;

use regtree_alphabet::Symbol;
use regtree_automata::Regex;
use regtree_pattern::TemplateNodeId;

use crate::fd::Fd;

/// Error raised translating a textual FD that the \[8\] construction
/// cannot take (duplicate paths, value tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathFdError {
    /// Description.
    pub message: String,
}

impl fmt::Display for PathFdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PathFdError {}

/// Why an RTP functional dependency falls outside the \[8\] formalism
/// (Example 3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inexpressibility {
    /// An edge expression is not a simple word of labels.
    NonWordEdge(TemplateNodeId),
    /// Two sibling edges share a possible first label — the \[8\] trie
    /// construction always factorizes common prefixes away (this is what
    /// makes `fd3` inexpressible).
    SiblingCommonPrefix(TemplateNodeId, TemplateNodeId),
    /// A template leaf is neither a condition nor the target — \[8\] patterns
    /// have no purely structural leaves (this is what makes `fd4`
    /// inexpressible).
    UnselectedLeaf(TemplateNodeId),
    /// The context is not on the single spine from the root.
    ContextNotOnSpine,
}

impl fmt::Display for Inexpressibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inexpressibility::NonWordEdge(n) => {
                write!(f, "edge into n{} is not a simple label word", n.0)
            }
            Inexpressibility::SiblingCommonPrefix(a, b) => write!(
                f,
                "sibling edges into n{} and n{} share a first label",
                a.0, b.0
            ),
            Inexpressibility::UnselectedLeaf(n) => {
                write!(f, "leaf n{} is neither condition nor target", n.0)
            }
            Inexpressibility::ContextNotOnSpine => {
                write!(f, "context node is not on the root spine")
            }
        }
    }
}

/// Extracts the label word of a regex when it is a simple concatenation of
/// atoms.
pub(crate) fn as_word(r: &Regex) -> Option<Vec<Symbol>> {
    match r {
        Regex::Atom(s) => Some(vec![*s]),
        Regex::Concat(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    Regex::Atom(s) => out.push(*s),
                    _ => return None,
                }
            }
            Some(out)
        }
        _ => None,
    }
}

/// Checks whether `fd` has the structural shape every \[8\]-expressible FD
/// has. `Ok(())` means the FD could have been produced by the \[8\]
/// construction; an `Err` names the first obstruction.
pub fn expressible_in_path_formalism(fd: &Fd) -> Result<(), Inexpressibility> {
    let t = fd.template();
    let selected = fd.pattern().selected();
    // Context on the root spine (in the construction the context is the
    // unique child of the root).
    if t.parent(fd.context()) != Some(t.root()) {
        return Err(Inexpressibility::ContextNotOnSpine);
    }
    for w in t.preorder() {
        if w == t.root() {
            continue;
        }
        let regex = t.edge_regex(w).expect("edge");
        let Some(_word) = as_word(regex) else {
            return Err(Inexpressibility::NonWordEdge(w));
        };
        // Leaves must be selected.
        if t.is_leaf(w) && !selected.contains(&w) && w != fd.context() {
            return Err(Inexpressibility::UnselectedLeaf(w));
        }
    }
    // Sibling edges must start with distinct labels.
    for w in t.preorder() {
        let children = t.children(w);
        for i in 0..children.len() {
            for j in (i + 1)..children.len() {
                let wi = as_word(t.edge_regex(children[i]).expect("edge")).expect("checked");
                let wj = as_word(t.edge_regex(children[j]).expect("edge")).expect("checked");
                if wi.first() == wj.first() {
                    return Err(Inexpressibility::SiblingCommonPrefix(
                        children[i],
                        children[j],
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textfd::parse_fd;
    use regtree_alphabet::Alphabet;
    use regtree_pattern::{RegularTreePattern, Template};

    #[test]
    fn path_built_fds_are_expressible() {
        let a = Alphabet::new();
        for src in [
            "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
            "/session/candidate : exam/date, exam/discipline -> exam[N]",
        ] {
            let fd = parse_fd(&a, src).unwrap();
            assert_eq!(expressible_in_path_formalism(&fd), Ok(()), "{src}");
        }
    }

    #[test]
    fn fd3_shape_is_inexpressible() {
        let a = Alphabet::new();
        // fd3: two sibling 'exam/mark' edges under the same candidate —
        // common first label, never produced by the trie construction.
        let mut t = Template::new(a);
        let c = t.add_child_str(t.root(), "session").unwrap();
        let cand = t.add_child_str(c, "candidate").unwrap();
        let m1 = t.add_child_str(cand, "exam/mark").unwrap();
        let m2 = t.add_child_str(cand, "exam/mark").unwrap();
        let lvl = t.add_child_str(cand, "level").unwrap();
        let pat = RegularTreePattern::new(t, vec![m1, m2, lvl]).unwrap();
        let fd3 = Fd::with_default_equality(pat, c).unwrap();
        assert!(matches!(
            expressible_in_path_formalism(&fd3),
            Err(Inexpressibility::SiblingCommonPrefix(..))
        ));
    }

    #[test]
    fn fd4_shape_is_inexpressible() {
        let a = Alphabet::new();
        // fd4: a structural 'toBePassed' leaf that is neither condition nor
        // target.
        let mut t = Template::new(a);
        let c = t.add_child_str(t.root(), "session").unwrap();
        let cand = t.add_child_str(c, "candidate").unwrap();
        let mark = t.add_child_str(cand, "exam/mark").unwrap();
        let _tbp = t.add_child_str(cand, "toBePassed").unwrap();
        let lvl = t.add_child_str(cand, "level").unwrap();
        let pat = RegularTreePattern::new(t, vec![mark, lvl]).unwrap();
        let fd4 = Fd::with_default_equality(pat, c).unwrap();
        assert!(matches!(
            expressible_in_path_formalism(&fd4),
            Err(Inexpressibility::UnselectedLeaf(_))
        ));
    }

    #[test]
    fn regex_edges_are_inexpressible() {
        let a = Alphabet::new();
        let mut t = Template::new(a);
        let c = t.add_child_str(t.root(), "session").unwrap();
        let x = t.add_child_str(c, "(a|b)/mark").unwrap();
        let y = t.add_child_str(c, "rank").unwrap();
        let pat = RegularTreePattern::new(t, vec![x, y]).unwrap();
        let fd = Fd::with_default_equality(pat, c).unwrap();
        assert!(matches!(
            expressible_in_path_formalism(&fd),
            Err(Inexpressibility::NonWordEdge(_))
        ));
    }
}
