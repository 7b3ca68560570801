//! The textual RTP pattern language: an XPath-ish axis/predicate syntax
//! with counting constraints, compiled to regular tree patterns.
//!
//! ```text
//! /session//candidate[@status = "open" and count(vote) >= 3]/score
//! ```
//!
//! The language is documented in full in `docs/PATTERN_LANGUAGE.md` (EBNF,
//! semantics, and the construct→template compilation table). In brief:
//!
//! * `/` is the child axis, `//` the descendant axis, `*` the label
//!   wildcard, `@name` an attribute test, `text()` the text-node test;
//! * `[p and q]` is a conjunctive, positive, existential predicate whose
//!   operands are relative paths (optionally `.//`-anchored);
//! * `[p = "v"]` is a value test on the node reached by `p`;
//! * `[count(p) >= n]` (equivalently `[at-least n p]`) is a **counting
//!   predicate**: at least `n` disjoint occurrences of `p`, compiled by
//!   bounded repetition of predicate branches in the template.
//!
//! The pipeline is three stages with a round-tripping printer:
//!
//! * [`parse_pattern`] / [`parse_fd_expr`] — text → spanned AST
//!   ([`Pattern`], [`FdExpr`]); errors are [`ParseError`] values carrying a
//!   byte offset and the set of tokens that would have been accepted;
//! * [`Pattern::to_text`] — AST → canonical text (`parse ∘ print = id`);
//! * [`Pattern::compile`] — AST → [`CompiledPattern`], a
//!   [`RegularTreePattern`](crate::RegularTreePattern) plus the value
//!   tests, which templates cannot express and evaluation applies as a
//!   mapping filter.
//!
//! The language contains positive CoreXPath (child and descendant axes,
//! name/wildcard/attribute/text tests, conjunctive predicates), so FDs and
//! update classes share this one front end.
//!
//! Semantics caveats (inherent to the formalism): sibling template
//! branches map to *distinct* children in *document order* with disjoint
//! subtrees. This is exactly what makes counting-by-branch-repetition
//! correct — `n` repeated branches require `n` distinct witnessing
//! children — and also what makes the translation stricter than XPath for
//! predicates followed by a continuation step (see
//! `docs/PATTERN_LANGUAGE.md` §"Differences from XPath 1.0").

use std::fmt;

pub mod ast;
pub mod compile;
mod lex;
mod parse;

pub use ast::{Axis, EqTag, FdExpr, NameTest, Pattern, Predicate, RelPath, Step};
pub use compile::{append_relpath, CompileError, CompiledPattern};
pub use parse::{parse_fd_expr, parse_pattern};

/// Error raised while lexing or parsing pattern-language text.
///
/// Carries the byte offset of the offending character, a description of
/// what was found there, and the set of constructs the parser would have
/// accepted — so CLI and daemon diagnostics can point at the exact
/// position. `note` holds semantic explanations (e.g. why `count(p) <= n`
/// is rejected) that go beyond token expectations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source where the error was detected.
    pub offset: usize,
    /// Description of what was found at `offset` (a token, a character, or
    /// `end of input`).
    pub found: String,
    /// The constructs that would have been accepted at `offset`, named as
    /// they appear in the grammar (empty for lexical/semantic errors).
    pub expected: Vec<&'static str>,
    /// Optional semantic explanation.
    pub note: Option<String>,
}

impl ParseError {
    pub(crate) fn new(offset: usize, found: impl Into<String>, expected: &[&'static str]) -> Self {
        ParseError {
            offset,
            found: found.into(),
            expected: expected.to_vec(),
            note: None,
        }
    }

    pub(crate) fn note(offset: usize, found: impl Into<String>, note: impl Into<String>) -> Self {
        ParseError {
            offset,
            found: found.into(),
            expected: Vec::new(),
            note: Some(note.into()),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern parse error at byte {}", self.offset)?;
        if !self.found.is_empty() {
            write!(f, ": found {}", self.found)?;
        }
        if !self.expected.is_empty() {
            write!(f, ", expected ")?;
            for (i, e) in self.expected.iter().enumerate() {
                match i {
                    0 => {}
                    _ if i + 1 == self.expected.len() => write!(f, " or ")?,
                    _ => write!(f, ", ")?,
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(n) = &self.note {
            write!(f, ": {n}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}
