//! Recursive-descent parser for the textual pattern language.
//!
//! Every alternative the parser abandons contributes to the
//! expected-token set of the resulting [`ParseError`], so diagnostics name
//! everything that would have been accepted at the failure offset.
//!
//! The parser recurses once per predicate bracket, so brackets may nest at
//! most 256 deep: a hostile input gets an error, not a stack overflow.

use super::ast::{Axis, EqTag, FdExpr, NameTest, Pattern, Predicate, RelPath, Step};
use super::lex::{lex, Tok};
use super::ParseError;

/// Parses an absolute pattern path into its AST.
///
/// The grammar (axes `/` and `//`, wildcards, attribute and `text()`
/// tests, conjunctive predicates, value tests, counting predicates) is
/// specified in `docs/PATTERN_LANGUAGE.md`. The AST is
/// alphabet-independent; compile it against an
/// [`Alphabet`](regtree_alphabet::Alphabet) with
/// [`Pattern::compile`](super::ast::Pattern::compile) or evaluate in one
/// shot via [`CompiledPattern::from_text`](super::CompiledPattern::from_text).
///
/// ```
/// use regtree_pattern::lang::parse_pattern;
///
/// let p = parse_pattern(r#"/session//candidate[@status = "open"]/score"#).unwrap();
/// assert_eq!(p.steps.len(), 3);
///
/// // Errors carry a byte offset and the expected-token set.
/// let err = parse_pattern("/session/[x]").unwrap_err();
/// assert_eq!(err.offset, 9);
/// assert!(err.expected.contains(&"a label name"));
/// ```
pub fn parse_pattern(src: &str) -> Result<Pattern, ParseError> {
    let mut p = Parser::new(src)?;
    let steps = p.absolute_path()?;
    p.expect_end()?;
    Ok(Pattern { steps })
}

/// Parses the one-line textual FD form `context : p1, p2[N], … -> q`.
///
/// This extends the simple-path syntax of \[8\]: simple-path lines parse
/// as written, and every path may also use descendant axes, wildcards,
/// and counting predicates. An exact `[N]` or
/// `[V]` bracket at the end of a condition/target is the \[8\] equality
/// annotation, not a predicate (use `[count(N) >= 1]` to test for a child
/// literally named `N`).
///
/// ```
/// use regtree_pattern::lang::{parse_fd_expr, EqTag};
///
/// let fd = parse_fd_expr(
///     "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
/// )
/// .unwrap();
/// assert_eq!(fd.conditions.len(), 2);
///
/// let fd = parse_fd_expr("/session/candidate : exam/date -> exam[N]").unwrap();
/// assert_eq!(fd.target.1, EqTag::Node);
/// ```
pub fn parse_fd_expr(src: &str) -> Result<FdExpr, ParseError> {
    let mut p = Parser::new(src)?;
    let context = Pattern {
        steps: p.absolute_path()?,
    };
    p.expect(&Tok::Colon, &["':'"])?;
    let mut conditions = Vec::new();
    if !matches!(p.peek(), Some(Tok::Arrow)) {
        loop {
            conditions.push(p.relpath_with_eq()?);
            if matches!(p.peek(), Some(Tok::Comma)) {
                p.bump();
            } else {
                break;
            }
        }
    }
    p.expect(&Tok::Arrow, &["'->'", "','"])?;
    let target = p.relpath_with_eq()?;
    p.expect_end()?;
    Ok(FdExpr {
        context,
        conditions,
        target,
    })
}

/// How deep predicate brackets may nest. `step → predicate → relpath`
/// recurses once per level; real patterns nest a handful of levels.
const MAX_NESTING: usize = 256;

struct Parser {
    toks: Vec<(usize, Tok)>,
    cursor: usize,
    end: usize,
    /// Predicate brackets open around the cursor.
    depth: usize,
}

const STEP_START: &[&str] = &["a label name", "'*'", "'@'", "'text()'"];

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            cursor: 0,
            end: src.len(),
            depth: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.cursor).map(|(_, t)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.cursor + 1).map(|(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks
            .get(self.cursor)
            .map(|(p, _)| *p)
            .unwrap_or(self.end)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.cursor).map(|(_, t)| t.clone());
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn found(&self) -> String {
        self.peek()
            .map(Tok::describe)
            .unwrap_or_else(|| "end of input".into())
    }

    fn err(&self, expected: &[&'static str]) -> ParseError {
        ParseError::new(self.pos(), self.found(), expected)
    }

    fn expect(&mut self, tok: &Tok, expected: &[&'static str]) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.cursor == self.toks.len() {
            Ok(())
        } else {
            Err(self.err(&["end of input"]))
        }
    }

    /// `('/' | '//') step (('/' | '//') step)*`
    fn absolute_path(&mut self) -> Result<Vec<Step>, ParseError> {
        let mut steps = Vec::new();
        loop {
            let axis = match self.peek() {
                Some(Tok::Slash) => Axis::Child,
                Some(Tok::DSlash) => Axis::Descendant,
                _ if steps.is_empty() => return Err(self.err(&["'/'", "'//'"])),
                _ => break,
            };
            self.bump();
            steps.push(self.step(axis)?);
        }
        Ok(steps)
    }

    /// `('.//' | 'child::' | 'descendant::')? step (('/' | '//') step)*`
    fn relpath(&mut self) -> Result<RelPath, ParseError> {
        let first_axis = match (self.peek(), self.peek2()) {
            (Some(Tok::DotDSlash), _) => {
                self.bump();
                Axis::Descendant
            }
            (Some(Tok::Name(n)), Some(Tok::ColonColon)) if n == "child" => {
                self.bump();
                self.bump();
                Axis::Child
            }
            (Some(Tok::Name(n)), Some(Tok::ColonColon)) if n == "descendant" => {
                self.bump();
                self.bump();
                Axis::Descendant
            }
            _ => Axis::Child,
        };
        let mut steps = vec![self.step(first_axis)?];
        loop {
            let axis = match self.peek() {
                Some(Tok::Slash) => Axis::Child,
                Some(Tok::DSlash) => Axis::Descendant,
                _ => break,
            };
            self.bump();
            steps.push(self.step(axis)?);
        }
        Ok(RelPath { steps })
    }

    /// An FD condition/target: a relative path whose trailing exact `[N]` /
    /// `[V]` bracket is the equality annotation.
    fn relpath_with_eq(&mut self) -> Result<(RelPath, EqTag), ParseError> {
        let mut path = self.relpath()?;
        let mut eq = EqTag::Value;
        let last = path.steps.last_mut().expect("relpath is nonempty");
        if let Some(Predicate::Exists(rp)) = last.predicates.last() {
            if let [Step {
                axis: Axis::Child,
                test: NameTest::Name(n),
                predicates,
            }] = rp.steps.as_slice()
            {
                if predicates.is_empty() && (n == "N" || n == "V") {
                    eq = if n == "N" { EqTag::Node } else { EqTag::Value };
                    last.predicates.pop();
                }
            }
        }
        Ok((path, eq))
    }

    /// `nametest ('[' predicate ('and' predicate)* ']')*`
    fn step(&mut self, axis: Axis) -> Result<Step, ParseError> {
        let test = match self.peek() {
            Some(Tok::Star) => {
                self.bump();
                NameTest::Wildcard
            }
            Some(Tok::At) => {
                self.bump();
                match self.peek() {
                    Some(Tok::Name(_)) => {
                        let Some(Tok::Name(n)) = self.bump() else {
                            unreachable!("peeked a name");
                        };
                        NameTest::Attribute(n)
                    }
                    _ => return Err(self.err(&["an attribute name"])),
                }
            }
            Some(Tok::Name(n)) if n == "text" && self.peek2() == Some(&Tok::LParen) => {
                self.bump();
                self.bump();
                self.expect(&Tok::RParen, &["')'"])?;
                NameTest::Text
            }
            Some(Tok::Name(_)) => {
                let Some(Tok::Name(n)) = self.bump() else {
                    unreachable!("peeked a name");
                };
                if n == "#text" {
                    NameTest::Text
                } else {
                    NameTest::Name(n)
                }
            }
            _ => return Err(self.err(STEP_START)),
        };
        let mut predicates = Vec::new();
        while matches!(self.peek(), Some(Tok::LBracket)) {
            if self.depth == MAX_NESTING {
                return Err(ParseError::note(
                    self.pos(),
                    self.found(),
                    format!("predicates nesting deeper than {MAX_NESTING}"),
                ));
            }
            self.bump();
            self.depth += 1;
            loop {
                predicates.push(self.predicate()?);
                if matches!(self.peek(), Some(Tok::Name(n)) if n == "and") {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&Tok::RBracket, &["']'", "'and'"])?;
            self.depth -= 1;
        }
        Ok(Step {
            axis,
            test,
            predicates,
        })
    }

    /// `relpath ('=' STRING)? | 'count' '(' relpath ')' ('>=' | '>') NUMBER
    /// | 'at-least' NUMBER relpath`
    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        match (self.peek(), self.peek2()) {
            (Some(Tok::Name(n)), Some(Tok::LParen)) if n == "count" => {
                self.bump();
                self.bump();
                let path = self.relpath()?;
                self.expect(&Tok::RParen, &["')'", "'/'", "'//'"])?;
                let op_pos = self.pos();
                let at_least = match self.peek() {
                    Some(Tok::Ge) => {
                        self.bump();
                        self.number()?
                    }
                    Some(Tok::Gt) => {
                        self.bump();
                        self.number()?.saturating_add(1)
                    }
                    Some(t @ (Tok::Le | Tok::Lt | Tok::Eq | Tok::Ne)) => {
                        return Err(ParseError::note(
                            op_pos,
                            t.describe(),
                            "only 'count(p) >= n' and 'count(p) > n' are expressible: \
                             regular tree patterns are positive and existential, so counts \
                             cannot be bounded from above",
                        ));
                    }
                    _ => return Err(self.err(&["'>='", "'>'"])),
                };
                Ok(Predicate::AtLeast(at_least, path))
            }
            (Some(Tok::Name(n)), _) if n == "at-least" => {
                self.bump();
                let n = self.number()?;
                let path = self.relpath()?;
                Ok(Predicate::AtLeast(n, path))
            }
            _ => {
                let path = self.relpath()?;
                if matches!(self.peek(), Some(Tok::Eq)) {
                    self.bump();
                    match self.peek() {
                        Some(Tok::Str(_)) => {
                            let Some(Tok::Str(s)) = self.bump() else {
                                unreachable!("peeked a string");
                            };
                            Ok(Predicate::ValueEq(path, s))
                        }
                        _ => Err(self.err(&["a quoted string"])),
                    }
                } else {
                    Ok(Predicate::Exists(path))
                }
            }
        }
    }

    fn number(&mut self) -> Result<usize, ParseError> {
        match self.peek() {
            Some(Tok::Number(n)) => {
                let n = *n;
                self.bump();
                Ok(n)
            }
            _ => Err(self.err(&["a number"])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Pattern {
        let p = parse_pattern(src).unwrap();
        let printed = p.to_text();
        let p2 = parse_pattern(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
        assert_eq!(p, p2, "round trip changed the AST for {src:?}");
        p
    }

    #[test]
    fn basic_paths() {
        let p = roundtrip("/session/candidate/score");
        assert_eq!(p.steps.len(), 3);
        assert!(p.steps.iter().all(|s| s.axis == Axis::Child));
        let p = roundtrip("//candidate");
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        roundtrip("/session//candidate/*/@status/text()");
    }

    #[test]
    fn predicates_and_sugar_normalize() {
        let p = roundtrip(r#"/s/c[@status = "open" and count(vote) >= 3]/score"#);
        assert_eq!(p.steps[1].predicates.len(), 2);
        // at-least / child:: / '>' all normalize to the canonical form.
        let a = parse_pattern("/s/c[at-least 2 child::e]").unwrap();
        let b = parse_pattern("/s/c[count(e) >= 2]").unwrap();
        let c = parse_pattern("/s/c[count(e) > 1]").unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.to_text(), "/s/c[count(e) >= 2]");
        // descendant:: and .// agree.
        let d = parse_pattern("/s/c[descendant::m]").unwrap();
        let e = parse_pattern("/s/c[.//m]").unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn stacked_brackets_flatten() {
        let a = parse_pattern("/s/c[x][y]").unwrap();
        let b = parse_pattern("/s/c[x and y]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fd_exprs() {
        let fd = parse_fd_expr(
            "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
        )
        .unwrap();
        assert_eq!(fd.context.steps.len(), 1);
        assert_eq!(fd.conditions.len(), 2);
        assert_eq!(fd.target.1, EqTag::Value);
        let fd2 = parse_fd_expr(&fd.to_text()).unwrap();
        assert_eq!(fd, fd2);

        // [N] is the equality annotation, not a predicate.
        let fd = parse_fd_expr("/session/candidate : exam/date[N] -> exam[N]").unwrap();
        assert_eq!(fd.conditions[0].1, EqTag::Node);
        assert_eq!(fd.target.1, EqTag::Node);
        assert!(fd.target.0.steps[0].predicates.is_empty());
        assert_eq!(parse_fd_expr(&fd.to_text()).unwrap(), fd);

        // …but a counting bracket is a predicate, and a genuine test for a
        // child named N is written with count().
        let fd = parse_fd_expr("/s : a[count(N) >= 1] -> b").unwrap();
        assert_eq!(fd.conditions[0].0.steps[0].predicates.len(), 1);

        // Constant FD: empty condition list.
        let fd = parse_fd_expr("/c : -> x").unwrap();
        assert!(fd.conditions.is_empty());
        assert_eq!(parse_fd_expr(&fd.to_text()).unwrap(), fd);

        // Rich paths everywhere.
        let fd =
            parse_fd_expr("/lib//shelf : book[count(author) >= 2]/isbn -> book/title").unwrap();
        assert_eq!(fd.context.steps[1].axis, Axis::Descendant);
    }

    /// Golden diagnostics: every malformed input pins its byte offset, the
    /// token the parser saw, and one member of the expected set (or the
    /// note when the failure is lexical).
    #[test]
    fn golden_diagnostics_on_malformed_inputs() {
        // (input, offset, found, one expected token or "" to skip).
        let pattern_cases: &[(&str, usize, &str, &str)] = &[
            ("session/c", 0, "name 'session'", "'/'"),
            ("/", 1, "end of input", "a label name"),
            ("//", 2, "end of input", "'*'"),
            ("/s/c[", 5, "end of input", "a label name"),
            ("/s/c]", 4, "']'", "end of input"),
            ("/s/c[count(e) >= ]", 17, "']'", "a number"),
            ("/a[count(b)]", 11, "']'", "'>='"),
            ("/a[at-least x]", 12, "name 'x'", "a number"),
            ("/a[@]", 4, "']'", "an attribute name"),
            ("/a[x = ]", 7, "']'", "a quoted string"),
            ("/a[b and ]", 9, "']'", "a label name"),
        ];
        for &(src, offset, found, expected) in pattern_cases {
            let err = parse_pattern(src).unwrap_err();
            assert_eq!(err.offset, offset, "offset of {src:?}: {err}");
            assert_eq!(err.found, found, "found-token of {src:?}: {err}");
            if !expected.is_empty() {
                assert!(
                    err.expected.contains(&expected),
                    "{src:?}: expected set {:?} lacks {expected:?}",
                    err.expected
                );
            }
        }

        // Lexical failures carry a note instead of an expected set.
        let err = parse_pattern("/a[x = \"unterminated").unwrap_err();
        assert_eq!(err.offset, 7);
        assert_eq!(err.found, "unterminated string");
        assert!(err.note.as_deref().unwrap().contains("closing"));

        let err = parse_pattern("/a$b").unwrap_err();
        assert_eq!(err.offset, 2);
        assert_eq!(err.found, "'$'");
        assert!(err.note.as_deref().unwrap().contains("pattern-language"));

        // Semantic notes keep the offset of the offending token.
        let err = parse_pattern("/s/c[count(e) = 3]").unwrap_err();
        assert_eq!(err.offset, 14);
        assert!(err.note.as_deref().unwrap().contains("positive"));

        // FD-shaped inputs report the same typed diagnostics.
        let err = parse_fd_expr("/s  candidate -> x").unwrap_err();
        assert!(err.expected.contains(&"':'"));
        let err = parse_fd_expr("/c : a -> ").unwrap_err();
        assert_eq!((err.offset, err.found.as_str()), (10, "end of input"));
        let err = parse_fd_expr("/c : a").unwrap_err();
        assert!(err.expected.contains(&"'->'"));
        let err = parse_fd_expr("-> x").unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.expected.contains(&"'/'"));
    }

    /// `/a[b[b[…]]]` with `levels` nested predicate brackets.
    fn nested(levels: usize) -> String {
        format!("/a{}{}", "[b".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn predicate_nesting_is_bounded() {
        assert!(parse_pattern(&nested(MAX_NESTING)).is_ok());
        let err = parse_pattern(&nested(MAX_NESTING + 1)).unwrap_err();
        // Reported at the bracket that opens level 257.
        assert_eq!(err.offset, 2 + 2 * MAX_NESTING);
        assert_eq!(err.found, "'['");
        assert!(err.to_string().contains("nesting deeper than 256"), "{err}");
        // FD conditions and targets go through the same steps.
        let fd = format!("/s : {} -> t", &nested(MAX_NESTING + 1)[1..]);
        let err = parse_fd_expr(&fd).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 256"), "{err}");
    }
}
