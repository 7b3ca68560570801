//! Concrete syntax for label regular expressions.
//!
//! Grammar (whitespace-insensitive; `/` and juxtaposition both concatenate,
//! mirroring the paper's path-style edge labels such as
//! `candidate/exam/discipline`):
//!
//! ```text
//! union   := concat ('|' concat)*
//! concat  := postfix (('/')? postfix)*
//! postfix := primary ('*' | '+' | '?' | repeat)*
//! repeat  := '{' NUMBER (',' NUMBER?)? '}'
//! primary := IDENT | QUOTED | '_' | '(' union ')'
//! IDENT   := [A-Za-z@#] [A-Za-z0-9_.@#-]*
//! QUOTED  := '\'' any* '\''
//! NUMBER  := [0-9]+
//! ```
//!
//! `_` is the single-label wildcard. Bounded repetition `r{n}` / `r{n,}` /
//! `r{n,m}` desugars through `Regex::repeat` into plain
//! concatenation/option/star, so the AST needs no counting variant.
//!
//! The parser recurses once per parenthesis, so groups may nest at most
//! 256 deep: a hostile schema or edge gets an error, not a stack overflow.

use std::fmt;

use regtree_alphabet::Alphabet;

use crate::ast::Regex;

/// Error raised while parsing a regular expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Wildcard,
    LParen,
    RParen,
    Star,
    Plus,
    Question,
    Pipe,
    Slash,
    /// `{min}` / `{min,}` / `{min,max}` — `max` is `None` when unbounded.
    Repeat(usize, Option<usize>),
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn next_tok(&mut self) -> Result<Option<(usize, Tok)>, ParseError> {
        self.skip_ws();
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let b = self.bytes[self.pos];
        let tok = match b {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'*' => {
                self.pos += 1;
                Tok::Star
            }
            b'+' => {
                self.pos += 1;
                Tok::Plus
            }
            b'?' => {
                self.pos += 1;
                Tok::Question
            }
            b'|' => {
                self.pos += 1;
                Tok::Pipe
            }
            b'/' => {
                self.pos += 1;
                Tok::Slash
            }
            b'{' => {
                self.pos += 1;
                let min = self.lex_number(start)?;
                self.skip_ws();
                let max = if self.pos < self.bytes.len() && self.bytes[self.pos] == b',' {
                    self.pos += 1;
                    self.skip_ws();
                    if self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                        Some(self.lex_number(start)?)
                    } else {
                        None
                    }
                } else {
                    Some(min)
                };
                self.skip_ws();
                if self.pos >= self.bytes.len() || self.bytes[self.pos] != b'}' {
                    return Err(ParseError {
                        position: start,
                        message: "unterminated repetition bound, expected '}'".into(),
                    });
                }
                self.pos += 1;
                if let Some(m) = max {
                    if m < min {
                        return Err(ParseError {
                            position: start,
                            message: format!("empty repetition range {{{min},{m}}}"),
                        });
                    }
                }
                Tok::Repeat(min, max)
            }
            b'\'' => {
                self.pos += 1;
                let lit_start = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                    self.pos += 1;
                }
                if self.pos >= self.bytes.len() {
                    return Err(ParseError {
                        position: start,
                        message: "unterminated quoted label".into(),
                    });
                }
                let name = self.src[lit_start..self.pos].to_string();
                self.pos += 1; // closing quote
                Tok::Ident(name)
            }
            b'_' => {
                // A lone underscore is the wildcard; an underscore starting a
                // longer identifier is part of that identifier.
                if self.pos + 1 < self.bytes.len() && is_ident_continue(self.bytes[self.pos + 1]) {
                    self.lex_ident()
                } else {
                    self.pos += 1;
                    Tok::Wildcard
                }
            }
            b if is_ident_start(b) => self.lex_ident(),
            other => {
                return Err(ParseError {
                    position: start,
                    message: format!("unexpected character {:?}", other as char),
                })
            }
        };
        Ok(Some((start, tok)))
    }

    fn lex_number(&mut self, err_at: usize) -> Result<usize, ParseError> {
        self.skip_ws();
        let digits_start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if digits_start == self.pos {
            return Err(ParseError {
                position: err_at,
                message: "expected a number in repetition bound".into(),
            });
        }
        self.src[digits_start..self.pos]
            .parse::<usize>()
            .map_err(|_| ParseError {
                position: err_at,
                message: "repetition bound out of range".into(),
            })
    }

    fn lex_ident(&mut self) -> Tok {
        let start = self.pos;
        self.pos += 1;
        while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
            self.pos += 1;
        }
        Tok::Ident(self.src[start..self.pos].to_string())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'@' || b == b'#' || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'@' | b'#')
}

/// How deep parenthesized groups may nest. `primary → '(' union ')'`
/// recurses once per level; real content models nest a handful of levels.
const MAX_NESTING: usize = 256;

struct Parser<'a> {
    toks: Vec<(usize, Tok)>,
    cursor: usize,
    alphabet: &'a Alphabet,
    end: usize,
    /// Groups open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.cursor).map(|(_, t)| t)
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

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos(),
            message: message.into(),
        }
    }

    fn union(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.concat()?];
        while matches!(self.peek(), Some(Tok::Pipe)) {
            self.bump();
            parts.push(self.concat()?);
        }
        Ok(Regex::alt(parts))
    }

    fn concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.postfix()?];
        loop {
            match self.peek() {
                Some(Tok::Slash) => {
                    self.bump();
                    parts.push(self.postfix()?);
                }
                Some(Tok::Ident(_)) | Some(Tok::Wildcard) | Some(Tok::LParen) => {
                    parts.push(self.postfix()?);
                }
                _ => break,
            }
        }
        Ok(Regex::seq(parts))
    }

    fn postfix(&mut self) -> Result<Regex, ParseError> {
        let mut r = self.primary()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.bump();
                    r = r.star();
                }
                Some(Tok::Plus) => {
                    self.bump();
                    r = r.plus();
                }
                Some(Tok::Question) => {
                    self.bump();
                    r = r.opt();
                }
                Some(Tok::Repeat(min, max)) => {
                    let (min, max) = (*min, *max);
                    self.bump();
                    r = r.repeat(min, max);
                }
                _ => break,
            }
        }
        Ok(r)
    }

    fn primary(&mut self) -> Result<Regex, ParseError> {
        let at = self.pos();
        match self.bump() {
            Some(Tok::Ident(name)) => Ok(Regex::Atom(self.alphabet.intern(&name))),
            Some(Tok::Wildcard) => Ok(Regex::AnyAtom),
            Some(Tok::LParen) => {
                if self.depth == MAX_NESTING {
                    return Err(ParseError {
                        position: at,
                        message: format!("parentheses nesting deeper than {MAX_NESTING}"),
                    });
                }
                self.depth += 1;
                let inner = self.union()?;
                self.depth -= 1;
                match self.bump() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(self.err("expected ')'")),
                }
            }
            Some(tok) => Err(self.err(format!("unexpected token {tok:?}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parses `src` into a [`Regex`], interning labels in `alphabet`.
pub fn parse_regex(alphabet: &Alphabet, src: &str) -> Result<Regex, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lexer.next_tok()? {
        toks.push(t);
    }
    if toks.is_empty() {
        return Err(ParseError {
            position: 0,
            message: "empty regular expression".into(),
        });
    }
    let mut p = Parser {
        toks,
        cursor: 0,
        alphabet,
        end: src.len(),
        depth: 0,
    };
    let r = p.union()?;
    if p.cursor != p.toks.len() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Symbol;

    fn w(a: &Alphabet, names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|n| a.intern(n)).collect()
    }

    #[test]
    fn parses_paper_style_path() {
        let a = Alphabet::new();
        let r = parse_regex(&a, "candidate/exam/discipline").unwrap();
        assert!(r.matches(&w(&a, &["candidate", "exam", "discipline"])));
        assert!(!r.matches(&w(&a, &["candidate", "exam"])));
    }

    #[test]
    fn juxtaposition_concatenates() {
        let a = Alphabet::new();
        let r = parse_regex(&a, "x y z").unwrap();
        assert!(r.matches(&w(&a, &["x", "y", "z"])));
    }

    #[test]
    fn union_and_star() {
        let a = Alphabet::new();
        let r = parse_regex(&a, "(A|B)*/C").unwrap();
        assert!(r.matches(&w(&a, &["C"])));
        assert!(r.matches(&w(&a, &["A", "B", "A", "C"])));
        assert!(!r.matches(&w(&a, &["A", "B"])));
    }

    #[test]
    fn wildcard_and_named_underscore() {
        let a = Alphabet::new();
        let r = parse_regex(&a, "_* / exam").unwrap();
        assert!(r.matches(&w(&a, &["whatever", "exam"])));
        let r2 = parse_regex(&a, "_foo").unwrap();
        assert_eq!(r2, Regex::Atom(a.intern("_foo")));
    }

    #[test]
    fn quoted_labels() {
        let a = Alphabet::new();
        let r = parse_regex(&a, "'first.Job-Year'").unwrap();
        assert_eq!(r, Regex::Atom(a.intern("first.Job-Year")));
    }

    #[test]
    fn postfix_operators() {
        let a = Alphabet::new();
        let r = parse_regex(&a, "x+ y?").unwrap();
        assert!(r.matches(&w(&a, &["x"])));
        assert!(r.matches(&w(&a, &["x", "x", "y"])));
        assert!(!r.matches(&w(&a, &["y"])));
    }

    #[test]
    fn attribute_labels() {
        let a = Alphabet::new();
        let r = parse_regex(&a, "candidate/@IDN").unwrap();
        assert!(r.matches(&w(&a, &["candidate", "@IDN"])));
    }

    #[test]
    fn error_positions() {
        let a = Alphabet::new();
        assert!(parse_regex(&a, "").is_err());
        assert!(parse_regex(&a, "(x").is_err());
        assert!(parse_regex(&a, "x)").is_err());
        assert!(parse_regex(&a, "x ^ y").is_err());
        assert!(parse_regex(&a, "'unterminated").is_err());
        assert!(parse_regex(&a, "*x").is_err());
    }

    #[test]
    fn bounded_repetition() {
        let a = Alphabet::new();
        let x = a.intern("x");
        let y = a.intern("y");
        let r = parse_regex(&a, "x{3}").unwrap();
        assert!(r.matches(&[x, x, x]));
        assert!(!r.matches(&[x, x]));
        assert!(!r.matches(&[x, x, x, x]));
        let r = parse_regex(&a, "x{1,3}").unwrap();
        for n in 0..5 {
            assert_eq!(
                r.matches(&vec![x; n]),
                (1..=3).contains(&n),
                "x{{1,3}} x^{n}"
            );
        }
        let r = parse_regex(&a, "x{2,}").unwrap();
        for n in 0..5 {
            assert_eq!(r.matches(&vec![x; n]), n >= 2, "x{{2,}} x^{n}");
        }
        // Grouped operand and whitespace inside the braces.
        let r = parse_regex(&a, "(x/y){ 2 , 2 }").unwrap();
        assert!(r.matches(&[x, y, x, y]));
        assert!(!r.matches(&[x, y]));
        // Desugared form is plain core AST: it reprints without braces and
        // still round-trips through the parser.
        let printed = r.display(&a).to_string();
        assert_eq!(parse_regex(&a, &printed).unwrap(), r);
        // Malformed bounds are rejected with the offset of the '{'.
        for bad in ["x{", "x{}", "x{2", "x{a}", "x{3,2}", "x{1,2,3}"] {
            let err = parse_regex(&a, bad).unwrap_err();
            assert_eq!(err.position, 1, "position for {bad:?}");
        }
    }

    #[test]
    fn group_nesting_is_bounded() {
        let a = Alphabet::new();
        let nested = |levels: usize| format!("{}x{}", "(".repeat(levels), ")".repeat(levels));
        assert_eq!(
            parse_regex(&a, &nested(MAX_NESTING)).unwrap(),
            Regex::Atom(a.intern("x"))
        );
        let err = parse_regex(&a, &nested(MAX_NESTING + 1)).unwrap_err();
        // Reported at the parenthesis that opens level 257.
        assert_eq!(err.position, MAX_NESTING);
        assert!(err.to_string().contains("nesting deeper than 256"), "{err}");
    }

    #[test]
    fn display_parse_round_trip() {
        let a = Alphabet::new();
        for src in ["(x|y)*/z", "a/b/c", "x+", "_*/exam", "(a/b|c)?"] {
            let r = parse_regex(&a, src).unwrap();
            let printed = r.display(&a).to_string();
            let r2 = parse_regex(&a, &printed).unwrap();
            assert_eq!(r, r2, "round trip failed for {src} -> {printed}");
        }
    }
}
