//! Regular-expression abstract syntax over interned label symbols.
//!
//! Edge languages of regular tree templates (Definition 1 of the paper) are
//! *proper* regular expressions: their language must not contain the empty
//! word. [`Regex::is_proper`] checks that property.

use std::fmt;

use regtree_alphabet::{Alphabet, Symbol};

/// A regular expression over label symbols.
///
/// `AnyAtom` is the wildcard matching exactly one arbitrary label; it keeps
/// pattern edges like “any path of length ≥ 1” (`_+`) compact and independent
/// of the alphabet snapshot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Regex {
    /// The empty language `∅`.
    Empty,
    /// The language `{ε}`.
    Epsilon,
    /// A single label.
    Atom(Symbol),
    /// Any single label (wildcard `_`).
    AnyAtom,
    /// Concatenation, in order.
    Concat(Vec<Regex>),
    /// Union of alternatives.
    Union(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One or more repetitions.
    Plus(Box<Regex>),
    /// Zero or one occurrence.
    Opt(Box<Regex>),
}

impl Regex {
    /// Interns `name` in `alphabet` and returns its atom.
    pub fn label(alphabet: &Alphabet, name: &str) -> Regex {
        Regex::Atom(alphabet.intern(name))
    }

    /// Concatenation smart constructor: flattens, drops `ε`, propagates `∅`.
    pub fn seq<I: IntoIterator<Item = Regex>>(parts: I) -> Regex {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Regex::Epsilon => {}
                Regex::Empty => return Regex::Empty,
                Regex::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Concat(out),
        }
    }

    /// Union smart constructor: flattens, drops `∅`, deduplicates.
    pub fn alt<I: IntoIterator<Item = Regex>>(parts: I) -> Regex {
        let mut out: Vec<Regex> = Vec::new();
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Union(inner) => {
                    for i in inner {
                        if !out.contains(&i) {
                            out.push(i);
                        }
                    }
                }
                other => {
                    if !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        match out.len() {
            0 => Regex::Empty,
            1 => out.pop().expect("len checked"),
            _ => Regex::Union(out),
        }
    }

    /// Kleene star smart constructor (`∅* = ε* = ε`, `(r*)* = r*`).
    pub fn star(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            Regex::Plus(r) => Regex::Star(r),
            Regex::Opt(r) => Regex::Star(r),
            other => Regex::Star(Box::new(other)),
        }
    }

    /// `r+` smart constructor.
    pub fn plus(self) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            p @ Regex::Plus(_) => p,
            Regex::Opt(r) => Regex::Star(r),
            other => Regex::Plus(Box::new(other)),
        }
    }

    /// `r?` smart constructor.
    pub fn opt(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            o @ Regex::Opt(_) => o,
            Regex::Plus(r) => Regex::Star(r),
            other => Regex::Opt(Box::new(other)),
        }
    }

    /// Bounded repetition `r{min,max}` by expansion into the core AST.
    ///
    /// No new variant is introduced: the result is built from `Concat`,
    /// `Opt` and `Star`, so every downstream consumer (NFA construction,
    /// derivatives, display) handles it unchanged. `max = None` means
    /// unbounded (`r{min,}`); `max = Some(m)` with `m < min` yields the
    /// empty language. The expansion is `r … r` (`min` copies) followed by
    /// `r? … r?` (`max - min` copies) or `r*` when unbounded:
    ///
    /// * `r.repeat(0, Some(0))` = `ε`
    /// * `r.repeat(2, Some(2))` = `r/r`
    /// * `r.repeat(1, Some(3))` = `r/r?/r?`
    /// * `r.repeat(2, None)` = `r/r/r*`
    ///
    /// This is the compilation target for counting constraints in the
    /// textual pattern language (`[count(e) >= n]` repeats predicate
    /// branches; `e{n,m}` repeats along an edge word).
    pub(crate) fn repeat(self, min: usize, max: Option<usize>) -> Regex {
        if let Some(m) = max {
            if m < min {
                return Regex::Empty;
            }
        }
        let mut parts = Vec::new();
        for _ in 0..min {
            parts.push(self.clone());
        }
        match max {
            None => parts.push(self.star()),
            Some(m) => {
                for _ in min..m {
                    parts.push(self.clone().opt());
                }
            }
        }
        Regex::seq(parts)
    }

    /// Does the language contain the empty word?
    pub(crate) fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Atom(_) | Regex::AnyAtom => false,
            Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Plus(r) => r.nullable(),
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Union(parts) => parts.iter().any(Regex::nullable),
        }
    }

    /// Is the language empty (no word at all)?
    pub(crate) fn is_empty_language(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Atom(_) | Regex::AnyAtom | Regex::Star(_) | Regex::Opt(_) => {
                false
            }
            Regex::Concat(parts) => parts.iter().any(Regex::is_empty_language),
            Regex::Union(parts) => parts.iter().all(Regex::is_empty_language),
            Regex::Plus(r) => r.is_empty_language(),
        }
    }

    /// A regular expression is *proper* when its language does not contain the
    /// empty word (Definition 1 requires edge expressions to be proper).
    pub fn is_proper(&self) -> bool {
        !self.nullable() && !self.is_empty_language()
    }

    /// Syntactic size: number of AST nodes.
    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Atom(_) | Regex::AnyAtom => 1,
            Regex::Concat(parts) | Regex::Union(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => 1 + r.size(),
        }
    }

    /// Collects the distinct atoms mentioned by the expression.
    #[cfg(test)]
    pub(crate) fn atoms(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[cfg(test)]
    fn collect_atoms(&self, out: &mut Vec<Symbol>) {
        match self {
            Regex::Atom(s) => out.push(*s),
            Regex::Concat(parts) | Regex::Union(parts) => {
                for p in parts {
                    p.collect_atoms(out);
                }
            }
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.collect_atoms(out),
            Regex::Empty | Regex::Epsilon | Regex::AnyAtom => {}
        }
    }

    /// True when the expression contains the wildcard atom.
    #[cfg(test)]
    pub(crate) fn uses_wildcard(&self) -> bool {
        match self {
            Regex::AnyAtom => true,
            Regex::Concat(parts) | Regex::Union(parts) => parts.iter().any(Regex::uses_wildcard),
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.uses_wildcard(),
            Regex::Empty | Regex::Epsilon | Regex::Atom(_) => false,
        }
    }

    /// Brzozowski derivative with respect to one symbol.
    ///
    /// Used as an independent matcher to cross-check the NFA/DFA engines in
    /// property tests.
    pub(crate) fn derivative(&self, sym: Symbol) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Empty,
            Regex::Atom(a) => {
                if *a == sym {
                    Regex::Epsilon
                } else {
                    Regex::Empty
                }
            }
            Regex::AnyAtom => Regex::Epsilon,
            Regex::Union(parts) => Regex::alt(parts.iter().map(|p| p.derivative(sym))),
            Regex::Concat(parts) => {
                // d(r1 r2 … ) = d(r1) r2 …  ∪  [r1 nullable] d(r2 r3 …)
                let Some((head, tail)) = parts.split_first() else {
                    return Regex::Empty;
                };
                let rest = Regex::seq(tail.iter().cloned());
                let first = Regex::seq([head.derivative(sym), rest.clone()]);
                if head.nullable() {
                    Regex::alt([first, rest.derivative(sym)])
                } else {
                    first
                }
            }
            Regex::Star(r) => Regex::seq([r.derivative(sym), r.as_ref().clone().star()]),
            Regex::Plus(r) => Regex::seq([r.derivative(sym), r.as_ref().clone().star()]),
            Regex::Opt(r) => r.derivative(sym),
        }
    }

    /// Membership test by iterated derivatives (reference implementation).
    pub fn matches(&self, word: &[Symbol]) -> bool {
        let mut cur = self.clone();
        for &sym in word {
            cur = cur.derivative(sym);
            if cur.is_empty_language() {
                return false;
            }
        }
        cur.nullable()
    }

    /// Pretty-prints the expression using the label names of `alphabet`.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> RegexDisplay<'a> {
        RegexDisplay {
            regex: self,
            alphabet,
        }
    }
}

/// Display adapter pairing a [`Regex`] with its [`Alphabet`].
pub struct RegexDisplay<'a> {
    regex: &'a Regex,
    alphabet: &'a Alphabet,
}

impl fmt::Display for RegexDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_regex(self.regex, self.alphabet, f, 0)
    }
}

/// Precedence levels: 0 = union, 1 = concat, 2 = postfix/atom.
fn fmt_regex(r: &Regex, a: &Alphabet, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    match r {
        Regex::Empty => write!(f, "∅"),
        Regex::Epsilon => write!(f, "ε"),
        Regex::AnyAtom => write!(f, "_"),
        Regex::Atom(s) => write!(f, "{}", a.name(*s)),
        Regex::Union(parts) => {
            let parens = prec > 0;
            if parens {
                write!(f, "(")?;
            }
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, "|")?;
                }
                fmt_regex(p, a, f, 1)?;
            }
            if parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        Regex::Concat(parts) => {
            let parens = prec > 1;
            if parens {
                write!(f, "(")?;
            }
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, "/")?;
                }
                fmt_regex(p, a, f, 2)?;
            }
            if parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        Regex::Star(r) => {
            fmt_regex(r, a, f, 2)?;
            write!(f, "*")
        }
        Regex::Plus(r) => {
            fmt_regex(r, a, f, 2)?;
            write!(f, "+")
        }
        Regex::Opt(r) => {
            fmt_regex(r, a, f, 2)?;
            write!(f, "?")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(a: &Alphabet, names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|n| a.intern(n)).collect()
    }

    #[test]
    fn smart_constructors_normalize() {
        let a = Alphabet::new();
        let x = Regex::label(&a, "x");
        assert_eq!(Regex::seq([Regex::Epsilon, x.clone()]), x);
        assert_eq!(Regex::seq([x.clone(), Regex::Empty]), Regex::Empty);
        assert_eq!(Regex::alt([Regex::Empty, x.clone()]), x);
        assert_eq!(Regex::alt([x.clone(), x.clone()]), x);
        assert_eq!(Regex::Empty.star(), Regex::Epsilon);
        assert_eq!(x.clone().star().star(), x.clone().star());
        assert_eq!(x.clone().plus().opt(), x.star());
    }

    #[test]
    fn nullable_and_proper() {
        let a = Alphabet::new();
        let x = Regex::label(&a, "x");
        assert!(!x.nullable());
        assert!(x.is_proper());
        assert!(x.clone().star().nullable());
        assert!(!x.clone().star().is_proper());
        assert!(x.clone().plus().is_proper());
        assert!(!Regex::Empty.is_proper());
        assert!(!Regex::Epsilon.is_proper());
        let concat = Regex::seq([x.clone().opt(), x.star()]);
        assert!(concat.nullable());
    }

    #[test]
    fn empty_language_detection() {
        let a = Alphabet::new();
        let x = Regex::label(&a, "x");
        assert!(Regex::Concat(vec![x.clone(), Regex::Empty]).is_empty_language());
        assert!(Regex::Union(vec![Regex::Empty, Regex::Empty]).is_empty_language());
        assert!(!Regex::Union(vec![Regex::Empty, x]).is_empty_language());
    }

    #[test]
    fn derivative_matching_basics() {
        let a = Alphabet::new();
        let s = syms(&a, &["x", "y"]);
        let (x, y) = (s[0], s[1]);
        // (x y)* x
        let r = Regex::seq([
            Regex::seq([Regex::Atom(x), Regex::Atom(y)]).star(),
            Regex::Atom(x),
        ]);
        assert!(r.matches(&[x]));
        assert!(r.matches(&[x, y, x]));
        assert!(r.matches(&[x, y, x, y, x]));
        assert!(!r.matches(&[]));
        assert!(!r.matches(&[x, y]));
        assert!(!r.matches(&[y, x]));
    }

    #[test]
    fn wildcard_matches_any_single_label() {
        let a = Alphabet::new();
        let s = syms(&a, &["x", "y"]);
        let r = Regex::seq([Regex::AnyAtom.star(), Regex::Atom(s[1])]);
        assert!(r.matches(&[s[0], s[0], s[1]]));
        assert!(r.matches(&[s[1]]));
        assert!(!r.matches(&[s[1], s[0]]));
        assert!(r.uses_wildcard());
    }

    #[test]
    fn atoms_and_size() {
        let a = Alphabet::new();
        let s = syms(&a, &["x", "y"]);
        let r = Regex::alt([
            Regex::seq([Regex::Atom(s[0]), Regex::Atom(s[1])]),
            Regex::Atom(s[0]),
        ]);
        assert_eq!(r.atoms(), vec![s[0], s[1]]);
        assert!(r.size() >= 4);
    }

    #[test]
    fn display_round_readable() {
        let a = Alphabet::new();
        let x = Regex::label(&a, "x");
        let y = Regex::label(&a, "y");
        let r = Regex::seq([Regex::alt([x, y]).star(), Regex::label(&a, "z")]);
        assert_eq!(r.display(&a).to_string(), "(x|y)*/z");
    }

    #[test]
    fn repeat_expansion_semantics() {
        let a = Alphabet::new();
        let x = a.intern("x");
        let r = Regex::Atom(x);
        // r{min,max} matches x^k iff min <= k <= max.
        let cases: &[(usize, Option<usize>)] = &[
            (0, Some(0)),
            (0, Some(2)),
            (1, Some(1)),
            (1, Some(3)),
            (2, Some(2)),
            (2, None),
            (0, None),
            (5, Some(5)),
        ];
        for &(min, max) in cases {
            let rep = r.clone().repeat(min, max);
            for k in 0..8usize {
                let want = k >= min && max.map(|m| k <= m).unwrap_or(true);
                let w = vec![x; k];
                assert_eq!(rep.matches(&w), want, "x{{{min},{max:?}}} on x^{k}");
            }
        }
        // Degenerate bounds give the empty language / epsilon.
        assert_eq!(r.clone().repeat(3, Some(2)), Regex::Empty);
        assert_eq!(r.clone().repeat(0, Some(0)), Regex::Epsilon);
        // Properness: min >= 1 keeps a proper operand proper.
        assert!(r.clone().repeat(2, Some(4)).is_proper());
        assert!(!r.repeat(0, Some(4)).is_proper());
    }

    #[test]
    fn plus_equals_concat_star_semantics() {
        let a = Alphabet::new();
        let x = a.intern("x");
        let plus = Regex::Atom(x).plus();
        for n in 0..5 {
            let w = vec![x; n];
            assert_eq!(plus.matches(&w), n >= 1, "length {n}");
        }
    }
}
