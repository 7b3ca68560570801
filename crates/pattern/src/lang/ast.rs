//! Abstract syntax of the textual pattern language and its canonical
//! pretty-printer.
//!
//! The printer is *canonical*: sugar forms (`at-least n p`, `count(p) > n`,
//! `child::`, `descendant::`) normalize at parse time, so
//! `parse(p.to_text()) == p` for every AST value the parser can produce —
//! the round-trip property the fuzzing suite checks with random ASTs from
//! `regtree-gen`.

use std::fmt;

/// The axis connecting a step to its predecessor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/` — the step's node is a child of the predecessor.
    Child,
    /// `//` — the step's node is any strict descendant.
    Descendant,
}

/// The node test of one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    /// An element (or other plain) label, e.g. `candidate`.
    Name(String),
    /// `*` — any single label.
    Wildcard,
    /// `@name` — the attribute label `@name`.
    Attribute(String),
    /// `text()` — the text-node label `#text`.
    Text,
}

/// One location step: axis, node test, and a conjunction of predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// How this step's node relates to its predecessor.
    pub axis: Axis,
    /// The label test.
    pub test: NameTest,
    /// Conjunctive predicates (`[p and q][r]` ≡ `[p and q and r]`).
    pub predicates: Vec<Predicate>,
}

/// A predicate inside `[...]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `p` — a witnessing occurrence of the relative path exists.
    Exists(RelPath),
    /// `p = "v"` — the node reached by `p` has string value `v`.
    ValueEq(RelPath, String),
    /// `count(p) >= n` — at least `n` disjoint occurrences of `p` exist.
    ///
    /// Both surface forms (`count(p) >= n`, `count(p) > n-1`, and
    /// `at-least n p`) normalize to this variant; the printer emits the
    /// `count(p) >= n` form.
    AtLeast(usize, RelPath),
}

/// A relative path (predicate operand, FD condition/target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelPath {
    /// The steps; the first step's [`Axis`] anchors it to the predicate's
    /// node (`Child` for a bare path, `Descendant` for `.//`).
    pub steps: Vec<Step>,
}

/// An absolute pattern path (`/…` or `//…`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// The steps; the first step's [`Axis`] anchors it to the document
    /// root.
    pub steps: Vec<Step>,
}

/// Equality annotation on an FD condition/target path: `[V]` (value, the
/// default) or `[N]` (node identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EqTag {
    /// Compare selected nodes by string value.
    Value,
    /// Compare selected nodes by identity.
    Node,
}

/// A textual functional dependency
/// `context : p1, p2[N], … -> q` — the path syntax of \[8\] with
/// descendant axes, wildcards, and counting predicates allowed in every
/// path. `regtree_core::parse_fd` compiles it into an FD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdExpr {
    /// The absolute context path.
    pub context: Pattern,
    /// Condition paths (relative to the context) with equality tags.
    pub conditions: Vec<(RelPath, EqTag)>,
    /// The target path with its equality tag.
    pub target: (RelPath, EqTag),
}

impl Pattern {
    /// Renders the canonical text form, which re-parses to an equal AST.
    ///
    /// Sugar normalizes: `at-least n p` prints as `count(p) >= n`,
    /// explicit `child::`/`descendant::` axes print as `/` and `.//`.
    ///
    /// ```
    /// use regtree_pattern::lang::parse_pattern;
    ///
    /// let p = parse_pattern("/session//candidate[at-least 2 child::exam]/level").unwrap();
    /// assert_eq!(p.to_text(), "/session//candidate[count(exam) >= 2]/level");
    /// assert_eq!(parse_pattern(&p.to_text()).unwrap(), p);
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        fmt_steps(&self.steps, true, &mut out);
        out
    }
}

impl RelPath {
    /// Renders the canonical text form of the relative path.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        fmt_steps(&self.steps, false, &mut out);
        out
    }
}

impl FdExpr {
    /// Renders the canonical one-line FD form
    /// (`context : conditions -> target`), which re-parses to an equal AST.
    pub fn to_text(&self) -> String {
        let mut out = self.context.to_text();
        out.push_str(" :");
        for (i, (path, eq)) in self.conditions.iter().enumerate() {
            out.push_str(if i == 0 { " " } else { ", " });
            out.push_str(&path.to_text());
            if *eq == EqTag::Node {
                out.push_str("[N]");
            }
        }
        out.push_str(" -> ");
        out.push_str(&self.target.0.to_text());
        if self.target.1 == EqTag::Node {
            out.push_str("[N]");
        }
        out
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl fmt::Display for RelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl fmt::Display for FdExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn fmt_steps(steps: &[Step], absolute: bool, out: &mut String) {
    for (i, step) in steps.iter().enumerate() {
        match (i, absolute, step.axis) {
            (0, false, Axis::Child) => {}
            (0, false, Axis::Descendant) => out.push_str(".//"),
            (_, _, Axis::Child) => out.push('/'),
            (_, _, Axis::Descendant) => out.push_str("//"),
        }
        match &step.test {
            NameTest::Name(n) => out.push_str(n),
            NameTest::Wildcard => out.push('*'),
            NameTest::Attribute(n) => {
                out.push('@');
                out.push_str(n);
            }
            NameTest::Text => out.push_str("text()"),
        }
        if !step.predicates.is_empty() {
            out.push('[');
            for (j, pred) in step.predicates.iter().enumerate() {
                if j > 0 {
                    out.push_str(" and ");
                }
                match pred {
                    Predicate::Exists(p) => out.push_str(&p.to_text()),
                    Predicate::ValueEq(p, v) => {
                        out.push_str(&p.to_text());
                        out.push_str(" = \"");
                        for c in v.chars() {
                            if c == '"' || c == '\\' {
                                out.push('\\');
                            }
                            out.push(c);
                        }
                        out.push('"');
                    }
                    Predicate::AtLeast(n, p) => {
                        out.push_str("count(");
                        out.push_str(&p.to_text());
                        out.push_str(&format!(") >= {n}"));
                    }
                }
            }
            out.push(']');
        }
    }
}
