//! AST → template compilation, value-test evaluation, and the
//! `CompiledPattern` wrapper.
//!
//! Each step contributes to the regex of a template edge; consecutive
//! predicate-free steps merge into a single edge, descendant axes
//! contribute an `_*` prefix, and counting predicates `[count(p) >= n]` expand into `n`
//! repeated predicate branches. Branch repetition counts *disjoint*
//! occurrences because Definition 2 maps sibling branches to distinct
//! children with disjoint subtrees.
//!
//! Templates cannot express value tests (`[p = "v"]`), so compilation
//! collects them as `(template node, expected value)` pairs and
//! [`CompiledPattern::evaluate`] filters mappings by the string value of
//! each test node's image.

use std::fmt;

use regtree_alphabet::{Alphabet, LabelKind};
use regtree_automata::Regex;
use regtree_xml::{Document, NodeId};

use super::ast::{Axis, NameTest, Pattern, Predicate, Step};
use super::{parse_pattern, ParseError};
use crate::pattern::{PatternError, RegularTreePattern};
use crate::template::{Template, TemplateError, TemplateNodeId};

/// Error raised compiling a pattern AST into a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Building a template edge failed.
    Template(TemplateError),
    /// Assembling the selected tuple failed.
    Pattern(PatternError),
    /// A value test appeared in a context that cannot evaluate one (FD and
    /// update-class patterns run through engines that see only the
    /// template).
    ValueTest,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Template(e) => write!(f, "template: {e}"),
            CompileError::Pattern(e) => write!(f, "pattern: {e}"),
            CompileError::ValueTest => write!(
                f,
                "value tests ([p = \"v\"]) are only supported in standalone pattern \
                 evaluation, not in FD or update-class patterns"
            ),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Template(e) => Some(e),
            CompileError::Pattern(e) => Some(e),
            CompileError::ValueTest => None,
        }
    }
}

impl From<TemplateError> for CompileError {
    fn from(e: TemplateError) -> CompileError {
        CompileError::Template(e)
    }
}

impl From<PatternError> for CompileError {
    fn from(e: PatternError) -> CompileError {
        CompileError::Pattern(e)
    }
}

/// A compiled textual pattern: the regular tree pattern plus the value
/// tests, which the template cannot carry and evaluation applies as a
/// mapping filter.
#[derive(Clone, Debug)]
pub struct CompiledPattern {
    ast: Pattern,
    pattern: RegularTreePattern,
    value_tests: Vec<(TemplateNodeId, String)>,
}

impl CompiledPattern {
    /// One-shot convenience: parse and compile in a single call.
    ///
    /// Compilation errors (which have no source offset) are reported at
    /// the end of the input.
    pub fn from_text(alphabet: &Alphabet, src: &str) -> Result<CompiledPattern, ParseError> {
        parse_pattern(src)?
            .compile(alphabet)
            .map_err(|e| ParseError::note(src.len(), "", e.to_string()))
    }

    /// The parsed AST; `self.ast().to_text()` is the canonical form.
    pub fn ast(&self) -> &Pattern {
        &self.ast
    }

    /// The underlying regular tree pattern.
    pub fn pattern(&self) -> &RegularTreePattern {
        &self.pattern
    }

    /// The value tests: each `(w, v)` requires the image of template node
    /// `w` to have string value `v`.
    pub fn value_tests(&self) -> &[(TemplateNodeId, String)] {
        &self.value_tests
    }

    /// Evaluates on a document: the selected tuples over all mappings that
    /// pass every value test, deduplicated in first-seen order.
    pub fn evaluate(&self, doc: &Document) -> Vec<Vec<NodeId>> {
        if self.value_tests.is_empty() {
            return self.pattern.evaluate(doc);
        }
        let mut out: Vec<Vec<NodeId>> = Vec::new();
        for m in self.pattern.mappings(doc) {
            if self
                .value_tests
                .iter()
                .all(|(w, v)| string_value(doc, m.image(*w)) == *v)
            {
                let tuple: Vec<NodeId> = self
                    .pattern
                    .selected()
                    .iter()
                    .map(|&w| m.image(w))
                    .collect();
                if !out.contains(&tuple) {
                    out.push(tuple);
                }
            }
        }
        out
    }
}

impl Pattern {
    /// Compiles the AST into a [`CompiledPattern`] over `alphabet`,
    /// selecting the node of the final step (monadic).
    pub fn compile(&self, alphabet: &Alphabet) -> Result<CompiledPattern, CompileError> {
        let mut template = Template::new(alphabet.clone());
        let mut values = Vec::new();
        let root = template.root();
        let selected = build_steps(&mut template, root, &self.steps, Some(&mut values))?;
        let pattern = RegularTreePattern::monadic(template, selected)?;
        Ok(CompiledPattern {
            ast: self.clone(),
            pattern,
            value_tests: values,
        })
    }
}

/// The string value of a node: its own value for attributes and text
/// nodes, the document-order concatenation of descendant text values for
/// elements (XPath's element string-value).
pub(crate) fn string_value(doc: &Document, n: NodeId) -> String {
    if let Some(v) = doc.value(n) {
        return v.to_string();
    }
    let mut out = String::new();
    for d in doc.descendants_or_self(n) {
        if doc.kind(d) == LabelKind::Text {
            if let Some(v) = doc.value(d) {
                out.push_str(v);
            }
        }
    }
    out
}

/// Appends a relative path's steps below `from`, rejecting value tests.
///
/// This is the entry point FD compilation (in `regtree-core`) uses to
/// build condition/target branches: FDs run through engines that evaluate
/// the template only, so a value test inside one is a [`CompileError`].
/// Returns the template node of the final step.
pub fn append_relpath(
    template: &mut Template,
    from: TemplateNodeId,
    steps: &[Step],
) -> Result<TemplateNodeId, CompileError> {
    build_steps(template, from, steps, None)
}

/// Regex contribution of one step (without its axis prefix).
pub(crate) fn test_regex(alphabet: &Alphabet, test: &NameTest) -> Regex {
    match test {
        NameTest::Name(n) => Regex::Atom(alphabet.intern(n)),
        NameTest::Wildcard => Regex::AnyAtom,
        NameTest::Attribute(n) => Regex::Atom(alphabet.intern(&format!("@{n}"))),
        NameTest::Text => Regex::Atom(alphabet.intern(Alphabet::TEXT_NAME)),
    }
}

/// Core builder: appends `steps` below `from`, merging predicate-free
/// steps into single edges and expanding counting predicates into
/// repeated branches. `values` collects value tests when provided;
/// `None` makes a value test an error.
fn build_steps(
    template: &mut Template,
    from: TemplateNodeId,
    steps: &[Step],
    mut values: Option<&mut Vec<(TemplateNodeId, String)>>,
) -> Result<TemplateNodeId, CompileError> {
    let alphabet = template.alphabet().clone();
    let mut current = from;
    let mut pending: Vec<Regex> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        if step.axis == Axis::Descendant {
            pending.push(Regex::AnyAtom.star());
        }
        pending.push(test_regex(&alphabet, &step.test));
        if !step.predicates.is_empty() || i + 1 == steps.len() {
            let regex = Regex::seq(pending.drain(..));
            current = template.add_child(current, regex)?;
            for pred in &step.predicates {
                match pred {
                    Predicate::Exists(p) => {
                        build_steps(template, current, &p.steps, values.as_deref_mut())?;
                    }
                    Predicate::ValueEq(p, v) => {
                        // The path may itself carry nested value tests, so
                        // recurse with the same collector.
                        let node = build_steps(template, current, &p.steps, values.as_deref_mut())?;
                        match values.as_deref_mut() {
                            Some(vs) => vs.push((node, v.clone())),
                            None => return Err(CompileError::ValueTest),
                        }
                    }
                    Predicate::AtLeast(n, p) => {
                        for _ in 0..*n {
                            build_steps(template, current, &p.steps, values.as_deref_mut())?;
                        }
                    }
                }
            }
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_xml::parse_document;

    fn eval(a: &Alphabet, src: &str, doc_src: &str) -> usize {
        let p = CompiledPattern::from_text(a, src).unwrap();
        let doc = parse_document(a, doc_src).unwrap();
        p.evaluate(&doc).len()
    }

    /// A pattern at the nesting limit compiles and evaluates on a 2 MiB
    /// thread, and 5,000 nested predicates are rejected there instead of
    /// overflowing the stack.
    #[test]
    fn nesting_limit_compiles_on_a_small_stack() {
        let nested = |levels: usize| format!("/a{}{}", "[b".repeat(levels), "]".repeat(levels));
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let a = Alphabet::new();
                let p = CompiledPattern::from_text(&a, &nested(256)).expect("at the limit");
                let chain = format!("<a>{}{}</a>", "<b>".repeat(256), "</b>".repeat(256));
                let doc = parse_document(&a, &chain).unwrap();
                assert_eq!(p.evaluate(&doc).len(), 1);
                let err = CompiledPattern::from_text(&a, &nested(5_000)).unwrap_err();
                assert!(err.to_string().contains("nesting deeper than 256"), "{err}");
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
    }

    /// Positive CoreXPath is a fragment of the language: child and
    /// descendant axes, wildcards, attribute and text tests, conjunctive
    /// predicates. `(query, document, matches)`.
    #[test]
    fn positive_corexpath_fragment_counts() {
        let a = Alphabet::new();
        let cands =
            "<s><cand><toBePassed/><level>B</level></cand><cand><level>A</level></cand></s>";
        let nested = "<s><c><e><m/></e><z/></c><c><e/><z/></c></s>";
        let mixed = "<s><c><e><m/></e><z/></c><c><e/><z/></c><d><m/></d></s>";
        let conj = "<s><c><x/><y/></c><c><x/></c><c><y/></c></s>";
        let cases: &[(&str, &str, usize)] = &[
            // Child axis.
            ("/s/c", "<s><c/><c/></s>", 2),
            ("/s/c", "<s><d/></s>", 0),
            ("/s/c/d", "<s><c><d/></c></s>", 1),
            // Descendant axis.
            ("//m", "<x><y><m/></y><m/></x>", 2),
            ("/x//m", "<x><y><m/></y></x>", 1),
            ("//q", "<x><y/></x>", 0),
            // Wildcard.
            ("/s/*/m", "<s><a><m/></a><b><m/></b></s>", 2),
            // Attribute and text tests.
            ("/c/@id", "<c id=\"7\"/>", 1),
            ("/c/text()", "<c>hello</c>", 1),
            ("/c/@id", "<c/>", 0),
            // Predicates filter.
            ("/s/cand[toBePassed]/level", cands, 1),
            ("/s/cand/level", cands, 2),
            ("/s/c[e/m]/z", nested, 1),
            ("/s/c[e]/z", nested, 2),
            ("/s/c[.//m]/z", nested, 1),
            ("/s/c", mixed, 2),
            ("/s/c/z", mixed, 2),
            ("//m", mixed, 2),
            ("/s//m", mixed, 2),
            ("/s/*/e", mixed, 2),
            // Conjunction.
            ("/s/c[x and y]", conj, 1),
            ("/s/c[x]", conj, 2),
            // A predicate branch precedes the continuation in document
            // order (Definition 2): stricter than XPath.
            ("/s/c[x]/y", "<s><c><x/><y/></c></s>", 1),
            ("/s/c[x]/y", "<s><c><y/><x/></c></s>", 0),
        ];
        for &(q, doc, n) in cases {
            assert_eq!(eval(&a, q, doc), n, "{q} on {doc}");
        }
        for bad in ["relative/path", "/a[b", "/a]", "/", "/a/"] {
            assert!(CompiledPattern::from_text(&a, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn merges_predicate_free_steps_into_one_edge() {
        let a = Alphabet::new();
        let nodes = |q| {
            CompiledPattern::from_text(&a, q)
                .unwrap()
                .pattern()
                .template()
                .len()
        };
        // Root + a single merged template node.
        assert_eq!(nodes("/a/b/c/d"), 2);
        // Root + node for b + branch for x + node for c/d.
        assert_eq!(nodes("/a/b[x]/c/d"), 4);
    }

    #[test]
    fn counting_predicates_count_disjoint_children() {
        let a = Alphabet::new();
        let doc = "<s><c><v/><v/><v/></c><c><v/></c><c/></s>";
        assert_eq!(eval(&a, "/s/c[count(v) >= 0]", doc), 3);
        assert_eq!(eval(&a, "/s/c[count(v) >= 1]", doc), 2);
        assert_eq!(eval(&a, "/s/c[count(v) >= 2]", doc), 1);
        assert_eq!(eval(&a, "/s/c[count(v) >= 3]", doc), 1);
        assert_eq!(eval(&a, "/s/c[count(v) >= 4]", doc), 0);
        assert_eq!(eval(&a, "/s/c[count(v) > 2]", doc), 1);
    }

    #[test]
    fn counting_multi_step_paths_counts_witnessing_subtrees() {
        let a = Alphabet::new();
        // count(e/m) counts distinct e-children that contain an m — the
        // two m's inside ONE e are a single witnessing subtree.
        let doc = "<s><c><e><m/><m/></e></c><c><e><m/></e><e><m/></e></c></s>";
        assert_eq!(eval(&a, "/s/c[count(e/m) >= 2]", doc), 1);
        assert_eq!(eval(&a, "/s/c[count(e/m) >= 1]", doc), 2);
    }

    #[test]
    fn value_tests_filter_mappings() {
        let a = Alphabet::new();
        let doc = r#"<s><c status="open"><m>10</m></c><c status="closed"><m>9</m></c></s>"#;
        assert_eq!(eval(&a, r#"/s/c[@status = "open"]"#, doc), 1);
        assert_eq!(eval(&a, r#"/s/c[@status = "missing"]"#, doc), 0);
        // Element string-value: concatenated descendant text.
        assert_eq!(eval(&a, r#"/s/c[m = "10"]"#, doc), 1);
        // A predicate branch must precede the continuation in document
        // order; attributes come first, so test them before elements.
        assert_eq!(eval(&a, r#"/s/c[@status = "closed"]/m"#, doc), 1);
    }

    #[test]
    fn value_tests_are_rejected_on_the_fd_path() {
        let a = Alphabet::new();
        let p = parse_pattern(r#"/s/c[x = "1"]"#).unwrap();
        let mut t = Template::new(a.clone());
        let root = t.root();
        assert_eq!(
            append_relpath(&mut t, root, &p.steps),
            Err(CompileError::ValueTest)
        );
        // But plain compilation supports them.
        assert_eq!(p.compile(&a).unwrap().value_tests().len(), 1);
    }

    #[test]
    fn from_text_reports_parse_and_compile_errors() {
        let a = Alphabet::new();
        let err = CompiledPattern::from_text(&a, "/s/c[").unwrap_err();
        assert_eq!(err.offset, 5);
        assert!(CompiledPattern::from_text(&a, "/s/c").is_ok());
    }

    #[test]
    fn counting_zero_is_trivially_true() {
        let a = Alphabet::new();
        let p = CompiledPattern::from_text(&a, "/s/c[count(v) >= 0]").unwrap();
        // No branches added: template is root + merged s/c node.
        assert_eq!(p.pattern().template().len(), 2);
    }
}
