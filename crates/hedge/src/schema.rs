//! DTD-like schemas: content-model rules checked directly, and compiled to
//! the bottom-up tree automaton `A_S` for the independence criterion.
//!
//! The paper assumes schemas are supplied as regular bottom-up tree automata
//! `A_S`. For ergonomics we provide a small declarative schema language —
//! one content-model rule per element label, with the content model an
//! arbitrary regular expression over child labels:
//!
//! ```text
//! # The exam-session schema of the paper's running example
//! root: session
//! session: candidate*
//! candidate: @IDN exam+ level (toBePassed | firstJob-Year)
//! exam: @date discipline mark rank
//! discipline: #text
//! mark: #text
//! rank: #text
//! level: #text
//! toBePassed: discipline+
//! firstJob-Year: #text
//! ```
//!
//! Attribute labels and `#text` are implicit leaves; element labels used in
//! a content model must have their own rule.
//!
//! [`Schema::parse`] builds each content model's word NFA once.
//! [`Schema::validate`] is the DTD reading of one document: every element's
//! child-label word must lie in its rule's content model, and the root's in
//! the root model. [`Schema::compile`] turns the same NFAs into `A_S` over
//! the alphabet as it stands at the call, for Proposition 3's product.

use std::fmt;

use regtree_alphabet::{Alphabet, LabelKind, Symbol};
use regtree_automata::{parse_regex, Nfa, Regex};
use regtree_xml::{Document, NodeId};

use crate::automaton::{
    horizontal_epsilon, HedgeAutomaton, HedgeTransition, LabelGuard, TreeState,
};

/// A declarative schema: content-model rules per element label, each with
/// its word NFA over child labels.
#[derive(Clone, Debug)]
pub struct Schema {
    alphabet: Alphabet,
    /// Content model of the document root (over top-level element labels).
    root: Regex,
    /// `(element label, content model over child labels)`.
    rules: Vec<(Symbol, Regex)>,
    /// Word NFA of `root`.
    root_nfa: Nfa,
    /// Word NFA of each rule's content model, in `rules` order.
    rule_nfas: Vec<Nfa>,
    /// Position in `rules` by symbol index; labels interned after parsing
    /// lie beyond its end and have no rule.
    rule_of: Vec<Option<usize>>,
}

/// Error raised when loading or compiling a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Description.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema error: {}", self.message)
    }
}

impl std::error::Error for SchemaError {}

fn err(message: impl Into<String>) -> SchemaError {
    SchemaError {
        message: message.into(),
    }
}

/// Validation failure with location diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationError {
    /// Offending node.
    pub node: NodeId,
    /// Its Dewey position.
    pub position: String,
    /// Its label text.
    pub label: String,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "validation failed at {} (<{}>): {}",
            self.position, self.label, self.reason
        )
    }
}

impl std::error::Error for ValidationError {}

impl Schema {
    /// The schema's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The root content model.
    pub fn root_model(&self) -> &Regex {
        &self.root
    }

    /// The element rules.
    pub fn rules(&self) -> &[(Symbol, Regex)] {
        &self.rules
    }

    /// Parses the `label: content-model` text format (see module docs).
    pub fn parse(alphabet: &Alphabet, text: &str) -> Result<Schema, SchemaError> {
        let mut root: Option<Regex> = None;
        let mut rules: Vec<(Symbol, Regex)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((head, body)) = line.split_once(':') else {
                return Err(err(format!("line {}: expected 'label: model'", lineno + 1)));
            };
            let head = head.trim();
            let body = body.trim();
            let model = if body.is_empty() || body == "EMPTY" {
                Regex::Epsilon
            } else {
                parse_regex(alphabet, body)
                    .map_err(|e| err(format!("line {}: {}", lineno + 1, e)))?
            };
            if head == "root" {
                if root.is_some() {
                    return Err(err(format!("line {}: duplicate root rule", lineno + 1)));
                }
                root = Some(model);
            } else {
                let label = alphabet.intern(head);
                // The reserved `/` label is the document root's, whose
                // content model is the `root:` rule.
                if label == Alphabet::ROOT || alphabet.kind(label) != LabelKind::Element {
                    return Err(err(format!(
                        "line {}: rules only apply to element labels, got '{head}'",
                        lineno + 1
                    )));
                }
                if rules.iter().any(|(l, _)| *l == label) {
                    return Err(err(format!(
                        "line {}: duplicate rule for '{head}'",
                        lineno + 1
                    )));
                }
                rules.push((label, model));
            }
        }
        let root = root.ok_or_else(|| err("missing 'root:' rule"))?;
        let mut rule_of = vec![None; rules.iter().map(|(l, _)| l.index() + 1).max().unwrap_or(0)];
        for (i, (label, _)) in rules.iter().enumerate() {
            rule_of[label.index()] = Some(i);
        }
        Ok(Schema {
            alphabet: alphabet.clone(),
            root_nfa: Nfa::from_regex(&root),
            rule_nfas: rules
                .iter()
                .map(|(_, model)| Nfa::from_regex(model))
                .collect(),
            root,
            rules,
            rule_of,
        })
    }

    /// Compiles to a bottom-up tree automaton `A_S` over the alphabet as it
    /// stands now.
    ///
    /// States: one per alphabet symbol (`state = symbol index`) plus a final
    /// accept state for the `/` root. Content models become horizontal
    /// languages directly (a child in state *q* is exactly a child labeled
    /// with symbol *q*), and every attribute and text label interned so far
    /// gets a leaf transition. Undeclared element labels simply have no
    /// transition: documents using them are rejected. A copy compiled before
    /// new labels were interned does not cover them, so callers compile
    /// once per analysis instead of keeping one.
    pub fn compile(&self) -> HedgeAutomaton {
        let n_sym = self.alphabet.len();
        let accept: TreeState = n_sym as TreeState;
        let mut transitions = Vec::new();
        // Implicit leaf transitions for every attribute label and #text.
        let symbols = self.alphabet.symbols();
        let kinds = self.alphabet.kind_reader();
        for s in symbols {
            match kinds.kind(s) {
                LabelKind::Attribute | LabelKind::Text => {
                    transitions.push(HedgeTransition {
                        guard: LabelGuard::Is(s),
                        horizontal: horizontal_epsilon(),
                        target: s.0,
                    });
                }
                LabelKind::Element => {}
            }
        }
        drop(kinds);
        for ((label, _), nfa) in self.rules.iter().zip(&self.rule_nfas) {
            transitions.push(HedgeTransition {
                guard: LabelGuard::Is(*label),
                horizontal: nfa.clone(),
                target: label.0,
            });
        }
        transitions.push(HedgeTransition {
            guard: LabelGuard::Is(Alphabet::ROOT),
            horizontal: self.root_nfa.clone(),
            target: accept,
        });
        HedgeAutomaton::new(n_sym + 1, transitions, vec![accept])
    }

    /// Validates `doc`: attribute and text nodes are leaves, every element
    /// needs a rule whose content model accepts its children's label word,
    /// and the root's children must match the root model.
    ///
    /// The error names the first node, in document order, that fails while
    /// all its children pass: its ancestors fail too, but only as a
    /// consequence.
    pub fn validate(&self, doc: &Document) -> Result<(), ValidationError> {
        let order = doc.all_nodes();
        let mut ok = vec![false; doc.arena_len()];
        let mut word = Vec::new();
        let mut origin = None;
        // Reverse document order visits children before their parent; the
        // last origin found is the first in document order.
        for &n in order.iter().rev() {
            if !doc.children(n).iter().all(|c| ok[c.index()]) {
                continue;
            }
            if self.content_fits(doc, n, &mut word) {
                ok[n.index()] = true;
            } else {
                origin = Some(n);
            }
        }
        match origin {
            None => Ok(()),
            Some(n) => Err(ValidationError {
                node: n,
                position: doc.dewey_string(n),
                label: doc.label_name(n).to_string(),
                reason: "no automaton state assignable".into(),
            }),
        }
    }

    /// Does `n`'s child-label word fit its own content model? `word` is
    /// scratch space.
    fn content_fits(&self, doc: &Document, n: NodeId, word: &mut Vec<u32>) -> bool {
        let children = doc.children(n);
        let nfa = if n == doc.root() {
            &self.root_nfa
        } else {
            match doc.kind(n) {
                LabelKind::Attribute | LabelKind::Text => return children.is_empty(),
                LabelKind::Element => {
                    match self.rule_of.get(doc.label(n).index()).copied().flatten() {
                        Some(i) => &self.rule_nfas[i],
                        None => return false,
                    }
                }
            }
        };
        word.clear();
        word.extend(children.iter().map(|&c| doc.label(c).0));
        nfa.accepts(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_xml::parse_document;

    const EXAM_SCHEMA: &str = "\
# exam sessions\n\
root: session\n\
session: candidate*\n\
candidate: @IDN exam+ level (toBePassed | firstJob-Year)\n\
exam: @date discipline mark rank\n\
discipline: #text\n\
mark: #text\n\
rank: #text\n\
level: #text\n\
toBePassed: discipline+\n\
firstJob-Year: #text\n";

    fn candidate(idn: &str, extra: &str) -> String {
        format!(
            "<candidate IDN=\"{idn}\"><exam date=\"d1\"><discipline>math</discipline><mark>15</mark><rank>2</rank></exam><level>B</level>{extra}</candidate>"
        )
    }

    #[test]
    fn parses_and_validates() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, EXAM_SCHEMA).unwrap();
        let doc_src = format!(
            "<session>{}{}</session>",
            candidate("78", "<firstJob-Year>2010</firstJob-Year>"),
            candidate(
                "99",
                "<toBePassed><discipline>bio</discipline></toBePassed>"
            )
        );
        let doc = parse_document(&a, &doc_src).unwrap();
        schema.validate(&doc).unwrap();
    }

    #[test]
    fn rejects_missing_required_child() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, EXAM_SCHEMA).unwrap();
        // Candidate without level.
        let doc = parse_document(
            &a,
            "<session><candidate IDN=\"78\"><exam date=\"d\"><discipline>m</discipline><mark>1</mark><rank>1</rank></exam><firstJob-Year>2010</firstJob-Year></candidate></session>",
        )
        .unwrap();
        assert!(schema.validate(&doc).is_err());
    }

    /// Position, label and reason of the reported node, for the four ways
    /// a document can fail: an undeclared element, a content-model
    /// mismatch, the root model, and an attribute the model does not name.
    #[test]
    fn validation_errors_name_the_failing_node() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, EXAM_SCHEMA).unwrap();
        let exam = "<exam date=\"d\"><discipline>m</discipline><mark>1</mark><rank>1</rank></exam>";
        let cases = [
            ("<session><intruder/></session>".to_string(), "0.0", "intruder"),
            (
                format!("<session><candidate IDN=\"78\">{exam}<firstJob-Year>2010</firstJob-Year></candidate></session>"),
                "0.0",
                "candidate",
            ),
            (candidate("7", "<firstJob-Year>x</firstJob-Year>"), "ε", "/"),
            (
                format!(
                    "<session>{}</session>",
                    candidate("78", "<firstJob-Year>2010</firstJob-Year>")
                        .replace("date=\"d1\"", "date=\"d1\" room=\"r1\"")
                ),
                "0.0.1",
                "exam",
            ),
        ];
        for (src, position, label) in cases {
            let doc = parse_document(&a, &src).unwrap();
            let e = schema.validate(&doc).unwrap_err();
            assert_eq!(
                (e.position.as_str(), e.label.as_str(), e.reason.as_str()),
                (position, label, "no automaton state assignable"),
                "{src}"
            );
            assert_eq!(e.position, doc.dewey_string(e.node));
        }
    }

    #[test]
    fn rejects_undeclared_elements() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, EXAM_SCHEMA).unwrap();
        let doc = parse_document(&a, "<session><intruder/></session>").unwrap();
        assert!(schema.validate(&doc).is_err());
    }

    #[test]
    fn rejects_wrong_root() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, EXAM_SCHEMA).unwrap();
        let doc = parse_document(&a, &candidate("7", "<firstJob-Year>x</firstJob-Year>")).unwrap();
        assert!(schema.validate(&doc).is_err());
    }

    #[test]
    fn empty_content_model() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, "root: hollow\nhollow: EMPTY\n").unwrap();
        let ok = parse_document(&a, "<hollow/>").unwrap();
        schema.validate(&ok).unwrap();
        let bad = parse_document(&a, "<hollow><x/></hollow>").unwrap();
        assert!(schema.validate(&bad).is_err());
    }

    #[test]
    fn bounded_repetition_in_content_models() {
        let a = Alphabet::new();
        // A session must carry between 2 and 3 candidates, each with
        // exactly two exams — counting constraints straight in the schema.
        let schema = Schema::parse(
            &a,
            "root: session\nsession: candidate{2,3}\ncandidate: exam{2}\nexam: EMPTY\n",
        )
        .unwrap();
        let cand = "<candidate><exam/><exam/></candidate>";
        for (n, ok) in [(1, false), (2, true), (3, true), (4, false)] {
            let doc =
                parse_document(&a, &format!("<session>{}</session>", cand.repeat(n))).unwrap();
            assert_eq!(schema.validate(&doc).is_ok(), ok, "{n} candidates");
        }
        let bad = parse_document(&a, "<session><candidate><exam/></candidate><candidate><exam/><exam/></candidate></session>").unwrap();
        assert!(schema.validate(&bad).is_err());
    }

    #[test]
    fn parse_errors() {
        let a = Alphabet::new();
        assert!(Schema::parse(&a, "session: x\n").is_err()); // no root
        assert!(Schema::parse(&a, "root: x\nroot: y\n").is_err());
        assert!(Schema::parse(&a, "root: x\nx: (((\n").is_err());
        assert!(Schema::parse(&a, "root: x\n@attr: y\n").is_err());
        assert!(Schema::parse(&a, "root: x\n/: x\nx: EMPTY\n").is_err());
        assert!(Schema::parse(&a, "root: x\nx: a\nx: b\n").is_err());
        assert!(Schema::parse(&a, "just a line\n").is_err());
    }

    /// A content model at the nesting limit parses and compiles on a 2 MiB
    /// thread, and 5,000 nested parentheses are rejected there instead of
    /// overflowing the stack.
    #[test]
    fn nesting_limit_compiles_on_a_small_stack() {
        let schema = |levels: usize| {
            format!(
                "root: r\nr: {}{}\nx: EMPTY\n",
                "(x ".repeat(levels),
                ")*".repeat(levels)
            )
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let a = Alphabet::new();
                let s = Schema::parse(&a, &schema(256)).expect("at the limit");
                s.compile();
                let doc = parse_document(&a, "<r><x/><x/></r>").unwrap();
                assert!(s.validate(&doc).is_ok());
                let err = Schema::parse(&a, &schema(5_000)).unwrap_err();
                assert!(err.to_string().contains("nesting deeper than 256"), "{err}");
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
    }

    #[test]
    fn compile_size_reflects_rules() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, EXAM_SCHEMA).unwrap();
        let m = schema.compile();
        assert_eq!(m.num_states(), a.len() + 1);
        assert!(m.size() > m.num_states());
    }

    #[test]
    fn wildcard_content_model() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, "root: any\nany: _*\nleaf: EMPTY\n").unwrap();
        // `_*` admits any declared child labels.
        let ok = parse_document(&a, "<any><leaf/><leaf/></any>").unwrap();
        schema.validate(&ok).unwrap();
        // ... but children must themselves be declared.
        let bad = parse_document(&a, "<any><ghost/></any>").unwrap();
        assert!(schema.validate(&bad).is_err());
    }
}
