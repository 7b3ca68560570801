//! DTD-like schemas compiled to bottom-up tree automata.
//!
//! The paper assumes schemas are supplied as regular bottom-up tree automata
//! `A_S`. For ergonomics we provide a small declarative schema language —
//! one content-model rule per element label, with the content model an
//! arbitrary regular expression over child labels — compiled to a
//! [`HedgeAutomaton`] with one state per label:
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

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use regtree_alphabet::{Alphabet, LabelKind, Symbol};
use regtree_automata::{parse_regex, Nfa, Regex};
use regtree_xml::Document;

use crate::automaton::{
    horizontal_epsilon, HedgeAutomaton, HedgeTransition, LabelGuard, TreeState,
};

/// A declarative schema: content-model rules per element label.
#[derive(Debug)]
pub struct Schema {
    alphabet: Alphabet,
    /// Content model of the document root (over top-level element labels).
    root: Regex,
    /// `(element label, content model over child labels)`.
    rules: Vec<(Symbol, Regex)>,
    /// Cache for [`Schema::compiled`], keyed by the alphabet length the
    /// automaton was compiled against (the implicit leaf transitions cover
    /// every interned attribute/text label, so alphabet growth invalidates).
    compiled: Mutex<Option<(usize, Arc<HedgeAutomaton>)>>,
}

impl Clone for Schema {
    fn clone(&self) -> Schema {
        Schema {
            alphabet: self.alphabet.clone(),
            root: self.root.clone(),
            rules: self.rules.clone(),
            compiled: Mutex::new(self.lock_compiled().clone()),
        }
    }
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

impl Schema {
    fn lock_compiled(&self) -> MutexGuard<'_, Option<(usize, Arc<HedgeAutomaton>)>> {
        self.compiled.lock().unwrap_or_else(|e| e.into_inner())
    }

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
                if alphabet.kind(label) != LabelKind::Element {
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
        Ok(Schema {
            alphabet: alphabet.clone(),
            root,
            rules,
            compiled: Mutex::new(None),
        })
    }

    /// Compiles to a bottom-up tree automaton `A_S`.
    ///
    /// States: one per alphabet symbol (`state = symbol index`) plus a final
    /// accept state for the `/` root. Content models become horizontal
    /// languages directly (a child in state *q* is exactly a child labeled
    /// with symbol *q*). Undeclared element labels simply have no transition:
    /// documents using them are rejected.
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
        for (label, model) in &self.rules {
            transitions.push(HedgeTransition {
                guard: LabelGuard::Is(*label),
                horizontal: Nfa::from_regex(model),
                target: label.0,
            });
        }
        transitions.push(HedgeTransition {
            guard: LabelGuard::Is(Alphabet::ROOT),
            horizontal: Nfa::from_regex(&self.root),
            target: accept,
        });
        HedgeAutomaton::new(n_sym + 1, transitions, vec![accept])
    }

    /// The compiled automaton, built on first use and shared from then on:
    /// repeated analyses or validations against one schema reuse a single
    /// automaton instead of recompiling per call. The cache is invalidated
    /// by alphabet growth (newly interned attribute/text labels gain
    /// implicit leaf transitions on recompile).
    pub fn compiled(&self) -> Arc<HedgeAutomaton> {
        let len = self.alphabet.len();
        let mut slot = self.lock_compiled();
        match &*slot {
            Some((n, c)) if *n == len => c.clone(),
            _ => {
                let c = Arc::new(self.compile());
                *slot = Some((len, c.clone()));
                c
            }
        }
    }

    /// Convenience: validate a document against the compiled schema.
    pub fn validate(&self, doc: &Document) -> Result<(), crate::automaton::ValidationError> {
        self.compiled().validate(doc)
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
                s.compiled();
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
    fn compiled_size_reflects_rules() {
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
