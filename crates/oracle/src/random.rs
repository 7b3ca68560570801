//! Randomized instance generators for fuzzing and soundness testing.
//!
//! * [`random_document`] — schema-conforming random documents, used by the
//!   IC soundness property tests (E8 of DESIGN.md): every document drawn
//!   here is `valid(S)` by construction;
//! * [`random_regex`] / [`random_pattern`] — random pattern-space
//!   instances for the Proposition 3 scaling benches;
//! * [`random_spec`] — random replacement subtrees for update payloads.

use rand::Rng;

use regtree_alphabet::{Alphabet, LabelKind, Symbol};
use regtree_automata::{Nfa, Regex};
use regtree_hedge::Schema;
use regtree_pattern::{RegularTreePattern, Template};
use regtree_xml::{Document, TreeSpec};

use crate::sample::LangSampler;

/// Generates a random document conforming to `schema`.
///
/// Each element's child word is sampled from its content model; `breadth`
/// controls the target word length at the top levels, decaying with depth so
/// generation terminates.
pub fn random_document<R: Rng>(schema: &Schema, breadth: usize, rng: &mut R) -> Document {
    let alphabet = schema.alphabet().clone();
    let root_sampler = LangSampler::new(&Nfa::from_regex(schema.root_model()), &[]);
    let samplers: Vec<(Symbol, LangSampler)> = schema
        .rules()
        .iter()
        .map(|(label, model)| (*label, LangSampler::new(&Nfa::from_regex(model), &[])))
        .collect();

    let mut doc = Document::new(alphabet.clone());
    let word = root_sampler
        .sample(rng, breadth)
        .expect("root model nonempty");
    for letter in word {
        let spec = grow(&alphabet, &samplers, Symbol(letter), breadth, rng, 0);
        let root = doc.root();
        let len = doc.children(root).len();
        regtree_xml::insert_child(&mut doc, root, len, &spec)
            .expect("generated specs are well-formed");
    }
    doc
}

fn grow<R: Rng>(
    alphabet: &Alphabet,
    samplers: &[(Symbol, LangSampler)],
    label: Symbol,
    breadth: usize,
    rng: &mut R,
    depth: usize,
) -> TreeSpec {
    match alphabet.kind(label) {
        LabelKind::Attribute => TreeSpec::attr(label, &random_value(rng)),
        LabelKind::Text => TreeSpec::text(&random_value(rng)),
        LabelKind::Element => {
            let target = if depth > 6 { 0 } else { breadth / (depth + 1) };
            let word: Vec<u32> = samplers
                .iter()
                .find(|(l, _)| *l == label)
                .and_then(|(_, s)| s.sample(rng, target))
                .unwrap_or_default();
            let children = word
                .into_iter()
                .map(|l| grow(alphabet, samplers, Symbol(l), breadth, rng, depth + 1))
                .collect();
            TreeSpec::elem(label, children)
        }
    }
}

fn random_value<R: Rng>(rng: &mut R) -> String {
    let len = rng.gen_range(1..=3);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..6u8)))
        .collect()
}

/// A random regex of roughly `size` AST nodes over `labels`.
pub fn random_regex<R: Rng>(labels: &[Symbol], size: usize, rng: &mut R) -> Regex {
    if size <= 1 || labels.is_empty() {
        return Regex::Atom(labels[rng.gen_range(0..labels.len())]);
    }
    match rng.gen_range(0..6) {
        0 => {
            let left = size / 2;
            Regex::seq([
                random_regex(labels, left.max(1), rng),
                random_regex(labels, (size - left).max(1), rng),
            ])
        }
        1 => {
            let left = size / 2;
            Regex::alt([
                random_regex(labels, left.max(1), rng),
                random_regex(labels, (size - left).max(1), rng),
            ])
        }
        2 => random_regex(labels, size - 1, rng).star(),
        3 => random_regex(labels, size - 1, rng).plus(),
        4 => random_regex(labels, size - 1, rng).opt(),
        _ => Regex::Atom(labels[rng.gen_range(0..labels.len())]),
    }
}

/// Like [`random_regex`] but guaranteed proper (usable as an edge).
pub fn random_proper_regex<R: Rng>(labels: &[Symbol], size: usize, rng: &mut R) -> Regex {
    let r = random_regex(labels, size, rng);
    if r.is_proper() {
        r
    } else {
        // Append a mandatory atom: `r · a` is proper whenever a is.
        Regex::seq([r, Regex::Atom(labels[rng.gen_range(0..labels.len())])])
    }
}

/// A random monadic pattern with `n_edges` edges over `labels`.
pub fn random_pattern<R: Rng>(
    alphabet: &Alphabet,
    labels: &[Symbol],
    n_edges: usize,
    rng: &mut R,
) -> RegularTreePattern {
    let mut t = Template::new(alphabet.clone());
    let mut nodes = vec![t.root()];
    for _ in 0..n_edges.max(1) {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let regex = random_proper_regex(labels, rng.gen_range(1..5), rng);
        let n = t.add_child(parent, regex).expect("proper by construction");
        nodes.push(n);
    }
    let selected = nodes[rng.gen_range(1..nodes.len())];
    RegularTreePattern::monadic(t, selected).expect("valid")
}

/// A random well-formed subtree over `labels` (as an update payload).
pub fn random_spec<R: Rng>(
    alphabet: &Alphabet,
    labels: &[Symbol],
    size: usize,
    rng: &mut R,
) -> TreeSpec {
    let elements: Vec<Symbol> = labels
        .iter()
        .copied()
        .filter(|&l| alphabet.kind(l) == LabelKind::Element)
        .collect();
    if elements.is_empty() || size <= 1 {
        return TreeSpec::text(&random_value(rng));
    }
    let label = elements[rng.gen_range(0..elements.len())];
    let n_children = rng.gen_range(0..=3.min(size - 1));
    let children = (0..n_children)
        .map(|_| random_spec(alphabet, labels, size / (n_children + 1), rng))
        .collect();
    TreeSpec::elem(label, children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use regtree_pattern::lang::{Axis, EqTag, FdExpr, NameTest, Pattern, Predicate, RelPath, Step};

    /// A random textual-pattern AST over `names`.
    ///
    /// The draw covers the whole grammar — both axes, wildcards, attribute and
    /// text tests, existence/value/counting predicates, nesting up to `depth` —
    /// and stays inside the canonical sub-language, so printing with
    /// [`Pattern::to_text`] and re-parsing yields a structurally equal AST (the
    /// round-trip property the tier-1 proptests check). Avoid the reserved
    /// names `N` and `V` in the pool: a trailing `[N]`/`[V]` predicate would
    /// re-parse as an FD equality annotation instead.
    fn random_text_pattern<R: Rng>(names: &[&str], depth: usize, rng: &mut R) -> Pattern {
        let n_steps = rng.gen_range(1..=3);
        Pattern {
            steps: (0..n_steps)
                .map(|_| random_text_step(names, depth, rng))
                .collect(),
        }
    }

    /// A random textual-FD AST over `names`: like [`random_text_pattern`] for
    /// every path, minus value tests (FD compilation rejects them), plus random
    /// `[V]`/`[N]` equality tags. Also round-trips through
    /// [`FdExpr::to_text`] and `parse_fd_expr`.
    fn random_fd_expr<R: Rng>(names: &[&str], depth: usize, rng: &mut R) -> FdExpr {
        let mut context = random_text_pattern(names, depth, rng);
        strip_value_tests(&mut context.steps);
        let n_conditions = rng.gen_range(0..=2);
        let conditions = (0..n_conditions)
            .map(|_| (random_fd_relpath(names, depth, rng), random_eq(rng)))
            .collect();
        FdExpr {
            context,
            conditions,
            target: (random_fd_relpath(names, depth, rng), random_eq(rng)),
        }
    }

    fn random_eq<R: Rng>(rng: &mut R) -> EqTag {
        if rng.gen_bool(0.25) {
            EqTag::Node
        } else {
            EqTag::Value
        }
    }

    fn random_fd_relpath<R: Rng>(names: &[&str], depth: usize, rng: &mut R) -> RelPath {
        let mut p = random_text_relpath(names, depth, rng);
        strip_value_tests(&mut p.steps);
        p
    }

    fn strip_value_tests(steps: &mut [Step]) {
        for s in steps {
            s.predicates
                .retain(|p| !matches!(p, Predicate::ValueEq(..)));
            for p in &mut s.predicates {
                match p {
                    Predicate::Exists(rp) | Predicate::AtLeast(_, rp) => {
                        strip_value_tests(&mut rp.steps)
                    }
                    Predicate::ValueEq(..) => unreachable!("retained above"),
                }
            }
        }
    }

    fn random_text_step<R: Rng>(names: &[&str], depth: usize, rng: &mut R) -> Step {
        let axis = if rng.gen_bool(0.25) {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let pick = |rng: &mut R| names[rng.gen_range(0..names.len())].to_string();
        let test = match rng.gen_range(0..8) {
            0 => NameTest::Wildcard,
            1 => NameTest::Attribute(pick(rng)),
            2 => NameTest::Text,
            _ => NameTest::Name(pick(rng)),
        };
        let n_preds = if depth == 0 { 0 } else { rng.gen_range(0..=2) };
        let predicates = (0..n_preds)
            .map(|_| random_text_predicate(names, depth - 1, rng))
            .collect();
        Step {
            axis,
            test,
            predicates,
        }
    }

    fn random_text_relpath<R: Rng>(names: &[&str], depth: usize, rng: &mut R) -> RelPath {
        let n_steps = rng.gen_range(1..=2);
        RelPath {
            steps: (0..n_steps)
                .map(|_| random_text_step(names, depth, rng))
                .collect(),
        }
    }

    fn random_text_predicate<R: Rng>(names: &[&str], depth: usize, rng: &mut R) -> Predicate {
        let path = random_text_relpath(names, depth, rng);
        match rng.gen_range(0..4) {
            0 => {
                // Escapable characters keep the printer's string escaping honest.
                let value = match rng.gen_range(0..4) {
                    0 => "a \"quoted\" value".to_string(),
                    1 => "back\\slash".to_string(),
                    _ => random_value(rng),
                };
                Predicate::ValueEq(path, value)
            }
            1 => Predicate::AtLeast(rng.gen_range(0..=3), path),
            _ => Predicate::Exists(path),
        }
    }

    #[test]
    fn random_documents_conform_to_schema() {
        let a = Alphabet::new();
        let schema = Schema::parse(
            &a,
            "root: list\nlist: item*\nitem: @id name value?\nname: #text\nvalue: #text\n",
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for breadth in [0, 2, 8] {
            let doc = random_document(&schema, breadth, &mut rng);
            assert!(doc.check_well_formed().is_ok());
            schema.validate(&doc).unwrap();
        }
    }

    #[test]
    fn random_documents_conform_to_exam_schema() {
        let a = regtree_gen::exam_alphabet();
        let schema = regtree_gen::exam_schema(&a);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..5 {
            let doc = random_document(&schema, 4, &mut rng);
            schema.validate(&doc).unwrap();
        }
    }

    #[test]
    fn random_regexes_are_usable() {
        let a = Alphabet::with_labels(["x", "y", "z"]);
        let labels: Vec<Symbol> = ["x", "y", "z"].iter().map(|l| a.intern(l)).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        for size in [1, 3, 8] {
            let r = random_proper_regex(&labels, size, &mut rng);
            assert!(r.is_proper(), "{r:?}");
        }
    }

    #[test]
    fn random_patterns_evaluate() {
        let a = Alphabet::with_labels(["x", "y", "z"]);
        let labels: Vec<Symbol> = ["x", "y", "z"].iter().map(|l| a.intern(l)).collect();
        let mut rng = SmallRng::seed_from_u64(4);
        let schema = Schema::parse(&a, "root: x*\nx: (y|z)*\ny: z?\nz: EMPTY\n").unwrap();
        for _ in 0..10 {
            let p = random_pattern(&a, &labels, 3, &mut rng);
            let doc = random_document(&schema, 4, &mut rng);
            let _ = p.evaluate(&doc); // must not panic
        }
    }

    #[test]
    fn random_text_asts_round_trip_and_compile() {
        use regtree_pattern::lang::{parse_fd_expr, parse_pattern};
        let names = ["a", "b", "c", "d"];
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let p = random_text_pattern(&names, 2, &mut rng);
            let text = p.to_text();
            assert_eq!(parse_pattern(&text).expect(&text), p, "{text}");
            let a = Alphabet::new();
            p.compile(&a).expect(&text);

            let fd = random_fd_expr(&names, 2, &mut rng);
            let text = fd.to_text();
            assert_eq!(parse_fd_expr(&text).expect(&text), fd, "{text}");
        }
    }

    #[test]
    fn random_specs_are_well_formed() {
        let a = Alphabet::with_labels(["x", "y"]);
        let labels: Vec<Symbol> = ["x", "y"].iter().map(|l| a.intern(l)).collect();
        let mut rng = SmallRng::seed_from_u64(6);
        for size in [1, 4, 16] {
            let spec = random_spec(&a, &labels, size, &mut rng);
            assert!(spec.check(&a).is_ok());
        }
    }
}
