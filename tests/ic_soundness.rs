//! E8 (DESIGN.md): Proposition 2 — soundness of the independence criterion,
//! attacked randomly from two sides:
//!
//! 1. **Automaton correctness**: the IC product automaton recognizes exactly
//!    the language `L` of Definition 6 — cross-checked against a direct
//!    (mapping-enumeration) implementation on random documents;
//! 2. **End-to-end soundness**: whenever the criterion answers
//!    `Independent`, no random label-preserving update of the class ever
//!    breaks the FD on random documents.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use regtree::prelude::*;
use regtree_oracle::{accepts, build_ic_automaton, in_language_naive, witness_document};

const LABELS: [&str; 3] = ["a", "b", "c"];

fn random_doc(a: &Alphabet, rng: &mut SmallRng, budget: usize) -> Document {
    fn spec(a: &Alphabet, rng: &mut SmallRng, budget: usize, depth: usize) -> TreeSpec {
        let label = a.intern(LABELS[rng.gen_range(0..LABELS.len())]);
        if depth > 4 || budget <= 1 || rng.gen_bool(0.3) {
            if rng.gen_bool(0.2) {
                return TreeSpec::text("v");
            }
            return TreeSpec::elem(label, vec![]);
        }
        let n = rng.gen_range(1..=3usize);
        let children = (0..n)
            .map(|_| spec(a, rng, budget / n, depth + 1))
            .collect();
        TreeSpec::elem(label, children)
    }
    let tops = rng.gen_range(1..=2usize);
    let specs: Vec<TreeSpec> = (0..tops).map(|_| spec(a, rng, budget, 0)).collect();
    regtree::xml::document_from_specs(a.clone(), &specs)
}

/// A random structural mutation (keeps well-formedness, may move the
/// document into or out of `L`).
fn mutate(a: &Alphabet, doc: &mut Document, rng: &mut SmallRng) {
    let nodes: Vec<NodeId> = doc.all_nodes();
    let n = nodes[rng.gen_range(0..nodes.len())];
    let label = a.intern(LABELS[rng.gen_range(0..LABELS.len())]);
    match rng.gen_range(0..3) {
        0 if doc.kind(n) == LabelKind::Element => {
            let _ = regtree::xml::insert_child(doc, n, 0, &TreeSpec::elem(label, vec![]));
        }
        1 if n != doc.root() => {
            let _ = regtree::xml::delete_subtree(doc, n);
        }
        _ => {
            let root = doc.root();
            let len = doc.children(root).len();
            let _ = regtree::xml::insert_child(doc, root, len, &TreeSpec::elem(label, vec![]));
        }
    }
}

fn random_edge(rng: &mut SmallRng) -> String {
    let atoms = ["a", "b", "c", "a/b", "(a|b)", "_", "b/c"];
    atoms[rng.gen_range(0..atoms.len())].to_string()
}

/// A random FD over a small template (1–2 conditions).
fn random_fd(a: &Alphabet, rng: &mut SmallRng) -> Fd {
    let mut t = Template::new(a.clone());
    let ctx = t.add_child_str(t.root(), &random_edge(rng)).unwrap();
    let mut selected = Vec::new();
    let n_conditions = rng.gen_range(1..=2usize);
    for _ in 0..n_conditions {
        selected.push(t.add_child_str(ctx, &random_edge(rng)).unwrap());
    }
    selected.push(t.add_child_str(ctx, &random_edge(rng)).unwrap());
    let pattern = RegularTreePattern::new(t, selected).unwrap();
    Fd::with_default_equality(pattern, ctx).unwrap()
}

/// A random monadic update class with a leaf selection.
fn random_class(a: &Alphabet, rng: &mut SmallRng) -> UpdateClass {
    let mut t = Template::new(a.clone());
    let mut cur = t.root();
    let hops = rng.gen_range(1..=2usize);
    for _ in 0..hops {
        cur = t.add_child_str(cur, &random_edge(rng)).unwrap();
    }
    // Optionally a structural sibling branch before or after.
    if rng.gen_bool(0.4) {
        let parent = t.parent(cur).unwrap();
        let _ = t.add_child_str(parent, &random_edge(rng));
    }
    UpdateClass::new(RegularTreePattern::monadic(t, cur).unwrap()).unwrap()
}

#[test]
fn e8_automaton_recognizes_exactly_l() {
    let a = Alphabet::with_labels(LABELS);
    let mut rng = SmallRng::seed_from_u64(20100322);
    let mut in_l = 0usize;
    let mut out_l = 0usize;
    for round in 0..60 {
        let fd = random_fd(&a, &mut rng);
        let class = random_class(&a, &mut rng);
        let automaton = build_ic_automaton(&fd, &class);
        // Pure random documents rarely land in L; seed the battery with the
        // emptiness witness (a guaranteed member when L ≠ ∅) and random
        // mutations of it, plus fresh random documents.
        let mut docs: Vec<Document> = Vec::new();
        if let Some(w) = witness_document(&automaton, &a) {
            for _ in 0..3 {
                let mut m = w.clone();
                mutate(&a, &mut m, &mut rng);
                docs.push(m);
            }
            docs.push(w);
        }
        for _ in 0..4 {
            docs.push(random_doc(&a, &mut rng, 10));
        }
        for doc in docs {
            let direct = in_language_naive(&fd, &class, &doc);
            let by_automaton = accepts(&automaton, &doc);
            assert_eq!(
                by_automaton,
                direct,
                "round {round}: automaton disagrees with Definition 6 on\n{}",
                to_xml(&doc)
            );
            if direct {
                in_l += 1;
            } else {
                out_l += 1;
            }
        }
    }
    // The battery must exercise both outcomes to mean anything.
    assert!(in_l > 10, "too few positive cases ({in_l})");
    assert!(out_l > 10, "too few negative cases ({out_l})");
}

#[test]
fn e8_independent_verdicts_survive_random_updates() {
    let a = Alphabet::with_labels(LABELS);
    let mut rng = SmallRng::seed_from_u64(4242);
    let mut independents = 0usize;
    let mut checked_updates = 0usize;
    let analyzer = Analyzer::builder().build();
    for _ in 0..80 {
        let fd = random_fd(&a, &mut rng);
        let class = random_class(&a, &mut rng);
        if !analyzer.independence(&fd, &class).verdict.is_independent() {
            continue;
        }
        independents += 1;
        for _ in 0..8 {
            let doc = random_doc(&a, &mut rng, 12);
            if !satisfies(&fd, &doc) {
                continue;
            }
            // A random label-preserving update.
            let op = match rng.gen_range(0..4) {
                0 => UpdateOp::SetText("zz".into()),
                1 => UpdateOp::AppendChild(TreeSpec::elem(
                    a.intern(LABELS[rng.gen_range(0..LABELS.len())]),
                    vec![TreeSpec::text("new")],
                )),
                2 => UpdateOp::PrependChild(TreeSpec::elem(
                    a.intern(LABELS[rng.gen_range(0..LABELS.len())]),
                    vec![],
                )),
                _ => UpdateOp::Delete,
            };
            let update = Update::new(class.clone(), op);
            let after = update.apply_cloned(&doc).expect("applies");
            checked_updates += 1;
            assert!(
                satisfies(&fd, &after),
                "IC said independent, but an update broke the FD.\nbefore: {}\nafter: {}",
                to_xml(&doc),
                to_xml(&after)
            );
        }
    }
    assert!(
        independents >= 5,
        "battery produced {independents} independent pairs"
    );
    assert!(
        checked_updates >= 20,
        "only {checked_updates} updates exercised"
    );
}

#[test]
fn e8_unknown_witnesses_are_genuine_members_of_l() {
    let a = Alphabet::with_labels(LABELS);
    let mut rng = SmallRng::seed_from_u64(77);
    let mut witnesses = 0usize;
    let analyzer = Analyzer::builder().build();
    for _ in 0..40 {
        let fd = random_fd(&a, &mut rng);
        let class = random_class(&a, &mut rng);
        let analysis = analyzer.independence(&fd, &class);
        if let Verdict::Unknown {
            witness: Some(w), ..
        } = &analysis.verdict
        {
            witnesses += 1;
            assert!(
                in_language_naive(&fd, &class, w),
                "extracted witness is not in L:\n{}",
                to_xml(w)
            );
        }
    }
    assert!(witnesses >= 5, "only {witnesses} witnesses produced");
}

#[test]
fn e8_schema_product_respects_validity() {
    // With a schema, extracted witnesses must also be schema-valid.
    let a = Alphabet::with_labels(LABELS);
    let schema = Schema::parse(&a, "root: a+\na: (b|c)*\nb: c? #text?\nc: EMPTY\n").unwrap();
    let mut rng = SmallRng::seed_from_u64(123);
    let mut found = 0;
    let analyzer = Analyzer::builder().schema(schema.clone()).build();
    for _ in 0..120 {
        let fd = random_fd(&a, &mut rng);
        let class = random_class(&a, &mut rng);
        let analysis = analyzer.independence(&fd, &class);
        if let Verdict::Unknown {
            witness: Some(w), ..
        } = &analysis.verdict
        {
            found += 1;
            assert!(schema.validate(w).is_ok(), "witness not schema-valid");
            assert!(in_language_naive(&fd, &class, w), "witness not in L");
        }
    }
    assert!(found >= 3, "only {found} schema-constrained witnesses");
}

#[test]
fn analyzer_built_before_the_fd_sees_its_labels() {
    // The analyzer exists before `@k` and `@v` are interned. `i: _*`
    // admits every attribute label, including ones interned later, so the
    // schema automaton the criterion runs on must cover them too.
    let a = Alphabet::new();
    let schema = Schema::parse(&a, "root: s\ns: i*\ni: _*\n").unwrap();
    let analyzer = Analyzer::builder().schema(schema.clone()).build();
    let fd = parse_fd(&a, "/s : i/@k -> i/@v").unwrap();
    let class = parse_update_class(&a, "/s/i/@v").unwrap();

    let analysis = analyzer.independence(&fd, &class);
    assert!(!analysis.verdict.is_independent(), "{analysis:?}");
    let matrix = analyzer.matrix(&[("kv", &fd)], &[("v", &class)]);
    assert!(!matrix.independent(0, 0), "{matrix}");

    // The witness by construction: a valid document that satisfies the FD,
    // and a first-only rewrite of the class that keeps it valid and breaks
    // the FD.
    let doc = parse_document(&a, r#"<s><i k="1" v="1"/><i k="1" v="1"/></s>"#).unwrap();
    schema.validate(&doc).unwrap();
    check_fd(&fd, &doc).unwrap();
    let update = Update::new(
        class,
        UpdateOp::FirstOnly(Box::new(UpdateOp::SetText("2".into()))),
    );
    let after = update.apply_cloned(&doc).unwrap();
    schema.validate(&after).unwrap();
    assert!(check_fd(&fd, &after).is_err(), "{}", to_xml(&after));
}

#[test]
fn validation_covers_labels_interned_after_the_schema() {
    // Every label below is interned after the schema is parsed: `i: _*`
    // admits attributes the schema never names, and an undeclared element
    // under `i` is still caught where it occurs.
    let a = Alphabet::new();
    let schema = Schema::parse(&a, "root: s\ns: i*\ni: _*\n").unwrap();
    let unrelated: String = (0..2_000).map(|n| format!(r#" x{n}="1""#)).collect();
    let crowded = parse_document(&a, &format!("<s><i{unrelated}/></s>")).unwrap();
    schema.validate(&crowded).unwrap();

    let kv = parse_document(&a, r#"<s><i k="1" v="1"/></s>"#).unwrap();
    schema.validate(&kv).unwrap();
    let ghost = parse_document(&a, "<s><i><ghost/></i></s>").unwrap();
    let err = schema.validate(&ghost).unwrap_err();
    assert_eq!(
        (err.position.as_str(), err.label.as_str()),
        ("0.0.0", "ghost")
    );
}
