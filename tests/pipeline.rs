//! Cross-crate pipelines: XML text → documents → schemas → CoreXPath update
//! classes → the independence criterion → executable updates, exercising the
//! public API exactly as a downstream user would.

use rand::SeedableRng;
use regtree::prelude::*;
use regtree_xml::VersionedDocument;

const SCHEMA: &str = "\
root: inventory
inventory: warehouse*
warehouse: @site pallet*
pallet: @id product qty note?
product: #text
qty: #text
note: #text
";

fn doc_src(pallets: &[(&str, &str, &str)]) -> String {
    let body: String = pallets
        .iter()
        .map(|(id, product, qty)| {
            format!("<pallet id=\"{id}\"><product>{product}</product><qty>{qty}</qty></pallet>")
        })
        .collect();
    format!("<inventory><warehouse site=\"W1\">{body}</warehouse></inventory>")
}

#[test]
fn full_pipeline_from_text_to_verdicts() {
    let a = Alphabet::new();
    let schema = Schema::parse(&a, SCHEMA).expect("schema parses");
    let doc = parse_document(
        &a,
        &doc_src(&[
            ("p1", "widget", "5"),
            ("p2", "widget", "5"),
            ("p3", "gadget", "9"),
        ]),
    )
    .expect("doc parses");
    schema.validate(&doc).expect("valid");

    // FD from the path formalism: same product ⇒ same qty per warehouse.
    let fd = parse_fd(&a, "/inventory/warehouse : pallet/product -> pallet/qty").expect("parses");
    assert!(satisfies(&fd, &doc));

    // Update classes from CoreXPath.
    let annotate = parse_update_class(&a, "/inventory/warehouse/pallet/note").expect("leaf");
    let requantify = parse_update_class(&a, "/inventory/warehouse/pallet/qty").expect("leaf");

    let analyzer = Analyzer::builder().schema(schema.clone()).build();
    assert!(analyzer
        .independence(&fd, &annotate)
        .verdict
        .is_independent());
    assert!(!analyzer
        .independence(&fd, &requantify)
        .verdict
        .is_independent());

    // Execute an annotate update: the FD survives, as promised.
    // (note? is optional in the schema but absent from the document, so the
    // class selects nothing — grow the document first.)
    let mut with_notes = doc.clone();
    let inventory = with_notes.children(with_notes.root())[0];
    let wh = with_notes.children(inventory)[0];
    let pallet = with_notes.children(wh)[1]; // after @site
    let insert_at = with_notes.children(pallet).len();
    regtree::xml::insert_child(
        &mut with_notes,
        pallet,
        insert_at,
        &TreeSpec::elem_named(&a, "note", vec![TreeSpec::text("fragile")]),
    )
    .expect("insert");
    schema.validate(&with_notes).expect("still valid");
    let update = Update::new(annotate, UpdateOp::SetText("checked".into()));
    let after = update.apply_cloned(&with_notes).expect("applies");
    assert!(satisfies(&fd, &after));

    // A requantify update *can* break it — witness by doing so.
    let skew = Update::new(requantify, UpdateOp::SetText("7".into()));
    let mut skewed = skew.apply_cloned(&doc).expect("applies");
    // All equal: still fine. Now nudge one qty only.
    assert!(satisfies(&fd, &skewed));
    let wh = skewed.children(skewed.root())[0];
    let first_qty = skewed
        .descendants(wh)
        .into_iter()
        .find(|&n| skewed.label_name(n).as_ref() == "qty")
        .expect("qty exists");
    let text = skewed.children(first_qty)[0];
    regtree::xml::set_value(&mut skewed, text, "8").expect("set");
    assert!(!satisfies(&fd, &skewed));
}

#[test]
fn witness_documents_guide_schema_refinement() {
    // A workflow the criterion enables: when the verdict is Unknown, the
    // witness shows the interaction; a tighter schema can rule it out.
    let a = Alphabet::new();
    let fd = parse_fd(&a, "/db : rec/key -> rec/val").expect("builds");
    // Updates touch 'scratch' nodes — but without a schema a 'scratch' node
    // could *contain* a whole rec/key/val region? No: scratch subtrees can
    // not be reached by the FD pattern through a scratch label… unless the
    // pattern allows it. Use a wildcard-ish FD to create the interaction:
    let loose_fd = {
        let mut t = Template::new(a.clone());
        let c = t.add_child_str(t.root(), "db").expect("proper");
        let k = t.add_child_str(c, "_*/key").expect("proper");
        let v = t.add_child_str(c, "_*/val").expect("proper");
        let p = RegularTreePattern::new(t, vec![k, v]).expect("valid");
        regtree::core::fd::Fd::with_default_equality(p, c).expect("fd")
    };
    let class = parse_update_class(&a, "/db/scratch").expect("leaf");

    // The loose FD can reach keys *inside* scratch areas: Unknown.
    let unschemad = Analyzer::builder().build();
    let loose = unschemad.independence(&loose_fd, &class);
    assert!(!loose.verdict.is_independent());
    if let Verdict::Unknown {
        witness: Some(w), ..
    } = &loose.verdict
    {
        assert!(regtree_oracle::in_language_naive(&loose_fd, &class, w));
    }

    // A schema confining keys/vals to recs restores independence.
    let schema = Schema::parse(
        &a,
        "root: db\ndb: rec* scratch*\nrec: key val\nkey: #text\nval: #text\nscratch: pad*\npad: EMPTY\n",
    )
    .expect("parses");
    let tight = Analyzer::builder()
        .schema(schema)
        .build()
        .independence(&loose_fd, &class);
    assert!(tight.verdict.is_independent());

    // The strict (path-shaped) FD never interacted in the first place.
    assert!(unschemad.independence(&fd, &class).verdict.is_independent());
}

#[test]
fn randomized_cross_engine_agreement_on_schema_docs() {
    // Random schema-valid documents: the compiled pattern automata agree
    // with the evaluator, and satisfaction is stable under serialization.
    let a = Alphabet::new();
    let schema = Schema::parse(&a, SCHEMA).expect("parses");
    let fd = parse_fd(&a, "/inventory/warehouse : pallet/product -> pallet/qty").expect("parses");
    let mut rng = rand::rngs::SmallRng::seed_from_u64(31337);
    for _ in 0..12 {
        let doc = regtree_oracle::random_document(&schema, 5, &mut rng);
        schema.validate(&doc).expect("generator respects schema");
        // Automaton ≡ evaluator on the FD pattern.
        let auto = compile_pattern(fd.pattern(), false);
        let has = !fd.pattern().mappings(&doc).is_empty();
        assert_eq!(regtree_oracle::accepts(&auto.automaton, &doc), has);
        // Serialization round trip preserves satisfaction.
        let xml = to_xml(&doc);
        let back = parse_document(&a, &xml).expect("reparses");
        assert_eq!(satisfies(&fd, &doc), satisfies(&fd, &back));
    }
}

#[test]
fn update_stream_with_incremental_checker() {
    let a = Alphabet::new();
    let schema = Schema::parse(&a, SCHEMA).expect("parses");
    let doc = parse_document(
        &a,
        &doc_src(&[("p1", "widget", "5"), ("p2", "widget", "5")]),
    )
    .expect("parses");
    let fd = parse_fd(&a, "/inventory/warehouse : pallet/product -> pallet/qty").expect("parses");
    let mut vdoc = VersionedDocument::new(doc);
    let mut checker = IncrementalChecker::new(vec![fd], &vdoc);
    assert!(checker.all_satisfied());

    // A stream of qty rewrites that keep values uniform: stays satisfied.
    for v in ["6", "7", "8"] {
        let class = parse_update_class(&a, "/inventory/warehouse/pallet/qty").expect("leaf");
        let update = Update::new(class, UpdateOp::SetText(v.into()));
        let report = checker
            .apply_and_recheck(&mut vdoc, &update)
            .expect("applies");
        assert!(report.outcomes[0].is_satisfied());
    }
    schema.validate(vdoc.doc()).expect("still valid");
    assert!(to_xml(vdoc.doc()).contains("<qty>8</qty>"));
}
