//! End-to-end checks of the shipped fixtures through the library API (the
//! CLI's own argument handling is unit-tested in `regtree-cli`).

use regtree::prelude::*;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("fixture readable")
}

#[test]
fn fixture_schema_parses_and_validates_fixture_document() {
    let a = Alphabet::new();
    let schema = Schema::parse(&a, &fixture("exam.rts")).expect("schema parses");
    let doc = parse_document(&a, &fixture("session.xml")).expect("document parses");
    schema
        .validate(&doc)
        .expect("fixture document is schema-valid");
}

#[test]
fn fixture_document_matches_generated_figure1() {
    // The XML fixture and the programmatic Figure 1 builder agree
    // value-for-value.
    let a = regtree_gen::exam_alphabet();
    let from_xml = parse_document(&a, &fixture("session.xml")).expect("parses");
    let generated = regtree_gen::figure1_document(&a);
    assert!(value_eq(
        &from_xml,
        from_xml.root(),
        &generated,
        generated.root()
    ));
}

#[test]
fn fixture_readme_commands_work_via_api() {
    let a = Alphabet::new();
    let doc = parse_document(&a, &fixture("session.xml")).expect("parses");
    // fd-check command line.
    let fd = parse_fd(
        &a,
        "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
    )
    .expect("parses");
    assert!(satisfies(&fd, &doc));
    // eval command lines. Branch order must follow document order
    // (Definition 2): `level` precedes `toBePassed` under a candidate, so
    // the still-has-exams filter is written after the level test.
    let pattern =
        CompiledPattern::from_text(&a, "/session/candidate[level and toBePassed]").expect("parses");
    assert_eq!(pattern.evaluate(&doc).len(), 1);
    let levels = CompiledPattern::from_text(&a, "/session/candidate/level").expect("parses");
    assert_eq!(levels.evaluate(&doc).len(), 2);
    // The naive transliteration `candidate[toBePassed]/level` selects
    // nothing on this layout — the order caveat documented in
    // `docs/PATTERN_LANGUAGE.md`.
    let wrong_order =
        CompiledPattern::from_text(&a, "/session/candidate[toBePassed]/level").expect("parses");
    assert_eq!(wrong_order.evaluate(&doc).len(), 0);
    // independence command line.
    let fd2 = parse_fd(
        &a,
        "/session : candidate/exam/discipline -> candidate/exam/rank",
    )
    .expect("parses");
    let class = parse_update_class(&a, "/session/candidate/level").expect("leaf");
    let schema = Schema::parse(&a, &fixture("exam.rts")).expect("parses");
    let analyzer = Analyzer::builder().schema(schema).build();
    assert!(analyzer.independence(&fd2, &class).verdict.is_independent());
}
