//! E4–E5 (DESIGN.md): Figures 4–5 — the functional dependencies of the
//! paper, the [8] path formalism (expr1/expr2) and the Example 3
//! inexpressibility results.

use regtree::prelude::*;
use regtree_core::Inexpressibility;
use regtree_gen as gen;

#[test]
fn e4_fds_hold_on_figure1() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);
    for (name, fd) in [
        ("fd1", gen::fd1(&a)),
        ("fd2", gen::fd2(&a)),
        ("fd3", gen::fd3(&a)),
        ("fd4", gen::fd4(&a)),
        ("fd5", gen::fd5(&a)),
    ] {
        assert!(satisfies(&fd, &doc), "{name} holds on Figure 1");
    }
}

#[test]
fn e4_fd1_example1_semantics() {
    // fd1: two exams of one session with same discipline and mark share the
    // same rank — including across candidates.
    let a = gen::exam_alphabet();
    let fd1 = gen::fd1(&a);
    let violating = parse_document(
        &a,
        "<session>\
         <candidate IDN=\"1\"><exam date=\"a\"><discipline>math</discipline><mark>15</mark><rank>2</rank></exam>\
         <level>B</level><firstJob-Year>2010</firstJob-Year></candidate>\
         <candidate IDN=\"2\"><exam date=\"b\"><discipline>math</discipline><mark>15</mark><rank>7</rank></exam>\
         <level>B</level><firstJob-Year>2011</firstJob-Year></candidate>\
         </session>",
    )
    .unwrap();
    let v = check_fd(&fd1, &violating).unwrap_err();
    assert_ne!(v.target_a, v.target_b);
    // Same data split across two *sessions* is fine (context isolation).
    let two_sessions = parse_document(
        &a,
        "<session>\
         <candidate IDN=\"1\"><exam date=\"a\"><discipline>math</discipline><mark>15</mark><rank>2</rank></exam>\
         <level>B</level><firstJob-Year>2010</firstJob-Year></candidate>\
         </session>\
         <session>\
         <candidate IDN=\"2\"><exam date=\"b\"><discipline>math</discipline><mark>15</mark><rank>7</rank></exam>\
         <level>B</level><firstJob-Year>2011</firstJob-Year></candidate>\
         </session>",
    )
    .unwrap();
    assert!(satisfies(&fd1, &two_sessions));
}

#[test]
fn e4_fd2_example2_semantics() {
    // fd2: a candidate cannot take, at the same date, two different exams of
    // the same discipline (node-equality target).
    let a = gen::exam_alphabet();
    let fd2 = gen::fd2(&a);
    let bad = parse_document(
        &a,
        "<session><candidate IDN=\"1\">\
         <exam date=\"d1\"><discipline>math</discipline><mark>1</mark><rank>1</rank></exam>\
         <exam date=\"d1\"><discipline>math</discipline><mark>2</mark><rank>2</rank></exam>\
         <level>E</level><toBePassed><discipline>math</discipline></toBePassed>\
         </candidate></session>",
    )
    .unwrap();
    assert!(!satisfies(&fd2, &bad));
    // Different dates: fine.
    let ok = parse_document(
        &a,
        "<session><candidate IDN=\"1\">\
         <exam date=\"d1\"><discipline>math</discipline><mark>1</mark><rank>1</rank></exam>\
         <exam date=\"d2\"><discipline>math</discipline><mark>2</mark><rank>2</rank></exam>\
         <level>E</level><toBePassed><discipline>math</discipline></toBePassed>\
         </candidate></session>",
    )
    .unwrap();
    assert!(satisfies(&fd2, &ok));
}

#[test]
fn e4_expr1_expr2_translate_to_figure4_patterns() {
    let a = gen::exam_alphabet();
    // expr1 → FD1: factorized trie with a shared candidate/exam node.
    let fd1 = parse_fd(
        &a,
        "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
    )
    .unwrap();
    assert_eq!(fd1.template().len(), 6, "root+context+shared+3 leaves");
    assert_eq!(fd1.conditions().len(), 2);
    // expr2 → FD2: the target exam node is internal, with [N] equality.
    let fd2 = parse_fd(
        &a,
        "/session/candidate : exam/@date, exam/discipline -> exam[N]",
    )
    .unwrap();
    assert!(!fd2.template().is_leaf(fd2.target()));
    assert_eq!(fd2.target_equality(), EqualityType::Node);

    // The translations agree with the generator's hand-built fd1/fd2 on a
    // battery of documents.
    let docs = [
        gen::figure1_document(&a),
        parse_document(&a, "<session/>").unwrap(),
    ];
    for doc in &docs {
        assert_eq!(
            satisfies(&fd1, doc),
            satisfies(&gen::fd1(&a), doc),
            "expr1 ≡ fd1"
        );
        assert_eq!(
            satisfies(&fd2, doc),
            satisfies(&gen::fd2(&a), doc),
            "expr2 ≡ fd2"
        );
    }
}

#[test]
fn e5_fd3_fd4_outside_the_path_formalism() {
    let a = gen::exam_alphabet();
    assert!(matches!(
        expressible_in_path_formalism(&gen::fd3(&a)),
        Err(Inexpressibility::SiblingCommonPrefix(..))
    ));
    assert!(matches!(
        expressible_in_path_formalism(&gen::fd4(&a)),
        Err(Inexpressibility::UnselectedLeaf(_))
    ));
    // While fd1/fd2 (built from paths) stay inside.
    assert!(expressible_in_path_formalism(&gen::fd1(&a)).is_ok());
    assert!(expressible_in_path_formalism(&gen::fd2(&a)).is_ok());
}

#[test]
fn e5_fd3_semantics() {
    let a = gen::exam_alphabet();
    let fd3 = gen::fd3(&a);
    // Equal mark pairs, different level → violation.
    let bad = parse_document(
        &a,
        "<session>\
         <candidate IDN=\"1\">\
           <exam date=\"a\"><discipline>m</discipline><mark>10</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>12</mark><rank>1</rank></exam>\
           <level>C</level><firstJob-Year>2010</firstJob-Year></candidate>\
         <candidate IDN=\"2\">\
           <exam date=\"a\"><discipline>m</discipline><mark>10</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>12</mark><rank>1</rank></exam>\
           <level>B</level><firstJob-Year>2011</firstJob-Year></candidate>\
         </session>",
    )
    .unwrap();
    assert!(!satisfies(&fd3, &bad));
}

#[test]
fn e5_fd4_restricts_to_tobepassed_candidates() {
    let a = gen::exam_alphabet();
    let fd4 = gen::fd4(&a);
    // Same marks, different levels — but only ONE candidate has toBePassed,
    // so fd4 (unlike fd3) is not violated.
    let doc = parse_document(
        &a,
        "<session>\
         <candidate IDN=\"1\">\
           <exam date=\"a\"><discipline>m</discipline><mark>8</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>8</mark><rank>1</rank></exam>\
           <level>C</level><toBePassed><discipline>m</discipline></toBePassed></candidate>\
         <candidate IDN=\"2\">\
           <exam date=\"a\"><discipline>m</discipline><mark>8</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>8</mark><rank>1</rank></exam>\
           <level>B</level><firstJob-Year>2010</firstJob-Year></candidate>\
         </session>",
    )
    .unwrap();
    assert!(!satisfies(&gen::fd3(&a), &doc), "fd3 sees the violation");
    assert!(
        satisfies(&fd4, &doc),
        "fd4 only relates candidates that still have exams to pass"
    );
}
