//! Section 3: regular tree patterns federate the path-based FD formalism
//! of [8] — and strictly extend it (Example 3).
//!
//! ```sh
//! cargo run --example path_fds
//! ```

use regtree::prelude::*;
use regtree_core::Inexpressibility;
use regtree_gen as gen;

fn main() {
    let a = gen::exam_alphabet();
    let doc = gen::figure1_document(&a);

    // The paper's expr1 / expr2 in the [8] concrete syntax:
    let expr1 = "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank";
    let expr2 = "/session/candidate : exam/@date, exam/discipline -> exam[N]";

    println!("— expr1 (the paper's fd1) —");
    let fd1 = parse_fd(&a, expr1).expect("parses");
    println!("template shape:\n{}", fd1.template().sketch());
    println!("holds on Figure 1: {}", satisfies(&fd1, &doc));

    println!("— expr2 (the paper's fd2, node-equality target) —");
    let fd2 = parse_fd(&a, expr2).expect("parses");
    println!("template shape:\n{}", fd2.template().sketch());
    println!(
        "target is an internal node (prefix factorization): {}",
        !fd2.template().is_leaf(fd2.target())
    );
    println!("holds on Figure 1: {}", satisfies(&fd2, &doc));

    // Round trip: the trie construction yields patterns that pass the
    // [8]-expressibility check.
    assert!(expressible_in_path_formalism(&fd1).is_ok());
    assert!(expressible_in_path_formalism(&fd2).is_ok());

    // Example 3: fd3 and fd4 are beyond [8].
    println!("\n— Example 3: beyond the path formalism —");
    let fd3 = gen::fd3(&a);
    match expressible_in_path_formalism(&fd3) {
        Err(Inexpressibility::SiblingCommonPrefix(x, y)) => println!(
            "fd3 inexpressible in [8]: sibling edges n{} and n{} share the prefix 'exam' \
             (the trie construction would merge them)",
            x.0, y.0
        ),
        other => panic!("unexpected: {other:?}"),
    }
    let fd4 = gen::fd4(&a);
    match expressible_in_path_formalism(&fd4) {
        Err(Inexpressibility::UnselectedLeaf(n)) => println!(
            "fd4 inexpressible in [8]: leaf n{} (toBePassed) is neither condition nor target",
            n.0
        ),
        other => panic!("unexpected: {other:?}"),
    }

    // Both still work perfectly well as regular tree patterns:
    println!("\nfd3 holds on Figure 1: {}", satisfies(&fd3, &doc));
    println!("fd4 holds on Figure 1: {}", satisfies(&fd4, &doc));

    // A violating document for fd3 — two candidates with the same two marks
    // but different levels:
    let bad = parse_document(
        &a,
        "<session>\
         <candidate IDN=\"1\">\
           <exam date=\"a\"><discipline>m</discipline><mark>10</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>12</mark><rank>2</rank></exam>\
           <level>C</level><firstJob-Year>2010</firstJob-Year>\
         </candidate>\
         <candidate IDN=\"2\">\
           <exam date=\"a\"><discipline>m</discipline><mark>10</mark><rank>1</rank></exam>\
           <exam date=\"b\"><discipline>p</discipline><mark>12</mark><rank>2</rank></exam>\
           <level>B</level><firstJob-Year>2011</firstJob-Year>\
         </candidate>\
         </session>",
    )
    .expect("well-formed");
    match check_fd(&fd3, &bad) {
        Err(v) => println!("\nfd3 violation detected: {}", v.describe(&bad)),
        Ok(()) => panic!("expected a violation"),
    }
}
