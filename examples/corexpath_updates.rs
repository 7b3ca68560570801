//! The paper's closing remark: “our results can thus be applied when the
//! classes of updates are specified with positive queries of CoreXPath.”
//!
//! This example declares update classes as positive CoreXPath expressions,
//! which the pattern language parses into regular tree patterns
//! ([`parse_update_class`]), and runs the independence criterion against a
//! library-catalog FD.
//!
//! ```sh
//! cargo run --example corexpath_updates
//! ```

use regtree::prelude::*;

fn main() {
    let a = Alphabet::new();

    // Library catalog: within a library, two copies of the same ISBN are
    // shelved in the same section.
    let fd = parse_fd(&a, "/library : shelf/book/isbn -> shelf/book/section").expect("fd builds");

    let schema = Schema::parse(
        &a,
        "root: library\n\
         library: shelf*\n\
         shelf: book* inventory?\n\
         book: isbn section loan?\n\
         isbn: #text\n\
         section: #text\n\
         loan: @due\n\
         inventory: @counted\n",
    )
    .expect("schema parses");

    let updates = [
        // Circulation: loans come and go.
        "/library/shelf/book/loan",
        // Stock taking: inventory stamps per shelf.
        "/library/shelf/inventory",
        // Only books that are currently on loan get their loan slot touched.
        "/library/shelf/book[loan]/loan",
        // Re-shelving: the section label itself is rewritten.
        "/library/shelf/book/section",
        // Whole-book replacement.
        "/library/shelf/book",
    ];

    println!("FD: same isbn ⇒ same section (per library)\n");
    let analyzer = Analyzer::builder().schema(schema).build();
    for xpath in updates {
        let class = match parse_update_class(&a, xpath) {
            Ok(c) => c,
            Err(e) => {
                println!("{xpath:<44} not a valid update class: {e}");
                continue;
            }
        };
        let analysis = analyzer.independence(&fd, &class);
        println!(
            "{xpath:<44} {}",
            if analysis.verdict.is_independent() {
                "INDEPENDENT — apply freely, the FD cannot break"
            } else {
                "unknown — revalidate after applying"
            }
        );
    }

    // Sanity: loan updates really cannot break the FD.
    let doc = parse_document(
        &a,
        "<library><shelf>\
           <book><isbn>i1</isbn><section>A</section><loan due=\"week\"/></book>\
           <book><isbn>i1</isbn><section>A</section></book>\
         </shelf></library>",
    )
    .expect("well-formed");
    assert!(satisfies(&fd, &doc));
    let loans = parse_update_class(&a, "/library/shelf/book/loan").expect("leaf");
    let renew = Update::new(
        loans,
        UpdateOp::Replace(TreeSpec::elem_named(
            &a,
            "loan",
            vec![TreeSpec::attr_named(&a, "@due", "month")],
        )),
    );
    let after = renew.apply_cloned(&doc).expect("applies");
    assert!(satisfies(&fd, &after));
    println!("\nconcrete loan renewal kept the FD, as guaranteed.");
}
