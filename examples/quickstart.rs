//! Quickstart: declare an FD and an update class, check documents, run the
//! independence criterion.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use regtree::prelude::*;

fn main() {
    // One shared label alphabet for everything.
    let alphabet = Alphabet::new();

    // A product catalog: within a catalog, two items with the same sku have
    // the same price.
    let fd = parse_fd(&alphabet, "/catalog : item/sku -> item/price").expect("fd builds");

    let doc = parse_document(
        &alphabet,
        "<catalog>\
           <item><sku>A-1</sku><price>10</price><stock>4</stock></item>\
           <item><sku>B-2</sku><price>15</price><stock>0</stock></item>\
           <item><sku>A-1</sku><price>10</price><stock>9</stock></item>\
         </catalog>",
    )
    .expect("well-formed XML");

    match check_fd(&fd, &doc) {
        Ok(()) => println!("catalog satisfies the FD (same sku ⇒ same price)"),
        Err(v) => println!("violated: {}", v.describe(&doc)),
    }

    // An update class: restocking touches only <stock> leaves.
    let class = parse_update_class(&alphabet, "/catalog/item/stock")
        .expect("parses, and the selected node is a leaf");

    // One Analyzer serves every analysis: it caches compiled automata and
    // (optionally) governs runs with budgets — see `RunLimits`.
    let analyzer = Analyzer::builder().build();

    // The independence criterion: can ANY restocking update, on ANY
    // document, break the FD? (No document needed for the analysis.)
    let analysis = analyzer.independence(&fd, &class);
    match &analysis.verdict {
        Verdict::Independent => {
            println!("restocking is provably independent of the price FD");
        }
        Verdict::Unknown {
            witness, exhausted, ..
        } => {
            println!("criterion inconclusive");
            if let Some(r) = exhausted {
                println!("(run stopped early: {r})");
            }
            if let Some(w) = witness {
                println!("interaction witness:\n{}", to_xml(w));
            }
        }
        _ => unreachable!("future verdicts"),
    }
    println!(
        "work done: {} product states interned, {} frontier pushes",
        analysis.metrics.states_interned, analysis.metrics.frontier_pushes
    );

    // A price-rewriting class is *not* provably independent.
    let class2 = parse_update_class(&alphabet, "/catalog/item/price").expect("leaf");
    let analysis2 = analyzer.independence(&fd, &class2);
    println!(
        "repricing independent? {}",
        analysis2.verdict.is_independent()
    );

    // And indeed a lopsided concrete repricing breaks the FD on our document:
    let mut broken = doc.clone();
    let targets = class2.selected_nodes(&broken);
    let first_price_text = broken.children(targets[0])[0];
    regtree::xml::set_value(&mut broken, first_price_text, "999").expect("price has a text child");
    match check_fd(&fd, &broken) {
        Ok(()) => println!("still satisfied"),
        Err(v) => println!("after a lopsided reprice: {}", v.describe(&broken)),
    }

    // Updates can also be executed through the library:
    let restock_all = Update::new(class, UpdateOp::SetText("100".into()));
    let restocked = restock_all.apply_cloned(&doc).expect("applies");
    println!(
        "restocked catalog still satisfies the FD: {}",
        satisfies(&fd, &restocked)
    );
}
