//! The experimental study the paper's conclusion calls for: “estimate how
//! much time it saves to launch the independence criterion instead of
//! verifying the functional dependency again.”
//!
//! A stream of updates arrives against exam-session documents of growing
//! size. Three strategies keep the FD guaranteed:
//!
//! 1. **revalidate** — apply the update, re-verify the FD on the whole
//!    document ([14]-style, needs the document);
//! 2. **incremental** — an [`IncrementalChecker`] rechecks only the FD
//!    contexts the update's delta can reach (needs the document + stored
//!    state);
//! 3. **criterion** — run the IC once per update *class*; independent
//!    classes never trigger any document work at all.
//!
//! ```sh
//! cargo run --release --example incremental_validation
//! ```

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regtree::prelude::*;
use regtree_gen as gen;
use regtree_xml::VersionedDocument;

fn main() {
    let a = gen::exam_alphabet();
    let fd1 = gen::fd1(&a);
    let schema = gen::exam_schema(&a);
    let mut rng = SmallRng::seed_from_u64(42);

    // The update class: rewrite candidate levels (independent of fd1, which
    // only concerns discipline/mark/rank).
    let class = parse_update_class(&a, "/session/candidate/level").expect("leaf");
    let update = Update::new(class.clone(), UpdateOp::SetText("E".into()));

    // Strategy 3 pays this once, independent of every document:
    let t = Instant::now();
    let analyzer = Analyzer::builder().schema(schema).build();
    let analysis = analyzer.independence(&fd1, &class);
    let ic_time = t.elapsed();
    println!(
        "independence criterion: verdict = {}, one-off cost = {:.3?} (automaton size {})",
        if analysis.verdict.is_independent() {
            "INDEPENDENT"
        } else {
            "unknown"
        },
        ic_time,
        analysis.total_states,
    );
    assert!(analysis.verdict.is_independent());

    println!();
    println!(
        "{:>12} {:>10} {:>16} {:>16} {:>16}",
        "candidates", "nodes", "revalidate", "incremental", "criterion"
    );
    for &n_candidates in &[10usize, 100, 1_000, 10_000] {
        let doc = gen::generate_session(&a, n_candidates, 3, &mut rng);
        let nodes = doc.len();

        // 1. Full revalidation per update: apply on a copy, check it all.
        let t = Instant::now();
        let result = check_fd(&fd1, &update.apply_cloned(&doc).expect("applies"));
        let revalidate_time = t.elapsed();
        assert!(result.is_ok(), "level updates cannot break fd1");

        // 2. Incremental checker (amortized: seed once, then recheck).
        let mut vdoc = VersionedDocument::new(doc);
        let mut checker = IncrementalChecker::new(vec![fd1.clone()], &vdoc);
        let t = Instant::now();
        let report = checker
            .apply_and_recheck(&mut vdoc, &update)
            .expect("applies");
        let incremental_time = t.elapsed();
        assert!(report.outcomes[0].is_satisfied());

        // 3. The criterion already answered for the whole class: per update
        //    and per document the cost is zero (shown as the one-off cost
        //    amortized to a single class-level check).
        println!(
            "{:>12} {:>10} {:>16.3?} {:>16.3?} {:>16}",
            n_candidates, nodes, revalidate_time, incremental_time, "0 (class-level)"
        );
    }

    println!(
        "\nThe criterion's cost is constant in the document size; full revalidation \
         grows with the document — exactly the saving the paper anticipates."
    );
}
