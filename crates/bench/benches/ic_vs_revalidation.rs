//! E10 — the study the paper's conclusion asks for: “estimate how much
//! time it saves to launch the independence criterion instead of verifying
//! the functional dependency again.”
//!
//! Three maintenance strategies for `fd1` under a stream of level updates
//! (a class the criterion proves independent):
//!
//! * `revalidate_full`  — apply on a copy + full re-verification
//!   ([`check_fd`]), per document size;
//! * `incremental`      — delta-scoped [`IncrementalChecker`] recheck over a
//!   [`VersionedDocument`], per document size;
//! * `criterion_once`   — the IC, **independent of any document**.
//!
//! The expected shape: the first two grow with the document, the criterion
//! is flat — so a crossover exists past which the criterion wins for every
//! further update.
// Each iteration runs on a fresh `Analyzer` (`regtree_bench::fresh_*`):
// the automata are recompiled every call, which is the cost these timings
// have always measured. Reusing one cached `Analyzer` across iterations
// would change the workload and invalidate the committed baselines.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regtree_bench::{
    fd_with_conditions, fresh_independence, fresh_matrix, session, update_chain, CANDIDATE_COUNTS,
};
use regtree_core::{check_fd, Analyzer, IncrementalChecker, Update, UpdateOp};
use regtree_oracle::check_independence_eager;
use regtree_xml::VersionedDocument;

fn bench_strategies(c: &mut Criterion) {
    let a = regtree_gen::exam_alphabet();
    let fd1 = regtree_gen::fd1(&a);
    let schema = regtree_gen::exam_schema(&a);
    let class =
        regtree_core::parse_update_class(&a, "/session/candidate/level").expect("leaf parses");
    let update = Update::new(class.clone(), UpdateOp::SetText("E".into()));

    let mut group = c.benchmark_group("ic_vs_revalidation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    // The document-independent criterion (one point, not a curve).
    group.bench_function("criterion_once", |b| {
        b.iter(|| {
            let r = fresh_independence(&fd1, &class, Some(&schema));
            assert!(r.verdict.is_independent());
            r.total_states
        })
    });

    for &n in &CANDIDATE_COUNTS {
        let doc = session(&a, n);
        group.bench_with_input(BenchmarkId::new("revalidate_full", n), &doc, |b, d| {
            b.iter(|| check_fd(&fd1, &update.apply_cloned(d).expect("applies")).is_ok())
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &doc, |b, d| {
            // Seed once outside the timing loop (amortized across the
            // update stream), recheck inside. The level edit rewrites the
            // same values every time, so the state stays steady.
            let mut vdoc = VersionedDocument::new(d.clone());
            let mut checker = IncrementalChecker::new(vec![fd1.clone()], &vdoc);
            b.iter(|| {
                checker
                    .apply_and_recheck(&mut vdoc, &update)
                    .expect("applies")
                    .outcomes[0]
                    .is_satisfied()
            })
        });
    }
    group.finish();

    // Maintaining several FDs at once: one apply, parallel re-checks.
    let analyzer = Analyzer::builder().build();
    let fds = vec![
        regtree_gen::fd1(&a),
        regtree_gen::fd2(&a),
        regtree_gen::fd5(&a),
    ];
    let mut many = c.benchmark_group("ic_vs_revalidation_batch");
    many.sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for &n in &[200usize, 1000] {
        let doc = session(&a, n);
        many.bench_with_input(
            BenchmarkId::new("revalidate_3fds_sequential", n),
            &doc,
            |b, d| {
                b.iter(|| {
                    fds.iter()
                        .filter(|fd| {
                            check_fd(fd, &update.apply_cloned(d).expect("applies")).is_ok()
                        })
                        .count()
                })
            },
        );
        many.bench_with_input(
            BenchmarkId::new("revalidate_3fds_parallel", n),
            &doc,
            |b, d| {
                b.iter(|| {
                    let after = update.apply_cloned(d).expect("applies");
                    analyzer
                        .check_fds(&fds, &after)
                        .outcomes
                        .iter()
                        .filter(|o| o.is_satisfied())
                        .count()
                })
            },
        );
    }
    many.finish();

    // The scheduling-table deployment: a whole FD-set × class-set matrix.
    // The matrix shares schema/pattern compilation and the guard
    // partition across cells and runs them on worker threads; the eager
    // baseline pays the full per-cell pipeline.
    let fds: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&k| fd_with_conditions(&a, k))
        .collect();
    let classes: Vec<_> = [1usize, 3, 6]
        .iter()
        .map(|&d| update_chain(&a, d))
        .collect();
    let fd_refs: Vec<(&str, &regtree_core::Fd)> = fds.iter().map(|fd| ("fd", fd)).collect();
    let class_refs: Vec<(&str, &regtree_core::UpdateClass)> =
        classes.iter().map(|c| ("class", c)).collect();
    let mut matrix = c.benchmark_group("independence_matrix");
    matrix
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    matrix.bench_function("matrix_3x3_lazy_shared", |b| {
        b.iter(|| fresh_matrix(&fd_refs, &class_refs, Some(&schema)).independent_count())
    });
    matrix.bench_function("matrix_3x3_eager_cells", |b| {
        b.iter(|| {
            fds.iter()
                .flat_map(|fd| classes.iter().map(move |class| (fd, class)))
                .filter(|(fd, class)| {
                    check_independence_eager(fd, class, Some(&schema)).is_independent()
                })
                .count()
        })
    });
    matrix.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
