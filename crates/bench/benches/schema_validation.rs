//! Substrate bench: schema validation on growing documents, two ways —
//! `hedge_run` runs the compiled `A_S` bottom-up (the oracle's membership
//! test), `validate_diagnostics` is `Schema::validate`, which reads the
//! content models directly and names the failing node.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use regtree_bench::{session, CANDIDATE_COUNTS};

fn bench_validation(c: &mut Criterion) {
    let a = regtree_gen::exam_alphabet();
    let schema = regtree_gen::exam_schema(&a);
    let automaton = schema.compile();

    let mut group = c.benchmark_group("schema_validation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for &n in &CANDIDATE_COUNTS {
        let doc = session(&a, n);
        group.throughput(Throughput::Elements(doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("hedge_run", n), &doc, |b, d| {
            b.iter(|| assert!(regtree_oracle::accepts(&automaton, d)))
        });
        group.bench_with_input(BenchmarkId::new("validate_diagnostics", n), &doc, |b, d| {
            b.iter(|| schema.validate(d).is_ok())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_validation);
criterion_main!(benches);
