//! E2 — Figure 2: pattern evaluation (`R1`, `R2`) on exam sessions of
//! growing size, for both the mapping enumerator and the compiled
//! automaton (containment test, by the oracle's bottom-up run); plus the
//! DFA-vs-NFA engine comparison (cached edge determinization +
//! label-index pruning against the state-set baseline).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regtree_bench::{session, CANDIDATE_COUNTS};
use regtree_pattern::{compile_pattern, enumerate_mappings, enumerate_mappings_nfa, parallel_map};

fn bench_eval(c: &mut Criterion) {
    let a = regtree_gen::exam_alphabet();
    let r2 = regtree_gen::pattern_r2(&a);
    let r3 = regtree_gen::pattern_r3(&a);

    let mut group = c.benchmark_group("pattern_eval");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for &n in &CANDIDATE_COUNTS {
        let doc = session(&a, n);
        // R2 scales linearly (per-candidate pairs); R1's quadratic blowup is
        // benchmarked separately on smaller instances below.
        group.bench_with_input(BenchmarkId::new("R2_same_candidate", n), &doc, |b, d| {
            b.iter(|| regtree_gen::pattern_r2(&a).evaluate(d).len())
        });
        group.bench_with_input(BenchmarkId::new("R3_monadic", n), &doc, |b, d| {
            b.iter(|| r3.evaluate(d).len())
        });
        let auto = compile_pattern(&r2, false);
        group.bench_with_input(
            BenchmarkId::new("R2_automaton_contains", n),
            &doc,
            |b, d| b.iter(|| regtree_oracle::accepts(&auto.automaton, d)),
        );
    }
    group.finish();

    // Same enumeration, two engines: the production DFA engine (cached
    // edge determinization, label-index subtree pruning) against the NFA
    // state-set baseline it replaced.
    let mut engines = c.benchmark_group("pattern_eval_engines");
    engines
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for &n in &CANDIDATE_COUNTS {
        let doc = session(&a, n);
        engines.bench_with_input(BenchmarkId::new("R2_dfa_indexed", n), &doc, |b, d| {
            b.iter(|| enumerate_mappings(r2.template(), d).len())
        });
        engines.bench_with_input(BenchmarkId::new("R2_nfa_baseline", n), &doc, |b, d| {
            b.iter(|| enumerate_mappings_nfa(r2.template(), d).len())
        });
        engines.bench_with_input(BenchmarkId::new("R3_dfa_indexed", n), &doc, |b, d| {
            b.iter(|| enumerate_mappings(r3.template(), d).len())
        });
        engines.bench_with_input(BenchmarkId::new("R3_nfa_baseline", n), &doc, |b, d| {
            b.iter(|| enumerate_mappings_nfa(r3.template(), d).len())
        });
    }
    engines.finish();

    // Batch API: R2+R3 on four documents at once, scoped worker threads.
    let mut batch = c.benchmark_group("pattern_eval_batch");
    batch
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let patterns = [regtree_gen::pattern_r2(&a), regtree_gen::pattern_r3(&a)];
    let docs: Vec<_> = CANDIDATE_COUNTS.iter().map(|&n| session(&a, n)).collect();
    batch.bench_function("evaluate_many_2x4", |b| {
        b.iter(|| {
            parallel_map(&docs, |d| {
                patterns.iter().map(|p| p.evaluate(d)).collect::<Vec<_>>()
            })
            .len()
        })
    });
    batch.bench_function("evaluate_sequential_2x4", |b| {
        b.iter(|| {
            docs.iter()
                .map(|d| patterns.iter().map(|p| p.evaluate(d).len()).sum::<usize>())
                .sum::<usize>()
        })
    });
    batch.finish();

    let mut quad = c.benchmark_group("pattern_eval_quadratic");
    quad.sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for &n in &[5usize, 10, 20, 40] {
        let doc = session(&a, n);
        quad.bench_with_input(BenchmarkId::new("R1_cross_candidate", n), &doc, |b, d| {
            b.iter(|| regtree_gen::pattern_r1(&a).evaluate(d).len())
        });
    }
    quad.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
