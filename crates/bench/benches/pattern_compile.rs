//! E9 companion — pattern → tree-automaton compilation (the `A_R`
//! construction of Proposition 3) and update-class parsing costs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regtree_bench::rng;
use regtree_core::parse_update_class;
use regtree_oracle::random_pattern;
use regtree_pattern::compile_pattern;

fn bench_compile(c: &mut Criterion) {
    let a = regtree_alphabet::Alphabet::with_labels(["p", "q", "r", "s"]);
    let labels: Vec<_> = ["p", "q", "r", "s"].iter().map(|l| a.intern(l)).collect();

    let mut group = c.benchmark_group("pattern_compile");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    for &edges in &[2usize, 6, 12, 24] {
        let mut r = rng();
        let pattern = random_pattern(&a, &labels, edges, &mut r);
        group.bench_with_input(BenchmarkId::new("compile_plain", edges), &edges, |b, _| {
            b.iter(|| compile_pattern(&pattern, false).automaton.size())
        });
        group.bench_with_input(BenchmarkId::new("compile_marked", edges), &edges, |b, _| {
            b.iter(|| compile_pattern(&pattern, true).automaton.size())
        });
    }

    // Update-class parsing (positive CoreXPath through the pattern language).
    let xpaths = [
        "/a/b/c/d",
        "/a//b[c]/d",
        "/a/b[c and d]//e[f/g]/h",
        "/session/candidate[toBePassed]/level",
    ];
    for (i, xp) in xpaths.iter().enumerate() {
        group.bench_with_input(BenchmarkId::new("update_class_parse", i), xp, |b, xp| {
            b.iter(|| parse_update_class(&a, xp).expect("parses").size())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
