//! Substrate bench: word automata. Thompson construction and NFA
//! membership are the product's; subset construction, product,
//! emptiness, minimization and sampling run on `regtree-oracle`'s
//! complete DFAs, the classical baseline the matcher's edge DFAs replace.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regtree_automata::{parse_regex, Nfa};
use regtree_bench::rng;
use regtree_oracle::{random_proper_regex, Dfa, LangSampler};

fn bench_automata(c: &mut Criterion) {
    let a = regtree_alphabet::Alphabet::with_labels(["p", "q", "r"]);
    let labels: Vec<_> = ["p", "q", "r"].iter().map(|l| a.intern(l)).collect();

    let mut group = c.benchmark_group("automata_ops");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    for &size in &[8usize, 32, 128] {
        let mut r = rng();
        let regex = random_proper_regex(&labels, size, &mut r);
        let regex2 = random_proper_regex(&labels, size, &mut r);

        group.bench_with_input(BenchmarkId::new("thompson", size), &size, |b, _| {
            b.iter(|| Nfa::from_regex(&regex).num_states())
        });
        let nfa = Nfa::from_regex(&regex);
        let nfa2 = Nfa::from_regex(&regex2);
        group.bench_with_input(BenchmarkId::new("determinize", size), &size, |b, _| {
            b.iter(|| Dfa::from_nfa(&nfa, &[]).num_states())
        });
        let d1 = Dfa::from_nfa(&nfa, &[labels[0].0, labels[1].0, labels[2].0]);
        let d2 = Dfa::from_nfa(&nfa2, &[labels[0].0, labels[1].0, labels[2].0]);
        group.bench_with_input(
            BenchmarkId::new("product_emptiness", size),
            &size,
            |b, _| b.iter(|| d1.intersect(&d2).is_empty_language()),
        );
        group.bench_with_input(BenchmarkId::new("minimize", size), &size, |b, _| {
            b.iter(|| d1.minimize().num_states())
        });
        group.bench_with_input(BenchmarkId::new("sample_words", size), &size, |b, _| {
            let sampler = LangSampler::new(&nfa, &[]);
            let mut r = rng();
            b.iter(|| sampler.sample(&mut r, 16).map(|w| w.len()))
        });
    }

    // Membership throughput on a fixed mid-size machine.
    let fixed = parse_regex(&a, "(p|q)*/r/(p/q)+/r?").expect("parses");
    let nfa = Nfa::from_regex(&fixed);
    let dfa = Dfa::from_nfa(&nfa, &[]);
    let word: Vec<u32> = {
        let p = a.intern("p").0;
        let q = a.intern("q").0;
        let r = a.intern("r").0;
        let mut w = Vec::new();
        for _ in 0..200 {
            w.extend_from_slice(&[p, q]);
        }
        w.push(r);
        for _ in 0..100 {
            w.extend_from_slice(&[p, q]);
        }
        w
    };
    group.bench_function("nfa_membership_500", |b| b.iter(|| nfa.accepts(&word)));
    group.bench_function("dfa_membership_500", |b| b.iter(|| dfa.accepts(&word)));
    group.finish();
}

criterion_group!(benches, bench_automata);
criterion_main!(benches);
