//! E7 — Proposition 1: the problem the independence question embeds is
//! regular-expression inclusion (PSPACE-hard). This bench shows the
//! exponential determinization blow-up on the classical family
//! `η_n = (a|b)*·a·(a|b)ⁿ` (its minimal DFA has 2ⁿ⁺¹ states), compares the
//! classical and antichain engines, and contrasts both with the
//! *polynomial* IC running on reduction gadgets of the same size.
// Each iteration runs on a fresh `Analyzer` (`regtree_bench::fresh_*`):
// the automata are recompiled every call, which is the cost these timings
// have always measured. Reusing one cached `Analyzer` across iterations
// would change the workload and invalidate the committed baselines.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regtree_automata::{parse_regex, Nfa, Regex};
use regtree_bench::fresh_independence;
use regtree_oracle::{build_patterns, gadget_alphabet, inclusion, Dfa};

/// `(a|b)* a (a|b)^n` over the gadget labels B, D.
fn hard_regex(n: usize) -> String {
    let mut s = String::from("(B|D)*/B");
    for _ in 0..n {
        s.push_str("/(B|D)");
    }
    s
}

fn bench_inclusion(c: &mut Criterion) {
    let a = gadget_alphabet();
    let mut group = c.benchmark_group("regex_inclusion");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for &n in &[2usize, 4, 6, 8] {
        let eta = parse_regex(&a, &hard_regex(n)).expect("parses");
        let etap = parse_regex(&a, &format!("({})?", hard_regex(n))).expect("parses");

        // Exponential: full determinization of η_n.
        group.bench_with_input(BenchmarkId::new("determinize_blowup", n), &n, |b, _| {
            b.iter(|| {
                let d = Dfa::from_nfa(&Nfa::from_regex(&eta), &[]);
                d.minimize().num_states()
            })
        });
        // Classical inclusion via complement+product.
        group.bench_with_input(BenchmarkId::new("dfa_inclusion", n), &n, |b, _| {
            b.iter(|| {
                let da = Dfa::from_nfa(&Nfa::from_regex(&eta), &[]);
                let db = Dfa::from_nfa(&Nfa::from_regex(&etap), &[]);
                inclusion::dfa_included(&da, &db).is_ok()
            })
        });
        // Antichain inclusion (usually much better).
        group.bench_with_input(BenchmarkId::new("antichain_inclusion", n), &n, |b, _| {
            b.iter(|| {
                let na = Nfa::from_regex(&eta);
                let nb = Nfa::from_regex(&etap);
                inclusion::nfa_included(&na, &nb, &[]).is_ok()
            })
        });
        // The polynomial criterion on the corresponding reduction gadgets —
        // it does not decide inclusion, it answers the (weaker) sufficient
        // question in time polynomial in the same input.
        let eta_r: Regex = eta.clone();
        let etap_r: Regex = etap.clone();
        group.bench_with_input(BenchmarkId::new("ic_on_gadgets", n), &n, |b, _| {
            b.iter(|| {
                let (fd, class) = build_patterns(&a, &eta_r, &etap_r);
                fresh_independence(&fd, &class, None).ic_states
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inclusion);
criterion_main!(benches);
