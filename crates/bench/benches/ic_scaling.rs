//! E9 — Proposition 3: the independence criterion is polynomial. Four
//! one-dimensional sweeps, each growing exactly one parameter of the bound
//! `O(a_U a_FD² · |Σ|⁴ · |A_S| · |U|² · |FD|²)`:
//!
//! * `vs_fd_conditions` — number of FD conditions (grows `|FD|` and `a_FD`);
//! * `vs_update_depth` — update-template chain depth (grows `|U|`);
//! * `vs_alphabet` — filler labels (grows `|Σ|`);
//! * `vs_schema_rules` — schema rule count (grows `|A_S|`).
//!
//! Every axis is measured twice: `*_lazy` runs the on-the-fly product
//! emptiness (a fresh [`regtree_core::Analyzer`] per call), `*_eager` materializes the full
//! FD×U×bit×schema product first ([`check_independence_eager`]). The
//! absolute times are implementation-specific; what reproduces the paper's
//! claim is the *polynomial shape* of each curve, and what the lazy engine
//! adds is a constant-factor collapse that widens with `|A_S|` (see
//! EXPERIMENTS.md E9, which also records explored-vs-total state counts).
// Each iteration runs on a fresh `Analyzer` (`regtree_bench::fresh_*`):
// the automata are recompiled every call, which is the cost these timings
// have always measured. Reusing one cached `Analyzer` across iterations
// would change the workload and invalidate the committed baselines.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regtree_bench::{
    chain_schema, fd_with_conditions, fresh_independence, padded_alphabet, update_chain,
};
use regtree_oracle::check_independence_eager;

fn bench_ic_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ic_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    // |FD| axis.
    for &k in &[1usize, 2, 4, 6] {
        let a = regtree_gen::exam_alphabet();
        let fd = fd_with_conditions(&a, k);
        let class = update_chain(&a, 2);
        group.bench_with_input(BenchmarkId::new("vs_fd_conditions_lazy", k), &k, |b, _| {
            b.iter(|| fresh_independence(&fd, &class, None).explored_states)
        });
        group.bench_with_input(BenchmarkId::new("vs_fd_conditions_eager", k), &k, |b, _| {
            b.iter(|| check_independence_eager(&fd, &class, None).ic_states)
        });
    }

    // |U| axis.
    for &depth in &[1usize, 3, 6, 9] {
        let a = regtree_gen::exam_alphabet();
        let fd = fd_with_conditions(&a, 2);
        let class = update_chain(&a, depth);
        group.bench_with_input(
            BenchmarkId::new("vs_update_depth_lazy", depth),
            &depth,
            |b, _| b.iter(|| fresh_independence(&fd, &class, None).explored_states),
        );
        group.bench_with_input(
            BenchmarkId::new("vs_update_depth_eager", depth),
            &depth,
            |b, _| b.iter(|| check_independence_eager(&fd, &class, None).ic_states),
        );
    }

    // |Σ| axis.
    for &extra in &[0usize, 50, 200, 800] {
        let a = padded_alphabet(extra);
        let fd = fd_with_conditions(&a, 2);
        let class = update_chain(&a, 2);
        group.bench_with_input(
            BenchmarkId::new("vs_alphabet_lazy", extra),
            &extra,
            |b, _| b.iter(|| fresh_independence(&fd, &class, None).explored_states),
        );
        group.bench_with_input(
            BenchmarkId::new("vs_alphabet_eager", extra),
            &extra,
            |b, _| b.iter(|| check_independence_eager(&fd, &class, None).ic_states),
        );
    }

    // |A_S| axis.
    for &rules in &[2usize, 8, 16, 32] {
        let a = regtree_gen::exam_alphabet();
        let fd = fd_with_conditions(&a, 2);
        let class = update_chain(&a, 2);
        let schema = chain_schema(&a, rules);
        group.bench_with_input(
            BenchmarkId::new("vs_schema_rules_lazy", rules),
            &rules,
            |b, _| b.iter(|| fresh_independence(&fd, &class, Some(&schema)).explored_states),
        );
        group.bench_with_input(
            BenchmarkId::new("vs_schema_rules_eager", rules),
            &rules,
            |b, _| b.iter(|| check_independence_eager(&fd, &class, Some(&schema)).automaton_size),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ic_scaling);
criterion_main!(benches);
