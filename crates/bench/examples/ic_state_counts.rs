//! Prints the E9 explored-vs-total product-state table: for each point of
//! the four `ic_scaling` sweeps, how many product states the lazy engine
//! interned versus the size of the full (never materialized) product the
//! eager pipeline would build. Companion to `scripts/bench_json.sh`; the
//! numbers land in EXPERIMENTS.md E9.
//!
//! Modes: default is the human-readable table; `--counters` prints flat
//! `counters/<axis>/<point>/<metric>` work counters; `--phases` re-runs the
//! sweep through an [`regtree_core::Analyzer`] wired to a
//! [`regtree_core::SummarySink`] and prints flat
//! `phases/<axis>/<point>/<phase>_{count,nanos}` per-phase wall-time rows.
// Each point runs on a fresh `Analyzer` (`regtree_bench::fresh_independence`):
// the automata are recompiled every call, which is the workload the
// committed baselines record. (The `--phases` mode reuses one `Analyzer`
// per point: span hooks only exist on the governed engine, and its rows
// are wall-time breakdowns, not baseline counters.)

use std::sync::Arc;

use regtree_bench::{
    chain_schema, fd_with_conditions, fresh_independence, padded_alphabet, update_chain,
};
use regtree_core::{Analyzer, Fd, SpanKind, SummarySink, UpdateClass};
use regtree_hedge::Schema;

fn main() {
    let machine = std::env::args().any(|a| a == "--counters");
    let phases = std::env::args().any(|a| a == "--phases");
    if !machine && !phases {
        println!("axis             point   explored    total   verdict");
    }
    for &k in &[1usize, 2, 4, 6] {
        let a = regtree_gen::exam_alphabet();
        point(
            "fd_conditions",
            k,
            &fd_with_conditions(&a, k),
            &update_chain(&a, 2),
            None,
            machine,
            phases,
        );
    }
    for &d in &[1usize, 3, 6, 9] {
        let a = regtree_gen::exam_alphabet();
        point(
            "update_depth",
            d,
            &fd_with_conditions(&a, 2),
            &update_chain(&a, d),
            None,
            machine,
            phases,
        );
    }
    for &x in &[0usize, 50, 200, 800] {
        let a = padded_alphabet(x);
        point(
            "alphabet",
            x,
            &fd_with_conditions(&a, 2),
            &update_chain(&a, 2),
            None,
            machine,
            phases,
        );
    }
    for &n in &[2usize, 8, 16, 32] {
        let a = regtree_gen::exam_alphabet();
        let schema = chain_schema(&a, n);
        point(
            "schema_rules",
            n,
            &fd_with_conditions(&a, 2),
            &update_chain(&a, 2),
            Some(&schema),
            machine,
            phases,
        );
    }
}

fn point(
    axis: &str,
    p: usize,
    fd: &Fd,
    class: &UpdateClass,
    schema: Option<&Schema>,
    machine: bool,
    phases: bool,
) {
    if phases {
        phase_rows(axis, p, fd, class, schema);
        return;
    }
    let r = fresh_independence(fd, class, schema);
    row(axis, p, &r, machine);
}

/// One governed run per sweep point, its wall time split by phase.
fn phase_rows(axis: &str, point: usize, fd: &Fd, class: &UpdateClass, schema: Option<&Schema>) {
    let sink = Arc::new(SummarySink::new());
    let mut builder = Analyzer::builder().tracer(sink.clone());
    if let Some(s) = schema {
        builder = builder.schema(s.clone());
    }
    let _ = builder.build().independence(fd, class);
    let summary = sink.summary();
    for kind in SpanKind::ALL {
        let s = summary.span(kind);
        if s.count == 0 {
            continue;
        }
        println!("phases/{axis}/{point}/{}_count {}", kind.name(), s.count);
        println!(
            "phases/{axis}/{point}/{}_nanos {}",
            kind.name(),
            s.total_nanos
        );
    }
}

fn row(axis: &str, point: usize, r: &regtree_core::IndependenceAnalysis, machine: bool) {
    if machine {
        // Flat keys for scripts/bench_json.sh: counters land in BENCH_ic.json
        // next to the medians so the work done per sweep point is versioned
        // alongside the time it took. No `dfa_steps`: the IC search never
        // runs the DFA matcher, so it would read 0 on every row.
        let m = &r.metrics;
        for (metric, value) in [
            ("states_interned", m.states_interned),
            ("transitions_fired", m.transitions_fired),
            ("guard_intersections", m.guard_intersections),
            ("frontier_pushes", m.frontier_pushes),
            ("explored_states", r.explored_states as u64),
            ("total_states", r.total_states as u64),
        ] {
            println!("counters/{axis}/{point}/{metric} {value}");
        }
        return;
    }
    println!(
        "{axis:<16} {point:>5} {:>10} {:>8}   {}",
        r.explored_states,
        r.total_states,
        if r.verdict.is_independent() {
            "independent"
        } else {
            "unknown"
        }
    );
}
