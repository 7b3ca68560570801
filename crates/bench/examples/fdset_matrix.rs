//! Prints the FD-set pruning table behind `BENCH_fdset.json`: for
//! `n ∈ {50, 100, 200}` synthetic FDs ([`regtree_bench::fdset_corpus`])
//! against the fixed update-class columns, the matrix wall time with and
//! without FD-set reasoning ([`regtree_core::Analyzer::matrix_pruned`] vs
//! [`regtree_core::Analyzer::matrix`]) and the time of the
//! [`regtree_core::FdSet::minimize`] closure alone — each the median of
//! [`RUNS`] warm runs — plus how many cells the engine actually checked,
//! how many rows were dropped as implied, and that every kept-row cell of
//! the pruned matrix equals the unpruned cell (`parity_mismatches` must be
//! 0; the example panics otherwise). Companion to `scripts/bench_json.sh`;
//! the numbers land in EXPERIMENTS.md.
//!
//! Modes: default is the human-readable table; `--counters` prints flat
//! `counters/fdset/<n>/<mode>/<metric>` rows for the JSON harness.

use std::time::Instant;

use regtree_bench::{fdset_classes, fdset_corpus};
use regtree_core::{Analyzer, CellProvenance, Fd, FdSet, MatrixCell, RunLimits, UpdateClass};

/// Timed runs per mode, after one untimed warm-up run.
const RUNS: usize = 7;

/// The warm-up result of `f` and the median wall time of [`RUNS`] further
/// calls.
fn median_nanos<T>(mut f: impl FnMut() -> T) -> (T, u128) {
    let out = f();
    let mut samples: Vec<u128> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (out, samples[RUNS / 2])
}

/// What parity compares: the verdict, the exhausted resource, and the
/// engine's work on the cell.
fn outcome(c: &MatrixCell) -> impl PartialEq + '_ {
    (
        c.verdict.is_independent(),
        c.verdict.exhausted(),
        c.explored_states,
        c.automaton_size,
    )
}

fn main() {
    let machine = std::env::args().any(|a| a == "--counters");
    if !machine {
        println!("n     mode       cells  implied  mismatch  minimize_ms   wall_ms");
    }
    for &n in &[50usize, 100, 200] {
        let a = regtree_alphabet::Alphabet::new();
        let fds = fdset_corpus(&a, n);
        let classes = fdset_classes(&a);
        let fd_refs: Vec<(&str, &Fd)> = fds.iter().map(|(s, f)| (s.as_str(), f)).collect();
        let class_refs: Vec<(&str, &UpdateClass)> =
            classes.iter().map(|(s, c)| (s.as_str(), c)).collect();

        // One analyzer per mode, so each mode's warm-up fills its own
        // pattern-compilation cache.
        let plain_analyzer = Analyzer::builder().build();
        let (plain, plain_nanos) = median_nanos(|| plain_analyzer.matrix(&fd_refs, &class_refs));
        let pruned_analyzer = Analyzer::builder().build();
        let (pruned, pruned_nanos) =
            median_nanos(|| pruned_analyzer.matrix_pruned(&fd_refs, &class_refs));
        let mut set = FdSet::new();
        for (name, fd) in &fds {
            set.push(name.as_str(), fd.clone());
        }
        let (_, minimize_nanos) = median_nanos(|| set.minimize(&RunLimits::UNLIMITED));

        // Implied rows carry a placeholder verdict, not a computation.
        let mismatches = plain
            .cells
            .iter()
            .zip(&pruned.cells)
            .filter(|(p, q)| {
                !matches!(q.provenance, CellProvenance::ImpliedRow { .. })
                    && outcome(p) != outcome(q)
            })
            .count();

        let total = n * classes.len();
        if machine {
            println!("counters/fdset/{n}/unpruned/cells_checked {total}");
            println!("counters/fdset/{n}/unpruned/wall_nanos {plain_nanos}");
            println!(
                "counters/fdset/{n}/pruned/cells_checked {}",
                pruned.computed_count()
            );
            println!(
                "counters/fdset/{n}/pruned/rows_implied {}",
                pruned.implied_row_count()
            );
            println!("counters/fdset/{n}/pruned/minimize_nanos {minimize_nanos}");
            println!("counters/fdset/{n}/pruned/wall_nanos {pruned_nanos}");
            println!("counters/fdset/{n}/pruned/parity_mismatches {mismatches}");
        } else {
            println!(
                "{n:<5} unpruned  {total:>6}        -         -            -  {:>8.2}",
                plain_nanos as f64 / 1e6
            );
            println!(
                "{n:<5} pruned    {:>6}  {:>7}  {mismatches:>8}  {:>11.2}  {:>8.2}",
                pruned.computed_count(),
                pruned.implied_row_count(),
                minimize_nanos as f64 / 1e6,
                pruned_nanos as f64 / 1e6
            );
        }
        assert_eq!(mismatches, 0, "pruned/unpruned parity violated at n={n}");
    }
}
