//! Batch independence analysis.
//!
//! The practical deployment the paper motivates (and \[14\] addresses
//! document-side) maintains a *set* of functional dependencies under a
//! *set* of update classes. [`crate::Analyzer::matrix`] runs the criterion for every
//! pair and summarizes which FDs need re-verification after which update
//! classes — the static complement of a validator's scheduling table.
//!
//! The matrix amortizes everything shareable across cells. The one
//! preparation step of the IC (`IcInputs`) compiles each FD row and
//! update-class column to its pattern automaton once (through the
//! [`crate::Analyzer`] cache), builds a single
//! [`regtree_hedge::GuardPartition`] of label minterms over all of them and
//! the schema automaton, and flattens each automaton once into its
//! arena/CSR form ([`regtree_hedge::CompiledAutomaton`]) against it. It also
//! finds twins up front: the pattern cache maps identical FDs or classes to
//! one `Arc`, so each distinct `(row, column)` pair runs once, on its first
//! row and first column, and the twins' cells copy its outcome
//! ([`CellProvenance::ReusedFrom`], counted in
//! `RunMetrics::verdicts_reused`). The distinct pairs run the lazy
//! on-the-fly emptiness engine (`crate::lazy_ic`) on scoped worker threads
//! ([`regtree_pattern::parallel_map`]); which cell computes and which
//! reuses depends only on the input order.
//!
//! One driver serves both entry points. The *pruned* one
//! ([`crate::Analyzer::matrix_pruned`]) first reasons about the FD **set**:
//! rows implied by the rest of the set ([`crate::FdSet::minimize`]) are
//! dropped without running the engine at all, and every kept row runs
//! exactly as it would unpruned — same partition, same compiled forms,
//! same budgets — so its cells equal the unpruned ones. Every cell records
//! how it got its verdict in [`CellProvenance`].

use std::collections::HashMap;
use std::fmt;

use regtree_pattern::parallel_map;
use regtree_runtime::{Budget, CancelToken, RunLimits, RunMetrics, SpanKind, TraceHandle};

use crate::fd::Fd;
use crate::fdset::Minimization;
use crate::independence::{check_independence_governed, IcInputs, IndependenceAnalysis, Verdict};
use crate::update::UpdateClass;

/// How a matrix cell got its verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CellProvenance {
    /// The emptiness engine ran for this cell.
    Computed,
    /// The whole row was dropped by [`crate::FdSet::minimize`]: the FD is
    /// implied by the kept rows listed in `by` (empty for trivial FDs).
    /// The cell carries **no criterion verdict** — its `verdict` field is
    /// a conservative placeholder — and it is excluded from
    /// [`IndependenceMatrix::fds_to_recheck`]: re-verifying the impliers
    /// re-establishes the implied FD.
    ImpliedRow {
        /// Kept FD indices implying this row.
        by: Vec<usize>,
    },
    /// The verdict was copied from the cell that ran for the identical
    /// compiled `(row, column)` automaton pair: row `fd`, the first row over
    /// this row's automaton, in the first column over this column's.
    ReusedFrom {
        /// The FD index whose engine-computed verdict was reused.
        fd: usize,
    },
}

/// One cell of the analysis matrix.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// FD index (row).
    pub fd: usize,
    /// Update-class index (column).
    pub class: usize,
    /// The criterion's verdict.
    pub verdict: Verdict,
    /// State count of the full product the criterion ranges over.
    pub automaton_size: usize,
    /// Product states the lazy engine actually explored.
    pub explored_states: usize,
    /// Work counters and wall time of this cell's run.
    pub metrics: RunMetrics,
    /// How the verdict was obtained (computed, implied row, or reused).
    pub provenance: CellProvenance,
}

/// The full matrix plus aggregate statistics.
#[derive(Clone, Debug)]
pub struct IndependenceMatrix {
    /// Row labels (FD names).
    pub fd_names: Vec<String>,
    /// Column labels (class names).
    pub class_names: Vec<String>,
    /// All cells, row-major.
    pub cells: Vec<MatrixCell>,
}

impl IndependenceMatrix {
    /// The cell for `(fd, class)`.
    pub fn cell(&self, fd: usize, class: usize) -> &MatrixCell {
        &self.cells[fd * self.class_names.len() + class]
    }

    /// Is the pair provably independent?
    pub fn independent(&self, fd: usize, class: usize) -> bool {
        self.cell(fd, class).verdict.is_independent()
    }

    /// Number of provably independent pairs.
    pub fn independent_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict.is_independent())
            .count()
    }

    /// For an update class: the FDs that must be re-verified after an
    /// update of that class. Every non-`Independent` row counts — including
    /// `Unknown` cells whose run was cancelled or exhausted its budget
    /// (only a proof of independence may skip re-verification) — **except**
    /// rows dropped as implied: re-verifying their impliers (which are kept
    /// rows and report here themselves when not independent) re-establishes
    /// them, so listing them too would double-count the work.
    pub fn fds_to_recheck(&self, class: usize) -> Vec<usize> {
        (0..self.fd_names.len())
            .filter(|&fd| {
                !self.independent(fd, class)
                    && !matches!(
                        self.cell(fd, class).provenance,
                        CellProvenance::ImpliedRow { .. }
                    )
            })
            .collect()
    }

    /// Number of `Unknown` cells whose run was cut short (budget or
    /// cancellation) rather than decided. These are sound to treat as
    /// "recheck", but re-running them with a larger budget may still prove
    /// independence.
    pub fn exhausted_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict.exhausted().is_some())
            .count()
    }

    /// Number of cells that must be rechecked (every non-independent cell,
    /// exhausted ones included, implied rows excluded — see
    /// [`IndependenceMatrix::fds_to_recheck`]).
    pub fn recheck_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| {
                !c.verdict.is_independent()
                    && !matches!(c.provenance, CellProvenance::ImpliedRow { .. })
            })
            .count()
    }

    /// Number of cells the emptiness engine actually ran for (neither
    /// implied away nor reused from another row).
    pub fn computed_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.provenance == CellProvenance::Computed)
            .count()
    }

    /// Number of cells whose verdict was shared with an identical compiled
    /// `(row, column)` pair.
    pub fn reused_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.provenance, CellProvenance::ReusedFrom { .. }))
            .count()
    }

    /// Number of rows dropped as implied by [`crate::FdSet::minimize`].
    pub fn implied_row_count(&self) -> usize {
        (0..self.fd_names.len())
            .filter(|&fd| {
                !self.class_names.is_empty()
                    && matches!(
                        self.cell(fd, 0).provenance,
                        CellProvenance::ImpliedRow { .. }
                    )
            })
            .count()
    }
}

impl fmt::Display for IndependenceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self
            .fd_names
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(4)
            .max(4);
        write!(f, "{:w$}", "", w = w + 2)?;
        for c in &self.class_names {
            write!(f, "{c:>12}")?;
        }
        writeln!(f)?;
        for (i, name) in self.fd_names.iter().enumerate() {
            write!(f, "{name:<w$}  ", w = w)?;
            for j in 0..self.class_names.len() {
                let cell = self.cell(i, j);
                let mark = match &cell.provenance {
                    CellProvenance::ImpliedRow { .. } => "implied",
                    // A trailing `*` marks verdicts shared with an
                    // identical compiled pair.
                    CellProvenance::ReusedFrom { .. } if cell.verdict.is_independent() => "indep*",
                    CellProvenance::ReusedFrom { .. } => "RECHECK*",
                    CellProvenance::Computed if cell.verdict.is_independent() => "indep",
                    CellProvenance::Computed if cell.verdict.exhausted().is_some() => {
                        // Cut short by budget/cancellation: still a recheck,
                        // but a bigger budget might prove independence.
                        "RECHECK?"
                    }
                    _ => "RECHECK",
                };
                write!(f, "{mark:>12}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The one matrix driver, behind both [`crate::Analyzer::matrix_with`] and
/// [`crate::Analyzer::matrix_pruned_with`], on inputs prepared by
/// [`IcInputs`] under a shared budget. The wall-clock deadline is global to
/// the whole matrix (a deadline bounds the *call*, not each cell); the count
/// caps apply per cell. A cancelled run still returns every cell: cells that
/// never ran report `Unknown { exhausted: Some(Cancelled) }`.
///
/// Each distinct `(row, column)` automaton pair runs once, on its first row
/// and first column; the cells of twin rows and columns copy that outcome as
/// [`CellProvenance::ReusedFrom`]. With a `minimization`, only its kept rows
/// run; the dropped rows come back as engine-free
/// [`CellProvenance::ImpliedRow`] cells, and since `inputs` covers every row
/// either way, each kept cell equals its unpruned result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_matrix_governed(
    fds: &[(&str, &Fd)],
    classes: &[(&str, &UpdateClass)],
    minimization: Option<&Minimization>,
    inputs: &IcInputs,
    limits: &RunLimits,
    cancel: Option<&CancelToken>,
    trace: &TraceHandle,
    compile_nanos: u64,
) -> IndependenceMatrix {
    let ncols = classes.len();
    let implied = |i: usize| minimization.and_then(|m| m.provenance(i));
    // One deadline for the whole matrix, captured before the first cell.
    let deadline_at = Budget::new(limits).deadline_at();
    // The distinct pairs, row-major: kept rows and columns that are their
    // own representatives.
    let pairs: Vec<(usize, usize)> = (0..fds.len())
        .filter(|&i| implied(i).is_none() && inputs.fd_rep[i] == i)
        .flat_map(|i| {
            (0..ncols)
                .filter(|&j| inputs.class_rep[j] == j)
                .map(move |j| (i, j))
        })
        .collect();
    let ran = parallel_map(&pairs, |&(i, j)| {
        let _span = trace.is_enabled().then(|| {
            trace.span(
                SpanKind::MatrixCell,
                &format!("{} × {}", fds[i].0, classes[j].0),
            )
        });
        let mut budget = Budget::new(limits)
            .with_deadline_at(deadline_at)
            .with_trace(trace.clone());
        if let Some(c) = cancel {
            budget = budget.with_cancel(c.clone());
        }
        check_independence_governed(inputs, (i, j), classes[j].1, budget, 0)
    });
    let outcomes: HashMap<(usize, usize), IndependenceAnalysis> =
        pairs.into_iter().zip(ran).collect();
    let mut cells: Vec<MatrixCell> = (0..fds.len())
        .flat_map(|i| (0..ncols).map(move |j| (i, j)))
        .map(|(i, j)| {
            if let Some(by) = implied(i) {
                return MatrixCell {
                    fd: i,
                    class: j,
                    // Placeholder, not a criterion verdict: see
                    // `CellProvenance::ImpliedRow`.
                    verdict: Verdict::Unknown {
                        witness: None,
                        exhausted: None,
                    },
                    automaton_size: 0,
                    explored_states: 0,
                    metrics: RunMetrics::default(),
                    provenance: CellProvenance::ImpliedRow { by: by.to_vec() },
                };
            }
            let rep = (inputs.fd_rep[i], inputs.class_rep[j]);
            let analysis = &outcomes[&rep];
            let (metrics, provenance) = if rep == (i, j) {
                (analysis.metrics, CellProvenance::Computed)
            } else {
                (
                    RunMetrics {
                        verdicts_reused: 1,
                        ..RunMetrics::default()
                    },
                    CellProvenance::ReusedFrom { fd: rep.0 },
                )
            };
            MatrixCell {
                fd: i,
                class: j,
                verdict: analysis.verdict.clone(),
                automaton_size: analysis.total_states,
                explored_states: analysis.explored_states,
                metrics,
                provenance,
            }
        })
        .collect();
    // Attribute the shared compile time to the first cell so the matrix
    // totals stay faithful without double counting.
    if let Some(first) = cells.first_mut() {
        first.metrics.compile_nanos += compile_nanos;
    }
    IndependenceMatrix {
        fd_names: fds.iter().map(|(n, _)| n.to_string()).collect(),
        class_names: classes.iter().map(|(n, _)| n.to_string()).collect(),
        cells,
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::analyzer::Analyzer;
    use crate::textfd::parse_fd;
    use crate::update::update_class_from_edges;
    use regtree_alphabet::Alphabet;

    fn setup() -> (Vec<Fd>, Vec<UpdateClass>) {
        let a = Alphabet::new();
        let fd_price = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
        let fd_name = parse_fd(&a, "/catalog : item/sku -> item/name").unwrap();
        let restock = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
        let reprice = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
        (vec![fd_price, fd_name], vec![restock, reprice])
    }

    #[test]
    fn matrix_verdicts() {
        let (fds, classes) = setup();
        let m = Analyzer::builder().build().matrix(
            &[("price", &fds[0]), ("name", &fds[1])],
            &[("restock", &classes[0]), ("reprice", &classes[1])],
        );
        // stock updates never touch either FD.
        assert!(m.independent(0, 0));
        assert!(m.independent(1, 0));
        // price updates hit the price FD's target region…
        assert!(!m.independent(0, 1));
        // …but not the name FD.
        assert!(m.independent(1, 1));
        assert_eq!(m.independent_count(), 3);
        assert_eq!(m.fds_to_recheck(1), vec![0]);
        assert!(m.fds_to_recheck(0).is_empty());
    }

    #[test]
    fn matrix_display_table() {
        let (fds, classes) = setup();
        let m = Analyzer::builder().build().matrix(
            &[("price", &fds[0])],
            &[("restock", &classes[0]), ("reprice", &classes[1])],
        );
        let rendered = m.to_string();
        assert!(rendered.contains("indep"), "{rendered}");
        assert!(rendered.contains("RECHECK"), "{rendered}");
        assert!(rendered.contains("price"), "{rendered}");
    }

    #[test]
    fn cells_carry_sizes() {
        let (fds, classes) = setup();
        let m = Analyzer::builder()
            .build()
            .matrix(&[("p", &fds[0])], &[("r", &classes[0])]);
        assert!(m.cell(0, 0).automaton_size > 0);
        assert!(m.cell(0, 0).explored_states > 0);
        assert!(m.cell(0, 0).explored_states <= m.cell(0, 0).automaton_size);
        assert_eq!(m.cell(0, 0).fd, 0);
        assert_eq!(m.cell(0, 0).class, 0);
    }

    #[test]
    fn cell_indexing_is_row_major() {
        let (fds, classes) = setup();
        let m = Analyzer::builder().build().matrix(
            &[("price", &fds[0]), ("name", &fds[1])],
            &[("restock", &classes[0]), ("reprice", &classes[1])],
        );
        assert_eq!(m.cells.len(), 4);
        for i in 0..2 {
            for j in 0..2 {
                let cell = m.cell(i, j);
                assert_eq!((cell.fd, cell.class), (i, j));
                // Row-major layout: cells[i * ncols + j].
                assert_eq!((m.cells[i * 2 + j].fd, m.cells[i * 2 + j].class), (i, j));
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let m = Analyzer::builder().build().matrix(&[], &[]);
        assert!(m.cells.is_empty());
        assert!(m.fd_names.is_empty());
        assert_eq!(m.independent_count(), 0);
        // Display of an empty matrix must not panic.
        let rendered = m.to_string();
        assert!(rendered.ends_with('\n'));
        // No rows and no columns also means nothing to recheck.
        assert!(m.fds_to_recheck(0).is_empty());
    }

    #[test]
    fn pruned_matrix_agrees_with_unpruned_on_computed_cells() {
        let (fds, classes) = setup();
        let named_fds = [("price", &fds[0]), ("name", &fds[1])];
        let named_classes = [("restock", &classes[0]), ("reprice", &classes[1])];
        let an = Analyzer::builder().build();
        let plain = an.matrix(&named_fds, &named_classes);
        let pruned = an.matrix_pruned(&named_fds, &named_classes);
        assert_eq!(plain.cells.len(), pruned.cells.len());
        for (p, q) in plain.cells.iter().zip(&pruned.cells) {
            assert_eq!((p.fd, p.class), (q.fd, q.class));
            if q.provenance == CellProvenance::Computed {
                assert_eq!(
                    p.verdict.is_independent(),
                    q.verdict.is_independent(),
                    "cell ({}, {})",
                    p.fd,
                    p.class
                );
            }
        }
    }

    #[test]
    fn implied_rows_are_not_reported_for_recheck() {
        let a = Alphabet::new();
        // fd 1 is fd 0 weakened with an extra condition: implied, dropped.
        // A reprice update hits both FDs' region; only the implier (which
        // is what actually gets re-verified) may be reported.
        let strong = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
        let weak = parse_fd(&a, "/catalog : item/sku, item/name -> item/price").unwrap();
        let reprice = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
        let restock = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
        let an = Analyzer::builder().build();
        let m = an.matrix_pruned(
            &[("strong", &strong), ("weak", &weak)],
            &[("reprice", &reprice), ("restock", &restock)],
        );
        assert_eq!(m.implied_row_count(), 1);
        // Regression: the dropped row must never show up as a recheck —
        // its implier was rechecked, which re-establishes it.
        assert_eq!(m.fds_to_recheck(0), vec![0]);
        assert!(m.fds_to_recheck(1).is_empty());
        assert_eq!(m.recheck_count(), 1);
        // …but it is not claimed independent either.
        assert!(!m.independent(1, 0));
        assert!(!m.independent(1, 1));
        assert_eq!(
            m.cell(1, 0).provenance,
            CellProvenance::ImpliedRow { by: vec![0] }
        );
        // Display renders the dropped row distinctly.
        assert!(m.to_string().contains("implied"), "{m}");
    }

    #[test]
    fn exhausted_verdicts_never_propagate() {
        use regtree_runtime::RunLimits;
        let a = Alphabet::new();
        let wide = parse_fd(&a, "/s : c/e/d -> c/e").unwrap();
        let narrow = parse_fd(&a, "/s : c/e/d -> c/e/r").unwrap();
        let other = update_class_from_edges(&a, &["s/x/y"]).unwrap();
        // A one-state cap exhausts every engine run: no verdict may be
        // reused from a cut-short row.
        let an = Analyzer::builder()
            .limits(RunLimits::default().with_max_states(1))
            .build();
        let m = an.matrix_pruned(
            &[("wide", &wide), ("narrow", &narrow)],
            &[("other", &other)],
        );
        for cell in &m.cells {
            assert_ne!(
                std::mem::discriminant(&cell.provenance),
                std::mem::discriminant(&CellProvenance::ReusedFrom { fd: 0 }),
                "exhausted verdict was reused: {cell:?}"
            );
        }
        assert_eq!(m.exhausted_count(), 2);
    }

    #[test]
    fn empty_rows_with_columns() {
        let (_, classes) = setup();
        let m = Analyzer::builder()
            .build()
            .matrix(&[], &[("restock", &classes[0])]);
        assert!(m.cells.is_empty());
        assert_eq!(m.class_names.len(), 1);
        assert!(m.fds_to_recheck(0).is_empty());
    }
}
