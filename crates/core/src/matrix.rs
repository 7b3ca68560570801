//! Batch independence analysis.
//!
//! The practical deployment the paper motivates (and \[14\] addresses
//! document-side) maintains a *set* of functional dependencies under a
//! *set* of update classes. [`crate::Analyzer::matrix`] runs the criterion for every
//! pair and summarizes which FDs need re-verification after which update
//! classes — the static complement of a validator's scheduling table.
//!
//! The matrix amortizes everything shareable across cells: the schema
//! automaton is compiled once, each FD row and update-class column is
//! compiled to its pattern automaton once and then flattened once into its
//! arena/CSR form ([`regtree_hedge::CompiledAutomaton`]) against a single
//! [`GuardPartition`] of label minterms that serves every cell's
//! word-parallel guard intersections. Cells then run the lazy on-the-fly
//! emptiness engine (`crate::lazy_ic`) on scoped worker threads
//! ([`regtree_pattern::parallel_map`]). Workers additionally share realized
//! cell outcomes through a sharded interner keyed by the `(row, column)`
//! automaton identities (`crate::intern`): when the FD/class dedup of
//! [`crate::Analyzer`] maps two cells to the same compiled pair, only the
//! first runs the engine and the rest reuse its verdict
//! ([`CellProvenance::ReusedFrom`], counted in
//! `RunMetrics::verdicts_reused`).
//!
//! One driver serves both entry points. The *pruned* one
//! ([`crate::Analyzer::matrix_pruned`]) first reasons about the FD **set**:
//! rows implied by the rest of the set ([`crate::FdSet::minimize`]) are
//! dropped without running the engine at all, and every kept row runs
//! exactly as it would unpruned — same partition, same compiled forms,
//! same budgets — so its cells equal the unpruned ones. Every cell records
//! how it got its verdict in [`CellProvenance`].

use std::fmt;
use std::sync::Arc;

use regtree_hedge::{CompiledAutomaton, GuardPartition, HedgeAutomaton};
use regtree_pattern::{parallel_map, PatternAutomaton};
use regtree_runtime::{Budget, CancelToken, RunLimits, RunMetrics, SpanKind, TraceHandle};

use crate::fd::Fd;
use crate::fdset::Minimization;
use crate::independence::{check_independence_governed, Verdict};
use crate::intern::{CellEntry, CellInterner};
use crate::lazy_ic::CompiledTriple;
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
    /// The verdict was copied from row `fd` of the same column: both cells
    /// resolve to the identical compiled `(row, column)` automaton pair, and
    /// the shared interner realized the outcome once.
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
/// [`crate::Analyzer::matrix_pruned_with`], on precompiled rows/columns
/// under a shared budget. The wall-clock deadline is global to the whole
/// matrix (a deadline bounds the *call*, not each cell); the count caps
/// apply per cell. A cancelled run still returns every cell: cells that
/// never ran report `Unknown { exhausted: Some(Cancelled) }`.
///
/// With a `minimization`, only its kept rows run the engine; the dropped
/// rows come back as engine-free [`CellProvenance::ImpliedRow`] cells.
/// `pa_fds` is parallel to `fds` either way, so the guard partition — and
/// with it every kept cell's result — is the same as without pruning.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_matrix_governed(
    fds: &[(&str, &Fd)],
    classes: &[(&str, &UpdateClass)],
    schema_auto: Option<&HedgeAutomaton>,
    minimization: Option<&Minimization>,
    pa_fds: &[Arc<PatternAutomaton>],
    pa_us: &[Arc<PatternAutomaton>],
    limits: &RunLimits,
    cancel: Option<&CancelToken>,
    trace: &TraceHandle,
    compile_nanos: u64,
) -> IndependenceMatrix {
    let ncols = classes.len();
    let kept: Vec<usize> = match minimization {
        Some(m) => m.kept.clone(),
        None => (0..fds.len()).collect(),
    };
    let partition = GuardPartition::from_automata(
        pa_fds
            .iter()
            .chain(pa_us.iter())
            .map(|pa| &pa.automaton)
            .chain(schema_auto),
    );
    // Flatten every kept row, column, and the schema into their arena/CSR
    // forms once; cells borrow the compiled triple pieces instead of
    // recompiling.
    let universal;
    let schema_sym = match schema_auto {
        Some(s) => s,
        None => {
            universal = HedgeAutomaton::universal();
            &universal
        }
    };
    let compiled = (!fds.is_empty()).then(|| {
        let compile = |pa: &PatternAutomaton| CompiledAutomaton::compile(&pa.automaton, &partition);
        (
            kept.iter()
                .map(|&i| compile(&pa_fds[i]))
                .collect::<Vec<_>>(),
            pa_us.iter().map(|pa| compile(pa)).collect::<Vec<_>>(),
            CompiledAutomaton::compile(schema_sym, &partition),
        )
    });
    let interner = CellInterner::new();
    // One deadline for the whole matrix, captured before the first cell.
    let deadline_at = Budget::new(limits).deadline_at();
    // `(position in kept, column)`, row-major.
    let pairs: Vec<(usize, usize)> = (0..kept.len())
        .flat_map(|r| (0..ncols).map(move |j| (r, j)))
        .collect();
    let computed = parallel_map(&pairs, |&(r, j)| {
        let i = kept[r];
        // Cells over the identical compiled pair (the Analyzer dedups
        // repeated FDs/classes to the same Arc) share one engine run.
        let slot = interner.slot((
            Arc::as_ptr(&pa_fds[i]) as usize,
            Arc::as_ptr(&pa_us[j]) as usize,
        ));
        let mut ran = false;
        let entry = slot.get_or_init(|| {
            ran = true;
            let alphabet = fds[i].1.template().alphabet().clone();
            let _span = if trace.is_enabled() {
                Some(trace.span(
                    SpanKind::MatrixCell,
                    &format!("{} × {}", fds[i].0, classes[j].0),
                ))
            } else {
                None
            };
            let mut budget = Budget::new(limits)
                .with_deadline_at(deadline_at)
                .with_trace(trace.clone());
            if let Some(c) = cancel {
                budget = budget.with_cancel(c.clone());
            }
            let analysis = check_independence_governed(
                &alphabet,
                &pa_fds[i],
                &pa_us[j],
                classes[j].1,
                schema_auto,
                Some(&partition),
                compiled.as_ref().map(|(cf, cu, cs)| CompiledTriple {
                    f: &cf[r],
                    u: &cu[j],
                    s: cs,
                }),
                budget,
                0,
            );
            CellEntry { fd: i, analysis }
        });
        let (metrics, provenance) = if ran {
            (entry.analysis.metrics, CellProvenance::Computed)
        } else {
            (
                RunMetrics {
                    verdicts_reused: 1,
                    ..RunMetrics::default()
                },
                CellProvenance::ReusedFrom { fd: entry.fd },
            )
        };
        MatrixCell {
            fd: i,
            class: j,
            verdict: entry.analysis.verdict.clone(),
            automaton_size: entry.analysis.total_states,
            explored_states: entry.analysis.explored_states,
            metrics,
            provenance,
        }
    });
    let mut cells = match minimization {
        None => computed,
        Some(m) => {
            // Splice the dropped rows back in, in row order, as engine-free
            // cells carrying their provenance.
            let mut computed = computed.into_iter();
            let mut cells = Vec::with_capacity(fds.len() * ncols);
            for i in 0..fds.len() {
                match m.provenance(i) {
                    None => cells.extend(computed.by_ref().take(ncols)),
                    Some(by) => cells.extend((0..ncols).map(|j| MatrixCell {
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
                    })),
                }
            }
            cells
        }
    };
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

/// The matrix on freshly compiled inputs under an unlimited budget
/// (in-crate test form; external callers go through
/// [`crate::Analyzer::matrix`]).
#[cfg(test)]
pub(crate) fn analyze_matrix_internal(
    fds: &[(&str, &Fd)],
    classes: &[(&str, &UpdateClass)],
    schema: Option<&regtree_hedge::Schema>,
) -> IndependenceMatrix {
    let compile = regtree_runtime::Stopwatch::start();
    let schema_auto = schema.map(|s| s.compiled());
    let pa_fds: Vec<_> = fds
        .iter()
        .map(|(_, fd)| Arc::new(regtree_pattern::compile_pattern(fd.pattern(), true)))
        .collect();
    let pa_us: Vec<_> = classes
        .iter()
        .map(|(_, class)| Arc::new(regtree_pattern::compile_pattern(class.pattern(), false)))
        .collect();
    let compile_nanos = compile.elapsed_nanos();
    analyze_matrix_governed(
        fds,
        classes,
        schema_auto.as_deref(),
        None,
        &pa_fds,
        &pa_us,
        &RunLimits::UNLIMITED,
        None,
        &TraceHandle::disabled(),
        compile_nanos,
    )
}

#[cfg(test)]
mod tests {

    use super::*;
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
        let m = analyze_matrix_internal(
            &[("price", &fds[0]), ("name", &fds[1])],
            &[("restock", &classes[0]), ("reprice", &classes[1])],
            None,
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
        let m = analyze_matrix_internal(
            &[("price", &fds[0])],
            &[("restock", &classes[0]), ("reprice", &classes[1])],
            None,
        );
        let rendered = m.to_string();
        assert!(rendered.contains("indep"), "{rendered}");
        assert!(rendered.contains("RECHECK"), "{rendered}");
        assert!(rendered.contains("price"), "{rendered}");
    }

    #[test]
    fn cells_carry_sizes() {
        let (fds, classes) = setup();
        let m = analyze_matrix_internal(&[("p", &fds[0])], &[("r", &classes[0])], None);
        assert!(m.cell(0, 0).automaton_size > 0);
        assert!(m.cell(0, 0).explored_states > 0);
        assert!(m.cell(0, 0).explored_states <= m.cell(0, 0).automaton_size);
        assert_eq!(m.cell(0, 0).fd, 0);
        assert_eq!(m.cell(0, 0).class, 0);
    }

    #[test]
    fn cell_indexing_is_row_major() {
        let (fds, classes) = setup();
        let m = analyze_matrix_internal(
            &[("price", &fds[0]), ("name", &fds[1])],
            &[("restock", &classes[0]), ("reprice", &classes[1])],
            None,
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
        let m = analyze_matrix_internal(&[], &[], None);
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
        use crate::analyzer::Analyzer;
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
        use crate::analyzer::Analyzer;
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
        use crate::analyzer::Analyzer;
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
        let m = analyze_matrix_internal(&[], &[("restock", &classes[0])], None);
        assert!(m.cells.is_empty());
        assert_eq!(m.class_names.len(), 1);
        assert!(m.fds_to_recheck(0).is_empty());
    }
}
