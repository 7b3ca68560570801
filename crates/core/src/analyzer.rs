//! The [`Analyzer`] façade: one reusable handle over the whole analysis
//! surface — independence checks, batch matrices, and FD satisfaction —
//! with shared compiled state, resource budgets, metrics, and cancellation.
//!
//! Standalone entry points would recompile the schema hedge automaton and
//! the pattern automata on every call. An `Analyzer` is built once per
//! (schema, limits) configuration and amortizes:
//!
//! * the schema, whose content-model NFAs are built once when it is
//!   parsed: validation reads them directly, and each IC call compiles
//!   `A_S` of Proposition 3 from them with [`Schema::compile`], so it
//!   covers the labels the call's FDs and classes interned after the
//!   analyzer was built;
//! * pattern automata, cached by structural template sketch + selected
//!   tuple + marking flag, so repeated queries over the same FD or update
//!   class hit the cache — including across matrix calls;
//! * the [`RunLimits`] every run is governed by; each call may override
//!   them and bring its own [`CancelToken`] through [`RunOverrides`].
//!
//! Every IC call, one pair or a matrix, prepares the engine's inputs in one
//! step (`IcInputs`) inside its `Compile` span.
//!
//! ```
//! use regtree_core::{parse_fd, update_class_from_edges, Analyzer};
//! use regtree_alphabet::Alphabet;
//!
//! let a = Alphabet::new();
//! let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
//! let class = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
//! let analyzer = Analyzer::builder().build();
//! let analysis = analyzer.independence(&fd, &class);
//! assert!(analysis.verdict.is_independent());
//! assert!(analysis.metrics.states_interned > 0);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use regtree_hedge::Schema;
use regtree_pattern::{compile_pattern, PatternAutomaton, RegularTreePattern};
use regtree_runtime::{Budget, CancelToken, RunLimits, SpanKind, Stopwatch, TraceHandle, Tracer};
use regtree_xml::{Document, VersionedDocument};

use crate::error::Error;
use crate::fd::Fd;
use crate::fdset::{FdSet, Minimization};
use crate::incremental::IncrementalChecker;
use crate::independence::{check_independence_governed, IcInputs, IndependenceAnalysis};
use crate::matrix::{analyze_matrix_governed, IndependenceMatrix};
use crate::satisfy::{check_fds_governed, FdBatchReport};
use crate::update::UpdateClass;

/// Cache key of one compiled pattern automaton: the deterministic template
/// sketch (labels + edge regexes + shape), the selected tuple, and whether
/// the compilation marks the FD region.
type PatternKey = (String, Vec<u32>, bool);

/// Builder for [`Analyzer`].
#[derive(Default)]
pub struct AnalyzerBuilder {
    schema: Option<Schema>,
    limits: RunLimits,
    tracer: Option<Arc<dyn Tracer>>,
}

impl AnalyzerBuilder {
    /// A builder with no schema and unlimited budgets.
    pub(crate) fn new() -> AnalyzerBuilder {
        AnalyzerBuilder::default()
    }

    /// Analyses run relative to `schema`.
    pub fn schema(mut self, schema: Schema) -> AnalyzerBuilder {
        self.schema = Some(schema);
        self
    }

    /// Resource budgets every run is governed by.
    ///
    /// # Examples
    ///
    /// A one-state cap cannot decide a dependent pair; the run stops with
    /// an exhausted verdict instead of a wrong answer:
    ///
    /// ```
    /// use regtree_core::{parse_fd, update_class_from_edges, Analyzer, Resource, RunLimits};
    /// use regtree_alphabet::Alphabet;
    ///
    /// let a = Alphabet::new();
    /// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
    /// let class = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
    /// let analyzer = Analyzer::builder()
    ///     .limits(RunLimits::default().with_max_states(1))
    ///     .build();
    /// let analysis = analyzer.independence(&fd, &class);
    /// assert_eq!(analysis.verdict.exhausted(), Some(Resource::States));
    /// ```
    pub fn limits(mut self, limits: RunLimits) -> AnalyzerBuilder {
        self.limits = limits;
        self
    }

    /// Attaches a [`Tracer`]: every run emits phase spans (compile,
    /// search, matrix cells, FD checks) to it; the work counts stay in
    /// each result's [`regtree_runtime::RunMetrics`]. Without a tracer each
    /// span site is a null check — see [`regtree_runtime::trace`].
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{parse_fd, update_class_from_edges, Analyzer, SpanKind, SummarySink};
    /// use regtree_alphabet::Alphabet;
    /// use std::sync::Arc;
    ///
    /// let a = Alphabet::new();
    /// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
    /// let class = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
    ///
    /// let sink = Arc::new(SummarySink::new());
    /// let analyzer = Analyzer::builder().tracer(sink.clone()).build();
    /// analyzer.independence(&fd, &class);
    /// assert_eq!(sink.summary().span(SpanKind::IcSearch).count, 1);
    /// ```
    pub fn tracer(mut self, tracer: Arc<dyn Tracer>) -> AnalyzerBuilder {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the analyzer.
    pub fn build(self) -> Analyzer {
        Analyzer {
            schema: self.schema,
            limits: self.limits,
            trace: self.tracer.map(TraceHandle::new).unwrap_or_default(),
            patterns: Mutex::new(HashMap::new()),
        }
    }
}

/// Per-call overrides of an [`Analyzer`]'s run governance: tighter (or
/// different) [`RunLimits`] and a dedicated [`CancelToken`] for one call,
/// while the parsed schema and the pattern cache stay shared.
///
/// This is what lets a long-lived service hold one `Analyzer` per session
/// and still give every request its own budget and cancellation scope.
/// Absent limits fall back to the analyzer's builder-time limits; without a
/// token the call cannot be cancelled.
///
/// ```
/// use regtree_core::{parse_fd, update_class_from_edges, Analyzer};
/// use regtree_core::{CancelToken, Resource, RunLimits, RunOverrides};
/// use regtree_alphabet::Alphabet;
///
/// let a = Alphabet::new();
/// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
/// let reprice = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
/// let analyzer = Analyzer::builder().build();
///
/// // A pre-cancelled request aborts immediately…
/// let token = CancelToken::new();
/// token.cancel();
/// let run = RunOverrides::new().cancel_token(token);
/// let analysis = analyzer.independence_with(&fd, &reprice, &run);
/// assert_eq!(analysis.verdict.exhausted(), Some(Resource::Cancelled));
///
/// // …while the analyzer itself is untouched for the next caller.
/// assert!(!analyzer.independence(&fd, &reprice).verdict.is_independent());
/// ```
#[derive(Clone, Default)]
pub struct RunOverrides {
    limits: Option<RunLimits>,
    cancel: Option<CancelToken>,
}

impl RunOverrides {
    /// No overrides: the call runs under the analyzer's own configuration.
    pub fn new() -> RunOverrides {
        RunOverrides::default()
    }

    /// Budgets for this call, replacing the analyzer's limits.
    pub fn limits(mut self, limits: RunLimits) -> RunOverrides {
        self.limits = Some(limits);
        self
    }

    /// Cancellation token for this call. Cancelling it aborts the call's
    /// in-flight matrix cells and FD checks at their next checkpoint.
    pub fn cancel_token(mut self, token: CancelToken) -> RunOverrides {
        self.cancel = Some(token);
        self
    }
}

/// A reusable, thread-safe front end over independence analysis, batch
/// matrices, and FD satisfaction checking. See the [module docs](self).
///
/// # Schema contract
///
/// [`AnalyzerBuilder::build`] is infallible: an analyzer without a schema
/// is fully functional, running every analysis schema-free (all documents
/// admitted). The entry point that *requires* a schema,
/// [`Analyzer::validate`], returns the typed [`Error::NoSchema`] instead of
/// panicking, so embedding services can map the condition to a protocol
/// error.
pub struct Analyzer {
    schema: Option<Schema>,
    limits: RunLimits,
    trace: TraceHandle,
    /// Compiled pattern automata, keyed by structural identity so distinct
    /// but identical `Fd`/`UpdateClass` values share one compilation.
    patterns: Mutex<HashMap<PatternKey, Arc<PatternAutomaton>>>,
}

impl Analyzer {
    /// Entry point: `Analyzer::builder().schema(s).limits(l).build()`.
    pub fn builder() -> AnalyzerBuilder {
        AnalyzerBuilder::new()
    }

    /// The schema analyses run against, if any.
    #[cfg(test)]
    pub(crate) fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// Compiled patterns currently cached (observability/test hook).
    pub fn cached_patterns(&self) -> usize {
        self.patterns.lock().len()
    }

    /// Compiles (or recalls) the automaton of `pattern`.
    fn pattern_automaton(
        &self,
        pattern: &RegularTreePattern,
        marked: bool,
    ) -> Arc<PatternAutomaton> {
        let key: PatternKey = (
            pattern.template().sketch(),
            pattern.selected().iter().map(|w| w.0).collect(),
            marked,
        );
        if let Some(hit) = self.patterns.lock().get(&key) {
            return Arc::clone(hit);
        }
        // Compile outside the lock: compilation can be slow and concurrent
        // misses for the same key are idempotent.
        let compiled = Arc::new(compile_pattern(pattern, marked));
        Arc::clone(self.patterns.lock().entry(key).or_insert(compiled))
    }

    /// The limits and cancel token effective for one call: the override
    /// limits when present, the analyzer's otherwise, and the call's token.
    fn effective<'a>(&'a self, run: &'a RunOverrides) -> (&'a RunLimits, Option<&'a CancelToken>) {
        (
            run.limits.as_ref().unwrap_or(&self.limits),
            run.cancel.as_ref(),
        )
    }

    /// A per-run budget honoring the effective limits, cancel token and
    /// the analyzer's trace handle.
    fn budget(&self, run: &RunOverrides) -> Budget {
        let (limits, cancel) = self.effective(run);
        let mut b = Budget::new(limits).with_trace(self.trace.clone());
        if let Some(c) = cancel {
            b = b.with_cancel(c.clone());
        }
        b
    }

    /// Validates `doc` against the analyzer's schema.
    ///
    /// Returns [`Error::NoSchema`] when the analyzer was built without a
    /// schema and [`Error::Validation`] when the document does not conform
    /// — never panics. See the [schema contract](Analyzer#schema-contract).
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{Analyzer, Error};
    /// use regtree_alphabet::Alphabet;
    /// use regtree_xml::parse_document;
    ///
    /// let a = Alphabet::new();
    /// let doc = parse_document(&a, "<catalog></catalog>").unwrap();
    /// let bare = Analyzer::builder().build();
    /// assert!(matches!(bare.validate(&doc), Err(Error::NoSchema)));
    /// ```
    pub fn validate(&self, doc: &Document) -> Result<(), Error> {
        self.schema.as_ref().ok_or(Error::NoSchema)?.validate(doc)?;
        Ok(())
    }

    /// Runs the independence criterion for `fd` against `class` under the
    /// analyzer's schema and budgets.
    ///
    /// Under unlimited limits the verdict is exact for the criterion:
    /// `tests/ic_lazy_parity.rs` checks it against the eager product of
    /// `regtree-oracle`. Under finite budgets an undecided run returns
    /// `Verdict::Unknown { exhausted: Some(resource) }` instead of running
    /// to completion. [`IndependenceAnalysis::metrics`] is always populated.
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{parse_fd, update_class_from_edges, Analyzer};
    /// use regtree_alphabet::Alphabet;
    ///
    /// let a = Alphabet::new();
    /// // catalog : item/sku -> item/price
    /// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
    /// let analyzer = Analyzer::builder().build();
    ///
    /// // Restocking never touches sku or price: provably independent.
    /// let restock = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
    /// assert!(analyzer.independence(&fd, &restock).verdict.is_independent());
    ///
    /// // Repricing rewrites the FD's target: the criterion finds a witness.
    /// let reprice = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
    /// assert!(!analyzer.independence(&fd, &reprice).verdict.is_independent());
    /// ```
    pub fn independence(&self, fd: &Fd, class: &UpdateClass) -> IndependenceAnalysis {
        self.independence_with(fd, class, &RunOverrides::default())
    }

    /// [`Analyzer::independence`] with per-call [`RunOverrides`]: this
    /// request runs under its own limits/cancel token while the compiled
    /// schema and pattern caches stay shared.
    pub fn independence_with(
        &self,
        fd: &Fd,
        class: &UpdateClass,
        run: &RunOverrides,
    ) -> IndependenceAnalysis {
        let compile = Stopwatch::start();
        let inputs = {
            let _span = self.trace.span(SpanKind::Compile, "independence patterns");
            IcInputs::new(
                vec![self.pattern_automaton(fd.pattern(), true)],
                vec![self.pattern_automaton(class.pattern(), false)],
                self.schema.as_ref(),
                &[0],
            )
        };
        let budget = self.budget(run);
        check_independence_governed(&inputs, (0, 0), class, budget, compile.elapsed_nanos())
    }

    /// Runs the criterion for every (FD, class) pair in parallel, sharing
    /// one `A_S` compiled for the call, cached pattern compilations, one
    /// guard-minterm partition, and — when a deadline is set — one
    /// wall-clock budget for the whole matrix (count caps apply per cell).
    /// Identical rows or columns run once; their twins report
    /// [`crate::CellProvenance::ReusedFrom`].
    ///
    /// Cancellation (via [`RunOverrides::cancel_token`] on
    /// [`Analyzer::matrix_with`]) aborts remaining cells; the returned
    /// matrix still has every cell, with aborted ones reporting
    /// `Unknown { exhausted: Some(Cancelled) }`.
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{parse_fd, update_class_from_edges, Analyzer};
    /// use regtree_alphabet::Alphabet;
    ///
    /// let a = Alphabet::new();
    /// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
    /// let restock = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
    /// let reprice = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
    ///
    /// let analyzer = Analyzer::builder().build();
    /// let matrix = analyzer.matrix(
    ///     &[("price", &fd)],
    ///     &[("restock", &restock), ("reprice", &reprice)],
    /// );
    /// assert!(matrix.independent(0, 0));
    /// assert!(!matrix.independent(0, 1));
    /// assert_eq!(matrix.recheck_count(), 1);
    /// ```
    pub fn matrix(
        &self,
        fds: &[(&str, &Fd)],
        classes: &[(&str, &UpdateClass)],
    ) -> IndependenceMatrix {
        self.matrix_with(fds, classes, &RunOverrides::default())
    }

    /// [`Analyzer::matrix`] with per-call [`RunOverrides`].
    pub fn matrix_with(
        &self,
        fds: &[(&str, &Fd)],
        classes: &[(&str, &UpdateClass)],
        run: &RunOverrides,
    ) -> IndependenceMatrix {
        self.run_matrix(fds, classes, run, None)
    }

    /// Like [`Analyzer::matrix`], but reasons about the FD *set* first:
    /// rows implied by the rest ([`FdSet::minimize`], run under the
    /// call's limits and cancel token) never reach the engine and
    /// report [`crate::CellProvenance::ImpliedRow`]. The kept rows run
    /// through the same driver as [`Analyzer::matrix`], so the only extra
    /// cost is the closure.
    ///
    /// The pruned matrix has the same shape as the unpruned one (every FD
    /// keeps its row), and every kept-row cell equals the unpruned cell.
    /// Dropping implied rows is sound for the *set-invariant* deployment —
    /// the FD set held before the update, so re-verifying the kept core
    /// re-establishes the dropped FDs — not because implied rows would be
    /// individually independent; accordingly they are excluded from
    /// [`IndependenceMatrix::fds_to_recheck`] but never claimed
    /// independent.
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{parse_fd, update_class_from_edges, Analyzer, CellProvenance};
    /// use regtree_alphabet::Alphabet;
    ///
    /// let a = Alphabet::new();
    /// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
    /// // Same FD weakened with an extra condition: implied, hence pruned.
    /// let weaker = parse_fd(&a, "/catalog : item/sku, item/name -> item/price").unwrap();
    /// let reprice = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
    ///
    /// let analyzer = Analyzer::builder().build();
    /// let m = analyzer.matrix_pruned(
    ///     &[("price", &fd), ("price-weak", &weaker)],
    ///     &[("reprice", &reprice)],
    /// );
    /// assert_eq!(m.cell(1, 0).provenance, CellProvenance::ImpliedRow { by: vec![0] });
    /// // Only the implier needs a recheck after a reprice.
    /// assert_eq!(m.fds_to_recheck(0), vec![0]);
    /// assert_eq!(m.computed_count(), 1);
    /// ```
    pub fn matrix_pruned(
        &self,
        fds: &[(&str, &Fd)],
        classes: &[(&str, &UpdateClass)],
    ) -> IndependenceMatrix {
        self.matrix_pruned_with(fds, classes, &RunOverrides::default())
    }

    /// [`Analyzer::matrix_pruned`] with per-call [`RunOverrides`] (the
    /// overridden limits also govern the implication closure, and the
    /// overridden cancel token stops it).
    pub fn matrix_pruned_with(
        &self,
        fds: &[(&str, &Fd)],
        classes: &[(&str, &UpdateClass)],
        run: &RunOverrides,
    ) -> IndependenceMatrix {
        let mut set = FdSet::new();
        for (name, fd) in fds {
            set.push(*name, (*fd).clone());
        }
        let minimization = set.minimize_governed(self.budget(run));
        self.run_matrix(fds, classes, run, Some(&minimization))
    }

    /// Compiles every row and column (through the pattern cache), prepares
    /// the IC inputs and runs the one matrix driver; with a `minimization`,
    /// only its kept rows reach the engine.
    fn run_matrix(
        &self,
        fds: &[(&str, &Fd)],
        classes: &[(&str, &UpdateClass)],
        run: &RunOverrides,
        minimization: Option<&Minimization>,
    ) -> IndependenceMatrix {
        let kept: Vec<usize> = match minimization {
            Some(m) => m.kept.clone(),
            None => (0..fds.len()).collect(),
        };
        let compile = Stopwatch::start();
        let inputs = {
            let _span = self.trace.span(SpanKind::Compile, "matrix rows/columns");
            IcInputs::new(
                fds.iter()
                    .map(|(_, fd)| self.pattern_automaton(fd.pattern(), true))
                    .collect(),
                classes
                    .iter()
                    .map(|(_, class)| self.pattern_automaton(class.pattern(), false))
                    .collect(),
                self.schema.as_ref(),
                &kept,
            )
        };
        let compile_nanos = compile.elapsed_nanos();
        let (limits, cancel) = self.effective(run);
        analyze_matrix_governed(
            fds,
            classes,
            minimization,
            &inputs,
            limits,
            cancel,
            &self.trace,
            compile_nanos,
        )
    }

    /// Checks every FD of `fds` on `doc` in parallel under the analyzer's
    /// budgets (deadline shared by the batch, count caps per FD). Outcomes
    /// are in input order; the report carries merged work counters.
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{parse_fd, Analyzer};
    /// use regtree_alphabet::Alphabet;
    /// use regtree_xml::parse_document;
    ///
    /// let a = Alphabet::new();
    /// let fd = parse_fd(&a, "/s : i/k -> i/v").unwrap();
    /// let doc = parse_document(
    ///     &a,
    ///     "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>1</v></i></s>",
    /// ).unwrap();
    ///
    /// let report = Analyzer::builder().build().check_fds(&[fd], &doc);
    /// assert!(report.all_satisfied());
    /// assert!(report.metrics.dfa_steps > 0);
    /// ```
    pub fn check_fds(&self, fds: &[Fd], doc: &Document) -> FdBatchReport {
        self.check_fds_with(fds, doc, &RunOverrides::default())
    }

    /// [`Analyzer::check_fds`] with per-call [`RunOverrides`].
    pub fn check_fds_with(&self, fds: &[Fd], doc: &Document, run: &RunOverrides) -> FdBatchReport {
        let (limits, cancel) = self.effective(run);
        check_fds_governed(fds, doc, limits, cancel, &self.trace)
    }

    /// Builds an [`IncrementalChecker`] over `fds` and `vdoc` that runs its
    /// initial verification and every later recheck under the analyzer's
    /// limits and tracer. It starts without a cancel token; a caller that
    /// cancels per request sets one with
    /// [`IncrementalChecker::set_cancel`]. The checker is the stateful
    /// counterpart of [`Analyzer::check_fds`] for workloads that stream
    /// updates against one document (see [`crate::incremental`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{parse_fd, Analyzer};
    /// use regtree_alphabet::Alphabet;
    /// use regtree_xml::{parse_document, VersionedDocument};
    ///
    /// let a = Alphabet::new();
    /// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
    /// let doc = parse_document(&a, "<catalog></catalog>").unwrap();
    /// let vdoc = VersionedDocument::new(doc);
    /// let checker = Analyzer::builder().build().incremental_checker(vec![fd], &vdoc);
    /// assert!(checker.all_satisfied());
    /// ```
    pub fn incremental_checker(
        &self,
        fds: Vec<Fd>,
        vdoc: &VersionedDocument,
    ) -> IncrementalChecker {
        IncrementalChecker::with_governance(fds, vdoc, self.limits, self.trace.clone(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::Verdict;
    use crate::textfd::parse_fd;
    use crate::update::update_class_from_edges;
    use regtree_alphabet::Alphabet;
    use regtree_runtime::Resource;
    use regtree_xml::parse_document;

    fn fd_price(a: &Alphabet) -> Fd {
        parse_fd(a, "/catalog : item/sku -> item/price").unwrap()
    }

    #[test]
    fn independence_matches_free_function() {
        let a = Alphabet::new();
        let fd = fd_price(&a);
        let indep = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
        let dep = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
        let an = Analyzer::builder().build();
        assert!(an.independence(&fd, &indep).verdict.is_independent());
        assert!(!an.independence(&fd, &dep).verdict.is_independent());
    }

    #[test]
    fn pattern_cache_is_shared_across_calls() {
        let a = Alphabet::new();
        let fd = fd_price(&a);
        let class = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
        let an = Analyzer::builder().build();
        an.independence(&fd, &class);
        let after_first = an.cached_patterns();
        assert_eq!(after_first, 2, "one FD + one class compilation");
        an.independence(&fd, &class);
        assert_eq!(an.cached_patterns(), after_first, "second call hits cache");
        // The matrix reuses the same cache entries.
        an.matrix(&[("p", &fd)], &[("s", &class)]);
        assert_eq!(an.cached_patterns(), after_first);
    }

    #[test]
    fn matrix_interner_matches_per_cell_results() {
        use crate::api::MatrixResponse;
        use crate::matrix::CellProvenance;
        let a = Alphabet::new();
        // Row 2 duplicates row 0: the pattern cache maps both to the same
        // compiled Arc, so the matrix runs each of their cells once, on the
        // first row, and copies the verdict to the twin.
        let fd0 = fd_price(&a);
        let fd1 = parse_fd(&a, "/catalog : item/sku -> item/stock").unwrap();
        let fd2 = fd_price(&a);
        let c0 = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
        let c1 = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
        let c2 = update_class_from_edges(&a, &["catalog/item/sku"]).unwrap();
        let an = Analyzer::builder().build();
        let fds = [("f0", &fd0), ("f1", &fd1), ("f2", &fd2)];
        let classes = [("c0", &c0), ("c1", &c1), ("c2", &c2)];
        let m = an.matrix(&fds, &classes);
        assert_eq!(m.computed_count(), 6, "{m}");
        assert_eq!(m.reused_count(), 3, "{m}");
        for j in 0..3 {
            assert_eq!(
                (&m.cell(0, j).provenance, &m.cell(2, j).provenance),
                (
                    &CellProvenance::Computed,
                    &CellProvenance::ReusedFrom { fd: 0 }
                ),
                "column {j}"
            );
            assert_eq!(m.cell(2, j).metrics.verdicts_reused, 1);
        }
        // Every cell agrees with a fresh per-cell engine run (no sharing).
        for (i, fd) in [&fd0, &fd1, &fd2].into_iter().enumerate() {
            for (j, class) in [&c0, &c1, &c2].into_iter().enumerate() {
                let solo = Analyzer::builder().build().independence(fd, class);
                assert_eq!(
                    m.cell(i, j).verdict.is_independent(),
                    solo.verdict.is_independent(),
                    "cell ({i}, {j}) disagrees with the per-cell engine"
                );
            }
        }

        // Twin columns: column 1 repeats column 0, so every cell of column 1
        // reuses the cell of its own row in column 0.
        let twin = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
        let m = an.matrix(&fds[..2], &[("c1", &c1), ("twin", &twin)]);
        for i in 0..2 {
            assert_eq!(m.cell(i, 0).provenance, CellProvenance::Computed);
            assert_eq!(
                m.cell(i, 1).provenance,
                CellProvenance::ReusedFrom { fd: i }
            );
            assert_eq!(m.independent(i, 1), m.independent(i, 0));
        }

        // Provenance does not depend on which worker finishes first.
        let render = || {
            MatrixResponse::from_matrix(&an.matrix(&fds, &classes))
                .to_json()
                .to_compact()
        };
        let first = render();
        for _ in 0..20 {
            assert_eq!(render(), first);
        }
    }

    #[test]
    fn metrics_are_populated() {
        let a = Alphabet::new();
        let fd = fd_price(&a);
        let class = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
        let an = Analyzer::builder().build();
        let r = an.independence(&fd, &class);
        assert!(r.metrics.states_interned > 0, "{:?}", r.metrics);
        assert!(r.metrics.frontier_pushes > 0, "{:?}", r.metrics);
        assert!(r.metrics.guard_intersections > 0, "{:?}", r.metrics);
    }

    #[test]
    fn one_state_budget_reports_exhaustion_not_a_wrong_verdict() {
        let a = Alphabet::new();
        let fd = fd_price(&a);
        let class = update_class_from_edges(&a, &["catalog/item/price"]).unwrap();
        let an = Analyzer::builder()
            .limits(RunLimits::default().with_max_states(1))
            .build();
        match an.independence(&fd, &class).verdict {
            Verdict::Unknown {
                exhausted: Some(Resource::States),
                ..
            } => {}
            // A root hit within one state would also be sound, but this
            // instance needs several states: anything else is a bug.
            other => panic!("expected states exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn check_fds_reports_outcomes_in_order() {
        let a = Alphabet::new();
        let fd = fd_price(&a);
        let doc = parse_document(
            &a,
            "<catalog><item><sku>1</sku><price>2</price></item>\
             <item><sku>1</sku><price>3</price></item></catalog>",
        )
        .unwrap();
        let an = Analyzer::builder().build();
        let report = an.check_fds(&[fd], &doc);
        assert_eq!(report.outcomes.len(), 1);
        assert!(!report.all_satisfied());
        assert!(report.metrics.dfa_steps > 0);
    }

    #[test]
    fn schema_is_compiled_once_and_used() {
        let a = Alphabet::new();
        let schema = Schema::parse(
            &a,
            "root: catalog\ncatalog: item*\nitem: sku price\nsku: #text\nprice: #text\n",
        )
        .unwrap();
        let fd = fd_price(&a);
        let class = update_class_from_edges(&a, &["catalog/item/stock"]).unwrap();
        let an = Analyzer::builder().schema(schema).build();
        assert!(an.schema().is_some());
        // `stock` cannot occur under the schema at all: still independent.
        assert!(an.independence(&fd, &class).verdict.is_independent());
    }
}
