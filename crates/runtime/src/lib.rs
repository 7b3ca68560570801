//! `regtree-runtime` — resource governance for the analysis engines.
//!
//! The independence criterion is PSPACE-hard in general (paper
//! Proposition 1), so a deployment that answers queries for arbitrary
//! FD/update/schema inputs must bound every fixpoint loop: otherwise one
//! adversarial (or merely large) instance hangs a worker or blows its
//! memory. This crate provides the small, dependency-free vocabulary the
//! whole workspace shares:
//!
//! * [`RunLimits`] — declarative budgets: a wall-clock deadline, caps on
//!   interned product states, memoized frontier/candidate entries, and
//!   worklist (frontier) pushes;
//! * [`CancelToken`] — cooperative cancellation, shared across threads, so
//!   batch callers can abort remaining matrix cells early;
//! * [`RunMetrics`] — the counters every analysis reports as a first-class
//!   output (states interned, transitions fired, guard-minterm
//!   intersections, DFA steps, frontier pushes, per-phase wall time), each
//!   under the one name [`RunMetrics::fields`] gives it;
//! * [`Budget`] — the per-run governor the engines consult cooperatively:
//!   each counting call is a couple of integer compares, and the deadline /
//!   cancellation flags are polled on an amortized tick so the hot loops
//!   pay essentially nothing when limits are unlimited.
//!
//! A run that exhausts a budget reports *which* resource ran out via
//! [`Resource`]; engines translate that into a graceful
//! `Verdict::Unknown { exhausted }` instead of a wrong answer or a hang.
//!
//! The [`trace`] module adds the timing counterpart: a [`Tracer`] attached
//! to a [`Budget`] (via [`TraceHandle`]) receives every engine phase as a
//! span, at zero cost when disabled. Spans carry time; counts live only in
//! [`RunMetrics`].

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod trace;

pub use trace::{
    ChromeTraceSink, SpanGuard, SpanId, SpanKind, SpanStats, SummarySink, TraceFormat, TraceHandle,
    TraceSummary, Tracer,
};

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The resource whose budget a run exhausted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum Resource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cap on interned product/tree states was reached.
    States,
    /// The cap on memoized entries (frontier tuples, candidate lists) was
    /// reached.
    Memo,
    /// The cap on worklist/frontier pushes was reached.
    Frontier,
    /// The caller cancelled the run via a [`CancelToken`].
    Cancelled,
}

impl Resource {
    /// Short machine-readable name (used by the CLI's JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Resource::Deadline => "deadline",
            Resource::States => "states",
            Resource::Memo => "memo",
            Resource::Frontier => "frontier",
            Resource::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Deadline => write!(f, "wall-clock deadline exceeded"),
            Resource::States => write!(f, "interned-state budget exhausted"),
            Resource::Memo => write!(f, "memo-entry budget exhausted"),
            Resource::Frontier => write!(f, "frontier-push budget exhausted"),
            Resource::Cancelled => write!(f, "cancelled by caller"),
        }
    }
}

/// Declarative resource budgets of one analysis run.
///
/// The default is *unlimited* — identical behavior to the ungoverned
/// engines. Limits compose: the first resource to run out decides the
/// [`Resource`] reported. In batch operations (matrix cells, FD batches)
/// the deadline is shared by the whole batch while the count caps apply to
/// each unit of work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunLimits {
    /// Wall-clock budget for the run (measured from the run's start).
    pub deadline: Option<Duration>,
    /// Maximum product/tree states interned during a search.
    pub max_states: Option<u64>,
    /// Maximum memoized entries (frontier tuples, candidate lists).
    pub max_memo: Option<u64>,
    /// Maximum worklist/frontier pushes.
    pub max_frontier: Option<u64>,
}

impl RunLimits {
    /// No limits: engines behave exactly like their ungoverned versions.
    pub const UNLIMITED: RunLimits = RunLimits {
        deadline: None,
        max_states: None,
        max_memo: None,
        max_frontier: None,
    };

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(self, ms: u64) -> Self {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Caps the number of interned states.
    pub fn with_max_states(mut self, n: u64) -> Self {
        self.max_states = Some(n);
        self
    }

    /// Caps the number of memoized entries.
    pub fn with_max_memo(mut self, n: u64) -> Self {
        self.max_memo = Some(n);
        self
    }

    /// Caps the number of frontier pushes.
    pub fn with_max_frontier(mut self, n: u64) -> Self {
        self.max_frontier = Some(n);
        self
    }
}

/// Cooperative cancellation flag, cheap to clone and share across threads.
///
/// Engines poll the token on the same amortized tick as the deadline; a
/// cancelled run reports [`Resource::Cancelled`]. Cancellation is
/// *cooperative*: work in flight finishes its current slice (a few hundred
/// loop iterations) before observing the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Counters and wall times reported by a governed run.
///
/// All counters are cumulative over the run (for batch results, summed over
/// the units of work). Fields are plain `u64`s so callers can serialize
/// them without a serde dependency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Product/tree states interned (realized) by emptiness searches.
    pub states_interned: u64,
    /// Transition firings recorded (acceptances that realized a state or
    /// re-derived one).
    pub transitions_fired: u64,
    /// Guard intersections attempted over label-partition minterms.
    pub guard_intersections: u64,
    /// Deterministic edge-automaton steps taken by pattern evaluation.
    pub dfa_steps: u64,
    /// Worklist/frontier pushes across all incremental simulations.
    pub frontier_pushes: u64,
    /// Memoized entries created (frontier tuples, candidate lists).
    pub memo_entries: u64,
    /// Memoized results reused instead of recomputed.
    pub memo_hits: u64,
    /// Verdicts reused instead of recomputed: matrix cells sharing an
    /// identical compiled `(row, column)` pair with an engine-run cell, and
    /// FD rechecks an incremental checker carried forward.
    pub verdicts_reused: u64,
    /// Update operations applied as in-place deltas to a versioned document
    /// (no full-tree clone).
    pub deltas_applied: u64,
    /// FD rechecks scoped to the dirty region of a delta (affected-localized).
    pub rechecks_localized: u64,
    /// FD rechecks that had to run over the whole document (affected-global).
    pub rechecks_full: u64,
    /// Wall time of the compile phase (schema/pattern automata), in ns.
    pub compile_nanos: u64,
    /// Wall time of the search/fixpoint phase, in ns.
    pub search_nanos: u64,
}

impl RunMetrics {
    /// Every counter under its one name, in struct order: the `--stats`
    /// line, the JSON `metrics` object and the bench counters all use these
    /// names.
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_runtime::RunMetrics;
    /// let m = RunMetrics { states_interned: 3, ..RunMetrics::default() };
    /// assert_eq!(m.fields()[0], ("states_interned", 3));
    /// assert!(m.to_string().starts_with("states_interned=3 "));
    /// ```
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("states_interned", self.states_interned),
            ("transitions_fired", self.transitions_fired),
            ("guard_intersections", self.guard_intersections),
            ("dfa_steps", self.dfa_steps),
            ("frontier_pushes", self.frontier_pushes),
            ("memo_entries", self.memo_entries),
            ("memo_hits", self.memo_hits),
            ("verdicts_reused", self.verdicts_reused),
            ("deltas_applied", self.deltas_applied),
            ("rechecks_localized", self.rechecks_localized),
            ("rechecks_full", self.rechecks_full),
            ("compile_nanos", self.compile_nanos),
            ("search_nanos", self.search_nanos),
        ]
    }

    /// Accumulates `other` into `self` (counters add, wall times add).
    pub fn merge(&mut self, other: &RunMetrics) {
        self.states_interned += other.states_interned;
        self.transitions_fired += other.transitions_fired;
        self.guard_intersections += other.guard_intersections;
        self.dfa_steps += other.dfa_steps;
        self.frontier_pushes += other.frontier_pushes;
        self.memo_entries += other.memo_entries;
        self.memo_hits += other.memo_hits;
        self.verdicts_reused += other.verdicts_reused;
        self.deltas_applied += other.deltas_applied;
        self.rechecks_localized += other.rechecks_localized;
        self.rechecks_full += other.rechecks_full;
        self.compile_nanos += other.compile_nanos;
        self.search_nanos += other.search_nanos;
    }
}

impl fmt::Display for RunMetrics {
    /// `name=value` for every [`RunMetrics::fields`] entry, space-separated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

/// How many cooperative ticks pass between deadline/cancellation polls.
/// Counting calls are pure integer compares; only every `POLL_MASK + 1`-th
/// tick touches `Instant::now()` or the atomic flag.
const POLL_MASK: u32 = 0xFF;

/// The per-run governor the engines consult cooperatively.
///
/// A `Budget` owns the run's [`RunMetrics`] and enforces its
/// [`RunLimits`]: each `on_*` call bumps the corresponding counter and
/// returns `Err(resource)` once a cap is crossed. Deadline and
/// cancellation are polled on an amortized tick (every 256 counting calls),
/// so governed hot loops stay within measurement noise of the ungoverned
/// ones.
#[derive(Debug)]
pub struct Budget {
    deadline_at: Option<Instant>,
    max_states: u64,
    max_memo: u64,
    max_frontier: u64,
    cancel: Option<CancelToken>,
    metrics: RunMetrics,
    trace: TraceHandle,
    tick: u32,
}

impl Budget {
    /// A governor for `limits`, with the deadline measured from now.
    pub fn new(limits: &RunLimits) -> Budget {
        Budget {
            deadline_at: limits.deadline.map(|d| Instant::now() + d),
            max_states: limits.max_states.unwrap_or(u64::MAX),
            max_memo: limits.max_memo.unwrap_or(u64::MAX),
            max_frontier: limits.max_frontier.unwrap_or(u64::MAX),
            cancel: None,
            metrics: RunMetrics::default(),
            trace: TraceHandle::disabled(),
            tick: 0,
        }
    }

    /// A governor with no limits (counters only).
    pub fn unlimited() -> Budget {
        Budget::new(&RunLimits::UNLIMITED)
    }

    /// Attaches a cancellation token (polled with the deadline).
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Overrides the absolute deadline instant. Batch drivers use this to
    /// share one deadline across many per-unit budgets.
    pub fn with_deadline_at(mut self, at: Option<Instant>) -> Budget {
        self.deadline_at = at;
        self
    }

    /// The absolute deadline instant, if any.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline_at
    }

    /// Attaches a trace handle: the engines a budget governs open their
    /// phase spans on it ([`Budget::trace`]). Counter bumps are not traced;
    /// they stay in [`Budget::metrics`].
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_runtime::{Budget, SpanKind, SummarySink, TraceHandle};
    /// use std::sync::Arc;
    ///
    /// let sink = Arc::new(SummarySink::new());
    /// let mut budget = Budget::unlimited().with_trace(TraceHandle::new(sink.clone()));
    /// drop(budget.trace().span(SpanKind::IcSearch, ""));
    /// budget.on_frontier_push().unwrap();
    /// assert_eq!(sink.summary().span(SpanKind::IcSearch).count, 1);
    /// assert_eq!(budget.metrics().frontier_pushes, 1);
    /// ```
    pub fn with_trace(mut self, trace: TraceHandle) -> Budget {
        self.trace = trace;
        self
    }

    /// The attached trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Read access to the metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consumes the governor, yielding the final metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    #[inline]
    fn poll(&mut self) -> Result<(), Resource> {
        self.tick = self.tick.wrapping_add(1);
        if self.tick & POLL_MASK != 0 {
            return Ok(());
        }
        self.poll_now()
    }

    /// Unconditionally polls the deadline and cancellation flag.
    #[inline]
    pub fn poll_now(&mut self) -> Result<(), Resource> {
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return Err(Resource::Cancelled);
            }
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Err(Resource::Deadline);
            }
        }
        Ok(())
    }

    /// A cooperative checkpoint with no counter attached (loop headers).
    #[inline]
    pub fn checkpoint(&mut self) -> Result<(), Resource> {
        self.poll()
    }

    /// Records one interned state; errs when the state cap is crossed.
    #[inline]
    pub fn on_state(&mut self) -> Result<(), Resource> {
        self.metrics.states_interned += 1;
        if self.metrics.states_interned > self.max_states {
            return Err(Resource::States);
        }
        self.poll()
    }

    /// Records one memoized entry; errs when the memo cap is crossed.
    #[inline]
    pub fn on_memo_entry(&mut self) -> Result<(), Resource> {
        self.metrics.memo_entries += 1;
        if self.metrics.memo_entries > self.max_memo {
            return Err(Resource::Memo);
        }
        self.poll()
    }

    /// Records one reused memoized result (counter only, never errs).
    #[inline]
    pub fn on_memo_hit(&mut self) {
        self.metrics.memo_hits += 1;
    }

    /// Records one frontier push; errs when the frontier cap is crossed.
    #[inline]
    pub fn on_frontier_push(&mut self) -> Result<(), Resource> {
        self.metrics.frontier_pushes += 1;
        if self.metrics.frontier_pushes > self.max_frontier {
            return Err(Resource::Frontier);
        }
        self.poll()
    }

    /// Records one transition firing (counter only, never errs).
    #[inline]
    pub fn on_transition(&mut self) {
        self.metrics.transitions_fired += 1;
    }

    /// Records one guard intersection attempt (counter only, never errs).
    #[inline]
    pub fn on_guard_intersection(&mut self) {
        self.metrics.guard_intersections += 1;
    }

    /// Records a batch of DFA steps, then polls (counter plus checkpoint).
    #[inline]
    pub fn on_dfa_steps(&mut self, n: u64) -> Result<(), Resource> {
        self.metrics.dfa_steps += n;
        self.poll()
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// A tiny stopwatch for phase wall times.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Elapsed nanoseconds since `start`, saturated into a `u64`.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_errs() {
        let mut b = Budget::unlimited();
        for _ in 0..100_000 {
            b.on_state().unwrap();
            b.on_frontier_push().unwrap();
            b.on_memo_entry().unwrap();
            b.checkpoint().unwrap();
        }
        assert_eq!(b.metrics().states_interned, 100_000);
        assert_eq!(b.metrics().frontier_pushes, 100_000);
    }

    #[test]
    fn state_cap_trips() {
        let mut b = Budget::new(&RunLimits::default().with_max_states(3));
        b.on_state().unwrap();
        b.on_state().unwrap();
        b.on_state().unwrap();
        assert_eq!(b.on_state(), Err(Resource::States));
    }

    #[test]
    fn frontier_and_memo_caps_trip() {
        let mut b = Budget::new(&RunLimits::default().with_max_frontier(1).with_max_memo(1));
        b.on_frontier_push().unwrap();
        assert_eq!(b.on_frontier_push(), Err(Resource::Frontier));
        let mut b = Budget::new(&RunLimits::default().with_max_memo(1));
        b.on_memo_entry().unwrap();
        assert_eq!(b.on_memo_entry(), Err(Resource::Memo));
    }

    #[test]
    fn zero_deadline_trips_on_poll() {
        let mut b = Budget::new(&RunLimits::default().with_deadline(Duration::ZERO));
        assert_eq!(b.poll_now(), Err(Resource::Deadline));
        // Amortized polling observes it within one poll window.
        let mut b = Budget::new(&RunLimits::default().with_deadline(Duration::ZERO));
        let mut tripped = false;
        for _ in 0..=(POLL_MASK as usize + 1) {
            if b.checkpoint().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn cancellation_observed_across_clones() {
        let token = CancelToken::new();
        let mut b = Budget::unlimited().with_cancel(token.clone());
        assert!(b.poll_now().is_ok());
        token.cancel();
        assert_eq!(b.poll_now(), Err(Resource::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn metrics_merge_and_display() {
        let mut a = RunMetrics {
            states_interned: 1,
            dfa_steps: 2,
            ..RunMetrics::default()
        };
        let b = RunMetrics {
            states_interned: 10,
            frontier_pushes: 5,
            ..RunMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.states_interned, 11);
        assert_eq!(a.frontier_pushes, 5);
        assert!(a
            .to_string()
            .starts_with("states_interned=11 transitions_fired=0 "));
        assert!(a.to_string().ends_with(" search_nanos=0"));
    }

    #[test]
    fn limits_builders() {
        let l = RunLimits::default()
            .with_deadline_ms(5)
            .with_max_states(7)
            .with_max_frontier(9)
            .with_max_memo(11);
        assert_eq!(l.deadline, Some(Duration::from_millis(5)));
        assert_eq!(l.max_states, Some(7));
        assert_eq!(l.max_frontier, Some(9));
        assert_eq!(l.max_memo, Some(11));
    }
}
