//! Structured tracing for the analysis engines.
//!
//! [`RunMetrics`](crate::RunMetrics) answers *how much* a run cost; this
//! module answers *where* and *when*. Engines open **spans** ([`SpanKind`])
//! through a [`TraceHandle`]: bracketed phases with wall-clock extent —
//! pattern/schema compilation, the lazy IC product search, its emptiness
//! fixpoint, one FD document check, one matrix cell. Counts stay in
//! `RunMetrics` alone, so a trace holds one begin/end pair per phase
//! however much work the phase did.
//!
//! A [`Tracer`] is any sink for those spans. Tracing is off by default:
//! a disabled [`TraceHandle`] short-circuits on a null check before any
//! dispatch. Two sinks are shipped:
//!
//! * [`ChromeTraceSink`] — records every span and serializes to the
//!   Chrome-trace JSON consumed by `chrome://tracing` and Perfetto (or to
//!   a line-per-record JSONL variant);
//! * [`SummarySink`] — keeps only per-kind aggregates (span counts and
//!   total wall time), cheap enough to leave on in production.
//!
//! # Zero cost when disabled
//!
//! The handle stores `Option<Arc<dyn Tracer>>`; [`TraceHandle::span`] on a
//! disabled handle is one predictable branch and allocates nothing. Spans
//! open once per phase, never inside the engines' hot loops.
//!
//! # Examples
//!
//! ```
//! use regtree_runtime::{Budget, SpanKind, SummarySink, TraceHandle};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(SummarySink::new());
//! let trace = TraceHandle::new(sink.clone());
//! let mut budget = Budget::unlimited().with_trace(trace.clone());
//!
//! {
//!     let _span = budget.trace().span(SpanKind::IcSearch, "fd1 × levels");
//!     budget.on_state().unwrap();
//! }
//!
//! let summary = sink.summary();
//! assert_eq!(summary.span(SpanKind::IcSearch).count, 1);
//! assert_eq!(budget.metrics().states_interned, 1);
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// The phase a [`Tracer`] span brackets.
///
/// # Examples
///
/// ```
/// use regtree_runtime::SpanKind;
/// assert_eq!(SpanKind::IcSearch.name(), "ic_search");
/// assert_eq!(SpanKind::ALL.len(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpanKind {
    /// Schema/pattern automaton compilation (the `Analyzer` cache fill).
    Compile,
    /// One lazy independence-criterion product search.
    IcSearch,
    /// One emptiness fixpoint: the lazy product's, nested in an
    /// [`SpanKind::IcSearch`] span (the reference engines of
    /// `regtree-oracle` emit it too).
    EmptinessFixpoint,
    /// One FD checked against one document.
    FdCheck,
    /// One cell of an FD × update-class independence matrix.
    MatrixCell,
    /// One update applied as a delta to a versioned document.
    DeltaApply,
    /// One FD-set partition into unaffected/localized/global after a delta.
    ScopeClassify,
}

impl SpanKind {
    /// Every span kind, in rendering order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Compile,
        SpanKind::IcSearch,
        SpanKind::EmptinessFixpoint,
        SpanKind::FdCheck,
        SpanKind::MatrixCell,
        SpanKind::DeltaApply,
        SpanKind::ScopeClassify,
    ];

    /// Short machine-readable name (used by trace files and `bench_json.sh`).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compile => "compile",
            SpanKind::IcSearch => "ic_search",
            SpanKind::EmptinessFixpoint => "emptiness_fixpoint",
            SpanKind::FdCheck => "fd_check",
            SpanKind::MatrixCell => "matrix_cell",
            SpanKind::DeltaApply => "delta_apply",
            SpanKind::ScopeClassify => "scope_classify",
        }
    }

    fn index(self) -> usize {
        match self {
            SpanKind::Compile => 0,
            SpanKind::IcSearch => 1,
            SpanKind::EmptinessFixpoint => 2,
            SpanKind::FdCheck => 3,
            SpanKind::MatrixCell => 4,
            SpanKind::DeltaApply => 5,
            SpanKind::ScopeClassify => 6,
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifies one span across its begin/end pair.
///
/// Ids are allocated process-wide by [`TraceHandle::span`], so records from
/// concurrent matrix cells never collide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpanId(pub u64);

/// A sink for spans. Implementations must be thread-safe: matrix analysis
/// opens spans from scoped worker threads concurrently.
///
/// The caller allocates the [`SpanId`] and passes it to both `span_begin`
/// and `span_end`, so fan-out tracers (the CLI tees a [`ChromeTraceSink`]
/// and a [`SummarySink`]) need no id translation.
///
/// # Examples
///
/// A tracer that counts begun spans:
///
/// ```
/// use regtree_runtime::{SpanId, SpanKind, TraceHandle, Tracer};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// #[derive(Default)]
/// struct Counting(AtomicU64);
/// impl Tracer for Counting {
///     fn span_begin(&self, _id: SpanId, _kind: SpanKind, _label: &str) {
///         self.0.fetch_add(1, Ordering::Relaxed);
///     }
///     fn span_end(&self, _id: SpanId, _kind: SpanKind) {}
/// }
///
/// let sink = Arc::new(Counting::default());
/// let trace = TraceHandle::new(sink.clone());
/// drop(trace.span(SpanKind::Compile, "warm the cache"));
/// assert_eq!(sink.0.load(Ordering::Relaxed), 1);
/// ```
pub trait Tracer: Send + Sync {
    /// A span of kind `kind` begins now. `label` narrows the instance
    /// (e.g. `"fd1 × levels"` for a matrix cell).
    fn span_begin(&self, id: SpanId, kind: SpanKind, label: &str);

    /// The span opened under `id` ends now.
    fn span_end(&self, id: SpanId, kind: SpanKind);
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A cheaply clonable, possibly-disabled reference to a [`Tracer`].
///
/// This is what the engines actually hold (inside [`Budget`] and the
/// `Analyzer`): the `Option` means a disabled handle costs one predictable
/// null-check branch per span and allocates nothing.
///
/// [`Budget`]: crate::Budget
///
/// # Examples
///
/// ```
/// use regtree_runtime::{SpanKind, SummarySink, TraceHandle};
/// use std::sync::Arc;
///
/// let disabled = TraceHandle::disabled();
/// assert!(!disabled.is_enabled());
/// drop(disabled.span(SpanKind::Compile, "")); // no-op
///
/// let sink = Arc::new(SummarySink::new());
/// let enabled = TraceHandle::new(sink.clone());
/// drop(enabled.span(SpanKind::Compile, ""));
/// assert_eq!(sink.summary().span(SpanKind::Compile).count, 1);
/// ```
#[derive(Clone, Default)]
pub struct TraceHandle {
    tracer: Option<Arc<dyn Tracer>>,
}

impl TraceHandle {
    /// The disabled handle (every span is a no-op).
    pub fn disabled() -> TraceHandle {
        TraceHandle { tracer: None }
    }

    /// A handle that forwards every record to `tracer`.
    pub fn new(tracer: Arc<dyn Tracer>) -> TraceHandle {
        TraceHandle {
            tracer: Some(tracer),
        }
    }

    /// Is a sink attached?
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a span; it ends when the returned guard drops.
    ///
    /// When disabled this allocates nothing and returns an inert guard.
    #[inline]
    pub fn span(&self, kind: SpanKind, label: &str) -> SpanGuard {
        match &self.tracer {
            None => SpanGuard { open: None },
            Some(t) => {
                let id = SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed));
                t.span_begin(id, kind, label);
                SpanGuard {
                    open: Some((Arc::clone(t), id, kind)),
                }
            }
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// RAII guard returned by [`TraceHandle::span`]; emits the matching
/// `span_end` when dropped, so spans stay balanced on every exit path
/// (including early returns on budget exhaustion).
#[must_use = "the span ends when this guard drops"]
pub struct SpanGuard {
    open: Option<(Arc<dyn Tracer>, SpanId, SpanKind)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, id, kind)) = self.open.take() {
            tracer.span_end(id, kind);
        }
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("enabled", &self.open.is_some())
            .finish()
    }
}

/// On-disk layout written by [`ChromeTraceSink::save_to`].
///
/// # Examples
///
/// ```
/// use regtree_runtime::TraceFormat;
/// assert_eq!(TraceFormat::from_name("chrome"), Some(TraceFormat::Chrome));
/// assert_eq!(TraceFormat::from_name("jsonl"), Some(TraceFormat::Jsonl));
/// assert_eq!(TraceFormat::from_name("xml"), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceFormat {
    /// One JSON document: `{"traceEvents": [...]}` — the Trace Event
    /// Format loaded by `chrome://tracing` and Perfetto.
    Chrome,
    /// One JSON object per line (easier to stream/grep).
    Jsonl,
}

impl TraceFormat {
    /// Parses the CLI spelling (`"chrome"` / `"jsonl"`).
    pub fn from_name(name: &str) -> Option<TraceFormat> {
        match name {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            _ => None,
        }
    }
}

/// One record captured by [`ChromeTraceSink`].
struct ChromeRecord {
    /// Trace Event Format phase: `'B'`egin or `'E'`nd.
    ph: char,
    ts_micros: u64,
    tid: u32,
    name: Cow<'static, str>,
}

#[derive(Default)]
struct ChromeInner {
    records: Vec<ChromeRecord>,
    tids: HashMap<ThreadId, u32>,
}

impl ChromeInner {
    fn tid(&mut self) -> u32 {
        let next = self.tids.len() as u32 + 1;
        *self.tids.entry(std::thread::current().id()).or_insert(next)
    }
}

/// Records every span and serializes them in the [Trace Event Format]
/// understood by `chrome://tracing` and [Perfetto].
///
/// Spans become `B`/`E` pairs. Timestamps are microseconds since the sink
/// was created; worker threads get distinct `tid`s so matrix cells render
/// as parallel tracks.
///
/// [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
/// [Perfetto]: https://ui.perfetto.dev
///
/// # Examples
///
/// ```
/// use regtree_runtime::{ChromeTraceSink, SpanKind, TraceHandle};
/// use std::sync::Arc;
///
/// let sink = Arc::new(ChromeTraceSink::new());
/// let trace = TraceHandle::new(sink.clone());
/// drop(trace.span(SpanKind::Compile, "exam schema"));
///
/// let json = sink.to_chrome_json();
/// assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
/// ```
pub struct ChromeTraceSink {
    start: Instant,
    inner: Mutex<ChromeInner>,
}

impl ChromeTraceSink {
    /// An empty sink; timestamps count from now.
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink {
            start: Instant::now(),
            inner: Mutex::new(ChromeInner::default()),
        }
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().records.len()
    }

    /// Has nothing been captured?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, ph: char, name: Cow<'static, str>) {
        let ts_micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut inner = self.inner.lock().unwrap();
        let tid = inner.tid();
        inner.records.push(ChromeRecord {
            ph,
            ts_micros,
            tid,
            name,
        });
    }

    fn write_record(w: &mut impl Write, r: &ChromeRecord) -> io::Result<()> {
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
            escape_json(&r.name),
            r.ph,
            r.ts_micros,
            r.tid
        )
    }

    /// Writes the capture as one Chrome-trace JSON document.
    pub(crate) fn write_chrome_json(&self, w: &mut impl Write) -> io::Result<()> {
        let inner = self.inner.lock().unwrap();
        write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, r) in inner.records.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            writeln!(w)?;
            Self::write_record(w, r)?;
        }
        write!(w, "\n]}}\n")
    }

    /// Writes the capture as JSONL: one record object per line.
    pub(crate) fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let inner = self.inner.lock().unwrap();
        for r in inner.records.iter() {
            Self::write_record(w, r)?;
            writeln!(w)?;
        }
        Ok(())
    }

    /// The Chrome-trace JSON document as a string.
    pub fn to_chrome_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_json(&mut buf).expect("Vec write");
        String::from_utf8(buf).expect("trace output is UTF-8")
    }

    /// The JSONL rendering as a string.
    pub fn to_jsonl(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf).expect("Vec write");
        String::from_utf8(buf).expect("trace output is UTF-8")
    }

    /// Writes the capture to `path` in `format`.
    pub fn save_to(&self, path: impl AsRef<Path>, format: TraceFormat) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(file);
        match format {
            TraceFormat::Chrome => self.write_chrome_json(&mut w)?,
            TraceFormat::Jsonl => self.write_jsonl(&mut w)?,
        }
        w.flush()
    }
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        ChromeTraceSink::new()
    }
}

impl fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("records", &self.len())
            .finish()
    }
}

impl Tracer for ChromeTraceSink {
    fn span_begin(&self, _id: SpanId, kind: SpanKind, label: &str) {
        let name: Cow<'static, str> = if label.is_empty() {
            Cow::Borrowed(kind.name())
        } else {
            Cow::Owned(format!("{}: {label}", kind.name()))
        };
        self.push('B', name);
    }

    fn span_end(&self, _id: SpanId, kind: SpanKind) {
        // The Trace Event Format matches B/E by nesting order per tid, so
        // the end record only needs to repeat the kind.
        self.push('E', Cow::Borrowed(kind.name()));
    }
}

/// Aggregate statistics of one span kind, from a [`SummarySink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many spans of this kind completed.
    pub count: u64,
    /// Total wall time across those spans, in nanoseconds. Concurrent
    /// spans (matrix cells on worker threads) accumulate CPU-track time,
    /// which can exceed elapsed wall time.
    pub total_nanos: u64,
}

#[derive(Default)]
struct SummaryInner {
    open: HashMap<u64, Instant>,
    spans: [SpanStats; SpanKind::ALL.len()],
}

/// An immutable snapshot of a [`SummarySink`].
///
/// # Examples
///
/// ```
/// use regtree_runtime::{SpanKind, TraceSummary};
/// let summary = TraceSummary::default();
/// assert_eq!(summary.span(SpanKind::Compile).count, 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    spans: [SpanStats; SpanKind::ALL.len()],
}

impl TraceSummary {
    /// The aggregate for one span kind.
    pub fn span(&self, kind: SpanKind) -> SpanStats {
        self.spans[kind.index()]
    }
}

impl fmt::Display for TraceSummary {
    /// Renders the per-phase table printed by `rtpcheck --stats-verbose`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "phase                 count   total wall")?;
        for kind in SpanKind::ALL {
            let s = self.span(kind);
            if s.count == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<20} {:>6}   {:>9.3} ms",
                kind.name(),
                s.count,
                s.total_nanos as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

/// Aggregating sink: per-[`SpanKind`] counts and total wall time, with no
/// per-record storage.
///
/// It times phases and counts how often each ran; the work done inside
/// them is counted by the run's [`RunMetrics`], which the sink does not
/// repeat.
///
/// [`RunMetrics`]: crate::RunMetrics
///
/// # Examples
///
/// ```
/// use regtree_runtime::{SpanKind, SummarySink, TraceHandle};
/// use std::sync::Arc;
///
/// let sink = Arc::new(SummarySink::new());
/// let trace = TraceHandle::new(sink.clone());
/// {
///     let _cell = trace.span(SpanKind::MatrixCell, "fd1 × levels");
///     let _search = trace.span(SpanKind::IcSearch, "");
/// }
/// let summary = sink.summary();
/// assert_eq!(summary.span(SpanKind::MatrixCell).count, 1);
/// assert_eq!(summary.span(SpanKind::IcSearch).count, 1);
/// ```
pub struct SummarySink {
    inner: Mutex<SummaryInner>,
}

impl SummarySink {
    /// An empty sink.
    pub fn new() -> SummarySink {
        SummarySink {
            inner: Mutex::new(SummaryInner::default()),
        }
    }

    /// Snapshots the aggregates collected so far. Spans still open are not
    /// included (their wall time is unknown until they end).
    pub fn summary(&self) -> TraceSummary {
        let inner = self.inner.lock().unwrap();
        TraceSummary { spans: inner.spans }
    }
}

impl Default for SummarySink {
    fn default() -> Self {
        SummarySink::new()
    }
}

impl fmt::Debug for SummarySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SummarySink").finish_non_exhaustive()
    }
}

impl Tracer for SummarySink {
    fn span_begin(&self, id: SpanId, _kind: SpanKind, _label: &str) {
        let now = Instant::now();
        self.inner.lock().unwrap().open.insert(id.0, now);
    }

    fn span_end(&self, id: SpanId, kind: SpanKind) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(started) = inner.open.remove(&id.0) {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let slot = &mut inner.spans[kind.index()];
            slot.count += 1;
            slot.total_nanos = slot.total_nanos.saturating_add(nanos);
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        let g = h.span(SpanKind::Compile, "x");
        drop(g);
    }

    #[test]
    fn chrome_sink_balances_spans() {
        let sink = Arc::new(ChromeTraceSink::new());
        let h = TraceHandle::new(sink.clone());
        {
            let _outer = h.span(SpanKind::IcSearch, "outer");
            let _inner = h.span(SpanKind::EmptinessFixpoint, "");
        }
        assert_eq!(sink.len(), 4); // 2×B + 2×E
        let json = sink.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
    }

    #[test]
    fn summary_sink_aggregates() {
        let sink = Arc::new(SummarySink::new());
        let h = TraceHandle::new(sink.clone());
        for _ in 0..3 {
            let _g = h.span(SpanKind::FdCheck, "fd");
        }
        let s = sink.summary();
        assert_eq!(s.span(SpanKind::FdCheck).count, 3);
        assert_eq!(s.span(SpanKind::Compile).count, 0);
        let rendered = s.to_string();
        assert!(rendered.contains("fd_check"));
        assert!(!rendered.contains("compile"));
    }

    #[test]
    fn summary_sink_is_thread_safe() {
        let sink = Arc::new(SummarySink::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = TraceHandle::new(sink.clone());
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let _g = h.span(SpanKind::MatrixCell, "cell");
                    }
                });
            }
        });
        let s = sink.summary();
        assert_eq!(s.span(SpanKind::MatrixCell).count, 4000);
    }

    #[test]
    fn trace_format_names() {
        assert_eq!(TraceFormat::from_name("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::from_name("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::from_name(""), None);
    }
}
