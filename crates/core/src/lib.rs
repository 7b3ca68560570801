//! `regtree-core` — the primary contribution of Gire & Idabal (EDBT 2010):
//! XML functional dependencies and update classes expressed as **regular
//! tree patterns**, and the polynomial-time **independence criterion**
//! deciding that a class of updates can never break an FD.
//!
//! * [`fd`] — FDs `(FD, c)` with value/node equality types (Definition 4);
//! * [`satisfy`] — satisfaction checking with violation witnesses
//!   (Definition 5);
//! * [`textfd`] — [`parse_fd`], the one constructor from FD text (the
//!   \[8\] path syntax and the §3.2 trie, extended with the pattern
//!   language), and [`parse_update_class`];
//! * [`expressible_in_path_formalism`] — the Example 3 checks of which
//!   FDs the path formalism of \[8\] can express;
//! * [`fdset`] — FD-*set* reasoning: implication closure and
//!   [`FdSet::minimize`], which the pruned matrix uses to drop implied
//!   rows;
//! * [`update`] — update classes `U = (T_U, s̄_U)` and executable updates
//!   (Section 4);
//! * [`independence`] — the criterion IC and its [`Verdict`]: one lazy
//!   engine explores the FD × update × schema product on the fly and
//!   decides its emptiness, with a witness document when it is nonempty
//!   (Definition 6, Propositions 2–3), behind [`Analyzer::independence`];
//! * [`incremental`] — impact-scoped FD rechecking over
//!   [`regtree_xml::VersionedDocument`] deltas, in place of the
//!   document-at-hand baseline (\[14\]-style) of applying the update and
//!   re-verifying with [`check_fd`].
//!
//! The PSPACE-hardness gadgets of Proposition 1 (Figures 7–8) are
//! experiment code, not product: they live in the unpublished
//! `regtree-oracle` crate.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod analyzer;
pub mod api;
pub mod error;
pub mod fd;
pub mod fdset;
pub mod incremental;
pub mod independence;
mod lazy_ic;
pub mod matrix;
mod pathfd;
pub mod satisfy;
pub mod textfd;
pub mod update;

pub use analyzer::{Analyzer, AnalyzerBuilder, RunOverrides};
pub use error::Error;
pub use fd::{EqualityType, Fd, FdError};
pub use fdset::{DroppedFd, FdSet, Implication, Minimization};
pub use incremental::{IncrementalChecker, RecheckReport, RecheckScope};
pub use independence::{IndependenceAnalysis, Verdict};
pub use matrix::{CellProvenance, IndependenceMatrix, MatrixCell};
pub use pathfd::{expressible_in_path_formalism, Inexpressibility, PathFdError};
pub use satisfy::{check_fd, satisfies, FdBatchReport, FdOutcome, FdViolation};
pub use textfd::{parse_fd, parse_update_class};
// Re-exported so downstreams govern runs without a direct dependency on
// `regtree-runtime`.
pub use regtree_runtime::{
    Budget, CancelToken, ChromeTraceSink, Resource, RunLimits, RunMetrics, SpanId, SpanKind,
    SummarySink, TraceFormat, TraceHandle, TraceSummary, Tracer,
};
pub use update::{
    update_class_from_edges, ApplyError, Update, UpdateClass, UpdateClassError, UpdateOp,
};
