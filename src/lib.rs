//! # regtree
//!
//! A complete, from-scratch Rust implementation of
//! **“Regular tree patterns: a uniform formalism for update queries and
//! functional dependencies in XML”** (F. Gire & H. Idabal, *Updates in
//! XML*, EDBT 2010 Workshops).
//!
//! The paper proposes *regular tree patterns* — tree templates whose edges
//! carry regular expressions over XML labels — as one formalism for both
//! XML functional dependencies and classes of update queries, and derives a
//! polynomial-time sufficient criterion for an FD to be *independent* of an
//! update class (no update of the class can ever break the FD), while the
//! exact problem is PSPACE-hard.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`alphabet`] | interned label alphabets |
//! | [`automata`] | word regexes, NFAs and the matcher's edge DFAs |
//! | [`xml`] | the document model, XML parser/serializer, value equality, edits |
//! | [`hedge`] | bottom-up unranked tree automata, schemas, the compiled form the lazy IC engine runs on |
//! | [`pattern`] | regular tree patterns: evaluation & automaton compilation |
//! | [`core`] | FDs, update classes, the independence criterion, incremental FD checking |
//! | [`gen`] | the paper's running example |
//!
//! The parity tests' reference engines and the experiment code no binary
//! runs (the Proposition 1 reduction, regex inclusion, complete DFAs, the
//! language sampler, the random generators) live in the test-only
//! `regtree-oracle` crate, a dev-dependency; they are not part of this API.
//!
//! ## Quickstart
//!
//! ```
//! use regtree::prelude::*;
//!
//! let alphabet = regtree_gen::exam_alphabet();
//! let doc = regtree_gen::figure1_document(&alphabet);
//! let fd1 = regtree_gen::fd1(&alphabet);           // discipline+mark ⇒ rank
//! assert!(satisfies(&fd1, &doc));
//!
//! // The paper's update class U: levels of candidates with exams to pass.
//! let class = regtree_gen::update_class_u(&alphabet);
//! let schema = regtree_gen::exam_schema(&alphabet);
//! let analyzer = Analyzer::builder().schema(schema).build();
//! let analysis = analyzer.independence(&fd1, &class);
//! assert!(analysis.verdict.is_independent());
//! assert!(analysis.metrics.states_interned > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use regtree_alphabet as alphabet;
pub use regtree_automata as automata;
pub use regtree_core as core;
pub use regtree_gen as gen;
pub use regtree_hedge as hedge;
pub use regtree_pattern as pattern;
pub use regtree_xml as xml;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use regtree_alphabet::{Alphabet, LabelKind, Symbol};
    pub use regtree_automata::{parse_regex, Nfa, Regex};
    pub use regtree_core::{
        check_fd, expressible_in_path_formalism, parse_fd, parse_update_class, satisfies, Analyzer,
        AnalyzerBuilder, Budget, CancelToken, CellProvenance, ChromeTraceSink, DroppedFd,
        EqualityType, Error, Fd, FdBatchReport, FdOutcome, FdSet, Implication, IncrementalChecker,
        IndependenceMatrix, Minimization, RecheckReport, RecheckScope, Resource, RunLimits,
        RunMetrics, SpanId, SpanKind, SummarySink, TraceFormat, TraceHandle, TraceSummary, Tracer,
        Update, UpdateClass, UpdateOp, Verdict,
    };
    pub use regtree_hedge::{HedgeAutomaton, Schema};
    pub use regtree_pattern::{
        compile_pattern, parse_pattern, CompiledPattern, RegularTreePattern, Template,
        TemplateNodeId,
    };
    pub use regtree_xml::{
        parse_document, to_xml, value_eq, value_hash, Document, LabelIndex, NodeId, TreeSpec,
    };
}
