//! Workload generators for the `regtree` reproduction.
//!
//! [`exam`] materializes every artifact of the paper's running example —
//! the Figure 1 document (exact and scaled), the schema `Sc`, the patterns
//! `R1–R4`, the dependencies `fd1–fd5` and the update class `U` with the
//! concrete updates `q1`/`q2`. [`random`] draws schema-valid documents and
//! random pattern-space instances for fuzzing and the scaling benchmarks.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod exam;
pub mod random;

pub use exam::{
    exam_alphabet, exam_schema, fd1, fd2, fd3, fd4, fd5, figure1_document, generate_session,
    pattern_r1, pattern_r2, pattern_r3, pattern_r4, update_class_u, update_q1, update_q2,
    EXAM_SCHEMA,
};
pub use random::{random_document, random_pattern, random_proper_regex, random_regex, random_spec};
