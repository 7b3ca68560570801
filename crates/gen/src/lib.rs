//! The paper's running example, materialized.
//!
//! [`exam`] builds every artifact of it — the Figure 1 document (exact and
//! scaled), the schema `Sc`, the patterns `R1–R4`, the dependencies
//! `fd1–fd5` and the update class `U` with the concrete updates `q1`/`q2`.
//! The random generators for fuzzing and the scaling benchmarks live in
//! the unpublished `regtree-oracle` crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod exam;

pub use exam::{
    exam_alphabet, exam_schema, fd1, fd2, fd3, fd4, fd5, figure1_document, generate_session,
    pattern_r1, pattern_r2, pattern_r3, pattern_r4, update_class_u, update_q1, update_q2,
    EXAM_SCHEMA,
};
