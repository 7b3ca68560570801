//! Unranked bottom-up (hedge) tree automata for `regtree`.
//!
//! The paper's Proposition 3 works entirely with “regular Bottom-Up tree
//! automata”: the schema `S` is one (`A_S`), patterns compile to them, and
//! the independence criterion is an emptiness test on their product. This
//! crate builds the automata; `regtree-core` explores their product and
//! decides its emptiness on the fly. Nothing here runs an automaton on a
//! document (membership is a `regtree-oracle` function for the tests):
//!
//! * [`HedgeAutomaton`] — nondeterministic bottom-up automata over unranked
//!   trees, with regular horizontal languages ([`regtree_automata::Nfa`]s
//!   whose letters are tree states);
//! * [`compiled`] — the arena/CSR form the lazy product engine runs on;
//! * [`partition`] — guard minterm classes, so guard conjunctions are
//!   word-parallel mask intersections;
//! * [`Schema`] — a DTD-like rule language: [`Schema::validate`] checks a
//!   document against its content models directly, and
//!   [`Schema::compile`] builds `A_S` for the product.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod compiled;
pub mod partition;
pub mod schema;

pub use automaton::{
    horizontal_epsilon, horizontal_interleaved, horizontal_star, HedgeAutomaton, HedgeTransition,
    LabelGuard, TreeState,
};
pub use compiled::{CompiledAutomaton, Csr, ANY_LETTER};
pub use partition::{iter_classes, GuardMask, GuardPartition};
pub use schema::{Schema, SchemaError, ValidationError};
