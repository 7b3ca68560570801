//! Sharded interner of per-pair cell outcomes for the matrix drivers.
//!
//! [`crate::Analyzer`]'s pattern cache already dedups identical FDs and
//! update classes to the *same* `Arc<PatternAutomaton>`, so a matrix over a
//! redundant FD set presents the same `(row automaton, column automaton)`
//! pair to many cells. The interner keys realized cell outcomes by the Arc
//! pointer identities of that pair: the first worker to claim a pair runs
//! the engine, every later worker (on any thread) blocks on the same
//! [`OnceLock`] and reuses the finished analysis instead of re-exploring
//! the identical product. Reuse is sound because the inputs *and* the
//! per-cell limits are identical — even an exhausted `Unknown` would only
//! be recomputed into the same exhausted `Unknown`.
//!
//! The map is sharded by a cheap pointer hash so concurrent matrix workers
//! rarely contend on the same mutex.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::independence::IndependenceAnalysis;

/// The outcome of the first engine run for a `(row, column)` automaton pair.
pub(crate) struct CellEntry {
    /// FD index (row) of the cell that actually ran the engine.
    pub fd: usize,
    /// Its full analysis, cloned into every reusing cell.
    pub analysis: IndependenceAnalysis,
}

const N_SHARDS: usize = 8;

/// One shard: pair identity → lazily realized cell outcome.
type Shard = Mutex<HashMap<(usize, usize), Arc<OnceLock<CellEntry>>>>;

/// Sharded `(row ptr, column ptr) → OnceLock<CellEntry>` table shared by the
/// matrix worker threads of one matrix call.
#[derive(Default)]
pub(crate) struct CellInterner {
    shards: [Shard; N_SHARDS],
}

impl CellInterner {
    pub(crate) fn new() -> CellInterner {
        CellInterner::default()
    }

    /// The (created-on-first-use) slot for a pair of automaton identities.
    /// Callers race on `slot.get_or_init(..)`: exactly one runs the engine.
    pub(crate) fn slot(&self, key: (usize, usize)) -> Arc<OnceLock<CellEntry>> {
        // Pointer values are word-aligned: shift out the dead low bits
        // before folding, so consecutive allocations spread across shards.
        let h = (key.0 >> 4) ^ (key.1 >> 4).rotate_left(17);
        let mut shard = self.shards[h % N_SHARDS]
            .lock()
            .expect("interner shard poisoned");
        shard.entry(key).or_default().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_yields_same_slot() {
        let interner = CellInterner::new();
        let a = interner.slot((0x1000, 0x2000));
        let b = interner.slot((0x1000, 0x2000));
        assert!(Arc::ptr_eq(&a, &b));
        let c = interner.slot((0x1000, 0x3000));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn first_initializer_wins() {
        let interner = CellInterner::new();
        let slot = interner.slot((8, 16));
        let first = slot.get_or_init(|| CellEntry {
            fd: 3,
            analysis: crate::independence::IndependenceAnalysis {
                verdict: crate::independence::Verdict::Independent,
                ic_states: 0,
                explored_states: 0,
                total_states: 0,
                metrics: Default::default(),
            },
        });
        assert_eq!(first.fd, 3);
        let again = interner.slot((8, 16));
        let reused = again.get_or_init(|| unreachable!("already initialized"));
        assert_eq!(reused.fd, 3);
    }
}
