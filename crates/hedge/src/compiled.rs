//! Arena/CSR compiled form of a [`HedgeAutomaton`] for the hot loops.
//!
//! The symbolic representation ([`HedgeAutomaton`], [`LabelGuard`],
//! [`Nfa`](regtree_automata::Nfa)) is built for construction and inspection: guards are enums with
//! heap-allocated exclusion lists, horizontal transitions live in per-state
//! `Vec`s mixing ε, symbol and wildcard edges. The product engines
//! (`emptiness`, the lazy IC search) spend their time firing exactly those
//! edges and intersecting exactly those guards, so a [`CompiledAutomaton`]
//! flattens everything once per analysis into index-based arenas:
//!
//! * the horizontal NFAs of *all* transitions are flattened into one global
//!   state space with two shared CSR tables (`u32` offsets, contiguous
//!   rows): ε edges, and a fused letter-step table whose rows hold symbol
//!   edges then wildcard edges ([`ANY_LETTER`]) — a handful of allocations
//!   per automaton, not per transition, and a frontier step scans exactly
//!   one contiguous slice per component;
//! * every guard is pre-rendered as a packed minterm bitmask over a
//!   [`GuardPartition`] (one contiguous `u64` arena, fixed stride), so a
//!   guard conjunction is a word-parallel `&` instead of a clone-and-dedup
//!   walk of symbol lists — the symbolic [`LabelGuard`] stays behind at the
//!   construction/API boundary;
//! * transitions are additionally grouped contiguously by `Is`-guard class
//!   (`guard_class_candidates`) via counting sort, replacing per-use linear
//!   scans and hash-keyed candidate indexes.
//!
//! Masks are exact (not conservative) as long as `partition` covers the
//! automaton's guards — see the [`crate::partition`] module docs.

use regtree_automata::{NfaLabel, StateId};

use crate::automaton::{HedgeAutomaton, LabelGuard, TreeState};
use crate::partition::GuardPartition;

/// The sentinel letter of wildcard entries in the fused horizontal step
/// table: a wildcard edge consumes every letter, so a step scan matches an
/// entry when its letter equals the wanted one *or* this sentinel. Real
/// letters are tree states and never reach `u32::MAX`.
pub const ANY_LETTER: u32 = u32::MAX;

/// A compressed-sparse-row table: `row(i)` is a contiguous slice, offsets
/// are `u32`.
#[derive(Clone, Debug, Default)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// Builds a table by pushing rows in order: `fill(i, row)` appends row
    /// `i`'s items.
    #[cfg(test)]
    pub(crate) fn build(rows: usize, mut fill: impl FnMut(usize, &mut Vec<T>)) -> Csr<T> {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut items = Vec::new();
        for i in 0..rows {
            fill(i, &mut items);
            offsets.push(u32::try_from(items.len()).expect("CSR table exceeds u32 offsets"));
        }
        Csr { offsets, items }
    }

    /// Wraps prebuilt parts: `offsets` must start at 0, be monotone, and
    /// end at `items.len()`.
    fn from_parts(offsets: Vec<u32>, items: Vec<T>) -> Csr<T> {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().copied(), Some(items.len() as u32));
        Csr { offsets, items }
    }

    /// Number of rows.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `i` as a contiguous slice (empty for out-of-range rows).
    pub(crate) fn row(&self, i: usize) -> &[T] {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&a), Some(&b)) => &self.items[a as usize..b as usize],
            _ => &[],
        }
    }
}

/// The arena/CSR compiled form of a [`HedgeAutomaton`] relative to a guard
/// partition. See the [module docs](self).
///
/// Horizontal-NFA states of all transitions share one *global* numbering:
/// transition `i`'s states are contiguous, its start state is
/// [`horizontal_start`], and the edge accessors ([`h_eps_from`],
/// [`h_step_from`]) and [`h_is_accept`] take global ids, with edge targets
/// already rebased to global ids. Symbol-edge letters stay what they always
/// were: tree states of this automaton; wildcard edges carry [`ANY_LETTER`].
///
/// [`h_eps_from`]: CompiledAutomaton::h_eps_from
/// [`h_step_from`]: CompiledAutomaton::h_step_from
/// [`h_is_accept`]: CompiledAutomaton::h_is_accept
/// [`horizontal_start`]: CompiledAutomaton::horizontal_start
#[derive(Clone, Debug)]
pub struct CompiledAutomaton {
    num_states: usize,
    mask_words: usize,
    targets: Vec<TreeState>,
    /// Guard masks, one `mask_words` stride per transition.
    masks: Vec<u64>,
    /// Global start state of transition `i`'s horizontal NFA.
    h_start: Vec<StateId>,
    /// Accept bitset over global horizontal states.
    h_accept: Vec<u64>,
    h_eps: Csr<StateId>,
    /// Letter-consuming edges, one fused row per state: symbol edges first,
    /// then wildcard edges with [`ANY_LETTER`] as the letter — the hot loop
    /// scans a single slice per state.
    h_step: Csr<(u32, StateId)>,
    by_guard_class: Csr<u32>,
    wild: Vec<u32>,
    finals: Vec<u64>,
}

/// Counting sort of transition indices by a small integer key, as a CSR
/// table with `buckets` rows. Preserves original order within each bucket.
fn bucket_by(buckets: usize, keys: impl Iterator<Item = Option<usize>> + Clone) -> Csr<u32> {
    let mut offsets = vec![0u32; buckets + 1];
    let mut total = 0u32;
    for k in keys.clone().flatten() {
        offsets[k + 1] += 1;
        total += 1;
    }
    for b in 1..offsets.len() {
        offsets[b] += offsets[b - 1];
    }
    // Scatter using `offsets[k]` itself as the bucket cursor: afterwards
    // entry `k` holds bucket `k`'s *end*, i.e. the old `offsets[k + 1]`, so
    // one shift right restores the start offsets without a scratch copy.
    let mut items = vec![0u32; total as usize];
    for (i, k) in keys.enumerate() {
        if let Some(k) = k {
            items[offsets[k] as usize] = i as u32;
            offsets[k] += 1;
        }
    }
    offsets.copy_within(0..buckets, 1);
    offsets[0] = 0;
    Csr::from_parts(offsets, items)
}

impl CompiledAutomaton {
    /// Compiles `automaton` against `partition` (which should cover its
    /// guards for the masks to be exact; [`GuardPartition::from_automata`]
    /// over every automaton of the analysis guarantees that).
    pub fn compile(automaton: &HedgeAutomaton, partition: &GuardPartition) -> CompiledAutomaton {
        let transitions = automaton.transitions();
        let nt = transitions.len();
        let words = partition.mask_words();
        let mut masks = vec![0u64; nt * words];
        let mut targets = Vec::with_capacity(nt);
        // One pass flattens every horizontal NFA into the shared arenas.
        let total_h: usize = transitions.iter().map(|t| t.horizontal.num_states()).sum();
        let mut h_start = Vec::with_capacity(nt);
        let mut h_accept = vec![0u64; total_h.div_ceil(64).max(1)];
        let mut eps_off = Vec::with_capacity(total_h + 1);
        let mut step_off = Vec::with_capacity(total_h + 1);
        eps_off.push(0u32);
        step_off.push(0u32);
        let mut eps_items = Vec::new();
        let mut step_items: Vec<(u32, StateId)> = Vec::new();
        let mut base: u32 = 0;
        for (i, t) in transitions.iter().enumerate() {
            partition.mask_into(&t.guard, &mut masks[i * words..(i + 1) * words]);
            targets.push(t.target);
            let h = &t.horizontal;
            h_start.push(base + h.start());
            let n = h.num_states();
            for s in 0..n {
                let sid = s as StateId;
                if h.is_accept(sid) {
                    let g = base as usize + s;
                    h_accept[g / 64] |= 1u64 << (g % 64);
                }
                // Symbol edges first, wildcard edges appended last, so the
                // row keeps the fused symbol-then-ANY layout.
                for &(l, tgt) in h.transitions_from(sid) {
                    match l {
                        NfaLabel::Eps => eps_items.push(base + tgt),
                        NfaLabel::Sym(a) => step_items.push((a, base + tgt)),
                        NfaLabel::Any => {}
                    }
                }
                for &(l, tgt) in h.transitions_from(sid) {
                    if matches!(l, NfaLabel::Any) {
                        step_items.push((ANY_LETTER, base + tgt));
                    }
                }
                eps_off.push(eps_items.len() as u32);
                step_off.push(step_items.len() as u32);
            }
            base += n as u32;
        }
        let num_states = automaton.num_states();
        // `Is`-guard transitions bucket by their symbol's class; `Any` and
        // `AnyExcept` guards are candidates for every class.
        let by_guard_class = bucket_by(
            partition.num_classes(),
            transitions.iter().map(|t| match &t.guard {
                LabelGuard::Is(s) => Some(partition.class_of(*s)),
                LabelGuard::Any | LabelGuard::AnyExcept(_) => None,
            }),
        );
        let wild: Vec<u32> = transitions
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.guard, LabelGuard::Is(_)))
            .map(|(i, _)| i as u32)
            .collect();
        let mut finals = vec![0u64; num_states.div_ceil(64).max(1)];
        for &f in automaton.finals() {
            finals[f as usize / 64] |= 1u64 << (f as usize % 64);
        }
        CompiledAutomaton {
            num_states,
            mask_words: words,
            targets,
            masks,
            h_start,
            h_accept,
            h_eps: Csr::from_parts(eps_off, eps_items),
            h_step: Csr::from_parts(step_off, step_items),
            by_guard_class,
            wild,
            finals,
        }
    }

    /// Number of tree states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.targets.len()
    }

    /// Words per guard mask.
    pub fn mask_words(&self) -> usize {
        self.mask_words
    }

    /// Target state of transition `i`.
    pub fn target(&self, i: usize) -> TreeState {
        self.targets[i]
    }

    /// Guard mask of transition `i` (a `mask_words` slice of the arena).
    pub fn mask(&self, i: usize) -> &[u64] {
        &self.masks[i * self.mask_words..(i + 1) * self.mask_words]
    }

    /// Global start state of transition `i`'s horizontal NFA.
    pub fn horizontal_start(&self, i: usize) -> StateId {
        self.h_start[i]
    }

    /// Is global horizontal state `s` accepting? Constant-time bitset probe.
    pub fn h_is_accept(&self, s: StateId) -> bool {
        let i = s as usize;
        self.h_accept
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// ε-edge targets (global) of global horizontal state `s`.
    pub fn h_eps_from(&self, s: StateId) -> &[StateId] {
        self.h_eps.row(s as usize)
    }

    /// Letter-consuming edges `(letter, global target)` of global horizontal
    /// state `s`: symbol edges first, then wildcard edges with
    /// [`ANY_LETTER`]. An entry matches letter `a` iff its letter is `a` or
    /// [`ANY_LETTER`].
    pub fn h_step_from(&self, s: StateId) -> &[(u32, StateId)] {
        self.h_step.row(s as usize)
    }

    /// Is `q` a final (root-accepting) state?
    pub fn is_final(&self, q: TreeState) -> bool {
        let i = q as usize;
        self.finals
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Transition indices whose guard is `Is(s)` with `s` in class `c`.
    pub fn guard_class_candidates(&self, c: usize) -> &[u32] {
        self.by_guard_class.row(c)
    }

    /// Transition indices with `Any`/`AnyExcept` guards (candidates for
    /// every class).
    pub fn wildcard_transitions(&self) -> &[u32] {
        &self.wild
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{horizontal_epsilon, horizontal_star, HedgeTransition};
    use regtree_alphabet::Alphabet;
    use regtree_automata::NfaBuilder;

    fn sample(alpha: &Alphabet) -> HedgeAutomaton {
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut h = NfaBuilder::new();
        let s0 = h.add_state();
        let s1 = h.add_state();
        h.add_transition(s0, NfaLabel::Eps, s1);
        h.add_transition(s0, NfaLabel::Sym(1), s1);
        h.add_transition(s1, NfaLabel::Any, s1);
        h.set_start(s0);
        h.set_accept(s1);
        HedgeAutomaton::new(
            3,
            vec![
                HedgeTransition {
                    guard: LabelGuard::Is(a),
                    horizontal: horizontal_epsilon(),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::AnyExcept(vec![b]),
                    horizontal: horizontal_star(0),
                    target: 1,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    horizontal: h.finish(),
                    target: 2,
                },
            ],
            vec![2],
        )
    }

    #[test]
    fn csr_rows_round_trip() {
        let c: Csr<u32> = Csr::build(3, |i, row| {
            for k in 0..i {
                row.push(k as u32);
            }
        });
        assert_eq!(c.rows(), 3);
        assert_eq!(c.row(0), &[] as &[u32]);
        assert_eq!(c.row(1), &[0]);
        assert_eq!(c.row(2), &[0, 1]);
        assert_eq!(c.row(99), &[] as &[u32]);
    }

    #[test]
    fn flattened_horizontals_split_edge_kinds() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        let part = GuardPartition::from_automata([&m]);
        let c = CompiledAutomaton::compile(&m, &part);
        // Transition 0: 1 ε-state NFA; transition 1: 1-state star over
        // letter 0; transition 2: the hand-built 2-state NFA.
        let b2 = c.horizontal_start(2);
        assert_eq!(c.h_eps_from(b2), &[b2 + 1]);
        assert_eq!(c.h_step_from(b2), &[(1, b2 + 1)]);
        assert_eq!(c.h_step_from(b2 + 1), &[(ANY_LETTER, b2 + 1)]);
        assert!(!c.h_is_accept(b2));
        assert!(c.h_is_accept(b2 + 1));
        // The star NFA of transition 1 loops on letter 0 in its own row.
        let b1 = c.horizontal_start(1);
        assert_eq!(c.h_step_from(b1), &[(0, b1)]);
        assert!(c.h_is_accept(b1));
    }

    #[test]
    fn csr_flags_and_groupings_match_symbolic_form() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        let part = GuardPartition::from_automata([&m]);
        let c = CompiledAutomaton::compile(&m, &part);
        assert_eq!(c.num_states(), 3);
        assert_eq!(c.num_transitions(), 3);
        for (i, t) in m.transitions().iter().enumerate() {
            assert_eq!(c.target(i), t.target);
            assert_eq!(c.mask(i), part.mask(&t.guard).words());
        }
        assert!(c.is_final(2));
        assert!(!c.is_final(0));
        let a = alpha.intern("a");
        assert_eq!(c.guard_class_candidates(part.class_of(a)), &[0]);
        assert_eq!(c.wildcard_transitions(), &[1]);
    }
}
