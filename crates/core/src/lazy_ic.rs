//! Lazy, on-the-fly emptiness of the IC product.
//!
//! The eager reference pipeline (`check_independence_eager` in the
//! test-only `regtree-oracle` crate) materializes the full FD×U×bit
//! automaton, takes a second eager product with the schema automaton, and
//! only then runs the emptiness fixpoint — paying for every product state
//! and every horizontal product transition whether or not it is reachable.
//! This module, the only IC engine of the product, explores the same product
//! *bottom-up from realizable firings only*, over the arena/CSR compiled
//! form of the three automata ([`CompiledAutomaton`]). It compiles nothing
//! itself: the guard partition and the compiled triple come from the one
//! preparation step, [`crate::independence::IcInputs`].
//!
//! * product states `(f, u, bit, s)` are interned the first time they are
//!   realized — in a dense index table when the full product fits, a hash
//!   map above that — so the unreachable bulk of the
//!   `O(aU·aFD·|Σ|·|AS|·|U|·|FD|)` state space is never touched;
//! * guards are pre-compiled into packed minterm masks over the
//!   [`GuardPartition`] classes, so every guard conjunction of the setup is
//!   a word-parallel `&` (exact, because the partition covers the guards —
//!   see [`regtree_hedge::partition`]); the symbolic `LabelGuard` never
//!   appears on the hot path;
//! * guard-compatible transition triples `(t_FD, t_U, t_S)` are enumerated
//!   over the set bits of the pair mask against the schema's per-class CSR
//!   candidate lists rather than per symbol;
//! * each triple keeps an incremental frontier of horizontal-NFA state
//!   tuples `(s_f, s_u, s_s, seen)` that advances as new product states
//!   realize — no horizontal product automaton is ever built, and no NFA is
//!   re-simulated from scratch. Scheduling is demand-driven: a triple
//!   registers which `f` tree states its frontier has symbol edges on, and
//!   a newly realized letter wakes exactly the triples watching its `f`
//!   component (instead of round-robin scans over every triple);
//! * the search stops the moment an accepting root firing with the update
//!   bit set appears, reconstructing a witness document from the recorded
//!   firings.
//!
//! Verdicts coincide with the eager path: the frontier's `seen` flag is the
//! OR of consumed letters' bits and the accepting bit is `local | seen`,
//! which is exactly the union of the three `BitMode` transition families of
//! the eager construction. `tests/ic_lazy_parity.rs` checks the equivalence
//! on randomized inputs.

use std::collections::HashMap;

use regtree_alphabet::{Alphabet, LabelKind, Symbol};
use regtree_automata::StateId;
use regtree_hedge::{iter_classes, CompiledAutomaton, GuardPartition, TreeState, ANY_LETTER};
use regtree_pattern::PatternAutomaton;
use regtree_runtime::{Budget, Resource, SpanKind};
use regtree_xml::{Document, TreeSpec};

use crate::independence::Verdict;
use crate::update::UpdateClass;

/// Verdict plus exploration statistics of one lazy emptiness run.
pub(crate) struct LazyOutcome {
    /// The verdict (with witness on `Unknown`).
    pub verdict: Verdict,
    /// Product states actually interned during the search.
    pub explored_states: usize,
    /// States of the full (never materialized) product: `|FD|·|U|·2·|A_S|`.
    pub total_states: usize,
}

/// The compiled forms of the three automata of one IC check, borrowed from
/// [`crate::independence::IcInputs`] and threaded through the hot functions
/// so sims stay plain data. All three are compiled against the *same*
/// [`GuardPartition`] that is passed to [`lazy_independence`]; frontier NFA
/// states ([`FState`]) are *global* horizontal ids into their arenas.
#[derive(Clone, Copy)]
pub(crate) struct CompiledTriple<'a> {
    /// The FD pattern automaton (compiled with marking).
    pub f: &'a CompiledAutomaton,
    /// The update pattern automaton.
    pub u: &'a CompiledAutomaton,
    /// The schema automaton (or the compiled universal automaton).
    pub s: &'a CompiledAutomaton,
}

/// A product tree state `(f, u, bit, s)`, interned on first realization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    f: TreeState,
    u: TreeState,
    bit: u8,
    s: TreeState,
}

/// A frontier state of one transition triple's horizontal product:
/// NFA states of the three components plus the OR of consumed letters' bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FState {
    sf: StateId,
    su: StateId,
    ss: StateId,
    seen: u8,
}

type LetterId = u32;

/// First-reach back-pointer of a frontier state: `(consumed letter,
/// predecessor)`, letter `None` for ε-moves; `None` at the start tuple.
type Pred = Option<(Option<LetterId>, u32)>;

/// Above this many product states the interner falls back to a hash map;
/// below it, a dense `u32` index table (256 KiB worst case — L2-resident)
/// makes every membership probe a single array load, far cheaper than
/// hashing a 16-byte key. The search probes the table (pump done-checks,
/// realization dedup) far more often than it fills it.
const DENSE_TABLE_LIMIT: usize = 1 << 16;

/// Sentinel in the dense table: the key is not interned.
const NO_ID: u32 = u32::MAX;

/// Interner of realized product states: dense-indexed when the full product
/// is small enough, hash-keyed otherwise. Both backings persist in the
/// per-thread [`Workspace`] between runs; the dense slab keeps the
/// invariant "every slot is [`NO_ID`]" across calls (see [`Self::reset`]),
/// so re-preparing it never re-memsets the whole slab.
#[derive(Default)]
struct StateTable {
    dense: Vec<u32>,
    sparse: HashMap<Key, LetterId>,
    dense_mode: bool,
    nu: usize,
    ns: usize,
}

impl StateTable {
    /// Sizes the table for a run over `total` product states.
    fn prepare(&mut self, nu: usize, ns: usize, total: usize) {
        self.nu = nu;
        self.ns = ns;
        self.dense_mode = total <= DENSE_TABLE_LIMIT;
        if self.dense_mode && self.dense.len() < total {
            self.dense.resize(total, NO_ID);
        }
    }

    fn idx(&self, k: Key) -> usize {
        ((k.f as usize * self.nu + k.u as usize) * 2 + k.bit as usize) * self.ns + k.s as usize
    }

    fn contains(&self, k: Key) -> bool {
        if self.dense_mode {
            self.dense[self.idx(k)] != NO_ID
        } else {
            self.sparse.contains_key(&k)
        }
    }

    fn insert(&mut self, k: Key, id: LetterId) {
        if self.dense_mode {
            let i = self.idx(k);
            self.dense[i] = id;
        } else {
            self.sparse.insert(k, id);
        }
    }

    /// Clears exactly the slots the run filled (`letters` holds every
    /// inserted key), restoring the all-[`NO_ID`] invariant without
    /// touching the untouched bulk of the slab.
    fn reset(&mut self, letters: &[Key]) {
        if self.dense_mode {
            for &k in letters {
                let i = self.idx(k);
                self.dense[i] = NO_ID;
            }
        } else {
            self.sparse.clear();
        }
    }
}

/// Incremental frontier of one guard-compatible transition triple.
struct Sim {
    /// Start of this triple's guard mask in the triple-mask arena.
    mask_row: usize,
    tf_target: TreeState,
    tu_target: TreeState,
    ts_target: TreeState,
    /// This node is an updated node inside the FD region.
    local: bool,
    /// The guard only admits leaf labels: only the empty child word applies.
    leaf_only: bool,
    /// Accepting at the document root: all three targets final/accepting and
    /// the guard mask admits the reserved `/` label's class.
    root_final: bool,
    /// Frontier states with their first-reach back-pointers, deduplicated
    /// by linear scan: frontiers stay small (bounded by the realized
    /// portion of `|hf|·|hu|·|hs|·2`), so scanning beats hash-map churn —
    /// and one flat vec means one allocation per sim, not one per field.
    states: Vec<(FState, Pred)>,
    /// Expansion watermark: `states[..expanded]` have been ε-closed and
    /// replayed; the rest are fresh.
    expanded: u32,
    dead: bool,
}

/// Sentinel "no entry" index in the intrusive linked-list arenas.
const NONE: u32 = u32::MAX;

/// Per-sim wildcard flags in [`Shared::any_flags`]: the frontier has a
/// wildcard edge on the `f` / `u` / `s` component.
const F_ANY: u8 = 1;
const U_ANY: u8 = 2;
const S_ANY: u8 = 4;

/// Interner of realized product states, their firings, and the demand-driven
/// scheduling state (watcher lists + dirty queue).
struct Shared<'b> {
    letters: Vec<Key>,
    table: StateTable,
    /// Per letter: the `(sim, frontier state)` acceptance that realized it.
    firings: Vec<(u32, u32)>,
    /// First accepting root firing `(sim, frontier state)`.
    root_hit: Option<(u32, u32)>,
    /// Cooperative resource governor; counters are cheap per-event integer
    /// compares, the deadline/cancel poll is amortized inside the budget.
    budget: &'b mut Budget,
    /// First exhausted resource: the search unwinds as soon as it is set
    /// (treated exactly like `root_hit` by the fixpoint loops).
    exhausted: Option<Resource>,
    /// Number of FD-side tree states (`f` components of letters).
    nf: usize,
    /// Number of update-side and schema-side tree states.
    nu: usize,
    ns: usize,
    /// Word offsets of the component sections inside one sim's combined
    /// wants row: `f` bits at 0, `u` bits at `wf`, `s` bits at `wf + wu`;
    /// `stride = wf + wu + ws` is the full row width, so one resize per
    /// sim grows all three bitsets at once.
    wf: usize,
    wu: usize,
    stride: usize,
    /// Per-sim wants bitsets over the three components' tree states: the
    /// union of the frontier's symbol edges, one combined row per sim. A
    /// letter is offered — and, crucially, a quiescent sim is *woken* —
    /// only when all three of the letter's components have a consuming
    /// edge somewhere in the frontier. The `f` side alone is a weak filter
    /// whenever the FD pattern descends by wildcard; with a schema the `s`
    /// side is usually the selective one, and on deep update chains the
    /// `u` side is.
    wants: Vec<u64>,
    /// Per-sim wildcard-edge flags ([`F_ANY`] | [`U_ANY`] | [`S_ANY`]).
    any_flags: Vec<u8>,
    /// Per-sim queues of delivered-but-unoffered letters. [`Self::realize`]
    /// pushes a new letter to exactly the sims whose frontier can consume
    /// it on all three components; `pump` drains them. Exact delivery
    /// replaces a per-sim cursor walk over the whole letter sequence.
    pending: Vec<Vec<LetterId>>,
    /// Intrusive per-component letter indexes: `lhead_*[state]` is the most
    /// recently realized letter with that component, `lnext_*[letter]`
    /// chains to the previous one ([`NONE`] ends a chain). A fresh frontier
    /// state replays only the letters its most selective non-wildcard
    /// component has symbol edges on; flat arenas mean realizing a letter
    /// costs three pushes and no per-state allocation.
    lhead_f: Vec<u32>,
    lnext_f: Vec<u32>,
    lhead_u: Vec<u32>,
    lnext_u: Vec<u32>,
    lhead_s: Vec<u32>,
    lnext_s: Vec<u32>,
    /// Scratch buffer of replay candidates (see [`expand`]).
    replay_buf: Vec<LetterId>,
    /// Intrusive waiting lists: `whead[f]` heads a chain of `(sim, next)`
    /// links in `wlink` — the sims with a symbol edge on `f` tree state
    /// `f`. A realized letter wakes exactly these (modulo the wants veto).
    whead: Vec<u32>,
    wlink: Vec<(u32, u32)>,
    /// Sims with a wildcard `f` edge: every letter wakes them.
    watchers_any: Vec<u32>,
    /// Sims with pending work, deduplicated by `in_dirty`.
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
}

/// Per-thread reusable scratch of the lazy engine: every flat structure a
/// run fills is kept here between calls — cleared, with capacity (and the
/// dense-table invariant) intact — so repeated analyses (matrix sweeps,
/// benchmark loops, server workloads) stop paying allocation, deallocation
/// and memset costs on every call.
#[derive(Default)]
struct Workspace {
    table: StateTable,
    letters: Vec<Key>,
    firings: Vec<(u32, u32)>,
    wants: Vec<u64>,
    any_flags: Vec<u8>,
    pending: Vec<Vec<LetterId>>,
    lhead_f: Vec<u32>,
    lnext_f: Vec<u32>,
    lhead_u: Vec<u32>,
    lnext_u: Vec<u32>,
    lhead_s: Vec<u32>,
    lnext_s: Vec<u32>,
    replay_buf: Vec<LetterId>,
    whead: Vec<u32>,
    wlink: Vec<(u32, u32)>,
    watchers_any: Vec<u32>,
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
    sims: Vec<Sim>,
    /// Recycled `Sim::states` vectors (the only per-sim heap block).
    spare_states: Vec<Vec<(FState, Pred)>>,
    tri_masks: Vec<u64>,
    /// Schema-candidate dedup stamps; valid across runs because
    /// `generation` only grows (reset together when it nears wrap-around).
    stamp: Vec<u32>,
    generation: u32,
    fu: Vec<u64>,
    cand: Vec<u32>,
}

thread_local! {
    static WORKSPACE: std::cell::RefCell<Workspace> =
        std::cell::RefCell::new(Workspace::default());
}

impl Shared<'_> {
    fn realize(&mut self, key: Key, si: u32, fi: u32) {
        if self.table.contains(key) {
            return;
        }
        if let Err(r) = self.budget.on_state() {
            self.exhausted.get_or_insert(r);
            return;
        }
        let id = self.letters.len() as LetterId;
        self.table.insert(key, id);
        self.letters.push(key);
        self.firings.push((si, fi));
        self.lnext_f.push(self.lhead_f[key.f as usize]);
        self.lhead_f[key.f as usize] = id;
        self.lnext_u.push(self.lhead_u[key.u as usize]);
        self.lhead_u[key.u as usize] = id;
        self.lnext_s.push(self.lhead_s[key.s as usize]);
        self.lhead_s[key.s as usize] = id;
        // Deliver to exactly the sims that can consume this letter — on all
        // three components, not just `f`: a useless delivery costs a queue
        // round-trip and an offer walk, which dwarfs the bitset probes.
        let mut cur = self.whead[key.f as usize];
        while cur != NONE {
            let (w, next) = self.wlink[cur as usize];
            if self.wants(w, key) {
                self.pending[w as usize].push(id);
                self.mark_dirty(w);
            }
            cur = next;
        }
        for i in 0..self.watchers_any.len() {
            let w = self.watchers_any[i];
            // A sim with both symbol and wildcard `f` states may already
            // have been delivered to by the loop above.
            if self.pending[w as usize].last() != Some(&id) && self.wants(w, key) {
                self.pending[w as usize].push(id);
                self.mark_dirty(w);
            }
        }
    }

    fn mark(dirty: &mut Vec<u32>, in_dirty: &mut [bool], si: u32) {
        if !in_dirty[si as usize] {
            in_dirty[si as usize] = true;
            dirty.push(si);
        }
    }

    fn mark_dirty(&mut self, si: u32) {
        let Shared {
            dirty, in_dirty, ..
        } = self;
        Self::mark(dirty, in_dirty, si);
    }

    /// Is bit `i` set in the bitset starting at `row` of `arena`?
    fn want_bit(arena: &[u64], row: usize, i: TreeState) -> bool {
        let i = i as usize;
        arena[row + i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Does sim `si`'s frontier have a consuming edge on every component of
    /// `key`? Letters failing this on any side yield no successors.
    fn wants(&self, si: u32, key: Key) -> bool {
        let s = si as usize;
        let fl = self.any_flags[s];
        let row = s * self.stride;
        (fl & F_ANY != 0 || Self::want_bit(&self.wants, row, key.f))
            && (fl & U_ANY != 0 || Self::want_bit(&self.wants, row + self.wf, key.u))
            && (fl & S_ANY != 0 || Self::want_bit(&self.wants, row + self.wf + self.wu, key.s))
    }

    /// Has the search hit a root firing or run out of budget?
    fn stop(&self) -> bool {
        self.root_hit.is_some() || self.exhausted.is_some()
    }
}

/// Interns a frontier state, checking acceptance of all three components.
fn add_fstate(
    si: u32,
    autos: CompiledTriple<'_>,
    sim: &mut Sim,
    shared: &mut Shared,
    st: FState,
    pred: Option<(Option<LetterId>, u32)>,
) {
    if sim.states.iter().any(|&(s, _)| s == st) {
        return;
    }
    if let Err(r) = shared.budget.on_frontier_push() {
        shared.exhausted.get_or_insert(r);
        return;
    }
    let id = sim.states.len() as u32;
    sim.states.push((st, pred));
    // Register the letters this state's `f` component has symbol edges on.
    // Letters naming states the FD automaton does not have (sentinel
    // fillers) can never realize and are not registered.
    let steps = autos.f.h_step_from(st.sf);
    let has_any = steps.last().is_some_and(|&(a, _)| a == ANY_LETTER);
    if has_any && shared.any_flags[si as usize] & F_ANY == 0 {
        shared.any_flags[si as usize] |= F_ANY;
        shared.watchers_any.push(si);
    }
    let row = si as usize * shared.stride;
    for &(a, _) in steps {
        let ai = a as usize;
        if ai < shared.nf {
            let w = row + ai / 64;
            let b = 1u64 << (ai % 64);
            if shared.wants[w] & b == 0 {
                shared.wants[w] |= b;
                shared.wlink.push((si, shared.whead[ai]));
                shared.whead[ai] = (shared.wlink.len() - 1) as u32;
            }
        }
    }
    // The `u` and `s` sides get wants bits but no watcher lists: waking is
    // driven by `f` alone, the extra bitsets veto wakes and offers.
    let urow = autos.u.h_step_from(st.su);
    if urow.last().is_some_and(|&(a, _)| a == ANY_LETTER) {
        shared.any_flags[si as usize] |= U_ANY;
    }
    let u_off = row + shared.wf;
    for &(a, _) in urow {
        let ai = a as usize;
        if ai < shared.nu {
            shared.wants[u_off + ai / 64] |= 1u64 << (ai % 64);
        }
    }
    let srow = autos.s.h_step_from(st.ss);
    if srow.last().is_some_and(|&(a, _)| a == ANY_LETTER) {
        shared.any_flags[si as usize] |= S_ANY;
    }
    let s_off = u_off + shared.wu;
    for &(a, _) in srow {
        let ai = a as usize;
        if ai < shared.ns {
            shared.wants[s_off + ai / 64] |= 1u64 << (ai % 64);
        }
    }
    if autos.f.h_is_accept(st.sf) && autos.u.h_is_accept(st.su) && autos.s.h_is_accept(st.ss) {
        let bit = u8::from(sim.local) | st.seen;
        shared.realize(
            Key {
                f: sim.tf_target,
                u: sim.tu_target,
                bit,
                s: sim.ts_target,
            },
            si,
            id,
        );
        if sim.root_final && bit == 1 && shared.root_hit.is_none() {
            shared.root_hit = Some((si, id));
        }
    }
}

/// Offers realized letter `li` to frontier state `xi`: one fused scan per
/// component (symbol edges matching the letter's component, then wildcard
/// entries, which carry [`ANY_LETTER`] and match everything).
fn try_letter(
    si: u32,
    autos: CompiledTriple<'_>,
    sim: &mut Sim,
    shared: &mut Shared,
    xi: u32,
    li: LetterId,
) {
    let x = sim.states[xi as usize].0;
    let key = shared.letters[li as usize];
    shared.budget.on_transition();
    let seen2 = x.seen | key.bit;
    let frow = autos.f.h_step_from(x.sf);
    let urow = autos.u.h_step_from(x.su);
    let srow = autos.s.h_step_from(x.ss);
    for &(af, tf2) in frow {
        if af != key.f && af != ANY_LETTER {
            continue;
        }
        for &(au, tu2) in urow {
            if au != key.u && au != ANY_LETTER {
                continue;
            }
            for &(a_s, ts2) in srow {
                if a_s != key.s && a_s != ANY_LETTER {
                    continue;
                }
                add_fstate(
                    si,
                    autos,
                    sim,
                    shared,
                    FState {
                        sf: tf2,
                        su: tu2,
                        ss: ts2,
                        seen: seen2,
                    },
                    Some((Some(li), xi)),
                );
            }
        }
    }
}

/// Expands one fresh frontier state: ε-moves of each component, then every
/// already-realized letter this state can consume (letters still queued in
/// the sim's pending list are skipped — the drain will offer them to the
/// whole frontier, this state included).
fn expand(si: u32, autos: CompiledTriple<'_>, sim: &mut Sim, shared: &mut Shared, xi: u32) {
    let x = sim.states[xi as usize].0;
    for &t in autos.f.h_eps_from(x.sf) {
        add_fstate(
            si,
            autos,
            sim,
            shared,
            FState { sf: t, ..x },
            Some((None, xi)),
        );
    }
    for &t in autos.u.h_eps_from(x.su) {
        add_fstate(
            si,
            autos,
            sim,
            shared,
            FState { su: t, ..x },
            Some((None, xi)),
        );
    }
    for &t in autos.s.h_eps_from(x.ss) {
        add_fstate(
            si,
            autos,
            sim,
            shared,
            FState { ss: t, ..x },
            Some((None, xi)),
        );
    }
    if !sim.leaf_only {
        // Replay only the already-realized letters this state can consume
        // on every component: letters it has no edge on would yield no
        // successors. Candidates come from the letter index of the first
        // non-wildcard component (full scan only when all three are
        // wildcards); letters realized during the replay arrive via
        // pending instead — the snapshots below exclude them.
        let frow = autos.f.h_step_from(x.sf);
        let f_any = frow.last().is_some_and(|&(a, _)| a == ANY_LETTER);
        let urow = autos.u.h_step_from(x.su);
        let u_any = urow.last().is_some_and(|&(a, _)| a == ANY_LETTER);
        let srow = autos.s.h_step_from(x.ss);
        let s_any = srow.last().is_some_and(|&(a, _)| a == ANY_LETTER);
        let mut buf = std::mem::take(&mut shared.replay_buf);
        buf.clear();
        if f_any && u_any && s_any {
            buf.extend(0..shared.letters.len() as LetterId);
        } else {
            let (row, head, next) = if !s_any {
                (srow, &shared.lhead_s, &shared.lnext_s)
            } else if !u_any {
                (urow, &shared.lhead_u, &shared.lnext_u)
            } else {
                (frow, &shared.lhead_f, &shared.lnext_f)
            };
            for (i, &(a, _)) in row.iter().enumerate() {
                // Rows may repeat a letter (several targets); index once.
                // Sentinel letters outside the automaton never realize.
                if (a as usize) >= head.len() || row[..i].iter().any(|&(l, _)| l == a) {
                    continue;
                }
                let mut cur = head[a as usize];
                while cur != NONE {
                    buf.push(cur);
                    cur = next[cur as usize];
                }
            }
        }
        for &li in &buf {
            let k = shared.letters[li as usize];
            if (f_any || frow.iter().any(|&(a, _)| a == k.f))
                && (u_any || urow.iter().any(|&(a, _)| a == k.u))
                && (s_any || srow.iter().any(|&(a, _)| a == k.s))
                && !shared.pending[si as usize].contains(&li)
            {
                try_letter(si, autos, sim, shared, xi, li);
                if shared.stop() {
                    break;
                }
            }
        }
        shared.replay_buf = buf;
    }
}

/// Drains a sim's pending work: fresh frontier states, then realized letters
/// not yet offered to the settled frontier. On exit (absent an early stop)
/// the sim is quiescent; it runs again only when the dirty queue wakes it.
fn pump(si: u32, autos: CompiledTriple<'_>, sim: &mut Sim, shared: &mut Shared) {
    if sim.dead {
        return;
    }
    if !sim.root_final {
        // All keys the triple can ever realize exist: nothing left to learn.
        let done = [u8::from(sim.local), 1].iter().all(|&bit| {
            shared.table.contains(Key {
                f: sim.tf_target,
                u: sim.tu_target,
                bit,
                s: sim.ts_target,
            })
        });
        if done {
            sim.dead = true;
            return;
        }
    }
    loop {
        if shared.stop() {
            return;
        }
        if (sim.expanded as usize) < sim.states.len() {
            let xi = sim.expanded;
            sim.expanded += 1;
            expand(si, autos, sim, shared, xi);
        } else if let Some(li) = shared.pending[si as usize].pop() {
            if sim.leaf_only {
                continue;
            }
            // Offer the letter to the settled frontier — it is small (and
            // `try_letter` rejects a non-consuming state on its first row
            // scan), so a direct walk beats maintaining a per-sim edge
            // index. States added mid-walk are fresh and replay the letter
            // during their own expansion (it is already out of `pending`,
            // so the replay does not skip it).
            let ne = sim.states.len() as u32;
            for xi in 0..ne {
                try_letter(si, autos, sim, shared, xi, li);
                if shared.stop() {
                    return;
                }
            }
        } else {
            break;
        }
    }
    if sim.leaf_only {
        // ε-closure of the start tuple has been checked; leaves never gain
        // children, so the frontier is complete.
        sim.dead = true;
    }
}

/// Reconstructs the consumed-letter word of the pred chain ending at `fi`.
fn word_of(sim: &Sim, fi: u32) -> Vec<LetterId> {
    let mut word = Vec::new();
    let mut cur = fi;
    while let Some((letter, prev)) = sim.states[cur as usize].1 {
        if let Some(l) = letter {
            word.push(l);
        }
        cur = prev;
    }
    word.reverse();
    word
}

/// Everything witness reconstruction needs to turn guard masks back into
/// concrete labels.
struct WitnessEnv<'w> {
    alphabet: &'w Alphabet,
    part: &'w GuardPartition,
    masks: &'w [u64],
    words: usize,
}

impl WitnessEnv<'_> {
    fn label_of(&self, sim: &Sim) -> Symbol {
        let m = &self.masks[sim.mask_row..sim.mask_row + self.words];
        self.part.witness_label_for_mask(m, self.alphabet)
    }
}

/// Builds the witness subtree realizing `letter`. Terminates because every
/// letter in a firing's word was realized strictly earlier.
fn spec_of(env: &WitnessEnv, sims: &[Sim], shared: &Shared, letter: LetterId) -> TreeSpec {
    let (si, fi) = shared.firings[letter as usize];
    let sim = &sims[si as usize];
    let label = env.label_of(sim);
    match env.alphabet.kind(label) {
        LabelKind::Element => {
            let children = word_of(sim, fi)
                .into_iter()
                .map(|l| spec_of(env, sims, shared, l))
                .collect();
            TreeSpec::elem(label, children)
        }
        LabelKind::Attribute => TreeSpec::attr(label, "w"),
        LabelKind::Text => TreeSpec::text("w"),
    }
}

fn build_witness(env: &WitnessEnv, sims: &[Sim], shared: &Shared, root: (u32, u32)) -> Document {
    let mut doc = Document::new(env.alphabet.clone());
    for li in word_of(&sims[root.0 as usize], root.1) {
        let spec = spec_of(env, sims, shared, li);
        let (parent, pos) = (doc.root(), doc.children(doc.root()).len());
        regtree_xml::insert_child(&mut doc, parent, pos, &spec)
            .expect("witness specs are well-formed");
    }
    debug_assert!(doc.check_well_formed().is_ok());
    doc
}

/// Runs the lazy on-the-fly IC emptiness check.
///
/// `pa_fd` must be compiled with marking, `pa_u` without; `autos` holds
/// their arena/CSR forms and that of the schema automaton (the universal
/// automaton when there is no schema, which is language-preserving), all
/// compiled against `part`, which must cover the three automata (as
/// [`GuardPartition::from_automata`] over a superset of them guarantees).
pub(crate) fn lazy_independence(
    pa_fd: &PatternAutomaton,
    pa_u: &PatternAutomaton,
    class: &UpdateClass,
    part: &GuardPartition,
    autos: CompiledTriple<'_>,
    budget: &mut Budget,
) -> LazyOutcome {
    let alphabet = class.pattern().template().alphabet();
    let (cf, cu, cs) = (autos.f, autos.u, autos.s);
    // Borrow the per-thread scratch: every container below starts empty but
    // retains the capacity (and dense-table state) of previous runs.
    let mut ws = WORKSPACE.with(|w| std::mem::take(&mut *w.borrow_mut()));
    let nf = cf.num_states();
    let nu = cu.num_states();
    let ns = cs.num_states();
    let total_states = nf * nu * 2 * ns;
    let words = part.mask_words();
    debug_assert_eq!(
        cf.mask_words(),
        words,
        "triple compiled against another partition"
    );
    let elem_mask = part.element_classes_mask(alphabet);
    let root_class = part.class_of(Alphabet::ROOT);

    let selected = class.pattern().selected();
    let mut sims = std::mem::take(&mut ws.sims);
    let mut spare_states = std::mem::take(&mut ws.spare_states);
    // Triple guard masks, one `words` row per sim.
    let mut tri_masks = std::mem::take(&mut ws.tri_masks);
    let mut table = std::mem::take(&mut ws.table);
    table.prepare(nu, ns, total_states);
    let prep_heads = |v: &mut Vec<u32>, n: usize| {
        v.clear();
        v.resize(n, NONE);
    };
    prep_heads(&mut ws.lhead_f, nf);
    prep_heads(&mut ws.lhead_u, nu);
    prep_heads(&mut ws.lhead_s, ns);
    prep_heads(&mut ws.whead, nf);
    let mut shared = Shared {
        letters: std::mem::take(&mut ws.letters),
        table,
        firings: std::mem::take(&mut ws.firings),
        root_hit: None,
        budget,
        exhausted: None,
        nf,
        nu,
        ns,
        wf: nf.div_ceil(64).max(1),
        wu: nu.div_ceil(64).max(1),
        stride: nf.div_ceil(64).max(1) + nu.div_ceil(64).max(1) + ns.div_ceil(64).max(1),
        wants: std::mem::take(&mut ws.wants),
        any_flags: std::mem::take(&mut ws.any_flags),
        pending: std::mem::take(&mut ws.pending),
        lhead_f: std::mem::take(&mut ws.lhead_f),
        lnext_f: std::mem::take(&mut ws.lnext_f),
        lhead_u: std::mem::take(&mut ws.lhead_u),
        lnext_u: std::mem::take(&mut ws.lnext_u),
        lhead_s: std::mem::take(&mut ws.lhead_s),
        lnext_s: std::mem::take(&mut ws.lnext_s),
        replay_buf: std::mem::take(&mut ws.replay_buf),
        whead: std::mem::take(&mut ws.whead),
        wlink: std::mem::take(&mut ws.wlink),
        watchers_any: std::mem::take(&mut ws.watchers_any),
        dirty: std::mem::take(&mut ws.dirty),
        in_dirty: std::mem::take(&mut ws.in_dirty),
    };
    // Dedup stamp over schema-transition candidates per (tf, tu) pair. The
    // stamps persist across runs because the generation counter only grows;
    // both reset together long before it can wrap.
    let mut stamp = std::mem::take(&mut ws.stamp);
    if stamp.len() < cs.num_transitions() {
        stamp.resize(cs.num_transitions(), 0);
    }
    let mut generation: u32 = ws.generation;
    if generation > u32::MAX / 2 {
        stamp.fill(0);
        generation = 0;
    }
    let mut fu = std::mem::take(&mut ws.fu);
    fu.clear();
    fu.resize(words, 0);
    let mut cand = std::mem::take(&mut ws.cand);

    'setup: for fi in 0..cf.num_transitions() {
        if let Err(r) = shared.budget.checkpoint() {
            shared.exhausted.get_or_insert(r);
            break 'setup;
        }
        let tf_target = cf.target(fi);
        let in_region = pa_fd.in_region(tf_target);
        for ui in 0..cu.num_transitions() {
            let mf = cf.mask(fi);
            let mu = cu.mask(ui);
            let mut any = 0u64;
            for w in 0..words {
                let v = mf[w] & mu[w];
                fu[w] = v;
                any |= v;
            }
            if any == 0 {
                continue;
            }
            shared.budget.on_guard_intersection();
            let tu_target = cu.target(ui);
            let updated_here = pa_u
                .endpoint_of(tu_target)
                .map(|w| selected.contains(&w))
                .unwrap_or(false);
            let local = updated_here && in_region;
            generation += 1;
            cand.clear();
            for c in iter_classes(&fu) {
                for &ti in cs.guard_class_candidates(c) {
                    if stamp[ti as usize] != generation {
                        stamp[ti as usize] = generation;
                        cand.push(ti);
                    }
                }
            }
            for &ti in cs.wildcard_transitions() {
                if stamp[ti as usize] != generation {
                    stamp[ti as usize] = generation;
                    cand.push(ti);
                }
            }
            for &cand_ti in &cand {
                let ti = cand_ti as usize;
                shared.budget.on_guard_intersection();
                let ms = cs.mask(ti);
                let row = tri_masks.len();
                let mut nz = 0u64;
                for w in 0..words {
                    let v = fu[w] & ms[w];
                    nz |= v;
                    tri_masks.push(v);
                }
                if nz == 0 {
                    tri_masks.truncate(row);
                    continue;
                }
                let ts_target = cs.target(ti);
                let tri = &tri_masks[row..row + words];
                let root_final = tf_target == pa_fd.acc
                    && tu_target == pa_u.acc
                    && cs.is_final(ts_target)
                    && tri[root_class / 64] & (1u64 << (root_class % 64)) != 0;
                let leaf_only = tri.iter().zip(&elem_mask).all(|(a, b)| a & b == 0);
                let si = sims.len() as u32;
                shared.wants.resize(shared.wants.len() + shared.stride, 0);
                shared.any_flags.push(0);
                if (si as usize) >= shared.pending.len() {
                    shared.pending.push(Vec::new());
                }
                shared.in_dirty.push(false);
                sims.push(Sim {
                    mask_row: row,
                    tf_target,
                    tu_target,
                    ts_target,
                    local,
                    leaf_only,
                    root_final,
                    states: spare_states.pop().unwrap_or_default(),
                    expanded: 0,
                    dead: false,
                });
                let sim = sims.last_mut().unwrap();
                let start = FState {
                    sf: cf.horizontal_start(fi),
                    su: cu.horizontal_start(ui),
                    ss: cs.horizontal_start(ti),
                    seen: 0,
                };
                add_fstate(si, autos, sim, &mut shared, start, None);
                shared.mark_dirty(si);
            }
        }
    }

    // Drain the dirty queue until every sim is quiescent (fixpoint), a root
    // firing accepts (early exit), or the budget runs out (graceful abort).
    // A sim re-enters the queue only when a letter it watches realizes.
    let trace = shared.budget.trace().clone();
    let fixpoint_span = trace.span(SpanKind::EmptinessFixpoint, "lazy product");
    while let Some(si) = shared.dirty.pop() {
        shared.in_dirty[si as usize] = false;
        if shared.stop() {
            break;
        }
        pump(si, autos, &mut sims[si as usize], &mut shared);
    }
    drop(fixpoint_span);

    let verdict = match (shared.root_hit, shared.exhausted) {
        // A root hit is a definite answer even under an exhausted budget.
        (Some(root), _) => {
            let env = WitnessEnv {
                alphabet,
                part,
                masks: &tri_masks,
                words,
            };
            Verdict::Unknown {
                witness: Some(Box::new(build_witness(&env, &sims, &shared, root))),
                exhausted: None,
            }
        }
        (None, Some(r)) => Verdict::Unknown {
            witness: None,
            exhausted: Some(r),
        },
        (None, None) => Verdict::Independent,
    };
    let explored_states = shared.letters.len();

    // Return the scratch to the thread-local workspace: cleared (restoring
    // the dense-table invariant via `reset`), capacities intact.
    shared.table.reset(&shared.letters);
    let clear = |mut v: Vec<u32>| {
        v.clear();
        v
    };
    for v in &mut shared.pending {
        v.clear();
    }
    for mut sim in sims.drain(..) {
        sim.states.clear();
        spare_states.push(std::mem::take(&mut sim.states));
    }
    shared.letters.clear();
    shared.firings.clear();
    shared.wants.clear();
    shared.any_flags.clear();
    shared.wlink.clear();
    shared.in_dirty.clear();
    tri_masks.clear();
    cand.clear();
    WORKSPACE.with(|w| {
        let mut ws = w.borrow_mut();
        *ws = Workspace {
            table: shared.table,
            letters: shared.letters,
            firings: shared.firings,
            wants: shared.wants,
            any_flags: shared.any_flags,
            pending: shared.pending,
            lhead_f: shared.lhead_f,
            lnext_f: clear(shared.lnext_f),
            lhead_u: shared.lhead_u,
            lnext_u: clear(shared.lnext_u),
            lhead_s: shared.lhead_s,
            lnext_s: clear(shared.lnext_s),
            replay_buf: shared.replay_buf,
            whead: shared.whead,
            wlink: shared.wlink,
            watchers_any: clear(shared.watchers_any),
            dirty: clear(shared.dirty),
            in_dirty: shared.in_dirty,
            sims,
            spare_states,
            tri_masks,
            stamp,
            generation,
            fu,
            cand,
        };
    });

    LazyOutcome {
        verdict,
        explored_states,
        total_states,
    }
}
