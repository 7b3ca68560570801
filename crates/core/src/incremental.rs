//! Impact-scoped incremental FD checking over versioned documents.
//!
//! The naive loop after every update is: clone the tree, apply, rebuild
//! the label index, re-enumerate every FD's traces from scratch. The
//! [`IncrementalChecker`] replaces all four steps. Updates are applied as
//! deltas through [`VersionedDocument`] (in place; the edits patch the
//! document's own label index, which every recheck reads), and each FD's
//! recheck is scoped by what the [`Delta`] can have touched:
//!
//! * **Unaffected** — the delta provably cannot change any context's
//!   verdict-relevant surroundings (see below): the previous verdict is
//!   carried forward ([`RecheckScope::Unaffected`], counted in
//!   `RunMetrics::verdicts_reused`).
//! * **Localized** — the FD held before and its template is anchored on
//!   the context (the shape [`crate::parse_fd`] builds): only the affected
//!   contexts' buckets are dropped and re-derived with an anchored
//!   enumeration ([`regtree_pattern::project_mappings_anchored_governed`]),
//!   leaving every other context's buckets untouched
//!   ([`RecheckScope::Localized`]).
//! * **Global** — opaque deltas (custom surgery), non-anchored templates,
//!   or a prior `Violated`/`Unknown` verdict with affected contexts: a
//!   full re-verification runs ([`RecheckScope::Global`]).
//!
//! # How a context becomes *affected*
//!
//! An alive node's root path never changes under subtree edits, and the
//! mapping set over pre-existing nodes is invariant (document order is
//! relative, branch-child identity is stable). A context image `c` can
//! therefore only change its verdict contribution through one of:
//!
//! 1. **Value relevance** — an edit changed the subtree value of a
//!    `V`-equality condition or target image under `c`. Detected by
//!    running the *selected-path* automaton (union of the `c`→selected
//!    edge languages, `V`-equality nodes only) down the path from `c` to
//!    each edit site: any accepting prefix names an image whose value
//!    changed.
//! 2. **Mapping relevance** — a grafted or detached subtree under `c`
//!    contains an image of some template node. Detected by running the
//!    *reach* automaton (union of the `c`→node path languages over all
//!    template nodes below the context) from `c` to the edit site and on
//!    into the inserted/removed subtree, looking for an accepting state.
//!    Detached subtrees keep their labels and child lists, so the walk
//!    reconstructs the pre-edit words exactly.
//! 3. **Birth or death** — `c` itself sits inside an inserted subtree or
//!    a removed one, both found by running the context automaton over the
//!    subtree's nodes (labels and child lists survive a detach, as in
//!    mechanism 2). Deaths are detected from the delta itself, not from
//!    retained state: a previously-satisfied FD's buckets would reveal
//!    them too, but a `Violated`/`Unknown` verdict retains no buckets and
//!    may hinge entirely on contexts the delta just deleted.
//!
//! Everything else is provably irrelevant, which is what lets a root-level
//! context (`session`) stay **Unaffected** under edits that only touch
//! paths outside the FD's selected languages.

use std::collections::HashSet;
use std::time::Instant;

use regtree_automata::{EdgeDfa, Nfa, Regex, StateId, EDGE_DEAD};
use regtree_pattern::{project_mappings_anchored_governed, Template, TemplateNodeId};
use regtree_runtime::{
    Budget, CancelToken, Resource, RunLimits, RunMetrics, SpanKind, Stopwatch, TraceHandle,
};
use regtree_xml::{Delta, Document, NodeId, VersionedDocument};

use crate::fd::{EqualityType, Fd};
use crate::satisfy::{check_fd_governed_retaining, fd_keep, BucketState, FdOutcome, FdViolation};
use crate::update::{ApplyError, Update};

/// How one FD's verdict was re-established for one delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecheckScope {
    /// The delta provably cannot affect the FD; the verdict was carried
    /// forward without touching the document.
    Unaffected,
    /// Only the affected contexts were re-enumerated (anchored search);
    /// every other context's buckets were reused.
    Localized,
    /// A full document re-verification ran.
    Global,
}

/// Retained per-FD verdict plus whatever state makes the next recheck
/// cheaper.
enum FdState {
    /// The FD holds; the bucket structure is kept for context-level surgery.
    Satisfied(BucketState),
    /// A concrete violation was found (its witness nodes may since have
    /// been edited; the witness is from the verdict's document version).
    Violated(FdViolation),
    /// The verdict run was cut short.
    Unknown(Resource),
}

impl FdState {
    fn outcome(&self) -> FdOutcome {
        match self {
            FdState::Satisfied(_) => FdOutcome::Satisfied,
            FdState::Violated(v) => FdOutcome::Violated(v.clone()),
            FdState::Unknown(r) => FdOutcome::Unknown { exhausted: *r },
        }
    }

    fn from_check(outcome: FdOutcome, buckets: Option<BucketState>) -> FdState {
        match (outcome, buckets) {
            (FdOutcome::Satisfied, Some(b)) => FdState::Satisfied(b),
            (FdOutcome::Satisfied, None) => unreachable!("satisfied checks retain buckets"),
            (FdOutcome::Violated(v), _) => FdState::Violated(v),
            (FdOutcome::Unknown { exhausted, .. }, _) => FdState::Unknown(exhausted),
        }
    }
}

/// Report of one [`IncrementalChecker::apply_and_recheck`] round.
#[derive(Clone, Debug)]
pub struct RecheckReport {
    /// The nodes the update touched.
    pub touched: Vec<NodeId>,
    /// Per FD (input order): how far the recheck had to reach.
    pub scopes: Vec<RecheckScope>,
    /// Per FD (input order): the verdict after the update.
    pub outcomes: Vec<FdOutcome>,
    /// Merged work counters of this round.
    pub metrics: RunMetrics,
}

impl RecheckReport {
    /// Do all FDs still hold? (`Unknown` counts as not-satisfied.)
    pub fn all_satisfied(&self) -> bool {
        self.outcomes.iter().all(FdOutcome::is_satisfied)
    }
}

/// Incremental FD checking over a stream of updates: verdicts and bucket
/// state are retained between updates and re-derived only where a delta
/// can have invalidated them. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use regtree_core::{parse_fd, IncrementalChecker, RecheckScope, Update, UpdateOp};
/// use regtree_core::update_class_from_edges;
/// use regtree_alphabet::Alphabet;
/// use regtree_xml::{parse_document, VersionedDocument};
///
/// let a = Alphabet::new();
/// let fd = parse_fd(&a, "/session : candidate/exam/discipline -> candidate/exam/rank").unwrap();
/// let doc = parse_document(
///     &a,
///     "<session><candidate><exam><discipline>m</discipline><rank>1</rank></exam>\
///      <level>B</level></candidate></session>",
/// ).unwrap();
/// let mut vdoc = VersionedDocument::new(doc);
/// let mut checker = IncrementalChecker::new(vec![fd], &vdoc);
/// assert!(checker.all_satisfied());
///
/// // Level edits cannot touch the FD: the verdict is carried forward.
/// let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
/// let up = Update::new(class, UpdateOp::SetText("C".into()));
/// let report = checker.apply_and_recheck(&mut vdoc, &up).unwrap();
/// assert_eq!(report.scopes, vec![RecheckScope::Unaffected]);
/// assert!(report.all_satisfied());
/// ```
pub struct IncrementalChecker {
    fds: Vec<Fd>,
    states: Vec<FdState>,
    scopes: Vec<Option<ContextScope>>,
    limits: RunLimits,
    cancel: Option<CancelToken>,
    trace: TraceHandle,
    initial_metrics: RunMetrics,
}

impl IncrementalChecker {
    /// Runs an initial full verification of every FD (unlimited budget) and
    /// retains the verdicts plus bucket state.
    pub fn new(fds: Vec<Fd>, vdoc: &VersionedDocument) -> IncrementalChecker {
        IncrementalChecker::with_governance(
            fds,
            vdoc,
            RunLimits::default(),
            TraceHandle::default(),
            None,
        )
    }

    /// [`IncrementalChecker::new`] with explicit limits, tracing, and an
    /// optional cancellation token; the initial verification and every
    /// later recheck run under the same governance (one deadline covers
    /// the initial verification of all FDs, and each
    /// [`IncrementalChecker::apply_and_recheck`] arms a fresh one shared
    /// by the update's selection and every FD's recheck) until
    /// [`IncrementalChecker::set_limits`] /
    /// [`IncrementalChecker::set_cancel`] replace it.
    pub fn with_governance(
        fds: Vec<Fd>,
        vdoc: &VersionedDocument,
        limits: RunLimits,
        trace: TraceHandle,
        cancel: Option<CancelToken>,
    ) -> IncrementalChecker {
        let mut initial_metrics = RunMetrics::default();
        // One deadline for the whole seeding batch, as for a recheck round.
        let deadline_at = Budget::new(&limits).deadline_at();
        let states = fds
            .iter()
            .map(|fd| {
                let mut budget = round_budget(&limits, deadline_at, cancel.as_ref(), &trace);
                let (outcome, buckets) = check_fd_governed_retaining(fd, vdoc.doc(), &mut budget);
                initial_metrics.merge(budget.metrics());
                FdState::from_check(outcome, buckets)
            })
            .collect();
        let scopes = fds.iter().map(ContextScope::build).collect();
        IncrementalChecker {
            fds,
            states,
            scopes,
            limits,
            cancel,
            trace,
            initial_metrics,
        }
    }

    /// Replaces the limits governing every later recheck. Retained
    /// verdicts and bucket state are kept: carrying a verdict forward is
    /// sound under any limits, and a verdict left `Unknown` by tighter
    /// limits is re-derived the next time its contexts are affected.
    pub fn set_limits(&mut self, limits: RunLimits) {
        self.limits = limits;
    }

    /// Attaches (or, with `None`, detaches) a cancellation token polled by
    /// every later recheck. A cancelled round degrades its in-flight FD
    /// verdicts to `Unknown` with [`Resource::Cancelled`], exactly like
    /// any other budget exhaustion.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Work counters accumulated by the initial full verification (the
    /// per-update counters live on each [`RecheckReport`]).
    pub fn initial_metrics(&self) -> &RunMetrics {
        &self.initial_metrics
    }

    /// Current verdicts, in input order.
    pub fn outcomes(&self) -> Vec<FdOutcome> {
        self.states.iter().map(FdState::outcome).collect()
    }

    /// Do all FDs currently hold?
    pub fn all_satisfied(&self) -> bool {
        self.outcomes().iter().all(FdOutcome::is_satisfied)
    }

    /// Applies `update` as a delta and rechecks every FD at the smallest
    /// sound scope. One deadline covers the update's selection and the
    /// recheck round. Selection runs under the checker's limits and
    /// cancel token; if it runs out, the call returns
    /// [`ApplyError::Exhausted`] before any edit, leaving `vdoc`, its
    /// version and its delta untouched. Other application errors leave
    /// the checker usable (partial edits are in the document, and the
    /// *next* recheck will see their delta).
    pub fn apply_and_recheck(
        &mut self,
        vdoc: &mut VersionedDocument,
        update: &Update,
    ) -> Result<RecheckReport, ApplyError> {
        let deadline_at = Budget::new(&self.limits).deadline_at();
        let touched = {
            let _span = self.trace.span(SpanKind::DeltaApply, "");
            let mut budget =
                round_budget(&self.limits, deadline_at, self.cancel.as_ref(), &self.trace);
            update.apply_versioned_governed(vdoc, &mut budget)?
        };
        let delta = vdoc.take_delta();
        let mut report = self.recheck_delta(vdoc, &delta, deadline_at);
        report.touched = touched;
        report.metrics.deltas_applied += 1;
        Ok(report)
    }

    /// Rechecks every FD against a delta the caller already applied
    /// through `vdoc`'s delta methods ([`VersionedDocument::take_delta`]).
    ///
    /// The delta must correspond to *one* logical update: a batch in which
    /// a removal's former parent was itself detached by a later edit
    /// cannot be scoped and falls back to a global recheck. Every FD's
    /// recheck shares the deadline `deadline_at`.
    pub(crate) fn recheck_delta(
        &mut self,
        vdoc: &VersionedDocument,
        delta: &Delta,
        deadline_at: Option<Instant>,
    ) -> RecheckReport {
        let search = Stopwatch::start();
        let _span = self.trace.span(SpanKind::ScopeClassify, "");
        let doc = vdoc.doc();
        let mut metrics = RunMetrics::default();
        let mut scopes = Vec::with_capacity(self.fds.len());
        let mut outcomes = Vec::with_capacity(self.fds.len());

        let IncrementalChecker {
            fds,
            states,
            scopes: fd_scopes,
            limits,
            cancel,
            trace,
            ..
        } = self;
        for ((fd, state), fd_scope) in fds.iter().zip(states.iter_mut()).zip(fd_scopes.iter()) {
            let (scope, affected) = classify(fd_scope.as_ref(), state, doc, delta);
            match scope {
                RecheckScope::Unaffected => metrics.verdicts_reused += 1,
                RecheckScope::Localized => {
                    let mut budget = round_budget(limits, deadline_at, cancel.as_ref(), trace);
                    recheck_localized(fd, state, doc, &affected, &mut budget);
                    metrics.merge(&budget.into_metrics());
                    metrics.rechecks_localized += 1;
                }
                RecheckScope::Global => {
                    let mut budget = round_budget(limits, deadline_at, cancel.as_ref(), trace);
                    let (outcome, buckets) = check_fd_governed_retaining(fd, doc, &mut budget);
                    *state = FdState::from_check(outcome, buckets);
                    metrics.merge(&budget.into_metrics());
                    metrics.rechecks_full += 1;
                }
            }
            scopes.push(scope);
            outcomes.push(state.outcome());
        }
        metrics.search_nanos = search.elapsed_nanos();
        RecheckReport {
            touched: Vec::new(),
            scopes,
            outcomes,
            metrics,
        }
    }
}

/// A budget under the checker's governance: limits, the deadline shared by
/// one round's FDs, optional cancellation token, and tracing.
fn round_budget(
    limits: &RunLimits,
    deadline_at: Option<Instant>,
    cancel: Option<&CancelToken>,
    trace: &TraceHandle,
) -> Budget {
    let mut budget = Budget::new(limits)
        .with_deadline_at(deadline_at)
        .with_trace(trace.clone());
    if let Some(token) = cancel {
        budget = budget.with_cancel(token.clone());
    }
    budget
}

/// Is the FD's template anchored on its context node (the root's only
/// child, everything else below it — the shape [`crate::parse_fd`] builds)?
fn anchored_on_context(fd: &Fd) -> bool {
    fd.template().children(fd.template().root()) == std::slice::from_ref(&fd.context())
}

/// Picks the smallest sound recheck scope for one FD against one delta,
/// returning the affected context images alongside (for the localized
/// path).
fn classify(
    scope: Option<&ContextScope>,
    state: &FdState,
    doc: &Document,
    delta: &Delta,
) -> (RecheckScope, Vec<NodeId>) {
    if delta.is_empty() {
        return (RecheckScope::Unaffected, Vec::new());
    }
    if delta.opaque {
        return (RecheckScope::Global, Vec::new());
    }
    // Non-anchored templates can match nodes outside any context's subtree,
    // so per-context scoping is unsound for them.
    let Some(scope) = scope else {
        return (RecheckScope::Global, Vec::new());
    };
    let Some(affected) = affected_contexts(scope, doc, delta) else {
        return (RecheckScope::Global, Vec::new());
    };
    // Deaths come from the delta's removed-subtree walk, so they are seen
    // for every prior verdict; the bucket scan is a belt-and-suspenders
    // double check for the satisfied case (buckets name the exact context
    // set the verdict was derived from).
    let contexts_died = affected.deaths
        || match state {
            FdState::Satisfied(b) => b.contexts().any(|c| !doc.is_alive(c)),
            _ => false,
        };
    if affected.contexts.is_empty() && !contexts_died {
        // Nothing the delta touched can reach any context of this FD: the
        // verdict (whatever it is) still stands.
        return (RecheckScope::Unaffected, Vec::new());
    }
    match state {
        FdState::Satisfied(_) => (RecheckScope::Localized, affected.contexts),
        _ => (RecheckScope::Global, Vec::new()),
    }
}

/// Context-level bucket surgery: drop the affected (and dead) contexts'
/// buckets, re-enumerate only those contexts with an anchored search, and
/// fold the fresh projections back in.
fn recheck_localized(
    fd: &Fd,
    state: &mut FdState,
    doc: &Document,
    affected: &[NodeId],
    budget: &mut Budget,
) {
    let mut next: Option<FdState> = None;
    if let FdState::Satisfied(buckets) = state {
        let dead: Vec<NodeId> = buckets.contexts().filter(|&c| !doc.is_alive(c)).collect();
        for &c in dead.iter().chain(affected.iter()) {
            buckets.remove_context(c);
        }
        let keep = fd_keep(fd);
        match project_mappings_anchored_governed(
            fd.template(),
            doc,
            fd.context(),
            affected,
            &keep,
            budget,
        ) {
            Err(r) => next = Some(FdState::Unknown(r)),
            Ok(projections) => {
                for proj in &projections {
                    if let Err(v) = buckets.insert(fd, doc, proj) {
                        next = Some(FdState::Violated(v));
                        break;
                    }
                }
            }
        }
    } else {
        debug_assert!(false, "localized recheck requires a satisfied state");
        next = Some(FdState::Unknown(Resource::Memo));
    }
    if let Some(s) = next {
        *state = s;
    }
}

/// A path language with a DFA fast path (subset construction may exceed
/// its cap or the language may be degenerate, in which case the NFA set
/// simulation is used).
struct PathLang {
    nfa: Nfa,
    dfa: Option<EdgeDfa>,
}

/// How many DFA states the scoping automata may spend; beyond the cap the
/// NFA simulation is used instead (same answers, more work per step).
const SCOPE_DFA_CAP: usize = 64;

#[derive(Clone)]
enum LangState {
    Dfa(StateId),
    Nfa(Vec<StateId>),
}

impl PathLang {
    fn new(regex: &Regex) -> PathLang {
        let nfa = Nfa::from_regex(regex);
        let dfa = EdgeDfa::from_nfa(&nfa, SCOPE_DFA_CAP);
        PathLang { nfa, dfa }
    }

    fn start(&self) -> LangState {
        match &self.dfa {
            Some(d) => LangState::Dfa(d.start()),
            None => LangState::Nfa(self.nfa.initial_set()),
        }
    }

    fn step(&self, st: &LangState, letter: u32) -> LangState {
        match st {
            LangState::Dfa(s) => {
                LangState::Dfa(self.dfa.as_ref().expect("dfa state").step(*s, letter))
            }
            LangState::Nfa(set) => LangState::Nfa(self.nfa.step(set, letter)),
        }
    }

    fn dead(&self, st: &LangState) -> bool {
        match st {
            LangState::Dfa(s) => {
                *s == EDGE_DEAD || !self.dfa.as_ref().expect("dfa state").is_live(*s)
            }
            LangState::Nfa(set) => set.is_empty(),
        }
    }

    fn accepts(&self, st: &LangState) -> bool {
        match st {
            LangState::Dfa(s) => self.dfa.as_ref().expect("dfa state").is_accept(*s),
            LangState::Nfa(set) => self.nfa.set_accepts(set),
        }
    }
}

/// Precomputed per-FD scoping automata (anchored templates only).
struct ContextScope {
    /// The context edge language (root → context image).
    context: PathLang,
    /// Union of the context→selected path languages over the `V`-equality
    /// conditions and target; `None` when every selected node uses node
    /// equality (then in-place value edits can never matter).
    value_sel: Option<PathLang>,
    /// Union of the context→node path languages over *all* template nodes
    /// strictly below the context; `None` when there are none.
    reach: Option<PathLang>,
}

impl ContextScope {
    fn build(fd: &Fd) -> Option<ContextScope> {
        if !anchored_on_context(fd) {
            return None;
        }
        let t = fd.template();
        let ctx = fd.context();
        let context = PathLang::new(t.edge_regex(ctx)?);

        let selected: Vec<TemplateNodeId> = fd
            .conditions()
            .iter()
            .copied()
            .chain([fd.target()])
            .collect();
        let value_words: Vec<Regex> = selected
            .iter()
            .zip(fd.equality())
            .filter(|&(_, eq)| *eq == EqualityType::Value)
            .map(|(&n, _)| path_regex(t, ctx, n))
            .collect();
        let value_sel = if value_words.is_empty() {
            None
        } else {
            Some(PathLang::new(&Regex::alt(value_words)))
        };

        let reach_words: Vec<Regex> = t
            .preorder()
            .into_iter()
            .filter(|&n| t.is_ancestor(ctx, n))
            .map(|n| path_regex(t, ctx, n))
            .collect();
        let reach = if reach_words.is_empty() {
            None
        } else {
            Some(PathLang::new(&Regex::alt(reach_words)))
        };

        Some(ContextScope {
            context,
            value_sel,
            reach,
        })
    }
}

/// The concatenation of the edge regexes along the template path `from`→`n`
/// (ε when `n == from`).
fn path_regex(t: &Template, from: TemplateNodeId, n: TemplateNodeId) -> Regex {
    let mut parts = Vec::new();
    let mut cur = n;
    while cur != from {
        parts.push(
            t.edge_regex(cur)
                .expect("below-context node has an incoming edge")
                .clone(),
        );
        cur = t.parent(cur).expect("from is an ancestor");
    }
    parts.reverse();
    Regex::seq(parts)
}

/// The root→`n` path, root excluded, `n` included; `None` when `n` hangs
/// off a detached subtree.
fn path_from_root(doc: &Document, n: NodeId) -> Option<Vec<NodeId>> {
    let mut path = Vec::new();
    let mut cur = n;
    while cur != doc.root() {
        path.push(cur);
        cur = doc.parent(cur)?;
    }
    path.reverse();
    Some(path)
}

/// Runs the context automaton down `path`, returning every `(index, node)`
/// at which it accepts — the FD's context images among the ancestors of
/// the path's endpoint.
fn context_candidates(
    scope: &ContextScope,
    doc: &Document,
    path: &[NodeId],
) -> Vec<(usize, NodeId)> {
    let mut out = Vec::new();
    let mut st = scope.context.start();
    for (i, &n) in path.iter().enumerate() {
        st = scope.context.step(&st, doc.label(n).0);
        if scope.context.dead(&st) {
            break;
        }
        if scope.context.accepts(&st) {
            out.push((i, n));
        }
    }
    out
}

/// The scoping verdict for one FD × delta: which alive context images the
/// delta may have changed, and whether any context image died with a
/// removed subtree.
struct Affected {
    /// Alive context images whose verdict-relevant surroundings changed,
    /// sorted by node id.
    contexts: Vec<NodeId>,
    /// A context image sat inside a removed subtree (its traces are all
    /// gone, so any prior verdict that counted them is stale).
    deaths: bool,
}

/// Collects every context image whose verdict-relevant surroundings the
/// delta may have changed (see the module docs for the three mechanisms
/// and the soundness argument). Returns `None` when the delta cannot be
/// scoped — a removal whose former parent was itself detached by a later
/// edit of the same batch.
fn affected_contexts(scope: &ContextScope, doc: &Document, delta: &Delta) -> Option<Affected> {
    let mut out: HashSet<NodeId> = HashSet::new();

    // (1) Value relevance: a V-equality image on the path down to an edit
    // site has its subtree value changed by that edit.
    if let Some(sel) = &scope.value_sel {
        let mut seen: HashSet<NodeId> = HashSet::new();
        for &site in delta.sites.iter().chain(delta.value_sites.iter()) {
            if !doc.is_alive(site) || !seen.insert(site) {
                continue;
            }
            let Some(path) = path_from_root(doc, site) else {
                continue;
            };
            for (i, c) in context_candidates(scope, doc, &path) {
                if out.contains(&c) {
                    continue;
                }
                let mut st = sel.start();
                // A selected node equal to the context itself (ε word):
                // any edit at-or-below `c` changes its subtree value.
                if sel.accepts(&st) {
                    out.insert(c);
                    continue;
                }
                for &x in &path[i + 1..] {
                    st = sel.step(&st, doc.label(x).0);
                    if sel.accepts(&st) {
                        out.insert(c);
                        break;
                    }
                    if sel.dead(&st) {
                        break;
                    }
                }
            }
        }
    }

    // (2) Mapping relevance: a grafted/detached subtree under a context
    // contains a node whose context-relative word completes some template
    // node's path language — i.e. a trace gained or lost an image there.
    if let Some(reach) = &scope.reach {
        let inserted = delta.inserted.iter().filter_map(|&r| {
            if doc.is_alive(r) {
                doc.parent(r).map(|p| (p, r))
            } else {
                // Detached again by a later edit of the same batch; the
                // outer removal's pair covers the region.
                None
            }
        });
        for (parent, root) in delta.removed.iter().copied().chain(inserted) {
            if !doc.is_alive(parent) {
                // The removal site itself was detached later in the batch:
                // the pre-edit attachment path is gone, so scoping is
                // impossible. Fall back to a global recheck.
                return None;
            }
            let Some(path) = path_from_root(doc, parent) else {
                continue;
            };
            'candidates: for (i, c) in context_candidates(scope, doc, &path) {
                if out.contains(&c) {
                    continue;
                }
                // State after reading the word c→parent.
                let mut st = reach.start();
                for &x in &path[i + 1..] {
                    st = reach.step(&st, doc.label(x).0);
                    if reach.dead(&st) {
                        continue 'candidates;
                    }
                }
                // Walk the subtree (labels and child lists survive a
                // detach) looking for an accepting word.
                let mut stack = vec![(root, st)];
                while let Some((n, above)) = stack.pop() {
                    let here = reach.step(&above, doc.label(n).0);
                    if reach.dead(&here) {
                        continue;
                    }
                    if reach.accepts(&here) {
                        out.insert(c);
                        continue 'candidates;
                    }
                    for &child in doc.children(n) {
                        stack.push((child, here.clone()));
                    }
                }
            }
        }
    }

    // (3) Births: context images inside inserted subtrees (their traces
    // are all new, so they are affected outright).
    for &root in &delta.inserted {
        if !doc.is_alive(root) {
            continue;
        }
        let Some(path) = path_from_root(doc, root) else {
            continue;
        };
        // Context automaton state above the inserted root.
        let mut st = scope.context.start();
        for &n in &path[..path.len() - 1] {
            st = scope.context.step(&st, doc.label(n).0);
            if scope.context.dead(&st) {
                break;
            }
        }
        if scope.context.dead(&st) {
            continue;
        }
        let mut stack = vec![(root, st)];
        while let Some((n, above)) = stack.pop() {
            let here = scope.context.step(&above, doc.label(n).0);
            if scope.context.dead(&here) {
                continue;
            }
            if scope.context.accepts(&here) {
                out.insert(n);
            }
            for &child in doc.children(n) {
                stack.push((child, here.clone()));
            }
        }
    }

    // (3b) Deaths: context images inside removed subtrees, found by the
    // same walk as births (labels and child lists survive the detach).
    // The retained buckets only reveal these for a previously-satisfied
    // FD; the structural scan sees them for any prior verdict.
    let mut deaths = false;
    'removed: for &(parent, root) in &delta.removed {
        if !doc.is_alive(parent) {
            // The removal site itself was detached later in the batch:
            // the pre-edit attachment path is gone, so scoping is
            // impossible. Fall back to a global recheck.
            return None;
        }
        let Some(path) = path_from_root(doc, parent) else {
            continue;
        };
        // Context automaton state after the word root→parent.
        let mut st = scope.context.start();
        for &n in &path {
            st = scope.context.step(&st, doc.label(n).0);
            if scope.context.dead(&st) {
                continue 'removed;
            }
        }
        let mut stack = vec![(root, st)];
        while let Some((n, above)) = stack.pop() {
            let here = scope.context.step(&above, doc.label(n).0);
            if scope.context.dead(&here) {
                continue;
            }
            if scope.context.accepts(&here) {
                deaths = true;
                break 'removed;
            }
            for &child in doc.children(n) {
                stack.push((child, here.clone()));
            }
        }
    }

    let mut contexts: Vec<NodeId> = out.into_iter().collect();
    contexts.sort_unstable_by_key(|n| n.0);
    Some(Affected { contexts, deaths })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfy::check_fd;
    use crate::textfd::parse_fd;
    use crate::update::{update_class_from_edges, UpdateOp};
    use regtree_alphabet::Alphabet;
    use regtree_xml::{parse_document, TreeSpec};

    fn fd_rank(a: &Alphabet) -> Fd {
        parse_fd(
            a,
            "/session : candidate/exam/discipline -> candidate/exam/rank",
        )
        .unwrap()
    }

    fn doc(a: &Alphabet) -> Document {
        parse_document(
            a,
            "<session>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam><level>B</level></candidate>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam><level>A</level></candidate>\
             </session>",
        )
        .unwrap()
    }

    #[test]
    fn disjoint_updates_carry_the_verdict() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let mut v = VersionedDocument::new(doc(&a));
        let mut checker = IncrementalChecker::new(vec![fd], &v);
        assert!(checker.all_satisfied());
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let up = Update::new(class, UpdateOp::SetText("E".into()));
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert_eq!(report.scopes, vec![RecheckScope::Unaffected]);
        assert!(report.all_satisfied());
        assert_eq!(report.metrics.verdicts_reused, 1);
        assert_eq!(report.metrics.deltas_applied, 1);
    }

    #[test]
    fn localized_recheck_catches_violations() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let d = doc(&a);
        let mut v = VersionedDocument::new(d.clone());
        let mut checker = IncrementalChecker::new(vec![fd.clone()], &v);
        // Rewriting the first rank only breaks the FD (same discipline,
        // different ranks).
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let up = Update::new(
            class,
            UpdateOp::FirstOnly(Box::new(UpdateOp::SetText("9".into()))),
        );
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert_eq!(report.scopes, vec![RecheckScope::Localized]);
        assert!(!report.all_satisfied());
        // Agreement with the clone-and-recheck baseline.
        assert!(check_fd(&fd, &up.apply_cloned(&d).unwrap()).is_err());
    }

    #[test]
    fn inserted_subtrees_join_their_context() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let mut v = VersionedDocument::new(doc(&a));
        let mut checker = IncrementalChecker::new(vec![fd], &v);
        // Grafting a conflicting exam into the first candidate creates a
        // brand-new violating trace.
        let class = update_class_from_edges(&a, &["session/candidate"]).unwrap();
        let exam = TreeSpec::elem_named(
            &a,
            "exam",
            vec![
                TreeSpec::elem_named(&a, "discipline", vec![TreeSpec::text("m")]),
                TreeSpec::elem_named(&a, "rank", vec![TreeSpec::text("7")]),
            ],
        );
        let up = Update::new(
            class,
            UpdateOp::FirstOnly(Box::new(UpdateOp::AppendChild(exam))),
        );
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert_eq!(report.scopes, vec![RecheckScope::Localized]);
        assert!(!report.all_satisfied());
    }

    #[test]
    fn deletions_drop_buckets_and_can_restore_satisfaction() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // Violated document: same discipline, different ranks.
        let bad = parse_document(
            &a,
            "<session>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam></candidate>\
             <candidate><exam><discipline>m</discipline><rank>2</rank></exam></candidate>\
             </session>",
        )
        .unwrap();
        let mut v = VersionedDocument::new(bad);
        let mut checker = IncrementalChecker::new(vec![fd], &v);
        assert!(!checker.all_satisfied());
        // Deleting the second candidate removes the conflict. The prior
        // verdict was Violated, so the recheck goes global.
        let class = update_class_from_edges(&a, &["session/candidate"]).unwrap();
        let up = Update::new(class, UpdateOp::FirstOnly(Box::new(UpdateOp::Delete)));
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert_eq!(report.scopes, vec![RecheckScope::Global]);
        // Only one candidate left: satisfied again.
        assert!(report.all_satisfied(), "{:?}", report.outcomes);
        // A further localized edit keeps working on the fresh buckets.
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let up = Update::new(class, UpdateOp::SetText("3".into()));
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert_eq!(report.scopes, vec![RecheckScope::Localized]);
        assert!(report.all_satisfied());
    }

    #[test]
    fn deleting_a_violating_context_is_never_unaffected() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        // Violated document: same discipline, different ranks.
        let bad = parse_document(
            &a,
            "<session>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam></candidate>\
             <candidate><exam><discipline>m</discipline><rank>2</rank></exam></candidate>\
             </session>",
        )
        .unwrap();
        let mut v = VersionedDocument::new(bad);
        let mut checker = IncrementalChecker::new(vec![fd_rank(&a)], &v);
        assert!(!checker.all_satisfied());
        // Delete the violating <session> context itself. The prior verdict
        // is Violated, so no buckets exist to reveal the death: it must be
        // found by walking the removed subtree with the context automaton.
        let session = {
            let d = v.doc();
            d.children(d.root())[0]
        };
        v.delete_subtree(session).unwrap();
        let delta = v.take_delta();
        let report = checker.recheck_delta(&v, &delta, None);
        assert_eq!(report.scopes, vec![RecheckScope::Global]);
        // No contexts left: satisfied again, agreeing with a fresh check.
        assert!(report.all_satisfied(), "{:?}", report.outcomes);
        assert!(check_fd(&fd, v.doc()).is_ok());
    }

    #[test]
    fn set_limits_regoverns_later_rounds() {
        let a = Alphabet::new();
        let bad = parse_document(
            &a,
            "<session>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam></candidate>\
             <candidate><exam><discipline>m</discipline><rank>2</rank></exam></candidate>\
             </session>",
        )
        .unwrap();
        let mut v = VersionedDocument::new(bad);
        let mut checker = IncrementalChecker::new(vec![fd_rank(&a)], &v);
        assert!(!checker.all_satisfied());
        // A zero deadline applied after the fact must govern the next
        // round: the forced global recheck exhausts before any work.
        checker.set_limits(RunLimits::default().with_deadline(std::time::Duration::ZERO));
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let up = Update::new(
            class,
            UpdateOp::FirstOnly(Box::new(UpdateOp::SetText("2".into()))),
        );
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert_eq!(report.scopes, vec![RecheckScope::Global]);
        assert!(
            matches!(
                report.outcomes[0],
                FdOutcome::Unknown {
                    exhausted: Resource::Deadline,
                    ..
                }
            ),
            "{:?}",
            report.outcomes
        );
    }

    #[test]
    fn cancellation_degrades_rechecks_to_unknown() {
        let a = Alphabet::new();
        let bad = parse_document(
            &a,
            "<session>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam></candidate>\
             <candidate><exam><discipline>m</discipline><rank>2</rank></exam></candidate>\
             </session>",
        )
        .unwrap();
        let mut v = VersionedDocument::new(bad);
        let mut checker = IncrementalChecker::new(vec![fd_rank(&a)], &v);
        assert!(!checker.all_satisfied());
        let token = regtree_runtime::CancelToken::new();
        checker.set_cancel(Some(token.clone()));
        token.cancel();
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let up = Update::new(
            class,
            UpdateOp::FirstOnly(Box::new(UpdateOp::SetText("2".into()))),
        );
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert!(
            matches!(
                report.outcomes[0],
                FdOutcome::Unknown {
                    exhausted: Resource::Cancelled,
                    ..
                }
            ),
            "{:?}",
            report.outcomes
        );
    }

    #[test]
    fn custom_ops_force_a_global_recheck() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let mut v = VersionedDocument::new(doc(&a));
        let mut checker = IncrementalChecker::new(vec![fd], &v);
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let up = Update::new(
            class,
            UpdateOp::Custom(std::sync::Arc::new(|doc, n| {
                let kids: Vec<_> = doc.children(n).to_vec();
                for k in kids {
                    let _ = regtree_xml::set_value(doc, k, "Z");
                }
            })),
        );
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        assert_eq!(report.scopes, vec![RecheckScope::Global]);
        assert_eq!(report.metrics.rechecks_full, 1);
        assert!(report.all_satisfied());
    }

    #[test]
    fn multiple_fds_classify_independently() {
        let a = Alphabet::new();
        let fd_rank = fd_rank(&a);
        let fd_level = parse_fd(&a, "/session : candidate/level -> candidate").unwrap();
        let mut v = VersionedDocument::new(doc(&a));
        let mut checker = IncrementalChecker::new(vec![fd_rank, fd_level], &v);
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let up = Update::new(class, UpdateOp::SetText("E".into()));
        let report = checker.apply_and_recheck(&mut v, &up).unwrap();
        // The rank FD is untouched by level edits; the level FD is not.
        assert_eq!(
            report.scopes,
            vec![RecheckScope::Unaffected, RecheckScope::Localized]
        );
        assert!(report.all_satisfied());
    }

    #[test]
    fn deep_deletions_only_affect_matching_contexts() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let mut v = VersionedDocument::new(doc(&a));
        let mut checker = IncrementalChecker::new(vec![fd], &v);
        // Deleting a `level` leaf is structural, but no trace of the rank
        // FD passes through it: the verdict carries forward.
        let lvl = {
            let d = v.doc();
            let session = d.children(d.root())[0];
            let c1 = d.children(session)[0];
            d.children(c1)[1]
        };
        v.delete_subtree(lvl).unwrap();
        let delta = v.take_delta();
        let report = checker.recheck_delta(&v, &delta, None);
        assert_eq!(report.scopes, vec![RecheckScope::Unaffected]);
        assert!(report.all_satisfied());
        // Deleting a whole exam does remove a trace: localized recheck.
        let exam = {
            let d = v.doc();
            let session = d.children(d.root())[0];
            let c2 = d.children(session)[1];
            d.children(c2)[0]
        };
        v.delete_subtree(exam).unwrap();
        let delta = v.take_delta();
        let report = checker.recheck_delta(&v, &delta, None);
        assert_eq!(report.scopes, vec![RecheckScope::Localized]);
        assert!(report.all_satisfied());
    }
}
