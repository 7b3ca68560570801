//! FD-*set* reasoning: implication closure and minimization.
//!
//! A deployment maintains a set Σ of functional dependencies as one
//! invariant. Before any per-FD analysis (satisfaction checks, the
//! independence matrix) it pays to shrink Σ: an FD implied by the rest can
//! never be the *first* to break, so it needs no row of its own. This
//! module decides implication for FDs in the path formalism of \[8\]
//! (Vincent & Liu-style closure, restricted to stay sound under XML's
//! existence semantics) and exposes [`FdSet::minimize`]: the irredundant
//! core plus a provenance map naming, for each dropped FD, kept FDs that
//! imply it.
//!
//! ## The inference rules
//!
//! All rules work on the path skeletons of trie-factorized FDs (context
//! word `C`, condition paths `S`, target path `Q`, equality types `V`/`N`)
//! and derive *agreement facts*: "any two traces of the goal pattern that
//! agree on the goal's conditions also agree at path `p` with type `E`".
//! The derivation universe is the prefix closure of the goal's own paths —
//! agreement is only meaningful where both traces are defined.
//!
//! * **seed** — the goal's conditions agree by assumption;
//! * **prefix (N)** — node agreement at `p` lifts to every prefix of `p`
//!   (identical nodes have identical ancestors); value agreement does
//!   *not* lift;
//! * **apply** — an FD `(C, S' → Q'[E'])` of the set fires when every path
//!   of `S'` and `Q'` lies in the universe and every condition of `S'` is
//!   covered by a derived fact (`N` covers `N` and `V`; `V` covers only
//!   `V`), adding the fact `Q'[E']`;
//! * **prefix-extension** — an FD with context `C'` where `C = C'·w` is
//!   rewritten to context `C` by stripping `w` from all its paths (the trie
//!   shares the `w` node, so both traces see the same `C'`-node); it then
//!   participates in **apply**.
//!
//! Unrestricted transitivity is *unsound* here: with documents where the
//! intermediate path does not exist, `a → b` and `b → c` hold vacuously
//! while `a → c` fails. Restricting **apply** to the goal's prefix-closed
//! universe sidesteps exactly that trap — every universe path is an
//! ancestor-or-self of a path both traces realize, so existence is never
//! assumed. FDs outside the path formalism only participate through the
//! pattern-level fallback: an exact structural duplicate implies its twin.

use std::collections::{HashMap, HashSet};

use regtree_alphabet::Symbol;
use regtree_pattern::TemplateNodeId;
use regtree_runtime::{Budget, Resource, RunLimits};

use crate::fd::{EqualityType, Fd};
use crate::pathfd::{as_word, expressible_in_path_formalism};

/// The path skeleton of a trie-factorized FD: the context word and each
/// selected node's word relative to the context (conditions first, target
/// last), with equality types.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FdPaths {
    /// Label word from the template root to the context node.
    context: Vec<Symbol>,
    /// One `(relative word, equality type)` per selected node, in selected
    /// order (conditions, then the target).
    selected: Vec<(Vec<Symbol>, EqualityType)>,
}

impl FdPaths {
    /// The target entry (the last selected path).
    fn target(&self) -> &(Vec<Symbol>, EqualityType) {
        self.selected.last().expect("an FD has a target")
    }

    /// Condition entries (all selected paths but the last).
    fn conditions(&self) -> &[(Vec<Symbol>, EqualityType)] {
        &self.selected[..self.selected.len() - 1]
    }
}

/// Extracts the path skeleton of `fd`, or `None` when `fd` does not have
/// the trie-factorized shape (regex edges, unselected leaves, sibling
/// common prefixes, off-spine context, or a selected context node).
fn fd_paths(fd: &Fd) -> Option<FdPaths> {
    expressible_in_path_formalism(fd).ok()?;
    let t = fd.template();
    let word_of = |n| as_word(t.edge_regex(n)?);
    let context = word_of(fd.context())?;
    let mut selected = Vec::with_capacity(fd.pattern().selected().len());
    for (&s, &eq) in fd.pattern().selected().iter().zip(fd.equality()) {
        // Climb from the selected node to the context, collecting edge words.
        let mut rel: Vec<Vec<Symbol>> = Vec::new();
        let mut cur = s;
        while cur != fd.context() {
            rel.push(word_of(cur)?);
            cur = t.parent(cur)?;
        }
        if rel.is_empty() {
            // The context itself is selected: not a shape the trie
            // construction produces (paths in [8] are nonempty).
            return None;
        }
        let mut path = Vec::new();
        for w in rel.iter().rev() {
            path.extend_from_slice(w);
        }
        selected.push((path, eq));
    }
    Some(FdPaths { context, selected })
}

/// The structural identity of an FD: context, equality vector, selected
/// tuple and template sketch, rendered once per FD. Equal keys mean exact
/// duplicates — the pattern-level fallback of the implication closure,
/// which needs no path skeleton, so it also catches duplicated FDs outside
/// the path formalism. Fields compare in order, so the sketch strings are
/// compared last.
#[derive(PartialEq, Eq)]
struct FdKey {
    context: TemplateNodeId,
    equality: Vec<EqualityType>,
    selected: Vec<TemplateNodeId>,
    sketch: String,
}

impl FdKey {
    fn of(fd: &Fd) -> FdKey {
        FdKey {
            context: fd.context(),
            equality: fd.equality().to_vec(),
            selected: fd.pattern().selected().to_vec(),
            sketch: fd.template().sketch(),
        }
    }
}

/// The outcome of an implication query.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Implication {
    /// The set implies the goal; `by` lists indices of set members
    /// sufficient to re-derive it (empty when the goal is trivial —
    /// implied by the empty set).
    Implied {
        /// Indices into the [`FdSet`] of a sufficient implying subset.
        by: Vec<usize>,
    },
    /// The closure completed without deriving the goal.
    NotImplied,
    /// The closure ran out of budget before an answer; treat the goal as
    /// not implied (the sound direction).
    Unknown(Resource),
}

/// One FD dropped by [`FdSet::minimize`], with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DroppedFd {
    /// Index of the dropped FD in the original set.
    pub index: usize,
    /// Indices of *kept* FDs sufficient to imply it (empty for trivial
    /// FDs).
    pub by: Vec<usize>,
}

/// The result of [`FdSet::minimize`]: the irredundant core and what was
/// dropped, with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Minimization {
    /// Indices of the kept (core) FDs, in original order.
    pub kept: Vec<usize>,
    /// Dropped FDs with their implying kept FDs.
    pub dropped: Vec<DroppedFd>,
    /// `Some(resource)` when the closure ran out of budget: the result is
    /// a sound *partial* minimization (every recorded drop is proven, but
    /// further drops may have been missed).
    pub exhausted: Option<Resource>,
}

impl Minimization {
    /// Did the closure run to completion?
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none()
    }

    /// The kept FDs implying dropped FD `index`, if it was dropped.
    pub(crate) fn provenance(&self, index: usize) -> Option<&[usize]> {
        self.dropped
            .iter()
            .find(|d| d.index == index)
            .map(|d| d.by.as_slice())
    }
}

/// A named collection of FDs with implication reasoning. See the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use regtree_core::{parse_fd, FdSet, RunLimits};
/// use regtree_alphabet::Alphabet;
///
/// let a = Alphabet::new();
/// let mut set = FdSet::new();
/// for (name, src) in [
///     ("base", "/s : c/e/d, c/e/m -> c/e/r"),
///     // Implied by `base`: more conditions, same target.
///     ("weaker", "/s : c/e/d, c/e/m, c/n -> c/e/r"),
/// ] {
///     set.push(name, parse_fd(&a, src).unwrap());
/// }
/// let min = set.minimize(&RunLimits::UNLIMITED);
/// assert_eq!(min.kept, vec![0]);
/// assert_eq!(min.dropped.len(), 1);
/// assert_eq!(min.dropped[0].by, vec![0]); // `base` implies `weaker`
/// ```
#[derive(Default)]
pub struct FdSet {
    names: Vec<String>,
    fds: Vec<Fd>,
    keys: Vec<FdKey>,
    paths: Vec<Option<FdPaths>>,
}

/// An FD of the set normalized to the goal's context: condition/target
/// paths relative to the goal context, all inside the goal's universe.
struct Rule {
    fd: usize,
    conditions: Vec<(Vec<Symbol>, EqualityType)>,
    target: (Vec<Symbol>, EqualityType),
}

/// Does an available agreement of type `avail` satisfy a condition
/// requiring type `needed`? Node agreement implies value agreement; the
/// converse fails.
fn covers(avail: EqualityType, needed: EqualityType) -> bool {
    avail == EqualityType::Node || needed == EqualityType::Value
}

/// Records the agreement fact "traces agree at `p` with type `eq`",
/// strengthening an existing `V` fact to `N`. Fact keys borrow from the
/// universe so every path is stored once.
fn strengthen<'u>(
    universe: &HashSet<&'u [Symbol]>,
    facts: &mut HashMap<&'u [Symbol], EqualityType>,
    p: &[Symbol],
    eq: EqualityType,
) {
    let key = *universe.get(p).expect("fact paths lie in the universe");
    let slot = facts.entry(key).or_insert(eq);
    if eq == EqualityType::Node {
        *slot = EqualityType::Node;
    }
}

impl FdSet {
    /// An empty set.
    pub fn new() -> FdSet {
        FdSet::default()
    }

    /// Appends a named FD.
    pub fn push(&mut self, name: impl Into<String>, fd: Fd) {
        self.paths.push(fd_paths(&fd));
        self.keys.push(FdKey::of(&fd));
        self.names.push(name.into());
        self.fds.push(fd);
    }

    /// Number of FDs in the set.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// The name of FD `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// FD `i`.
    #[cfg(test)]
    pub(crate) fn fd(&self, i: usize) -> &Fd {
        &self.fds[i]
    }

    /// Does the whole set imply `goal`? Runs the closure under `limits`;
    /// a budget that runs out yields [`Implication::Unknown`] rather than
    /// hanging.
    #[cfg(test)]
    pub(crate) fn implies(&self, goal: &Fd, limits: &RunLimits) -> Implication {
        let mut budget = Budget::new(limits);
        let active = vec![true; self.len()];
        self.implies_active(
            &active,
            &FdKey::of(goal),
            fd_paths(goal).as_ref(),
            &mut budget,
        )
    }

    /// Implication of `goal` from the members with `active[i]`, under an
    /// externally owned budget.
    fn implies_active(
        &self,
        active: &[bool],
        goal: &FdKey,
        goal_paths: Option<&FdPaths>,
        budget: &mut Budget,
    ) -> Implication {
        if let Err(r) = budget.poll_now() {
            return Implication::Unknown(r);
        }
        // Pattern-level fallback: an exact structural duplicate implies the
        // goal — also for FDs outside the path formalism.
        for i in (0..self.len()).filter(|&i| active[i]) {
            if self.keys[i] == *goal {
                return Implication::Implied { by: vec![i] };
            }
        }
        let Some(goal_paths) = goal_paths else {
            return Implication::NotImplied;
        };
        match self.closure(active, goal_paths, budget) {
            Err(r) => Implication::Unknown(r),
            Ok(None) => Implication::NotImplied,
            Ok(Some(fired)) => {
                // Best-effort pruning: drop members whose removal keeps the
                // goal derivable. Budget exhaustion here is harmless — the
                // implication is already proven, the set just stays larger.
                let mut by: Vec<usize> = fired;
                let mut k = by.len();
                while k > 0 {
                    k -= 1;
                    let mut trial = vec![false; self.len()];
                    for (pos, &i) in by.iter().enumerate() {
                        if pos != k {
                            trial[i] = true;
                        }
                    }
                    if let Ok(Some(_)) = self.closure(&trial, goal_paths, budget) {
                        by.remove(k);
                    }
                }
                Implication::Implied { by }
            }
        }
    }

    /// The agreement-fact fixpoint. `Ok(Some(fired))` when the goal's
    /// target fact was derived (with the distinct member indices that
    /// fired, in first-firing order), `Ok(None)` when the fixpoint
    /// completes without it, `Err` when the budget runs out.
    fn closure(
        &self,
        active: &[bool],
        goal: &FdPaths,
        budget: &mut Budget,
    ) -> Result<Option<Vec<usize>>, Resource> {
        // Universe: the nonempty prefixes of the goal's selected paths.
        let mut universe: HashSet<&[Symbol]> = HashSet::new();
        for (p, _) in &goal.selected {
            for k in 1..=p.len() {
                universe.insert(&p[..k]);
            }
        }
        // Normalize the active members to the goal's context.
        let mut rules: Vec<Rule> = Vec::new();
        for i in (0..self.len()).filter(|&i| active[i]) {
            budget.checkpoint()?;
            let Some(paths) = &self.paths[i] else {
                continue;
            };
            // Context alignment: identical, or a prefix extended by `w`.
            let ctx = &paths.context;
            if ctx.len() > goal.context.len() || ctx[..] != goal.context[..ctx.len()] {
                continue;
            }
            let strip = &goal.context[ctx.len()..];
            let normalize = |p: &[Symbol]| -> Option<Vec<Symbol>> {
                (p.len() > strip.len() && p[..strip.len()] == strip[..])
                    .then(|| p[strip.len()..].to_vec())
            };
            let Some(target_path) = normalize(&paths.target().0) else {
                continue;
            };
            if !universe.contains(target_path.as_slice()) {
                continue;
            }
            let mut conditions = Vec::with_capacity(paths.conditions().len());
            let mut usable = true;
            for (p, eq) in paths.conditions() {
                // A condition at exactly the stripped context word sits on
                // the shared context node: trivially satisfied, skip it.
                if p[..] == strip[..] {
                    continue;
                }
                match normalize(p) {
                    Some(q) if universe.contains(q.as_slice()) => conditions.push((q, *eq)),
                    _ => {
                        usable = false;
                        break;
                    }
                }
            }
            if usable {
                rules.push(Rule {
                    fd: i,
                    conditions,
                    target: (target_path, paths.target().1),
                });
            }
        }

        // Seed: the goal's conditions agree by assumption (strongest type
        // wins when a path repeats).
        let mut facts: HashMap<&[Symbol], EqualityType> = HashMap::new();
        for (p, eq) in goal.conditions() {
            strengthen(&universe, &mut facts, p, *eq);
        }

        let mut fired: Vec<usize> = Vec::new();
        loop {
            budget.checkpoint()?;
            let mut changed = false;
            // Prefix rule: node agreement lifts to every prefix.
            let node_paths: Vec<&[Symbol]> = facts
                .iter()
                .filter(|(_, &eq)| eq == EqualityType::Node)
                .map(|(&p, _)| p)
                .collect();
            for p in node_paths {
                for k in 1..p.len() {
                    let prefix = &p[..k];
                    if facts.get(prefix) != Some(&EqualityType::Node) {
                        budget.on_frontier_push()?;
                        strengthen(&universe, &mut facts, prefix, EqualityType::Node);
                        changed = true;
                    }
                }
            }
            // Apply rule: fire any member whose conditions are covered and
            // whose conclusion adds strength.
            for rule in &rules {
                budget.checkpoint()?;
                let adds = match facts.get(rule.target.0.as_slice()) {
                    None => true,
                    Some(&have) => !covers(have, rule.target.1),
                };
                if !adds {
                    continue;
                }
                let ready = rule
                    .conditions
                    .iter()
                    .all(|(p, eq)| facts.get(p.as_slice()).is_some_and(|&h| covers(h, *eq)));
                if ready {
                    budget.on_frontier_push()?;
                    strengthen(&universe, &mut facts, &rule.target.0, rule.target.1);
                    if !fired.contains(&rule.fd) {
                        fired.push(rule.fd);
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let (q, eq) = goal.target();
        let reached = facts
            .get(q.as_slice())
            .is_some_and(|&have| covers(have, *eq));
        Ok(reached.then_some(fired))
    }

    /// Computes the irredundant core: repeatedly drops any FD implied by
    /// the remaining members, recording which kept FDs imply each dropped
    /// one. A budget that runs out mid-way yields a sound partial result
    /// (`exhausted` set, remaining FDs kept) instead of hanging on a
    /// hostile set.
    pub fn minimize(&self, limits: &RunLimits) -> Minimization {
        self.minimize_governed(Budget::new(limits))
    }

    /// [`FdSet::minimize`] under a caller-built budget, so a
    /// [`regtree_runtime::CancelToken`] attached with
    /// [`Budget::with_cancel`] stops the closure at its next poll (once per
    /// FD at the latest) with `exhausted == Some(Resource::Cancelled)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use regtree_core::{parse_fd, Budget, CancelToken, FdSet, Resource, RunLimits};
    /// use regtree_alphabet::Alphabet;
    ///
    /// let a = Alphabet::new();
    /// let mut set = FdSet::new();
    /// set.push("fd", parse_fd(&a, "/s : c/d -> c/r").unwrap());
    /// let token = CancelToken::new();
    /// token.cancel();
    /// let budget = Budget::new(&RunLimits::UNLIMITED).with_cancel(token);
    /// let min = set.minimize_governed(budget);
    /// assert_eq!(min.exhausted, Some(Resource::Cancelled));
    /// assert_eq!(min.kept, vec![0]);
    /// ```
    pub fn minimize_governed(&self, mut budget: Budget) -> Minimization {
        let n = self.len();
        let mut active = vec![true; n];
        let mut dropped: Vec<DroppedFd> = Vec::new();
        let mut exhausted = None;
        for i in 0..n {
            active[i] = false;
            match self.implies_active(&active, &self.keys[i], self.paths[i].as_ref(), &mut budget) {
                Implication::Implied { by } => dropped.push(DroppedFd { index: i, by }),
                Implication::NotImplied => active[i] = true,
                Implication::Unknown(r) => {
                    active[i] = true;
                    exhausted = Some(r);
                    break;
                }
            }
        }
        // Provenance may reference FDs that were dropped later; expand to
        // kept FDs only. A drop's `by` list only points at members still
        // active at its step, i.e. at FDs dropped strictly later — so one
        // reverse pass reaches the fixpoint.
        let final_by: HashMap<usize, Vec<usize>> = {
            let mut map: HashMap<usize, Vec<usize>> = HashMap::new();
            for d in dropped.iter().rev() {
                let mut expanded: Vec<usize> = Vec::new();
                for &j in &d.by {
                    match map.get(&j) {
                        Some(js) => expanded.extend(js),
                        None => expanded.push(j),
                    }
                }
                expanded.sort_unstable();
                expanded.dedup();
                map.insert(d.index, expanded);
            }
            map
        };
        for d in &mut dropped {
            d.by = final_by[&d.index].clone();
        }
        Minimization {
            kept: (0..n).filter(|&i| active[i]).collect(),
            dropped,
            exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfy::satisfies;
    use crate::textfd::parse_fd;
    use regtree_alphabet::Alphabet;
    use regtree_xml::parse_document;

    fn set(a: &Alphabet, srcs: &[&str]) -> FdSet {
        let mut s = FdSet::new();
        for (i, src) in srcs.iter().enumerate() {
            s.push(format!("fd{i}"), parse_fd(a, src).unwrap());
        }
        s
    }

    #[test]
    fn extracts_paths_of_factorized_fds() {
        let a = Alphabet::new();
        let f = parse_fd(&a, "/s : c/e/d, c/e/m -> c/e/r").unwrap();
        let p = fd_paths(&f).unwrap();
        assert_eq!(p.context, vec![a.intern("s")]);
        assert_eq!(p.selected.len(), 3);
        assert_eq!(
            p.target().0,
            vec![a.intern("c"), a.intern("e"), a.intern("r")]
        );
        assert_eq!(p.conditions().len(), 2);
    }

    #[test]
    fn trivial_fd_is_implied_by_the_empty_set() {
        let a = Alphabet::new();
        let s = FdSet::new();
        // Node agreement at a/b forces node agreement at its parent a,
        // which covers the value target: implied with no premises.
        let goal = parse_fd(&a, "/r : a/b[N] -> a").unwrap();
        assert_eq!(
            s.implies(&goal, &RunLimits::UNLIMITED),
            Implication::Implied { by: vec![] }
        );
        // Value agreement does not lift to the parent: not trivial.
        let goal_v = parse_fd(&a, "/r : a/b -> a").unwrap();
        assert_eq!(
            s.implies(&goal_v, &RunLimits::UNLIMITED),
            Implication::NotImplied
        );
    }

    #[test]
    fn augmentation_direction_is_sound() {
        let a = Alphabet::new();
        let s = set(&a, &["/s : c/d -> c/r"]);
        // More conditions: weaker, implied.
        let weaker = parse_fd(&a, "/s : c/d, c/x -> c/r").unwrap();
        assert_eq!(
            s.implies(&weaker, &RunLimits::UNLIMITED),
            Implication::Implied { by: vec![0] }
        );
        // Fewer conditions: stronger, NOT implied.
        let s2 = set(&a, &["/s : c/d, c/x -> c/r"]);
        let stronger = parse_fd(&a, "/s : c/d -> c/r").unwrap();
        assert_eq!(
            s2.implies(&stronger, &RunLimits::UNLIMITED),
            Implication::NotImplied
        );
    }

    #[test]
    fn naive_transitivity_is_rejected() {
        let a = Alphabet::new();
        // a → b, b → c does NOT imply a → c under existence semantics:
        // documents without any b satisfy both premises vacuously.
        let s = set(&a, &["/r : a -> b", "/r : b -> c"]);
        let goal = parse_fd(&a, "/r : a -> c").unwrap();
        assert_eq!(
            s.implies(&goal, &RunLimits::UNLIMITED),
            Implication::NotImplied
        );
        // Semantic counterexample, for the record: premises hold, goal fails.
        let doc = parse_document(&a, "<r><a>1</a><c>1</c><a>1</a><c>2</c></r>").unwrap();
        assert!(satisfies(&s.fds[0], &doc));
        assert!(satisfies(&s.fds[1], &doc));
        assert!(!satisfies(&goal, &doc));
    }

    #[test]
    fn prefix_universe_transitivity_fires() {
        let a = Alphabet::new();
        // The intermediate a/b is a prefix of the goal's own paths, so both
        // traces realize it: the chain through node agreement is sound.
        let s = set(&a, &["/r : a/b/c -> a/b[N]", "/r : a/b[N] -> a/b/d"]);
        let goal = parse_fd(&a, "/r : a/b/c -> a/b/d").unwrap();
        assert_eq!(
            s.implies(&goal, &RunLimits::UNLIMITED),
            Implication::Implied { by: vec![0, 1] }
        );
    }

    #[test]
    fn node_agreement_lifts_to_prefixes() {
        let a = Alphabet::new();
        let s = set(&a, &["/r : a/b[N] -> a/c"]);
        // N at a/b/x gives N at a/b (same nodes, same ancestors) — wait:
        // the goal's condition is at a/b/x with N; its prefix a/b then
        // agrees with N, firing the rule.
        let goal = parse_fd(&a, "/r : a/b/x[N] -> a/c").unwrap();
        assert_eq!(
            s.implies(&goal, &RunLimits::UNLIMITED),
            Implication::Implied { by: vec![0] }
        );
        // Value agreement does not lift.
        let goal_v = parse_fd(&a, "/r : a/b/x -> a/c").unwrap();
        assert_eq!(
            s.implies(&goal_v, &RunLimits::UNLIMITED),
            Implication::NotImplied
        );
    }

    #[test]
    fn prefix_extension_normalizes_contexts() {
        let a = Alphabet::new();
        // (r : w/p → w/q) implies (r/w : p → q): the trie shares the w
        // node, so any two traces under the same r/w node restrict to
        // traces of the premise with equal context and w-images.
        let s = set(&a, &["/r : w/p -> w/q"]);
        let goal = parse_fd(&a, "/r/w : p -> q").unwrap();
        assert_eq!(
            s.implies(&goal, &RunLimits::UNLIMITED),
            Implication::Implied { by: vec![0] }
        );
        // The converse direction must NOT hold: (r/w : p → q) says nothing
        // across different w nodes.
        let s2 = set(&a, &["/r/w : p -> q"]);
        let goal2 = parse_fd(&a, "/r : w/p -> w/q").unwrap();
        assert_eq!(
            s2.implies(&goal2, &RunLimits::UNLIMITED),
            Implication::NotImplied
        );
    }

    #[test]
    fn structural_duplicates_use_the_pattern_fallback() {
        let a = Alphabet::new();
        // Regex edges: outside the path formalism, but exact duplicates.
        use crate::fd::Fd;
        use regtree_pattern::{RegularTreePattern, Template};
        let make = || {
            let mut t = Template::new(a.clone());
            let c = t.add_child_str(t.root(), "s").unwrap();
            let x = t.add_child_str(c, "(a|b)").unwrap();
            let y = t.add_child_str(c, "r").unwrap();
            let pat = RegularTreePattern::new(t, vec![x, y]).unwrap();
            Fd::with_default_equality(pat, c).unwrap()
        };
        assert!(fd_paths(&make()).is_none());
        let mut s = FdSet::new();
        s.push("f", make());
        assert_eq!(
            s.implies(&make(), &RunLimits::UNLIMITED),
            Implication::Implied { by: vec![0] }
        );
    }

    #[test]
    fn minimize_drops_redundant_fds_with_provenance() {
        let a = Alphabet::new();
        let s = set(
            &a,
            &[
                "/s : c/e/d, c/e/m -> c/e/r",      // 0: kept
                "/s : c/e/d, c/e/m, c/x -> c/e/r", // 1: implied by 0
                "/s : c/e/d[N] -> c/e",            // 2: trivial (prefix lift)
                "/s : c/e/d -> c/e[N]",            // 3: kept
                "/s : c/e[N] -> c/e/m",            // 4: kept
                "/s : c/e/d -> c/e/m",             // 5: implied by 3+4
            ],
        );
        let min = s.minimize(&RunLimits::UNLIMITED);
        assert!(min.is_complete());
        assert_eq!(min.kept, vec![0, 3, 4]);
        assert_eq!(min.provenance(1), Some(&[0][..]));
        assert_eq!(min.provenance(2), Some(&[][..]));
        assert_eq!(min.provenance(5), Some(&[3, 4][..]));
        assert_eq!(min.provenance(0), None);
    }

    #[test]
    fn provenance_points_at_kept_fds_only() {
        let a = Alphabet::new();
        // 0 is an exact duplicate of 1; 1 of 2. Greedy order drops 0
        // (implied by 1) and 1 (implied by 2): 0's provenance must be
        // rewritten to the kept FD 2.
        let s = set(
            &a,
            &["/s : c/d -> c/r", "/s : c/d -> c/r", "/s : c/d -> c/r"],
        );
        let min = s.minimize(&RunLimits::UNLIMITED);
        assert_eq!(min.kept, vec![2]);
        assert_eq!(min.provenance(0), Some(&[2][..]));
        assert_eq!(min.provenance(1), Some(&[2][..]));
    }

    #[test]
    fn hostile_budget_degrades_to_partial() {
        let a = Alphabet::new();
        let s = set(
            &a,
            &[
                "/s : c/d -> c/r",
                "/s : c/d, c/x -> c/r",
                "/s : c/d, c/y -> c/r",
            ],
        );
        let min = s.minimize(&RunLimits::default().with_deadline_ms(0));
        assert!(!min.is_complete());
        // Nothing proven, nothing dropped: everything conservatively kept.
        assert_eq!(min.kept, vec![0, 1, 2]);
        assert!(min.dropped.is_empty());
        // And the unlimited run does find the drops.
        let full = s.minimize(&RunLimits::UNLIMITED);
        assert_eq!(full.kept, vec![0]);
    }

    #[test]
    fn dropped_fds_are_semantically_entailed() {
        let a = Alphabet::new();
        let s = set(
            &a,
            &[
                "/s : c/e/d, c/e/m -> c/e/r",
                "/s : c/e/d, c/e/m, c/x -> c/e/r",
                "/s : c/e/d -> c/e[N]",
                "/s : c/e/d -> c/e/m",
            ],
        );
        let min = s.minimize(&RunLimits::UNLIMITED);
        assert!(!min.dropped.is_empty());
        // Hand-checked documents: whenever the kept core holds, every
        // dropped FD holds (the proptest suite drives this at scale).
        for doc_src in [
            "<s><c><e><d>1</d><m>2</m><r>3</r></e></c><c><e><d>1</d><m>2</m><r>3</r></e></c></s>",
            "<s><c><e><d>1</d><m>2</m><r>3</r></e><x>9</x></c></s>",
            "<s><c><e><d>1</d></e></c></s>",
        ] {
            let doc = parse_document(&a, doc_src).unwrap();
            if min.kept.iter().all(|&i| satisfies(s.fd(i), &doc)) {
                for d in &min.dropped {
                    assert!(satisfies(s.fd(d.index), &doc), "doc: {doc_src}");
                }
            }
        }
    }
}
