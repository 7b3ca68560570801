//! Emptiness testing with witness-document extraction.
//!
//! The independence criterion IC (paper Proposition 2/3) reduces to the
//! emptiness of the language `L` of a product hedge automaton. The classical
//! fixpoint — a state is *realizable* once some transition can fire using
//! only realizable child states — runs in polynomial time; we additionally
//! record, per state, a firing so that a concrete **witness document** can be
//! rebuilt whenever the language is nonempty. Witnesses make a failed
//! independence check actionable: they exhibit a document on which an update
//! may interact with the FD.
//!
//! The fixpoint is *worklist-driven and incremental*: every transition keeps
//! a frontier of horizontal-NFA states reachable over the realized letters
//! seen so far, NFA edges blocked on a not-yet-realized letter are indexed in
//! a waiting list keyed by that letter, and realizing a state advances
//! exactly the frontiers waiting on it. No horizontal automaton is ever
//! re-simulated from scratch, and [`witness_document`] exits the moment an
//! accepting root firing appears. Each frontier records a first-reach
//! back-pointer per NFA state, from which the accepted child word is
//! reconstructed.
//!
//! Well-formedness of witnesses is respected: a transition guarded by an
//! attribute/text label can only fire with an empty child word (those nodes
//! are leaves carrying a placeholder value).

use regtree_alphabet::{Alphabet, LabelKind, Symbol};
use regtree_automata::{NfaLabel, StateId};
use regtree_hedge::{HedgeAutomaton, LabelGuard, TreeState};
use regtree_runtime::{Budget, Resource, SpanKind};
use regtree_xml::{Document, TreeSpec};

/// Per-state firing recorded during the fixpoint: which transition fired and
/// with which word of (already realizable) child states.
#[derive(Clone, Debug)]
struct Firing {
    transition: usize,
    child_states: Vec<TreeState>,
}

/// Result of the realizability analysis.
pub struct Realizability {
    firings: Vec<Option<Firing>>,
    realizable: Vec<bool>,
    /// Realized states in realization order; each state appears exactly once.
    order: Vec<TreeState>,
}

impl Realizability {
    /// Which states are realizable at some well-formed node? Returned in
    /// realization order, without duplicates and without allocating.
    pub fn realizable_states(&self) -> &[TreeState] {
        &self.order
    }

    /// Is `q` realizable? Constant-time bitset probe.
    pub fn is_realizable(&self, q: TreeState) -> bool {
        self.realizable.get(q as usize).copied().unwrap_or(false)
    }
}

/// Incremental simulation of one transition's horizontal NFA over the
/// realized letters seen so far.
struct Sim {
    /// NFA states reached using realized letters only.
    reached: Vec<bool>,
    /// First-reach back-pointer: `(consumed letter, predecessor)`, with the
    /// letter `None` for ε-moves; `None` at the NFA start state. Never
    /// overwritten, so pred chains form a tree rooted at the start state.
    pred: Vec<Option<(Option<TreeState>, StateId)>>,
    /// The transition can contribute nothing further.
    dead: bool,
    /// Targets a final state under a root-matching guard: its acceptances
    /// decide language-level emptiness.
    root_final: bool,
}

/// One pending "NFA state reached" event.
struct Reach {
    sim: usize,
    state: StateId,
    pred: Option<(Option<TreeState>, StateId)>,
}

struct Engine<'a> {
    automaton: &'a HedgeAutomaton,
    sims: Vec<Sim>,
    firings: Vec<Option<Firing>>,
    realizable: Vec<bool>,
    order: Vec<TreeState>,
    /// Letter → NFA edges blocked on it: `(sim, from, to)`. Dense waiting
    /// lists indexed by tree state; letters outside the automaton's state
    /// range (sentinel fillers) can never realize, so their edges are
    /// dropped on arrival instead of parked forever.
    waiting_sym: Vec<Vec<(usize, StateId, StateId)>>,
    /// Wildcard edges blocked on the *first* realized letter (an `Any` edge
    /// can consume any realized letter, so only emptiness of the realized set
    /// blocks it).
    waiting_any: Vec<(usize, StateId, StateId)>,
    stack: Vec<Reach>,
    /// First accepted root firing: `(transition, child word)`.
    root_word: Option<(usize, Vec<TreeState>)>,
}

impl<'a> Engine<'a> {
    fn new(automaton: &'a HedgeAutomaton) -> Engine<'a> {
        let n = automaton.num_states();
        Engine {
            automaton,
            sims: Vec::with_capacity(automaton.transitions().len()),
            firings: vec![None; n],
            realizable: vec![false; n],
            order: Vec::new(),
            waiting_sym: vec![Vec::new(); n],
            waiting_any: Vec::new(),
            stack: Vec::new(),
            root_word: None,
        }
    }

    /// Runs the fixpoint under `budget`. With `stop_at_root`, stops as soon
    /// as a root-final transition accepts (the realizability data stays
    /// sufficient to expand every letter of the accepted word into a witness
    /// subtree). An `Err` means the budget ran out mid-fixpoint: the
    /// realizability data computed so far is sound but incomplete, so no
    /// emptiness verdict may be drawn from it.
    fn run(
        &mut self,
        alphabet: &Alphabet,
        stop_at_root: bool,
        budget: &mut Budget,
    ) -> Result<(), Resource> {
        let transitions = self.automaton.transitions();
        for (ti, t) in transitions.iter().enumerate() {
            let root_final =
                self.automaton.finals().contains(&t.target) && t.guard.matches(Alphabet::ROOT);
            let nh = t.horizontal.num_states();
            self.sims.push(Sim {
                reached: vec![false; nh],
                pred: vec![None; nh],
                dead: false,
                root_final,
            });
            if matches!(t.guard, LabelGuard::Is(s) if alphabet.kind(s) != LabelKind::Element) {
                // Attribute/text nodes are leaves: ε is the only candidate
                // child word, checked once; the frontier never advances.
                // (`Any`/`AnyExcept` can always take a fresh element label.)
                if t.horizontal.accepts(&[]) {
                    self.on_accept(ti, Vec::new(), budget)?;
                }
                self.sims[ti].dead = true;
            } else {
                self.stack.push(Reach {
                    sim: ti,
                    state: t.horizontal.start(),
                    pred: None,
                });
            }
            while let Some(r) = self.stack.pop() {
                if stop_at_root && self.root_word.is_some() {
                    return Ok(());
                }
                budget.on_frontier_push()?;
                self.expand(r, budget)?;
            }
            if stop_at_root && self.root_word.is_some() {
                return Ok(());
            }
        }
        Ok(())
    }

    fn expand(&mut self, r: Reach, budget: &mut Budget) -> Result<(), Resource> {
        let automaton = self.automaton;
        let t = &automaton.transitions()[r.sim];
        let target_realized = self.realizable[t.target as usize];
        let accepted_word = {
            let sim = &mut self.sims[r.sim];
            // A sim whose target is realized contributes nothing further —
            // unless it is root-final and a root word is still wanted.
            if sim.dead || (target_realized && (!sim.root_final || self.root_word.is_some())) {
                sim.dead = true;
                return Ok(());
            }
            if sim.reached[r.state as usize] {
                return Ok(());
            }
            sim.reached[r.state as usize] = true;
            sim.pred[r.state as usize] = r.pred;
            t.horizontal
                .is_accept(r.state)
                .then(|| word_to(sim, r.state))
        };
        let first_letter = self.order.first().copied();
        for &(label, to) in t.horizontal.transitions_from(r.state) {
            match label {
                NfaLabel::Eps => self.stack.push(Reach {
                    sim: r.sim,
                    state: to,
                    pred: Some((None, r.state)),
                }),
                NfaLabel::Sym(x) => {
                    // Letters may name states the automaton does not have
                    // (e.g. sentinel fillers); those simply never realize.
                    if self.realizable.get(x as usize).copied().unwrap_or(false) {
                        self.stack.push(Reach {
                            sim: r.sim,
                            state: to,
                            pred: Some((Some(x), r.state)),
                        });
                    } else if let Some(waiting) = self.waiting_sym.get_mut(x as usize) {
                        waiting.push((r.sim, r.state, to));
                    }
                }
                NfaLabel::Any => match first_letter {
                    Some(w) => self.stack.push(Reach {
                        sim: r.sim,
                        state: to,
                        pred: Some((Some(w), r.state)),
                    }),
                    None => self.waiting_any.push((r.sim, r.state, to)),
                },
            }
        }
        if let Some(word) = accepted_word {
            self.on_accept(r.sim, word, budget)?;
        }
        Ok(())
    }

    fn on_accept(
        &mut self,
        ti: usize,
        mut word: Vec<TreeState>,
        budget: &mut Budget,
    ) -> Result<(), Resource> {
        budget.on_transition();
        let target = self.automaton.transitions()[ti].target;
        let needs_firing = !self.realizable[target as usize];
        if self.sims[ti].root_final && self.root_word.is_none() {
            // The clone is only paid when the word must double as a firing.
            let w = if needs_firing {
                word.clone()
            } else {
                std::mem::take(&mut word)
            };
            self.root_word = Some((ti, w));
        }
        if needs_firing {
            self.realize(
                target,
                Firing {
                    transition: ti,
                    child_states: word,
                },
                budget,
            )?;
        }
        Ok(())
    }

    fn realize(
        &mut self,
        q: TreeState,
        firing: Firing,
        budget: &mut Budget,
    ) -> Result<(), Resource> {
        budget.on_state()?;
        // Invariant (and regression guard): each state enters `order` at most
        // once, no matter how many transitions target it.
        assert!(
            !self.realizable[q as usize],
            "state {q} pushed to the realized list twice"
        );
        self.realizable[q as usize] = true;
        self.firings[q as usize] = Some(firing);
        if self.order.is_empty() {
            for (si, from, to) in std::mem::take(&mut self.waiting_any) {
                self.stack.push(Reach {
                    sim: si,
                    state: to,
                    pred: Some((Some(q), from)),
                });
            }
        }
        self.order.push(q);
        for (si, from, to) in std::mem::take(&mut self.waiting_sym[q as usize]) {
            self.stack.push(Reach {
                sim: si,
                state: to,
                pred: Some((Some(q), from)),
            });
        }
        Ok(())
    }

    fn finish(self) -> (Realizability, Option<(usize, Vec<TreeState>)>) {
        (
            Realizability {
                firings: self.firings,
                realizable: self.realizable,
                order: self.order,
            },
            self.root_word,
        )
    }
}

/// Reconstructs the accepted word from the first-reach pred chain ending at
/// `state`. Pred chains point strictly toward earlier-reached states, so the
/// walk terminates; every letter on it was realized before the acceptance.
fn word_to(sim: &Sim, state: StateId) -> Vec<TreeState> {
    let mut word = Vec::new();
    let mut cur = state;
    while let Some((letter, prev)) = sim.pred[cur as usize] {
        if let Some(l) = letter {
            word.push(l);
        }
        cur = prev;
    }
    word.reverse();
    word
}

/// Computes realizable states (the emptiness fixpoint of Proposition 3).
pub fn realizability(automaton: &HedgeAutomaton, alphabet: &Alphabet) -> Realizability {
    let mut budget = Budget::unlimited();
    realizability_governed(automaton, alphabet, &mut budget)
        .expect("unlimited budget cannot be exhausted")
}

/// [`realizability`] under a resource [`Budget`]. `Err` means the budget ran
/// out before the fixpoint completed; the partial data is discarded because
/// it proves nothing about unrealized states.
pub fn realizability_governed(
    automaton: &HedgeAutomaton,
    alphabet: &Alphabet,
    budget: &mut Budget,
) -> Result<Realizability, Resource> {
    let trace = budget.trace().clone();
    let _span = trace.span(SpanKind::EmptinessFixpoint, "realizability");
    let mut eng = Engine::new(automaton);
    eng.run(alphabet, false, budget)?;
    Ok(eng.finish().0)
}

/// The first element label of `alphabet` distinct from the reserved root,
/// interning `"elem"` when none exists: the label witnesses and impact
/// searches give to `Any` guards.
pub(crate) fn generic_element_label(alphabet: &Alphabet) -> Symbol {
    alphabet
        .symbols_of_kind(LabelKind::Element)
        .into_iter()
        .find(|&s| s != Alphabet::ROOT)
        .unwrap_or_else(|| alphabet.intern("elem"))
}

/// Chooses a concrete label satisfying `guard` for witness construction,
/// always preferring an element label so the witness node may carry children.
pub fn witness_label(guard: &LabelGuard, alphabet: &Alphabet) -> Symbol {
    match guard {
        LabelGuard::Is(s) => *s,
        // An element label always keeps the witness well-formed whether or
        // not the node needs children.
        LabelGuard::Any => generic_element_label(alphabet),
        LabelGuard::AnyExcept(not) => {
            // Find an element label outside the exclusions, interning fresh
            // ones when the alphabet is exhausted.
            let candidates = alphabet.symbols_of_kind(LabelKind::Element);
            for s in candidates {
                if s != Alphabet::ROOT && !not.contains(&s) {
                    return s;
                }
            }
            for i in 0.. {
                let s = alphabet.intern(&format!("elem{i}"));
                if !not.contains(&s) {
                    return s;
                }
            }
            unreachable!("fresh labels are inexhaustible")
        }
    }
}

/// Builds a witness subtree realizing state `q`, or `None` when `q` is not
/// realizable.
pub fn witness_spec(
    automaton: &HedgeAutomaton,
    alphabet: &Alphabet,
    real: &Realizability,
    q: TreeState,
) -> Option<TreeSpec> {
    let firing = real.firings.get(q as usize)?.as_ref()?;
    let t = &automaton.transitions()[firing.transition];
    let label = witness_label(&t.guard, alphabet);
    match alphabet.kind(label) {
        LabelKind::Element => {
            let children = firing
                .child_states
                .iter()
                .map(|&c| witness_spec(automaton, alphabet, real, c))
                .collect::<Option<Vec<_>>>()?;
            Some(TreeSpec::elem(label, children))
        }
        LabelKind::Attribute => Some(TreeSpec::attr(label, "w")),
        LabelKind::Text => Some(TreeSpec::text("w")),
    }
}

/// Produces a document of the automaton's language, or `None` when it is
/// empty. The language-level check additionally requires a final state
/// reachable *at the reserved `/` root*; the fixpoint early-exits the moment
/// such a root firing accepts.
pub fn witness_document(automaton: &HedgeAutomaton, alphabet: &Alphabet) -> Option<Document> {
    let mut budget = Budget::unlimited();
    witness_document_governed(automaton, alphabet, &mut budget)
        .expect("unlimited budget cannot be exhausted")
}

/// [`witness_document`] under a resource [`Budget`]: `Ok(None)` proves the
/// language empty, `Ok(Some(doc))` exhibits a member, and `Err(resource)`
/// means the budget ran out before either could be established.
pub fn witness_document_governed(
    automaton: &HedgeAutomaton,
    alphabet: &Alphabet,
    budget: &mut Budget,
) -> Result<Option<Document>, Resource> {
    let trace = budget.trace().clone();
    let _span = trace.span(SpanKind::EmptinessFixpoint, "witness");
    let mut eng = Engine::new(automaton);
    eng.run(alphabet, true, budget)?;
    let (real, root_word) = eng.finish();
    let Some((_, word)) = root_word else {
        return Ok(None);
    };
    let mut doc = Document::new(alphabet.clone());
    for &c in &word {
        let spec = witness_spec(automaton, alphabet, &real, c)
            .expect("letters of an accepted word are realizable states");
        spec_attach(&mut doc, &spec);
    }
    debug_assert!(doc.check_well_formed().is_ok());
    Ok(Some(doc))
}

/// Appends `spec` under the document root.
fn spec_attach(doc: &mut Document, spec: &TreeSpec) -> regtree_xml::NodeId {
    regtree_xml::insert_child(doc, doc.root(), doc.children(doc.root()).len(), spec)
        .expect("witness specs are well-formed")
}

/// Is the document language of `automaton` empty?
pub fn is_empty_language(automaton: &HedgeAutomaton, alphabet: &Alphabet) -> bool {
    witness_document(automaton, alphabet).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_automata::NfaBuilder;
    use regtree_hedge::{
        horizontal_epsilon, horizontal_interleaved, horizontal_star, HedgeTransition,
    };

    /// root '/' must contain one `b` whose children are `a*`.
    fn sample(alpha: &Alphabet) -> HedgeAutomaton {
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut h = NfaBuilder::new();
        let s0 = h.add_state();
        let s1 = h.add_state();
        h.add_transition(s0, NfaLabel::Sym(1), s1);
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
                    guard: LabelGuard::Is(b),
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
    fn witness_is_accepted() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        let doc = witness_document(&m, &alpha).expect("nonempty language");
        assert!(crate::accepts(&m, &doc));
        assert!(doc.check_well_formed().is_ok());
    }

    #[test]
    fn empty_automaton_has_no_witness() {
        let alpha = Alphabet::new();
        assert!(is_empty_language(
            &HedgeAutomaton::new(1, Vec::new(), vec![0]),
            &alpha
        ));
        assert!(!is_empty_language(&HedgeAutomaton::universal(), &alpha));
    }

    #[test]
    fn unrealizable_cycle_detected() {
        // State 0 requires a child in state 1; state 1 requires a child in
        // state 0: neither is realizable.
        let alpha = Alphabet::new();
        let x = alpha.intern("x");
        let m = HedgeAutomaton::new(
            3,
            vec![
                HedgeTransition {
                    guard: LabelGuard::Is(x),
                    horizontal: horizontal_interleaved(9999, &[1]),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(x),
                    horizontal: horizontal_interleaved(9999, &[0]),
                    target: 1,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    // Root demands at least one state-0 child.
                    horizontal: horizontal_interleaved(0, &[0]),
                    target: 2,
                },
            ],
            vec![2],
        );
        // Note: horizontal_interleaved(9999, ..) uses a filler letter no
        // state ever takes, so the languages are effectively {1} and {0}.
        assert!(is_empty_language(&m, &alpha));
        let real = realizability(&m, &alpha);
        assert!(!real.is_realizable(0));
        assert!(!real.is_realizable(1));
        assert!(!real.is_realizable(2));
        assert!(real.realizable_states().is_empty());
    }

    #[test]
    fn leaf_guards_cannot_have_children() {
        // '@attr' nodes are leaves; requiring a child under them must be
        // unrealizable.
        let alpha = Alphabet::new();
        let at = alpha.intern("@attr");
        let x = alpha.intern("x");
        let m = HedgeAutomaton::new(
            3,
            vec![
                HedgeTransition {
                    guard: LabelGuard::Is(x),
                    horizontal: horizontal_epsilon(),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(at),
                    horizontal: horizontal_interleaved(0, &[0]), // needs ≥1 child
                    target: 1,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    horizontal: horizontal_star(1),
                    target: 2,
                },
            ],
            vec![2],
        );
        let real = realizability(&m, &alpha);
        assert!(real.is_realizable(0));
        assert!(!real.is_realizable(1));
    }

    #[test]
    fn witness_respects_attribute_values() {
        let alpha = Alphabet::new();
        let at = alpha.intern("@id");
        let m = HedgeAutomaton::new(
            2,
            vec![
                HedgeTransition {
                    guard: LabelGuard::Is(at),
                    horizontal: horizontal_epsilon(),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    horizontal: horizontal_interleaved(9999, &[0]),
                    target: 1,
                },
            ],
            vec![1],
        );
        // Root with a bare attribute child — unusual but well-formed.
        let doc = witness_document(&m, &alpha).unwrap();
        assert!(doc.check_well_formed().is_ok());
        let child = doc.children(doc.root())[0];
        assert_eq!(doc.value(child), Some("w"));
    }

    #[test]
    fn any_except_guard_picks_allowed_label() {
        let alpha = Alphabet::new();
        let x = alpha.intern("x");
        let m = HedgeAutomaton::new(
            2,
            vec![
                HedgeTransition {
                    guard: LabelGuard::AnyExcept(vec![x]),
                    horizontal: horizontal_epsilon(),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    horizontal: horizontal_interleaved(9999, &[0]),
                    target: 1,
                },
            ],
            vec![1],
        );
        let doc = witness_document(&m, &alpha).unwrap();
        let child = doc.children(doc.root())[0];
        assert_ne!(doc.label(child), x);
        assert!(crate::accepts(&m, &doc));
    }

    #[test]
    fn multi_transition_target_realized_once() {
        // Regression: several transitions target the same state and all can
        // fire; the state must enter the realized list exactly once (the
        // engine asserts this internally) and keep a single firing.
        let alpha = Alphabet::new();
        let x = alpha.intern("x");
        let y = alpha.intern("y");
        let z = alpha.intern("z");
        let m = HedgeAutomaton::new(
            2,
            vec![
                HedgeTransition {
                    guard: LabelGuard::Is(x),
                    horizontal: horizontal_epsilon(),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(y),
                    horizontal: horizontal_epsilon(),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(z),
                    horizontal: horizontal_star(0),
                    target: 0,
                },
                HedgeTransition {
                    guard: LabelGuard::Is(Alphabet::ROOT),
                    horizontal: horizontal_interleaved(9999, &[0]),
                    target: 1,
                },
            ],
            vec![1],
        );
        let real = realizability(&m, &alpha);
        assert_eq!(real.realizable_states(), &[0, 1]);
        assert!(real.is_realizable(0));
        assert!(real.is_realizable(1));
        assert!(!real.is_realizable(7));
        let doc = witness_document(&m, &alpha).unwrap();
        assert!(crate::accepts(&m, &doc));
    }

    #[test]
    fn incremental_frontier_handles_chained_dependencies() {
        // A chain q0 <- q1 <- ... <- q9 where each q(i+1) needs a child in
        // state qi: the waiting-list index must wake each transition exactly
        // when its letter realizes.
        let alpha = Alphabet::new();
        let x = alpha.intern("x");
        let depth = 10u32;
        let mut transitions = vec![HedgeTransition {
            guard: LabelGuard::Is(x),
            horizontal: horizontal_epsilon(),
            target: 0,
        }];
        for q in 1..depth {
            transitions.push(HedgeTransition {
                guard: LabelGuard::Is(x),
                horizontal: horizontal_interleaved(9999, &[q - 1]),
                target: q,
            });
        }
        transitions.push(HedgeTransition {
            guard: LabelGuard::Is(Alphabet::ROOT),
            horizontal: horizontal_interleaved(9999, &[depth - 1]),
            target: depth,
        });
        let m = HedgeAutomaton::new(depth as usize + 1, transitions, vec![depth]);
        let real = realizability(&m, &alpha);
        for q in 0..=depth {
            assert!(real.is_realizable(q), "state {q} should be realizable");
        }
        let doc = witness_document(&m, &alpha).unwrap();
        assert!(crate::accepts(&m, &doc));
    }
}
