//! Compiling a regular tree pattern into a bottom-up tree automaton `A_R`
//! recognizing the documents that contain at least one trace of `R`
//! (first step of the paper's Proposition 3 construction).
//!
//! States (all `O(|R|)` of them):
//!
//! * `BOT` — the node carries no part of the guessed trace;
//! * `TOP` — the node lies strictly inside the subtree rooted at the image
//!   of a *marked* (selected) template node. Marking is optional; the
//!   independence criterion uses it to recognize the region
//!   `N(FD_s̄(D))` of Definition 6 structurally;
//! * `INT(w, s)` — the node is an interior node of the path witnessing the
//!   edge into template node `w`; reading the node's label from word-state
//!   `s` of `A_e` and continuing downward reaches acceptance at a node
//!   realizing `w`;
//! * `END(w, s)` — the node *is* the image of `w` (its label, consumed from
//!   `s`, accepts) and its children realize `w`'s outgoing edges through
//!   pairwise distinct children in template-sibling order;
//! * `ACC` — the document root realizes the template root (final).
//!
//! A spurious `TOP` outside a marked subtree can never reach acceptance:
//! `TOP` appears as a horizontal letter only in marked-region transitions.

use regtree_alphabet::{Alphabet, Symbol};
use regtree_automata::{Nfa, NfaLabel, StateId};
use regtree_hedge::{HedgeAutomaton, HedgeTransition, LabelGuard, TreeState};

use crate::pattern::RegularTreePattern;
use crate::template::{Template, TemplateNodeId};

/// Role of a compiled automaton state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StateRole {
    /// Off-trace, outside any marked subtree.
    Bot,
    /// Strictly inside the subtree rooted at a marked node's image.
    Top,
    /// Interior node of the path into the given template node.
    Interior(TemplateNodeId),
    /// Image of the given template node.
    Endpoint(TemplateNodeId),
    /// Root acceptance state.
    Accept,
}

/// A compiled pattern automaton with state metadata.
#[derive(Clone, Debug)]
pub struct PatternAutomaton {
    /// The underlying hedge automaton.
    pub automaton: HedgeAutomaton,
    /// The off-trace state.
    pub bot: TreeState,
    /// The inside-marked-subtree state.
    pub top: TreeState,
    /// The accepting root state.
    pub acc: TreeState,
    roles: Vec<StateRole>,
}

impl PatternAutomaton {
    /// Role of a state.
    #[cfg(test)]
    pub(crate) fn role(&self, q: TreeState) -> StateRole {
        self.roles[q as usize]
    }

    /// Is the state part of the trace or of a marked subtree
    /// (i.e. anything except `BOT`)?
    pub fn in_region(&self, q: TreeState) -> bool {
        !matches!(self.roles[q as usize], StateRole::Bot)
    }

    /// The template node this state is the image of, if it is an endpoint.
    pub fn endpoint_of(&self, q: TreeState) -> Option<TemplateNodeId> {
        match self.roles[q as usize] {
            StateRole::Endpoint(w) => Some(w),
            _ => None,
        }
    }
}

/// Compiles `pattern` to an automaton recognizing documents containing a
/// trace. When `mark_selected` is set, subtrees rooted at selected-node
/// images are tracked with the `TOP` state (used by the IC construction).
pub fn compile_pattern(pattern: &RegularTreePattern, mark_selected: bool) -> PatternAutomaton {
    let template = pattern.template();
    let marked: Vec<TemplateNodeId> = if mark_selected {
        pattern.selected().to_vec()
    } else {
        Vec::new()
    };
    compile_template(template, &marked)
}

fn region_marked(template: &Template, marked: &[TemplateNodeId], w: TemplateNodeId) -> bool {
    marked.iter().any(|&m| template.is_ancestor_or_self(m, w))
}

fn compile_template(template: &Template, marked: &[TemplateNodeId]) -> PatternAutomaton {
    const BOT: TreeState = 0;
    const TOP: TreeState = 1;
    // Allocate 2 states per (edge, word-state): INT then END.
    let edges = template.edges();
    let mut base: Vec<u32> = vec![0; template.len()];
    let mut next: u32 = 2;
    for &w in &edges {
        base[w.index()] = next;
        next += 2 * template.edge_nfa(w).expect("edge").num_states() as u32;
    }
    let acc = next;
    let num_states = (acc + 1) as usize;

    let int_state = |w: TemplateNodeId, s: u32| base[w.index()] + 2 * s;
    let end_state = |w: TemplateNodeId, s: u32| base[w.index()] + 2 * s + 1;

    // Role table.
    let mut roles = vec![StateRole::Bot; num_states];
    roles[TOP as usize] = StateRole::Top;
    for &w in &edges {
        let n = template.edge_nfa(w).expect("edge").num_states() as u32;
        for s in 0..n {
            roles[int_state(w, s) as usize] = StateRole::Interior(w);
            roles[end_state(w, s) as usize] = StateRole::Endpoint(w);
        }
    }
    roles[acc as usize] = StateRole::Accept;

    let mut transitions: Vec<HedgeTransition> = Vec::new();

    // BOT: any label, all children BOT.
    transitions.push(HedgeTransition {
        guard: LabelGuard::Any,
        horizontal: star_of(BOT),
        target: BOT,
    });
    // TOP: only when marking is in play.
    if !marked.is_empty() {
        transitions.push(HedgeTransition {
            guard: LabelGuard::Any,
            horizontal: star_of(TOP),
            target: TOP,
        });
    }

    // `realize(w)` horizontal: filler* C1 filler* C2 … Ck filler*, where Ci
    // accepts INT/END of child edge wi at its NFA start state.
    let realize = |w: TemplateNodeId| -> Nfa {
        let filler = if region_marked(template, marked, w) {
            TOP
        } else {
            BOT
        };
        let required: Vec<[TreeState; 2]> = template
            .children(w)
            .iter()
            .map(|&wi| {
                let start = template.edge_nfa(wi).expect("edge").start();
                [int_state(wi, start), end_state(wi, start)]
            })
            .collect();
        let alts: Vec<&[TreeState]> = required.iter().map(|p| p.as_slice()).collect();
        interleaved_alt(filler, &alts)
    };

    // Scratch buffers shared across every (edge, state, letter) subset step;
    // the sets involved are tiny, so fresh allocations would dominate.
    let mut seen: Vec<bool> = Vec::new();
    let mut closed: Vec<u32> = Vec::new();
    let mut next_states: Vec<u32> = Vec::new();
    let mut used: Vec<Symbol> = Vec::new();
    let mut continuations: Vec<TreeState> = Vec::new();

    for &w in &edges {
        let nfa = template.edge_nfa(w).expect("edge");
        let parent = template.parent(w).expect("non-root");
        let path_filler = if region_marked(template, marked, parent) {
            TOP
        } else {
            BOT
        };
        used.clear();
        for s in 0..nfa.num_states() as u32 {
            for &(l, _) in nfa.transitions_from(s) {
                if let NfaLabel::Sym(x) = l {
                    used.push(Symbol(x));
                }
            }
        }
        used.sort_unstable_by_key(|sym| sym.0);
        used.dedup();
        let wild = nfa.uses_wildcard();
        for s in 0..nfa.num_states() as u32 {
            closed.clear();
            closed.push(s);
            eps_close_into(nfa, &mut seen, &mut closed);
            // Concrete letters the NFA mentions, plus the "all other labels"
            // case when wildcard transitions exist.
            for ci in 0..=used.len() {
                let guard = if ci < used.len() {
                    step_into(nfa, &closed, Some(used[ci].0), &mut seen, &mut next_states);
                    LabelGuard::Is(used[ci])
                } else {
                    if !wild {
                        break;
                    }
                    step_into(nfa, &closed, None, &mut seen, &mut next_states);
                    LabelGuard::AnyExcept(used.clone())
                };
                if next_states.is_empty() {
                    continue;
                }
                // Interior: one child continues the path in some s'.
                continuations.clear();
                continuations.extend(
                    next_states
                        .iter()
                        .flat_map(|&s2| [int_state(w, s2), end_state(w, s2)]),
                );
                transitions.push(HedgeTransition {
                    guard: guard.clone(),
                    horizontal: interleaved_alt(path_filler, &[&continuations]),
                    target: int_state(w, s),
                });
                // Endpoint: the label consumption accepts and the node
                // realizes w.
                if nfa.set_accepts(&next_states) {
                    transitions.push(HedgeTransition {
                        guard,
                        horizontal: realize(w),
                        target: end_state(w, s),
                    });
                }
            }
        }
    }

    // Root acceptance.
    transitions.push(HedgeTransition {
        guard: LabelGuard::Is(Alphabet::ROOT),
        horizontal: realize(template.root()),
        target: acc,
    });

    PatternAutomaton {
        automaton: HedgeAutomaton::new(num_states, transitions, vec![acc]),
        bot: BOT,
        top: TOP,
        acc,
        roles,
    }
}

/// ε-closes `set` in place (result sorted and deduplicated), reusing `seen`
/// as a visited bitmap so the subset construction allocates nothing per step.
fn eps_close_into(nfa: &Nfa, seen: &mut Vec<bool>, set: &mut Vec<u32>) {
    seen.clear();
    seen.resize(nfa.num_states(), false);
    set.retain(|&s| !std::mem::replace(&mut seen[s as usize], true));
    let mut i = 0;
    while i < set.len() {
        let s = set[i];
        i += 1;
        for &(l, t) in nfa.transitions_from(s) {
            if matches!(l, NfaLabel::Eps) && !seen[t as usize] {
                seen[t as usize] = true;
                set.push(t);
            }
        }
    }
    set.sort_unstable();
}

/// One consuming step from the closed set into `out`: `Some(a)` fires `a` and
/// wildcard transitions, `None` fires wildcard transitions only ("all other
/// labels"). The result is ε-closed, sorted, and deduplicated.
fn step_into(
    nfa: &Nfa,
    closed: &[u32],
    letter: Option<u32>,
    seen: &mut Vec<bool>,
    out: &mut Vec<u32>,
) {
    out.clear();
    for &s in closed {
        for &(l, t) in nfa.transitions_from(s) {
            let fires = match l {
                NfaLabel::Eps => false,
                NfaLabel::Sym(x) => letter == Some(x),
                NfaLabel::Any => true,
            };
            if fires {
                out.push(t);
            }
        }
    }
    eps_close_into(nfa, seen, out);
}

fn star_of(q: TreeState) -> Nfa {
    Nfa::from_parts(vec![vec![(NfaLabel::Sym(q), 0)]], 0, vec![true])
}

/// `filler* A1 filler* A2 … Ak filler*` where each `Ai` is an alternative
/// set of letters for the i-th required child. Built directly with
/// exact-capacity rows: state `i` self-loops on the filler and steps to
/// `i + 1` on any letter of `Ai`; the last state accepts.
fn interleaved_alt(filler: TreeState, required: &[&[TreeState]]) -> Nfa {
    let n = required.len() + 1;
    let mut trans: Vec<Vec<(NfaLabel, StateId)>> = Vec::with_capacity(n);
    for (i, &alts) in required.iter().enumerate() {
        let mut row = Vec::with_capacity(1 + alts.len());
        row.push((NfaLabel::Sym(filler), i as StateId));
        row.extend(alts.iter().map(|&q| (NfaLabel::Sym(q), (i + 1) as StateId)));
        trans.push(row);
    }
    trans.push(vec![(NfaLabel::Sym(filler), (n - 1) as StateId)]);
    let mut accept = vec![false; n];
    accept[n - 1] = true;
    Nfa::from_parts(trans, 0, accept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(a: &Alphabet, edges: &[(&str, usize)]) -> RegularTreePattern {
        // edges: (regex, parent index into created nodes; 0 = root)
        let mut t = Template::new(a.clone());
        let mut nodes = vec![t.root()];
        for (src, parent) in edges {
            let n = t.add_child_str(nodes[*parent], src).unwrap();
            nodes.push(n);
        }
        let last = *nodes.last().unwrap();
        RegularTreePattern::monadic(t, last).unwrap()
    }

    #[test]
    fn roles_are_classified() {
        let a = Alphabet::new();
        let p = pat(&a, &[("x", 0)]);
        let pa = compile_pattern(&p, true);
        assert_eq!(pa.role(pa.bot), StateRole::Bot);
        assert_eq!(pa.role(pa.top), StateRole::Top);
        assert_eq!(pa.role(pa.acc), StateRole::Accept);
        assert!(!pa.in_region(pa.bot));
        assert!(pa.in_region(pa.top));
        assert!(pa.in_region(pa.acc));
        let selected = p.selected()[0];
        let endpoints: Vec<_> = (0..pa.automaton.num_states() as TreeState)
            .filter(|&q| pa.endpoint_of(q) == Some(selected))
            .collect();
        assert!(!endpoints.is_empty());
    }

    #[test]
    fn state_count_is_linear_in_pattern_size() {
        let a = Alphabet::new();
        let p = pat(&a, &[("a/b/c/d/e", 0)]);
        let pa = compile_pattern(&p, false);
        // 2 special + 2 per NFA state + 1 accept.
        let nfa_states = p.template().edge_nfa(p.selected()[0]).unwrap().num_states();
        assert_eq!(pa.automaton.num_states(), 2 + 2 * nfa_states + 1);
    }
}
