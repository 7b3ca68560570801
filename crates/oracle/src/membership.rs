//! Membership of a document in a hedge automaton's language, by the
//! bottom-up run.
//!
//! The product never runs an automaton on a document: the lazy engine
//! explores products symbolically and [`regtree_hedge::Schema::validate`]
//! reads content models directly. The parity tests still need to ask
//! whether a compiled automaton accepts a concrete document — a pattern
//! automaton against the evaluator, `A_S` against validation, a product
//! against its factors — and this is that reference.

use regtree_automata::{Nfa, StateId};
use regtree_hedge::{HedgeAutomaton, TreeState};
use regtree_xml::Document;

/// The states each node can take, computed bottom-up and indexed by arena
/// id (sorted, without duplicates); nodes outside the live tree get none.
pub fn run(automaton: &HedgeAutomaton, doc: &Document) -> Vec<Vec<TreeState>> {
    let mut states: Vec<Vec<TreeState>> = vec![Vec::new(); doc.arena_len()];
    // Reverse document order visits children before their parent.
    for &n in doc.all_nodes().iter().rev() {
        let label = doc.label(n);
        let children: Vec<&[TreeState]> = doc
            .children(n)
            .iter()
            .map(|c| states[c.index()].as_slice())
            .collect();
        let mut out: Vec<TreeState> = Vec::new();
        for t in automaton.transitions() {
            if !out.contains(&t.target)
                && t.guard.matches(label)
                && accepts_some_word(&t.horizontal, &children)
            {
                out.push(t.target);
            }
        }
        out.sort_unstable();
        states[n.index()] = out;
    }
    states
}

/// Does `automaton` accept `doc`: can its root take a final state?
pub fn accepts(automaton: &HedgeAutomaton, doc: &Document) -> bool {
    let states = run(automaton, doc);
    let root = &states[doc.root().index()];
    automaton.finals().iter().any(|f| root.contains(f))
}

/// Does `horizontal` accept some word picking one letter from each child's
/// state set? A child with no state admits no word.
fn accepts_some_word(horizontal: &Nfa, children: &[&[TreeState]]) -> bool {
    let mut cur: Vec<StateId> = horizontal.initial_set();
    for letters in children {
        // Each step result is ε-closed, and so is their union.
        let mut next: Vec<StateId> = letters
            .iter()
            .flat_map(|&q| horizontal.step(&cur, q))
            .collect();
        next.sort_unstable();
        next.dedup();
        if next.is_empty() {
            return false;
        }
        cur = next;
    }
    horizontal.set_accepts(&cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;
    use regtree_automata::{NfaBuilder, NfaLabel};
    use regtree_hedge::{horizontal_epsilon, horizontal_star, HedgeTransition, LabelGuard};
    use regtree_pattern::{compile_pattern, enumerate_mappings, RegularTreePattern, Template};
    use regtree_xml::parse_document;

    /// A tiny automaton: state 0 for leaves labeled `a`, state 1 for `b`
    /// nodes whose children are `a*`, final at a root containing exactly one
    /// `b`.
    fn sample(alpha: &Alphabet) -> HedgeAutomaton {
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let t_a = HedgeTransition {
            guard: LabelGuard::Is(a),
            horizontal: horizontal_epsilon(),
            target: 0,
        };
        let t_b = HedgeTransition {
            guard: LabelGuard::Is(b),
            horizontal: horizontal_star(0),
            target: 1,
        };
        let mut h = NfaBuilder::new();
        let s0 = h.add_state();
        let s1 = h.add_state();
        h.add_transition(s0, NfaLabel::Sym(1), s1);
        h.set_start(s0);
        h.set_accept(s1);
        let t_root = HedgeTransition {
            guard: LabelGuard::Is(Alphabet::ROOT),
            horizontal: h.finish(),
            target: 2,
        };
        HedgeAutomaton::new(3, vec![t_a, t_b, t_root], vec![2])
    }

    #[test]
    fn accepts_matching_documents() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        let good = parse_document(&alpha, "<b><a/><a/></b>").unwrap();
        assert!(accepts(&m, &good));
        let empty_b = parse_document(&alpha, "<b/>").unwrap();
        assert!(accepts(&m, &empty_b));
    }

    #[test]
    fn rejects_mismatching_documents() {
        let alpha = Alphabet::new();
        let m = sample(&alpha);
        for bad in ["<a/>", "<b><b/></b>", "<b><a><a/></a></b>", "<c/>"] {
            let doc = parse_document(&alpha, bad).unwrap();
            assert!(!accepts(&m, &doc), "should reject {bad}");
        }
    }

    #[test]
    fn universal_and_empty() {
        let alpha = Alphabet::new();
        let docs = ["<x/>", "<a><b><c/></b></a>", "<p q=\"1\">text</p>"];
        let uni = HedgeAutomaton::universal();
        let none = HedgeAutomaton::new(1, Vec::new(), vec![0]);
        for d in docs {
            let doc = parse_document(&alpha, d).unwrap();
            assert!(accepts(&uni, &doc));
            assert!(!accepts(&none, &doc));
        }
    }

    #[test]
    fn nondeterministic_union_of_states() {
        // Two transitions assign different states to the same label.
        let alpha = Alphabet::new();
        let a = alpha.intern("a");
        let t1 = HedgeTransition {
            guard: LabelGuard::Is(a),
            horizontal: horizontal_epsilon(),
            target: 0,
        };
        let t2 = HedgeTransition {
            guard: LabelGuard::Any,
            horizontal: horizontal_epsilon(),
            target: 1,
        };
        let root = HedgeTransition {
            guard: LabelGuard::Is(Alphabet::ROOT),
            horizontal: horizontal_star(1),
            target: 2,
        };
        let m = HedgeAutomaton::new(3, vec![t1, t2, root], vec![2]);
        let doc = parse_document(&alpha, "<a/>").unwrap();
        let states = run(&m, &doc);
        let a_node = doc.children(doc.root())[0];
        assert_eq!(states[a_node.index()], vec![0, 1]);
        assert!(accepts(&m, &doc));
    }

    // ---- pattern automata against the evaluator ----------------------

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

    fn agree(a: &Alphabet, p: &RegularTreePattern, doc_src: &str) {
        let doc = parse_document(a, doc_src).unwrap();
        let by_eval = !enumerate_mappings(p.template(), &doc).is_empty();
        let by_auto = accepts(&compile_pattern(p, false).automaton, &doc);
        assert_eq!(by_auto, by_eval, "disagreement on {doc_src}");
    }

    #[test]
    fn automaton_agrees_with_matcher_simple() {
        let a = Alphabet::new();
        let p = pat(&a, &[("session", 0), ("candidate/exam", 1)]);
        agree(&a, &p, "<session><candidate><exam/></candidate></session>");
        agree(&a, &p, "<session><candidate/></session>");
        agree(&a, &p, "<other/>");
        agree(&a, &p, "<session><exam/></session>");
    }

    #[test]
    fn automaton_agrees_on_sibling_disjointness() {
        let a = Alphabet::new();
        // Two exams of the same candidate.
        let mut t = Template::new(a.clone());
        let cand = t.add_child_str(t.root(), "session/candidate").unwrap();
        let e1 = t.add_child_str(cand, "exam").unwrap();
        let _e2 = t.add_child_str(cand, "exam").unwrap();
        let p = RegularTreePattern::monadic(t, e1).unwrap();
        agree(
            &a,
            &p,
            "<session><candidate><exam/><exam/></candidate></session>",
        );
        agree(&a, &p, "<session><candidate><exam/></candidate></session>");
        agree(
            &a,
            &p,
            "<session><candidate><exam/></candidate><candidate><exam/></candidate></session>",
        );
    }

    #[test]
    fn automaton_handles_star_edges() {
        let a = Alphabet::new();
        let p = pat(&a, &[("(a|b)+/leaf", 0)]);
        agree(&a, &p, "<a><leaf/></a>");
        agree(&a, &p, "<a><b><leaf/></b></a>");
        agree(&a, &p, "<leaf/>");
        agree(&a, &p, "<c><leaf/></c>");
    }

    #[test]
    fn automaton_handles_wildcards() {
        let a = Alphabet::new();
        let p = pat(&a, &[("_*/m", 0)]);
        agree(&a, &p, "<x><y><m/></y></x>");
        agree(&a, &p, "<m/>");
        agree(&a, &p, "<x><y/></x>");
    }

    #[test]
    fn marked_compilation_still_accepts_same_language() {
        let a = Alphabet::new();
        let mut t = Template::new(a.clone());
        let cand = t.add_child_str(t.root(), "session/candidate").unwrap();
        let exam = t.add_child_str(cand, "exam").unwrap();
        let _lvl = t.add_child_str(cand, "level").unwrap();
        let p = RegularTreePattern::monadic(t, exam).unwrap();
        let plain = compile_pattern(&p, false);
        let marked = compile_pattern(&p, true);
        for src in [
            "<session><candidate><exam/><level/></candidate></session>",
            "<session><candidate><exam><deep><er/></deep></exam><level/></candidate></session>",
            "<session><candidate><level/><exam/></candidate></session>",
            "<session><candidate><exam/></candidate></session>",
        ] {
            let doc = parse_document(&a, src).unwrap();
            assert_eq!(
                accepts(&plain.automaton, &doc),
                accepts(&marked.automaton, &doc),
                "{src}"
            );
        }
    }
}
