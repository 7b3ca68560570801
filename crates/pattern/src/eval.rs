//! Pattern evaluation: enumerating the mappings of Definition 2.
//!
//! A mapping `π` sends template nodes to document nodes such that
//!
//! 1. the template root maps to the document root;
//! 2. document order is preserved (`w ≺ w' ⇒ π(w) < π(w')`);
//! 3. every template edge `e = (w, w')` is witnessed by the unique downward
//!    path from `π(w)` to `π(w')`, whose label word (source label excluded,
//!    target label included) belongs to `L(A_e)`;
//! 4. paths of two distinct edges leaving the same template node share no
//!    prefix — they descend through *distinct* children of `π(w)`.
//!
//! Because downward paths in a tree are unique, a mapping is fully
//! determined by the node assignment. Conditions (2) and (4) together are
//! equivalent to: sibling edges descend through distinct children of the
//! source image, in template-sibling order (see DESIGN.md §2); the matcher
//! enforces exactly that and a property test cross-checks the original
//! four conditions.
//!
//! Every search runs under a [`Budget`], which meters DFA steps and
//! candidate-memo entries and aborts once a cap or the deadline is
//! crossed. Entry points without a budget parameter pass
//! [`Budget::unlimited`] and discard its counters.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use regtree_alphabet::Symbol;
use regtree_automata::EDGE_DEAD;
use regtree_runtime::{Budget, Resource};
use regtree_xml::{label_mask, Document, NodeId};

use crate::template::{Template, TemplateNodeId};

/// A mapping of a template on a document: one image per template node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Mapping {
    images: Vec<NodeId>,
}

impl Mapping {
    /// Image of a template node.
    pub fn image(&self, w: TemplateNodeId) -> NodeId {
        self.images[w.index()]
    }

    /// All images, indexed by template node.
    #[cfg(test)]
    pub(crate) fn images(&self) -> &[NodeId] {
        &self.images
    }

    /// The trace of the pattern w.r.t. this mapping: the smallest subtree of
    /// `doc` containing the image set — i.e. the ancestor-closure of the
    /// images (sorted in document order).
    pub fn trace_nodes(&self, doc: &Document) -> Vec<NodeId> {
        // Membership via hash set; the Vec keeps the nodes for sorting.
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for &img in &self.images {
            let mut cur = Some(img);
            while let Some(n) = cur {
                if !seen.insert(n) {
                    break; // ancestors already recorded
                }
                nodes.push(n);
                cur = doc.parent(n);
            }
        }
        nodes.sort_by(|&a, &b| doc.doc_order(a, b));
        nodes
    }
}

/// Enumerates every mapping of `template` on `doc`.
///
/// Worst-case exponential in the template size (the problem enumerates all
/// embeddings); memoizes edge-candidate computation per `(edge, source)`.
///
/// This is the production engine: each edge automaton is stepped as its
/// cached [`EdgeDfa`](regtree_automata::EdgeDfa) (a single `u32` state per
/// document node instead of an NFA state set), and the document's
/// [`LabelIndex`](regtree_xml::LabelIndex) ([`Document::index`]) prunes
/// subtrees that cannot end a match. To bound the search, call
/// [`project_mappings_governed`].
pub fn enumerate_mappings(template: &Template, doc: &Document) -> Vec<Mapping> {
    enumerate_impl(template, doc, &mut Budget::unlimited()).expect(UNLIMITED_CANNOT_EXHAUST)
}

/// Why an unlimited [`Budget`] cannot come back exhausted: no caps, no
/// deadline and no cancel token.
pub(crate) const UNLIMITED_CANNOT_EXHAUST: &str = "an unlimited budget cannot be exhausted";

/// Per-edge pruning data: the Bloom mask of letters that can end an
/// accepted word, and whether unmentioned letters can (wildcard endings).
/// `None` signals global infeasibility — an edge whose final letters are all
/// absent from the document can never be witnessed, so there are no mappings.
fn edge_final_masks(template: &Template, doc: &Document) -> Option<Vec<(u64, bool)>> {
    let index = doc.index();
    let mut final_masks: Vec<(u64, bool)> = vec![(0, false); template.len()];
    for e in template.edges() {
        match template.edge_dfa(e) {
            Some(dfa) => {
                if !dfa.other_final()
                    && dfa
                        .final_letters()
                        .iter()
                        .all(|&l| index.count(Symbol(l)) == 0)
                {
                    return None;
                }
                let mask = dfa
                    .final_letters()
                    .iter()
                    .fold(0u64, |m, &l| m | label_mask(Symbol(l)));
                final_masks[e.index()] = (mask, dfa.other_final());
            }
            // DFA cap exceeded: no pruning info, scan everything.
            None => final_masks[e.index()] = (u64::MAX, true),
        }
    }
    Some(final_masks)
}

fn enumerate_impl(
    template: &Template,
    doc: &Document,
    budget: &mut Budget,
) -> Result<Vec<Mapping>, Resource> {
    let Some(final_masks) = edge_final_masks(template, doc) else {
        return Ok(Vec::new());
    };
    let mut memo: CandidateMemo = HashMap::new();
    search(
        template,
        doc,
        &mut |w, source, memo, budget| {
            candidates_dfa(template, doc, &final_masks, w, source, memo, budget)
        },
        &mut memo,
        budget,
    )
}

/// Reference engine threading NFA state sets, exactly as evaluated before
/// determinization was introduced. Kept for differential tests and as the
/// baseline in `regtree-bench`; results must equal [`enumerate_mappings`].
pub fn enumerate_mappings_nfa(template: &Template, doc: &Document) -> Vec<Mapping> {
    let mut memo: CandidateMemo = HashMap::new();
    search(
        template,
        doc,
        &mut |w, source, memo, budget| candidates_nfa(template, doc, w, source, memo, budget),
        &mut memo,
        &mut Budget::unlimited(),
    )
    .expect(UNLIMITED_CANNOT_EXHAUST)
}

/// Candidate target nodes of an edge from a given source image, annotated
/// with the index of the source child the path descends through. `Rc` lets
/// memo hits hand back the cached list without cloning it.
type CandidateList = Rc<Vec<(usize, NodeId)>>;
type CandidateMemo = HashMap<(TemplateNodeId, NodeId), CandidateList>;

/// Result of one candidate-list computation under the budget.
type CandidateResult = Result<CandidateList, Resource>;

/// Computes (or recalls) the candidate list of the edge into a template
/// node from a source image: the one step the two engines differ in.
type CandidateFn<'a> =
    dyn FnMut(TemplateNodeId, NodeId, &mut CandidateMemo, &mut Budget) -> CandidateResult + 'a;

/// Backtracking search over template nodes in preorder, shared by both
/// engines; `cands` computes (or recalls) the candidate list of one edge.
fn search(
    template: &Template,
    doc: &Document,
    cands: &mut CandidateFn<'_>,
    memo: &mut CandidateMemo,
    budget: &mut Budget,
) -> Result<Vec<Mapping>, Resource> {
    let order: Vec<TemplateNodeId> = template
        .preorder()
        .into_iter()
        .filter(|&n| n != template.root())
        .collect();
    let mut images: Vec<Option<NodeId>> = vec![None; template.len()];
    images[template.root().index()] = Some(doc.root());
    let mut out = Vec::new();
    assign(
        template,
        doc,
        &order,
        0,
        &mut images,
        cands,
        memo,
        budget,
        &mut out,
    )?;
    Ok(out)
}

/// Does the root path of `image` (root label excluded, `image` included)
/// belong to the language of `anchor`'s incoming edge? `false` also covers
/// nodes that are not strict descendants of the document root (detached or
/// the root itself).
fn anchor_edge_accepts(
    template: &Template,
    doc: &Document,
    anchor: TemplateNodeId,
    image: NodeId,
    budget: &mut Budget,
) -> Result<bool, Resource> {
    let Some(word) = doc.labels_on_path(doc.root(), image) else {
        return Ok(false);
    };
    budget.on_dfa_steps(word.len() as u64)?;
    if let Some(dfa) = template.edge_dfa(anchor) {
        let mut state = dfa.start();
        for sym in &word {
            state = dfa.step(state, sym.0);
            if state == EDGE_DEAD {
                return Ok(false);
            }
        }
        Ok(dfa.is_accept(state))
    } else {
        let nfa = template
            .edge_nfa(anchor)
            .expect("non-root nodes have an incoming edge");
        let mut set = nfa.initial_set();
        for sym in &word {
            set = nfa.step(&set, sym.0);
            if set.is_empty() {
                return Ok(false);
            }
        }
        Ok(nfa.set_accepts(&set))
    }
}

/// Distinct projections of the mappings whose image of `anchor` lies in
/// `anchor_images`, computed *without* searching for the anchor: each given
/// image is verified against the anchor's incoming edge and then preset, so
/// the search explores only the template below the anchor.
///
/// `anchor` must be the **only child of the template root** (the shape of
/// context-scoped FD patterns, where the anchor is the context node): with
/// siblings, the preset image could violate the sibling-order condition
/// against images chosen later. Returns the same projections as filtering
/// [`project_mappings_governed`] output by the anchor image — this is the
/// impact-scoped recheck primitive, where `anchor_images` is the small set
/// of contexts an edit delta touched.
pub fn project_mappings_anchored_governed(
    template: &Template,
    doc: &Document,
    anchor: TemplateNodeId,
    anchor_images: &[NodeId],
    keep: &[TemplateNodeId],
    budget: &mut Budget,
) -> Result<Vec<Vec<NodeId>>, Resource> {
    assert_eq!(
        template.children(template.root()),
        std::slice::from_ref(&anchor),
        "anchored search requires the anchor to be the root's only child"
    );
    let Some(final_masks) = edge_final_masks(template, doc) else {
        return Ok(Vec::new());
    };
    let order: Vec<TemplateNodeId> = template
        .preorder()
        .into_iter()
        .filter(|&n| n != template.root() && n != anchor)
        .collect();
    // Candidate memo shared across anchor images: candidate lists depend
    // only on (edge, source image), not on the preset anchor.
    let mut memo: CandidateMemo = HashMap::new();
    let mut cands =
        |w: TemplateNodeId, source: NodeId, memo: &mut CandidateMemo, budget: &mut Budget| {
            candidates_dfa(template, doc, &final_masks, w, source, memo, budget)
        };
    let mut out = Vec::new();
    for &img in anchor_images {
        if !anchor_edge_accepts(template, doc, anchor, img, budget)? {
            continue;
        }
        let mut images: Vec<Option<NodeId>> = vec![None; template.len()];
        images[template.root().index()] = Some(doc.root());
        images[anchor.index()] = Some(img);
        assign(
            template,
            doc,
            &order,
            0,
            &mut images,
            &mut cands,
            &mut memo,
            budget,
            &mut out,
        )?;
    }
    Ok(dedup_projections(out, keep))
}

/// DFA engine: steps a single state id per node; prunes dead and non-live
/// states, and whole subtrees whose label Bloom mask cannot end a match.
fn candidates_dfa(
    template: &Template,
    doc: &Document,
    final_masks: &[(u64, bool)],
    edge_head: TemplateNodeId,
    source: NodeId,
    memo: &mut CandidateMemo,
    budget: &mut Budget,
) -> CandidateResult {
    if let Some(c) = memo.get(&(edge_head, source)) {
        budget.on_memo_hit();
        return Ok(Rc::clone(c));
    }
    let Some(dfa) = template.edge_dfa(edge_head) else {
        // Pathological determinization blow-up: fall back to NFA stepping.
        return candidates_nfa(template, doc, edge_head, source, memo, budget);
    };
    let (fmask, other_final) = final_masks[edge_head.index()];
    let index = doc.index();
    // A subtree can contribute a candidate only if some node in it can be
    // the *last* letter of an accepted word.
    let viable = |n: NodeId| other_final || index.subtree_may_intersect(n, fmask);
    let mut found: Vec<(usize, NodeId)> = Vec::new();
    let mut steps: u64 = 0;
    for (ci, &child) in doc.children(source).iter().enumerate() {
        if !viable(child) {
            continue;
        }
        let mut stack: Vec<(NodeId, u32)> = vec![(child, dfa.start())];
        while let Some((v, state)) = stack.pop() {
            let next = dfa.step(state, doc.label(v).0);
            steps += 1;
            if next == EDGE_DEAD || !dfa.is_live(next) {
                continue;
            }
            if dfa.is_accept(next) {
                found.push((ci, v));
            }
            // Children pushed right-to-left so the stack pops them in
            // document order: the DFS is a preorder walk and `found` comes
            // out sorted by (child index, document order) with no sort.
            for &c in doc.children(v).iter().rev() {
                if viable(c) {
                    stack.push((c, next));
                }
            }
        }
    }
    budget.on_dfa_steps(steps)?;
    budget.on_memo_entry()?;
    let found = Rc::new(found);
    memo.insert((edge_head, source), Rc::clone(&found));
    Ok(found)
}

/// NFA engine: threads `Vec<u32>` state sets down the document (baseline).
fn candidates_nfa(
    template: &Template,
    doc: &Document,
    edge_head: TemplateNodeId,
    source: NodeId,
    memo: &mut CandidateMemo,
    budget: &mut Budget,
) -> CandidateResult {
    if let Some(c) = memo.get(&(edge_head, source)) {
        budget.on_memo_hit();
        return Ok(Rc::clone(c));
    }
    let nfa = template
        .edge_nfa(edge_head)
        .expect("non-root nodes have an incoming edge");
    let init = nfa.initial_set();
    let mut found: Vec<(usize, NodeId)> = Vec::new();
    let mut steps: u64 = 0;
    for (ci, &child) in doc.children(source).iter().enumerate() {
        // DFS down the subtree of `child`, threading the NFA state set.
        let mut stack: Vec<(NodeId, Vec<u32>)> = vec![(child, init.clone())];
        while let Some((v, states)) = stack.pop() {
            let next = nfa.step(&states, doc.label(v).0);
            steps += 1;
            if next.is_empty() {
                continue;
            }
            if nfa.set_accepts(&next) {
                found.push((ci, v));
            }
            for &c in doc.children(v) {
                stack.push((c, next.clone()));
            }
        }
    }
    budget.on_dfa_steps(steps)?;
    budget.on_memo_entry()?;
    // Deterministic order: by child index, then document order.
    found.sort_by(|a, b| a.0.cmp(&b.0).then(doc.doc_order(a.1, b.1)));
    let found = Rc::new(found);
    memo.insert((edge_head, source), Rc::clone(&found));
    Ok(found)
}

#[allow(clippy::too_many_arguments)]
fn assign(
    template: &Template,
    doc: &Document,
    order: &[TemplateNodeId],
    pos: usize,
    images: &mut Vec<Option<NodeId>>,
    cands: &mut CandidateFn<'_>,
    memo: &mut CandidateMemo,
    budget: &mut Budget,
    out: &mut Vec<Mapping>,
) -> Result<(), Resource> {
    budget.checkpoint()?;
    let Some(&w) = order.get(pos) else {
        out.push(Mapping {
            images: images.iter().map(|i| i.expect("all assigned")).collect(),
        });
        return Ok(());
    };
    let parent = template.parent(w).expect("non-root");
    let source = images[parent.index()].expect("parent assigned before child");
    // The branch child used by the closest elder sibling, if any: candidates
    // must descend through a strictly later child of the source image.
    let min_branch = template
        .children(parent)
        .iter()
        .take_while(|&&sib| sib != w)
        .filter_map(|sib| images[sib.index()])
        .map(|img| {
            doc.child_index(doc.branch_child(source, img).expect("descendant"))
                .expect("indexed child")
        })
        .max()
        .map(|b| b + 1)
        .unwrap_or(0);
    let list = cands(w, source, memo, budget)?;
    for &(ci, v) in list.iter() {
        if ci < min_branch {
            continue;
        }
        images[w.index()] = Some(v);
        assign(
            template,
            doc,
            order,
            pos + 1,
            images,
            cands,
            memo,
            budget,
            out,
        )?;
    }
    images[w.index()] = None;
    Ok(())
}

/// Distinct projections of all mappings onto `keep` (in the given order),
/// under `budget`: aborts with the exhausted [`Resource`] once a cap or the
/// deadline is crossed.
pub fn project_mappings_governed(
    template: &Template,
    doc: &Document,
    keep: &[TemplateNodeId],
    budget: &mut Budget,
) -> Result<Vec<Vec<NodeId>>, Resource> {
    let mappings = enumerate_impl(template, doc, budget)?;
    Ok(dedup_projections(mappings, keep))
}

fn dedup_projections(mappings: Vec<Mapping>, keep: &[TemplateNodeId]) -> Vec<Vec<NodeId>> {
    // Each projection is stored once (shared between the dedup set and the
    // output order) instead of cloned into both.
    let mut out: Vec<Rc<[NodeId]>> = Vec::new();
    let mut seen: HashSet<Rc<[NodeId]>> = HashSet::new();
    for m in mappings {
        let proj: Rc<[NodeId]> = keep.iter().map(|&w| m.image(w)).collect();
        if seen.insert(Rc::clone(&proj)) {
            out.push(proj);
        }
    }
    out.into_iter().map(|p| p.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::RegularTreePattern;
    use regtree_alphabet::Alphabet;
    use regtree_xml::parse_document;

    /// Two candidates with two exams each (a miniature of Figure 1).
    fn mini_doc(a: &Alphabet) -> Document {
        parse_document(
            a,
            "<session>\
               <candidate IDN=\"78\"><exam><mark>15</mark></exam><exam><mark>12</mark></exam></candidate>\
               <candidate IDN=\"99\"><exam><mark>15</mark></exam><exam><mark>9</mark></exam></candidate>\
             </session>",
        )
        .unwrap()
    }

    /// R1 of Figure 2: two exams of *different* candidates.
    fn r1(a: &Alphabet) -> RegularTreePattern {
        let mut t = Template::new(a.clone());
        let session = t.add_child_str(t.root(), "session").unwrap();
        let e1 = t.add_child_str(session, "candidate/exam").unwrap();
        let e2 = t.add_child_str(session, "candidate/exam").unwrap();
        RegularTreePattern::new(t, vec![e1, e2]).unwrap()
    }

    /// R2 of Figure 2: two exams of the *same* candidate.
    fn r2(a: &Alphabet) -> RegularTreePattern {
        let mut t = Template::new(a.clone());
        let cand = t.add_child_str(t.root(), "session/candidate").unwrap();
        let e1 = t.add_child_str(cand, "exam").unwrap();
        let e2 = t.add_child_str(cand, "exam").unwrap();
        RegularTreePattern::new(t, vec![e1, e2]).unwrap()
    }

    #[test]
    fn figure2_r1_selects_cross_candidate_pairs() {
        let a = Alphabet::new();
        let doc = mini_doc(&a);
        let result = r1(&a).evaluate(&doc);
        // 2 exams of candidate 1 × 2 exams of candidate 2 = 4 pairs,
        // in document order (first exam before second).
        assert_eq!(result.len(), 4);
        for pair in &result {
            let c1 = doc.parent(pair[0]).unwrap();
            let c2 = doc.parent(pair[1]).unwrap();
            assert_ne!(c1, c2, "exams must belong to different candidates");
            assert_eq!(doc.doc_order(pair[0], pair[1]), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn figure2_r2_selects_same_candidate_pairs() {
        let a = Alphabet::new();
        let doc = mini_doc(&a);
        let result = r2(&a).evaluate(&doc);
        // One ordered pair per candidate.
        assert_eq!(result.len(), 2);
        for pair in &result {
            let c1 = doc.parent(pair[0]).unwrap();
            let c2 = doc.parent(pair[1]).unwrap();
            assert_eq!(c1, c2, "exams must belong to the same candidate");
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn order_sensitivity_like_figure3() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<r><x/><y/></r>").unwrap();
        // x-before-y matches…
        let mut t = Template::new(a.clone());
        let r = t.add_child_str(t.root(), "r").unwrap();
        let _x = t.add_child_str(r, "x").unwrap();
        let y = t.add_child_str(r, "y").unwrap();
        let p = RegularTreePattern::monadic(t, y).unwrap();
        assert_eq!(p.evaluate(&doc).len(), 1);
        // …y-before-x does not.
        let mut t2 = Template::new(a);
        let r2 = t2.add_child_str(t2.root(), "r").unwrap();
        let _y2 = t2.add_child_str(r2, "y").unwrap();
        let x2 = t2.add_child_str(r2, "x").unwrap();
        let p2 = RegularTreePattern::monadic(t2, x2).unwrap();
        assert!(p2.evaluate(&doc).is_empty());
    }

    #[test]
    fn sibling_edges_need_distinct_children() {
        let a = Alphabet::new();
        // Only one exam: a same-candidate two-exam pattern cannot map.
        let doc = parse_document(
            &a,
            "<session><candidate><exam><mark>1</mark></exam></candidate></session>",
        )
        .unwrap();
        assert!(r2(&a).evaluate(&doc).is_empty());
        // But a one-exam pattern maps once.
        let mut t = Template::new(a);
        let e = t.add_child_str(t.root(), "session/candidate/exam").unwrap();
        let p = RegularTreePattern::monadic(t, e).unwrap();
        assert_eq!(p.evaluate(&doc).len(), 1);
    }

    #[test]
    fn deep_edges_with_stars() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<a><b><a><b><leaf/></b></a></b></a>").unwrap();
        let mut t = Template::new(a.clone());
        let leaf = t.add_child_str(t.root(), "(a/b)+/leaf").unwrap();
        let p = RegularTreePattern::monadic(t, leaf).unwrap();
        assert_eq!(p.evaluate(&doc).len(), 1);
        // The same pattern with (a/b)* / leaf fails properness? No: it is
        // proper (needs the final 'leaf'), and also matches.
        let mut t2 = Template::new(a);
        let leaf2 = t2.add_child_str(t2.root(), "(a/b)*/leaf").unwrap();
        let p2 = RegularTreePattern::monadic(t2, leaf2).unwrap();
        assert_eq!(p2.evaluate(&doc).len(), 1);
    }

    #[test]
    fn wildcard_edges() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<x><m/></x><y><m/></y>").unwrap();
        let mut t = Template::new(a);
        let m = t.add_child_str(t.root(), "_/m").unwrap();
        let p = RegularTreePattern::monadic(t, m).unwrap();
        assert_eq!(p.evaluate(&doc).len(), 2);
    }

    #[test]
    fn mapping_images_and_trace() {
        let a = Alphabet::new();
        let doc = mini_doc(&a);
        let maps = r2(&a).mappings(&doc);
        assert_eq!(maps.len(), 2);
        for m in &maps {
            let trace = m.trace_nodes(&doc);
            // Trace contains the root and all images.
            assert!(trace.contains(&doc.root()));
            for &img in m.images() {
                assert!(trace.contains(&img));
            }
            // Trace is ancestor-closed.
            for &n in &trace {
                if let Some(p) = doc.parent(n) {
                    assert!(trace.contains(&p));
                }
            }
        }
    }

    #[test]
    fn projections_deduplicate() {
        let a = Alphabet::new();
        let doc = mini_doc(&a);
        let p = r1(&a);
        // Project onto the session node only: all 4 mappings collapse to 1.
        let t = p.template();
        let session = t.children(t.root())[0];
        let mut budget = Budget::unlimited();
        let proj = project_mappings_governed(t, &doc, &[session], &mut budget).unwrap();
        assert_eq!(proj.len(), 1);
    }

    #[test]
    fn empty_when_no_match() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<other/>").unwrap();
        assert!(r1(&a).evaluate(&doc).is_empty());
        assert!(r2(&a).mappings(&doc).is_empty());
    }

    #[test]
    fn trivial_pattern_selects_the_root() {
        // A template with only its root maps onto every document, selecting
        // the document root.
        let a = Alphabet::new();
        let t = Template::new(a.clone());
        let p = RegularTreePattern::monadic(t, TemplateNodeId(0)).unwrap();
        for src in ["<x/>", "<a><b/></a>"] {
            let doc = parse_document(&a, src).unwrap();
            let res = p.evaluate(&doc);
            assert_eq!(res, vec![vec![doc.root()]], "{src}");
        }
    }

    #[test]
    fn attribute_and_text_endpoints() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<c id=\"7\">hello</c>").unwrap();
        let mut t = Template::new(a.clone());
        let attr = t.add_child_str(t.root(), "c/@id").unwrap();
        let p = RegularTreePattern::monadic(t, attr).unwrap();
        let res = p.evaluate(&doc);
        assert_eq!(res.len(), 1);
        assert_eq!(doc.value(res[0][0]), Some("7"));

        let mut t2 = Template::new(a);
        let text = t2.add_child_str(t2.root(), "c/#text").unwrap();
        let p2 = RegularTreePattern::monadic(t2, text).unwrap();
        let res2 = p2.evaluate(&doc);
        assert_eq!(res2.len(), 1);
        assert_eq!(doc.value(res2[0][0]), Some("hello"));
    }

    #[test]
    fn nested_matches_within_one_subtree() {
        // Both an ancestor and its descendant can be selected by separate
        // mappings of the same monadic pattern.
        let a = Alphabet::new();
        let doc = parse_document(&a, "<m><m/></m>").unwrap();
        let mut t = Template::new(a);
        let m = t.add_child_str(t.root(), "_*/m").unwrap();
        let p = RegularTreePattern::monadic(t, m).unwrap();
        assert_eq!(p.evaluate(&doc).len(), 2);
    }

    #[test]
    fn anchored_projection_matches_filtered_full_search() {
        let a = Alphabet::new();
        let doc = mini_doc(&a);
        let p = r2(&a);
        let t = p.template();
        let anchor = t.children(t.root())[0]; // the candidate node
        let index = doc.index();
        let keep = p.selected();

        let mut budget = Budget::unlimited();
        let full = project_mappings_governed(t, &doc, keep, &mut budget).unwrap();
        // Anchoring at every candidate node reproduces the full result.
        let candidates = index.nodes_with_label(a.intern("candidate")).to_vec();
        let anchored =
            project_mappings_anchored_governed(t, &doc, anchor, &candidates, keep, &mut budget)
                .unwrap();
        assert_eq!(anchored, full);

        // Anchoring at a single candidate yields exactly the projections
        // whose images lie under it.
        let one = project_mappings_anchored_governed(
            t,
            &doc,
            anchor,
            &candidates[..1],
            keep,
            &mut budget,
        )
        .unwrap();
        let filtered: Vec<Vec<NodeId>> = full
            .iter()
            .filter(|proj| {
                proj.iter()
                    .all(|&n| doc.is_ancestor_or_self(candidates[0], n))
            })
            .cloned()
            .collect();
        assert_eq!(one, filtered);

        // Non-candidates (wrong root path) and detached images contribute
        // nothing.
        let exam = index.nodes_with_label(a.intern("exam"))[0];
        let none = project_mappings_anchored_governed(
            t,
            &doc,
            anchor,
            &[exam, doc.root()],
            keep,
            &mut budget,
        )
        .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn order_preservation_across_subtrees() {
        // Pattern: root -> a (with child c), root -> b. The image of c is in
        // a's subtree, before b's image.
        let a = Alphabet::new();
        let doc = parse_document(&a, "<a><c/></a><b/>").unwrap();
        let mut t = Template::new(a.clone());
        let na = t.add_child_str(t.root(), "a").unwrap();
        let nc = t.add_child_str(na, "c").unwrap();
        let nb = t.add_child_str(t.root(), "b").unwrap();
        let p = RegularTreePattern::new(t, vec![nc, nb]).unwrap();
        let res = p.evaluate(&doc);
        assert_eq!(res.len(), 1);
        // Swapped document: b before a — template sibling order violated.
        let doc2 = parse_document(&a, "<b/><a><c/></a>").unwrap();
        assert!(p.evaluate(&doc2).is_empty());
    }
}
