//! Regular tree templates (paper Definition 1).
//!
//! A template is a finite tree whose edges carry *proper* regular expressions
//! over the label alphabet. Every non-root node has exactly one incoming
//! edge, so edges are identified with their head node.

use std::fmt;

use regtree_alphabet::Alphabet;
use regtree_automata::{EdgeDfa, Nfa, Regex};

/// Subset-construction state cap for cached edge DFAs. Edge expressions are
/// small (paper Definition 1 sizes them in the tens of states), so blow-up
/// past this bound is pathological; such edges fall back to NFA stepping.
const EDGE_DFA_MAX_STATES: usize = 4096;

/// Handle to a template node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TemplateNodeId(pub u32);

impl TemplateNodeId {
    /// Index into the template arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct TemplateNode {
    parent: Option<TemplateNodeId>,
    children: Vec<TemplateNodeId>,
    /// Incoming edge expression (`None` for the root).
    regex: Option<Regex>,
    /// Compiled word automaton `A_e` of the incoming edge.
    nfa: Option<Nfa>,
    /// Determinization of `nfa`, built once at construction so evaluation
    /// steps a single state id instead of cloning NFA state sets. `None` for
    /// the root and for edges whose subset construction exceeded the cap.
    dfa: Option<EdgeDfa>,
}

/// Error raised while building a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// Edge expressions must be proper (Definition 1): the empty word would
    /// let a child node coincide with its parent's image.
    ImproperRegex(String),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::ImproperRegex(r) => {
                write!(
                    f,
                    "edge expression is not proper (accepts ε or nothing): {r}"
                )
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// A regular tree template `T = (Σ, N, E, 𝓔)`.
#[derive(Clone, Debug)]
pub struct Template {
    alphabet: Alphabet,
    nodes: Vec<TemplateNode>,
}

impl Template {
    /// Creates a template containing only the root node.
    pub fn new(alphabet: Alphabet) -> Template {
        Template {
            alphabet,
            nodes: vec![TemplateNode {
                parent: None,
                children: Vec::new(),
                regex: None,
                nfa: None,
                dfa: None,
            }],
        }
    }

    /// The shared alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The root node (maps to the document root in every mapping).
    pub fn root(&self) -> TemplateNodeId {
        TemplateNodeId(0)
    }

    /// Adds a child of `parent` reached through edge expression `regex`.
    ///
    /// Children are ordered: the insertion order is the sibling order that
    /// mappings must respect.
    pub fn add_child(
        &mut self,
        parent: TemplateNodeId,
        regex: Regex,
    ) -> Result<TemplateNodeId, TemplateError> {
        if !regex.is_proper() {
            return Err(TemplateError::ImproperRegex(
                regex.display(&self.alphabet).to_string(),
            ));
        }
        let id = TemplateNodeId(self.nodes.len() as u32);
        let nfa = Nfa::from_regex(&regex);
        let dfa = EdgeDfa::from_nfa(&nfa, EDGE_DFA_MAX_STATES);
        self.nodes.push(TemplateNode {
            parent: Some(parent),
            children: Vec::new(),
            regex: Some(regex),
            nfa: Some(nfa),
            dfa,
        });
        self.nodes[parent.index()].children.push(id);
        Ok(id)
    }

    /// Parses `src` as an edge expression and adds the child.
    pub fn add_child_str(
        &mut self,
        parent: TemplateNodeId,
        src: &str,
    ) -> Result<TemplateNodeId, TemplateError> {
        let regex = regtree_automata::parse_regex(&self.alphabet, src)
            .map_err(|e| TemplateError::ImproperRegex(format!("{src}: {e}")))?;
        self.add_child(parent, regex)
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Parent of a node.
    pub fn parent(&self, n: TemplateNodeId) -> Option<TemplateNodeId> {
        self.nodes[n.index()].parent
    }

    /// Ordered children.
    pub fn children(&self, n: TemplateNodeId) -> &[TemplateNodeId] {
        &self.nodes[n.index()].children
    }

    /// Is `n` a leaf?
    pub fn is_leaf(&self, n: TemplateNodeId) -> bool {
        self.nodes[n.index()].children.is_empty()
    }

    /// Incoming edge expression (`None` for the root).
    pub fn edge_regex(&self, n: TemplateNodeId) -> Option<&Regex> {
        self.nodes[n.index()].regex.as_ref()
    }

    /// Incoming edge automaton `A_e` (`None` for the root).
    pub(crate) fn edge_nfa(&self, n: TemplateNodeId) -> Option<&Nfa> {
        self.nodes[n.index()].nfa.as_ref()
    }

    /// Cached determinization of the incoming edge automaton (`None` for the
    /// root, or when subset construction exceeded its state cap).
    pub(crate) fn edge_dfa(&self, n: TemplateNodeId) -> Option<&EdgeDfa> {
        self.nodes[n.index()].dfa.as_ref()
    }

    /// Is `a` an ancestor of `b` (strict)?
    pub fn is_ancestor(&self, a: TemplateNodeId, b: TemplateNodeId) -> bool {
        let mut cur = self.parent(b);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Is `a` an ancestor of `b` or `b` itself?
    pub fn is_ancestor_or_self(&self, a: TemplateNodeId, b: TemplateNodeId) -> bool {
        a == b || self.is_ancestor(a, b)
    }

    /// Preorder (document-order `≺`) traversal of the template nodes.
    pub fn preorder(&self) -> Vec<TemplateNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.children(n).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All non-root nodes (i.e. all edges, identified by their head).
    pub(crate) fn edges(&self) -> Vec<TemplateNodeId> {
        self.preorder()
            .into_iter()
            .filter(|&n| n != self.root())
            .collect()
    }

    /// The size `|R| = |Σ| + Σ_e |A_e|` of Definition 1.
    pub(crate) fn size(&self) -> usize {
        self.alphabet.len()
            + self
                .nodes
                .iter()
                .filter_map(|n| n.nfa.as_ref())
                .map(Nfa::num_states)
                .sum::<usize>()
    }

    /// Renders an ASCII sketch of the template tree (for docs and debugging).
    pub fn sketch(&self) -> String {
        let mut out = String::new();
        self.sketch_node(self.root(), 0, &mut out);
        out
    }

    fn sketch_node(&self, n: TemplateNodeId, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if let Some(r) = self.edge_regex(n) {
            out.push_str(&format!("--[{}]--> n{}\n", r.display(&self.alphabet), n.0));
        } else {
            out.push_str("(root)\n");
        }
        for &c in self.children(n) {
            self.sketch_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> (Alphabet, Template, Vec<TemplateNodeId>) {
        let a = Alphabet::new();
        let mut t = Template::new(a.clone());
        let session = t.add_child_str(t.root(), "session").unwrap();
        let exam1 = t.add_child_str(session, "candidate/exam").unwrap();
        let exam2 = t.add_child_str(session, "candidate/exam").unwrap();
        let disc = t.add_child_str(exam1, "discipline/#text").unwrap();
        (a, t, vec![session, exam1, exam2, disc])
    }

    #[test]
    fn construction_and_structure() {
        let (_, t, ids) = template();
        assert_eq!(t.len(), 5);
        assert_eq!(t.children(t.root()), &[ids[0]]);
        assert_eq!(t.children(ids[0]), &[ids[1], ids[2]]);
        assert_eq!(t.parent(ids[3]), Some(ids[1]));
        assert!(t.is_leaf(ids[2]));
        assert!(!t.is_leaf(ids[0]));
        assert!(t.edge_regex(t.root()).is_none());
        assert!(t.edge_nfa(ids[1]).is_some());
    }

    #[test]
    fn improper_regexes_rejected() {
        let a = Alphabet::new();
        let mut t = Template::new(a);
        assert!(t.add_child_str(t.root(), "x*").is_err());
        assert!(t.add_child_str(t.root(), "x?").is_err());
        assert!(t.add_child(t.root(), Regex::Empty).is_err());
        assert!(t.add_child_str(t.root(), "x+").is_ok());
    }

    #[test]
    fn preorder_respects_insertion() {
        let (_, t, ids) = template();
        let order = t.preorder();
        assert_eq!(order, vec![t.root(), ids[0], ids[1], ids[3], ids[2]]);
        assert_eq!(t.edges().len(), 4);
    }

    #[test]
    fn ancestry() {
        let (_, t, ids) = template();
        assert!(t.is_ancestor(t.root(), ids[3]));
        assert!(t.is_ancestor(ids[0], ids[1]));
        assert!(!t.is_ancestor(ids[1], ids[2]));
        assert!(t.is_ancestor_or_self(ids[2], ids[2]));
    }

    #[test]
    fn size_metric() {
        let (a, t, _) = template();
        assert!(t.size() > a.len());
    }

    #[test]
    fn sketch_renders() {
        let (_, t, _) = template();
        let s = t.sketch();
        assert!(s.contains("(root)"));
        assert!(s.contains("candidate/exam"));
    }
}
