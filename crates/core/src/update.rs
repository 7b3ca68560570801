//! Update classes and concrete updates (paper Section 4).
//!
//! An update `q = u ∘ U` composes a *node-selecting* application `U` — a
//! regular tree pattern returning the nodes to be updated — with an
//! arbitrary function `u` replacing the subtree rooted at each selected
//! node. Two updates belong to the same class iff they share `U`; the
//! independence analysis only looks at the class, never at `u`.
//!
//! For executing updates (examples, benchmarks, randomized soundness tests)
//! a small vocabulary of concrete `u`s is provided, including the paper's
//! `q1` (“decrease the level to the level just below”) via [`UpdateOp::MapText`].
//!
//! Every update runs through the delta methods of a [`VersionedDocument`]:
//! [`Update::apply`] wraps a plain document for the call. Selection reads
//! the document's own label index, which those edits keep in step.
//! [`crate::IncrementalChecker::apply_and_recheck`] runs selection under
//! the request's budget, and stops before any edit when it runs out
//! ([`ApplyError::Exhausted`]).

use std::fmt;
use std::sync::Arc;

use regtree_pattern::{project_mappings_governed, RegularTreePattern, Template, TemplateNodeId};
use regtree_runtime::{Budget, Resource};
use regtree_xml::{edit, Document, EditError, NodeId, TreeSpec, VersionedDocument};

/// A class of updates `U = (T_U, s̄_U)`.
#[derive(Clone, Debug)]
pub struct UpdateClass {
    pattern: RegularTreePattern,
}

/// Error raised constructing an update class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateClassError {
    /// The independence criterion requires updated nodes to be leaves of the
    /// update template (Section 5 restriction).
    SelectedNotLeaf(TemplateNodeId),
}

impl fmt::Display for UpdateClassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateClassError::SelectedNotLeaf(n) => write!(
                f,
                "updated node n{} must be a leaf of the update template",
                n.0
            ),
        }
    }
}

impl std::error::Error for UpdateClassError {}

impl UpdateClass {
    /// Creates an update class, enforcing the paper's restriction that every
    /// selected (updated) node is a leaf of `T_U`.
    pub fn new(pattern: RegularTreePattern) -> Result<UpdateClass, UpdateClassError> {
        for &s in pattern.selected() {
            if !pattern.template().is_leaf(s) {
                return Err(UpdateClassError::SelectedNotLeaf(s));
            }
        }
        Ok(UpdateClass { pattern })
    }

    /// The selecting pattern `U`.
    pub fn pattern(&self) -> &RegularTreePattern {
        &self.pattern
    }

    /// The template `T_U`.
    pub fn template(&self) -> &Template {
        self.pattern.template()
    }

    /// The size `|U|` used in the paper's complexity bounds.
    pub fn size(&self) -> usize {
        self.pattern.size()
    }

    /// The set of nodes this class would update on `doc` (deduplicated,
    /// document order).
    pub fn selected_nodes(&self, doc: &Document) -> Vec<NodeId> {
        self.selected_nodes_governed(doc, &mut Budget::unlimited())
            .expect("an unlimited budget cannot be exhausted")
    }

    /// [`UpdateClass::selected_nodes`] under `budget`.
    fn selected_nodes_governed(
        &self,
        doc: &Document,
        budget: &mut Budget,
    ) -> Result<Vec<NodeId>, Resource> {
        let pattern = &self.pattern;
        let mut keyed: Vec<(Vec<u32>, NodeId)> =
            project_mappings_governed(pattern.template(), doc, pattern.selected(), budget)?
                .into_iter()
                .flatten()
                .map(|n| (doc.dewey(n), n))
                .collect();
        keyed.sort();
        keyed.dedup_by(|a, b| a.1 == b.1);
        Ok(keyed.into_iter().map(|(_, n)| n).collect())
    }
}

/// Shared, thread-safe closure performing arbitrary document surgery.
pub type CustomOp = Arc<dyn Fn(&mut Document, NodeId) + Send + Sync>;

/// A concrete update function `u`, applied to each selected node.
///
/// **Label preservation.** The independence criterion's soundness
/// (Proposition 2, case b) relies on the updated node remaining part of the
/// update trace after the update: the replacement keeps the selected node's
/// *label* and replaces its content. [`UpdateOp::Replace`] therefore rejects
/// specs whose root label differs from the updated node's; [`UpdateOp::Custom`]
/// functions must uphold the same contract for independence verdicts to
/// apply to them. Deleting the whole node is allowed ([`UpdateOp::Delete`]):
/// removals only destroy traces and can never introduce a violation.
#[derive(Clone)]
pub enum UpdateOp {
    /// Replace the subtree with a fresh one carrying the *same root label*
    /// (the paper's primitive).
    Replace(TreeSpec),
    /// Append a child subtree (modeled in the paper as replacing the node by
    /// an extended copy of itself).
    AppendChild(TreeSpec),
    /// Prepend a child subtree.
    PrependChild(TreeSpec),
    /// Delete the subtree (modeled as updating the parent).
    Delete,
    /// Overwrite the node's string value (attribute/text leaves), or the
    /// value of every text child for element nodes.
    SetText(String),
    /// Rewrite string values through a function — e.g. the paper's `q1`
    /// decreasing a candidate's level `'B' → 'C'`.
    MapText(Arc<dyn Fn(&str) -> String + Send + Sync>),
    /// Arbitrary document surgery rooted at the node.
    Custom(CustomOp),
    /// Applies the inner op to the *first* selected node (document order)
    /// only — the canonical way to build asymmetric updates, which are what
    /// actually break FDs (two traces must *disagree* after the update).
    FirstOnly(Box<UpdateOp>),
}

impl fmt::Debug for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateOp::Replace(s) => f.debug_tuple("Replace").field(s).finish(),
            UpdateOp::AppendChild(s) => f.debug_tuple("AppendChild").field(s).finish(),
            UpdateOp::PrependChild(s) => f.debug_tuple("PrependChild").field(s).finish(),
            UpdateOp::Delete => write!(f, "Delete"),
            UpdateOp::SetText(v) => f.debug_tuple("SetText").field(v).finish(),
            UpdateOp::MapText(_) => write!(f, "MapText(<fn>)"),
            UpdateOp::Custom(_) => write!(f, "Custom(<fn>)"),
            UpdateOp::FirstOnly(inner) => f.debug_tuple("FirstOnly").field(inner).finish(),
        }
    }
}

/// An executable update `q = u ∘ U`.
#[derive(Clone, Debug)]
pub struct Update {
    /// The node-selecting class.
    pub class: UpdateClass,
    /// The concrete update function.
    pub op: UpdateOp,
}

/// Error raised while applying an update.
#[derive(Debug)]
pub enum ApplyError {
    /// An underlying edit failed.
    Edit(edit::EditError),
    /// A replacement changed the updated node's label (see [`UpdateOp`]).
    LabelChanged {
        /// The label of the node being updated.
        expected: String,
        /// The root label of the replacement spec.
        got: String,
    },
    /// Selecting the nodes to update ran out of budget; nothing was
    /// edited.
    Exhausted(Resource),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Edit(e) => write!(f, "update application failed: {e}"),
            ApplyError::LabelChanged { expected, got } => write!(
                f,
                "replacement must keep the updated node's label '{expected}', got '{got}' \
                 (independence soundness requires label-preserving updates)"
            ),
            ApplyError::Exhausted(r) => write!(
                f,
                "update selection ran out of budget ({}); the document is unchanged",
                r.name()
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<edit::EditError> for ApplyError {
    fn from(e: edit::EditError) -> Self {
        ApplyError::Edit(e)
    }
}

impl Update {
    /// Creates an update.
    pub fn new(class: UpdateClass, op: UpdateOp) -> Update {
        Update { class, op }
    }

    /// Applies the update in place; returns the nodes that were updated.
    ///
    /// Selected nodes are processed in document order; nodes detached by an
    /// earlier replacement (nested selections) are skipped — the outermost
    /// replacement wins, matching the subtree-replacement semantics. Runs
    /// [`Update::apply_versioned`] on the document and drops the delta.
    pub fn apply(&self, doc: &mut Document) -> Result<Vec<NodeId>, ApplyError> {
        let empty = Document::new(doc.alphabet().clone());
        let mut v = VersionedDocument::new(std::mem::replace(doc, empty));
        let result = self.apply_versioned(&mut v);
        *doc = v.into_doc();
        result
    }

    /// Applies on a clone, leaving `doc` untouched.
    pub fn apply_cloned(&self, doc: &Document) -> Result<Document, ApplyError> {
        let mut copy = doc.clone();
        self.apply(&mut copy)?;
        Ok(copy)
    }

    /// [`Update::apply`] against a [`VersionedDocument`]: every edit goes
    /// through the delta methods, so the accumulated
    /// [`regtree_xml::Delta`] records exactly what changed.
    /// [`UpdateOp::Custom`] ops run under
    /// [`VersionedDocument::apply_opaque`] (opaque delta).
    pub fn apply_versioned(&self, v: &mut VersionedDocument) -> Result<Vec<NodeId>, ApplyError> {
        self.apply_versioned_governed(v, &mut Budget::unlimited())
    }

    /// [`Update::apply_versioned`] with selection under `budget`. A
    /// selection that exhausts it returns [`ApplyError::Exhausted`]
    /// before any edit, so `v`, its version and its delta are untouched.
    pub(crate) fn apply_versioned_governed(
        &self,
        v: &mut VersionedDocument,
        budget: &mut Budget,
    ) -> Result<Vec<NodeId>, ApplyError> {
        let targets = self
            .class
            .selected_nodes_governed(v.doc(), budget)
            .map_err(ApplyError::Exhausted)?;
        let mut touched = Vec::new();
        let (op, only_first) = match &self.op {
            UpdateOp::FirstOnly(inner) => (inner.as_ref(), true),
            other => (other, false),
        };
        for n in targets {
            if !v.doc().is_alive(n) {
                continue;
            }
            apply_at(op, v, n)?;
            touched.push(n);
            if only_first {
                break;
            }
        }
        Ok(touched)
    }
}

fn apply_at(op: &UpdateOp, target: &mut VersionedDocument, n: NodeId) -> Result<(), ApplyError> {
    match op {
        UpdateOp::Replace(spec) => {
            let doc = target.doc();
            if spec.label != doc.label(n) {
                return Err(ApplyError::LabelChanged {
                    expected: doc.label_name(n).to_string(),
                    got: doc.alphabet().name(spec.label).to_string(),
                });
            }
            target.replace_subtree(n, spec)?;
        }
        UpdateOp::AppendChild(spec) => {
            let len = target.doc().children(n).len();
            target.insert_child(n, len, spec)?;
        }
        UpdateOp::PrependChild(spec) => {
            target.insert_child(n, 0, spec)?;
        }
        UpdateOp::Delete => {
            target.delete_subtree(n)?;
        }
        UpdateOp::SetText(v) => {
            set_text(target, n, |_| v.clone())?;
        }
        UpdateOp::MapText(f) => {
            set_text(target, n, |old| f(old))?;
        }
        UpdateOp::Custom(f) => {
            target.apply_opaque(|doc| f(doc, n));
        }
        // Nested FirstOnly degenerates to its inner op per node.
        UpdateOp::FirstOnly(inner) => {
            apply_at(inner, target, n)?;
        }
    }
    Ok(())
}

fn set_text(
    target: &mut VersionedDocument,
    n: NodeId,
    f: impl Fn(&str) -> String,
) -> Result<(), EditError> {
    use regtree_alphabet::LabelKind;
    let doc = target.doc();
    match doc.kind(n) {
        LabelKind::Attribute | LabelKind::Text => {
            let new = f(doc.value(n).unwrap_or(""));
            target.set_value(n, &new)
        }
        LabelKind::Element => {
            let text_children: Vec<NodeId> = doc
                .children(n)
                .iter()
                .copied()
                .filter(|&c| doc.kind(c) == LabelKind::Text)
                .collect();
            for c in text_children {
                let new = f(target.doc().value(c).unwrap_or(""));
                target.set_value(c, &new)?;
            }
            Ok(())
        }
    }
}

/// Builds a monadic update class from a single root-to-leaf chain of edge
/// expressions, selecting the last node.
pub fn update_class_from_edges(
    alphabet: &regtree_alphabet::Alphabet,
    edges: &[&str],
) -> Result<UpdateClass, String> {
    let mut t = Template::new(alphabet.clone());
    let mut cur = t.root();
    for e in edges {
        cur = t.add_child_str(cur, e).map_err(|e| e.to_string())?;
    }
    let p = RegularTreePattern::monadic(t, cur).map_err(|e| e.to_string())?;
    UpdateClass::new(p).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;
    use regtree_xml::{parse_document, to_xml};

    fn doc(a: &Alphabet) -> Document {
        parse_document(
            a,
            "<session>\
             <candidate><toBePassed/><level>B</level></candidate>\
             <candidate><level>A</level></candidate>\
             </session>",
        )
        .unwrap()
    }

    /// The paper's class U (Figure 6): levels of candidates that still have
    /// exams to pass.
    fn class_u(a: &Alphabet) -> UpdateClass {
        let mut t = Template::new(a.clone());
        let cand = t.add_child_str(t.root(), "session/candidate").unwrap();
        let _tbp = t.add_child_str(cand, "toBePassed").unwrap();
        let level = t.add_child_str(cand, "level").unwrap();
        UpdateClass::new(RegularTreePattern::monadic(t, level).unwrap()).unwrap()
    }

    #[test]
    fn class_selects_only_matching_nodes() {
        let a = Alphabet::new();
        let d = doc(&a);
        let u = class_u(&a);
        let nodes = u.selected_nodes(&d);
        // Only the first candidate has a toBePassed child.
        assert_eq!(nodes.len(), 1);
        assert_eq!(d.label_name(nodes[0]).as_ref(), "level");
    }

    #[test]
    fn q1_decrease_level() {
        let a = Alphabet::new();
        let mut d = doc(&a);
        let q1 = Update::new(
            class_u(&a),
            UpdateOp::MapText(Arc::new(|old: &str| match old {
                "A" => "B".into(),
                "B" => "C".into(),
                "C" => "D".into(),
                "D" => "E".into(),
                other => other.to_string(),
            })),
        );
        let touched = q1.apply(&mut d).unwrap();
        assert_eq!(touched.len(), 1);
        let xml = to_xml(&d);
        assert!(xml.contains("<level>C</level>"), "{xml}");
        assert!(xml.contains("<level>A</level>"), "{xml}");
    }

    #[test]
    fn q2_append_comment_child() {
        let a = Alphabet::new();
        let mut d = doc(&a);
        let q2 = Update::new(
            class_u(&a),
            UpdateOp::AppendChild(TreeSpec::elem_named(&a, "comment", vec![])),
        );
        q2.apply(&mut d).unwrap();
        let xml = to_xml(&d);
        assert!(xml.contains("<level>B<comment/></level>"), "{xml}");
    }

    #[test]
    fn replace_and_delete() {
        let a = Alphabet::new();
        let mut d = doc(&a);
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let rep = Update::new(
            class.clone(),
            UpdateOp::Replace(TreeSpec::elem_named(&a, "level", vec![TreeSpec::text("E")])),
        );
        let touched = rep.apply(&mut d).unwrap();
        assert_eq!(touched.len(), 2);
        assert_eq!(to_xml(&d).matches("<level>E</level>").count(), 2);

        let mut d2 = doc(&a);
        let del = Update::new(class, UpdateOp::Delete);
        del.apply(&mut d2).unwrap();
        assert!(!to_xml(&d2).contains("level"));
    }

    #[test]
    fn non_leaf_selection_rejected() {
        let a = Alphabet::new();
        let mut t = Template::new(a);
        let cand = t.add_child_str(t.root(), "session/candidate").unwrap();
        let _lvl = t.add_child_str(cand, "level").unwrap();
        let p = RegularTreePattern::monadic(t, cand).unwrap();
        assert!(matches!(
            UpdateClass::new(p),
            Err(UpdateClassError::SelectedNotLeaf(_))
        ));
    }

    #[test]
    fn nested_selections_outermost_wins() {
        let a = Alphabet::new();
        let mut d = parse_document(&a, "<x><x><x/></x></x>").unwrap();
        // Select every x anywhere.
        let class = update_class_from_edges(&a, &["_*/x"]).unwrap();
        let up = Update::new(
            class,
            UpdateOp::Replace(TreeSpec::elem_named(&a, "x", vec![TreeSpec::text("flat")])),
        );
        let touched = up.apply(&mut d).unwrap();
        // The outermost replacement detaches the inner ones.
        assert_eq!(touched.len(), 1);
        assert_eq!(to_xml(&d), "<x>flat</x>");
    }

    #[test]
    fn label_changing_replacement_rejected() {
        let a = Alphabet::new();
        let mut d = parse_document(&a, "<x><loan/></x>").unwrap();
        let class = update_class_from_edges(&a, &["x/loan"]).unwrap();
        let up = Update::new(
            class,
            UpdateOp::Replace(TreeSpec::elem_named(&a, "section", vec![])),
        );
        assert!(matches!(
            up.apply(&mut d),
            Err(ApplyError::LabelChanged { .. })
        ));
    }

    #[test]
    fn apply_cloned_leaves_original_untouched() {
        let a = Alphabet::new();
        let d = doc(&a);
        let before = to_xml(&d);
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let up = Update::new(class, UpdateOp::SetText("Z".into()));
        let d2 = up.apply_cloned(&d).unwrap();
        assert_eq!(to_xml(&d), before);
        assert!(to_xml(&d2).contains("<level>Z</level>"));
    }

    #[test]
    fn custom_op() {
        let a = Alphabet::new();
        let mut d = doc(&a);
        let alabel = a.clone();
        let class = update_class_from_edges(&a, &["session/candidate/level"]).unwrap();
        let up = Update::new(
            class,
            UpdateOp::Custom(Arc::new(move |doc: &mut Document, n: NodeId| {
                let _ = edit::insert_child(
                    doc,
                    n,
                    0,
                    &TreeSpec::attr_named(&alabel, "@checked", "yes"),
                );
            })),
        );
        up.apply(&mut d).unwrap();
        assert!(to_xml(&d).contains("checked=\"yes\""));
    }
}
