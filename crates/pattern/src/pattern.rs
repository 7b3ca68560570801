//! N-ary regular tree patterns (paper Definition 1): a template plus the
//! selected tuple of template nodes.

use std::fmt;

use regtree_runtime::Budget;
use regtree_xml::{Document, NodeId};

use crate::eval::{project_mappings_governed, UNLIMITED_CANNOT_EXHAUST};
use crate::template::{Template, TemplateNodeId};

/// An n-ary regular tree pattern `R = (T, s̄)`.
#[derive(Clone, Debug)]
pub struct RegularTreePattern {
    template: Template,
    selected: Vec<TemplateNodeId>,
}

/// Error raised constructing a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// A selected node is not part of the template.
    UnknownNode(TemplateNodeId),
    /// The selected tuple must not be empty.
    EmptySelection,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::UnknownNode(n) => write!(f, "selected node n{} not in template", n.0),
            PatternError::EmptySelection => write!(f, "selected tuple is empty"),
        }
    }
}

impl std::error::Error for PatternError {}

impl RegularTreePattern {
    /// Creates a pattern from a template and its selected tuple.
    pub fn new(
        template: Template,
        selected: Vec<TemplateNodeId>,
    ) -> Result<RegularTreePattern, PatternError> {
        if selected.is_empty() {
            return Err(PatternError::EmptySelection);
        }
        for &s in &selected {
            if s.index() >= template.len() {
                return Err(PatternError::UnknownNode(s));
            }
        }
        Ok(RegularTreePattern { template, selected })
    }

    /// A monadic (unary) pattern.
    pub fn monadic(
        template: Template,
        selected: TemplateNodeId,
    ) -> Result<RegularTreePattern, PatternError> {
        RegularTreePattern::new(template, vec![selected])
    }

    /// The underlying template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The selected tuple `s̄`.
    pub fn selected(&self) -> &[TemplateNodeId] {
        &self.selected
    }

    /// The size `|R|` (Definition 1).
    pub fn size(&self) -> usize {
        self.template.size()
    }

    /// Evaluates the pattern on `doc`: the set of distinct selected-node
    /// image tuples, each denoting the tuple of sub-trees `(D(π(w_1)), …)`.
    pub fn evaluate(&self, doc: &Document) -> Vec<Vec<NodeId>> {
        let mut budget = Budget::unlimited();
        project_mappings_governed(&self.template, doc, &self.selected, &mut budget)
            .expect(UNLIMITED_CANNOT_EXHAUST)
    }

    /// All mappings of the pattern's template on `doc` (Definition 2).
    pub fn mappings(&self, doc: &Document) -> Vec<crate::eval::Mapping> {
        crate::eval::enumerate_mappings(&self.template, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;

    #[test]
    fn construction_checks() {
        let a = Alphabet::new();
        let mut t = Template::new(a);
        let c = t.add_child_str(t.root(), "x").unwrap();
        assert!(RegularTreePattern::new(t.clone(), vec![]).is_err());
        assert!(RegularTreePattern::new(t.clone(), vec![TemplateNodeId(99)]).is_err());
        let p = RegularTreePattern::monadic(t, c).unwrap();
        assert_eq!(p.selected(), &[c]);
    }

    #[test]
    fn size_delegates_to_template() {
        let a = Alphabet::new();
        let mut t = Template::new(a);
        let c = t.add_child_str(t.root(), "x/y/z").unwrap();
        let p = RegularTreePattern::monadic(t.clone(), c).unwrap();
        assert_eq!(p.size(), t.size());
    }
}
