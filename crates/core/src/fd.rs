//! XML functional dependencies as regular tree patterns (Definition 4).
//!
//! An FD is `(FD, c)` where `FD = (T, (p1[E1], …, pn[En], q[E(n+1)]))` is a
//! regular tree pattern whose selected nodes carry equality types, and `c` is
//! a template node that is an ancestor of every selected node: the *context*
//! under which the dependency must hold.
//!
//! FDs written in the path syntax (`/ctx : p1, p2[N] -> q`) are built by
//! [`crate::parse_fd`]; [`Fd::new`] wraps a hand-built template, for
//! dependencies that syntax cannot name (`fd3`–`fd5` of the paper).

use std::fmt;

use regtree_pattern::{RegularTreePattern, Template, TemplateNodeId};

/// Equality type of a condition/target node (Definition 3 notation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EqualityType {
    /// `=V`: value equality of the rooted subtrees.
    Value,
    /// `=N`: node identity.
    Node,
}

/// An XML functional dependency `fd = (FD, c)`.
#[derive(Clone, Debug)]
pub struct Fd {
    pattern: RegularTreePattern,
    context: TemplateNodeId,
    equality: Vec<EqualityType>,
}

/// Error raised constructing an FD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdError {
    /// The equality-type vector must match the selected tuple length.
    EqualityArityMismatch {
        /// Number of selected nodes.
        selected: usize,
        /// Number of equality types supplied.
        equalities: usize,
    },
    /// The context must be an ancestor (or the node itself) of every
    /// condition/target node.
    ContextNotAncestor(TemplateNodeId),
    /// An FD needs at least a target node.
    NoTarget,
}

impl fmt::Display for FdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdError::EqualityArityMismatch {
                selected,
                equalities,
            } => write!(
                f,
                "equality types ({equalities}) must match selected nodes ({selected})"
            ),
            FdError::ContextNotAncestor(n) => {
                write!(f, "context is not an ancestor of selected node n{}", n.0)
            }
            FdError::NoTarget => write!(f, "an FD needs at least one selected node (the target)"),
        }
    }
}

impl std::error::Error for FdError {}

impl Fd {
    /// Creates an FD. The selected tuple of `pattern` is read as
    /// `(p1, …, pn, q)`: conditions followed by the target; `equality`
    /// supplies one equality type per selected node.
    pub fn new(
        pattern: RegularTreePattern,
        context: TemplateNodeId,
        equality: Vec<EqualityType>,
    ) -> Result<Fd, FdError> {
        if pattern.selected().is_empty() {
            return Err(FdError::NoTarget);
        }
        if equality.len() != pattern.selected().len() {
            return Err(FdError::EqualityArityMismatch {
                selected: pattern.selected().len(),
                equalities: equality.len(),
            });
        }
        for &s in pattern.selected() {
            if !pattern.template().is_ancestor_or_self(context, s) {
                return Err(FdError::ContextNotAncestor(s));
            }
        }
        Ok(Fd {
            pattern,
            context,
            equality,
        })
    }

    /// Creates an FD with all-default (`V`) equality types, the common case
    /// (“when omitted, the equality types are set by default to V”).
    pub fn with_default_equality(
        pattern: RegularTreePattern,
        context: TemplateNodeId,
    ) -> Result<Fd, FdError> {
        let n = pattern.selected().len();
        Fd::new(pattern, context, vec![EqualityType::Value; n])
    }

    /// The underlying pattern `FD`.
    pub fn pattern(&self) -> &RegularTreePattern {
        &self.pattern
    }

    /// The template of `FD`.
    pub fn template(&self) -> &Template {
        self.pattern.template()
    }

    /// The context node `c`.
    pub fn context(&self) -> TemplateNodeId {
        self.context
    }

    /// Condition nodes `p1..pn` (all selected nodes but the last).
    pub fn conditions(&self) -> &[TemplateNodeId] {
        let sel = self.pattern.selected();
        &sel[..sel.len() - 1]
    }

    /// The target node `q` (the last selected node).
    pub fn target(&self) -> TemplateNodeId {
        *self.pattern.selected().last().expect("nonempty")
    }

    /// Equality types, aligned with `conditions() ++ [target()]`.
    pub(crate) fn equality(&self) -> &[EqualityType] {
        &self.equality
    }

    /// Equality type of the target.
    pub fn target_equality(&self) -> EqualityType {
        *self.equality.last().expect("nonempty")
    }

    /// The size `|FD|` used in the paper's complexity bounds.
    pub fn size(&self) -> usize {
        self.pattern.size()
    }

    /// Human-readable rendering: the template sketch annotated with the
    /// context/condition/target roles and equality types.
    #[cfg(test)]
    pub(crate) fn describe(&self) -> String {
        let mut out = self.pattern.template().sketch();
        out.push_str(&format!("context: n{}\n", self.context.0));
        for (i, (&p, eq)) in self
            .conditions()
            .iter()
            .zip(self.equality.iter())
            .enumerate()
        {
            out.push_str(&format!(
                "condition p{}: n{} [{}]\n",
                i + 1,
                p.0,
                eq_str(*eq)
            ));
        }
        out.push_str(&format!(
            "target q: n{} [{}]\n",
            self.target().0,
            eq_str(self.target_equality())
        ));
        out
    }
}

#[cfg(test)]
fn eq_str(eq: EqualityType) -> &'static str {
    match eq {
        EqualityType::Value => "V",
        EqualityType::Node => "N",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textfd::parse_fd;
    use regtree_alphabet::Alphabet;

    #[test]
    fn fd1_roles() {
        let a = Alphabet::new();
        let fd = parse_fd(
            &a,
            "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
        )
        .unwrap();
        assert_eq!(fd.conditions().len(), 2);
        assert_eq!(fd.equality().len(), 3);
        assert_eq!(fd.target_equality(), EqualityType::Value);
        assert!(fd.template().is_ancestor(fd.context(), fd.target()));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let a = Alphabet::new();
        let mut t = Template::new(a);
        let c = t.add_child_str(t.root(), "s").unwrap();
        let p = t.add_child_str(c, "x").unwrap();
        let pat = RegularTreePattern::new(t, vec![p]).unwrap();
        assert!(matches!(
            Fd::new(pat, c, vec![]),
            Err(FdError::EqualityArityMismatch { .. })
        ));
    }

    #[test]
    fn context_must_dominate_selected() {
        let a = Alphabet::new();
        let mut t = Template::new(a);
        let c = t.add_child_str(t.root(), "s").unwrap();
        let other = t.add_child_str(t.root(), "u").unwrap();
        let p = t.add_child_str(other, "x").unwrap();
        let pat = RegularTreePattern::new(t, vec![p]).unwrap();
        assert!(matches!(
            Fd::new(pat, c, vec![EqualityType::Value]),
            Err(FdError::ContextNotAncestor(_))
        ));
    }

    #[test]
    fn describe_renders_roles() {
        let a = Alphabet::new();
        let fd = parse_fd(&a, "/session/candidate : exam/@date -> exam[N]").unwrap();
        let d = fd.describe();
        assert!(d.contains("context:"), "{d}");
        assert!(d.contains("condition p1:"), "{d}");
        assert!(d.contains("[N]"), "{d}");
        assert!(d.contains("(root)"), "{d}");
    }

    #[test]
    fn size_is_pattern_size() {
        let a = Alphabet::new();
        let fd = parse_fd(&a, "/s : -> x").unwrap();
        assert_eq!(fd.size(), fd.pattern().size());
    }
}
