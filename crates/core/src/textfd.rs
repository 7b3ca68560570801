//! Textual functional dependencies and update classes: the richer grammar
//! behind [`PathFd::parse`](crate::PathFd::parse), and
//! [`parse_update_class`], which compiles the same path language into the
//! monadic patterns that select updated nodes.
//!
//! [`parse_fd`] accepts every line the original path-FD syntax accepted —
//! `context : p1, p2[N] -> q` with simple label paths — and extends every
//! path with the full pattern language of `regtree_pattern::lang`:
//! descendant axes (`//`), wildcards (`*`), attribute/text tests, and
//! counting predicates (`[count(p) >= n]`, `[at-least n p]`). Value tests
//! (`[p = "v"]`) are rejected: FD checking runs through engines that see
//! the template only.
//!
//! The translation generalizes the \[8\] construction of
//! [`PathFd::to_fd`](crate::PathFd::to_fd): condition/target paths are
//! factorized into a trie over *steps* (structural equality), unary
//! unselected predicate-free chains compress into single multi-label
//! edges, and counting predicates expand into repeated branches. On
//! simple-path input the resulting template is structurally identical to
//! the `PathFd` one, so existing FD corpora keep byte-identical verdicts.

use regtree_alphabet::Alphabet;
use regtree_pattern::lang::{
    self, append_relpath, parse_fd_expr, parse_pattern, EqTag, FdExpr, ParseError, Predicate, Step,
};
use regtree_pattern::{RegularTreePattern, Template, TemplateNodeId};

use crate::error::Error;
use crate::fd::{EqualityType, Fd};
use crate::pathfd::PathFdError;
use crate::update::UpdateClass;

fn err(m: impl Into<String>) -> PathFdError {
    PathFdError { message: m.into() }
}

const FD_VALUE_TEST: &str = "value tests ([p = \"v\"]) are not supported in FDs; the FD itself \
                             compares selected nodes by value ([V]) or node ([N]) equality";

/// Parses an update class `U` written in the pattern language: a monadic
/// pattern selecting the node of the final step.
///
/// The grammar is the one of [`parse_fd`]'s paths, anchored at the root:
/// `/` and `//` axes, wildcards, attribute and `text()` tests, conjunctive
/// and counting predicates. Value tests are rejected (the independence
/// criterion sees only the template), and the final step must be
/// predicate-free, because the updated node has to be a leaf of the
/// template (Section 5).
///
/// ```
/// use regtree_alphabet::Alphabet;
/// use regtree_core::parse_update_class;
///
/// let a = Alphabet::new();
/// let class = parse_update_class(&a, "/library/shelf/book[loan]/loan").unwrap();
/// assert_eq!(class.template().len(), 4);
///
/// // The updated node must be a template leaf.
/// assert!(parse_update_class(&a, "/library/shelf/book[loan]").is_err());
/// // Parse errors carry byte offsets.
/// let e = parse_update_class(&a, "/library/[x]").unwrap_err();
/// assert!(e.to_string().contains("byte 9"));
/// ```
pub fn parse_update_class(alphabet: &Alphabet, src: &str) -> Result<UpdateClass, Error> {
    let ast = parse_pattern(src)?;
    let mut template = Template::new(alphabet.clone());
    let root = template.root();
    // Compile errors carry no source offset; like
    // `CompiledPattern::from_text`, report them at the end of the input.
    let selected = append_relpath(&mut template, root, &ast.steps).map_err(|e| ParseError {
        offset: src.len(),
        found: String::new(),
        expected: Vec::new(),
        note: Some(e.to_string()),
    })?;
    let pattern = RegularTreePattern::monadic(template, selected)?;
    Ok(UpdateClass::new(pattern)?)
}

/// Parses a one-line textual FD and compiles it into an [`Fd`].
///
/// ```
/// use regtree_alphabet::Alphabet;
/// use regtree_core::{parse_fd, satisfies};
/// use regtree_xml::parse_document;
///
/// let a = Alphabet::new();
/// // The original path-FD syntax still parses…
/// let fd = parse_fd(&a, "/catalog : item/sku -> item/price").unwrap();
/// assert_eq!(fd.conditions().len(), 1);
///
/// // …and paths may now use descendant axes and counting predicates.
/// let fd = parse_fd(&a, "/lib//shelf : book[count(author) >= 2]/isbn -> book/title").unwrap();
/// let doc = parse_document(
///     &a,
///     "<lib><shelf><book><author/><author/><isbn>1</isbn><title>t</title></book></shelf></lib>",
/// )
/// .unwrap();
/// assert!(satisfies(&fd, &doc));
///
/// // Parse errors carry byte offsets and expected-token sets.
/// let e = parse_fd(&a, "/c : a -> ").unwrap_err();
/// assert!(e.to_string().contains("byte 10"));
/// ```
pub fn parse_fd(alphabet: &Alphabet, src: &str) -> Result<Fd, Error> {
    let expr = parse_fd_expr(src).map_err(Error::PatternText)?;
    fd_from_expr(alphabet, &expr)
}

/// Compiles an already-parsed [`FdExpr`] into an [`Fd`].
pub fn fd_from_expr(alphabet: &Alphabet, expr: &FdExpr) -> Result<Fd, Error> {
    if has_value_test(&expr.context.steps)
        || expr
            .conditions
            .iter()
            .any(|(p, _)| has_value_test(&p.steps))
        || has_value_test(&expr.target.0.steps)
    {
        return Err(err(FD_VALUE_TEST).into());
    }

    let mut template = Template::new(alphabet.clone());
    let root = template.root();
    let context =
        append_relpath(&mut template, root, &expr.context.steps).map_err(compile_error)?;

    // Trie over steps (structural equality) below the context: the
    // generalized [8] factorization.
    struct TrieNode {
        step: Step,
        children: Vec<usize>,
    }
    let mut arena: Vec<TrieNode> = Vec::new();
    let mut top: Vec<usize> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let paths = expr
        .conditions
        .iter()
        .map(|(p, _)| p)
        .chain(std::iter::once(&expr.target.0));
    for path in paths {
        let mut cur: Option<usize> = None;
        for step in &path.steps {
            let siblings: &[usize] = match cur {
                None => &top,
                Some(i) => &arena[i].children,
            };
            let found = siblings.iter().copied().find(|&c| arena[c].step == *step);
            let next = match found {
                Some(c) => c,
                None => {
                    let id = arena.len();
                    arena.push(TrieNode {
                        step: step.clone(),
                        children: Vec::new(),
                    });
                    match cur {
                        None => top.push(id),
                        Some(i) => arena[i].children.push(id),
                    }
                    id
                }
            };
            cur = Some(next);
        }
        ends.push(cur.expect("relpaths are nonempty"));
    }
    let mut sorted = ends.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != ends.len() {
        return Err(err("duplicate condition/target paths").into());
    }

    // Materialize: compress unary, unselected, predicate-free chains into
    // single edges; `append_relpath` merges the chain's steps and builds
    // the tail's predicate branches (including counting expansion).
    let mut node_of: Vec<Option<TemplateNodeId>> = vec![None; arena.len()];
    let mut stack: Vec<(usize, TemplateNodeId)> = top.iter().map(|&c| (c, context)).collect();
    // Insertion order must be preserved: children of one template node are
    // sibling branches whose order is the document order the mapping must
    // respect. A LIFO stack of (trie node, parent template node) visits
    // parents before children, and we push children reversed so siblings
    // materialize left to right.
    stack.reverse();
    while let Some((first, from_tpl)) = stack.pop() {
        let mut chain = vec![first];
        let mut cur = first;
        while arena[cur].children.len() == 1
            && !ends.contains(&cur)
            && arena[cur].step.predicates.is_empty()
        {
            cur = arena[cur].children[0];
            chain.push(cur);
        }
        let steps: Vec<Step> = chain.iter().map(|&i| arena[i].step.clone()).collect();
        let tpl = append_relpath(&mut template, from_tpl, &steps).map_err(compile_error)?;
        node_of[cur] = Some(tpl);
        for &child in arena[cur].children.iter().rev() {
            stack.push((child, tpl));
        }
    }

    let mut selected = Vec::new();
    let mut equality = Vec::new();
    for (i, (_, eq)) in expr.conditions.iter().enumerate() {
        selected.push(node_of[ends[i]].expect("materialized"));
        equality.push(eq_type(*eq));
    }
    selected.push(node_of[*ends.last().expect("target")].expect("materialized"));
    equality.push(eq_type(expr.target.1));

    let pattern = RegularTreePattern::new(template, selected)?;
    Ok(Fd::new(pattern, context, equality)?)
}

fn eq_type(tag: EqTag) -> EqualityType {
    match tag {
        EqTag::Value => EqualityType::Value,
        EqTag::Node => EqualityType::Node,
    }
}

fn compile_error(e: lang::CompileError) -> Error {
    match e {
        lang::CompileError::Template(e) => Error::Template(e),
        lang::CompileError::Pattern(e) => Error::Pattern(e),
        lang::CompileError::ValueTest => err(FD_VALUE_TEST).into(),
    }
}

fn has_value_test(steps: &[Step]) -> bool {
    steps.iter().any(|s| {
        s.predicates.iter().any(|p| match p {
            Predicate::ValueEq(..) => true,
            Predicate::Exists(rp) | Predicate::AtLeast(_, rp) => has_value_test(&rp.steps),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathfd::PathFd;
    use crate::satisfy::satisfies;
    use regtree_xml::parse_document;

    /// expr1 / expr2 of the paper.
    const EXPR1: &str =
        "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank";
    const EXPR2: &str = "/session/candidate : exam/date, exam/discipline -> exam[N]";

    #[test]
    fn simple_paths_build_the_exact_pathfd_template() {
        let a = Alphabet::new();
        for src in [
            EXPR1,
            EXPR2,
            "/c : -> x",
            "/r : a/b/c -> a/b/d",
            "/r : a, a/b -> a/b/c",
            "/session/candidate : exam[N], level -> @IDN",
        ] {
            let via_path = PathFd::parse(&a, src).unwrap().to_fd(&a).unwrap();
            let via_text = parse_fd(&a, src).unwrap();
            assert_eq!(
                via_text.template().sketch(),
                via_path.template().sketch(),
                "template drift for {src}"
            );
            assert_eq!(
                via_text.pattern().selected(),
                via_path.pattern().selected(),
                "selection drift for {src}"
            );
            assert_eq!(
                via_text.context(),
                via_path.context(),
                "context drift for {src}"
            );
            assert_eq!(
                via_text.describe(),
                via_path.describe(),
                "describe drift for {src}"
            );
        }
    }

    #[test]
    fn pathfd_error_cases_still_error() {
        let a = Alphabet::new();
        for src in [
            "no colon here",
            "relative : a -> b",
            "/c : a, b",
            "/c : a,,b -> t",
            "/c : ,a -> t",
            "/c : a, -> t",
            "/ : a -> t",
        ] {
            assert!(parse_fd(&a, src).is_err(), "{src} should not parse");
        }
        assert!(parse_fd(&a, "/c : a, a -> b").is_err()); // duplicate paths
    }

    #[test]
    fn descendant_axis_in_fd_paths() {
        let a = Alphabet::new();
        // Any mark anywhere below a candidate determines its level.
        let fd = parse_fd(&a, "/session : candidate//mark -> candidate/level").unwrap();
        let good = parse_document(
            &a,
            "<session>\
             <candidate><exam><mark>15</mark></exam><level>B</level></candidate>\
             <candidate><exam><mark>15</mark></exam><level>B</level></candidate>\
             </session>",
        )
        .unwrap();
        assert!(satisfies(&fd, &good));
        let bad = parse_document(
            &a,
            "<session>\
             <candidate><exam><mark>15</mark></exam><level>B</level></candidate>\
             <candidate><exam><mark>15</mark></exam><level>A</level></candidate>\
             </session>",
        )
        .unwrap();
        assert!(!satisfies(&fd, &bad));
    }

    #[test]
    fn counting_predicates_in_fd_paths() {
        let a = Alphabet::new();
        // Among candidates with at least two exams, the id determines the
        // level. The single-exam candidates are outside the FD's scope.
        // The two predicate-bearing `candidate` steps are structurally
        // equal, so they factorize into ONE trie node; id and level end
        // below it at distinct nodes. (The counting branches precede the
        // id/level edges in template preorder, so — document order being a
        // mapping condition — the witnessed exams must precede id and
        // level among the candidate's children, as they do here.)
        let fd = parse_fd(
            &a,
            "/session : candidate[count(exam) >= 2]/id -> candidate[count(exam) >= 2]/level",
        )
        .unwrap();
        let good = parse_document(
            &a,
            "<session>\
             <candidate><exam/><exam/><id>7</id><level>B</level></candidate>\
             <candidate><exam/><exam/><id>7</id><level>B</level></candidate>\
             <candidate><exam/><id>7</id><level>A</level></candidate>\
             </session>",
        )
        .unwrap();
        // The third candidate has only one exam: out of scope, its level
        // may differ.
        assert!(satisfies(&fd, &good));
        let bad = parse_document(
            &a,
            "<session>\
             <candidate><exam/><exam/><id>7</id><level>B</level></candidate>\
             <candidate><exam/><exam/><id>7</id><level>A</level></candidate>\
             </session>",
        )
        .unwrap();
        assert!(!satisfies(&fd, &bad));
    }

    #[test]
    fn value_tests_rejected_in_fds() {
        let a = Alphabet::new();
        let e = parse_fd(&a, "/s : c[x = \"1\"]/a -> c/b").unwrap_err();
        assert!(e.to_string().contains("value tests"), "{e}");
    }

    #[test]
    fn equality_annotations_survive() {
        let a = Alphabet::new();
        let fd = parse_fd(&a, EXPR2).unwrap();
        assert_eq!(fd.target_equality(), EqualityType::Node);
        assert!(!fd.template().is_leaf(fd.target()));
    }

    /// Every update-class string used by the tests, examples and the
    /// benchmark workloads, with the template sketch the retired CoreXPath
    /// front end built for it. `parse_update_class` must build the same
    /// template.
    #[test]
    fn update_class_templates_are_pinned() {
        let a = Alphabet::new();
        let golden: &[(&str, &str)] = &[
            ("/session/candidate/level", "(root)\n  --[session/candidate/level]--> n1\n"),
            ("/session/candidate/exam/rank", "(root)\n  --[session/candidate/exam/rank]--> n1\n"),
            ("/session/candidate/exam/mark", "(root)\n  --[session/candidate/exam/mark]--> n1\n"),
            ("/session/candidate/exam/discipline", "(root)\n  --[session/candidate/exam/discipline]--> n1\n"),
            ("/session/candidate/exam", "(root)\n  --[session/candidate/exam]--> n1\n"),
            ("/session/candidate", "(root)\n  --[session/candidate]--> n1\n"),
            ("/session/candidate/firstJob-Year", "(root)\n  --[session/candidate/firstJob-Year]--> n1\n"),
            ("/session/candidate/toBePassed/discipline", "(root)\n  --[session/candidate/toBePassed/discipline]--> n1\n"),
            ("/session/candidate[toBePassed]/level", "(root)\n  --[session/candidate]--> n1\n    --[toBePassed]--> n2\n    --[level]--> n3\n"),
            ("/inventory/warehouse/pallet/note", "(root)\n  --[inventory/warehouse/pallet/note]--> n1\n"),
            ("/inventory/warehouse/pallet/qty", "(root)\n  --[inventory/warehouse/pallet/qty]--> n1\n"),
            ("/inventory/pallet", "(root)\n  --[inventory/pallet]--> n1\n"),
            ("/db/scratch", "(root)\n  --[db/scratch]--> n1\n"),
            ("/catalog/item/stock", "(root)\n  --[catalog/item/stock]--> n1\n"),
            ("/catalog/item/price", "(root)\n  --[catalog/item/price]--> n1\n"),
            ("/library/shelf/book/loan", "(root)\n  --[library/shelf/book/loan]--> n1\n"),
            ("/library/shelf/inventory", "(root)\n  --[library/shelf/inventory]--> n1\n"),
            ("/library/shelf/book[loan]/loan", "(root)\n  --[library/shelf/book]--> n1\n    --[loan]--> n2\n    --[loan]--> n3\n"),
            ("/library/shelf/book/section", "(root)\n  --[library/shelf/book/section]--> n1\n"),
            ("/library/shelf/book", "(root)\n  --[library/shelf/book]--> n1\n"),
            ("/archive/entry", "(root)\n  --[archive/entry]--> n1\n"),
            ("/s/i/v", "(root)\n  --[s/i/v]--> n1\n"),
            ("/s/i/note", "(root)\n  --[s/i/note]--> n1\n"),
            ("/s/a", "(root)\n  --[s/a]--> n1\n"),
            ("/a", "(root)\n  --[a]--> n1\n"),
            ("/a/b", "(root)\n  --[a/b]--> n1\n"),
            ("/a/b/c/d", "(root)\n  --[a/b/c/d]--> n1\n"),
            ("/a//b[c]/d", "(root)\n  --[a/_*/b]--> n1\n    --[c]--> n2\n    --[d]--> n3\n"),
            ("/a/b[c and d]//e[f/g]/h", "(root)\n  --[a/b]--> n1\n    --[c]--> n2\n    --[d]--> n3\n    --[_*/e]--> n4\n      --[f/g]--> n5\n      --[h]--> n6\n"),
            ("/r/a/b/c/d/e/h0", "(root)\n  --[r/a/b/c/d/e/h0]--> n1\n"),
            ("/r/a/b/c/d/e/h1", "(root)\n  --[r/a/b/c/d/e/h1]--> n1\n"),
            ("/r/a/b/c/d/e/h2", "(root)\n  --[r/a/b/c/d/e/h2]--> n1\n"),
            ("/r/a/b/c/d/e/h3", "(root)\n  --[r/a/b/c/d/e/h3]--> n1\n"),
            ("/r/a/b/c/d/e/h4", "(root)\n  --[r/a/b/c/d/e/h4]--> n1\n"),
            ("/r/a/b/c/d/e/h5", "(root)\n  --[r/a/b/c/d/e/h5]--> n1\n"),
        ];
        for &(src, sketch) in golden {
            let class = parse_update_class(&a, src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(
                class.template().sketch(),
                sketch,
                "template drift for {src}"
            );
        }
    }

    #[test]
    fn update_class_errors() {
        let a = Alphabet::new();
        // The updated node must be a template leaf.
        let e = parse_update_class(&a, "/session/candidate[level and toBePassed]").unwrap_err();
        assert!(matches!(e, Error::UpdateClass(_)), "{e}");
        // Value tests cannot reach the independence criterion.
        let e = parse_update_class(&a, "/s/c[@x = \"1\"]/d").unwrap_err();
        assert!(e.to_string().contains("value tests"), "{e}");
        // Syntax errors keep their offsets.
        let e = parse_update_class(&a, "relative/path").unwrap_err();
        assert!(
            matches!(e, Error::PatternText(ref p) if p.offset == 0),
            "{e}"
        );
    }
}
