//! Textual functional dependencies and update classes: [`parse_fd`], the
//! one way from FD text to an [`Fd`], and [`parse_update_class`], which
//! compiles the same path language into the monadic patterns that select
//! updated nodes.
//!
//! [`parse_fd`] reads the path syntax of \[8\] — `context : p1, p2[N] -> q`
//! with simple label paths — and extends every path with the full pattern
//! language of `regtree_pattern::lang`: descendant axes (`//`), wildcards
//! (`*`), attribute/text tests, and counting predicates
//! (`[count(p) >= n]`, `[at-least n p]`). Value tests (`[p = "v"]`) are
//! rejected: FD checking runs through engines that see the template only.
//!
//! The translation is the \[8\] construction of Section 3.2, generalized:
//! condition/target paths are factorized into a trie over *steps*
//! (structural equality), unary unselected predicate-free chains compress
//! into single multi-label edges, and counting predicates expand into
//! repeated branches. On simple-path input this is exactly the paper's
//! longest-common-prefix trie (the Figure 4 shapes).

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
fn fd_from_expr(alphabet: &Alphabet, expr: &FdExpr) -> Result<Fd, Error> {
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
    use crate::pathfd::as_word;
    use crate::satisfy::satisfies;
    use regtree_xml::parse_document;

    /// expr1 / expr2 of the paper.
    const EXPR1: &str =
        "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank";
    const EXPR2: &str = "/session/candidate : exam/date, exam/discipline -> exam[N]";

    /// Every simple-path FD string the tests, examples, docs and bench
    /// corpora build, plus one instance of each generated corpus shape,
    /// with the template sketch and selected tuple of the \[8\] trie
    /// construction (Section 3.2). `parse_fd` must build exactly these.
    #[test]
    fn simple_path_fd_templates_are_pinned() {
        let a = Alphabet::new();
        let golden: &[(&str, &str, &[u32])] = &[
            ("/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank", "(root)\n  --[session]--> n1\n    --[candidate/exam]--> n2\n      --[discipline]--> n3\n      --[mark]--> n4\n      --[rank]--> n5\n", &[3, 4, 5]),
            ("/session/candidate : exam/@date, exam/discipline -> exam[N]", "(root)\n  --[session/candidate]--> n1\n    --[exam]--> n2\n      --[@date]--> n3\n      --[discipline]--> n4\n", &[3, 4, 2]),
            ("/session/candidate : exam/date, exam/discipline -> exam[N]", "(root)\n  --[session/candidate]--> n1\n    --[exam]--> n2\n      --[date]--> n3\n      --[discipline]--> n4\n", &[3, 4, 2]),
            ("/session/candidate : exam/@date -> exam[N]", "(root)\n  --[session/candidate]--> n1\n    --[exam]--> n2\n      --[@date]--> n3\n", &[3, 2]),
            ("/session : candidate/exam/discipline -> candidate/exam/rank", "(root)\n  --[session]--> n1\n    --[candidate/exam]--> n2\n      --[discipline]--> n3\n      --[rank]--> n4\n", &[3, 4]),
            ("/session : candidate/level -> candidate", "(root)\n  --[session]--> n1\n    --[candidate]--> n2\n      --[level]--> n3\n", &[3, 2]),
            ("/session : candidate/@IDN -> candidate/level", "(root)\n  --[session]--> n1\n    --[candidate]--> n2\n      --[@IDN]--> n3\n      --[level]--> n4\n", &[3, 4]),
            ("/session : -> candidate/level", "(root)\n  --[session]--> n1\n    --[candidate/level]--> n2\n", &[2]),
            ("/session/candidate : level -> firstJob-Year", "(root)\n  --[session/candidate]--> n1\n    --[level]--> n2\n    --[firstJob-Year]--> n3\n", &[2, 3]),
            ("/session/candidate : exam/discipline -> exam/rank", "(root)\n  --[session/candidate]--> n1\n    --[exam]--> n2\n      --[discipline]--> n3\n      --[rank]--> n4\n", &[3, 4]),
            ("/session/candidate : exam[N], level -> @IDN", "(root)\n  --[session/candidate]--> n1\n    --[exam]--> n2\n    --[level]--> n3\n    --[@IDN]--> n4\n", &[2, 3, 4]),
            ("/session/candidate : exam/date -> exam[N]", "(root)\n  --[session/candidate]--> n1\n    --[exam]--> n2\n      --[date]--> n3\n", &[3, 2]),
            ("/session/candidate : exam/date[N] -> exam[N]", "(root)\n  --[session/candidate]--> n1\n    --[exam]--> n2\n      --[date]--> n3\n", &[3, 2]),
            ("/catalog : item/sku -> item/price", "(root)\n  --[catalog]--> n1\n    --[item]--> n2\n      --[sku]--> n3\n      --[price]--> n4\n", &[3, 4]),
            ("/catalog : item/sku -> item/name", "(root)\n  --[catalog]--> n1\n    --[item]--> n2\n      --[sku]--> n3\n      --[name]--> n4\n", &[3, 4]),
            ("/catalog : item/sku -> item/stock", "(root)\n  --[catalog]--> n1\n    --[item]--> n2\n      --[sku]--> n3\n      --[stock]--> n4\n", &[3, 4]),
            ("/catalog : item/sku, item/name -> item/price", "(root)\n  --[catalog]--> n1\n    --[item]--> n2\n      --[sku]--> n3\n      --[name]--> n4\n      --[price]--> n5\n", &[3, 4, 5]),
            ("/catalog : item/sku/id[N] -> item/sku", "(root)\n  --[catalog]--> n1\n    --[item/sku]--> n2\n      --[id]--> n3\n", &[3, 2]),
            ("/inventory/warehouse : pallet/product -> pallet/qty", "(root)\n  --[inventory/warehouse]--> n1\n    --[pallet]--> n2\n      --[product]--> n3\n      --[qty]--> n4\n", &[3, 4]),
            ("/library : shelf/book/isbn -> shelf/book/section", "(root)\n  --[library]--> n1\n    --[shelf/book]--> n2\n      --[isbn]--> n3\n      --[section]--> n4\n", &[3, 4]),
            ("/db : rec/key -> rec/val", "(root)\n  --[db]--> n1\n    --[rec]--> n2\n      --[key]--> n3\n      --[val]--> n4\n", &[3, 4]),
            ("/r : item/key -> item/val", "(root)\n  --[r]--> n1\n    --[item]--> n2\n      --[key]--> n3\n      --[val]--> n4\n", &[3, 4]),
            ("/s : i/k -> i/v", "(root)\n  --[s]--> n1\n    --[i]--> n2\n      --[k]--> n3\n      --[v]--> n4\n", &[3, 4]),
            ("/s : c/d -> c/r", "(root)\n  --[s]--> n1\n    --[c]--> n2\n      --[d]--> n3\n      --[r]--> n4\n", &[3, 4]),
            ("/s : c/d, c/x -> c/r", "(root)\n  --[s]--> n1\n    --[c]--> n2\n      --[d]--> n3\n      --[x]--> n4\n      --[r]--> n5\n", &[3, 4, 5]),
            ("/s : c/d, c/y -> c/r", "(root)\n  --[s]--> n1\n    --[c]--> n2\n      --[d]--> n3\n      --[y]--> n4\n      --[r]--> n5\n", &[3, 4, 5]),
            ("/s : c/e/d -> c/e", "(root)\n  --[s]--> n1\n    --[c/e]--> n2\n      --[d]--> n3\n", &[3, 2]),
            ("/s : c/e/d -> c/e/r", "(root)\n  --[s]--> n1\n    --[c/e]--> n2\n      --[d]--> n3\n      --[r]--> n4\n", &[3, 4]),
            ("/s : c/e/d -> c/e/m", "(root)\n  --[s]--> n1\n    --[c/e]--> n2\n      --[d]--> n3\n      --[m]--> n4\n", &[3, 4]),
            ("/s : c/e/d -> c/e[N]", "(root)\n  --[s]--> n1\n    --[c/e]--> n2\n      --[d]--> n3\n", &[3, 2]),
            ("/s : c/e/d[N] -> c/e", "(root)\n  --[s]--> n1\n    --[c/e]--> n2\n      --[d]--> n3\n", &[3, 2]),
            ("/s : c/e[N] -> c/e/m", "(root)\n  --[s]--> n1\n    --[c/e]--> n2\n      --[m]--> n3\n", &[2, 3]),
            ("/s : c/e/d, c/e/m -> c/e/r", "(root)\n  --[s]--> n1\n    --[c/e]--> n2\n      --[d]--> n3\n      --[m]--> n4\n      --[r]--> n5\n", &[3, 4, 5]),
            ("/s : c/e/d, c/e/m, c/x -> c/e/r", "(root)\n  --[s]--> n1\n    --[c]--> n2\n      --[e]--> n3\n        --[d]--> n4\n        --[m]--> n5\n        --[r]--> n6\n      --[x]--> n7\n", &[4, 5, 7, 6]),
            ("/s : c/e/d, c/e/m, c/n -> c/e/r", "(root)\n  --[s]--> n1\n    --[c]--> n2\n      --[e]--> n3\n        --[d]--> n4\n        --[m]--> n5\n        --[r]--> n6\n      --[n]--> n7\n", &[4, 5, 7, 6]),
            ("/s : a -> b", "(root)\n  --[s]--> n1\n    --[a]--> n2\n    --[b]--> n3\n", &[2, 3]),
            ("/s : -> x", "(root)\n  --[s]--> n1\n    --[x]--> n2\n", &[2]),
            ("/c : -> x", "(root)\n  --[c]--> n1\n    --[x]--> n2\n", &[2]),
            ("/c : -> t", "(root)\n  --[c]--> n1\n    --[t]--> n2\n", &[2]),
            ("/a : b/c -> b/d", "(root)\n  --[a]--> n1\n    --[b]--> n2\n      --[c]--> n3\n      --[d]--> n4\n", &[3, 4]),
            ("/r : a -> b", "(root)\n  --[r]--> n1\n    --[a]--> n2\n    --[b]--> n3\n", &[2, 3]),
            ("/r : a -> c", "(root)\n  --[r]--> n1\n    --[a]--> n2\n    --[c]--> n3\n", &[2, 3]),
            ("/r : b -> c", "(root)\n  --[r]--> n1\n    --[b]--> n2\n    --[c]--> n3\n", &[2, 3]),
            ("/r : a/b -> a", "(root)\n  --[r]--> n1\n    --[a]--> n2\n      --[b]--> n3\n", &[3, 2]),
            ("/r : a/b[N] -> a", "(root)\n  --[r]--> n1\n    --[a]--> n2\n      --[b]--> n3\n", &[3, 2]),
            ("/r : a/b[N] -> a/c", "(root)\n  --[r]--> n1\n    --[a]--> n2\n      --[b]--> n3\n      --[c]--> n4\n", &[3, 4]),
            ("/r : a/b[N] -> a/b/d", "(root)\n  --[r]--> n1\n    --[a/b]--> n2\n      --[d]--> n3\n", &[2, 3]),
            ("/r : a/b/c -> a/b/d", "(root)\n  --[r]--> n1\n    --[a/b]--> n2\n      --[c]--> n3\n      --[d]--> n4\n", &[3, 4]),
            ("/r : a/b/c -> a/b[N]", "(root)\n  --[r]--> n1\n    --[a/b]--> n2\n      --[c]--> n3\n", &[3, 2]),
            ("/r : a/b/x -> a/c", "(root)\n  --[r]--> n1\n    --[a]--> n2\n      --[b/x]--> n3\n      --[c]--> n4\n", &[3, 4]),
            ("/r : a/b/x[N] -> a/c", "(root)\n  --[r]--> n1\n    --[a]--> n2\n      --[b/x]--> n3\n      --[c]--> n4\n", &[3, 4]),
            ("/r : a, a/b -> a/b/c", "(root)\n  --[r]--> n1\n    --[a]--> n2\n      --[b]--> n3\n        --[c]--> n4\n", &[2, 3, 4]),
            ("/r/w : p -> q", "(root)\n  --[r/w]--> n1\n    --[p]--> n2\n    --[q]--> n3\n", &[2, 3]),
            ("/r : w/p -> w/q", "(root)\n  --[r]--> n1\n    --[w]--> n2\n      --[p]--> n3\n      --[q]--> n4\n", &[3, 4]),
            ("/ctx : p0/v, p1/v -> t/v", "(root)\n  --[ctx]--> n1\n    --[p0/v]--> n2\n    --[p1/v]--> n3\n    --[t/v]--> n4\n", &[2, 3, 4]),
            ("/db : g0/d -> g0[N]", "(root)\n  --[db]--> n1\n    --[g0]--> n2\n      --[d]--> n3\n", &[3, 2]),
            ("/db : g0/d -> g0/r", "(root)\n  --[db]--> n1\n    --[g0]--> n2\n      --[d]--> n3\n      --[r]--> n4\n", &[3, 4]),
            ("/db : g0/d, g0/x -> g0/r", "(root)\n  --[db]--> n1\n    --[g0]--> n2\n      --[d]--> n3\n      --[x]--> n4\n      --[r]--> n5\n", &[3, 4, 5]),
            ("/db : g0/c/e -> g0/c[N]", "(root)\n  --[db]--> n1\n    --[g0/c]--> n2\n      --[e]--> n3\n", &[3, 2]),
            ("/db : g0/c[N] -> g0/c/f", "(root)\n  --[db]--> n1\n    --[g0/c]--> n2\n      --[f]--> n3\n", &[2, 3]),
            ("/db : g0/c/e -> g0/c/f", "(root)\n  --[db]--> n1\n    --[g0/c]--> n2\n      --[e]--> n3\n      --[f]--> n4\n", &[3, 4]),
            ("/r : a/b, c[N] -> a/c", "(root)\n  --[r]--> n1\n    --[a]--> n2\n      --[b]--> n3\n      --[c]--> n4\n    --[c]--> n5\n", &[3, 5, 4]),
            ("/r : a/b/c/d/e/x0, a/b/c/d/e/x1 -> a/b/c/d/e/g0", "(root)\n  --[r]--> n1\n    --[a/b/c/d/e]--> n2\n      --[x0]--> n3\n      --[x1]--> n4\n      --[g0]--> n5\n", &[3, 4, 5]),
        ];
        for &(src, sketch, selected) in golden {
            let fd = parse_fd(&a, src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(fd.template().sketch(), sketch, "template drift for {src}");
            let got: Vec<u32> = fd.pattern().selected().iter().map(|n| n.0).collect();
            assert_eq!(got, selected, "selection drift for {src}");
            assert_eq!(fd.context(), TemplateNodeId(1), "context drift for {src}");
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
            "/c : a* -> b",
            "/r : a/ -> t",
            "/r : /a -> t",
            "/r/ : a -> t",
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
        // The target `exam` is a prefix of both condition paths, so it is
        // an *internal* selected node (Figure 4's FD2).
        assert!(!fd.template().is_leaf(fd.target()));
    }

    #[test]
    fn common_prefixes_factorize_into_one_node() {
        let a = Alphabet::new();
        let fd = parse_fd(&a, EXPR1).unwrap();
        // Figure 4's FD1: root → session (context) → one candidate/exam
        // node → the three selected leaves discipline/mark/rank.
        assert_eq!(fd.template().len(), 6);
        assert_eq!(fd.conditions().len(), 2);
        let shared = fd.template().children(fd.context())[0];
        assert_eq!(
            as_word(fd.template().edge_regex(shared).unwrap()).unwrap(),
            vec![a.intern("candidate"), a.intern("exam")]
        );
    }

    #[test]
    fn fd1_checks_documents() {
        let a = Alphabet::new();
        let fd = parse_fd(&a, EXPR1).unwrap();
        let good = parse_document(
            &a,
            "<session>\
             <candidate><exam><discipline>m</discipline><mark>15</mark><rank>1</rank></exam></candidate>\
             <candidate><exam><discipline>m</discipline><mark>15</mark><rank>1</rank></exam></candidate>\
             </session>",
        )
        .unwrap();
        assert!(satisfies(&fd, &good));
        let bad = parse_document(
            &a,
            "<session>\
             <candidate><exam><discipline>m</discipline><mark>15</mark><rank>1</rank></exam></candidate>\
             <candidate><exam><discipline>m</discipline><mark>15</mark><rank>2</rank></exam></candidate>\
             </session>",
        )
        .unwrap();
        assert!(!satisfies(&fd, &bad));
    }

    #[test]
    fn zero_conditions_is_a_constant_fd() {
        let a = Alphabet::new();
        // \[8\] allows constant dependencies: the target must be the same
        // in every trace under the context.
        let fd = parse_fd(&a, "/c : -> x").unwrap();
        assert!(fd.conditions().is_empty());
        let same = parse_document(&a, "<c><x>1</x><x>1</x></c>").unwrap();
        assert!(satisfies(&fd, &same));
        let differ = parse_document(&a, "<c><x>1</x><x>2</x></c>").unwrap();
        assert!(!satisfies(&fd, &differ));
    }

    #[test]
    fn duplicate_paths_error_names_its_kind_once() {
        let a = Alphabet::new();
        let e = parse_fd(&a, "/r : a -> a[N]").unwrap_err();
        assert!(matches!(e, Error::PathFd(_)), "{e:?}");
        assert_eq!(e.to_string(), "path FD: duplicate condition/target paths");
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
