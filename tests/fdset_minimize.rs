//! Soundness of FD-set minimization and of matrix pruning, driven by
//! random instances.
//!
//! 1. **Minimize soundness** (≥300 cases): for random path-FD sets and
//!    random documents, whenever a document satisfies every *kept* FD of
//!    [`FdSet::minimize`], it satisfies every *dropped* FD too — i.e. the
//!    implication closure never drops an FD the core does not entail. The
//!    documents are built independently of the FDs (shared-prefix tries
//!    over the same label pool), so premise-vacuous cases — the classic
//!    trap for naive transitivity — arise constantly.
//! 2. **Pruned/unpruned matrix parity**: `Analyzer::matrix_pruned` and
//!    `Analyzer::matrix` run one driver, so every cell of a kept row is
//!    exactly the unpruned cell — verdict, exhausted resource, explored
//!    states and product size. Implied rows are excluded from recheck
//!    reports and never claimed independent.

use proptest::prelude::*;
use regtree_alphabet::Alphabet;
use regtree_core::{
    parse_fd, satisfies, update_class_from_edges, Analyzer, CellProvenance, Fd, FdSet, RunLimits,
    UpdateClass,
};
use regtree_xml::{parse_document, Document};

const LABELS: [&str; 3] = ["a", "b", "c"];

fn alpha() -> Alphabet {
    Alphabet::with_labels(["r", "a", "b", "c"])
}

/// A path of 1–2 labels below the context, rendered as `a/b`.
fn arb_path() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..LABELS.len(), 1..=2)
}

fn path_str(p: &[usize], node_eq: bool) -> String {
    let mut s = p.iter().map(|&i| LABELS[i]).collect::<Vec<_>>().join("/");
    if node_eq {
        s.push_str("[N]");
    }
    s
}

/// `[N]` on roughly one path in five.
fn arb_node_eq() -> impl Strategy<Value = bool> {
    (0..5u8).prop_map(|v| v == 0)
}

/// A random FD in the path formalism: context `/r`, 1–2 conditions and a
/// target drawn from a deliberately tiny path pool (so augmentation /
/// containment pairs are common), each with a ~20% chance of `[N]`.
fn arb_path_fd() -> impl Strategy<Value = Fd> {
    (
        prop::collection::vec((arb_path(), arb_node_eq()), 2..=3),
        arb_node_eq(),
    )
        .prop_map(|(mut entries, tn)| {
            let (mut target, _) = entries.pop().expect("at least two entries");
            // `to_fd` rejects duplicate paths: dedup conditions and grow the
            // target until distinct, so every draw yields a valid FD.
            let mut conds: Vec<(Vec<usize>, bool)> = Vec::new();
            for (p, n) in entries {
                if !conds.iter().any(|(q, _)| *q == p) {
                    conds.push((p, n));
                }
            }
            while conds.iter().any(|(q, _)| *q == target) {
                target.push(target.len() % LABELS.len());
            }
            let cond_strs: Vec<String> = conds.iter().map(|(p, n)| path_str(p, *n)).collect();
            let src = format!("/r : {} -> {}", cond_strs.join(", "), path_str(&target, tn));
            let a = alpha();
            parse_fd(&a, &src).expect("generated path FD parses")
        })
}

fn arb_fd_set() -> impl Strategy<Value = Vec<Fd>> {
    prop::collection::vec(arb_path_fd(), 3..=6)
}

/// Document recipe: each entry inserts a root-to-leaf path into a tree,
/// where each `bit` decides whether to share an existing equally-labeled
/// child or to fork a fresh sibling. Values come from a two-element pool so
/// both satisfaction and violation of value agreement are common.
type DocRecipe = Vec<(Vec<usize>, usize, Vec<bool>)>;

fn arb_doc_recipe() -> impl Strategy<Value = DocRecipe> {
    prop::collection::vec(
        (
            prop::collection::vec(0..LABELS.len(), 1..=3),
            0..2usize,
            prop::collection::vec(any::<bool>(), 3),
        ),
        1..8,
    )
}

struct TreeNode {
    label: String,
    value: Option<usize>,
    children: Vec<TreeNode>,
}

impl TreeNode {
    fn new(label: &str) -> TreeNode {
        TreeNode {
            label: label.to_string(),
            value: None,
            children: Vec::new(),
        }
    }

    fn insert(&mut self, path: &[usize], value: usize, bits: &[bool]) {
        let Some(&head) = path.first() else {
            self.value = Some(value);
            return;
        };
        let label = LABELS[head];
        let share = bits.first().copied().unwrap_or(true);
        let rest_bits = bits.get(1..).unwrap_or(&[]);
        if share {
            if let Some(child) = self.children.iter_mut().find(|c| c.label == label) {
                child.insert(&path[1..], value, rest_bits);
                return;
            }
        }
        self.children.push(TreeNode::new(label));
        let child = self.children.last_mut().expect("just pushed");
        child.insert(&path[1..], value, rest_bits);
    }

    fn to_xml(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.label);
        out.push('>');
        if self.children.is_empty() {
            if let Some(v) = self.value {
                out.push_str(&format!("v{v}"));
            }
        } else {
            for c in &self.children {
                c.to_xml(out);
            }
        }
        out.push_str("</");
        out.push_str(&self.label);
        out.push('>');
    }
}

fn build_doc(a: &Alphabet, recipe: &DocRecipe) -> Document {
    let mut root = TreeNode::new("r");
    for (path, value, bits) in recipe {
        root.insert(path, *value, bits);
    }
    let mut xml = String::new();
    root.to_xml(&mut xml);
    parse_document(a, &xml).expect("generated XML parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Every FD dropped by `minimize()` is satisfied by every document
    /// that satisfies the kept core.
    #[test]
    fn minimize_is_sound(
        fds in arb_fd_set(),
        recipes in prop::collection::vec(arb_doc_recipe(), 1..4),
    ) {
        let a = alpha();
        let mut set = FdSet::new();
        for (i, fd) in fds.iter().enumerate() {
            set.push(format!("fd{i}"), fd.clone());
        }
        let min = set.minimize(&RunLimits::UNLIMITED);
        prop_assert!(min.is_complete());
        prop_assert_eq!(min.kept.len() + min.dropped.len(), fds.len());
        for recipe in &recipes {
            let doc = build_doc(&a, recipe);
            if min.kept.iter().all(|&i| satisfies(&fds[i], &doc)) {
                for d in &min.dropped {
                    prop_assert!(
                        satisfies(&fds[d.index], &doc),
                        "dropped FD {} (implied by {:?}) violated by a \
                         document satisfying the kept core",
                        d.index,
                        d.by,
                    );
                }
            }
        }
        // Provenance refers to kept FDs only.
        for d in &min.dropped {
            for &j in &d.by {
                prop_assert!(min.kept.contains(&j));
            }
        }
    }
}

/// A random monadic update class reaching 1–3 hops below the root.
fn arb_class() -> impl Strategy<Value = UpdateClass> {
    prop::collection::vec(0..LABELS.len(), 1..=3).prop_map(|hops| {
        let a = alpha();
        let edge = format!(
            "r/{}",
            hops.iter()
                .map(|&i| LABELS[i])
                .collect::<Vec<_>>()
                .join("/")
        );
        update_class_from_edges(&a, &[edge.as_str()]).expect("valid edge path")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Every kept-row cell of the pruned matrix equals the unpruned cell.
    #[test]
    fn pruned_matrix_matches_unpruned(
        fds in arb_fd_set(),
        classes in prop::collection::vec(arb_class(), 1..=3),
    ) {
        let named_fds: Vec<(String, &Fd)> = fds
            .iter()
            .enumerate()
            .map(|(i, fd)| (format!("fd{i}"), fd))
            .collect();
        let fd_refs: Vec<(&str, &Fd)> =
            named_fds.iter().map(|(n, fd)| (n.as_str(), *fd)).collect();
        let named_classes: Vec<(String, &UpdateClass)> = classes
            .iter()
            .enumerate()
            .map(|(j, c)| (format!("u{j}"), c))
            .collect();
        let class_refs: Vec<(&str, &UpdateClass)> = named_classes
            .iter()
            .map(|(n, c)| (n.as_str(), *c))
            .collect();

        let an = Analyzer::builder().build();
        let plain = an.matrix(&fd_refs, &class_refs);
        let pruned = an.matrix_pruned(&fd_refs, &class_refs);
        prop_assert_eq!(plain.cells.len(), pruned.cells.len());

        for (p, q) in plain.cells.iter().zip(&pruned.cells) {
            prop_assert_eq!((p.fd, p.class), (q.fd, q.class));
            if let CellProvenance::ImpliedRow { .. } = q.provenance {
                // Implied rows carry no verdict; they must not be listed
                // for recheck (their impliers are), but must not be
                // claimed independent either.
                prop_assert!(!q.verdict.is_independent());
                prop_assert!(!pruned.fds_to_recheck(q.class).contains(&q.fd));
                continue;
            }
            prop_assert_eq!(
                (
                    p.verdict.is_independent(),
                    p.verdict.exhausted(),
                    p.explored_states,
                    p.automaton_size,
                ),
                (
                    q.verdict.is_independent(),
                    q.verdict.exhausted(),
                    q.explored_states,
                    q.automaton_size,
                ),
                "cell ({}, {}) diverged ({:?})",
                p.fd,
                p.class,
                q.provenance,
            );
        }
    }
}
