//! The PSPACE-hardness reduction of Proposition 1.
//!
//! The paper reduces regular-expression inclusion (`η ⊆ η'`?) to update–FD
//! independence: it builds a pattern pair `(FD, U)` such that `fd = (FD, c)`
//! is impacted by `U` **iff** `η ⊄ η'`. Figures 7–8 sketch the gadgets; the
//! figures' graphics are not in the text, so this module reconstructs them
//! faithfully to the proof narrative (see DESIGN.md E7):
//!
//! * `FD` (context `c` = the `A` node): each `B` branch carries an `F`
//!   condition leaf, a `G` target leaf, and a structural requirement — a
//!   `C`-child whose downward word is in `η'` terminated by `#`;
//! * `U` selects, inside a `B` branch that owns a *witness* `C`-subtree
//!   spelling `η·#`, a second (later) bare `C` child — the update site;
//! * the Figure-8 document has two `B` branches with value-equal `F`s and
//!   differing `G`s; branch 1 already FD-traces via a word of `L(η')`;
//!   branch 2 only has an `η`-witness (`w ∈ L(η) \ L(η')`) plus an empty
//!   `C`, so it does not trace — until an update grafts a `w'·#` path
//!   (`w' ∈ L(η')`) under the empty `C`, completing the second trace and
//!   violating the FD.
//!
//! When `η ⊆ η'` no such `w` exists and [`build_reduction`] returns `None`;
//! conversely a non-inclusion witness always yields a concrete impact,
//! which the tests verify end-to-end.

use rand::Rng;

use regtree_alphabet::{Alphabet, Symbol};
use regtree_automata::{Nfa, Regex};
use regtree_core::{Fd, Update, UpdateClass, UpdateOp};
use regtree_pattern::{RegularTreePattern, Template};
use regtree_xml::{Document, TreeSpec};

use crate::inclusion;
use crate::sample::LangSampler;

/// A fully materialized reduction instance.
#[derive(Clone, Debug)]
pub struct ReductionInstance {
    /// The functional dependency `(FD, c)`.
    pub fd: Fd,
    /// The update class `U`.
    pub class: UpdateClass,
    /// The Figure-8 document: satisfies `fd`, updated by `U`.
    pub doc: Document,
    /// A concrete update `q ∈ U` whose application violates `fd`.
    pub update: Update,
    /// The non-inclusion witness `w ∈ L(η) \ L(η')`.
    pub witness_word: Vec<Symbol>,
}

/// Builds the `(FD, U)` gadget pair for `(η, η')`. Independent of any
/// document; usable for measuring the IC on hardness instances.
pub fn build_patterns(alphabet: &Alphabet, eta: &Regex, eta_prime: &Regex) -> (Fd, UpdateClass) {
    let c_lbl = Regex::label(alphabet, "C");
    let hash = Regex::label(alphabet, "#");

    // FD: context A; one B branch with F (condition), G (target) and the
    // structural C/η'/# leaf.
    let mut t = Template::new(alphabet.clone());
    let ctx = t.add_child_str(t.root(), "A").expect("proper");
    let b = t.add_child_str(ctx, "B").expect("proper");
    let f = t.add_child_str(b, "F").expect("proper");
    let g = t.add_child_str(b, "G").expect("proper");
    let _h = t
        .add_child(
            b,
            Regex::seq([c_lbl.clone(), eta_prime.clone(), hash.clone()]),
        )
        .expect("η' is proper in the gadget");
    let pattern = RegularTreePattern::new(t, vec![f, g]).expect("selected in template");
    let fd = Fd::with_default_equality(pattern, ctx).expect("context dominates");

    // U: inside an A/B branch owning a C/η/# witness subtree, select a
    // later bare C child (a leaf of T_U, as the criterion requires).
    let mut tu = Template::new(alphabet.clone());
    let x = tu.add_child_str(tu.root(), "A").expect("proper");
    let y = tu.add_child_str(x, "B").expect("proper");
    let _wit = tu
        .add_child(y, Regex::seq([c_lbl.clone(), eta.clone(), hash]))
        .expect("η is proper in the gadget");
    let sel = tu.add_child(y, c_lbl).expect("proper");
    let class = UpdateClass::new(RegularTreePattern::monadic(tu, sel).expect("valid"))
        .expect("selected node is a leaf");

    (fd, class)
}

/// Chains a word of labels into a descending element spine ending with `#`.
fn chain_spec(alphabet: &Alphabet, word: &[Symbol]) -> TreeSpec {
    let hash = TreeSpec::elem(alphabet.intern("#"), vec![]);
    word.iter()
        .rev()
        .fold(hash, |acc, &s| TreeSpec::elem(s, vec![acc]))
}

/// Builds the complete Figure-8 instance, or `None` when `η ⊆ η'`
/// (no impact exists, per Proposition 1).
pub fn build_reduction<R: Rng>(
    alphabet: &Alphabet,
    eta: &Regex,
    eta_prime: &Regex,
    rng: &mut R,
) -> Option<ReductionInstance> {
    // w ∈ L(η) \ L(η'): the non-inclusion witness.
    let w: Vec<Symbol> = match inclusion::regex_included(eta, eta_prime, &[]) {
        Ok(()) => return None,
        Err(word) => word.into_iter().map(Symbol).collect(),
    };
    // u' ∈ L(η') for branch 1's witness, w' ∈ L(η') for the grafted path.
    let sampler = LangSampler::new(&Nfa::from_regex(eta_prime), &[]);
    let u_prime: Vec<Symbol> = sampler.sample(rng, 3)?.into_iter().map(Symbol).collect();
    let w_prime: Vec<Symbol> = sampler.sample(rng, 3)?.into_iter().map(Symbol).collect();

    let (fd, class) = build_patterns(alphabet, eta, eta_prime);

    // The Figure-8 document.
    let branch1 = TreeSpec::elem_named(
        alphabet,
        "B",
        vec![
            TreeSpec::elem_named(alphabet, "F", vec![TreeSpec::text("v")]),
            TreeSpec::elem_named(alphabet, "G", vec![TreeSpec::text("1")]),
            TreeSpec::elem_named(alphabet, "C", vec![chain_spec(alphabet, &u_prime)]),
        ],
    );
    let branch2 = TreeSpec::elem_named(
        alphabet,
        "B",
        vec![
            TreeSpec::elem_named(alphabet, "F", vec![TreeSpec::text("v")]),
            TreeSpec::elem_named(alphabet, "G", vec![TreeSpec::text("2")]),
            TreeSpec::elem_named(alphabet, "C", vec![chain_spec(alphabet, &w)]),
            TreeSpec::elem_named(alphabet, "C", vec![]),
        ],
    );
    let doc = regtree_xml::document_from_specs(
        alphabet.clone(),
        &[TreeSpec::elem_named(alphabet, "A", vec![branch1, branch2])],
    );

    // q: graft w'·# under the selected (empty) C node.
    let update = Update::new(
        class.clone(),
        UpdateOp::AppendChild(chain_spec(alphabet, &w_prime)),
    );

    Some(ReductionInstance {
        fd,
        class,
        doc,
        update,
        witness_word: w,
    })
}

/// The gadget alphabet of the proof (`Σ = {A, B, C, D, F, G, #}`).
pub fn gadget_alphabet() -> Alphabet {
    Alphabet::with_labels(["A", "B", "C", "D", "F", "G", "#"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use regtree_automata::parse_regex;
    use regtree_core::satisfies;

    fn regex(a: &Alphabet, src: &str) -> Regex {
        parse_regex(a, src).unwrap()
    }

    #[test]
    fn non_inclusion_yields_concrete_impact() {
        let a = gadget_alphabet();
        let mut rng = SmallRng::seed_from_u64(1);
        // η = D+, η' = D/D+ : ⊆ fails (witness "D").
        let inst = build_reduction(&a, &regex(&a, "D+"), &regex(&a, "D/D+"), &mut rng).unwrap();
        assert!(
            satisfies(&inst.fd, &inst.doc),
            "Figure-8 doc must satisfy fd"
        );
        let after = inst.update.apply_cloned(&inst.doc).unwrap();
        assert!(
            !satisfies(&inst.fd, &after),
            "update must violate fd:\n{}",
            regtree_xml::to_xml(&after)
        );
        assert_eq!(inst.witness_word.len(), 1);
    }

    #[test]
    fn inclusion_yields_no_instance() {
        let a = gadget_alphabet();
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(build_reduction(&a, &regex(&a, "D"), &regex(&a, "D|B"), &mut rng).is_none());
        assert!(
            build_reduction(&a, &regex(&a, "(B/D)+"), &regex(&a, "(B|D)+"), &mut rng).is_none()
        );
    }

    #[test]
    fn several_regex_pairs_behave_per_proposition1() {
        let a = gadget_alphabet();
        let mut rng = SmallRng::seed_from_u64(3);
        let cases = [
            ("B*/D", "B*/D", true),
            ("B/B", "B+", true),
            ("B+", "B/B", false),
            ("(B|D)+", "B+ | D+", false),
            ("D/B?", "D/B", false),
        ];
        for (eta, etap, included) in cases {
            let inst = build_reduction(&a, &regex(&a, eta), &regex(&a, etap), &mut rng);
            assert_eq!(inst.is_none(), included, "{eta} vs {etap}");
            if let Some(inst) = inst {
                assert!(satisfies(&inst.fd, &inst.doc), "{eta} vs {etap}: pre");
                let after = inst.update.apply_cloned(&inst.doc).unwrap();
                assert!(!satisfies(&inst.fd, &after), "{eta} vs {etap}: post");
            }
        }
    }

    #[test]
    fn update_class_selects_exactly_the_empty_c() {
        let a = gadget_alphabet();
        let mut rng = SmallRng::seed_from_u64(4);
        let inst = build_reduction(&a, &regex(&a, "D"), &regex(&a, "B"), &mut rng).unwrap();
        let nodes = inst.class.selected_nodes(&inst.doc);
        assert_eq!(nodes.len(), 1);
        assert_eq!(inst.doc.label_name(nodes[0]).as_ref(), "C");
        assert!(inst.doc.children(nodes[0]).is_empty());
    }

    #[test]
    fn ic_flags_the_reduction_patterns() {
        // The IC cannot prove independence on reduction instances with
        // η ⊄ η' (there IS an impact), so it must return Unknown.
        let a = gadget_alphabet();
        let (fd, class) = build_patterns(&a, &regex(&a, "D"), &regex(&a, "B"));
        let analysis = regtree_core::Analyzer::builder()
            .build()
            .independence(&fd, &class);
        assert!(!analysis.verdict.is_independent());
    }
}
