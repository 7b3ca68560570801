//! The document-at-hand baseline the paper compares against (\[14\]-style).
//!
//! The alternative to the independence criterion is to re-verify the FD on
//! the post-update document. The paper's closing question — “estimate how
//! much time it saves to launch the independence criterion instead of
//! verifying the functional dependency again” — is answered by benchmarking
//! [`revalidate_full`] against [`crate::Analyzer::independence`] and the
//! delta-scoped [`crate::IncrementalChecker`], the production-grade
//! successor of this baseline; see
//! `crates/bench/benches/ic_vs_revalidation.rs`.
//!
//! Both functions apply the update once, on a clone, and leave the input
//! document untouched.

use regtree_runtime::{RunLimits, TraceHandle};
use regtree_xml::Document;

use crate::fd::Fd;
use crate::satisfy::{check_fd, check_fds_governed, FdOutcome, FdViolation};
use crate::update::{ApplyError, Update};

/// Applies `update` to a clone of `doc` and fully re-verifies `fd` on the
/// result: the naive baseline.
pub fn revalidate_full(
    fd: &Fd,
    update: &Update,
    doc: &Document,
) -> Result<Result<(), FdViolation>, ApplyError> {
    let after = update.apply_cloned(doc)?;
    Ok(check_fd(fd, &after))
}

/// Applies `update` once to a clone of `doc` and re-verifies a whole set of
/// FDs on the result through the FD batch checker (one shared label index,
/// scoped worker threads, unlimited limits; results in `fds` order). The
/// batch counterpart of [`revalidate_full`] for workloads that maintain
/// many dependencies over the same document.
pub fn revalidate_full_many(
    fds: &[Fd],
    update: &Update,
    doc: &Document,
) -> Result<Vec<Result<(), FdViolation>>, ApplyError> {
    let after = update.apply_cloned(doc)?;
    let report = check_fds_governed(
        fds,
        &after,
        &RunLimits::UNLIMITED,
        None,
        &TraceHandle::disabled(),
    );
    Ok(report
        .outcomes
        .into_iter()
        .map(FdOutcome::into_unlimited)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textfd::parse_fd;
    use crate::update::{update_class_from_edges, Update, UpdateOp};
    use regtree_alphabet::Alphabet;
    use regtree_xml::{parse_document, TreeSpec};

    fn fd_rank(a: &Alphabet) -> Fd {
        parse_fd(
            a,
            "/session : candidate/exam/discipline -> candidate/exam/rank",
        )
        .unwrap()
    }

    fn doc(a: &Alphabet) -> Document {
        parse_document(
            a,
            "<session>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam><level>B</level></candidate>\
             <candidate><exam><discipline>m</discipline><rank>1</rank></exam><level>A</level></candidate>\
             </session>",
        )
        .unwrap()
    }

    #[test]
    fn full_revalidation_detects_violation() {
        let a = Alphabet::new();
        let fd = fd_rank(&a);
        let d = doc(&a);
        let class = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let bad = Update::new(
            class,
            UpdateOp::Replace(TreeSpec::elem_named(&a, "rank", vec![TreeSpec::text("2")])),
        );
        // Replacing *every* rank with "2" keeps them equal: still satisfied.
        assert!(revalidate_full(&fd, &bad, &d).unwrap().is_ok());
        // A custom op changing only the first rank breaks the FD.
        let class_first = update_class_from_edges(&a, &["session/candidate/exam/rank"]).unwrap();
        let once = std::sync::atomic::AtomicBool::new(false);
        let uneven = Update::new(
            class_first,
            UpdateOp::Custom(std::sync::Arc::new(move |doc, n| {
                if !once.swap(true, std::sync::atomic::Ordering::SeqCst) {
                    let kids: Vec<_> = doc.children(n).to_vec();
                    for k in kids {
                        let _ = regtree_xml::set_value(doc, k, "99");
                    }
                }
            })),
        );
        assert!(revalidate_full(&fd, &uneven, &d).unwrap().is_err());
    }
}
