//! Batch evaluation over scoped worker threads.
//!
//! Pattern evaluation is read-only over immutable documents, so batches
//! parallelize trivially: a pool of scoped threads pulls work items off an
//! atomic counter and writes results into per-item slots. No work is
//! shipped across an `unsafe` boundary — `std::thread::scope` proves the
//! borrows outlive the workers.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use regtree_xml::{Document, NodeId};

use crate::eval::evaluate_unlimited;
use crate::pattern::RegularTreePattern;

/// Applies `f` to every item on a scoped thread pool, preserving order.
///
/// Uses one worker per available core (capped at the item count); with one
/// item or one core it degenerates to a sequential map, so callers never
/// pay thread spawn-up for trivial batches.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("worker filled every slot"))
        .collect()
}

/// Evaluates every pattern on every document, in parallel over documents.
///
/// Returns `result[d][p]` = rows selected by `patterns[p]` on `docs[d]`.
/// Every pattern on a document reads that document's own label index
/// ([`Document::index`]), built at most once.
pub fn evaluate_many(
    patterns: &[RegularTreePattern],
    docs: &[Document],
) -> Vec<Vec<Vec<Vec<NodeId>>>> {
    parallel_map(docs, |doc| {
        patterns
            .iter()
            .map(|p| evaluate_unlimited(p, doc))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use regtree_alphabet::Alphabet;
    use regtree_xml::parse_document;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(&[7usize], |&i| i + 1), vec![8]);
    }

    #[test]
    fn evaluate_many_matches_sequential() {
        let a = Alphabet::new();
        let docs: Vec<Document> = [
            "<session><candidate><exam/></candidate></session>",
            "<session><candidate><exam/><exam/></candidate></session>",
            "<other/>",
        ]
        .iter()
        .map(|s| parse_document(&a, s).unwrap())
        .collect();
        let mut t = Template::new(a.clone());
        let e = t.add_child_str(t.root(), "session/candidate/exam").unwrap();
        let p1 = RegularTreePattern::monadic(t, e).unwrap();
        let mut t2 = Template::new(a);
        let c = t2.add_child_str(t2.root(), "session/candidate").unwrap();
        let p2 = RegularTreePattern::monadic(t2, c).unwrap();
        let patterns = vec![p1, p2];
        let batch = evaluate_many(&patterns, &docs);
        assert_eq!(batch.len(), docs.len());
        for (d, doc) in docs.iter().enumerate() {
            for (p, pat) in patterns.iter().enumerate() {
                assert_eq!(batch[d][p], pat.evaluate(doc), "doc {d}, pattern {p}");
            }
        }
    }
}
