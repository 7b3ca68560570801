//! Batch work over scoped worker threads.
//!
//! Pattern evaluation is read-only over immutable documents, so batches
//! parallelize trivially: a pool of scoped threads pulls work items off an
//! atomic counter and writes results into per-item slots. No work is
//! shipped across an `unsafe` boundary — `std::thread::scope` proves the
//! borrows outlive the workers. To evaluate many patterns on many
//! documents, run [`crate::RegularTreePattern::evaluate`] through
//! [`parallel_map`] over the documents: each document builds its label
//! index ([`regtree_xml::Document::index`]) at most once.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(&[7usize], |&i| i + 1), vec![8]);
    }
}
