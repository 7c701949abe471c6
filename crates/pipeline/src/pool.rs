//! A std-only work-stealing thread pool for batch jobs.
//!
//! No external dependencies (the registry is offline), no unsafe: each
//! worker owns a deque of job indices; when its deque runs dry it steals
//! from the *back* of a sibling's deque (the classic Blumofe–Leiserson
//! discipline — owners pop LIFO-adjacent work from the front, thieves
//! take the largest remaining tail). Results flow back over an mpsc
//! channel tagged with the job index, so the output order is always the
//! input order regardless of scheduling — parallel runs are
//! byte-identical to sequential runs.
//!
//! Jobs are never re-queued, so a worker may exit as soon as every deque
//! is empty: whatever is still in flight belongs to another worker.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Map `f` over `items` on `workers` threads, preserving input order.
///
/// `workers` is clamped to `[1, items.len()]`; with one worker the map
/// runs inline on the calling thread (no spawn overhead, identical
/// semantics).
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Contiguous chunks: worker w starts on its own slice of the batch,
    // so steals only happen once the tail of the batch is reached.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * items.len() / workers;
            let hi = (w + 1) * items.len() / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();

    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();

    thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            scope.spawn(move || {
                while let Some(i) = next_job(queues, w) {
                    // A send can only fail if the receiver was dropped,
                    // which cannot happen while this scope is alive.
                    let _ = tx.send((i, f(i, &items[i])));
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });

    out.into_iter()
        .map(|r| r.expect("worker completed every job"))
        .collect()
}

/// Queue locks are held only to push or pop an index, never while a job
/// runs, so a job's panic cannot poison them.
const LOCK: &str = "queue lock poisoned outside any job";

/// Pop from our own queue, else steal from the busiest sibling. Another
/// thief may drain the chosen sibling between sizing it and popping it,
/// so the steal retries until every sibling is empty; each failed pop
/// means some job was taken, so the loop ends.
fn next_job(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    if let Some(i) = queues[own].lock().expect(LOCK).pop_front() {
        return Some(i);
    }
    loop {
        // Steal from the back of the longest non-empty sibling queue.
        let victim = (0..queues.len())
            .filter(|&w| w != own)
            .map(|w| (queues[w].lock().expect(LOCK).len(), w))
            .filter(|&(len, _)| len > 0)
            .max_by_key(|&(len, _)| len)?
            .1;
        if let Some(i) = queues[victim].lock().expect(LOCK).pop_back() {
            return Some(i);
        }
    }
}

/// The worker count to use when the caller passes 0 ("auto").
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let doubled = parallel_map(4, &items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_sequential() {
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(
            parallel_map(1, &items, |i, &x| (i as u64, x)),
            items
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as u64, x))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let n = 200;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        parallel_map(8, &items, |_, &i| {
            counters[i].fetch_add(1, Ordering::SeqCst)
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn many_workers_with_uneven_costs_run_every_job_once() {
        let n = 300;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        // Every 7th job is far slower, so queues drain unevenly and the
        // workers race each other for the last jobs of a sibling queue.
        let out = parallel_map(12, &items, |_, &i| {
            let spins = if i % 7 == 0 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
            }
            counters[i].fetch_add(1, Ordering::SeqCst);
            (i, acc)
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert!(out.iter().enumerate().all(|(k, &(i, _))| k == i));
    }

    #[test]
    fn uses_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        parallel_map(4, &items, |_, _| {
            seen.lock().unwrap().insert(thread::current().id());
            // Give the scheduler a chance to overlap workers.
            thread::yield_now();
        });
        // All four workers existed; on a single-core box the scheduler may
        // still have run everything on few of them, so only assert > 0.
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn empty_batch_is_fine() {
        let items: Vec<u64> = Vec::new();
        assert!(parallel_map(4, &items, |_, &x| x).is_empty());
    }
}
