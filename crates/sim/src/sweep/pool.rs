//! A minimal fixed thread pool built on `std::thread::scope`.
//!
//! The registry is unreachable in this workspace (no rayon), so this is the
//! smallest std-only fan-out that preserves determinism: results come back
//! in submission order regardless of worker count or OS scheduling, which
//! is what lets `jobs = 1` and `jobs = N` sweeps be bit-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Per-task cell: holds the closure until a worker claims it, then the
/// result until the pool drains.
enum Slot<T, F> {
    Empty,
    Task(F),
    Done(T),
}

/// Runs `tasks` on up to `workers` OS threads and returns the results in
/// submission order.
///
/// Work is claimed through an atomic cursor, so heterogeneous job lengths
/// load-balance dynamically; each result lands back in its submission
/// slot, so ordering never depends on completion time. `workers <= 1` (or
/// a single task) degenerates to a serial loop with no threads spawned.
///
/// A panicking task aborts the whole batch (the scope re-raises the panic
/// once all workers have joined) — simulation jobs are deterministic, so a
/// panic is a programming error, not a per-cell condition to report.
pub fn run_ordered<T, F>(tasks: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if workers <= 1 || n <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let slots: Vec<Mutex<Slot<T, F>>> = tasks
        .into_iter()
        .map(|f| Mutex::new(Slot::Task(f)))
        .collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = {
                    let mut slot = slots[i].lock().expect("pool slot poisoned");
                    match std::mem::replace(&mut *slot, Slot::Empty) {
                        Slot::Task(f) => f,
                        Slot::Empty | Slot::Done(_) => unreachable!("slot {i} claimed twice"),
                    }
                };
                let result = task();
                *slots[i].lock().expect("pool slot poisoned") = Slot::Done(result);
            });
        }
    });
    slots
        .into_iter()
        .map(
            |slot| match slot.into_inner().expect("pool slot poisoned") {
                Slot::Done(t) => t,
                Slot::Empty | Slot::Task(_) => unreachable!("task not run"),
            },
        )
        .collect()
}

/// A sensible default worker count: the host's available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        // Tasks deliberately finish out of order (later tasks are cheaper).
        let tasks: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    let mut acc = 0u64;
                    for k in 0..(32 - i) * 1000 {
                        acc = acc.wrapping_add(k ^ i);
                    }
                    (i, acc)
                }
            })
            .collect();
        let serial: Vec<_> = (0..32u64)
            .map(|i| {
                let mut acc = 0u64;
                for k in 0..(32 - i) * 1000 {
                    acc = acc.wrapping_add(k ^ i);
                }
                (i, acc)
            })
            .collect();
        let parallel = run_ordered(tasks, 4);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn serial_path_matches_parallel_path() {
        let mk = || (0..8).map(|i| move || i * i).collect::<Vec<_>>();
        assert_eq!(run_ordered(mk(), 1), run_ordered(mk(), 8));
    }

    #[test]
    fn empty_and_oversubscribed() {
        let empty: Vec<fn() -> u32> = vec![];
        assert!(run_ordered(empty, 4).is_empty());
        // More workers than tasks: the pool clamps.
        let out = run_ordered(vec![|| 1, || 2], 64);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
