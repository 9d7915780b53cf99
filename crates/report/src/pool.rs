//! An order-preserving worker pool built on [`std::thread::scope`], with
//! one worker budget shared by nested maps.
//!
//! The experiment engine fans independent work items (whole experiments,
//! sweep points, model/scheme grid cells) across a bounded number of OS
//! threads. Work is claimed from a shared atomic cursor in small chunks,
//! so uneven item costs balance themselves while cheap items amortize the
//! claim; results land back at their item's index, so callers see the
//! same ordering as a sequential `map`. The calling thread is one of the
//! workers and starts claiming items immediately instead of blocking on
//! joins — which is what keeps a small fan-out (few items, trivial `f`)
//! from costing more at `jobs = 4` than at `jobs = 1`.
//!
//! Maps nest: an experiment running on one worker fans its own sweep out
//! with another [`parallel_map`]. The outermost map owns `jobs - 1`
//! helper slots (its caller is the `jobs`-th worker), and every map nested
//! inside its workers draws helpers from those same slots. Each worker
//! tries to recruit a helper at each claim boundary, without blocking,
//! and a helper hands its slot back when its map runs out of items. So a
//! worker that finishes the short items of the outer map joins the long
//! one's inner sweep, and never more than `jobs` workers run at once.

use smart_units::sync::lock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Scope;

/// The free helper slots of one outermost map, shared by every map
/// nested inside its workers.
///
/// The slot count and a map's worker count publish no other data (results
/// travel through their mutexes and the scope's join), so their atomics
/// are `Relaxed`; each read-modify-write still sees every earlier one.
struct Budget {
    free: AtomicUsize,
}

impl Budget {
    /// Takes a free slot, or returns `false` at once if none is free.
    fn try_take(&self) -> bool {
        self.free
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    fn give_back(&self) {
        self.free.fetch_add(1, Ordering::Relaxed);
    }
}

/// A taken slot, handed back on drop — also when its helper panics.
struct Slot<'a>(&'a Budget);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.give_back();
    }
}

thread_local! {
    /// The budget of the outermost map this thread is working for, if any.
    static BUDGET: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// Makes `budget` this thread's budget until dropped (also on unwind).
struct Enter;

impl Enter {
    fn new(budget: &Arc<Budget>) -> Self {
        BUDGET.with(|b| *b.borrow_mut() = Some(Arc::clone(budget)));
        Enter
    }
}

impl Drop for Enter {
    fn drop(&mut self) {
        BUDGET.with(|b| *b.borrow_mut() = None);
    }
}

/// One map in flight: its items, their results and claim cursor, and how
/// many workers it has (the caller included), capped at `max_workers`.
struct Map<'a, T, R, F> {
    items: &'a [T],
    f: F,
    /// One slot per chunk: the claimer of items `k * chunk..` fills slot
    /// `k` in one lock, so a map that gets no helper pays one lock per
    /// chunk, not per item.
    results: Vec<Mutex<Option<Vec<R>>>>,
    cursor: AtomicUsize,
    chunk: usize,
    workers: AtomicUsize,
    max_workers: usize,
    budget: Arc<Budget>,
}

impl<T, R, F> Map<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    /// Claims chunks until the items run out, recruiting helpers at each
    /// claim that leaves work behind.
    fn work<'scope, 'env>(&'env self, scope: &'scope Scope<'scope, 'env>) {
        let len = self.items.len();
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= len {
                return;
            }
            if start + self.chunk < len {
                self.recruit(scope);
            }
            let end = len.min(start + self.chunk);
            // lint:allow(index, start < len, so start..end is in bounds)
            let out: Vec<R> = self.items[start..end].iter().map(&self.f).collect();
            // lint:allow(index, start < len, so start / chunk is below the chunk count)
            *lock(&self.results[start / self.chunk]) = Some(out);
        }
    }

    /// Spawns helpers while the budget has a free slot and this map has
    /// room for another worker.
    fn recruit<'scope, 'env>(&'env self, scope: &'scope Scope<'scope, 'env>) {
        while self.budget.try_take() {
            let room = self
                .workers
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                    (w < self.max_workers).then_some(w + 1)
                });
            if room.is_err() {
                self.budget.give_back();
                return;
            }
            scope.spawn(move || {
                let _slot = Slot(&self.budget);
                let _entered = Enter::new(&self.budget);
                self.work(scope);
            });
        }
    }

    fn into_results(self) -> Vec<R> {
        let mut all = Vec::with_capacity(self.items.len());
        for result in self.results {
            all.extend(
                result
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // lint:allow(panic_freedom, the scope joined every worker and the cursor covers 0..len, so each slot was filled)
                    .expect("every chunk was claimed by a worker"),
            );
        }
        all
    }
}

/// Maps `f` over `items` on up to `jobs` workers (the caller plus helper
/// threads), preserving order.
///
/// `jobs <= 1` (or a single item) runs inline on the caller's thread with
/// no synchronization. Threads are scoped, so `f` may borrow from the
/// caller's stack (e.g. a shared evaluation cache). A map called from
/// inside another map's `f` draws its helpers from the outermost map's
/// budget of `jobs - 1` (see the module docs), so nesting never runs more
/// than the outermost `jobs` workers at once; a nested map that finds no
/// free slot runs on its caller alone until one frees up.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers finish.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let max_workers = jobs.min(items.len());
    if max_workers <= 1 {
        return items.iter().map(f).collect();
    }

    let nested = BUDGET.with(|b| b.borrow().clone());
    let outermost = nested.is_none();
    let budget = nested.unwrap_or_else(|| {
        Arc::new(Budget {
            free: AtomicUsize::new(jobs - 1),
        })
    });
    let _entered = outermost.then(|| Enter::new(&budget));
    // Chunked claiming: ~8 claims per worker over the whole run, but never
    // a chunk so large that one slow worker strands work (uneven costs
    // still balance across the remaining claims).
    let chunk = (items.len() / (max_workers * 8)).max(1);
    let map = Map {
        items,
        f,
        results: (0..items.len().div_ceil(chunk))
            .map(|_| Mutex::new(None))
            .collect(),
        cursor: AtomicUsize::new(0),
        chunk,
        workers: AtomicUsize::new(1),
        max_workers,
        budget,
    };

    std::thread::scope(|scope| {
        map.work(scope);
        if outermost {
            // The caller now only waits for its helpers: lend its worker
            // to the maps nested inside them.
            map.budget.give_back();
        }
    });
    map.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(4, &items, |&x| x * x);
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_path_matches_parallel() {
        let items: Vec<i32> = (0..17).collect();
        assert_eq!(
            parallel_map(1, &items, |&x| x + 1),
            parallel_map(8, &items, |&x| x + 1)
        );
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u8> = vec![];
        assert!(parallel_map(4, &none, |&x| x).is_empty());
        assert_eq!(parallel_map(4, &[7], |&x: &i32| x * 2), vec![14]);
    }

    #[test]
    fn chunked_claiming_covers_every_index() {
        // Sizes around the chunking thresholds (chunk > 1 kicks in at
        // items >= workers * 16) and worker counts that do not divide the
        // item count evenly.
        for jobs in [2usize, 3, 4, 7] {
            for len in [2usize, 15, 16, 31, 64, 257] {
                let items: Vec<usize> = (0..len).collect();
                let out = parallel_map(jobs, &items, |&x| x * 3);
                let expected: Vec<usize> = items.iter().map(|&x| x * 3).collect();
                assert_eq!(out, expected, "jobs={jobs} len={len}");
            }
        }
    }

    #[test]
    fn workers_share_borrowed_state() {
        let base = 10usize;
        let items: Vec<usize> = (0..32).collect();
        let out = parallel_map(3, &items, |&x| x + base);
        assert_eq!(out[31], 41);
    }

    /// The distinct threads that ran `items` through a map.
    fn threads_of(jobs: usize, items: usize, pause: Duration) -> HashSet<ThreadId> {
        let ran = Mutex::new(HashSet::new());
        parallel_map(jobs, &vec![(); items], |_| {
            std::thread::sleep(pause);
            lock(&ran).insert(std::thread::current().id());
        });
        ran.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn nested_maps_never_run_more_than_jobs_closures() {
        for jobs in [2usize, 4] {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let outer: Vec<usize> = (0..2 * jobs).collect();
            let sums = parallel_map(jobs, &outer, |&o| {
                let inner: Vec<usize> = (0..4 * jobs).collect();
                parallel_map(jobs, &inner, |&i| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    o * 100 + i
                })
                .iter()
                .sum::<usize>()
            });
            let expected: Vec<usize> = outer
                .iter()
                .map(|&o| (0..4 * jobs).map(|i| o * 100 + i).sum())
                .collect();
            assert_eq!(sums, expected, "jobs={jobs}");
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= jobs, "jobs={jobs}: {peak} closures in flight");
            assert!(peak >= 2, "jobs={jobs}: the maps never ran in parallel");
        }
    }

    #[test]
    fn inner_map_picks_up_the_helper_the_outer_map_frees() {
        // Outer item 0 runs a long inner map; outer item 1, on the other
        // worker, returns only once that inner map has started. Its worker
        // then finds the outer map dry and frees its slot, which the inner
        // map takes at a later claim boundary.
        let (started, wait_for_start) = mpsc::channel();
        let wait_for_start = Mutex::new(wait_for_start);
        let threads = parallel_map(2, &[0usize, 1], |&o| {
            if o == 1 {
                lock(&wait_for_start)
                    .recv()
                    .expect("the inner map signals its start");
                return HashSet::new();
            }
            let ran = Mutex::new(HashSet::new());
            parallel_map(2, &(0..64).collect::<Vec<usize>>(), |&i| {
                if i == 0 {
                    started.send(()).expect("outer item 1 is waiting");
                }
                std::thread::sleep(Duration::from_millis(2));
                lock(&ran).insert(std::thread::current().id());
            });
            ran.into_inner().unwrap_or_else(PoisonError::into_inner)
        });
        assert!(
            threads[0].len() >= 2,
            "the inner items ran on {} thread(s)",
            threads[0].len()
        );
    }

    #[test]
    fn helper_panic_propagates_and_returns_its_slot() {
        let threads = parallel_map(2, &[0usize, 1], |&o| {
            if o == 1 {
                return None;
            }
            let owner = std::thread::current().id();
            let items: Vec<usize> = (0..64).collect();
            let panicked = std::panic::catch_unwind(|| {
                parallel_map(2, &items, |_| {
                    std::thread::sleep(Duration::from_millis(2));
                    assert_eq!(std::thread::current().id(), owner, "a helper panics");
                });
            });
            assert!(panicked.is_err(), "the helper's panic reaches the caller");
            Some(threads_of(2, 64, Duration::from_millis(2)))
        });
        let following = threads[0].as_ref().expect("outer item 0 ran the maps");
        assert!(
            following.len() >= 2,
            "the map after the panic ran on {} thread(s)",
            following.len()
        );
    }

    #[test]
    fn outermost_budget_ends_with_the_map() {
        // Two maps in a row on one thread each get their own helpers.
        for _ in 0..2 {
            assert!(threads_of(2, 64, Duration::from_millis(1)).len() >= 2);
            assert!(BUDGET.with(|b| b.borrow().is_none()));
        }
    }
}
