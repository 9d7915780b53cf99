//! [`Memo`]: the thread-safe, single-flight memo table behind every
//! result cache of the workspace (`smart_core::cache::EvalCache`,
//! `smart_josim::cache::CircuitCache`, `smart_timing::TimingCache`).
//!
//! The paper's figures re-evaluate the same design points constantly, so
//! each cache keys its results on the full input value and shares them as
//! [`Arc`]s across worker threads. The policy lives here, once:
//!
//! * **Single flight.** Each key maps to an [`OnceLock`] cell; the first
//!   thread to claim it computes while the rest block on the cell and
//!   share the result. The map lock is never held while computing.
//! * **Errors are never cached.** A failed computation evicts its cell
//!   (only if the map still holds that cell), so the next lookup retries.
//!   A panicking computation leaves its cell empty, and the next lookup
//!   runs the computation again.
//! * **Counters.** A lookup that finds a ready result (in the map or in
//!   the warm tier) is a *hit*, one that computes is a *miss*, and one
//!   that waited on another thread's in-flight computation is
//!   *coalesced* ([`MemoStats`]).
//! * **Warm tier.** Results persisted by a previous process are keyed by
//!   [`content_hash`] of their key and consulted on a miss before
//!   computing. [`Memo::save`]/[`Memo::load`] write and read them as
//!   `u64 n · (u128 hash, value)*` in hash order inside a [`StoreFile`],
//!   so store bytes are deterministic; a missing or corrupt store loads
//!   zero entries and the run starts cold.

use crate::codec::{content_hash, ByteReader, ByteWriter, Persist, StoreFile};
use crate::sync::lock;
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::fmt;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

type Cell<T, E> = Arc<OnceLock<Result<Arc<T>, E>>>;

/// Hit/miss/size counters of a [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from a ready entry (an exact-map or warm-tier
    /// result already stored when the lookup arrived).
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Lookups that blocked on another thread's in-flight computation of
    /// the same key and shared its result. The hit/coalesced split
    /// depends on thread timing; `hits + coalesced` is the deterministic
    /// count of lookups served without computing.
    pub coalesced: u64,
    /// Distinct keys stored.
    pub entries: usize,
}

/// One key's outcome of [`Memo::claim`].
#[derive(Debug)]
pub enum Claim<T, E> {
    /// The result is already published (the warm tier held the key).
    Ready(Arc<T>),
    /// This call created the key's cell and must [`Memo::fill`] or
    /// [`Memo::release`] it.
    Owned(Owned<T, E>),
    /// Another lookup created the cell first; read it with
    /// [`Memo::get_or_try`].
    Taken,
}

/// A cell claimed by [`Memo::claim`], awaiting its value.
#[derive(Debug)]
pub struct Owned<T, E> {
    cell: Cell<T, E>,
}

/// A memo table from `K` to shared `T` results of a computation that may
/// fail with `E` (see the module docs for the policy).
pub struct Memo<K, T, E = Infallible> {
    // lint:allow(determinism, exact-key memo map is lookup-only during a run; serialization iterates the ordered warm tier instead)
    map: Mutex<HashMap<K, Cell<T, E>>>,
    /// Content-hash-keyed results reloaded from a previous process;
    /// consulted on a miss, never written during a run.
    warm: Mutex<BTreeMap<u128, Arc<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<K, T, E> Default for Memo<K, T, E> {
    fn default() -> Self {
        Self {
            map: Mutex::default(),
            warm: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }
}

impl<K, T, E> fmt::Debug for Memo<K, T, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, T, E> Memo<K, T, E> {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: lock(&self.map).len(),
        }
    }
}

impl<K: Clone + Eq + Hash, T, E: Clone> Memo<K, T, E> {
    /// The cell for `key`, plus whether this call created it.
    fn cell(&self, key: &K) -> (Cell<T, E>, bool) {
        let mut map = lock(&self.map);
        if let Some(cell) = map.get(key) {
            return (Arc::clone(cell), false);
        }
        let cell = Cell::default();
        map.insert(key.clone(), Arc::clone(&cell));
        (cell, true)
    }

    /// The warm-tier result for `key`, counted as a hit.
    fn warm_hit(&self, key: &K) -> Option<Arc<T>> {
        let found = lock(&self.warm).get(&content_hash(key)).cloned()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(found)
    }

    /// The memoized result of `compute` for `key`: a ready result, the
    /// warm-tier entry, another thread's in-flight result, or a fresh
    /// `compute()`.
    ///
    /// # Errors
    ///
    /// The error of this lookup's `compute`, or of the in-flight one it
    /// waited on. Errors are never cached.
    pub fn get_or_try(&self, key: &K, compute: impl FnOnce() -> Result<T, E>) -> Result<Arc<T>, E> {
        let (cell, _) = self.cell(key);
        // Probe before entering the single-flight cell: a ready result is
        // a plain hit; reaching `get_or_init` without running the closure
        // means this lookup waited on another thread's in-flight
        // computation and is counted separately as coalesced.
        if let Some(result) = cell.get() {
            if result.is_ok() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return result.clone();
        }
        let mut ran = false;
        let result = cell
            .get_or_init(|| {
                ran = true;
                if let Some(found) = self.warm_hit(key) {
                    return Ok(found);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                compute().map(Arc::new)
            })
            .clone();
        if ran && result.is_err() {
            self.release(key, &Owned { cell });
        } else if !ran && result.is_ok() {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Claims `key` for a batch computation: [`Claim::Ready`] when the warm
    /// tier holds it (a hit), [`Claim::Owned`] when this call created the
    /// cell, [`Claim::Taken`] when another lookup did.
    pub fn claim(&self, key: &K) -> Claim<T, E> {
        let (cell, created) = self.cell(key);
        if !created {
            return Claim::Taken;
        }
        match self.warm_hit(key) {
            Some(found) => {
                // Publish at once: another thread may already wait on it.
                let _ = cell.set(Ok(Arc::clone(&found)));
                Claim::Ready(found)
            }
            None => Claim::Owned(Owned { cell }),
        }
    }

    /// Publishes the batch-computed `value` of an owned cell (a miss) and
    /// returns the stored result. If a racing [`Memo::get_or_try`] filled
    /// the cell first, its (identical, deterministic) value wins.
    pub fn fill(&self, owned: Owned<T, E>, value: T) -> Arc<T> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(value);
        match owned.cell.get_or_init(|| Ok(Arc::clone(&value))) {
            Ok(stored) => Arc::clone(stored),
            // A racing lookup failed on this key and evicted the cell;
            // the batch value still answers this call.
            Err(_) => value,
        }
    }

    /// Drops `key`'s cell if the map still holds `owned`'s (the
    /// errors-are-not-cached path: the next lookup retries).
    pub fn release(&self, key: &K, owned: &Owned<T, E>) {
        let mut map = lock(&self.map);
        if map.get(key).is_some_and(|c| Arc::ptr_eq(c, &owned.cell)) {
            map.remove(key);
        }
    }
}

impl<K: Clone + Eq + Hash, T> Memo<K, T> {
    /// [`Memo::get_or_try`] for a computation that cannot fail.
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> T) -> Arc<T> {
        match self.get_or_try(key, || Ok(compute())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }
}

impl<K: Hash, T: Persist, E> Memo<K, T, E> {
    /// Serializes every persistable entry — the warm tier plus all ready
    /// `Ok` cells, ordered by content hash — into a store payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut entries = lock(&self.warm).clone();
        for (key, cell) in lock(&self.map).iter() {
            if let Some(Ok(value)) = cell.get() {
                entries.insert(content_hash(key), Arc::clone(value));
            }
        }
        let mut w = ByteWriter::new();
        w.u64(entries.len() as u64);
        // BTreeMap iteration is key-ordered: deterministic file bytes.
        for (hash, value) in &entries {
            w.u128(*hash);
            value.write(&mut w);
        }
        w.into_bytes()
    }

    /// Saves every persistable entry to `file` inside `dir` (atomically).
    ///
    /// # Errors
    ///
    /// [`crate::SmartError::Store`] on any underlying filesystem failure.
    pub fn save(&self, dir: &Path, file: &StoreFile) -> crate::Result<()> {
        file.write(dir, self.to_bytes())
    }

    /// Replaces the warm tier with the entries of `file` inside `dir`;
    /// returns how many are now warm. A missing, corrupted, truncated, or
    /// version-mismatched file loads zero entries — the run starts cold.
    pub fn load(&self, dir: &Path, file: &StoreFile) -> usize {
        let Some(entries) = file.read(dir).and_then(|p| from_bytes(&p)) else {
            return 0;
        };
        let mut warm = lock(&self.warm);
        *warm = entries;
        warm.len()
    }
}

fn from_bytes<T: Persist>(payload: &[u8]) -> Option<BTreeMap<u128, Arc<T>>> {
    let mut r = ByteReader::new(payload);
    let n = usize::try_from(r.u64()?).ok()?;
    let mut entries = BTreeMap::new();
    for _ in 0..n {
        let hash = r.u128()?;
        entries.insert(hash, Arc::new(T::read(&mut r)?));
    }
    r.is_empty().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    impl Persist for u64 {
        fn write(&self, w: &mut ByteWriter) {
            w.u64(*self);
        }
        fn read(r: &mut ByteReader<'_>) -> Option<Self> {
            r.u64()
        }
    }

    const FILE: StoreFile = StoreFile {
        name: "memo-test.bin",
        tag: "smart-memo-test",
        version: 1,
    };

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smart-memo-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn counts(memo: &Memo<u32, u64, impl Clone>) -> (u64, u64, u64, usize) {
        let s = memo.stats();
        (s.hits, s.misses, s.coalesced, s.entries)
    }

    #[test]
    fn concurrent_misses_compute_once() {
        // Four threads racing on one cold key run the computation exactly
        // once and share the stored Arc.
        let memo: Memo<u32, u64> = Memo::new();
        let all: Vec<Arc<u64>> = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        memo.get_or_compute(&7, || {
                            thread::sleep(Duration::from_millis(20));
                            49
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        for v in &all {
            assert!(Arc::ptr_eq(&all[0], v));
        }
        let s = memo.stats();
        assert_eq!(
            (s.misses, s.hits + s.coalesced, s.entries),
            (1, 3, 1),
            "{s:?}"
        );
    }

    #[test]
    fn waiter_on_an_in_flight_computation_counts_as_coalesced() {
        // The barrier puts the owner inside its computation before the
        // waiter starts, and the sleep keeps it there while the waiter's
        // probe misses: the waiter is coalesced, not a plain hit.
        let memo: Memo<u32, u64> = Memo::new();
        let barrier = Barrier::new(2);
        thread::scope(|s| {
            s.spawn(|| {
                memo.get_or_compute(&1, || {
                    barrier.wait();
                    thread::sleep(Duration::from_millis(100));
                    10
                })
            });
            barrier.wait();
            assert_eq!(*memo.get_or_compute(&1, || 99), 10);
        });
        assert_eq!(counts(&memo), (0, 1, 1, 1));
        assert_eq!(*memo.get_or_compute(&1, || 99), 10);
        assert_eq!(counts(&memo), (1, 1, 1, 1));
    }

    #[test]
    fn failed_miss_is_not_cached_and_retries() {
        let memo: Memo<u32, u64, String> = Memo::new();
        assert_eq!(*memo.get_or_try(&2, || Ok(4)).expect("ok"), 4);
        assert_eq!(
            memo.get_or_try(&3, || Err("diverged".to_owned())),
            Err("diverged".to_owned())
        );
        assert_eq!(counts(&memo), (0, 2, 0, 1), "the failed key is gone");
        assert_eq!(*memo.get_or_try(&3, || Ok(9)).expect("retried"), 9);
        assert_eq!(*memo.get_or_try(&3, || Ok(0)).expect("cached"), 9);
        assert_eq!(counts(&memo), (1, 3, 0, 2));
    }

    #[test]
    fn panic_inside_compute_leaves_the_key_retryable() {
        let memo: Memo<u32, u64> = Memo::new();
        let died = thread::scope(|s| {
            s.spawn(|| memo.get_or_compute(&5, || panic!("computation died")))
                .join()
        });
        assert!(died.is_err());
        assert_eq!(*memo.get_or_compute(&6, || 36), 36, "other keys work");
        assert_eq!(*memo.get_or_compute(&5, || 25), 25, "the key retries");
        assert_eq!(counts(&memo), (0, 3, 0, 2));
    }

    #[test]
    fn panic_holding_the_map_lock_poisons_nothing_else() {
        let memo: Memo<u32, u64> = Memo::new();
        let died = thread::scope(|s| {
            s.spawn(|| {
                let _guard = memo.map.lock();
                panic!("die holding the memo lock");
            })
            .join()
        });
        assert!(died.is_err());
        assert_eq!(*memo.get_or_compute(&1, || 1), 1);
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn claim_fill_and_release() {
        let dir = tmp_dir("claim");
        let store: Memo<u32, u64> = Memo::new();
        store.get_or_compute(&1, || 10);
        store.save(&dir, &FILE).expect("saves");
        let memo: Memo<u32, u64> = Memo::new();
        assert_eq!(memo.load(&dir, &FILE), 1);
        assert_eq!(memo.to_bytes(), store.to_bytes(), "round trip");
        std::fs::remove_dir_all(&dir).ok();

        assert!(matches!(memo.claim(&1), Claim::Ready(v) if *v == 10));
        assert!(matches!(memo.claim(&1), Claim::Taken));
        let Claim::Owned(two) = memo.claim(&2) else {
            panic!("a cold key is owned");
        };
        assert_eq!(*memo.fill(two, 20), 20);
        let Claim::Owned(three) = memo.claim(&3) else {
            panic!("a cold key is owned");
        };
        memo.release(&3, &three);
        assert_eq!(counts(&memo), (1, 1, 0, 2), "3 was withdrawn");
        assert_eq!(*memo.get_or_compute(&2, || 0), 20);
        assert_eq!(*memo.get_or_compute(&1, || 0), 10);
        assert_eq!(counts(&memo), (3, 1, 0, 2));
    }

    #[test]
    fn corrupted_store_never_panics_and_loads_cold() {
        // Truncations at every prefix length and a bit flip at every
        // offset load zero entries — no panic, no partial state.
        let dir = tmp_dir("corrupt");
        let memo: Memo<u32, u64> = Memo::new();
        assert_eq!(memo.load(&dir, &FILE), 0, "missing file");
        memo.get_or_compute(&1, || 11);
        memo.get_or_compute(&2, || 22);
        memo.save(&dir, &FILE).expect("saves");
        let path = dir.join(FILE.name);
        let good = std::fs::read(&path).expect("reads");
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).expect("writes");
            assert_eq!(Memo::<u32, u64>::new().load(&dir, &FILE), 0, "cut {cut}");
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).expect("writes");
            assert_eq!(Memo::<u32, u64>::new().load(&dir, &FILE), 0, "flip {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_unwritable_dir_is_a_typed_error() {
        let err = Memo::<u32, u64>::new()
            .save(Path::new("/proc/definitely/not/writable"), &FILE)
            .expect_err("must fail, not panic");
        assert!(matches!(err, crate::SmartError::Store { .. }), "{err:?}");
    }
}
