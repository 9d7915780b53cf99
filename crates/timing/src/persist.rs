//! Persistence of the [`TimingCache`] across processes: save/load of the
//! content-hash-keyed report store through the
//! [`smart_units::codec`] container, with the store framing decided by
//! [`smart_units::memo::Memo`].
//!
//! A sweep process that ran once has already paid the ILP compiles and
//! replays for every point it touched; persisting the cache lets the next
//! process (a re-render, a CI warm pass, an interactive iteration on one
//! experiment) start from those results. The guarantees are exactly the
//! codec's:
//!
//! * **fall back to cold, never fail** — a missing, truncated, corrupted,
//!   or version-mismatched file loads as zero entries;
//! * **exact values** — every `f64` travels as its IEEE bit pattern, and
//!   cycle counts as `u64`s, so a warm run's output is byte-identical to
//!   the cold run that produced the store (pinned by the
//!   `warm_reload_is_byte_identical` property test and the golden-snapshot
//!   CI job's warm pass);
//! * **keys are content hashes** — a [`crate::cache::TimingCache`] key is
//!   a full `(Scheme, ModelId, TimingConfig)` value; the store keys its
//!   entries by [`smart_units::codec::content_hash`] of that value, and
//!   the in-memory exact-key map stays authoritative (a hash collision
//!   could at worst serve a wrong warm entry for a key pair that collides
//!   on both independent 64-bit halves — negligible at cache scale).
//!
//! Scheme names inside reports are `&'static str`; on load each distinct
//! name is interned once per process ([`smart_units::codec::intern`]).

use crate::cache::TimingCache;
use crate::report::{ModelTimingReport, TimingReport};
use smart_units::codec::{intern, ByteReader, ByteWriter, Persist, StoreFile};
use smart_units::Frequency;
use std::path::Path;

/// File name of the timing store inside a `--cache-dir`.
pub const FILE_NAME: &str = "timing-cache.bin";

/// The timing store; bump `version` when the serialized report layout
/// changes (older files then fall back to cold).
const STORE: StoreFile = StoreFile {
    name: FILE_NAME,
    tag: "smart-timing-cache",
    version: 1,
};

impl Persist for TimingReport {
    fn write(&self, w: &mut ByteWriter) {
        w.str(&self.name);
        w.u64(self.total_cycles);
        w.u64(self.compute_cycles);
        w.u64(self.stream_stall_cycles);
        for &x in &self.exposed_stall_cycles {
            w.u64(x);
        }
        w.u64(self.prefetch_work_cycles);
        w.u64(self.prefetch_stall_cycles);
        w.u64(self.random_busy_cycles);
    }

    fn read(r: &mut ByteReader<'_>) -> Option<Self> {
        let name = r.str()?;
        let total_cycles = r.u64()?;
        let compute_cycles = r.u64()?;
        let stream_stall_cycles = r.u64()?;
        let mut exposed_stall_cycles = [0u64; 4];
        for x in &mut exposed_stall_cycles {
            *x = r.u64()?;
        }
        Some(TimingReport {
            name,
            total_cycles,
            compute_cycles,
            stream_stall_cycles,
            exposed_stall_cycles,
            prefetch_work_cycles: r.u64()?,
            prefetch_stall_cycles: r.u64()?,
            random_busy_cycles: r.u64()?,
        })
    }
}

impl Persist for ModelTimingReport {
    fn write(&self, w: &mut ByteWriter) {
        w.str(self.scheme);
        w.str(&self.model);
        w.f64(self.clock.as_si()); // raw SI bits: exact round trip
        w.u64(self.layers.len() as u64);
        for l in &self.layers {
            l.write(w);
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Option<Self> {
        let scheme = intern(r.str()?);
        let model = r.str()?;
        let clock = Frequency::from_si(r.f64()?);
        let n = usize::try_from(r.u64()?).ok()?;
        let mut layers = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            layers.push(TimingReport::read(r)?);
        }
        Some(ModelTimingReport {
            scheme,
            model,
            clock,
            layers,
        })
    }
}

/// Serializes every persistable entry of `cache` into a sealed store
/// payload.
#[must_use]
pub fn to_bytes(cache: &TimingCache) -> Vec<u8> {
    cache.memo.to_bytes()
}

/// Saves `cache` to `dir/`[`FILE_NAME`] (atomically).
///
/// # Errors
///
/// [`smart_units::SmartError::Store`] on any underlying filesystem
/// failure.
pub fn save(cache: &TimingCache, dir: &Path) -> smart_units::Result<()> {
    cache.memo.save(dir, &STORE)
}

/// Loads `dir/`[`FILE_NAME`] into `cache`'s warm tier; returns how many
/// entries are now warm. A missing, corrupted, truncated, or
/// version-mismatched file loads zero entries — the run simply starts
/// cold.
pub fn load(cache: &TimingCache, dir: &Path) -> usize {
    cache.memo.load(dir, &STORE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingConfig;
    use smart_core::scheme::Scheme;
    use smart_systolic::models::ModelId;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smart-timing-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn round_trip_serves_warm_and_identical() {
        let dir = tmp_dir("round");
        let cold = TimingCache::new();
        let scheme = Scheme::smart();
        let cfg = TimingConfig::nominal();
        let direct = cold.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        save(&cold, &dir).expect("saves");

        let warm = TimingCache::new();
        assert_eq!(load(&warm, &dir), 1);
        let reloaded = warm.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        assert_eq!(*reloaded, *direct, "warm result identical to cold");
        let stats = warm.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 0),
            "served from the warm store without replaying"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_corrupt_files_fall_back_to_cold() {
        let dir = tmp_dir("corrupt");
        let cache = TimingCache::new();
        assert_eq!(load(&cache, &dir), 0, "missing file");

        let scheme = Scheme::pipe();
        let cfg = TimingConfig::nominal();
        cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        save(&cache, &dir).expect("saves");
        let path = dir.join(FILE_NAME);
        let good = std::fs::read(&path).expect("reads");

        // Truncations and single-bit corruption at every eighth offset.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).expect("writes");
            assert_eq!(load(&TimingCache::new(), &dir), 0, "truncated at {cut}");
        }
        for i in (0..good.len()).step_by(8) {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            std::fs::write(&path, &bad).expect("writes");
            assert_eq!(load(&TimingCache::new(), &dir), 0, "corrupted at {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_unwritable_dir_is_a_typed_error() {
        let cache = TimingCache::new();
        let err = save(&cache, Path::new("/proc/definitely/not/writable"))
            .expect_err("must fail, not panic");
        assert!(
            matches!(err, smart_units::SmartError::Store { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn save_is_deterministic() {
        let cache = TimingCache::new();
        let scheme = Scheme::smart();
        for pct in [50, 100] {
            cache
                .report(
                    &scheme,
                    ModelId::AlexNet,
                    &TimingConfig::nominal().with_bandwidth_pct(pct),
                )
                .expect("ok");
        }
        assert_eq!(to_bytes(&cache), to_bytes(&cache));
    }
}
