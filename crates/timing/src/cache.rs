//! [`TimingCache`]: a thread-safe, single-flight memoization layer over
//! [`crate::validate::simulate_scheme`], mirroring
//! `smart_core::cache::EvalCache`.
//!
//! The timing experiments replay the same `(scheme, model, config)` points
//! repeatedly — the nominal SMART replay is the baseline row of both the
//! buffer-depth sweep and the bandwidth sweep — so replays are keyed on
//! the full scheme/config values and shared as [`Arc`]s across the
//! experiment runner's worker threads. Errors (non-heterogeneous schemes)
//! are not cached.
//!
//! The cache is a typed wrapper over [`smart_units::memo::Memo`], which
//! decides the single-flight policy, the counters, and the warm tier of
//! content-hash-keyed reports loaded from a previous process via
//! [`crate::persist`]. On top of it sits the **sweep path**
//! ([`TimingCache::sweep`]): uncached points of a config sweep are
//! compiled once per `(scheme, model)` through
//! [`crate::validate::prepare_model`] and replayed by the batched
//! struct-of-arrays kernel, instead of paying one full `simulate_scheme`
//! per point.

use crate::config::TimingConfig;
use crate::report::ModelTimingReport;
use crate::validate::prepare_model_ctx;
use smart_compiler::SolverContext;
use smart_core::scheme::Scheme;
use smart_systolic::models::ModelId;
use smart_units::memo::{Claim, Memo, MemoStats};
use smart_units::{Result, SmartError};
use std::sync::Arc;

/// A memoized, thread-safe, single-flight front end to the replay
/// simulator.
#[derive(Debug, Default)]
pub struct TimingCache {
    pub(crate) memo: Memo<(Scheme, ModelId, TimingConfig), ModelTimingReport, SmartError>,
    /// ILP warm-start state threaded through every replay compile this
    /// cache runs, so bases reuse across models — and, via
    /// [`SolverContext::save_to`]/[`SolverContext::load_from`], across
    /// processes.
    solver: SolverContext,
}

impl TimingCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The ILP warm-start context this cache compiles through (exposed so
    /// callers can persist its basis store next to the report store).
    #[must_use]
    pub fn solver(&self) -> &SolverContext {
        &self.solver
    }

    /// One full replay of `cfg`: the ILP compile plus the finish pass.
    fn replay(
        &self,
        scheme: &Scheme,
        model: ModelId,
        cfg: &TimingConfig,
    ) -> Result<ModelTimingReport> {
        prepare_model_ctx(scheme, &model.build(), cfg.max_iterations, &self.solver)
            .map(|prepass| prepass.replay(cfg))
    }

    /// The memoized equivalent of
    /// `simulate_scheme(scheme, &model.build(), cfg)`.
    ///
    /// # Errors
    ///
    /// [`smart_units::SmartError::InvalidInput`] when the scheme's SPM is
    /// not heterogeneous (the error is recomputed, never cached).
    pub fn report(
        &self,
        scheme: &Scheme,
        model: ModelId,
        cfg: &TimingConfig,
    ) -> Result<Arc<ModelTimingReport>> {
        self.memo.get_or_try(&(scheme.clone(), model, *cfg), || {
            self.replay(scheme, model, cfg)
        })
    }

    /// Replays a whole config sweep over `(scheme, model)`: cached points
    /// are served from the map or warm store, and the points this call
    /// claims share one ILP compile ([`prepare_model_ctx`]) and one pass
    /// of the batched struct-of-arrays kernel per distinct
    /// `max_iterations`, instead of a full `simulate_scheme` each. Point
    /// results are bit-identical to [`TimingCache::report`] (same
    /// prepass, same finish pass) and are stored in the map like any
    /// other lookup.
    ///
    /// # Errors
    ///
    /// [`smart_units::SmartError::InvalidInput`] when the scheme's SPM is
    /// not heterogeneous (nothing is cached in that case).
    pub fn sweep(
        &self,
        scheme: &Scheme,
        model: ModelId,
        cfgs: &[TimingConfig],
    ) -> Result<Vec<Arc<ModelTimingReport>>> {
        let key = |cfg: &TimingConfig| (scheme.clone(), model, *cfg);
        let mut points: Vec<(TimingConfig, Claim<_, _>)> = cfgs
            .iter()
            .map(|cfg| (*cfg, self.memo.claim(&key(cfg))))
            .collect();

        // Batch-compute the claimed points, one prepass per distinct
        // max_iterations, in order of first appearance.
        while let Some(max_iterations) = points
            .iter()
            .find_map(|(cfg, claim)| matches!(claim, Claim::Owned(_)).then_some(cfg.max_iterations))
        {
            let prepass =
                match prepare_model_ctx(scheme, &model.build(), max_iterations, &self.solver) {
                    Ok(p) => p,
                    Err(e) => {
                        // Errors are not cached: withdraw every cell this
                        // call still owns (warm-published ones are valid
                        // results and stay).
                        for (cfg, claim) in &points {
                            if let Claim::Owned(owned) = claim {
                                self.memo.release(&key(cfg), owned);
                            }
                        }
                        return Err(e);
                    }
                };
            let mut group: Vec<&mut (TimingConfig, Claim<_, _>)> = points
                .iter_mut()
                .filter(|(cfg, claim)| {
                    matches!(claim, Claim::Owned(_)) && cfg.max_iterations == max_iterations
                })
                .collect();
            let group_cfgs: Vec<TimingConfig> = group.iter().map(|(cfg, _)| *cfg).collect();
            for ((_, claim), report) in group.iter_mut().zip(prepass.sweep(&group_cfgs)) {
                if let Claim::Owned(owned) = std::mem::replace(claim, Claim::Taken) {
                    *claim = Claim::Ready(self.memo.fill(owned, report));
                }
            }
        }

        // Points another lookup claimed first: read (or wait on) them like
        // any other lookup.
        points
            .into_iter()
            .map(|(cfg, claim)| match claim {
                Claim::Ready(report) => Ok(report),
                Claim::Owned(_) | Claim::Taken => self
                    .memo
                    .get_or_try(&key(&cfg), || self.replay(scheme, model, &cfg)),
            })
            .collect()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = TimingCache::new();
        let scheme = Scheme::smart();
        let cfg = TimingConfig::nominal();
        let a = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        let b = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn config_is_part_of_the_key() {
        let cache = TimingCache::new();
        let scheme = Scheme::smart();
        let nominal = cache
            .report(&scheme, ModelId::AlexNet, &TimingConfig::nominal())
            .expect("ok");
        let slow = cache
            .report(
                &scheme,
                ModelId::AlexNet,
                &TimingConfig::nominal().with_bandwidth_pct(10),
            )
            .expect("ok");
        assert!(slow.total_cycles() > nominal.total_cycles());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = TimingCache::new();
        let cfg = TimingConfig::nominal();
        assert!(cache
            .report(&Scheme::supernpu(), ModelId::AlexNet, &cfg)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_misses_replay_once() {
        // The single-flight cell: N threads racing on one cold key run
        // the replay exactly once and all share its Arc.
        let cache = TimingCache::new();
        let scheme = Scheme::smart();
        let cfg = TimingConfig::nominal();
        let reports: Vec<Arc<ModelTimingReport>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok")))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        for r in &reports[1..] {
            assert!(Arc::ptr_eq(&reports[0], r));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one replay ran: {stats:?}");
        assert_eq!(
            stats.hits + stats.coalesced,
            3,
            "the other three lookups shared the ready or in-flight \
             result: {stats:?}"
        );
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cached_equals_uncached() {
        let cache = TimingCache::new();
        let scheme = Scheme::pipe();
        let cfg = TimingConfig::nominal();
        let direct =
            crate::validate::simulate_scheme(&scheme, &ModelId::AlexNet.build(), &cfg).expect("ok");
        let cached = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        assert_eq!(*cached, direct);
    }

    #[test]
    fn sweep_matches_pointwise_reports() {
        let swept = TimingCache::new();
        let pointwise = TimingCache::new();
        let scheme = Scheme::smart();
        let nominal = TimingConfig::nominal();
        let cfgs: Vec<TimingConfig> = [1u32, 2, 3, 4, 5]
            .iter()
            .map(|&d| nominal.with_depth(d).with_bandwidth_pct(50))
            .collect();
        let batch = swept.sweep(&scheme, ModelId::AlexNet, &cfgs).expect("ok");
        assert_eq!(batch.len(), cfgs.len());
        for (cfg, got) in cfgs.iter().zip(&batch) {
            let want = pointwise
                .report(&scheme, ModelId::AlexNet, cfg)
                .expect("ok");
            assert_eq!(**got, *want, "{cfg:?}");
        }
        // The sweep cached every point: re-sweeping is all hits.
        let before = swept.stats();
        assert_eq!(before.entries, cfgs.len());
        let again = swept.sweep(&scheme, ModelId::AlexNet, &cfgs).expect("ok");
        for (a, b) in batch.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
        let after = swept.stats();
        assert_eq!(after.misses, before.misses, "no recompute");
        assert_eq!(after.hits, before.hits + cfgs.len() as u64);
    }

    #[test]
    fn sweep_errors_cache_nothing() {
        let cache = TimingCache::new();
        let cfgs = [
            TimingConfig::nominal(),
            TimingConfig::nominal().with_depth(1),
        ];
        assert!(cache
            .sweep(&Scheme::tpu(), ModelId::AlexNet, &cfgs)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn sweep_over_a_partly_warm_cache_matches_pointwise() {
        // Configs 1..=5 alternate between two `max_iterations` values. A
        // store holds configs 1 and 3, config 2 is already in the map, so
        // the sweep serves two warm points, waits on one ready point and
        // batch-computes 4 and 5 in two groups.
        let scheme = Scheme::smart();
        let nominal = TimingConfig::nominal();
        let cfgs: Vec<TimingConfig> = (1u32..=5)
            .map(|d| TimingConfig {
                max_iterations: if d % 2 == 0 { 8 } else { 6 },
                ..nominal.with_depth(d)
            })
            .collect();
        let dir =
            std::env::temp_dir().join(format!("smart-timing-partly-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = TimingCache::new();
        for cfg in [&cfgs[0], &cfgs[2]] {
            store.report(&scheme, ModelId::AlexNet, cfg).expect("ok");
        }
        crate::persist::save(&store, &dir).expect("saves");

        let cache = TimingCache::new();
        assert_eq!(crate::persist::load(&cache, &dir), 2);
        std::fs::remove_dir_all(&dir).ok();
        cache
            .report(&scheme, ModelId::AlexNet, &cfgs[1])
            .expect("ok");
        let swept = cache.sweep(&scheme, ModelId::AlexNet, &cfgs).expect("ok");
        for (cfg, got) in cfgs.iter().zip(&swept) {
            let want = TimingCache::new()
                .report(&scheme, ModelId::AlexNet, cfg)
                .expect("ok");
            assert_eq!(**got, *want, "{cfg:?}");
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.coalesced, stats.entries),
            (3, 3, 0, 5),
            "{stats:?}"
        );
    }
}
