//! The search engine: staged evaluation of a [`SearchSpace`] with
//! dominance pruning and warm-started solves, plus the naive per-config
//! baseline it is measured against.
//!
//! Three stages of increasing cost, each fed only what the previous stage
//! could not rule out:
//!
//! 1. **Analytic** (every point): latency / energy / area from the
//!    closed-form evaluator, fanned out with
//!    [`parallel_map`] through a shared
//!    [`EvalCache`]. These are the objectives of record — the frontier is
//!    exact, not an approximation.
//! 2. **ILP enrichment** (ε-survivors only): the survivors split into one
//!    block per effective ILP prefetch window, and the blocks run in
//!    parallel. Each block is one warm-start chain: it compiles its points
//!    in enumeration order through its own [`SolverContext::fork`] of the
//!    timing cache's solver context, so each config warm-starts from its
//!    grid neighbor. The forks are absorbed back in block order.
//! 3. **Replay confirmation** (frontier only): the cycle-level
//!    `smart-timing` simulator cross-checks each frontier point's latency.
//!
//! Determinism: stage 1 computes pure values (safe under any `jobs`). The
//! stage-2 blocks depend only on the space, each runs sequentially on its
//! own fork, and the forks are absorbed in a fixed order; stage 3 runs in
//! canonical order. The outcome, the solver counters, the stored bytes and
//! the solver trace are therefore identical across `--jobs` values, and
//! the outcome across cold-vs-warm cache runs.

// lint:allow-file(index, grid points are indexed by the axis lengths that generated them)

use crate::pareto::{epsilon_survivors, pareto_frontier, Objectives};
use crate::space::SearchSpace;
use smart_core::area::ChipArea;
use smart_core::cache::EvalCache;
use smart_core::eval::evaluate;
use smart_core::geometry::GeometryParams;
use smart_core::scheme::Scheme;
use smart_core::SolverContext;
use smart_report::pool::parallel_map;
use smart_systolic::models::ModelId;
use smart_timing::{
    compile_scheme_layer, prefetch_window, simulate_scheme, TimingCache, TimingConfig,
};
use smart_units::{Result, SmartError, Time};
use std::collections::BTreeMap;

/// What to evaluate and how hard to prune.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// CNN model the objectives are measured on.
    pub model: ModelId,
    /// Inference batch size.
    pub batch: u32,
    /// Replay scenario for the frontier confirmation stage (its
    /// `max_iterations` also caps the enrichment ILPs' DAG coarsening).
    pub timing: TimingConfig,
    /// ε-dominance pruning margin: a point must be beaten by at least this
    /// relative margin in *all three* objectives before it is pruned, so
    /// the exact frontier always survives. `0.0` prunes only strictly
    /// worse-everywhere points.
    pub epsilon: f64,
    /// Worker threads for the analytic fan-out and for the ILP stage's
    /// prefetch-window blocks (at most one thread per block; the replay
    /// stage is sequential). [`search_naive`] fans its per-config compiles
    /// and replays out over the same count.
    pub jobs: usize,
}

impl SearchConfig {
    /// The default search: AlexNet, batch 1, nominal replay scenario,
    /// ε = 0.05.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            model: ModelId::AlexNet,
            batch: 1,
            timing: TimingConfig::nominal(),
            epsilon: 0.05,
            jobs,
        }
    }
}

/// ILP allocation metrics of one design point, summed over the model's
/// layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpMetrics {
    /// Summed schedule objective (bytes-weighted access cost).
    pub objective: f64,
    /// Summed branch & bound nodes (0 = every layer's seeded incumbent was
    /// provably optimal).
    pub nodes: usize,
    /// Bytes the schedules place in SHIFT staging.
    pub shift_bytes: u64,
    /// Bytes placed in the RANDOM array.
    pub random_bytes: u64,
    /// Bytes spilled to DRAM.
    pub dram_bytes: u64,
}

impl IlpMetrics {
    /// Fraction of scheduled bytes resident in the SPM (SHIFT + RANDOM).
    #[must_use]
    pub fn resident_fraction(&self) -> f64 {
        let total = self.shift_bytes + self.random_bytes + self.dram_bytes;
        if total == 0 {
            0.0
        } else {
            (self.shift_bytes + self.random_bytes) as f64 / total as f64
        }
    }
}

/// Cycle-level confirmation of one frontier point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayCheck {
    /// Replayed end-to-end latency.
    pub latency: Time,
    /// Replayed / analytic latency ratio (≥ 1 up to rounding: the replay
    /// sees arbitration and late prefetches the analytic model cannot).
    pub vs_analytic: f64,
}

/// Work and reuse counters of one search run. Cache and solver counters
/// are **deltas** over the run (after minus before), so a shared cache's
/// prior history does not leak in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Points in the space.
    pub space: usize,
    /// Points ε-dominated on the analytic objectives (skipped stages 2-3).
    pub pruned: usize,
    /// Points that reached the ILP stage.
    pub survivors: usize,
    /// Pareto-optimal points.
    pub frontier: usize,
    /// Layer ILP compilations stage 2 ran.
    pub ilp_compiles: u64,
    /// Analytic evaluations served from the [`EvalCache`].
    pub eval_hits: u64,
    /// Analytic evaluations that ran the evaluator.
    pub eval_misses: u64,
    /// Replay confirmations served from the [`TimingCache`].
    pub timing_hits: u64,
    /// Replay confirmations that ran the simulator.
    pub timing_misses: u64,
    /// ILP solves that found a stored basis for their structure.
    pub warm_attempts: u64,
    /// Warm attempts that reoptimized from the stored basis.
    pub warm_hits: u64,
    /// ILP solves that started cold.
    pub cold_solves: u64,
    /// ILP solves answered verbatim from the exact-match solution memo.
    pub solution_hits: u64,
}

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct EvaluatedPoint {
    /// The generating geometry.
    pub params: GeometryParams,
    /// The elaborated scheme.
    pub scheme: Scheme,
    /// Analytic latency / energy / area (the objectives of record).
    pub objectives: Objectives,
    /// ILP allocation metrics; `None` for pruned points.
    pub ilp: Option<IlpMetrics>,
    /// Cycle-level confirmation; `None` off the frontier.
    pub replay: Option<ReplayCheck>,
}

/// The result of a search: every point with its evaluation depth, plus the
/// survivor and frontier index sets (into `points`, in enumeration order).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// All points, in the space's canonical enumeration order.
    pub points: Vec<EvaluatedPoint>,
    /// Indices that survived ε-dominance pruning.
    pub survivors: Vec<usize>,
    /// Indices of the Pareto frontier (always a subset of `survivors`).
    pub frontier: Vec<usize>,
    /// Work and reuse counters.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// The frontier's points, in enumeration order.
    pub fn frontier_points(&self) -> impl Iterator<Item = &EvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.points[i])
    }
}

/// Builds every point's scheme, with the failing point named on error.
fn build_schemes(params: &[GeometryParams]) -> Result<Vec<Scheme>> {
    params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.build().map_err(|e| {
                SmartError::invalid_input(format!("search point {i} ({}): {e}", p.name))
            })
        })
        .collect()
}

/// The analytic objectives of one scheme (latency and energy from the
/// evaluator report, area exactly from the geometry).
fn objectives_of(scheme: &Scheme, latency: Time, energy: smart_units::Energy) -> Objectives {
    Objectives {
        latency,
        energy,
        area: ChipArea::of(&scheme.spm, scheme.config.shape).total(),
    }
}

/// The points at analytic depth (no ILP metrics, no replay yet), which the
/// later stages fill in place.
fn analytic_points(
    params: Vec<GeometryParams>,
    schemes: Vec<Scheme>,
    objectives: Vec<Objectives>,
) -> Vec<EvaluatedPoint> {
    params
        .into_iter()
        .zip(schemes)
        .zip(objectives)
        .map(|((params, scheme), objectives)| EvaluatedPoint {
            params,
            scheme,
            objectives,
            ilp: None,
            replay: None,
        })
        .collect()
}

/// Sums the ILP allocation metrics of every layer of `model` on `scheme`,
/// compiled through `solver` (warm-started when the caller shares it
/// across neighboring points).
fn ilp_metrics(
    scheme: &Scheme,
    model: &smart_systolic::layer::CnnModel,
    max_iterations: u32,
    solver: &SolverContext,
) -> Result<IlpMetrics> {
    let mut m = IlpMetrics {
        objective: 0.0,
        nodes: 0,
        shift_bytes: 0,
        random_bytes: 0,
        dram_bytes: 0,
    };
    for layer in &model.layers {
        let c = compile_scheme_layer(scheme, layer, max_iterations, solver)?;
        let (shift, random, dram) = c.schedule.bytes_by_location(&c.dag);
        m.objective += c.schedule.objective;
        m.nodes += c.schedule.nodes;
        m.shift_bytes += shift;
        m.random_bytes += random;
        m.dram_bytes += dram;
    }
    Ok(m)
}

/// The survivors grouped into warm-start chains: one block per effective
/// ILP prefetch window (static allocation compiles the same ILPs as a
/// window of 1), each in enumeration order. The window sets the ILP's
/// lifespans and with them its constraint structure, so different windows
/// normally compile different problems and share no stored basis or
/// memoized solution; where two windows do compile the same problem, each
/// block solves it itself. Blocks come widest window first: wider windows
/// cost more pivots, and starting the dearest chains first balances the
/// pool.
fn window_blocks(points: &[EvaluatedPoint], survivors: &[usize]) -> Vec<Vec<usize>> {
    let mut blocks: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for &i in survivors {
        blocks
            .entry(prefetch_window(points[i].scheme.policy))
            .or_default()
            .push(i);
    }
    blocks.into_values().rev().collect()
}

/// Searches `space` through the staged engine: parallel analytic
/// objectives for every point, ε-dominance pruning, warm-started ILP
/// enrichment of the survivors, and cycle-level replay confirmation of the
/// frontier. The frontier is identical to [`search_naive`]'s on the same
/// space and config.
///
/// # Errors
///
/// [`SmartError::InvalidInput`] when a grid point fails geometry
/// validation or elaborates a non-heterogeneous SPM (the replay stages
/// need SHIFT + RANDOM).
pub fn search(
    space: &SearchSpace,
    cfg: &SearchConfig,
    eval: &EvalCache,
    timing: &TimingCache,
) -> Result<SearchOutcome> {
    let params = space.points();
    let schemes = build_schemes(&params)?;
    let eval_before = eval.stats();
    let timing_before = timing.stats();
    let solver_before = timing.solver().stats();

    // Stage 1: analytic objectives for every point, in parallel. Pure
    // values through a single-flight cache — safe and deterministic under
    // any jobs count.
    let objectives: Vec<Objectives> = parallel_map(cfg.jobs.max(1), &schemes, |scheme| {
        let report = eval.report(scheme, cfg.model, cfg.batch);
        objectives_of(scheme, report.total_time, report.energy_per_image())
    });
    for (i, o) in objectives.iter().enumerate() {
        if !o.is_finite() {
            return Err(SmartError::invalid_input(format!(
                "search point {i} ({}) has non-finite objectives: {o:?}",
                params[i].name
            )));
        }
    }

    let survivors = epsilon_survivors(&objectives, cfg.epsilon);
    let frontier = pareto_frontier(&objectives);
    let mut points = analytic_points(params, schemes, objectives);

    // Stage 2: ILP enrichment of the survivors, one warm-start chain per
    // prefetch-window block, the blocks in parallel. Each block compiles
    // in enumeration order through its own fork of the cache's solver
    // context, and the forks are absorbed in block order, so results,
    // counters and stored bytes do not depend on `jobs`.
    let model = cfg.model.build();
    let solver = timing.solver();
    let blocks = window_blocks(&points, &survivors);
    let enriched = parallel_map(cfg.jobs.max(1), &blocks, |block| {
        let fork = solver.fork();
        let metrics: Result<Vec<IlpMetrics>> = block
            .iter()
            .map(|&i| ilp_metrics(&points[i].scheme, &model, cfg.timing.max_iterations, &fork))
            .collect();
        (fork, metrics)
    });
    for (block, (fork, metrics)) in blocks.iter().zip(enriched) {
        solver.absorb(fork);
        for (&i, m) in block.iter().zip(metrics?) {
            points[i].ilp = Some(m);
        }
    }
    let ilp_compiles = survivors.len() as u64 * model.layers.len() as u64;

    // Stage 3: cycle-level confirmation of the frontier only.
    for &i in &frontier {
        let p = &mut points[i];
        let report = timing.report(&p.scheme, cfg.model, &cfg.timing)?;
        let latency = report.total_time();
        p.replay = Some(ReplayCheck {
            latency,
            vs_analytic: latency.as_s() / p.objectives.latency.as_s(),
        });
    }

    let eval_after = eval.stats();
    let timing_after = timing.stats();
    let solver_after = solver.stats();
    let stats = SearchStats {
        space: points.len(),
        pruned: points.len() - survivors.len(),
        survivors: survivors.len(),
        frontier: frontier.len(),
        ilp_compiles,
        // Hits include coalesced waits on in-flight work: the split
        // between the two depends on worker timing, but their sum is
        // deterministic.
        eval_hits: (eval_after.hits + eval_after.coalesced)
            - (eval_before.hits + eval_before.coalesced),
        eval_misses: eval_after.misses - eval_before.misses,
        timing_hits: (timing_after.hits + timing_after.coalesced)
            - (timing_before.hits + timing_before.coalesced),
        timing_misses: timing_after.misses - timing_before.misses,
        warm_attempts: solver_after.warm_attempts - solver_before.warm_attempts,
        warm_hits: solver_after.warm_hits - solver_before.warm_hits,
        cold_solves: solver_after.cold_solves - solver_before.cold_solves,
        solution_hits: solver_after.solution_hits - solver_before.solution_hits,
    };
    Ok(SearchOutcome {
        points,
        survivors,
        frontier,
        stats,
    })
}

/// The baseline the engine's speedup is measured against: every point of
/// the space pays the full cost — a direct (uncached) analytic evaluation,
/// a cold per-config ILP compile of every layer on the config's own fresh
/// [`SolverContext`], and a cold replay for each frontier point. No
/// pruning, no sharing. Produces the exact same frontier as [`search`].
///
/// The per-config work (ILP compile, plus the replay on the frontier)
/// fans out over `cfg.jobs` workers. Results land by config index and the
/// solver counters are summed in config order, so the outcome is the same
/// at any `jobs`.
///
/// # Errors
///
/// As for [`search`]. When several configs fail, the error is that of the
/// lowest-index one (its ILP compile's, else its replay's), at any `jobs`.
pub fn search_naive(space: &SearchSpace, cfg: &SearchConfig) -> Result<SearchOutcome> {
    let params = space.points();
    let schemes = build_schemes(&params)?;
    let model = cfg.model.build();

    let objectives: Vec<Objectives> = schemes
        .iter()
        .map(|scheme| {
            let report = evaluate(scheme, &model, cfg.batch);
            objectives_of(scheme, report.total_time, report.energy_per_image())
        })
        .collect();
    let survivors: Vec<usize> = (0..schemes.len()).collect();
    let frontier = pareto_frontier(&objectives);
    let mut points = analytic_points(params, schemes, objectives);

    let per_config = parallel_map(cfg.jobs.max(1), &survivors, |&i| -> Result<_> {
        let p = &points[i];
        // A fresh context per config: nothing warm-starts, by construction.
        let solver = SolverContext::new();
        let ilp = ilp_metrics(&p.scheme, &model, cfg.timing.max_iterations, &solver)?;
        let replay = match frontier.binary_search(&i) {
            Ok(_) => {
                let latency = simulate_scheme(&p.scheme, &model, &cfg.timing)?.total_time();
                Some(ReplayCheck {
                    latency,
                    vs_analytic: latency.as_s() / p.objectives.latency.as_s(),
                })
            }
            Err(_) => None,
        };
        Ok((ilp, solver.stats(), replay))
    });

    let mut solver_totals = SearchStats::default();
    for (p, config) in points.iter_mut().zip(per_config) {
        let (ilp, s, replay) = config?;
        p.ilp = Some(ilp);
        p.replay = replay;
        solver_totals.warm_attempts += s.warm_attempts;
        solver_totals.warm_hits += s.warm_hits;
        solver_totals.cold_solves += s.cold_solves;
        solver_totals.solution_hits += s.solution_hits;
    }

    let stats = SearchStats {
        space: points.len(),
        pruned: 0,
        survivors: survivors.len(),
        frontier: frontier.len(),
        ilp_compiles: points.len() as u64 * model.layers.len() as u64,
        eval_hits: 0,
        eval_misses: points.len() as u64,
        timing_hits: 0,
        timing_misses: frontier.len() as u64,
        ..solver_totals
    };
    Ok(SearchOutcome {
        points,
        survivors,
        frontier,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SearchSpace {
        SearchSpace {
            windows: vec![None, Some(3)],
            random_banks: vec![256],
            kinds: vec![smart_cryomem::array::RandomArrayKind::PipelinedCmosSfq],
            shift_kb: vec![32, 64],
            random_mb: vec![14, 28],
            shift_banks: 256,
        }
    }

    #[test]
    fn engine_and_naive_agree_on_the_frontier() {
        let space = tiny();
        let cfg = SearchConfig::new(2);
        let eval = EvalCache::new();
        let timing = TimingCache::new();
        let fast = search(&space, &cfg, &eval, &timing).expect("searches");
        let naive = search_naive(&space, &cfg).expect("searches");
        assert_eq!(fast.frontier, naive.frontier);
        for (a, b) in fast.points.iter().zip(&naive.points) {
            assert_eq!(a.objectives, b.objectives);
        }
        // Pruned points carry no ILP metrics; survivors' schedules match
        // the naive run's exactly — warm starts are solution-transparent —
        // though the branch & bound may take a different number of nodes
        // to prove the same optimum.
        for &i in &fast.survivors {
            let (a, b) = (
                fast.points[i].ilp.expect("survivor"),
                naive.points[i].ilp.expect("all naive points"),
            );
            assert_eq!(a.objective, b.objective, "point {i}");
            assert_eq!(
                (a.shift_bytes, a.random_bytes, a.dram_bytes),
                (b.shift_bytes, b.random_bytes, b.dram_bytes),
                "point {i}"
            );
        }
        for (i, p) in fast.points.iter().enumerate() {
            assert_eq!(p.ilp.is_some(), fast.survivors.contains(&i));
            assert_eq!(p.replay.is_some(), fast.frontier.contains(&i));
        }
    }

    #[test]
    fn frontier_is_a_subset_of_survivors() {
        let space = tiny();
        let cfg = SearchConfig::new(1);
        let out = search(&space, &cfg, &EvalCache::new(), &TimingCache::new()).expect("searches");
        for i in &out.frontier {
            assert!(out.survivors.contains(i));
        }
        assert!(out.stats.frontier <= out.stats.survivors);
        assert_eq!(out.stats.space, space.len());
        assert_eq!(out.stats.pruned + out.stats.survivors, out.stats.space);
    }

    /// The tiny space with both window-1 ILP sources (`Pipe` and a=1), which
    /// compile identical problems and so must share one stage-2 block.
    fn three_windows() -> SearchSpace {
        SearchSpace {
            windows: vec![None, Some(1), Some(3)],
            ..tiny()
        }
    }

    #[test]
    fn outcome_is_identical_across_jobs() {
        let space = three_windows();
        let runs: Vec<SearchOutcome> = [1usize, 2, 4]
            .iter()
            .map(|&jobs| {
                let cfg = SearchConfig::new(jobs);
                search(&space, &cfg, &EvalCache::new(), &TimingCache::new()).expect("searches")
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.frontier, runs[0].frontier);
            assert_eq!(run.survivors, runs[0].survivors);
            assert_eq!(run.stats, runs[0].stats);
            for (a, b) in run.points.iter().zip(&runs[0].points) {
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(a.ilp, b.ilp);
                assert_eq!(a.replay, b.replay);
            }
        }
    }

    #[test]
    fn naive_outcome_is_identical_across_jobs() {
        let space = three_windows();
        let runs: Vec<SearchOutcome> = [1usize, 2, 4]
            .iter()
            .map(|&jobs| search_naive(&space, &SearchConfig::new(jobs)).expect("searches"))
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.frontier, runs[0].frontier);
            assert_eq!(run.survivors, runs[0].survivors);
            assert_eq!(run.stats, runs[0].stats);
            for (a, b) in run.points.iter().zip(&runs[0].points) {
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(a.ilp, b.ilp);
                assert_eq!(a.replay, b.replay);
            }
        }
        for (i, p) in runs[0].points.iter().enumerate() {
            assert!(p.ilp.is_some(), "point {i} is compiled");
            assert_eq!(p.replay.is_some(), runs[0].frontier.contains(&i));
        }
    }

    #[test]
    fn traced_search_exports_the_same_trace_across_jobs() {
        let export = |jobs: usize| {
            let tracer = smart_trace::Tracer::enabled();
            let timing = TimingCache::new();
            timing.solver().set_tracer(tracer.clone());
            search(
                &three_windows(),
                &SearchConfig::new(jobs),
                &EvalCache::new(),
                &timing,
            )
            .expect("searches");
            assert!(tracer.event_count() > 0, "solves record spans");
            smart_trace::chrome::export(&tracer).expect("a well-nested trace")
        };
        assert_eq!(export(1), export(2));
    }

    #[test]
    fn warm_engine_reuses_where_naive_cannot() {
        let space = tiny();
        let cfg = SearchConfig::new(1);
        let fast = search(&space, &cfg, &EvalCache::new(), &TimingCache::new()).expect("ok");
        let naive = search_naive(&space, &cfg).expect("ok");
        assert!(
            fast.stats.ilp_compiles <= naive.stats.ilp_compiles,
            "pruning must not add compiles"
        );
        assert_eq!(naive.stats.warm_attempts, 0, "naive never warm-starts");
        assert!(
            fast.stats.warm_attempts + fast.stats.solution_hits > 0,
            "engine reuses bases or memoized solutions: {:?}",
            fast.stats
        );
        assert_eq!(naive.stats.pruned, 0);
    }

    #[test]
    fn replay_confirms_analytic_latency() {
        let out = search(
            &tiny(),
            &SearchConfig::new(2),
            &EvalCache::new(),
            &TimingCache::new(),
        )
        .expect("searches");
        for p in out.frontier_points() {
            let check = p.replay.expect("frontier points are replayed");
            assert!(check.latency.as_s() > 0.0);
            assert!(
                check.vs_analytic > 0.5 && check.vs_analytic < 3.0,
                "replay/analytic = {} for {}",
                check.vs_analytic,
                p.params.name
            );
            let m = p.ilp.expect("frontier points carry ILP metrics");
            assert!(m.resident_fraction() > 0.0);
        }
    }
}
