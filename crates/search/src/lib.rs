//! Design-space search over generated accelerator geometries.
//!
//! The paper evaluates one hand-picked SMART geometry; this crate turns the
//! [`smart_core::geometry::GeometryParams`] generator into a search engine
//! that sweeps *thousands* of geometries and returns the latency × energy ×
//! area Pareto frontier, as fast as the substrate allows:
//!
//! * [`SearchSpace`] enumerates a geometry grid in **neighbor order** —
//!   capacity axes innermost — so consecutive design points differ only in
//!   the right-hand sides of their allocation ILPs and the shared
//!   [`SolverContext`](smart_core::SolverContext) warm-starts each config
//!   from an adjacent basis (technology axes outermost reuse solutions
//!   verbatim through the exact-match memo: the memory *kind* never enters
//!   the formulation).
//! * [`search`] batch-evaluates every point's analytic objectives through
//!   the shared [`EvalCache`](smart_core::cache::EvalCache) with a
//!   [`parallel_map`](smart_report::pool::parallel_map) fan-out, then
//!   **prunes**: points ε-dominated on those cheap analytic objectives
//!   never reach the expensive stage. Only the surviving near-frontier
//!   band is compiled by the ILP (warm-started, in traversal order within
//!   each prefetch window, the windows in parallel), and only the frontier
//!   itself is confirmed by the `smart-timing` cycle-level replay.
//! * [`search_naive`] is the baseline the speedup is measured against:
//!   per-config cold solves for every point of the space, no caches, no
//!   pruning, the configs fanned out over the same `jobs` workers. It
//!   must — and the tests assert it does — produce the exact same
//!   frontier.
//!
//! Everything is deterministic: objectives are pure values, pruning is a
//! pure function of them, each ILP warm-start chain runs in canonical
//! enumeration order on its own solver fork, and the replay stage runs in
//! canonical order, so the frontier is identical across `--jobs` values
//! and cold-vs-warm cache runs.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod pareto;
pub mod space;

pub use engine::{
    search, search_naive, EvaluatedPoint, IlpMetrics, ReplayCheck, SearchConfig, SearchOutcome,
    SearchStats,
};
pub use pareto::{dominates, epsilon_survivors, pareto_frontier, Objectives};
pub use space::SearchSpace;
