//! Branch & bound over the LP relaxation, with warm-started node solves,
//! incumbent seeding, and a greedy-rounding fallback.
//!
//! Best-first search on the most-fractional integer variable. The sparse
//! standard form is built **once** per solve; each node only overrides
//! variable bounds (its pins) and warm-starts the dual simplex from its
//! parent's optimal basis, so a child LP typically reoptimizes in a handful
//! of pivots instead of a cold two-phase solve. A caller-supplied incumbent
//! ([`Solver::with_incumbent`] — e.g. the compiler's greedy allocation)
//! seeds the best-bound pruning from node zero, and an incumbent callback
//! ([`Solver::solve_with_callback`]) observes every improvement.
//!
//! The node limit bounds runtime; if it is hit with an incumbent, the
//! incumbent is returned flagged as near-optimal (the paper's compiler is
//! itself only "near-optimal", Sec. 4.3); if no incumbent exists, a greedy
//! rounding repair pass is attempted.

// lint:allow-file(index, branch-and-bound indexes variable arrays sized by the formulation)

use crate::context::{fingerprint, solution_key, SearchWork, SolverContext};
use crate::problem::{Problem, Relation, Sense};
use crate::revised::{Lp, SolveOutcome, SolveTrace, StandardForm, Warm};
use smart_units::{Result, SmartError};
use std::collections::BinaryHeap;
use std::sync::Arc;

const INT_TOL: f64 = 1e-6;

/// Objective granularity for pure-integer objectives: when every variable
/// with a nonzero objective coefficient is integer, any feasible objective
/// is an integer combination of the coefficients, so improving solutions
/// are at least `gcd(coefficients)` apart and nodes inside that window of
/// the incumbent can be pruned *exactly*. Returns 0.0 when no useful
/// granularity exists (continuous objective terms, or a vanishing gcd).
fn objective_granularity(problem: &Problem) -> f64 {
    let mut g = 0.0f64;
    let mut cmax = 0.0f64;
    for v in &problem.variables {
        let c = v.objective.abs();
        if c <= 0.0 {
            continue;
        }
        if !v.integer {
            return 0.0;
        }
        cmax = cmax.max(c);
        g = float_gcd(g, c);
    }
    // Noise floor: a gcd at rounding-error scale is meaningless.
    if g <= 1e-6 * cmax.max(1.0) {
        0.0
    } else {
        g
    }
}

/// Euclid's algorithm on floats, tolerating representation noise.
fn float_gcd(a: f64, b: f64) -> f64 {
    let (mut a, mut b) = (a.max(b), a.min(b));
    if b == 0.0 {
        return a;
    }
    let tol = 1e-9 * a.max(1.0);
    for _ in 0..128 {
        if b <= tol {
            return a;
        }
        let r = a % b;
        let r = if r <= tol || b - r <= tol { 0.0 } else { r };
        a = b;
        b = r;
    }
    0.0
}

/// Solver outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum MipResult {
    /// Proven-optimal integer solution.
    Optimal(MipSolution),
    /// Feasible but not proven optimal (node limit hit).
    Feasible(MipSolution),
    /// No feasible integer point exists.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
}

impl MipResult {
    /// The solution, if any.
    #[must_use]
    pub fn solution(&self) -> Option<&MipSolution> {
        match self {
            Self::Optimal(s) | Self::Feasible(s) => Some(s),
            _ => None,
        }
    }

    /// Converts the outcome into the workspace-wide [`Result`], mapping
    /// [`MipResult::Infeasible`] and [`MipResult::Unbounded`] to their
    /// [`SmartError`] counterparts. The optimal/feasible distinction is
    /// preserved in [`MipSolution::proven_optimal`].
    ///
    /// # Errors
    ///
    /// [`SmartError::Infeasible`] or [`SmartError::Unbounded`],
    /// respectively.
    pub fn into_result(self) -> Result<MipSolution> {
        match self {
            Self::Optimal(s) | Self::Feasible(s) => Ok(s),
            Self::Infeasible => Err(SmartError::infeasible("integer program")),
            Self::Unbounded => Err(SmartError::unbounded("integer program relaxation")),
        }
    }
}

/// An integer-feasible solution.
#[derive(Debug, Clone, PartialEq)]
pub struct MipSolution {
    /// Objective value.
    pub objective: f64,
    /// Variable values in declaration order.
    pub values: Vec<f64>,
    /// Branch & bound nodes explored.
    pub nodes: usize,
    /// `true` when branch & bound proved this solution optimal; `false`
    /// when the node limit stopped the search or the greedy repair pass
    /// produced it.
    pub proven_optimal: bool,
}

impl MipSolution {
    /// Value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn value(&self, var: crate::problem::VarId) -> f64 {
        self.values[var.index()]
    }
}

/// Branch & bound solver.
#[derive(Debug, Clone)]
pub struct Solver {
    node_limit: usize,
    warm_start: bool,
    seed: Option<Vec<f64>>,
}

impl Solver {
    /// Creates a solver with the default node limit (20 000) and
    /// warm-started node relaxations.
    #[must_use]
    pub fn new() -> Self {
        Self {
            node_limit: 20_000,
            warm_start: true,
            seed: None,
        }
    }

    /// Overrides the node limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        assert!(limit > 0, "node limit must be positive");
        self.node_limit = limit;
        self
    }

    /// Disables (or re-enables) warm-starting child relaxations from the
    /// parent's basis. Cold mode exists for A/B verification — the property
    /// suite asserts warm and cold searches reach the same objective.
    #[must_use]
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Seeds the search with a known feasible point (variable values in
    /// declaration order) whose objective becomes the initial best bound.
    ///
    /// The seed is validated against bounds, integrality, and constraints;
    /// an invalid seed is silently ignored (the search then starts with no
    /// incumbent, exactly as without a seed). The compiler seeds its greedy
    /// allocation here, so branch & bound starts pruning immediately and a
    /// node-limited search can never return something worse than greedy.
    #[must_use]
    pub fn with_incumbent(mut self, values: Vec<f64>) -> Self {
        self.seed = Some(values);
        self
    }

    /// Like [`Solver::solve`], but returns the workspace-wide [`Result`]:
    /// infeasible and unbounded programs become [`SmartError`] values
    /// instead of enum variants the caller has to remember to match.
    ///
    /// # Errors
    ///
    /// [`SmartError::Infeasible`] when no integer-feasible point exists and
    /// [`SmartError::Unbounded`] when the relaxation is unbounded.
    pub fn try_solve(&self, problem: &Problem) -> Result<MipSolution> {
        self.solve(problem).into_result()
    }

    /// Like [`Solver::solve_with`], returning the workspace-wide
    /// [`Result`].
    ///
    /// # Errors
    ///
    /// [`SmartError::Infeasible`] or [`SmartError::Unbounded`], as for
    /// [`Solver::try_solve`].
    pub fn try_solve_with(&self, problem: &Problem, ctx: &SolverContext) -> Result<MipSolution> {
        self.solve_with(problem, ctx).into_result()
    }

    /// Solves the problem `build` returns, which `digest` identifies, and
    /// returns the workspace-wide [`Result`]. `build` returns the problem
    /// and its incumbent seed; the seed replaces any set with
    /// [`Solver::with_incumbent`].
    ///
    /// The context remembers which solution key each digest's problem
    /// hashed to. A repeat solve of a known digest whose solution is
    /// memoized returns it without calling `build`, so the problem is
    /// neither built nor hashed; otherwise this is
    /// [`Solver::try_solve_with`] on the built problem.
    ///
    /// `digest` must cover everything `build` reads and this solver's
    /// node limit: two calls with one digest must build the same problem
    /// and seed.
    ///
    /// # Errors
    ///
    /// As for [`Solver::try_solve`].
    pub fn try_solve_formulation(
        &self,
        ctx: &SolverContext,
        digest: u128,
        build: impl FnOnce() -> (Problem, Vec<f64>),
    ) -> Result<MipSolution> {
        if let Some(sol) = ctx
            .formulation_key(digest)
            .and_then(|key| ctx.solution_lookup(key))
        {
            ctx.note_formulation_hit();
            return Ok(MipSolution::clone(&sol));
        }
        let (problem, seed) = build();
        let solver = Self {
            seed: Some(seed),
            ..self.clone()
        };
        let key = solver.key(&problem);
        ctx.formulation_store(digest, key);
        solver
            .solve_impl(&problem, Some((ctx, key)), &mut |_| {})
            .into_result()
    }

    /// Solves the problem.
    #[must_use]
    pub fn solve(&self, problem: &Problem) -> MipResult {
        self.solve_impl(problem, None, &mut |_| {})
    }

    /// Solves the problem, reusing (and contributing to) the context's
    /// stored bases: the root relaxation warm-starts from the basis of the
    /// last structurally-identical problem, which makes sweeps over
    /// right-hand sides (capacities, budgets) reoptimizations instead of
    /// cold solves.
    #[must_use]
    pub fn solve_with(&self, problem: &Problem, ctx: &SolverContext) -> MipResult {
        self.solve_impl(problem, Some((ctx, self.key(problem))), &mut |_| {})
    }

    /// Like [`Solver::solve_with`], invoking `on_incumbent` for every
    /// incumbent the search accepts (the validated seed first, if any,
    /// then each strict improvement it finds). A solve answered from the
    /// context's solution memo runs no search and never calls
    /// `on_incumbent`.
    #[must_use]
    pub fn solve_with_callback(
        &self,
        problem: &Problem,
        ctx: Option<&SolverContext>,
        on_incumbent: &mut dyn FnMut(&MipSolution),
    ) -> MipResult {
        let ctx = ctx.map(|c| (c, self.key(problem)));
        self.solve_impl(problem, ctx, on_incumbent)
    }

    /// The solution-memo key of `problem` under this configuration.
    fn key(&self, problem: &Problem) -> u128 {
        solution_key(
            problem,
            self.seed.as_deref(),
            self.node_limit,
            self.warm_start,
        )
    }

    /// The search; `ctx` carries the context with `problem`'s
    /// solution-memo key.
    fn solve_impl(
        &self,
        problem: &Problem,
        ctx: Option<(&SolverContext, u128)>,
        on_incumbent: &mut dyn FnMut(&MipSolution),
    ) -> MipResult {
        let memo_key = ctx.map(|(_, k)| k);
        let ctx = ctx.map(|(c, _)| c);
        // Exact-match solution memo: branch & bound is deterministic, so a
        // solve of an identical (problem, seed, config) triple replays the
        // stored solution verbatim — objective, values, node count, and
        // optimality flag included — without touching the tree. This is
        // the path that makes warm `--cache-dir` reruns of ILP-heavy
        // experiments near-free, so it runs before any of the search's
        // set-up (standard form, structural fingerprint).
        if let (Some(c), Some(k)) = (ctx, memo_key) {
            if let Some(sol) = c.solution_lookup(k) {
                let sol = MipSolution::clone(&sol);
                return if sol.proven_optimal {
                    MipResult::Optimal(sol)
                } else {
                    MipResult::Feasible(sol)
                };
            }
        }
        let int_vars = problem.integer_vars();
        let sign = match problem.sense {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let form = StandardForm::build(problem);
        let fp = ctx.map(|_| fingerprint(problem));
        // Per-solve trace lane, keyed by the solution memo key so
        // concurrent solves of distinct problems never interleave on one
        // lane. Virtual time is cumulative simplex pivots within this
        // solve; memo-hit replays above emit nothing (no pivots spent).
        let lane = match (ctx.map(|c| c.tracer()), memo_key) {
            (Some(t), Some(k)) if t.is_enabled() => Some(t.lane(&format!("ilp/{k:032x}"))),
            _ => None,
        };
        if let Some(l) = &lane {
            l.begin("solve", 0);
        }
        let granularity = objective_granularity(problem);
        // Pruning margin: a node whose bound cannot beat the incumbent by
        // at least one objective quantum (minus float slack) holds nothing
        // better. Falls back to the plain integrality tolerance.
        let prune_margin = |inc_objective: f64| -> f64 {
            if granularity > 0.0 {
                (granularity - 1e-6 * (1.0 + inc_objective.abs())).max(INT_TOL)
            } else {
                INT_TOL
            }
        };

        // Seed incumbent (validated; ignored when infeasible).
        let mut incumbent: Option<MipSolution> = self
            .seed
            .as_deref()
            .and_then(|vals| validate_seed(problem, vals))
            .map(|(objective, values)| MipSolution {
                objective,
                values,
                nodes: 0,
                proven_optimal: false,
            });
        if let Some(inc) = &incumbent {
            on_incumbent(inc);
        }

        // Root relaxation, warm-started from the context when a basis for
        // this problem structure is stored. One LP workspace lives for the
        // whole search: dives into child nodes reuse its installed
        // factorization (`Warm::Live`).
        let mut lp = Lp::new(&form);
        // lint:allow(panic_freedom, fp is Some whenever ctx is Some; both are derived from the same caller argument)
        let stored = ctx.and_then(|c| c.lookup(fp.expect("fp set with ctx")));
        let mut trace = SolveTrace::default();
        let root_warm = stored.as_deref().map_or(Warm::Cold, Warm::Basis);
        let root_outcome = lp.solve(
            problem,
            form.lower.clone(),
            form.upper.clone(),
            root_warm,
            &mut trace,
            true,
        );
        if let Some(c) = ctx {
            if trace.warm_used {
                c.note_warm_hit();
            } else {
                c.note_cold();
            }
        }
        let mut work = SearchWork {
            pivots: trace.pivots,
            refactorizations: trace.refactorizations,
            ..SearchWork::default()
        };
        if let Some(l) = &lane {
            l.span("root relaxation", 0, work.pivots);
        }
        let (root_values, root_objective, root_basis) = match root_outcome {
            SolveOutcome::Optimal {
                values,
                objective,
                basis,
            } => (values, objective, basis),
            SolveOutcome::Infeasible => {
                if let Some(c) = ctx {
                    c.note_search(&work);
                }
                if let Some(l) = &lane {
                    l.end("solve", work.pivots);
                }
                // A validated seed proves feasibility; trust it over a
                // numerically confused relaxation.
                return match incumbent {
                    Some(s) => MipResult::Feasible(s),
                    None => MipResult::Infeasible,
                };
            }
            SolveOutcome::Unbounded => {
                if let Some(c) = ctx {
                    c.note_search(&work);
                }
                if let Some(l) = &lane {
                    l.end("solve", work.pivots);
                }
                return MipResult::Unbounded;
            }
        };
        let root_arc = root_basis.map(Arc::new);
        if let (Some(c), Some(f), Some(b)) = (ctx, fp, root_arc.clone()) {
            c.store(f, b);
        }

        // Reduced-cost fixing: with an incumbent in hand (the seed), any
        // integer variable sitting at a bound in the root relaxation whose
        // reduced cost already eats the whole optimality gap can be fixed
        // there for the entire search — a strictly better solution cannot
        // move it.
        let mut fixed: Vec<(usize, f64)> = Vec::new();
        if self.warm_start && lp.live_available() {
            if let Some(inc) = &incumbent {
                let gap =
                    root_objective * sign - (inc.objective * sign + prune_margin(inc.objective));
                let d = lp.structural_reduced_costs();
                for &v in &int_vars {
                    let j = v.index();
                    let x = root_values[j];
                    if (x - x.round()).abs() <= INT_TOL && d[j].abs() > gap.max(0.0) {
                        fixed.push((j, x.round()));
                    }
                }
            }
        }

        #[derive(Debug)]
        struct Node {
            bound: f64, // objective * sign (higher = more promising)
            /// Compact branching decisions `(variable, pinned value)` on
            /// the path from the root.
            pins: Vec<(usize, f64)>,
        }
        impl PartialEq for Node {
            fn eq(&self, other: &Self) -> bool {
                self.bound == other.bound
            }
        }
        impl Eq for Node {}
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.bound.total_cmp(&other.bound)
            }
        }

        let mut heap = BinaryHeap::new();
        // The dive slot: the child processed immediately after its parent.
        // Within one search the objective never changes, so the live
        // workspace basis stays *dual feasible* for every node — dives and
        // heap pops alike reoptimize from it with a few dual simplex
        // pivots and no refactorization.
        let mut dive: Option<Node> = Some(Node {
            bound: root_objective * sign,
            pins: Vec::new(),
        });

        let mut nodes = 0usize;

        // Check the limit before taking a node: discarding a popped-but-
        // unexplored node would leave the search empty and misclassify the
        // incumbent as proven optimal below.
        while nodes < self.node_limit {
            let node = match dive.take() {
                Some(node) => node,
                None => match heap.pop() {
                    Some(node) => node,
                    None => break,
                },
            };
            // Best-bound pruning (granularity-aware).
            if let Some(inc) = &incumbent {
                if node.bound <= inc.objective * sign + prune_margin(inc.objective) {
                    work.pruned += 1;
                    continue;
                }
            }
            nodes += 1;
            let warm = if self.warm_start && lp.live_available() {
                Warm::Live
            } else {
                Warm::Cold
            };
            let mut trace = SolveTrace::default();
            let node_t0 = work.pivots;
            let outcome = lp.solve_pinned(problem, &fixed, &node.pins, warm, &mut trace, false);
            work.pivots += trace.pivots;
            work.refactorizations += trace.refactorizations;
            if let Some(l) = &lane {
                l.span(&format!("node {nodes}"), node_t0, work.pivots);
            }
            let (values, objective) = match outcome {
                SolveOutcome::Optimal {
                    values, objective, ..
                } => (values, objective),
                SolveOutcome::Infeasible => {
                    work.infeasible += 1;
                    continue;
                }
                SolveOutcome::Unbounded => {
                    if let Some(c) = ctx {
                        work.nodes = nodes as u64;
                        c.note_search(&work);
                    }
                    if let Some(l) = &lane {
                        l.end("solve", work.pivots);
                    }
                    return MipResult::Unbounded;
                }
            };
            if let Some(inc) = &incumbent {
                if objective * sign <= inc.objective * sign + prune_margin(inc.objective) {
                    work.pruned += 1;
                    continue;
                }
            }

            // Branching variable: among fractional integer variables,
            // weight fractionality by the objective coefficient — driving
            // the heaviest undecided placement to a bound degrades the
            // child bounds fastest, which is what best-bound pruning
            // feeds on.
            let frac_var = int_vars
                .iter()
                .map(|&v| {
                    let frac = (values[v.index()] - values[v.index()].round()).abs();
                    (
                        v,
                        frac,
                        frac * problem.variables[v.index()].objective.abs().max(1.0),
                    )
                })
                .filter(|(_, f, _)| *f > INT_TOL)
                .max_by(|a, b| a.2.total_cmp(&b.2))
                .map(|(v, f, _)| (v, f));

            match frac_var {
                None => {
                    // Integer feasible.
                    work.integral += 1;
                    let better = incumbent
                        .as_ref()
                        .is_none_or(|inc| objective * sign > inc.objective * sign + INT_TOL);
                    if better {
                        let s = MipSolution {
                            objective,
                            values,
                            nodes,
                            proven_optimal: false,
                        };
                        on_incumbent(&s);
                        incumbent = Some(s);
                    }
                }
                Some((v, _)) => {
                    work.branched += 1;
                    let val = values[v.index()];
                    // Dive toward the nearer integer; the sibling waits on
                    // the heap.
                    let (first, second) = if val - val.floor() >= 0.5 {
                        (val.ceil(), val.floor())
                    } else {
                        (val.floor(), val.ceil())
                    };
                    let mut dive_pins = node.pins.clone();
                    dive_pins.push((v.index(), first));
                    let mut sibling_pins = node.pins;
                    sibling_pins.push((v.index(), second));
                    dive = Some(Node {
                        bound: objective * sign,
                        pins: dive_pins,
                    });
                    heap.push(Node {
                        bound: objective * sign,
                        pins: sibling_pins,
                    });
                }
            }
        }

        let exhausted = heap.is_empty() && dive.is_none();
        let result = match incumbent {
            Some(mut s) => {
                s.nodes = nodes;
                if exhausted {
                    s.proven_optimal = true;
                    MipResult::Optimal(s)
                } else {
                    MipResult::Feasible(s)
                }
            }
            None => {
                // Greedy fallback: round the root relaxation and check.
                greedy_round(problem, &root_values, nodes)
            }
        };
        if let Some(c) = ctx {
            work.nodes = nodes as u64;
            c.note_search(&work);
        }
        if let Some(l) = &lane {
            l.end("solve", work.pivots);
        }
        if let (Some(c), Some(k)) = (ctx, memo_key) {
            if let MipResult::Optimal(s) | MipResult::Feasible(s) = &result {
                c.solution_store(k, Arc::new(s.clone()));
            }
        }
        result
    }
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

/// Validates a seed incumbent: bounds, integrality of integer variables,
/// and every constraint within a scaled tolerance. Returns the recomputed
/// objective and the values on success.
fn validate_seed(problem: &Problem, values: &[f64]) -> Option<(f64, Vec<f64>)> {
    if values.len() != problem.num_vars() {
        return None;
    }
    for (i, v) in problem.variables.iter().enumerate() {
        let x = values[i];
        if !x.is_finite() || x < v.lower - INT_TOL || x > v.upper + INT_TOL {
            return None;
        }
        if v.integer && (x - x.round()).abs() > INT_TOL {
            return None;
        }
    }
    for c in &problem.constraints {
        let lhs: f64 = c.terms.iter().map(|(v, k)| k * values[v.index()]).sum();
        let tol = 1e-6 * (1.0 + c.rhs.abs());
        let ok = match c.relation {
            Relation::Le => lhs <= c.rhs + tol,
            Relation::Ge => lhs >= c.rhs - tol,
            Relation::Eq => (lhs - c.rhs).abs() <= tol,
        };
        if !ok {
            return None;
        }
    }
    let objective = problem
        .variables
        .iter()
        .enumerate()
        .map(|(i, v)| v.objective * values[i])
        .sum();
    Some((objective, values.to_vec()))
}

/// Rounds integer variables of an LP point and repairs feasibility by
/// flipping binaries greedily (switching offenders to zero). Returns
/// `Feasible` on success, `Infeasible` if the repair fails.
fn greedy_round(problem: &Problem, lp_values: &[f64], nodes: usize) -> MipResult {
    let mut values = lp_values.to_vec();
    for v in problem.integer_vars() {
        values[v.index()] = values[v.index()].round();
    }
    // Repair loop: while some constraint is violated, zero out the binary
    // with the largest contribution to the violation.
    for _ in 0..problem.num_vars() + 1 {
        let mut violated = None;
        for c in &problem.constraints {
            let lhs: f64 = c.terms.iter().map(|(v, k)| k * values[v.index()]).sum();
            let bad = match c.relation {
                Relation::Le => lhs > c.rhs + 1e-6,
                Relation::Ge => lhs < c.rhs - 1e-6,
                Relation::Eq => (lhs - c.rhs).abs() > 1e-6,
            };
            if bad {
                violated = Some(c);
                break;
            }
        }
        let Some(c) = violated else {
            let objective = problem
                .variables
                .iter()
                .enumerate()
                .map(|(i, v)| v.objective * values[i])
                .sum();
            return MipResult::Feasible(MipSolution {
                objective,
                values,
                nodes,
                proven_optimal: false,
            });
        };
        // Flip the binary with the largest |coefficient| that is currently 1
        // (for Le) or 0 (for Ge).
        let want_zero = matches!(c.relation, Relation::Le | Relation::Eq);
        let candidate = c
            .terms
            .iter()
            .filter(|(v, _)| problem.variables[v.index()].integer)
            .filter(|(v, _)| {
                let x = values[v.index()];
                if want_zero {
                    x > 0.5
                } else {
                    x < 0.5
                }
            })
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
        match candidate {
            Some((v, _)) => values[v.index()] = if want_zero { 0.0 } else { 1.0 },
            None => return MipResult::Infeasible,
        }
    }
    MipResult::Infeasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense};

    #[test]
    fn knapsack_integer_optimum() {
        // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 7 => a=0,b=1,c=1: 10 vs
        // a=1: 10 (5 used, nothing else fits but c? 5+3=8>7). a+c infeasible.
        // Optimal: b+c = 10 or a alone = 10: both 10.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.set_objective(a, 10.0);
        p.set_objective(b, 6.0);
        p.set_objective(c, 4.0);
        p.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Relation::Le, 7.0);
        let r = Solver::new().solve(&p);
        let s = r.solution().expect("solution");
        assert!((s.objective - 10.0).abs() < 1e-6, "z = {}", s.objective);
        // Solution is integral.
        for v in &s.values {
            assert!((v - v.round()).abs() < 1e-6);
        }
    }

    #[test]
    fn branching_beats_rounding() {
        // max 9a + 9b + 16c s.t. 5a + 5b + 8c <= 10: LP picks c + fractional;
        // integer optimum is a + b = 18.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        let r = Solver::new().solve(&p);
        let s = r.solution().expect("solution");
        assert!((s.objective - 18.0).abs() < 1e-6, "z = {}", s.objective);
        assert!(matches!(r, MipResult::Optimal(_)));
    }

    #[test]
    fn assignment_problem() {
        // 2x2 assignment: costs [[1, 10], [10, 1]]; minimize.
        let mut p = Problem::new(Sense::Minimize);
        let x00 = p.binary("x00");
        let x01 = p.binary("x01");
        let x10 = p.binary("x10");
        let x11 = p.binary("x11");
        p.set_objective(x00, 1.0);
        p.set_objective(x01, 10.0);
        p.set_objective(x10, 10.0);
        p.set_objective(x11, 1.0);
        for row in [[x00, x01], [x10, x11]] {
            p.add_constraint(&[(row[0], 1.0), (row[1], 1.0)], Relation::Eq, 1.0);
        }
        for col in [[x00, x10], [x01, x11]] {
            p.add_constraint(&[(col[0], 1.0), (col[1], 1.0)], Relation::Eq, 1.0);
        }
        let r = Solver::new().solve(&p);
        let s = r.solution().expect("solution");
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!((s.value(x00) - 1.0).abs() < 1e-6);
        assert!((s.value(x11) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn try_solve_knapsack_that_must_branch() {
        // max 9a + 9b + 16c s.t. 5a + 5b + 8c <= 10: the LP relaxation is
        // fractional (c = 1, a = 0.2), so branch & bound must actually
        // branch to find the integer optimum a + b = 18.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        let s = Solver::new().try_solve(&p).expect("feasible knapsack");
        assert!((s.objective - 18.0).abs() < 1e-6, "z = {}", s.objective);
        assert!(s.proven_optimal);
        assert!(
            s.nodes > 1,
            "must have branched, explored {} nodes",
            s.nodes
        );
    }

    #[test]
    fn node_limit_never_claims_optimality_with_open_nodes() {
        // With a node limit too small to finish the search, the solver must
        // not report Optimal / proven_optimal: open nodes remain on the
        // heap (a popped-but-unexplored node must not be discarded).
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        for limit in 1..4 {
            let r = Solver::new().with_node_limit(limit).solve(&p);
            assert!(
                !matches!(r, MipResult::Optimal(_)),
                "limit {limit}: claimed optimal with open nodes"
            );
            if let Some(s) = r.solution() {
                assert!(!s.proven_optimal, "limit {limit}");
            }
        }
        // A generous limit does prove optimality.
        let s = Solver::new().try_solve(&p).expect("feasible");
        assert!(s.proven_optimal && (s.objective - 18.0).abs() < 1e-6);
    }

    #[test]
    fn try_solve_reports_infeasible() {
        // Two binaries cannot sum to 3: Err(Infeasible), not a panic.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        p.set_objective(a, 1.0);
        p.add_constraint(&[(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        let err = Solver::new().try_solve(&p).unwrap_err();
        assert!(matches!(err, SmartError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn try_solve_reports_unbounded() {
        // A free continuous variable with positive objective and no upper
        // bound: Err(Unbounded), not a panic.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.set_objective(a, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(a, 1.0), (y, 1.0)], Relation::Ge, 0.0);
        let err = Solver::new().try_solve(&p).unwrap_err();
        assert!(matches!(err, SmartError::Unbounded { .. }), "{err}");
    }

    #[test]
    fn infeasible_integer_program() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        p.set_objective(a, 1.0);
        p.add_constraint(&[(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        assert_eq!(Solver::new().solve(&p), MipResult::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 3a + y s.t. a + y <= 2.5, y <= 2 (a binary, y continuous):
        // a = 1, y = 1.5 => 4.5.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let y = p.continuous("y", 0.0, 2.0);
        p.set_objective(a, 3.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(a, 1.0), (y, 1.0)], Relation::Le, 2.5);
        let r = Solver::new().solve(&p);
        let s = r.solution().expect("solution");
        assert!((s.objective - 4.5).abs() < 1e-6, "z = {}", s.objective);
    }

    #[test]
    fn node_limit_returns_feasible() {
        // A problem big enough to hit a 1-node limit after the root: the
        // solver should still produce something via incumbent or greedy.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| p.binary(&format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, 1.0 + (i as f64) * 0.1);
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Relation::Le, 6.0);
        let r = Solver::new().with_node_limit(1).solve(&p);
        assert!(r.solution().is_some());
    }

    #[test]
    fn larger_cover_problem_solves() {
        // Select minimum-weight cover: 20 binaries, pair constraints.
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..20).map(|i| p.binary(&format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, 1.0 + f64::from(u32::try_from(i % 3).unwrap()));
        }
        for i in 0..19 {
            p.add_constraint(&[(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 1.0);
        }
        let r = Solver::new().solve(&p);
        let s = r.solution().expect("solution");
        // A valid vertex cover of a path of 20 nodes needs >= 9 nodes.
        let chosen = s.values.iter().filter(|&&v| v > 0.5).count();
        assert!(chosen >= 9);
    }

    fn branchy_knapsack() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        p
    }

    #[test]
    fn warm_and_cold_searches_agree() {
        let p = branchy_knapsack();
        let warm = Solver::new().try_solve(&p).expect("warm");
        let cold = Solver::new()
            .with_warm_start(false)
            .try_solve(&p)
            .expect("cold");
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!(warm.proven_optimal && cold.proven_optimal);
    }

    #[test]
    fn seeded_incumbent_prunes_and_is_never_lost() {
        let p = branchy_knapsack();
        // Optimal seed: the search only has to prove it.
        let s = Solver::new()
            .with_incumbent(vec![1.0, 1.0, 0.0])
            .try_solve(&p)
            .expect("feasible");
        assert!((s.objective - 18.0).abs() < 1e-9);
        assert!(s.proven_optimal);
        // Suboptimal seed: the search must still find the optimum.
        let s = Solver::new()
            .with_incumbent(vec![0.0, 0.0, 1.0])
            .try_solve(&p)
            .expect("feasible");
        assert!((s.objective - 18.0).abs() < 1e-6);
        // With a 1-node limit and a seed, the seed survives.
        let r = Solver::new()
            .with_incumbent(vec![0.0, 0.0, 1.0])
            .with_node_limit(1)
            .solve(&p);
        let s = r.solution().expect("seed survives");
        assert!(s.objective >= 16.0 - 1e-9);
    }

    #[test]
    fn invalid_seed_is_ignored() {
        let p = branchy_knapsack();
        for bad in [
            vec![1.0, 1.0, 1.0],      // violates the capacity
            vec![0.5, 0.0, 0.0],      // fractional binary
            vec![2.0, 0.0, 0.0],      // out of bounds
            vec![1.0, 1.0],           // wrong arity
            vec![f64::NAN, 0.0, 0.0], // non-finite
        ] {
            let s = Solver::new()
                .with_incumbent(bad.clone())
                .try_solve(&p)
                .expect("solvable");
            assert!(
                (s.objective - 18.0).abs() < 1e-6,
                "seed {bad:?} corrupted the search: {}",
                s.objective
            );
        }
    }

    #[test]
    fn incumbent_callback_observes_seed_and_improvements() {
        let p = branchy_knapsack();
        let mut seen: Vec<f64> = Vec::new();
        let r = Solver::new()
            .with_incumbent(vec![0.0, 0.0, 1.0])
            .solve_with_callback(&p, None, &mut |s| seen.push(s.objective));
        assert!(matches!(r, MipResult::Optimal(_)));
        assert!(seen.len() >= 2, "seed + at least one improvement: {seen:?}");
        assert!((seen[0] - 16.0).abs() < 1e-9, "first is the seed");
        assert!(
            seen.windows(2).all(|w| w[1] > w[0]),
            "monotone improvements: {seen:?}"
        );
        assert!((seen.last().unwrap() - 18.0).abs() < 1e-6);
    }

    #[test]
    fn context_reuses_bases_across_rhs_sweep() {
        // The same knapsack structure at shrinking capacities: every solve
        // after the first should warm-start from the stored basis.
        let ctx = SolverContext::new();
        let mut objectives = Vec::new();
        for cap in [10.0, 9.0, 8.0, 7.0] {
            let mut p = Problem::new(Sense::Maximize);
            let a = p.binary("a");
            let b = p.binary("b");
            let c = p.binary("c");
            p.set_objective(a, 9.0);
            p.set_objective(b, 9.0);
            p.set_objective(c, 16.0);
            p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, cap);
            let s = Solver::new().try_solve_with(&p, &ctx).expect("feasible");
            objectives.push(s.objective);
        }
        // cap 10: a+b = 18; caps 9 and 8: c = 16; cap 7: a alone = 9.
        assert_eq!(objectives, vec![18.0, 16.0, 16.0, 9.0]);
        let stats = ctx.stats();
        assert_eq!(stats.stored_bases, 1, "one structure, one stored basis");
        assert!(
            stats.warm_attempts >= 3,
            "later sweep points warm-start: {stats:?}"
        );
        assert!(stats.warm_hits >= 1, "{stats:?}");
    }

    #[test]
    fn context_solutions_match_contextless_solutions() {
        let ctx = SolverContext::new();
        for cap in [10.0, 7.0, 12.0, 5.0] {
            let mut p = branchy_knapsack();
            p.constraints[0].rhs = cap;
            let with_ctx = Solver::new().solve_with(&p, &ctx);
            let without = Solver::new().solve(&p);
            match (&with_ctx, &without) {
                (MipResult::Optimal(a), MipResult::Optimal(b)) => {
                    assert!(
                        (a.objective - b.objective).abs() < 1e-9,
                        "cap {cap}: {} vs {}",
                        a.objective,
                        b.objective
                    );
                }
                _ => assert_eq!(with_ctx, without, "cap {cap}"),
            }
        }
    }
}
