//! Sparse revised simplex with bounded variables and warm starts — the
//! solver's hot path.
//!
//! The LP is held in standard form `A x + s = b` over a compressed sparse
//! column (`StandardForm`) matrix: one slack column per row (`Le` rows get
//! `s >= 0`, `Ge` rows `s <= 0`, `Eq` rows `s = 0`) and *no* explicit
//! upper-bound rows — variable bounds are handled implicitly by the
//! bounded-variable ratio test, which shrinks the basis from
//! `constraints + bounds` rows (the old dense tableau) to `constraints`
//! rows. Rows are scaled by their largest coefficient and the objective by
//! its largest coefficient, so absolute tolerances are meaningful even for
//! byte-sized formulation coefficients.
//!
//! Only an `m x m` basis inverse is maintained (product-form updates with
//! periodic refactorization); pricing walks the sparse columns. An `Lp`
//! workspace is long-lived — branch & bound keeps one per search — and a
//! solve can start three ways (`Warm`):
//!
//! * **`Live`**: the workspace still holds the optimal basis and inverse of
//!   the *previous* solve (the parent node, when the search dives into a
//!   child). Only the bounds change; a few *dual simplex* pivots restore
//!   primal feasibility with no refactorization at all.
//! * **`Basis`**: a stored [`Basis`] from an earlier solve (a sibling
//!   subtree popped off the best-first heap, or a
//!   [`crate::context::SolverContext`] hit from an adjacent sweep point).
//!   The inverse is rebuilt once, then dual (bound/rhs changes) or primal
//!   (objective changes) reoptimization proceeds as above.
//! * **`Cold`**: slack basis, artificial columns only on infeasible rows,
//!   then phase two.
//!
//! # Following the sparsity of `B^-1`
//!
//! The inverse is stored dense, but on the compiler's LPs it is only a few
//! percent nonzero. The workspace therefore keeps a nonzero pattern per
//! row and per column of `B^-1`: bitsets of `ceil(m / 64)` words, each a
//! superset of the line's nonzeros. A refactorization rebuilds them
//! exactly; a product-form pivot ORs in exactly the positions it writes
//! (the updated rows times the pivot row's nonzero columns). Every
//! product with the inverse walks set bits in ascending order instead of
//! whole rows or columns: `y = c_B^T B^-1` and `xb` along row patterns,
//! `ftran` along column patterns, the dual ratio test's row
//! `alpha = rho^T A` from `rho`'s nonzeros through a row-wise (CSR) copy
//! of `A`, and the pivot-row scan of the update. The refactorization runs
//! Gauss-Jordan over the row and column patterns of `[B | I]` in a
//! workspace (`GaussJordan`) that each `Lp` allocates once and reuses.
//!
//! The results are the dense loops' results bit for bit. Each output
//! element still sums its terms in the same order; only terms with a zero
//! factor are skipped. Every accumulator starts at `+0.0`, and an IEEE sum
//! of finite values is `-0.0` only when both addends are, so it never
//! becomes `-0.0`. Adding `x * 0.0` (a signed zero, as `x` is finite)
//! to such an accumulator changes no bit. The pivot choices, the ties
//! among them, and hence every pivot count, node count and output byte
//! are unchanged. The `sparse_kernels_match_dense_bit_for_bit` test
//! mirrors the inverse with the dense kernels and checks every product
//! after every pivot and refactorization.
//!
//! The dense tableau implementation survives in [`crate::dense`] as the
//! reference oracle for the property suite.

// lint:allow-file(index, revised simplex kernel; basis and factor indices are maintained invariants of the algorithm, exercised by the property tests)

use crate::problem::{Problem, Relation, Sense};
use crate::simplex::{LpResult, LpSolution};

/// Primal feasibility tolerance (on row-scaled values).
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility tolerance (on objective-scaled reduced costs).
const DUAL_TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-8;
/// Iteration cap per simplex phase (anti-runaway).
const MAX_ITERS: usize = 50_000;
/// Basis-inverse refactorization interval (bounds drift).
const REFACTOR_EVERY: usize = 64;
/// Degenerate steps tolerated before switching to Bland's rule.
const STALL_LIMIT: usize = 30;

/// Bound status of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
}

/// A simplex basis: the basic column of every row plus each column's bound
/// status. It is small (O(rows + columns) integers), cheap to clone, and
/// the unit of warm-start reuse — between branch & bound nodes and, through
/// [`crate::context::SolverContext`], between whole solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    pub(crate) basic: Vec<usize>,
    pub(crate) status: Vec<Status>,
}

/// Standard-form LP: CSC structural columns, implicit unit slack columns,
/// row/objective scaling, and default (node-independent) bounds.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    pub m: usize,
    pub n_struct: usize,
    /// Structural + slack columns.
    pub n_total: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    val: Vec<f64>,
    /// The same structural entries row by row (CSR), columns ascending
    /// within a row: the dual ratio test prices `rho^T A` from `rho`'s
    /// nonzeros through it.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    row_val: Vec<f64>,
    /// Row-scaled right-hand sides.
    pub rhs: Vec<f64>,
    /// Internal objective: max-sense, divided by the largest |coefficient|.
    pub obj: Vec<f64>,
    /// Default lower bounds, length `n_total`.
    pub lower: Vec<f64>,
    /// Default upper bounds, length `n_total`.
    pub upper: Vec<f64>,
    /// The factor the internal objective was divided by (for mapping
    /// reduced costs back to original units).
    pub obj_scale: f64,
}

impl StandardForm {
    /// Builds the scaled standard form of a [`Problem`].
    pub(crate) fn build(p: &Problem) -> Self {
        let n = p.variables.len();
        let m = p.constraints.len();
        let sign = match p.sense {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };

        // Row scales: largest |coefficient| per row.
        let row_scale: Vec<f64> = p
            .constraints
            .iter()
            .map(|c| {
                c.terms
                    .iter()
                    .map(|(_, k)| k.abs())
                    .fold(0.0f64, f64::max)
                    .max(1e-12)
            })
            .collect();

        // Gather per-column entries (accumulating duplicates).
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (i, c) in p.constraints.iter().enumerate() {
            for &(v, k) in &c.terms {
                cols[v.index()].push((i, k / row_scale[i]));
            }
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut val = Vec::new();
        col_ptr.push(0);
        for entries in &mut cols {
            entries.sort_unstable_by_key(|&(r, _)| r);
            let mut last_row = usize::MAX;
            for &(r, v) in entries.iter() {
                if r == last_row {
                    // lint:allow(panic_freedom, last_mut follows the push in this same loop iteration)
                    *val.last_mut().expect("entry just pushed") += v;
                } else {
                    row_idx.push(r);
                    val.push(v);
                    last_row = r;
                }
            }
            col_ptr.push(row_idx.len());
        }

        // CSR copy: a counting sort by row; walking the columns in order
        // keeps each row's columns ascending.
        let mut row_ptr = vec![0; m + 1];
        for &r in &row_idx {
            row_ptr[r + 1] += 1;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0; row_idx.len()];
        let mut row_val = vec![0.0; row_idx.len()];
        for j in 0..n {
            for k in col_ptr[j]..col_ptr[j + 1] {
                let slot = &mut next[row_idx[k]];
                col_idx[*slot] = j;
                row_val[*slot] = val[k];
                *slot += 1;
            }
        }

        let obj_scale = p
            .variables
            .iter()
            .map(|v| v.objective.abs())
            .fold(0.0f64, f64::max)
            .max(1e-12);

        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        let mut obj = Vec::with_capacity(n + m);
        for v in &p.variables {
            lower.push(v.lower);
            upper.push(v.upper);
            obj.push(sign * v.objective / obj_scale);
        }
        let mut rhs = Vec::with_capacity(m);
        for (i, c) in p.constraints.iter().enumerate() {
            rhs.push(c.rhs / row_scale[i]);
            let (lo, up) = match c.relation {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(up);
            obj.push(0.0);
        }

        Self {
            m,
            n_struct: n,
            n_total: n + m,
            col_ptr,
            row_idx,
            val,
            row_ptr,
            col_idx,
            row_val,
            rhs,
            obj,
            lower,
            upper,
            obj_scale,
        }
    }

    /// Effective bounds under branch & bound pins (`x[i] = v`).
    pub(crate) fn bounds_with_pins(&self, pins: &[Option<f64>]) -> (Vec<f64>, Vec<f64>) {
        let mut lo = self.lower.clone();
        let mut up = self.upper.clone();
        for (i, pin) in pins.iter().enumerate() {
            if let Some(v) = *pin {
                lo[i] = v;
                up[i] = v;
            }
        }
        (lo, up)
    }
}

/// How one LP solve ended.
#[derive(Debug)]
pub(crate) enum SolveOutcome {
    /// Optimal: structural values, true-objective value, and the final
    /// basis (absent when a redundant row kept an artificial basic).
    Optimal {
        values: Vec<f64>,
        objective: f64,
        basis: Option<Basis>,
    },
    Infeasible,
    Unbounded,
}

/// How to start a solve (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Warm<'a> {
    /// Continue from the workspace's still-installed previous basis.
    Live,
    /// Rebuild the inverse from a stored basis, then reoptimize.
    Basis(&'a Basis),
    /// Slack basis + phase one.
    Cold,
}

/// Per-solve instrumentation (aggregated by the solver/context layers).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SolveTrace {
    /// A warm start (live or stored basis) was actually used — no cold
    /// fallback.
    pub warm_used: bool,
    /// Simplex pivots this solve performed (both phases).
    pub pivots: u64,
    /// Basis-inverse refactorizations this solve performed.
    pub refactorizations: u64,
}

/// One-shot relaxation solve used by the public `solve_relaxation` API and
/// unit tests: fresh workspace, bounds from pins, mapped to [`LpResult`].
pub(crate) fn solve_with_pins(
    form: &StandardForm,
    p: &Problem,
    pins: &[Option<f64>],
    warm: Option<&Basis>,
    trace: &mut SolveTrace,
) -> (LpResult, Option<Basis>) {
    let (lo, up) = if pins.is_empty() {
        (form.lower.clone(), form.upper.clone())
    } else {
        form.bounds_with_pins(pins)
    };
    let mut lp = Lp::new(form);
    let warm = warm.map_or(Warm::Cold, Warm::Basis);
    match lp.solve(p, lo, up, warm, trace, true) {
        SolveOutcome::Optimal {
            values,
            objective,
            basis,
        } => (LpResult::Optimal(LpSolution { objective, values }), basis),
        SolveOutcome::Infeasible => (LpResult::Infeasible, None),
        SolveOutcome::Unbounded => (LpResult::Unbounded, None),
    }
}

enum PrimalEnd {
    Optimal,
    Unbounded,
    IterLimit,
}

enum DualEnd {
    PrimalFeasible,
    Infeasible,
    Stalled,
}

/// A reusable LP workspace: the standard form plus node bounds, artificial
/// columns, basis, dense basis inverse, and basic values. Branch & bound
/// keeps one alive for the whole search so a dive into a child node reuses
/// the just-computed factorization (`Warm::Live`).
pub(crate) struct Lp<'a> {
    form: &'a StandardForm,
    /// Bounds over structural + slack + artificial columns.
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Artificial columns as `(row, sign)` unit vectors.
    art: Vec<(usize, f64)>,
    /// Current-phase objective (length of `lo`).
    obj: Vec<f64>,
    /// Primal feasibility tolerance of each column (see [`bound_tol`]),
    /// refreshed whenever `lo`/`up` change.
    tol: Vec<f64>,
    basic: Vec<usize>,
    status: Vec<Status>,
    /// Row-major m x m basis inverse.
    binv: Vec<f64>,
    /// Nonzero patterns of `binv`: per row (columns) and per column
    /// (rows). Supersets of the nonzeros; exact after a refactorization.
    binv_rows: Patterns,
    binv_cols: Patterns,
    /// Values of the basic variables, by row.
    xb: Vec<f64>,
    pivots: usize,
    /// Lifetime pivot / refactorization tallies (never reset; solve entry
    /// points report per-solve deltas through [`SolveTrace`]).
    total_pivots: u64,
    total_refactors: u64,
    /// The workspace holds a clean optimal basis (no artificials basic)
    /// from the previous solve, usable via [`Warm::Live`].
    live_ok: bool,
    /// `y = c_B^T B^-1` for the installed basis and current-phase
    /// objective while `y_valid` holds; a pivot, a refactorization or an
    /// objective change clears `y_valid` (see [`Lp::refresh_y`]).
    y: Vec<f64>,
    y_valid: bool,
    /// Scratch buffers (avoid per-iteration allocation).
    scratch_w: Vec<f64>,
    scratch_d: Vec<f64>,
    scratch_a: Vec<f64>,
    scratch_t: Vec<f64>,
    /// Columns the dual ratio test's `alpha` row touched.
    touched: Vec<u64>,
    /// Scaled pivot-row nonzeros, their column mask, and the mask of the
    /// rows a pivot updated.
    pivot_pairs: Vec<(usize, f64)>,
    pivot_cols: Vec<u64>,
    updated_rows: Vec<u64>,
    /// Refactorization workspace (allocated on first use).
    gauss: GaussJordan,
    /// Columns whose bounds differ from the form's defaults (the pins of
    /// the last solve).
    pinned: Vec<usize>,
    /// `(column, old lower, old upper)` for every column whose bounds the
    /// last `solve_pinned` may have changed, ascending. While
    /// `changes_known` holds, every other column keeps the bounds the
    /// installed basic values were computed under (incremental rebinds on
    /// live dives).
    changed: Vec<(usize, f64, f64)>,
    changes_known: bool,
    /// Dense mirror of the inverse that checks every kernel bit for bit.
    #[cfg(test)]
    audit: Option<tests::Audit>,
}

impl<'a> Lp<'a> {
    pub(crate) fn new(form: &'a StandardForm) -> Self {
        let m = form.m;
        let mut lp = Self {
            form,
            lo: form.lower.clone(),
            up: form.upper.clone(),
            art: Vec::new(),
            obj: form.obj.clone(),
            tol: Vec::new(),
            basic: (0..m).map(|i| form.n_struct + i).collect(),
            status: vec![Status::Lower; form.n_total],
            binv: vec![0.0; m * m],
            binv_rows: Patterns::new(m, m),
            binv_cols: Patterns::new(m, m),
            xb: vec![0.0; m],
            pivots: 0,
            total_pivots: 0,
            total_refactors: 0,
            live_ok: false,
            y: vec![0.0; m],
            y_valid: false,
            scratch_w: vec![0.0; m],
            scratch_d: Vec::new(),
            scratch_a: Vec::new(),
            scratch_t: Vec::new(),
            touched: Vec::new(),
            pivot_pairs: Vec::new(),
            pivot_cols: vec![0; m.div_ceil(64)],
            updated_rows: vec![0; m.div_ceil(64)],
            gauss: GaussJordan::default(),
            pinned: Vec::new(),
            changed: Vec::new(),
            changes_known: false,
            #[cfg(test)]
            audit: None,
        };
        lp.refresh_tols();
        lp
    }

    /// Recomputes every column's feasibility tolerance from `lo`/`up`.
    fn refresh_tols(&mut self) {
        self.tol.clear();
        let bounds = self.lo.iter().zip(&self.up);
        self.tol.extend(bounds.map(|(&lo, &up)| bound_tol(lo, up)));
    }

    /// Solves with compact pins `(variable, value)` applied over the
    /// form's default bounds — the branch & bound node path. `base` holds
    /// search-wide fixings (reduced-cost fixing), `pins` the node's
    /// branching decisions. Only the columns pinned by the previous solve
    /// or by this one are touched: the former return to their defaults,
    /// the latter take their pins, and each one's old bounds are kept for
    /// the incremental rebind of a live dive.
    pub(crate) fn solve_pinned(
        &mut self,
        p: &Problem,
        base: &[(usize, f64)],
        pins: &[(usize, f64)],
        warm: Warm,
        trace: &mut SolveTrace,
        want_basis: bool,
    ) -> SolveOutcome {
        self.drop_artificials();
        #[cfg(test)]
        self.audit_bounds(true);
        self.changed.clear();
        for &j in &self.pinned {
            self.changed.push((j, self.lo[j], self.up[j]));
            self.lo[j] = self.form.lower[j];
            self.up[j] = self.form.upper[j];
        }
        self.pinned.clear();
        for &(j, v) in base.iter().chain(pins) {
            self.changed.push((j, self.lo[j], self.up[j]));
            self.lo[j] = v;
            self.up[j] = v;
            self.pinned.push(j);
        }
        // The first record of a column holds its bounds before this call.
        self.changed.sort_by_key(|c| c.0);
        self.changed.dedup_by_key(|c| c.0);
        for &(j, _, _) in &self.changed {
            self.tol[j] = bound_tol(self.lo[j], self.up[j]);
        }
        self.changes_known = true;
        self.solve_prepared(p, warm, trace, want_basis)
    }

    /// Whether [`Warm::Live`] is currently possible.
    pub(crate) fn live_available(&self) -> bool {
        self.live_ok
    }

    /// Solves under the given bounds. `Live`/`Basis` fall back to a cold
    /// start if the warm basis cannot be reused.
    pub(crate) fn solve(
        &mut self,
        p: &Problem,
        lo: Vec<f64>,
        up: Vec<f64>,
        warm: Warm,
        trace: &mut SolveTrace,
        want_basis: bool,
    ) -> SolveOutcome {
        self.drop_artificials();
        #[cfg(test)]
        self.audit_bounds(false);
        self.lo = lo;
        self.up = up;
        self.lo.truncate(self.form.n_total);
        self.up.truncate(self.form.n_total);
        // Arbitrary bounds: a live rebind recomputes basic values from
        // scratch, and the next `solve_pinned` restores every column that
        // differs from its default.
        self.changes_known = false;
        self.pinned.clear();
        let defaults = self.form.lower.iter().zip(&self.form.upper);
        for (j, (lo, up)) in defaults.enumerate() {
            if self.lo[j].to_bits() != lo.to_bits() || self.up[j].to_bits() != up.to_bits() {
                self.pinned.push(j);
            }
        }
        self.refresh_tols();
        self.solve_prepared(p, warm, trace, want_basis)
    }

    /// Shared solve body; assumes `self.lo`/`self.up` are set and no
    /// artificial columns remain. Reports this solve's pivot and
    /// refactorization work as deltas of the lifetime tallies.
    fn solve_prepared(
        &mut self,
        p: &Problem,
        warm: Warm,
        trace: &mut SolveTrace,
        want_basis: bool,
    ) -> SolveOutcome {
        let (pivots_before, refactors_before) = (self.total_pivots, self.total_refactors);
        let outcome = self.solve_prepared_inner(p, warm, trace, want_basis);
        #[cfg(test)]
        self.audit_y();
        trace.pivots = self.total_pivots - pivots_before;
        trace.refactorizations = self.total_refactors - refactors_before;
        outcome
    }

    fn solve_prepared_inner(
        &mut self,
        p: &Problem,
        warm: Warm,
        trace: &mut SolveTrace,
        want_basis: bool,
    ) -> SolveOutcome {
        self.live_ok = false;
        match warm {
            Warm::Live => {
                // A live basis was optimal for this same objective, so it
                // stays dual feasible under any bound change: skip the
                // pricing scan.
                if let Some(outcome) = self.reoptimize(p, false, want_basis) {
                    trace.warm_used = true;
                    return outcome;
                }
                self.solve_cold(p, want_basis)
            }
            Warm::Basis(basis) => {
                if let Some(outcome) = self.try_warm(basis, p, want_basis) {
                    trace.warm_used = true;
                    return outcome;
                }
                self.solve_cold(p, want_basis)
            }
            Warm::Cold => self.solve_cold(p, want_basis),
        }
    }

    /// Removes any artificial columns left over from a previous cold
    /// solve.
    fn drop_artificials(&mut self) {
        if !self.art.is_empty() {
            self.y_valid = false;
        }
        self.art.clear();
        self.lo.truncate(self.form.n_total);
        self.up.truncate(self.form.n_total);
        self.tol.truncate(self.form.n_total);
        self.obj.truncate(self.form.n_total);
        self.status.truncate(self.form.n_total);
    }

    fn ncols(&self) -> usize {
        self.form.n_total + self.art.len()
    }

    /// Applies `f(row, value)` over the nonzeros of column `j`.
    fn with_col<F: FnMut(usize, f64)>(&self, j: usize, mut f: F) {
        if j < self.form.n_struct {
            for k in self.form.col_ptr[j]..self.form.col_ptr[j + 1] {
                f(self.form.row_idx[k], self.form.val[k]);
            }
        } else if j < self.form.n_total {
            f(j - self.form.n_struct, 1.0);
        } else {
            let (row, sign) = self.art[j - self.form.n_total];
            f(row, sign);
        }
    }

    /// `w = B^-1 A_j`, over the column patterns of `B^-1`.
    fn ftran(&self, j: usize, w: &mut [f64]) {
        let m = self.form.m;
        w.fill(0.0);
        self.with_col(j, |r, v| {
            for i in self.binv_cols.ones(r) {
                w[i] += v * self.binv[i * m + r];
            }
        });
    }

    /// `y = c_B^T B^-1` for the current-phase objective, over the row
    /// patterns of `B^-1`.
    fn compute_y(&self, y: &mut [f64]) {
        let m = self.form.m;
        y.fill(0.0);
        for i in 0..m {
            let c = self.obj[self.basic[i]];
            if c != 0.0 {
                for r in self.binv_rows.ones(i) {
                    y[r] += c * self.binv[i * m + r];
                }
            }
        }
    }

    /// Makes `y` (the workspace's `y`, taken out by the caller) hold
    /// `c_B^T B^-1`, recomputing it only when `y_valid` was cleared.
    fn refresh_y(&mut self, y: &mut [f64]) {
        if !self.y_valid {
            self.compute_y(y);
            self.y_valid = true;
        }
    }

    /// Accumulates row `r` of `B^-1 A` (the dual ratio test's `alpha`)
    /// into `alphas`, which must be zero, and marks every column it adds
    /// to in `touched`. Rows of `A` are visited in ascending order, so
    /// each column sums its terms in the same order as a column-wise
    /// product would.
    fn price_row(&self, r: usize, alphas: &mut [f64], touched: &mut [u64]) {
        let f = self.form;
        let rho = &self.binv[r * f.m..(r + 1) * f.m];
        for i in self.binv_rows.ones(r) {
            let rho_i = rho[i];
            if rho_i == 0.0 {
                continue;
            }
            for k in f.row_ptr[i]..f.row_ptr[i + 1] {
                let j = f.col_idx[k];
                alphas[j] += rho_i * f.row_val[k];
                set_bit(touched, j);
            }
            // The slack's unit entry.
            alphas[f.n_struct + i] += rho_i;
            set_bit(touched, f.n_struct + i);
        }
        for (k, &(row, sign)) in self.art.iter().enumerate() {
            if rho[row] != 0.0 {
                alphas[f.n_total + k] += rho[row] * sign;
                set_bit(touched, f.n_total + k);
            }
        }
    }

    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut d = self.obj[j];
        self.with_col(j, |r, v| d -= y[r] * v);
        d
    }

    /// Value a nonbasic column sits at.
    fn nb_value(&self, j: usize) -> f64 {
        match self.status[j] {
            Status::Upper => self.up[j],
            _ => self.lo[j],
        }
    }

    /// Whether column `j` can move at all (fixed columns never enter).
    fn movable(&self, j: usize) -> bool {
        self.up[j] - self.lo[j] > 1e-12
    }

    /// Recomputes `xb = B^-1 (b - N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let mut t = std::mem::take(&mut self.scratch_t);
        let mut xb = std::mem::take(&mut self.xb);
        self.basic_values(&mut t, &mut xb);
        self.scratch_t = t;
        self.xb = xb;
    }

    /// `xb = B^-1 (b - N x_N)` over the row patterns of `B^-1`; `t` is
    /// scratch for `b - N x_N`.
    fn basic_values(&self, t: &mut Vec<f64>, xb: &mut [f64]) {
        let m = self.form.m;
        t.clear();
        t.extend_from_slice(&self.form.rhs);
        for j in 0..self.ncols() {
            if self.status[j] != Status::Basic {
                let v = self.nb_value(j);
                if v != 0.0 {
                    self.with_col(j, |r, val| t[r] -= val * v);
                }
            }
        }
        for (i, xi) in xb.iter_mut().enumerate() {
            let mut s = 0.0;
            for r in self.binv_rows.ones(i) {
                s += self.binv[i * m + r] * t[r];
            }
            *xi = s;
        }
    }

    /// Rebuilds the basis inverse and its exact nonzero patterns by
    /// sparse Gauss-Jordan elimination with partial pivoting (see
    /// [`GaussJordan`]). Returns `false` when the basis matrix is singular,
    /// leaving the installed inverse as it was.
    fn invert_basis(&mut self) -> bool {
        let m = self.form.m;
        self.y_valid = false;
        if m == 0 {
            return true;
        }
        #[cfg(test)]
        let reference = self.audit.is_some().then(|| self.dense_inverse());
        let mut gj = std::mem::take(&mut self.gauss);
        gj.start(m);
        for (col, &j) in self.basic.iter().enumerate() {
            self.with_col(j, |r, v| gj.add(r, col, v));
        }
        let ok = gj.eliminate();
        if ok {
            self.binv.fill(0.0);
            self.binv_rows.clear();
            self.binv_cols.clear();
            gj.drain(|r, c, v| {
                self.binv[r * m + c] = v;
                if v != 0.0 {
                    self.binv_rows.insert(r, c);
                    self.binv_cols.insert(c, r);
                }
            });
        } else {
            gj.drain(|_, _, _| {});
        }
        self.gauss = gj;
        #[cfg(test)]
        self.audit_refactor(reference, ok);
        if !ok {
            return false;
        }
        self.pivots = 0;
        self.total_refactors += 1;
        true
    }

    /// Product-form update of the inverse after pivoting column `q`
    /// (direction `w = B^-1 A_q`) into row `r`: the pivot row is scaled
    /// over its pattern, every row with `|w_i| > 1e-14` subtracts a
    /// multiple of it, and the patterns grow by exactly the positions
    /// written (the updated rows x the pivot row's nonzero columns).
    fn pivot_update(&mut self, r: usize, w: &[f64]) {
        let m = self.form.m;
        self.y_valid = false;
        #[cfg(test)]
        if let Some(audit) = &mut self.audit {
            audit.pivot_update(m, r, w);
        }
        scale_pivot_row(
            &mut self.binv[r * m..(r + 1) * m],
            self.binv_rows.ones(r),
            w[r],
            &mut self.pivot_pairs,
            &mut self.pivot_cols,
        );
        self.updated_rows.fill(0);
        for (i, &f) in w.iter().enumerate() {
            if i != r && f.abs() > 1e-14 {
                for &(c, v) in &self.pivot_pairs {
                    self.binv[i * m + c] -= f * v;
                }
                self.binv_rows.or_line(i, &self.pivot_cols);
                set_bit(&mut self.updated_rows, i);
            }
        }
        for &(c, _) in &self.pivot_pairs {
            self.binv_cols.or_line(c, &self.updated_rows);
        }
        self.pivots += 1;
        self.total_pivots += 1;
        #[cfg(test)]
        self.audit_check();
    }

    fn maybe_refactor(&mut self) {
        if self.pivots >= REFACTOR_EVERY && self.invert_basis() {
            self.compute_xb();
        }
    }

    /// Bounded-variable primal simplex on the current-phase objective.
    /// Requires a primal-feasible starting basis.
    fn primal(&mut self) -> PrimalEnd {
        let mut y = std::mem::take(&mut self.y);
        let mut w = std::mem::take(&mut self.scratch_w);
        let mut bland = false;
        let mut stalls = 0usize;
        for _ in 0..MAX_ITERS {
            self.maybe_refactor();
            self.refresh_y(&mut y);

            // Entering column: Dantzig (largest violation), Bland on stall.
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.ncols() {
                if self.status[j] == Status::Basic || !self.movable(j) {
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                let viol = match self.status[j] {
                    Status::Lower => d,
                    Status::Upper => -d,
                    // lint:allow(panic_freedom, this loop iterates nonbasic columns only)
                    Status::Basic => unreachable!(),
                };
                if viol > DUAL_TOL {
                    if bland {
                        entering = Some((j, d));
                        break;
                    }
                    if entering.is_none_or(|(_, best)| viol > best.abs()) {
                        entering = Some((j, d));
                    }
                }
            }
            let Some((q, _)) = entering else {
                self.y = y;
                self.scratch_w = w;
                return PrimalEnd::Optimal;
            };

            self.ftran(q, &mut w);
            let dir = if self.status[q] == Status::Lower {
                1.0
            } else {
                -1.0
            };

            // Bounded ratio test: the entering column moves by `t >= 0`;
            // basics move by `-dir * t * w`.
            let mut t_best = self.up[q] - self.lo[q]; // own bound flip
            let mut leave: Option<(usize, Status)> = None;
            for (i, &wi) in w.iter().enumerate() {
                let e = dir * wi;
                let b = self.basic[i];
                if e > PIVOT_TOL {
                    let room = (self.xb[i] - self.lo[b]).max(0.0);
                    let t = room / e;
                    if t < t_best - 1e-12
                        || (bland
                            && (t - t_best).abs() <= 1e-12
                            && leave.is_some_and(|(p, _)| b < self.basic[p]))
                    {
                        t_best = t;
                        leave = Some((i, Status::Lower));
                    }
                } else if e < -PIVOT_TOL && self.up[b].is_finite() {
                    let room = (self.up[b] - self.xb[i]).max(0.0);
                    let t = room / -e;
                    if t < t_best - 1e-12
                        || (bland
                            && (t - t_best).abs() <= 1e-12
                            && leave.is_some_and(|(p, _)| b < self.basic[p]))
                    {
                        t_best = t;
                        leave = Some((i, Status::Upper));
                    }
                }
            }
            if t_best.is_infinite() {
                self.y = y;
                self.scratch_w = w;
                return PrimalEnd::Unbounded;
            }
            if t_best < 1e-10 {
                stalls += 1;
                if stalls > STALL_LIMIT {
                    bland = true;
                }
            } else {
                stalls = 0;
            }

            let xq = self.nb_value(q) + dir * t_best;
            for (xi, &wi) in self.xb.iter_mut().zip(w.iter()) {
                *xi -= dir * t_best * wi;
            }
            match leave {
                None => {
                    // Bound flip: the entering column crosses to its other
                    // bound without a basis change.
                    self.status[q] = if self.status[q] == Status::Lower {
                        Status::Upper
                    } else {
                        Status::Lower
                    };
                }
                Some((r, side)) => {
                    self.status[self.basic[r]] = side;
                    self.basic[r] = q;
                    self.status[q] = Status::Basic;
                    self.xb[r] = xq;
                    self.pivot_update(r, &w);
                }
            }
        }
        self.y = y;
        self.scratch_w = w;
        PrimalEnd::IterLimit
    }

    /// Largest primal bound violation among basic variables.
    fn worst_violation(&self) -> Option<(usize, bool, f64)> {
        let mut worst: Option<(usize, bool, f64)> = None;
        for i in 0..self.form.m {
            let b = self.basic[i];
            let tol = self.tol[b];
            let below = self.lo[b] - self.xb[i];
            let above = self.xb[i] - self.up[b];
            if below > tol && worst.is_none_or(|(_, _, v)| below > v) {
                worst = Some((i, true, below));
            }
            if above > tol && worst.is_none_or(|(_, _, v)| above > v) {
                worst = Some((i, false, above));
            }
        }
        worst
    }

    /// Bounded-variable dual simplex: restores primal feasibility while
    /// preserving dual feasibility (the warm-start reoptimizer after bound
    /// or rhs changes).
    fn dual(&mut self) -> DualEnd {
        let mut y = std::mem::take(&mut self.y);
        let mut w = std::mem::take(&mut self.scratch_w);
        let mut d = std::mem::take(&mut self.scratch_d);
        let mut alphas = std::mem::take(&mut self.scratch_a);
        let mut touched = std::mem::take(&mut self.touched);
        let end = self.dual_loop(&mut y, &mut w, &mut d, &mut alphas, &mut touched);
        self.y = y;
        self.scratch_w = w;
        self.scratch_d = d;
        self.scratch_a = alphas;
        self.touched = touched;
        end
    }

    fn dual_loop(
        &mut self,
        y: &mut [f64],
        w: &mut [f64],
        d: &mut Vec<f64>,
        alphas: &mut Vec<f64>,
        touched: &mut Vec<u64>,
    ) -> DualEnd {
        // Reduced costs are priced once and then maintained incrementally
        // across pivots (`d_j -= theta * alpha_j`); a pivot-choice drift
        // only costs extra pivots, never correctness, because the primal
        // polish after the dual re-prices from scratch.
        let ncols = self.ncols();
        d.resize(ncols, 0.0);
        alphas.clear();
        alphas.resize(ncols, 0.0);
        touched.clear();
        touched.resize(ncols.div_ceil(64), 0);
        self.refresh_y(y);
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = if self.status[j] == Status::Basic {
                0.0
            } else {
                self.reduced_cost(j, y)
            };
        }
        for _ in 0..MAX_ITERS {
            self.maybe_refactor();
            let Some((r, below, _)) = self.worst_violation() else {
                return DualEnd::PrimalFeasible;
            };
            for j in Ones::new(touched) {
                alphas[j] = 0.0;
            }
            touched.fill(0);
            self.price_row(r, alphas, touched);

            // Entering column: among sign-compatible candidates, the one
            // whose reduced cost reaches zero first keeps dual feasibility.
            // Untouched columns have `alpha = 0` and cannot enter; the
            // touched ones are visited in ascending order, so ties break
            // as in a full column scan.
            let mut best: Option<(usize, f64)> = None; // (col, ratio)
            for j in Ones::new(touched) {
                if self.status[j] == Status::Basic || !self.movable(j) {
                    alphas[j] = 0.0;
                    continue;
                }
                let alpha = alphas[j];
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                // Moving j by `delta * t` changes `xb[r]` by
                // `-delta * alpha * t`; pick columns that push `xb[r]`
                // toward the violated bound.
                let delta = if self.status[j] == Status::Lower {
                    1.0
                } else {
                    -1.0
                };
                let pushes_up = delta * alpha < 0.0;
                if pushes_up != below {
                    continue;
                }
                let ratio = d[j].abs() / alpha.abs();
                if best.is_none_or(|(_, r0)| ratio < r0) {
                    best = Some((j, ratio));
                }
            }
            let Some((q, _)) = best else {
                return DualEnd::Infeasible;
            };

            self.ftran(q, w);
            if w[r].abs() <= PIVOT_TOL {
                // Numerical disagreement between the row and column views:
                // refactorize once, then give up on the warm path.
                if !self.invert_basis() {
                    return DualEnd::Stalled;
                }
                self.compute_xb();
                continue;
            }
            // Step length: the leaving variable travels to its violated
            // bound; basics update incrementally (no full recompute).
            let leaving = self.basic[r];
            let bnd = if below {
                self.lo[leaving]
            } else {
                self.up[leaving]
            };
            let delta = if self.status[q] == Status::Lower {
                1.0
            } else {
                -1.0
            };
            let t = (self.xb[r] - bnd) / (delta * w[r]);
            let xq = self.nb_value(q) + delta * t;
            for (xi, &wi) in self.xb.iter_mut().zip(w.iter()) {
                *xi -= delta * t * wi;
            }
            // Dual price update: after the pivot, d_j -= theta * alpha_j
            // with theta = d_q / alpha_q; the leaving column (alpha = 1)
            // picks up -theta, the entering one goes to zero.
            let theta = d[q] / alphas[q];
            if theta != 0.0 {
                for j in Ones::new(touched) {
                    if alphas[j] != 0.0 {
                        d[j] -= theta * alphas[j];
                    }
                }
            }
            d[leaving] = -theta;
            d[q] = 0.0;
            self.status[leaving] = if below { Status::Lower } else { Status::Upper };
            self.basic[r] = q;
            self.status[q] = Status::Basic;
            self.xb[r] = xq;
            self.pivot_update(r, w);
        }
        DualEnd::Stalled
    }

    fn dual_feasible(&mut self) -> bool {
        let mut y = std::mem::take(&mut self.y);
        self.refresh_y(&mut y);
        let feasible = (0..self.ncols()).all(|j| {
            if self.status[j] == Status::Basic || !self.movable(j) {
                return true;
            }
            let d = self.reduced_cost(j, &y);
            let bad = match self.status[j] {
                Status::Lower => d > DUAL_TOL * 10.0,
                Status::Upper => d < -DUAL_TOL * 10.0,
                // lint:allow(panic_freedom, this loop iterates nonbasic columns only)
                Status::Basic => unreachable!(),
            };
            !bad
        });
        self.y = y;
        feasible
    }

    fn primal_feasible(&self) -> bool {
        self.worst_violation().is_none()
    }

    /// Normalizes nonbasic statuses against the current bounds (a column
    /// cannot sit at an infinite bound) and recomputes basic values.
    ///
    /// When the bounds changed since the basic values were computed are
    /// known (`changes_known`: a live dive after `solve_pinned`), only
    /// those columns are visited, in ascending order: every other
    /// nonbasic column rests at the same finite bound as before. The basic
    /// values are updated *incrementally* from the few whose resting value
    /// actually moved — a dive changes one pin, not the whole problem.
    fn rebind(&mut self) {
        #[cfg(test)]
        let before = self.audit_rebind_start();
        let mut full = !self.changes_known;
        if full {
            for j in 0..self.form.n_total {
                if self.status[j] != Status::Basic {
                    self.normalize_status(j);
                }
            }
        } else {
            let changed = std::mem::take(&mut self.changed);
            let mut w = std::mem::take(&mut self.scratch_w);
            for &(j, old_lo, old_up) in &changed {
                if self.status[j] == Status::Basic {
                    continue;
                }
                let old = match self.status[j] {
                    Status::Upper => old_up,
                    _ => old_lo,
                };
                self.normalize_status(j);
                let delta = self.nb_value(j) - old;
                if full || delta == 0.0 {
                    continue;
                }
                if delta.is_finite() {
                    // xb -= delta * B^-1 A_j.
                    self.ftran(j, &mut w);
                    for (xi, wi) in self.xb.iter_mut().zip(w.iter()) {
                        *xi -= delta * wi;
                    }
                } else {
                    full = true; // infinite flip: full recompute
                }
            }
            self.scratch_w = w;
            self.changed = changed;
        }
        if full {
            self.compute_xb();
        }
        #[cfg(test)]
        self.audit_rebind_end(before);
    }

    /// Moves a nonbasic column off an infinite bound.
    fn normalize_status(&mut self, j: usize) {
        if self.status[j] == Status::Lower && self.lo[j].is_infinite() {
            self.status[j] = Status::Upper;
        }
        if self.status[j] == Status::Upper && self.up[j].is_infinite() {
            self.status[j] = Status::Lower;
        }
    }

    /// Reoptimizes from the currently-installed basis and inverse after a
    /// bounds change (`Warm::Live`). `None` means "fall back cold".
    ///
    /// `check_dual` skips the dual-feasibility scan when the caller knows
    /// the basis was optimal for this very objective (a live dive: bound
    /// changes cannot disturb reduced costs).
    fn reoptimize(
        &mut self,
        p: &Problem,
        check_dual: bool,
        want_basis: bool,
    ) -> Option<SolveOutcome> {
        self.rebind();
        if self.primal_feasible() {
            return match self.primal() {
                PrimalEnd::Optimal => Some(self.extract(p, want_basis)),
                PrimalEnd::Unbounded => Some(SolveOutcome::Unbounded),
                PrimalEnd::IterLimit => None,
            };
        }
        if !check_dual || self.dual_feasible() {
            return match self.dual() {
                // The dual maintains dual feasibility, so a primal-feasible
                // end state is optimal; the primal call below re-prices and
                // normally exits without pivoting (it also mops up any
                // incremental-pricing drift).
                DualEnd::PrimalFeasible => match self.primal() {
                    PrimalEnd::Optimal => Some(self.extract(p, want_basis)),
                    PrimalEnd::Unbounded => Some(SolveOutcome::Unbounded),
                    PrimalEnd::IterLimit => None,
                },
                DualEnd::Infeasible => {
                    // The workspace still holds a consistent, dual-feasible
                    // basis (dual pivots preserve both invariants), so the
                    // next node of the same search can keep reusing it.
                    self.live_ok = true;
                    Some(SolveOutcome::Infeasible)
                }
                DualEnd::Stalled => None,
            };
        }
        None
    }

    /// Attempts a warm start from a stored `basis`; `None` means "fall
    /// back to a cold start".
    fn try_warm(&mut self, basis: &Basis, p: &Problem, want_basis: bool) -> Option<SolveOutcome> {
        if basis.basic.len() != self.form.m || basis.status.len() != self.form.n_total {
            return None;
        }
        self.basic.copy_from_slice(&basis.basic);
        self.status.copy_from_slice(&basis.status);
        // The basic values belong to another basis: rebind from scratch.
        self.changes_known = false;
        if !self.invert_basis() {
            return None;
        }
        self.reoptimize(p, true, want_basis)
    }

    /// Cold start: slack basis, artificial phase one where needed, then
    /// the real objective.
    fn solve_cold(&mut self, p: &Problem, want_basis: bool) -> SolveOutcome {
        let m = self.form.m;
        let n_total = self.form.n_total;
        self.drop_artificials();
        self.y_valid = false;
        self.status.clear();
        self.status.resize(n_total, Status::Lower);
        for j in 0..n_total {
            if self.lo[j].is_infinite() {
                self.status[j] = Status::Upper;
            }
        }
        for i in 0..m {
            self.basic[i] = self.form.n_struct + i;
            self.status[self.form.n_struct + i] = Status::Basic;
        }
        self.binv.fill(0.0);
        self.binv_rows.clear();
        self.binv_cols.clear();
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
            self.binv_rows.insert(i, i);
            self.binv_cols.insert(i, i);
        }
        self.pivots = 0;
        #[cfg(test)]
        self.audit_install();
        self.compute_xb();

        // Phase one: artificial columns only on rows whose slack start is
        // out of bounds.
        let mut art_rows = Vec::new();
        for i in 0..m {
            let s = self.basic[i];
            let tol = self.tol[s];
            if self.xb[i] > self.up[s] + tol {
                art_rows.push((i, true, 1.0));
            } else if self.xb[i] < self.lo[s] - tol {
                art_rows.push((i, false, -1.0));
            }
        }
        if !art_rows.is_empty() {
            for &(row, at_upper, sgn) in &art_rows {
                let j = n_total + self.art.len();
                self.art.push((row, sgn));
                self.lo.push(0.0);
                self.up.push(f64::INFINITY);
                self.tol.push(bound_tol(0.0, f64::INFINITY));
                self.obj.push(0.0);
                // The slack leaves the basis at its violated bound; the
                // artificial absorbs the residual (positive by sign
                // choice).
                let s = self.basic[row];
                self.status[s] = if at_upper {
                    Status::Upper
                } else {
                    Status::Lower
                };
                self.basic[row] = j;
                self.status.push(Status::Basic);
            }
            // The basis is still diagonal, but negative-sign artificials
            // are -e_i columns: flip their inverse entries in place.
            for &(row, sign) in &self.art {
                if self.basic[row] >= n_total {
                    self.binv[row * m + row] = sign;
                }
            }
            #[cfg(test)]
            self.audit_install();
            self.compute_xb();
            // Phase-one objective: maximize -(sum of artificials).
            self.y_valid = false;
            self.obj = vec![0.0; self.ncols()];
            for k in 0..self.art.len() {
                self.obj[n_total + k] = -1.0;
            }
            match self.primal() {
                // lint:allow(panic_freedom, phase one minimizes a sum of bounded artificials, so its primal cannot be unbounded)
                PrimalEnd::Unbounded => unreachable!("phase one is bounded below"),
                // On the (anti-runaway) iteration cap, don't guess: judge
                // by the residual infeasibility below, like a normal exit.
                PrimalEnd::IterLimit | PrimalEnd::Optimal => {}
            }
            let infeasibility: f64 = (0..m)
                .filter(|&i| self.basic[i] >= n_total)
                .map(|i| self.xb[i].max(0.0))
                .sum();
            if infeasibility > 1e-6 {
                return SolveOutcome::Infeasible;
            }
            self.retire_artificials();
        }

        // Phase two: the real objective.
        self.y_valid = false;
        self.obj.clear();
        self.obj.extend_from_slice(&self.form.obj);
        self.obj.resize(self.ncols(), 0.0);
        match self.primal() {
            PrimalEnd::Optimal | PrimalEnd::IterLimit => self.extract(p, want_basis),
            PrimalEnd::Unbounded => SolveOutcome::Unbounded,
        }
    }

    /// After phase one: fix artificials at zero and pivot basic ones out
    /// where a usable pivot exists (a redundant row may keep one).
    fn retire_artificials(&mut self) {
        let m = self.form.m;
        let n_total = self.form.n_total;
        for k in 0..self.art.len() {
            let j = n_total + k;
            self.lo[j] = 0.0;
            self.up[j] = 0.0;
            self.tol[j] = bound_tol(0.0, 0.0);
        }
        let mut w = vec![0.0; m];
        for r in 0..m {
            if self.basic[r] < n_total {
                continue;
            }
            // Prefer the row's own slack, then any structural column.
            let slack = self.form.n_struct + r;
            let candidates = std::iter::once(slack).chain(0..self.form.n_struct);
            for j in candidates {
                if self.status[j] == Status::Basic {
                    continue;
                }
                self.ftran(j, &mut w);
                if w[r].abs() > 1e-7 {
                    // Zero-step pivot: the entering column keeps its bound
                    // value; only the basis bookkeeping changes.
                    let art = self.basic[r];
                    self.status[art] = Status::Lower;
                    self.basic[r] = j;
                    self.status[j] = Status::Basic;
                    self.pivot_update(r, &w);
                    self.compute_xb();
                    break;
                }
            }
        }
    }

    /// Reduced costs of the structural columns in *original* objective
    /// units, for the current (phase-two) objective and installed basis.
    /// Meaningful right after an optimal solve; used for reduced-cost
    /// fixing in branch & bound.
    pub(crate) fn structural_reduced_costs(&mut self) -> Vec<f64> {
        let mut y = std::mem::take(&mut self.y);
        self.refresh_y(&mut y);
        let d = (0..self.form.n_struct)
            .map(|j| {
                if self.status[j] == Status::Basic {
                    0.0
                } else {
                    self.reduced_cost(j, &y) * self.form.obj_scale
                }
            })
            .collect();
        self.y = y;
        d
    }

    /// Reads out structural values, recomputes the objective from the
    /// original (unscaled) coefficients, and packages the basis.
    fn extract(&mut self, p: &Problem, want_basis: bool) -> SolveOutcome {
        let n = self.form.n_struct;
        let mut values = vec![0.0; n];
        for (j, value) in values.iter_mut().enumerate() {
            *value = match self.status[j] {
                Status::Basic => 0.0, // filled below
                Status::Upper => self.up[j],
                Status::Lower => self.lo[j],
            };
        }
        for (i, &b) in self.basic.iter().enumerate() {
            if b < n {
                values[b] = self.xb[i];
            }
        }
        let objective = p
            .variables
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * values[i])
            .sum();
        self.live_ok = self.basic.iter().all(|&b| b < self.form.n_total);
        let basis = if want_basis && self.live_ok {
            Some(Basis {
                basic: self.basic.clone(),
                status: self.status[..self.form.n_total].to_vec(),
            })
        } else {
            None
        };
        SolveOutcome::Optimal {
            values,
            objective,
            basis,
        }
    }
}

/// Scaled feasibility tolerance of a column with bounds `[lo, up]`
/// (infinite bounds do not widen it).
fn bound_tol(lo: f64, up: f64) -> f64 {
    let lo = if lo.is_finite() { lo.abs() } else { 0.0 };
    let up = if up.is_finite() { up.abs() } else { 0.0 };
    FEAS_TOL * lo.max(up).max(1.0)
}

/// Divides the nonzero entries of a pivot row among the positions `cols`
/// (a superset of its nonzeros) by `piv`, collecting them as `(column,
/// value)` pairs in `pairs` and their columns in the bitset `mask`; zero
/// entries are left as they are.
fn scale_pivot_row(
    row: &mut [f64],
    cols: Ones<'_>,
    piv: f64,
    pairs: &mut Vec<(usize, f64)>,
    mask: &mut [u64],
) {
    pairs.clear();
    mask.fill(0);
    for c in cols {
        let x = &mut row[c];
        if *x != 0.0 {
            *x /= piv;
            pairs.push((c, *x));
            set_bit(mask, c);
        }
    }
}

/// Sets bit `pos` of a bitset.
fn set_bit(bits: &mut [u64], pos: usize) {
    bits[pos / 64] |= 1 << (pos % 64);
}

/// The nonzero patterns of a matrix's lines (its rows, or its columns):
/// one bitset of `words` `u64`s per line. Each bitset is a superset of
/// its line's nonzero positions.
#[derive(Debug, Clone, Default)]
struct Patterns {
    words: usize,
    bits: Vec<u64>,
}

impl Patterns {
    /// Empty patterns for `lines` lines of `width` positions.
    fn new(lines: usize, width: usize) -> Self {
        let words = width.div_ceil(64);
        Self {
            words,
            bits: vec![0; lines * words],
        }
    }

    fn line(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn insert(&mut self, i: usize, pos: usize) {
        set_bit(&mut self.bits[i * self.words..(i + 1) * self.words], pos);
    }

    /// ORs `mask` (one line's worth of words) into line `i`.
    fn or_line(&mut self, i: usize, mask: &[u64]) {
        let line = &mut self.bits[i * self.words..(i + 1) * self.words];
        for (b, &m) in line.iter_mut().zip(mask) {
            *b |= m;
        }
    }

    /// Exchanges lines `a` and `b`.
    fn swap_lines(&mut self, a: usize, b: usize) {
        for k in 0..self.words {
            self.bits.swap(a * self.words + k, b * self.words + k);
        }
    }

    /// Exchanges positions `a` and `b` of line `i`.
    fn swap_positions(&mut self, i: usize, a: usize, b: usize) {
        let line = &mut self.bits[i * self.words..(i + 1) * self.words];
        let has = |line: &[u64], p: usize| line[p / 64] >> (p % 64) & 1;
        let (bit_a, bit_b) = (has(line, a), has(line, b));
        if bit_a != bit_b {
            line[a / 64] ^= 1 << (a % 64);
            line[b / 64] ^= 1 << (b % 64);
        }
    }

    /// The positions in line `i`'s pattern, ascending.
    fn ones(&self, i: usize) -> Ones<'_> {
        Ones::new(self.line(i))
    }

    fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// The set positions of a bitset, ascending.
struct Ones<'a> {
    rest: &'a [u64],
    base: usize,
    bits: u64,
}

impl<'a> Ones<'a> {
    fn new(words: &'a [u64]) -> Self {
        let (bits, rest) = words.split_first().map_or((0, words), |(&b, r)| (b, r));
        Self {
            rest,
            base: 0,
            bits,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (&bits, rest) = self.rest.split_first()?;
            self.bits = bits;
            self.rest = rest;
            self.base += 64;
        }
        let pos = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(pos)
    }
}

/// Reusable Gauss-Jordan workspace for refactorizing the basis: the
/// augmented matrix `[B | I]` (row-major, `2m` columns) with row patterns
/// over all `2m` columns and column patterns over the `B` half. Both are
/// supersets of the nonzeros. Between refactorizations every entry is
/// zero and every pattern empty, so a refactorization touches only the
/// entries the elimination fills.
#[derive(Debug, Clone, Default)]
struct GaussJordan {
    m: usize,
    aug: Vec<f64>,
    rows: Patterns,
    cols: Patterns,
    pairs: Vec<(usize, f64)>,
    /// Columns of the scaled pivot row's nonzeros (over `2m`).
    pivot_cols: Vec<u64>,
    /// Rows the current pivot eliminated (over `m`).
    eliminated: Vec<u64>,
}

impl GaussJordan {
    /// Sizes the (zero) workspace for `m` rows and loads the identity
    /// half.
    fn start(&mut self, m: usize) {
        if self.aug.len() != 2 * m * m {
            *self = Self {
                m,
                aug: vec![0.0; 2 * m * m],
                rows: Patterns::new(m, 2 * m),
                cols: Patterns::new(m, m),
                pairs: Vec::new(),
                pivot_cols: vec![0; (2 * m).div_ceil(64)],
                eliminated: vec![0; m.div_ceil(64)],
            };
        }
        for i in 0..m {
            self.aug[i * 2 * m + m + i] = 1.0;
            self.rows.insert(i, m + i);
        }
    }

    /// Adds `v` at `(r, col)` of the `B` half.
    fn add(&mut self, r: usize, col: usize, v: f64) {
        self.aug[r * 2 * self.m + col] += v;
        self.rows.insert(r, col);
        self.cols.insert(col, r);
    }

    /// Eliminates `B` to the identity; `false` when it is singular. Pivot
    /// choice, row order and every arithmetic step match a dense
    /// Gauss-Jordan pass: entries outside the patterns are zero, so the
    /// dense pass would skip or add nothing for them.
    fn eliminate(&mut self) -> bool {
        let m = self.m;
        let w = 2 * m;
        for col in 0..m {
            // Partial pivot: the first largest magnitude at or below the
            // diagonal.
            let mut best = col;
            let mut best_mag = self.aug[col * w + col].abs();
            for r in self.cols.ones(col).filter(|&r| r > col) {
                let mag = self.aug[r * w + col].abs();
                if mag > best_mag {
                    best = r;
                    best_mag = mag;
                }
            }
            if best_mag < 1e-10 {
                return false;
            }
            if best != col {
                self.swap_rows(col, best);
            }
            let piv = self.aug[col * w + col];
            scale_pivot_row(
                &mut self.aug[col * w..(col + 1) * w],
                self.rows.ones(col),
                piv,
                &mut self.pairs,
                &mut self.pivot_cols,
            );
            self.eliminated.fill(0);
            for r in self.cols.ones(col) {
                let f = self.aug[r * w + col];
                if r != col && f.abs() > 1e-14 {
                    for &(c, v) in &self.pairs {
                        self.aug[r * w + c] -= f * v;
                    }
                    self.rows.or_line(r, &self.pivot_cols);
                    set_bit(&mut self.eliminated, r);
                }
            }
            for &(c, _) in &self.pairs {
                if c < m {
                    self.cols.or_line(c, &self.eliminated);
                }
            }
        }
        true
    }

    /// Swaps rows `a` and `b` over the union of their patterns.
    fn swap_rows(&mut self, a: usize, b: usize) {
        let (m, w, words) = (self.m, 2 * self.m, self.rows.words);
        for k in 0..words {
            let mut union = self.rows.bits[a * words + k] | self.rows.bits[b * words + k];
            while union != 0 {
                let c = k * 64 + union.trailing_zeros() as usize;
                union &= union - 1;
                self.aug.swap(a * w + c, b * w + c);
                if c < m {
                    self.cols.swap_positions(c, a, b);
                }
            }
        }
        self.rows.swap_lines(a, b);
    }

    /// Hands every pattern entry of the `I` half to `keep(row, column,
    /// value)` and zeroes the workspace again.
    fn drain(&mut self, mut keep: impl FnMut(usize, usize, f64)) {
        let (m, w) = (self.m, 2 * self.m);
        for r in 0..m {
            for c in self.rows.ones(r) {
                let v = std::mem::replace(&mut self.aug[r * w + c], 0.0);
                if c >= m {
                    keep(r, c - m, v);
                }
            }
        }
        self.rows.clear();
        self.cols.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense, VarId};
    use smart_units::rng::Rng;

    /// Dense mirror of the basis inverse, advanced by the dense
    /// Gauss-Jordan and product-form kernels the sparse ones must
    /// reproduce bit for bit. Enabled per workspace by
    /// [`Lp::with_audit`]; every pivot and refactorization then checks
    /// the sparse inverse, its patterns, and every product against it.
    #[derive(Debug, Default)]
    pub(super) struct Audit {
        shadow: Vec<f64>,
        pivots: usize,
        refactors: usize,
        /// Bounds before the current solve when it came through
        /// `solve_pinned` (the reference rebind's previous bounds).
        prev_bounds: Option<(Vec<f64>, Vec<f64>)>,
        /// Incremental rebinds and cached `y`s checked.
        rebinds: usize,
        cached_ys: usize,
    }

    impl Audit {
        /// The dense product-form update: the pivot row is scaled and
        /// eliminated over all `m` columns.
        pub(super) fn pivot_update(&mut self, m: usize, r: usize, w: &[f64]) {
            let mut pivot_row = Vec::new();
            for (c, x) in self.shadow[r * m..(r + 1) * m].iter_mut().enumerate() {
                if *x != 0.0 {
                    *x /= w[r];
                    pivot_row.push((c, *x));
                }
            }
            for (i, &f) in w.iter().enumerate() {
                if i != r && f.abs() > 1e-14 {
                    for &(c, v) in &pivot_row {
                        self.shadow[i * m + c] -= f * v;
                    }
                }
            }
        }
    }

    impl Lp<'_> {
        fn with_audit(mut self) -> Self {
            self.audit = Some(Audit::default());
            self
        }

        /// The dense Gauss-Jordan inverse of the installed basis (`None`
        /// when singular): every row and column of `[B | I]` is scanned.
        pub(super) fn dense_inverse(&self) -> Option<Vec<f64>> {
            let m = self.form.m;
            let w = 2 * m;
            let mut aug = vec![0.0; m * w];
            for (i, row) in aug.chunks_exact_mut(w).enumerate() {
                row[m + i] = 1.0;
            }
            for (col, &j) in self.basic.iter().enumerate() {
                self.with_col(j, |r, v| aug[r * w + col] += v);
            }
            for col in 0..m {
                let mut best = col;
                let mut best_mag = aug[col * w + col].abs();
                for r in col + 1..m {
                    let mag = aug[r * w + col].abs();
                    if mag > best_mag {
                        best = r;
                        best_mag = mag;
                    }
                }
                if best_mag < 1e-10 {
                    return None;
                }
                if best != col {
                    for c in 0..w {
                        aug.swap(col * w + c, best * w + c);
                    }
                }
                let piv = aug[col * w + col];
                let mut pivot_row = Vec::new();
                for (c, x) in aug[col * w..(col + 1) * w].iter_mut().enumerate() {
                    if *x != 0.0 {
                        *x /= piv;
                        pivot_row.push((c, *x));
                    }
                }
                for r in 0..m {
                    let f = aug[r * w + col];
                    if r != col && f.abs() > 1e-14 {
                        for &(c, v) in &pivot_row {
                            aug[r * w + c] -= f * v;
                        }
                    }
                }
            }
            let mut inv = vec![0.0; m * m];
            for r in 0..m {
                inv[r * m..(r + 1) * m].copy_from_slice(&aug[r * w + m..(r + 1) * w]);
            }
            Some(inv)
        }

        /// A freshly installed inverse (slack or artificial basis).
        pub(super) fn audit_install(&mut self) {
            if let Some(audit) = &mut self.audit {
                audit.shadow = self.binv.clone();
                self.assert_matches_shadow();
            }
        }

        /// After a refactorization attempt: singularity, the inverse, and
        /// the zeroed workspace must match the dense pass.
        pub(super) fn audit_refactor(&mut self, reference: Option<Option<Vec<f64>>>, ok: bool) {
            let (Some(reference), Some(audit)) = (reference, &mut self.audit) else {
                return;
            };
            assert_eq!(reference.is_some(), ok, "singularity verdicts differ");
            if let Some(inv) = reference {
                audit.shadow = inv;
                audit.refactors += 1;
            }
            let gj = &self.gauss;
            assert!(
                gj.aug.iter().all(|x| x.to_bits() == 0),
                "workspace left dirty"
            );
            assert!(gj.rows.bits.iter().chain(&gj.cols.bits).all(|&b| b == 0));
            self.assert_matches_shadow();
        }

        /// Records the bounds a solve starts from: the reference rebind
        /// diffs against them after `solve_pinned` and recomputes from
        /// scratch after `solve`.
        pub(super) fn audit_bounds(&mut self, pinned: bool) {
            let n = self.form.n_total;
            let prev = pinned.then(|| (self.lo[..n].to_vec(), self.up[..n].to_vec()));
            if let Some(audit) = &mut self.audit {
                audit.prev_bounds = prev;
            }
        }

        /// The basic values and statuses an incremental rebind starts
        /// from.
        pub(super) fn audit_rebind_start(&self) -> Option<(Vec<f64>, Vec<Status>)> {
            self.audit.as_ref()?;
            self.changes_known
                .then(|| (self.xb.clone(), self.status.clone()))
        }

        /// Replays an incremental rebind the full-scan way, every column
        /// against the full previous bounds, and checks the statuses and
        /// basic values bit for bit.
        pub(super) fn audit_rebind_end(&mut self, before: Option<(Vec<f64>, Vec<Status>)>) {
            let Some((xb, status)) = before else {
                return;
            };
            let audit = self.audit.as_mut().expect("audited");
            let (prev_lo, prev_up) = audit
                .prev_bounds
                .take()
                .expect("incremental rebinds follow `solve_pinned`");
            let got_xb = std::mem::replace(&mut self.xb, xb);
            let got_status = std::mem::replace(&mut self.status, status);
            self.rebind_full_scan(&prev_lo, &prev_up);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(got_status, self.status, "rebound statuses");
            assert_eq!(bits(&got_xb), bits(&self.xb), "rebound basic values");
            self.xb = got_xb;
            if let Some(audit) = &mut self.audit {
                audit.rebinds += 1;
            }
            self.audit_y();
        }

        /// The rebind of a dive that visits every column.
        fn rebind_full_scan(&mut self, prev_lo: &[f64], prev_up: &[f64]) {
            let mut w = vec![0.0; self.form.m];
            let mut full = false;
            for j in 0..self.form.n_total {
                if self.status[j] == Status::Basic {
                    continue;
                }
                let old = match self.status[j] {
                    Status::Upper => prev_up[j],
                    _ => prev_lo[j],
                };
                self.normalize_status(j);
                let delta = self.nb_value(j) - old;
                if !full && delta != 0.0 {
                    if delta.is_finite() {
                        self.ftran(j, &mut w);
                        for (xi, wi) in self.xb.iter_mut().zip(&w) {
                            *xi -= delta * wi;
                        }
                    } else {
                        full = true;
                    }
                }
            }
            if full {
                self.compute_xb();
            }
        }

        /// A cached `y` must equal a recompute bit for bit.
        pub(super) fn audit_y(&mut self) {
            if self.audit.is_none() || !self.y_valid {
                return;
            }
            let mut fresh = vec![0.0; self.form.m];
            self.compute_y(&mut fresh);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&self.y), bits(&fresh), "cached y");
            if let Some(audit) = &mut self.audit {
                audit.cached_ys += 1;
            }
        }

        /// After a product-form update.
        pub(super) fn audit_check(&mut self) {
            if let Some(audit) = &mut self.audit {
                audit.pivots += 1;
                self.assert_matches_shadow();
            }
        }

        fn assert_matches_shadow(&self) {
            let Some(audit) = &self.audit else {
                return;
            };
            let m = self.form.m;
            let ncols = self.ncols();
            let shadow = &audit.shadow;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&self.binv), bits(shadow), "inverse differs from dense");
            for i in 0..m {
                for c in 0..m {
                    if self.binv[i * m + c] != 0.0 {
                        assert!(has(self.binv_rows.line(i), c), "row {i} misses {c}");
                        assert!(has(self.binv_cols.line(c), i), "col {c} misses {i}");
                    }
                }
            }

            // y = c_B^T B^-1.
            let (mut y, mut dense) = (vec![0.0; m], vec![0.0; m]);
            self.compute_y(&mut y);
            for i in 0..m {
                let c = self.obj[self.basic[i]];
                if c != 0.0 {
                    for (r, yr) in dense.iter_mut().enumerate() {
                        *yr += c * shadow[i * m + r];
                    }
                }
            }
            assert_eq!(bits(&y), bits(&dense), "compute_y");

            // w = B^-1 A_j for every column.
            for j in 0..ncols {
                self.ftran(j, &mut y);
                dense.fill(0.0);
                self.with_col(j, |r, v| {
                    for (i, wi) in dense.iter_mut().enumerate() {
                        *wi += v * shadow[i * m + r];
                    }
                });
                assert_eq!(bits(&y), bits(&dense), "ftran of column {j}");
            }

            // xb = B^-1 (b - N x_N). A stored basis can leave a column
            // resting at an infinite bound until `rebind` moves it; basic
            // values are only ever computed once every resting value is
            // finite.
            let mut t = self.form.rhs.clone();
            for j in 0..ncols {
                let v = self.nb_value(j);
                if self.status[j] != Status::Basic && v != 0.0 {
                    self.with_col(j, |r, val| t[r] -= val * v);
                }
            }
            if t.iter().all(|x| x.is_finite()) {
                self.basic_values(&mut Vec::new(), &mut y);
                for (i, xi) in dense.iter_mut().enumerate() {
                    *xi = (0..m).fold(0.0, |s, r| s + shadow[i * m + r] * t[r]);
                }
                assert_eq!(bits(&y), bits(&dense), "basic values");
            }

            // alpha = rho_r^T A for every row.
            let mut alphas = vec![0.0; ncols];
            let mut touched = vec![0; ncols.div_ceil(64)];
            for r in 0..m {
                alphas.fill(0.0);
                touched.fill(0);
                self.price_row(r, &mut alphas, &mut touched);
                let rho = &shadow[r * m..(r + 1) * m];
                for (j, &alpha) in alphas.iter().enumerate() {
                    let mut reference = 0.0;
                    self.with_col(j, |row, v| reference += rho[row] * v);
                    assert_eq!(alpha.to_bits(), reference.to_bits(), "alpha[{r}][{j}]");
                    assert!(has(&touched, j) || alpha == 0.0, "alpha[{r}][{j}] unmarked");
                }
            }
        }
    }

    fn has(bits: &[u64], pos: usize) -> bool {
        bits[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// A random sparse LP, feasible at a random point: small integer
    /// coefficients (some rows scaled to byte-sized magnitudes),
    /// `Le`/`Ge`/`Eq` rows, rows tight at that point (degenerate), repeated
    /// (redundant) rows, and binary, boxed, and half-bounded columns.
    fn random_lp(rng: &mut Rng, n: usize, m: usize) -> Problem {
        let mut draw = |k: u64| rng.next_u64() % k;
        let sense = if draw(2) == 0 {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let mut p = Problem::new(sense);
        let vars: Vec<VarId> = (0..n)
            .map(|j| match draw(3) {
                0 => p.binary(&format!("b{j}")),
                1 => p.continuous(&format!("c{j}"), 0.0, 1.0 + draw(6) as f64),
                _ => p.continuous(&format!("h{j}"), draw(3) as f64, f64::INFINITY),
            })
            .collect();
        let point: Vec<f64> = vars
            .iter()
            .map(|v| p.variables[v.index()].lower + draw(2) as f64)
            .collect();
        // Half-bounded columns never improve the objective, so every LP
        // is bounded.
        let improving = if sense == Sense::Maximize { 1.0 } else { -1.0 };
        for &v in &vars {
            let mut k = draw(13) as f64 - 6.0;
            if p.variables[v.index()].upper.is_infinite() && k * improving > 0.0 {
                k = -k;
            }
            p.set_objective(v, k);
        }
        for _ in 0..m {
            if !p.constraints.is_empty() && draw(8) == 0 {
                let again = p.constraints[draw(p.constraints.len() as u64) as usize].clone();
                p.constraints.push(again);
                continue;
            }
            let scale = if draw(5) == 0 { 65_536.0 } else { 1.0 };
            let terms: Vec<(VarId, f64)> = (0..1 + draw(4))
                .map(|_| {
                    let magnitude = 1.0 + draw(6) as f64;
                    let sign = if draw(3) == 0 { -1.0 } else { 1.0 };
                    (vars[draw(n as u64) as usize], sign * magnitude * scale)
                })
                .collect();
            let activity: f64 = terms.iter().map(|&(v, k)| k * point[v.index()]).sum();
            let slack = draw(3) as f64 * scale;
            let (relation, rhs) = match draw(5) {
                0 => (Relation::Ge, activity - slack),
                1 => (Relation::Eq, activity),
                _ => (Relation::Le, activity + slack),
            };
            p.add_constraint(&terms, relation, rhs);
        }
        p
    }

    /// Pins of one to three finitely bounded variables at a bound.
    fn random_pins(rng: &mut Rng, p: &Problem) -> Vec<(usize, f64)> {
        let n = p.variables.len();
        let count = 1 + rng.next_u64() % 3;
        (0..count)
            .map(|_| {
                let j = (rng.next_u64() % n as u64) as usize;
                let v = &p.variables[j];
                let at_upper = v.upper.is_finite() && rng.next_u64().is_multiple_of(2);
                (j, if at_upper { v.upper } else { v.lower })
            })
            .collect()
    }

    #[test]
    fn sparse_kernels_match_dense_bit_for_bit() {
        let mut pivots = 0;
        let mut refactors = 0;
        let shapes = [(5, 3), (10, 6), (16, 12), (30, 20), (48, 70), (40, 130)];
        for (shape, &(n, m)) in shapes.iter().enumerate() {
            let seeds = if m > 64 { 2 } else { 24 };
            for seed in 0..seeds {
                let mut rng = Rng::stream(seed, shape as u64);
                let p = random_lp(&mut rng, n, m);
                let form = StandardForm::build(&p);
                let mut lp = Lp::new(&form).with_audit();
                let mut trace = SolveTrace::default();
                let bounds = (form.lower.clone(), form.upper.clone());
                let mut stored =
                    match lp.solve(&p, bounds.0, bounds.1, Warm::Cold, &mut trace, true) {
                        SolveOutcome::Optimal { basis, .. } => basis,
                        _ => None,
                    };
                for step in 0..8 {
                    let pins = random_pins(&mut rng, &p);
                    let warm = match &stored {
                        _ if step % 3 != 1 && lp.live_available() => Warm::Live,
                        Some(basis) => Warm::Basis(basis),
                        None => Warm::Cold,
                    };
                    let out = lp.solve_pinned(&p, &[], &pins, warm, &mut trace, true);
                    if let SolveOutcome::Optimal { basis: Some(b), .. } = out {
                        stored = Some(b);
                    }
                }
                let audit = lp.audit.take().expect("audited");
                pivots += audit.pivots;
                refactors += audit.refactors;

                // A stored basis re-solved on shifted right-hand sides.
                let Some(basis) = stored else { continue };
                let mut shifted = p.clone();
                for c in &mut shifted.constraints {
                    c.rhs += (rng.next_u64() % 3) as f64 - 1.0;
                }
                let shifted_form = StandardForm::build(&shifted);
                let mut lp = Lp::new(&shifted_form).with_audit();
                let (lo, up) = (shifted_form.lower.clone(), shifted_form.upper.clone());
                lp.solve(&shifted, lo, up, Warm::Basis(&basis), &mut trace, false);
                let audit = lp.audit.take().expect("audited");
                pivots += audit.pivots;
                refactors += audit.refactors;
            }
        }
        assert!(
            pivots > 1000 && refactors > 200,
            "{pivots} pivots, {refactors} refactors"
        );
    }

    #[test]
    fn node_path_matches_full_rescan() {
        // Branch & bound's node path: one live workspace, a stack of pins
        // that dives one pin at a time and backtracks several at once,
        // over LPs whose Ge/Eq rows give slacks infinite or fixed bounds.
        // Every eighth node restarts from the root basis instead, and must
        // reach a fresh cold solve's optimum.
        let (mut rebinds, mut cached_ys, mut restarts) = (0, 0, 0);
        let shapes = [(6, 4), (12, 8), (20, 14), (36, 30), (48, 70)];
        for (shape, &(n, m)) in shapes.iter().enumerate() {
            for seed in 0..12 {
                let mut rng = Rng::stream(1000 + seed, shape as u64);
                let p = random_lp(&mut rng, n, m);
                let form = StandardForm::build(&p);
                let mut lp = Lp::new(&form).with_audit();
                let mut trace = SolveTrace::default();
                let (lo, up) = (form.lower.clone(), form.upper.clone());
                let root = match lp.solve(&p, lo, up, Warm::Cold, &mut trace, true) {
                    SolveOutcome::Optimal { basis, .. } => basis,
                    _ => None,
                };
                let base = if seed % 2 == 0 {
                    random_pins(&mut rng, &p)
                } else {
                    Vec::new()
                };
                let mut stack: Vec<(usize, f64)> = Vec::new();
                for step in 0..40 {
                    if !stack.is_empty() && rng.next_u64().is_multiple_of(3) {
                        let keep = (rng.next_u64() % stack.len() as u64) as usize;
                        stack.truncate(keep);
                    } else {
                        stack.extend(random_pins(&mut rng, &p).into_iter().take(1));
                    }
                    let warm = match &root {
                        Some(basis) if step % 8 == 7 => Warm::Basis(basis),
                        _ if lp.live_available() => Warm::Live,
                        _ => Warm::Cold,
                    };
                    let out = lp.solve_pinned(&p, &base, &stack, warm, &mut trace, false);
                    if let Warm::Basis(_) = warm {
                        restarts += 1;
                        let fresh = Lp::new(&form).solve_pinned(
                            &p,
                            &base,
                            &stack,
                            Warm::Cold,
                            &mut trace,
                            false,
                        );
                        match (out, fresh) {
                            (
                                SolveOutcome::Optimal { objective: a, .. },
                                SolveOutcome::Optimal { objective: b, .. },
                            ) => assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "{a} vs {b}"),
                            (SolveOutcome::Infeasible, SolveOutcome::Infeasible) => {}
                            (out, fresh) => panic!("restart {out:?} vs fresh {fresh:?}"),
                        }
                    }
                }
                let audit = lp.audit.take().expect("audited");
                rebinds += audit.rebinds;
                cached_ys += audit.cached_ys;
            }
        }
        assert!(
            rebinds > 2000 && cached_ys > 2000 && restarts > 200,
            "{rebinds} incremental rebinds, {cached_ys} cached ys, {restarts} restarts"
        );
    }

    #[test]
    fn ones_lists_set_bits_in_ascending_order() {
        let words = [0b1010_0001, 0, 1 << 63 | 1 << 2];
        let got: Vec<usize> = Ones::new(&words).collect();
        assert_eq!(got, vec![0, 5, 7, 130, 191]);
        assert_eq!(Ones::new(&[]).count(), 0);
        assert_eq!(Ones::new(&[0, 0]).count(), 0);
    }

    fn solve(p: &Problem, pins: &[Option<f64>]) -> LpResult {
        let form = StandardForm::build(p);
        solve_with_pins(&form, p, pins, None, &mut SolveTrace::default()).0
    }

    #[test]
    fn matches_dense_on_textbook_max() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.set_objective(x, 5.0);
        p.set_objective(y, 4.0);
        p.add_constraint(&[(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 21.0).abs() < 1e-6, "z = {}", s.objective);
        assert!((s.values[0] - 3.0).abs() < 1e-6);
        assert!((s.values[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn phase_one_handles_ge_and_eq() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 8.0).abs() < 1e-6, "z = {}", s.objective);

        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, 2.0);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, 1.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve(&p, &[]), LpResult::Infeasible);

        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, f64::INFINITY);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(solve(&p, &[]), LpResult::Unbounded);
    }

    #[test]
    fn pins_respected_without_explicit_rows() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.binary("x");
        let y = p.binary("y");
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        let LpResult::Optimal(s) = solve(&p, &[Some(0.0), None]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!(s.values[0].abs() < 1e-9);
    }

    #[test]
    fn warm_start_after_rhs_tightening_matches_cold() {
        // A capacity-style LP: solve, keep the basis, shrink the rhs, and
        // re-solve warm — the dual simplex must land on the cold optimum.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|i| p.binary(&format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, 10.0 - i as f64);
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Relation::Le, 4.0);

        let form = StandardForm::build(&p);
        let mut trace = SolveTrace::default();
        let (res, basis) = solve_with_pins(&form, &p, &[], None, &mut trace);
        let LpResult::Optimal(cold) = res else {
            panic!("cold solve failed")
        };
        assert!((cold.objective - 34.0).abs() < 1e-6);
        let basis = basis.expect("storable basis");

        let mut tighter = p.clone();
        tighter.constraints[0].rhs = 2.0;
        let tight_form = StandardForm::build(&tighter);
        let mut warm_trace = SolveTrace::default();
        let (warm_res, _) =
            solve_with_pins(&tight_form, &tighter, &[], Some(&basis), &mut warm_trace);
        let LpResult::Optimal(warm) = warm_res else {
            panic!("warm solve failed")
        };
        assert!(warm_trace.warm_used, "warm path must be taken");
        let (cold_res, _) =
            solve_with_pins(&tight_form, &tighter, &[], None, &mut SolveTrace::default());
        let LpResult::Optimal(cold2) = cold_res else {
            panic!("cold re-solve failed")
        };
        assert!(
            (warm.objective - cold2.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold2.objective
        );
    }

    #[test]
    fn warm_start_with_pin_matches_cold() {
        // Branch & bound's exact pattern: optimal parent basis, then a
        // child with one variable pinned.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);

        let form = StandardForm::build(&p);
        let (root, basis) = solve_with_pins(&form, &p, &[], None, &mut SolveTrace::default());
        let LpResult::Optimal(_) = root else {
            panic!("root failed")
        };
        let basis = basis.expect("storable basis");
        for pin in [0.0, 1.0] {
            let pins = vec![None, None, Some(pin)];
            let mut trace = SolveTrace::default();
            let (warm, _) = solve_with_pins(&form, &p, &pins, Some(&basis), &mut trace);
            let (cold, _) = solve_with_pins(&form, &p, &pins, None, &mut SolveTrace::default());
            match (warm, cold) {
                (LpResult::Optimal(w), LpResult::Optimal(c)) => {
                    assert!(
                        (w.objective - c.objective).abs() < 1e-6,
                        "pin {pin}: warm {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                }
                (w, c) => assert_eq!(w, c, "pin {pin}"),
            }
        }
    }

    #[test]
    fn live_reoptimize_matches_fresh_solves() {
        // The dive pattern: keep one workspace, change pins, re-solve live.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        let c = p.binary("c");
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        let form = StandardForm::build(&p);

        let mut lp = Lp::new(&form);
        let root = lp.solve(
            &p,
            form.lower.clone(),
            form.upper.clone(),
            Warm::Cold,
            &mut SolveTrace::default(),
            true,
        );
        assert!(matches!(root, SolveOutcome::Optimal { .. }));
        assert!(lp.live_available());

        for pins in [
            vec![None, None, Some(1.0)],
            vec![None, None, Some(0.0)],
            vec![Some(1.0), None, Some(1.0)],
        ] {
            let (lo, up) = form.bounds_with_pins(&pins);
            let mut trace = SolveTrace::default();
            let live = lp.solve(&p, lo, up, Warm::Live, &mut trace, false);
            let (fresh, _) = solve_with_pins(&form, &p, &pins, None, &mut SolveTrace::default());
            match (live, fresh) {
                (
                    SolveOutcome::Optimal { objective, .. },
                    LpResult::Optimal(LpSolution {
                        objective: fresh_obj,
                        ..
                    }),
                ) => {
                    assert!(
                        (objective - fresh_obj).abs() < 1e-6,
                        "{pins:?}: live {objective} vs fresh {fresh_obj}"
                    );
                }
                (SolveOutcome::Infeasible, LpResult::Infeasible) => {}
                (live, fresh) => panic!("{pins:?}: live {live:?} vs fresh {fresh:?}"),
            }
        }
    }

    #[test]
    fn scaling_keeps_byte_sized_coefficients_stable() {
        // Formulation-sized magnitudes: byte coefficients in the millions.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..8).map(|i| p.binary(&format!("h{i}"))).collect();
        let bytes = [
            600_000.0,
            1_200_000.0,
            300_000.0,
            2_400_000.0,
            150_000.0,
            75_000.0,
            900_000.0,
            37_500.0,
        ];
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, bytes[i] * 0.95);
        }
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, bytes[i]))
            .collect();
        p.add_constraint(&terms, Relation::Le, 3_000_000.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        let dense = crate::dense::solve_relaxation_dense(&p, &[]);
        let LpResult::Optimal(d) = dense else {
            panic!("dense failed")
        };
        let rel = (s.objective - d.objective).abs() / d.objective.abs().max(1.0);
        assert!(
            rel < 1e-9,
            "sparse {} vs dense {}",
            s.objective,
            d.objective
        );
    }
}
