//! Transient stepping over the sparse MNA core: one stamp cache, one LU
//! kind and one Newton loop under two step policies.
//!
//! [`Engine::run`] and [`Engine::run_adaptive`] drive the stamps of
//! [`crate::engine`] through [`crate::sparse`] with the same [`Workspace`]
//! and the same per-step solve (`advance`). They differ only in how they
//! choose and accept `h`:
//!
//! * **fixed**: `t = h·k` for `k = 1..=ceil(stop / h)`, the final step
//!   clamped onto `stop`; every step is accepted;
//! * **adaptive**: a fixed step small enough for the *switching events*
//!   (0.02 ps for a 60 ps SFQ run) is wasted on the stretches where the
//!   junctions sit quiescent, so the step is chosen by step-doubling
//!   local-truncation-error (LTE) control instead:
//!   * every step is computed twice — once with `h`, once as two `h/2`
//!     sub-steps — and the difference (Richardson) estimates the
//!     trapezoidal LTE; the half-step solution is the one committed;
//!   * the step shrinks through JJ phase slips (where the sine branch
//!     makes the solution stiff) and grows geometrically through quiescent
//!     stretches, bounded by [`AdaptiveSpec::h_max`];
//!   * a Newton divergence at some `h` is treated as "step too large", not
//!     failure: the step shrinks and retries until [`AdaptiveSpec::h_min`].
//!
//! Under both policies the per-step `h` is threaded through every companion
//! model and the dissipation integral (`commit_step`).
//!
//! All numeric scratch lives in a reusable [`Workspace`] — the sparsity
//! pattern and its symbolic LU are analyzed once per engine, and repeated
//! adaptive runs (parameter sweeps re-simulating the same topology)
//! allocate nothing beyond the returned trace.

// lint:allow-file(index, step-history indices are bounded by the ring length beside them)

use crate::circuit::NodeId;
use crate::engine::{
    ElementStates, Engine, SimulationError, Transient, TransientSpec, MAX_NEWTON, NEWTON_TOL,
};
use crate::sparse::{SparseLu, SparseMatrix, SymbolicLu};

/// Parameters of an adaptive transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Simulation end time (s).
    pub stop: f64,
    /// Initial step size (s).
    pub h_init: f64,
    /// Smallest step the controller may take (s). Reaching it forces
    /// acceptance (the error floor of the method).
    pub h_min: f64,
    /// Largest step the controller may take (s). Bounds how far the engine
    /// coasts through quiescent stretches (and how much of a narrow input
    /// pulse a single step could leap over).
    pub h_max: f64,
    /// Per-step LTE tolerance on node voltages (V).
    pub tol: f64,
}

impl AdaptiveSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < h_min <= h_init <= h_max <= stop` and
    /// `tol > 0`, all finite.
    #[must_use]
    pub fn new(stop: f64, h_init: f64, h_min: f64, h_max: f64, tol: f64) -> Self {
        assert!(stop > 0.0 && stop.is_finite(), "stop time must be positive");
        assert!(h_min > 0.0 && h_min.is_finite(), "h_min must be positive");
        assert!(
            h_min <= h_init && h_init <= h_max,
            "need h_min <= h_init <= h_max"
        );
        assert!(h_max <= stop, "h_max must not exceed stop time");
        assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
        Self {
            stop,
            h_init,
            h_min,
            h_max,
            tol,
        }
    }

    /// Defaults for picosecond-scale SFQ circuits: start at 0.05 ps, floor
    /// at 0.1 as, cap at 1 ps (narrower than any SFQ input pulse, so a
    /// quiescent coast cannot leap over one), and a 0.4 uV per-step LTE
    /// tolerance (~0.05% of the ~mV pulse peak — tight enough that pulse
    /// counts and crossing times match the 0.02 ps fixed-step oracle
    /// within 1%).
    ///
    /// # Panics
    ///
    /// Panics if `stop` is not at least a picosecond.
    #[must_use]
    pub fn sfq(stop: f64) -> Self {
        assert!(stop >= 1e-12, "SFQ runs are picosecond-scale");
        Self::new(stop, 0.05e-12, 1e-19, 1.0e-12, 4e-7)
    }
}

/// Which sub-step of a step-doubling trial is being solved. The variant
/// picks both the cached LU slot (full- vs half-step size — caching both
/// means a quiescent stretch of a *linear* circuit refactors nothing at
/// all) and the element-state history the companion sources read (the
/// committed pre-step states, or the half-trial states advanced by the
/// first half step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubStep {
    /// A full-`h` step: a fixed-policy step, or the adaptive trial's probe
    /// step (reads committed states).
    Full,
    /// The first `h/2` step (reads committed states).
    FirstHalf,
    /// The second `h/2` step (reads the advanced half-trial states).
    SecondHalf,
}

impl SubStep {
    fn uses_half_lu(self) -> bool {
        !matches!(self, Self::Full)
    }

    fn reads_half_states(self) -> bool {
        matches!(self, Self::SecondHalf)
    }
}

/// Workspace solution-buffer names (lets the helpers move values between
/// buffers without aliasing `&mut` borrows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buf {
    X,
    XFull,
    XMid,
    XNew,
    Rhs,
}

#[derive(Debug)]
struct CachedLu {
    lu: SparseLu,
    /// Step size of the currently installed linear factors (NaN = none).
    h: f64,
}

/// Reusable per-engine numeric scratch: the stamped sparse matrix, two
/// cached LU factorizations, RHS/solution buffers, and the element-state
/// copies the step-doubling trials advance.
#[derive(Debug)]
pub struct Workspace {
    a: SparseMatrix,
    /// Cached linear-stamp values for `base_h` (the junction linearization
    /// is re-added on top each Newton iteration).
    base_values: Vec<f64>,
    base_h: f64,
    lu_full: CachedLu,
    lu_half: CachedLu,
    rhs_base: Vec<f64>,
    rhs: Vec<f64>,
    x: Vec<f64>,
    x_full: Vec<f64>,
    x_mid: Vec<f64>,
    x_new: Vec<f64>,
    states: ElementStates,
    states_half: ElementStates,
    /// Resistive dissipation of the current half-step trial.
    diss_half: f64,
}

impl Workspace {
    fn new(engine: &Engine) -> Self {
        let pattern = engine.mna_pattern();
        let symbolic = SymbolicLu::analyze(&pattern);
        let n = pattern.dim();
        let a = SparseMatrix::zeros(pattern);
        let states = ElementStates::for_circuit(engine.circuit());
        Self {
            base_values: vec![0.0; a.values().len()],
            base_h: f64::NAN,
            lu_full: CachedLu {
                lu: SparseLu::new(symbolic.clone()),
                h: f64::NAN,
            },
            lu_half: CachedLu {
                lu: SparseLu::new(symbolic),
                h: f64::NAN,
            },
            rhs_base: vec![0.0; n],
            rhs: vec![0.0; n],
            x: vec![0.0; n],
            x_full: vec![0.0; n],
            x_mid: vec![0.0; n],
            x_new: vec![0.0; n],
            a,
            states_half: states.clone(),
            states,
            diss_half: 0.0,
        }
    }

    /// Resets all numeric state for a fresh run (buffers keep their
    /// allocations).
    fn reset(&mut self) {
        self.base_h = f64::NAN;
        self.lu_full.h = f64::NAN;
        self.lu_half.h = f64::NAN;
        self.x.fill(0.0);
        self.diss_half = 0.0;
        self.states
            .caps
            .iter_mut()
            .for_each(|s| *s = Default::default());
        self.states
            .inds
            .iter_mut()
            .for_each(|s| *s = Default::default());
        self.states
            .jjs
            .iter_mut()
            .for_each(|s| *s = Default::default());
    }

    fn buf(&self, b: Buf) -> &[f64] {
        match b {
            Buf::X => &self.x,
            Buf::XFull => &self.x_full,
            Buf::XMid => &self.x_mid,
            Buf::XNew => &self.x_new,
            Buf::Rhs => &self.rhs,
        }
    }

    fn take_buf(&mut self, b: Buf) -> Vec<f64> {
        match b {
            Buf::X => std::mem::take(&mut self.x),
            Buf::XFull => std::mem::take(&mut self.x_full),
            Buf::XMid => std::mem::take(&mut self.x_mid),
            Buf::XNew => std::mem::take(&mut self.x_new),
            Buf::Rhs => std::mem::take(&mut self.rhs),
        }
    }

    fn put_buf(&mut self, b: Buf, v: Vec<f64>) {
        match b {
            Buf::X => self.x = v,
            Buf::XFull => self.x_full = v,
            Buf::XMid => self.x_mid = v,
            Buf::XNew => self.x_new = v,
            Buf::Rhs => self.rhs = v,
        }
    }

    fn copy_buf(&mut self, from: Buf, to: Buf) {
        if from == to {
            return;
        }
        let src = self.take_buf(from);
        match to {
            Buf::X => self.x.copy_from_slice(&src),
            Buf::XFull => self.x_full.copy_from_slice(&src),
            Buf::XMid => self.x_mid.copy_from_slice(&src),
            Buf::XNew => self.x_new.copy_from_slice(&src),
            Buf::Rhs => self.rhs.copy_from_slice(&src),
        }
        self.put_buf(from, src);
    }
}

impl Engine {
    /// Runs a fixed-step transient, recording the requested probe nodes.
    ///
    /// The step grid is `t = h·k` for `k = 1..=ceil(stop / h)`; the final
    /// step is clamped so the trace (and the dissipation integral) ends
    /// exactly on `stop`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::UnknownProbe`] if a probe node does not
    /// belong to the circuit, [`SimulationError::Singular`] for ill-formed
    /// circuits, and [`SimulationError::NewtonDiverged`] if the junction
    /// iteration fails.
    pub fn run(
        &self,
        spec: TransientSpec,
        probes: &[NodeId],
    ) -> Result<Transient, SimulationError> {
        self.check_probes(probes)?;
        let mut ws = self.prepare_workspace();
        let h = spec.step;
        let steps = (spec.stop / h).ceil() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); probes.len()];
        times.push(0.0);
        self.record(&ws.x, probes, &mut voltages);

        let mut dissipated = 0.0;
        let mut t_prev = 0.0;
        for k in 1..=steps {
            // Full-length steps use `h` verbatim; only a final step past
            // `stop` is clamped onto it.
            let t_unclamped = h * k as f64;
            let (t, hk) = if t_unclamped <= spec.stop {
                (t_unclamped, h)
            } else {
                (spec.stop, spec.stop - t_prev)
            };
            if hk <= 0.0 {
                // `ceil` rounding artifact: the previous step already
                // reached `stop` exactly.
                break;
            }
            self.advance(t, hk, SubStep::Full, &mut ws, Buf::X, Buf::XNew)?;
            dissipated += self.commit_step(&ws.x_new, hk, &mut ws.states);
            std::mem::swap(&mut ws.x, &mut ws.x_new);
            t_prev = t;
            times.push(t);
            self.record(&ws.x, probes, &mut voltages);
        }

        Ok(Transient::from_parts(
            times,
            probes.to_vec(),
            voltages,
            dissipated,
        ))
    }

    /// Analyzes the circuit's sparsity pattern (symbolic stamps + fill-in)
    /// and allocates the numeric scratch for transient runs. Reuse the
    /// returned workspace across runs of the same engine via
    /// [`Engine::run_adaptive_with`] to amortize all allocation.
    #[must_use]
    pub fn prepare_workspace(&self) -> Workspace {
        Workspace::new(self)
    }

    /// Runs an adaptive-timestep transient with a fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::UnknownProbe`] if a probe node does not
    /// belong to the circuit, [`SimulationError::Singular`] for ill-formed
    /// circuits, and [`SimulationError::NewtonDiverged`] only if the
    /// junction iteration still fails at [`AdaptiveSpec::h_min`].
    pub fn run_adaptive(
        &self,
        spec: AdaptiveSpec,
        probes: &[NodeId],
    ) -> Result<Transient, SimulationError> {
        let mut ws = self.prepare_workspace();
        self.run_adaptive_with(spec, probes, &mut ws)
    }

    /// [`Engine::run_adaptive`] reusing a previously prepared workspace:
    /// repeated runs allocate nothing beyond the returned trace.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_adaptive`].
    ///
    /// # Panics
    ///
    /// Panics if the workspace was prepared for a different circuit
    /// topology.
    pub fn run_adaptive_with(
        &self,
        spec: AdaptiveSpec,
        probes: &[NodeId],
        ws: &mut Workspace,
    ) -> Result<Transient, SimulationError> {
        self.check_probes(probes)?;
        assert_eq!(
            ws.a.dim(),
            self.unknown_count(),
            "workspace belongs to a different circuit"
        );
        ws.reset();

        let mut times = vec![0.0];
        let mut voltages: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
        self.record(&ws.x, probes, &mut voltages);

        let mut dissipated = 0.0;
        let mut t = 0.0;
        let mut h = spec.h_init.min(spec.stop);
        // Remainders below the step floor are snapped onto `stop` so the
        // trace always ends there exactly.
        let snap = 0.5 * spec.h_min;

        while t < spec.stop {
            h = h.clamp(spec.h_min, spec.h_max).min(spec.stop - t);
            let est = loop {
                if spec.stop - (t + h) < snap {
                    h = spec.stop - t;
                }
                match self.trial_step(t, h, ws) {
                    Ok(est) => {
                        if est <= spec.tol || h <= spec.h_min * (1.0 + 1e-12) {
                            break est;
                        }
                        // Shrink toward the tolerance (sqrt: the trapezoid
                        // LTE estimate scales as h^2).
                        let fac = (0.9 * (spec.tol / est).sqrt()).clamp(0.1, 0.5);
                        h = (h * fac).max(spec.h_min);
                    }
                    Err(SimulationError::NewtonDiverged { .. }) if h > spec.h_min => {
                        // A JJ switching edge the current step leapt over:
                        // shrink hard and retry.
                        h = (h * 0.25).max(spec.h_min);
                    }
                    Err(e) => return Err(e),
                }
            };

            // Accept the (more accurate) two-half-step result.
            dissipated += ws.diss_half;
            let (committed, half) = (&mut ws.states, &ws.states_half);
            committed.copy_from(half);
            std::mem::swap(&mut ws.x, &mut ws.x_new);
            t += h;
            times.push(t);
            self.record(&ws.x, probes, &mut voltages);

            // Grow (or keep) the step for the next interval.
            let fac = if est > 0.0 {
                (0.9 * (spec.tol / est).sqrt()).clamp(0.2, 2.0)
            } else {
                2.0
            };
            h *= fac;
        }

        Ok(Transient::from_parts(
            times,
            probes.to_vec(),
            voltages,
            dissipated,
        ))
    }

    /// One step-doubling trial from `(t, ws.x, ws.states)` with step `h`:
    /// solves the full step into `ws.x_full` and the two half steps into
    /// `ws.x_new` (advancing `ws.states_half` and accumulating
    /// `ws.diss_half`), and returns the Richardson LTE estimate over the
    /// node voltages. Nothing is committed — the caller accepts or retries.
    fn trial_step(&self, t: f64, h: f64, ws: &mut Workspace) -> Result<f64, SimulationError> {
        let n_volt = self.circuit().node_count() - 1;

        // Full step (probe only: its states are never committed).
        self.advance(t + h, h, SubStep::Full, ws, Buf::X, Buf::XFull)?;

        // Two half steps.
        let half = 0.5 * h;
        ws.diss_half = 0.0;
        {
            let (committed, trial) = (&ws.states, &mut ws.states_half);
            trial.copy_from(committed);
        }
        self.advance(t + half, half, SubStep::FirstHalf, ws, Buf::X, Buf::XMid)?;
        ws.diss_half += self.commit_half(Buf::XMid, half, ws);
        self.advance(t + h, half, SubStep::SecondHalf, ws, Buf::XMid, Buf::XNew)?;
        ws.diss_half += self.commit_half(Buf::XNew, half, ws);

        // Richardson estimate on the node voltages: trapezoid is order 2,
        // so err(half result) ~= |x_full - x_half| / 3.
        let mut err: f64 = 0.0;
        for i in 0..n_volt {
            err = err.max((ws.x_full[i] - ws.x_new[i]).abs());
        }
        Ok(err / 3.0)
    }

    /// Solves one trapezoidal step to `t_new` of size `h`, reading the
    /// companion history selected by `sub` and the Newton starting guess
    /// from `from`, writing the solution into `into`.
    fn advance(
        &self,
        t_new: f64,
        h: f64,
        sub: SubStep,
        ws: &mut Workspace,
        from: Buf,
        into: Buf,
    ) -> Result<(), SimulationError> {
        // Refresh the cached linear stamp if the step size changed.
        if ws.base_h != h {
            ws.a.clear();
            self.stamp_linear(&mut ws.a, h);
            ws.base_values.copy_from_slice(ws.a.values());
            ws.base_h = h;
        }
        if sub.reads_half_states() {
            let (states, rhs_base) = (&ws.states_half, &mut ws.rhs_base);
            self.rhs_linear_into(t_new, h, states, rhs_base);
        } else {
            let (states, rhs_base) = (&ws.states, &mut ws.rhs_base);
            self.rhs_linear_into(t_new, h, states, rhs_base);
        }

        if !self.circuit().is_nonlinear() {
            let cached = if sub.uses_half_lu() {
                &mut ws.lu_half
            } else {
                &mut ws.lu_full
            };
            if cached.h != h {
                ws.a.values_mut().copy_from_slice(&ws.base_values);
                cached
                    .lu
                    .refactor(&ws.a)
                    .map_err(|s| SimulationError::Singular { column: s.column })?;
                cached.h = h;
            }
            ws.rhs.copy_from_slice(&ws.rhs_base);
            cached.lu.solve_in_place(&mut ws.rhs);
            ws.copy_buf(Buf::Rhs, into);
            return Ok(());
        }

        // Newton: re-stamp the junction linearization over the cached
        // linear values, refactor the same symbolic pattern in place,
        // iterate to convergence.
        ws.copy_buf(from, into);
        for _ in 0..MAX_NEWTON {
            ws.a.values_mut().copy_from_slice(&ws.base_values);
            ws.rhs.copy_from_slice(&ws.rhs_base);
            {
                let guess = ws.take_buf(into);
                let states = if sub.reads_half_states() {
                    &ws.states_half
                } else {
                    &ws.states
                };
                let (a, rhs) = (&mut ws.a, &mut ws.rhs);
                // `a`/`rhs`/`states` are disjoint workspace fields; the
                // guess was moved out to avoid aliasing.
                self.stamp_junctions(a, rhs, h, &guess, states);
                ws.put_buf(into, guess);
            }
            let cached = if sub.uses_half_lu() {
                &mut ws.lu_half
            } else {
                &mut ws.lu_full
            };
            cached
                .lu
                .refactor(&ws.a)
                .map_err(|s| SimulationError::Singular { column: s.column })?;
            cached.lu.solve_in_place(&mut ws.rhs);
            let delta = max_abs_diff(ws.buf(Buf::Rhs), ws.buf(into));
            ws.copy_buf(Buf::Rhs, into);
            if delta < NEWTON_TOL {
                return Ok(());
            }
        }
        Err(SimulationError::NewtonDiverged { time: t_new })
    }

    /// Appends each probe's voltage in the solution `x` to its trace.
    fn record(&self, x: &[f64], probes: &[NodeId], voltages: &mut [Vec<f64>]) {
        for (trace, p) in voltages.iter_mut().zip(probes) {
            trace.push(self.node_voltage(x, *p));
        }
    }

    /// Commits the half-trial solution in `solution` into
    /// `ws.states_half`, returning the step's dissipation.
    fn commit_half(&self, solution: Buf, h: f64, ws: &mut Workspace) -> f64 {
        let x = ws.take_buf(solution);
        let d = self.commit_step(&x, h, &mut ws.states_half);
        ws.put_buf(solution, x);
        d
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
