//! Adaptive-timestep transient integration over the sparse MNA core.
//!
//! The fixed-step engine in [`crate::engine`] resolves a 60 ps SFQ run at
//! the 0.02 ps step the *switching events* need, even though the junctions
//! sit quiescent for most of the run. This module drives the same stamps
//! through [`crate::sparse`] with step-doubling local-truncation-error
//! (LTE) control instead:
//!
//! * every step is computed twice — once with `h`, once as two `h/2`
//!   sub-steps — and the difference (Richardson) estimates the trapezoidal
//!   LTE; the half-step solution is the one committed;
//! * the step shrinks through JJ phase slips (where the sine branch makes
//!   the solution stiff) and grows geometrically through quiescent
//!   stretches, bounded by [`AdaptiveSpec::h_max`];
//! * a Newton divergence at some `h` is treated as "step too large", not
//!   failure: the step shrinks and retries until [`AdaptiveSpec::h_min`];
//! * the per-step `h` is threaded through every companion model and the
//!   dissipation integral (the same `commit_step` the fixed-step path
//!   uses).
//!
//! All numeric scratch lives in a reusable [`Workspace`] — the sparsity
//! pattern and its symbolic LU are analyzed once per engine, and repeated
//! runs (parameter sweeps re-simulating the same topology) allocate
//! nothing beyond the returned trace.

// lint:allow-file(index, step-history indices are bounded by the ring length beside them)

use crate::circuit::NodeId;
use crate::engine::{ElementStates, Engine, SimulationError, Transient, MAX_NEWTON, NEWTON_TOL};
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
    /// The single full-`h` probe step (reads committed states).
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
    /// Analyzes the circuit's sparsity pattern (symbolic stamps + fill-in)
    /// and allocates the numeric scratch for adaptive runs. Reuse the
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

        let mut times = Vec::new();
        let mut voltages: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
        times.push(0.0);
        for (pi, p) in probes.iter().enumerate() {
            voltages[pi].push(self.node_voltage(&ws.x, *p));
        }

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
            for (pi, p) in probes.iter().enumerate() {
                voltages[pi].push(self.node_voltage(&ws.x, *p));
            }

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
