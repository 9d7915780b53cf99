//! The ILP formulation of SPM allocation and prefetching (Sec. 4.3,
//! Eq. 5-6), built per layer and solved with `smart-ilp`.
//!
//! Variables: for every memory object `o`, binaries `h_o` (allocated to its
//! class's SHIFT array) and `r_o` (allocated to the shared RANDOM array);
//! unallocated objects stream from DRAM.
//!
//! Objective (Eq. 5): maximize the access-time saving of SPM residency
//! minus the cost of the loads that bring objects in (`T^HD`, `T^RD`,
//! `T^HR` terms — weights arrive from DRAM, inputs/PSums from the RANDOM
//! array or DRAM).
//!
//! Constraints:
//! * placement exclusivity: `h_o + r_o <= 1`;
//! * Eq. 6 consistency is enforced *by construction*: an object's residency
//!   interval is exactly its lifespan window, so it is loaded once at its
//!   fetch edge and stays until its last edge;
//! * SPM size per edge: resident bytes fit the SHIFT array of each class
//!   and the shared RANDOM array on every edge;
//! * SPM bandwidth: bytes fetched at one edge are bounded by the transfer
//!   budget of one iteration;
//! * sub-bank: at most `banks` objects may be fetched into the RANDOM array
//!   on the same edge (conflicting fetches serialize).

// lint:allow-file(index, the formulation indexes object/slot matrices sized by its own constructor)

use crate::greedy::class_index;
use crate::lifespan::{analyze, Lifespan};
use crate::schedule::{Location, Placement, Schedule, ScheduleSource};
use smart_ilp::problem::{Problem, Relation, Sense, VarId};
use smart_ilp::solver::{MipSolution, Solver};
use smart_ilp::SolverContext;
use smart_systolic::dag::LayerDag;
use smart_units::codec::content_hash;
use smart_units::{Result, SmartError};
use std::hash::{Hash, Hasher};

/// Branch & bound node limit of every layer compile.
const NODE_LIMIT: usize = 2_000;

/// Cost/capacity parameters of the formulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormulationParams {
    /// Per-class SHIFT array capacity in bytes.
    pub shift_capacity: u64,
    /// Shared RANDOM array capacity in bytes.
    pub random_capacity: u64,
    /// RANDOM array bank count (sub-bank constraint).
    pub random_banks: u32,
    /// Bytes transferable into SPMs during one iteration (bandwidth
    /// constraint).
    pub bytes_per_iteration: u64,
    /// Prefetch window `a` (>= 1).
    pub prefetch_window: u32,
    /// Relative time saved per byte when streaming from SHIFT instead of
    /// DRAM (the Eq. 5 `T^H_s` coefficient).
    pub shift_saving_per_byte: f64,
    /// Relative time saved per byte when streaming from RANDOM instead of
    /// DRAM (`T^R_s`).
    pub random_saving_per_byte: f64,
    /// Load cost per byte into SHIFT (`T^HD/HR_r`).
    pub shift_load_per_byte: f64,
    /// Load cost per byte into RANDOM (`T^RD_r`).
    pub random_load_per_byte: f64,
}

impl FormulationParams {
    /// The SMART defaults (Table 4 geometry, cost ratios from the access
    /// latencies: SHIFT 0.02 ns/word, RANDOM 0.103 ns/word, DRAM reference
    /// 1.0).
    #[must_use]
    pub fn smart_default() -> Self {
        Self {
            shift_capacity: 32 * 1024,
            random_capacity: 28 * 1024 * 1024,
            random_banks: 256,
            bytes_per_iteration: 4 * 1024 * 1024,
            prefetch_window: 3,
            shift_saving_per_byte: 1.0,
            random_saving_per_byte: 0.9,
            shift_load_per_byte: 0.05,
            random_load_per_byte: 0.1,
        }
    }
}

/// Builds and solves the allocation ILP for one layer DAG with a private,
/// throwaway [`SolverContext`].
///
/// Falls back to the greedy allocator when the solver cannot find a
/// feasible point (the paper's compiler is "near-optimal" as well). Use
/// [`compile_layer_strict`] to surface solver failures instead of silently
/// degrading, and [`compile_layer_ctx`] to share warm-start state across a
/// sweep of related compilations.
///
/// # Panics
///
/// Panics if `params.prefetch_window` is zero.
#[must_use]
pub fn compile_layer(dag: &LayerDag, params: &FormulationParams) -> Schedule {
    compile_layer_ctx(dag, params, &SolverContext::new())
}

/// Like [`compile_layer`], threading a shared [`SolverContext`] through the
/// solver so adjacent compilations (the same layer at different capacities,
/// the ablation's default-vs-contested runs, sensitivity sweeps) warm-start
/// from each other's optimal bases.
///
/// The greedy allocation is computed first and seeded as the solver's
/// initial incumbent, so best-bound pruning starts at node zero and a
/// node-limited search can never return something worse than greedy.
///
/// # Panics
///
/// Panics if `params.prefetch_window` is zero.
#[must_use]
pub fn compile_layer_ctx(
    dag: &LayerDag,
    params: &FormulationParams,
    solver: &SolverContext,
) -> Schedule {
    let lifespans = analyze(dag, params.prefetch_window);
    let greedy = crate::greedy::allocate(dag, params, lifespans.clone());
    match solve_with_lifespans(dag, params, lifespans, &greedy, solver) {
        // The incumbent seed makes the solver's result at least as good as
        // greedy; this guard only survives as a numerical backstop.
        Ok(s) if s.source == ScheduleSource::IlpFeasible && greedy.objective > s.objective => {
            greedy
        }
        Ok(s) => s,
        Err(_) => greedy,
    }
}

/// Builds and solves the allocation ILP for one layer DAG, surfacing
/// failures as [`SmartError`] instead of falling back to the greedy
/// allocator.
///
/// # Errors
///
/// * [`SmartError::InvalidInput`] when `params.prefetch_window` is zero,
/// * [`SmartError::Infeasible`] / [`SmartError::Unbounded`] from the
///   underlying integer program.
pub fn compile_layer_strict(dag: &LayerDag, params: &FormulationParams) -> Result<Schedule> {
    compile_layer_strict_ctx(dag, params, &SolverContext::new())
}

/// Like [`compile_layer_strict`], with a shared [`SolverContext`] (see
/// [`compile_layer_ctx`]).
///
/// # Errors
///
/// As for [`compile_layer_strict`].
pub fn compile_layer_strict_ctx(
    dag: &LayerDag,
    params: &FormulationParams,
    solver: &SolverContext,
) -> Result<Schedule> {
    if params.prefetch_window == 0 {
        return Err(SmartError::invalid_input(
            "prefetch window must be >= 1 iteration",
        ));
    }
    let lifespans = analyze(dag, params.prefetch_window);
    // The greedy allocation seeds the solver's bound here too, so the
    // strict and fallback entry points explore identically and return the
    // same schedules on solvable layers.
    let greedy = crate::greedy::allocate(dag, params, lifespans.clone());
    solve_with_lifespans(dag, params, lifespans, &greedy, solver)
}

/// Shared core of the `compile_layer*` entry points: formulate and solve
/// given already-computed lifespans (the analysis is O(objects x edges) and
/// every entry point needs it), seeding the greedy schedule as the initial
/// incumbent.
///
/// The solve is keyed by [`formulation_digest`], so a repeat compile on
/// the same context finds its memoized solution without building or
/// hashing the problem.
fn solve_with_lifespans(
    dag: &LayerDag,
    params: &FormulationParams,
    lifespans: Vec<Lifespan>,
    greedy: &Schedule,
    solver: &SolverContext,
) -> Result<Schedule> {
    let digest = formulation_digest(dag, params, &lifespans);
    let sol = Solver::new()
        .with_node_limit(NODE_LIMIT)
        .try_solve_formulation(solver, digest, || {
            let p = build_problem(dag, params, &lifespans);
            let seed = seed_values(dag, greedy, p.num_vars());
            (p, seed)
        })?;
    Ok(schedule_from(dag, params, lifespans, &sol))
}

/// A 128-bit digest of every input the layer's problem and incumbent seed
/// are built from: each object's id, class and bytes, the edge count,
/// each lifespan's edge window, every [`FormulationParams`] field and the
/// node limit. (`build_problem`, `seed_values` and `greedy::allocate`
/// read nothing else.)
fn formulation_digest(dag: &LayerDag, params: &FormulationParams, lifespans: &[Lifespan]) -> u128 {
    content_hash(&FormulationInputs {
        dag,
        params,
        lifespans,
    })
}

/// Hashable view of a formulation's inputs (see [`formulation_digest`]).
struct FormulationInputs<'a> {
    dag: &'a LayerDag,
    params: &'a FormulationParams,
    lifespans: &'a [Lifespan],
}

impl Hash for FormulationInputs<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self.dag.objects.len() as u64).hash(h);
        for o in &self.dag.objects {
            o.id.hash(h);
            o.class.hash(h);
            o.bytes.hash(h);
        }
        (self.dag.edges.len() as u64).hash(h);
        (self.lifespans.len() as u64).hash(h);
        for ls in self.lifespans {
            ls.first_edge.hash(h);
            ls.last_edge.hash(h);
        }
        let p = self.params;
        p.shift_capacity.hash(h);
        p.random_capacity.hash(h);
        p.random_banks.hash(h);
        p.bytes_per_iteration.hash(h);
        p.prefetch_window.hash(h);
        for cost in [
            p.shift_saving_per_byte,
            p.random_saving_per_byte,
            p.shift_load_per_byte,
            p.random_load_per_byte,
        ] {
            cost.to_bits().hash(h);
        }
        (NODE_LIMIT as u64).hash(h);
    }
}

/// Index of object `id`'s SHIFT binary `h_o`; its RANDOM binary `r_o` is
/// the next one ([`build_problem`] declares the pair in object order).
fn h_index(id: u32) -> usize {
    2 * id as usize
}

/// Encodes a (greedy) schedule as ILP variable values, for incumbent
/// seeding: `h_o = 1` for SHIFT placements, `r_o = 1` for RANDOM ones.
fn seed_values(dag: &LayerDag, schedule: &Schedule, n_vars: usize) -> Vec<f64> {
    let mut values = vec![0.0; n_vars];
    for o in &dag.objects {
        match schedule.location_of(o.id) {
            Location::Shift => values[h_index(o.id)] = 1.0,
            Location::Random => values[h_index(o.id) + 1] = 1.0,
            Location::Dram => {}
        }
    }
    values
}

/// Assembles the Eq. 5/6 problem: placement binaries, the saving-minus-load
/// objective, and per-edge capacity / bandwidth / sub-bank constraints.
///
/// Adjacent edges usually see the same live/fetch sets, so the per-edge
/// rows come in long runs of *identical* rows; those are deduplicated
/// before reaching the solver (a duplicate constraint cannot change the
/// feasible region, but every extra row widens the simplex basis). One
/// pass over the objects fills all of an edge's rows. A row equal to the
/// previous edge's row of its kind is already in the problem or already
/// deduplicated, so only changed rows reach the global dedup set.
fn build_problem(dag: &LayerDag, params: &FormulationParams, lifespans: &[Lifespan]) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let mut vars = Vec::with_capacity(dag.objects.len());
    for (i, o) in dag.objects.iter().enumerate() {
        let h = p.binary(&format!("h_{}", o.id));
        let r = p.binary(&format!("r_{}", o.id));
        debug_assert_eq!(
            (h.index(), r.index()),
            (h_index(i as u32), h_index(i as u32) + 1)
        );
        let bytes = o.bytes as f64;
        // Eq. 5: saving minus load cost, folded per object.
        p.set_objective(
            h,
            bytes * (params.shift_saving_per_byte - params.shift_load_per_byte),
        );
        p.set_objective(
            r,
            bytes * (params.random_saving_per_byte - params.random_load_per_byte),
        );
        p.add_constraint(&[(h, 1.0), (r, 1.0)], Relation::Le, 1.0);
        vars.push((h, r));
    }

    // Row kinds, in the order each edge emits them: SHIFT capacity per
    // class, shared RANDOM capacity, fetch bandwidth, RANDOM sub-banks.
    const RANDOM: usize = 4;
    const BANDWIDTH: usize = 5;
    const BANKS: usize = 6;
    let shift_cap = params.shift_capacity as f64;
    let rhs = [
        shift_cap,
        shift_cap,
        shift_cap,
        shift_cap,
        params.random_capacity as f64,
        params.bytes_per_iteration as f64,
        f64::from(params.random_banks),
    ];
    let mut rows: [Vec<(VarId, f64)>; 7] = Default::default();
    let mut prev: [Vec<(VarId, f64)>; 7] = Default::default();
    let mut seen = std::collections::HashSet::new();
    let mut key = Vec::new();
    for edge in 0..dag.edges.len() as u32 {
        for row in &mut rows {
            row.clear();
        }
        for o in &dag.objects {
            let ls = &lifespans[o.id as usize];
            let (h, r) = vars[o.id as usize];
            let bytes = o.bytes as f64;
            if live_on(ls, edge) {
                rows[class_index(o.class)].push((h, bytes));
                rows[RANDOM].push((r, bytes));
            }
            if ls.first_edge == edge {
                rows[BANDWIDTH].extend([(h, bytes), (r, bytes)]);
                rows[BANKS].push((r, 1.0));
            }
        }
        for (kind, terms) in rows.iter().enumerate() {
            if terms.is_empty() || same_row(terms, &prev[kind]) {
                continue;
            }
            key.clear();
            for (v, k) in terms {
                key.extend([v.index() as u64, k.to_bits()]);
            }
            key.push(rhs[kind].to_bits());
            if seen.insert(key.clone()) {
                p.add_constraint(terms, Relation::Le, rhs[kind]);
            }
        }
        std::mem::swap(&mut rows, &mut prev);
    }
    p
}

/// Whether two rows have the same terms, bit for bit.
fn same_row(a: &[(VarId, f64)], b: &[(VarId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Decodes a MIP solution into object placements.
fn schedule_from(
    dag: &LayerDag,
    params: &FormulationParams,
    lifespans: Vec<Lifespan>,
    sol: &MipSolution,
) -> Schedule {
    let source = if sol.proven_optimal {
        ScheduleSource::IlpOptimal
    } else {
        ScheduleSource::IlpFeasible
    };
    let placements = dag
        .objects
        .iter()
        .map(|o| {
            let location = if sol.values[h_index(o.id)] > 0.5 {
                Location::Shift
            } else if sol.values[h_index(o.id) + 1] > 0.5 {
                Location::Random
            } else {
                Location::Dram
            };
            Placement {
                object: o.id,
                location,
            }
        })
        .collect();
    Schedule {
        placements,
        lifespans,
        prefetch_window: params.prefetch_window,
        objective: sol.objective,
        source,
        nodes: sol.nodes,
    }
}

fn live_on(ls: &Lifespan, edge: u32) -> bool {
    ls.first_edge <= edge && edge <= ls.last_edge
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_systolic::layer::ConvLayer;
    use smart_systolic::mapping::{ArrayShape, LayerMapping};
    use smart_systolic::trace::DataClass;

    fn dag_for(layer: &ConvLayer) -> LayerDag {
        let m = LayerMapping::map(layer, ArrayShape::new(64, 256), 1);
        LayerDag::build(&m, 6)
    }

    #[test]
    fn small_layer_fully_resident() {
        // A small layer fits everything in SPM: no object left in DRAM.
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let s = compile_layer(&dag, &FormulationParams::smart_default());
        assert!(matches!(
            s.source,
            ScheduleSource::IlpOptimal | ScheduleSource::IlpFeasible
        ));
        let (_, _, dram) = s.bytes_by_location(&dag);
        assert_eq!(dram, 0, "everything should be SPM-resident");
    }

    #[test]
    fn shift_preferred_for_fit() {
        // SHIFT has the higher saving, so small objects should prefer it.
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let s = compile_layer(&dag, &FormulationParams::smart_default());
        let (shift, _, _) = s.bytes_by_location(&dag);
        assert!(shift > 0);
    }

    #[test]
    fn capacity_respected() {
        // Shrink the SHIFT arrays so large objects must go to RANDOM.
        let l = ConvLayer::conv("c", 56, 56, 128, 256, 3, 1, 1);
        let dag = dag_for(&l);
        let mut params = FormulationParams::smart_default();
        params.shift_capacity = 1024;
        let s = compile_layer(&dag, &params);
        // Verify per-edge residency against capacity.
        for edge in 0..dag.edges.len() as u32 {
            for class in DataClass::ALL {
                let resident: u64 = dag
                    .objects
                    .iter()
                    .filter(|o| o.class == class)
                    .filter(|o| s.location_of(o.id) == Location::Shift)
                    .filter(|o| {
                        let ls = s.lifespans[o.id as usize];
                        ls.first_edge <= edge && edge <= ls.last_edge
                    })
                    .map(|o| o.bytes)
                    .sum();
                assert!(
                    resident <= params.shift_capacity,
                    "edge {edge} class {class:?}: {resident} bytes"
                );
            }
        }
    }

    #[test]
    fn tiny_random_array_pushes_data_to_dram() {
        let l = ConvLayer::conv("c", 56, 56, 128, 256, 3, 1, 1);
        let dag = dag_for(&l);
        let mut params = FormulationParams::smart_default();
        params.shift_capacity = 512;
        params.random_capacity = 1024;
        let s = compile_layer(&dag, &params);
        let (_, _, dram) = s.bytes_by_location(&dag);
        assert!(dram > 0, "overflow must fall back to DRAM");
    }

    #[test]
    fn objective_positive_when_spm_used() {
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let s = compile_layer(&dag, &FormulationParams::smart_default());
        assert!(s.objective > 0.0);
    }

    #[test]
    fn strict_rejects_zero_prefetch_window() {
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let mut params = FormulationParams::smart_default();
        params.prefetch_window = 0;
        let err = compile_layer_strict(&dag, &params).unwrap_err();
        assert!(matches!(err, SmartError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn strict_matches_fallback_on_solvable_layers() {
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let params = FormulationParams::smart_default();
        let strict = compile_layer_strict(&dag, &params).expect("solvable");
        let fallback = compile_layer(&dag, &params);
        assert_eq!(strict.source, fallback.source);
        assert!((strict.objective - fallback.objective).abs() < 1e-9);
    }

    /// The digest-soundness sweep: AlexNet and (every fourth) MobileNet
    /// layer x two array shapes x prefetch windows 1-4 x non-binding and
    /// binding capacities.
    fn digest_sweep() -> Vec<(LayerDag, FormulationParams)> {
        use smart_systolic::models::ModelId;
        let alexnet = ModelId::AlexNet.build().layers;
        let mobilenet = ModelId::MobileNet.build().layers;
        let layers = alexnet.into_iter().chain(mobilenet.into_iter().step_by(4));
        let mut cases = Vec::new();
        for layer in layers {
            for shape in [ArrayShape::new(64, 256), ArrayShape::new(32, 64)] {
                let dag = LayerDag::build(&LayerMapping::map(&layer, shape, 1), 6);
                for window in 1..=4 {
                    let roomy = FormulationParams {
                        prefetch_window: window,
                        ..FormulationParams::smart_default()
                    };
                    let tight = FormulationParams {
                        shift_capacity: 2048,
                        random_capacity: 512 * 1024,
                        ..roomy
                    };
                    cases.push((dag.clone(), roomy));
                    cases.push((dag.clone(), tight));
                }
            }
        }
        cases
    }

    /// The digest's inputs spelled out, to tell a legitimate digest hit
    /// (an earlier case with identical inputs) from a collision.
    fn inputs(dag: &LayerDag, params: &FormulationParams) -> Vec<u64> {
        let objects = dag.objects.iter();
        let lifespans = analyze(dag, params.prefetch_window);
        let p = params;
        objects
            .flat_map(|o| [u64::from(o.id), class_index(o.class) as u64, o.bytes])
            .chain(
                lifespans
                    .iter()
                    .flat_map(|l| [l.first_edge, l.last_edge].map(u64::from)),
            )
            .chain([dag.edges.len() as u64, p.shift_capacity, p.random_capacity])
            .chain([p.random_banks, p.prefetch_window].map(u64::from))
            .chain([p.bytes_per_iteration])
            .chain(
                [
                    p.shift_saving_per_byte,
                    p.random_saving_per_byte,
                    p.shift_load_per_byte,
                    p.random_load_per_byte,
                ]
                .map(f64::to_bits),
            )
            .collect()
    }

    #[test]
    fn repeat_compiles_are_digest_hits_equal_to_fresh_compiles() {
        let shared = SolverContext::new();
        let mut seen: Vec<Vec<u64>> = Vec::new();
        let mut solved = 0;
        for (dag, params) in digest_sweep() {
            // On its own context, the repeat compile is a digest hit that
            // returns the fresh compile and does no search.
            let own = SolverContext::new();
            let fresh = compile_layer_ctx(&dag, &params, &own);
            let before = own.stats();
            let again = compile_layer_ctx(&dag, &params, &own);
            let after = own.stats();
            assert_eq!(again, fresh, "{params:?}");
            // A solve that failed (greedy fallback) stores no solution.
            let hits = before.stored_solutions as u64;
            solved += hits;
            assert_eq!(after.formulation_hits, before.formulation_hits + hits);
            assert_eq!(after.solution_hits, before.solution_hits + hits);
            assert_eq!(
                (after.pivots, after.nodes, after.stored_solutions),
                (before.pivots, before.nodes, before.stored_solutions),
                "a repeat compile does no search"
            );

            // On a context shared by the whole sweep, a first compile hits
            // only when an earlier case had the very same inputs.
            let key = inputs(&dag, &params);
            let before = shared.stats().formulation_hits;
            let _ = compile_layer_ctx(&dag, &params, &shared);
            let hit = shared.stats().formulation_hits > before;
            assert_eq!(hit, hits == 1 && seen.contains(&key), "{params:?}");
            seen.push(key);
        }
        assert!(solved > 100, "{solved} ILP schedules");
    }

    #[test]
    fn every_digest_input_changes_the_digest() {
        for (dag, params) in digest_sweep().into_iter().step_by(7) {
            let lifespans = analyze(&dag, params.prefetch_window);
            let base = formulation_digest(&dag, &params, &lifespans);
            let mut heavier = dag.clone();
            heavier.objects[dag.objects.len() / 2].bytes += 1;
            assert_ne!(base, formulation_digest(&heavier, &params, &lifespans));
            let mut later = lifespans.clone();
            later[0].first_edge += 1;
            assert_ne!(base, formulation_digest(&dag, &params, &later));

            let up = |x: f64| f64::from_bits(x.to_bits() + 1);
            let p = params;
            for changed in [
                FormulationParams {
                    shift_capacity: p.shift_capacity + 1,
                    ..p
                },
                FormulationParams {
                    random_capacity: p.random_capacity + 1,
                    ..p
                },
                FormulationParams {
                    random_banks: p.random_banks + 1,
                    ..p
                },
                FormulationParams {
                    bytes_per_iteration: p.bytes_per_iteration + 1,
                    ..p
                },
                FormulationParams {
                    prefetch_window: p.prefetch_window + 1,
                    ..p
                },
                FormulationParams {
                    shift_saving_per_byte: up(p.shift_saving_per_byte),
                    ..p
                },
                FormulationParams {
                    random_saving_per_byte: up(p.random_saving_per_byte),
                    ..p
                },
                FormulationParams {
                    shift_load_per_byte: up(p.shift_load_per_byte),
                    ..p
                },
                FormulationParams {
                    random_load_per_byte: up(p.random_load_per_byte),
                    ..p
                },
            ] {
                assert_ne!(
                    base,
                    formulation_digest(&dag, &changed, &lifespans),
                    "{changed:?}"
                );
            }
            // A wider window changes the lifespans as well as the field.
            let wider = FormulationParams {
                prefetch_window: p.prefetch_window + 1,
                ..p
            };
            let widened = analyze(&dag, wider.prefetch_window);
            assert_ne!(base, formulation_digest(&dag, &wider, &widened));
        }
    }

    #[test]
    fn prefetch_window_recorded() {
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let mut params = FormulationParams::smart_default();
        params.prefetch_window = 4;
        let s = compile_layer(&dag, &params);
        assert_eq!(s.prefetch_window, 4);
        assert!(s.prefetched_fraction(&dag) > 0.0);
    }
}
