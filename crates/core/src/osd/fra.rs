//! The foresighted refinement algorithm (FRA, Table 1 of the paper).
//!
//! FRA is a coarse-to-fine process: starting from the region split into
//! two triangles along the diagonal (the four corner positions serve as
//! historical-data scaffolding), it repeatedly
//!
//! 1. **foresees** connectivity: counts the connected subgraphs of the
//!    nodes chosen so far and the least number `L(G, Rc)` of relay
//!    nodes that would stitch them together; when the remaining budget
//!    hits that number, it spends the rest of the budget on the relay
//!    positions `P(G, k−i)` and stops (Table 1 lines 5–8);
//! 2. **refines**: selects the unused position with the maximum local
//!    error (line 9);
//! 3. **retriangulates** by Delaunay rules and updates local errors
//!    where new triangles appeared (lines 10–11).
//!
//! Unlike the paper's pseudocode, no phantom corner anchors are kept in
//! the internal surface: the refinement error is measured against the
//! *same* reconstruction the deployment will be judged by (Delaunay
//! interpolation inside the sample hull, nearest-sample extrapolation
//! outside). Anchoring corners whose values no deployed node actually
//! samples makes the greedy systematically blind to border error; see
//! DESIGN.md for the measurement that motivated the change.

use cps_field::Field;
use cps_geometry::{GridSpec, Point2, Triangulation};
use cps_network::{RelayPlan, UnitDiskGraph};

use super::local_error::LocalErrorGrid;
use crate::{CoreError, EvalOptions};

/// Pushes every relay position that does not collide with an
/// already-chosen position (within the dedup tolerance), stopping once
/// the budget `k` is met. Bumps `relays` per placement and returns how
/// many were placed, so callers can tell whether foresight must be
/// re-run for the still-unspent budget.
fn spend_relays(
    chosen: &mut Vec<Point2>,
    relay_positions: &[Point2],
    k: usize,
    relays: &mut usize,
) -> usize {
    let before = chosen.len();
    for &r in relay_positions {
        if chosen.len() < k && chosen.iter().all(|c| c.distance(r) > 1e-9) {
            chosen.push(r);
            *relays += 1;
        }
    }
    chosen.len() - before
}

/// Output of a FRA run.
#[derive(Debug, Clone, PartialEq)]
pub struct FraResult {
    /// The `k` node positions, refinement picks first, relays last.
    pub positions: Vec<Point2>,
    /// How many positions were chosen by error refinement.
    pub refined: usize,
    /// How many positions were spent on connectivity relays.
    pub relays: usize,
}

/// Builder for a FRA run.
///
/// # Example
///
/// ```
/// use cps_core::osd::FraBuilder;
/// use cps_field::PeaksField;
/// use cps_geometry::{GridSpec, Rect};
///
/// let region = Rect::square(100.0).unwrap();
/// let reference = PeaksField::new(region, 8.0);
/// let result = FraBuilder::new(20, 10.0)
///     .grid(GridSpec::new(region, 51, 51).unwrap())
///     .run(&reference)
///     .unwrap();
/// assert_eq!(result.positions.len(), 20);
/// assert_eq!(result.refined + result.relays, 20);
/// ```
#[derive(Debug, Clone)]
pub struct FraBuilder {
    k: usize,
    comm_radius: f64,
    grid: Option<GridSpec>,
    opts: EvalOptions,
}

impl FraBuilder {
    /// Creates a builder for `k` nodes with communication radius
    /// `comm_radius`.
    pub fn new(k: usize, comm_radius: f64) -> Self {
        FraBuilder {
            k,
            comm_radius,
            grid: None,
            opts: EvalOptions::default(),
        }
    }

    /// Sets the candidate grid (the paper's `√A × √A` positions; also
    /// defines the region of interest). Required.
    pub fn grid(mut self, grid: GridSpec) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Sets the evaluation options shared with [`crate::DeltaEvaluator`]
    /// and the CMA simulation builder: the thread policy for the
    /// local-error sweeps (defaults to
    /// [`Parallelism::auto`](cps_field::Parallelism::auto)). The
    /// refinement result is bit-identical at any thread count — this
    /// only changes wall-clock time.
    pub fn evaluator(mut self, opts: EvalOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Runs FRA against the historical reference surface.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] — no grid was supplied, or the
    ///   communication radius is not positive/finite.
    /// * [`CoreError::BudgetTooSmall`] — `k == 0`.
    /// * Propagated geometry/network errors (not expected for valid
    ///   inputs).
    pub fn run<F: Field + Sync>(&self, reference: &F) -> Result<FraResult, CoreError> {
        let grid = self.grid.ok_or(CoreError::InvalidParameter {
            name: "grid",
            requirement: "a candidate grid must be supplied via FraBuilder::grid",
        })?;
        if !self.comm_radius.is_finite() || self.comm_radius <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "comm_radius",
                requirement: "must be positive and finite",
            });
        }
        if self.k == 0 {
            return Err(CoreError::BudgetTooSmall { k: 0, minimum: 1 });
        }
        let rect = grid.rect();

        // The evolving reconstruction surface (empty at first: the
        // initial "approximation" is the nearest-sample extrapolation
        // of whatever has been chosen so far).
        let mut dt = Triangulation::new(rect);
        let mut zs: Vec<f64> = Vec::new();

        let par = self.opts.parallelism;
        // Lines 2–3: the full local-error array, swept on the parallel
        // evaluation engine (bit-identical at any thread count).
        let mut errors = LocalErrorGrid::new(grid, reference, &dt, &zs, par);

        let mut chosen: Vec<Point2> = Vec::with_capacity(self.k);
        let mut refined = 0usize;
        let mut relays = 0usize;
        let obs_threads = par.threads();
        // The relay plan of the last accepted candidate, which is the
        // next foresight step's plan.
        let mut accepted_plan: Option<RelayPlan> = None;

        loop {
            let remaining = self.k - chosen.len();
            if remaining == 0 {
                break;
            }

            // Foresight (lines 5–8): how many relays would connecting
            // the current deployment cost? After a refinement pick the
            // budget check already planned for exactly this deployment.
            let plan = {
                let _t = cps_obs::time(cps_obs::Phase::FraForesight, obs_threads);
                match accepted_plan.take() {
                    Some(plan) => plan,
                    None => self.relay_plan(&chosen)?,
                }
            };
            debug_assert!(
                plan.relay_count() <= remaining,
                "foresight invariant violated: need {} relays with {} remaining",
                plan.relay_count(),
                remaining
            );
            if plan.relay_count() == remaining && remaining > 0 {
                // Spend the rest of the budget on the relay positions
                // P(G, k−i).
                let placed = spend_relays(&mut chosen, plan.relays(), self.k, &mut relays);
                if chosen.len() == self.k {
                    break;
                }
                // Deduplication dropped relays, so part of the budget is
                // still unspent. Re-enter the loop: foresight runs again
                // against the grown deployment, so the remaining picks
                // keep the connectivity invariant. (The old code filled
                // the gap straight from the error grid without another
                // foresight pass, which could strand those fill
                // positions with no relay budget left to reach them.)
                if placed == 0 {
                    // Every relay position collided with a chosen node:
                    // re-running foresight would reproduce the same
                    // degenerate plan forever.
                    return Err(CoreError::InvalidParameter {
                        name: "relay_plan",
                        requirement: "foresight must yield at least one relay position \
                                      distinct from the chosen nodes",
                    });
                }
                cps_obs::count(cps_obs::Counter::RelayReplans);
                continue;
            }

            // Refinement (line 9): the max-local-error position that
            // keeps the foresight invariant satisfiable.
            let budget_after = remaining - 1;
            let mut rejected: Vec<usize> = Vec::new();
            let picked = {
                let _t = cps_obs::time(cps_obs::Phase::FraRefine, obs_threads);
                loop {
                    let Some((candidate, _err)) = errors.argmax(&rejected) else {
                        break None;
                    };
                    if chosen.iter().any(|c| c.distance(candidate) <= 1e-9) {
                        errors.mark_used(candidate);
                        rejected.push(errors.flat_index_of(candidate));
                        cps_obs::count(cps_obs::Counter::ArgmaxRejections);
                        continue;
                    }
                    // Would accepting this candidate still leave enough
                    // budget to connect everything?
                    let mut with_candidate = chosen.clone();
                    with_candidate.push(candidate);
                    let candidate_plan = self.relay_plan(&with_candidate)?;
                    if candidate_plan.relay_count() <= budget_after {
                        accepted_plan = Some(candidate_plan);
                        break Some(candidate);
                    }
                    rejected.push(errors.flat_index_of(candidate));
                    cps_obs::count(cps_obs::Counter::ArgmaxRejections);
                }
            };

            match picked {
                Some(p) => {
                    // Lines 9–11: select, retriangulate, update errors.
                    let _t = cps_obs::time(cps_obs::Phase::FraRetriangulate, obs_threads);
                    errors.mark_used(p);
                    chosen.push(p);
                    refined += 1;
                    // A vertex that grows the sample hull (or an early
                    // vertex, while extrapolation still dominates)
                    // changes the surface far beyond the Delaunay
                    // cavity, so the whole error grid is refreshed;
                    // interior vertices only dirty the cavity plus a
                    // margin where the nearest-sample may have changed.
                    let hull_grows = dt.vertex_count() < 3 || dt.locate(p).is_none();
                    let margin = dt
                        .nearest_vertex(p)
                        .map(|id| 2.0 * dt.vertex(id).distance(p))
                        .unwrap_or(0.0);
                    dt.insert(p)?;
                    zs.push(reference.value(p));
                    if hull_grows {
                        cps_obs::count(cps_obs::Counter::FullGridRecomputes);
                        errors.recompute_region(rect.min(), rect.max(), &dt, &zs, par);
                    } else if let Some((lo, hi)) = dt.last_insert_bbox() {
                        cps_obs::count(cps_obs::Counter::CavityRecomputes);
                        errors.recompute_region(
                            Point2::new(lo.x - margin, lo.y - margin),
                            Point2::new(hi.x + margin, hi.y + margin),
                            &dt,
                            &zs,
                            par,
                        );
                    }
                }
                None => {
                    // No candidate fits the budget: connect what exists
                    // now (need < remaining is guaranteed), then keep
                    // refining with the connected network.
                    let placed = spend_relays(&mut chosen, plan.relays(), self.k, &mut relays);
                    if plan.relay_count() == 0 {
                        // Nothing to connect and nothing selectable:
                        // the grid is exhausted (k larger than the
                        // grid). Give up gracefully.
                        return Err(CoreError::BudgetTooSmall {
                            k: self.k,
                            minimum: chosen.len(),
                        });
                    }
                    if placed == 0 {
                        // Relays exist but all collide with chosen
                        // nodes: iterating again would recompute the
                        // identical plan forever.
                        return Err(CoreError::InvalidParameter {
                            name: "relay_plan",
                            requirement: "foresight must yield at least one relay position \
                                          distinct from the chosen nodes",
                        });
                    }
                    cps_obs::count(cps_obs::Counter::RelayReplans);
                }
            }
        }

        Ok(FraResult {
            positions: chosen,
            refined,
            relays,
        })
    }

    /// The relay plan that would connect `positions` (empty for fewer
    /// than two).
    fn relay_plan(&self, positions: &[Point2]) -> Result<RelayPlan, CoreError> {
        if positions.len() < 2 {
            return Ok(RelayPlan::default());
        }
        let graph = UnitDiskGraph::new(positions.to_vec(), self.comm_radius)?;
        Ok(RelayPlan::for_graph(&graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaEvaluator;
    use cps_field::{GaussianBlob, GaussianMixtureField, Parallelism, PeaksField};
    use cps_geometry::Rect;

    fn region() -> Rect {
        Rect::square(100.0).unwrap()
    }

    fn grid() -> GridSpec {
        GridSpec::new(region(), 51, 51).unwrap()
    }

    fn peaks() -> PeaksField {
        PeaksField::new(region(), 8.0)
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            FraBuilder::new(10, 10.0).run(&peaks()),
            Err(CoreError::InvalidParameter { name: "grid", .. })
        ));
        assert!(matches!(
            FraBuilder::new(10, 0.0).grid(grid()).run(&peaks()),
            Err(CoreError::InvalidParameter {
                name: "comm_radius",
                ..
            })
        ));
        assert!(matches!(
            FraBuilder::new(0, 10.0).grid(grid()).run(&peaks()),
            Err(CoreError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn produces_exactly_k_connected_nodes() {
        for k in [1, 2, 5, 12, 30] {
            let r = FraBuilder::new(k, 10.0).grid(grid()).run(&peaks()).unwrap();
            assert_eq!(r.positions.len(), k, "k = {k}");
            assert_eq!(r.refined + r.relays, k);
            let g = UnitDiskGraph::new(r.positions.clone(), 10.0).unwrap();
            assert!(g.is_connected(), "k = {k} produced a disconnected network");
            // All positions in the region.
            assert!(r.positions.iter().all(|p| region().contains(*p)));
        }
    }

    #[test]
    fn parallelism_does_not_change_the_result() {
        // The whole refinement sequence — argmax choices included — must
        // be invariant under the thread policy.
        let f = peaks();
        let serial = FraBuilder::new(20, 10.0)
            .grid(grid())
            .evaluator(EvalOptions::new().parallelism(Parallelism::serial()))
            .run(&f)
            .unwrap();
        for par in [
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::auto(),
        ] {
            let other = FraBuilder::new(20, 10.0)
                .grid(grid())
                .evaluator(EvalOptions::new().parallelism(par))
                .run(&f)
                .unwrap();
            assert_eq!(serial, other, "with {par:?}");
        }
    }

    #[test]
    fn spend_relays_skips_positions_colliding_with_chosen() {
        // Regression for the defensive-fill path: a relay that lands on
        // an already-chosen node (within the dedup tolerance) must be
        // skipped and reported as not placed, so the caller re-runs
        // foresight instead of blindly topping up from the error grid.
        let mut chosen = vec![Point2::new(10.0, 10.0), Point2::new(30.0, 10.0)];
        let mut relays = 0usize;
        let plan = [
            Point2::new(10.0, 10.0 + 1e-12), // collides with chosen[0]
            Point2::new(20.0, 10.0),
            Point2::new(20.0, 10.0), // collides with the one just placed
        ];
        let placed = spend_relays(&mut chosen, &plan, 4, &mut relays);
        assert_eq!(placed, 1);
        assert_eq!(relays, 1);
        assert_eq!(chosen.len(), 3);
        assert_eq!(chosen[2], Point2::new(20.0, 10.0));

        // Budget cap: with k already met nothing more is placed.
        let placed = spend_relays(&mut chosen, &[Point2::new(50.0, 50.0)], 3, &mut relays);
        assert_eq!(placed, 0);
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn budget_met_and_connected_across_radii() {
        // Broadened coverage for the relay-spend path: every radius in
        // this sweep must end with exactly k nodes and a connected
        // network, including tight radii where foresight fires often.
        let f = peaks();
        for rc in [6.0, 8.0, 12.0, 18.0, 40.0] {
            for k in [3, 9, 21] {
                let r = FraBuilder::new(k, rc).grid(grid()).run(&f).unwrap();
                assert_eq!(r.positions.len(), k, "rc = {rc}, k = {k}");
                assert_eq!(r.refined + r.relays, k, "rc = {rc}, k = {k}");
                let g = UnitDiskGraph::new(r.positions.clone(), rc).unwrap();
                assert!(g.is_connected(), "rc = {rc}, k = {k} disconnected");
            }
        }
    }

    #[test]
    fn no_duplicate_positions() {
        let r = FraBuilder::new(25, 10.0)
            .grid(grid())
            .run(&peaks())
            .unwrap();
        for i in 0..r.positions.len() {
            for j in i + 1..r.positions.len() {
                assert!(
                    r.positions[i].distance(r.positions[j]) > 1e-9,
                    "duplicate at {i},{j}"
                );
            }
        }
    }

    #[test]
    fn first_pick_is_the_hottest_error() {
        // One sharp blob: the first refinement position must be at it.
        let f = GaussianMixtureField::new(
            0.0,
            vec![GaussianBlob::isotropic(Point2::new(60.0, 40.0), 20.0, 3.0)],
        );
        let r = FraBuilder::new(5, 200.0).grid(grid()).run(&f).unwrap();
        // Generous radius → no relays, pure refinement.
        assert_eq!(r.relays, 0);
        assert!(r.positions[0].distance(Point2::new(60.0, 40.0)) <= 2.0 * 2f64.sqrt());
    }

    #[test]
    fn large_radius_spends_everything_on_refinement() {
        let r = FraBuilder::new(20, 1000.0)
            .grid(grid())
            .run(&peaks())
            .unwrap();
        assert_eq!(r.refined, 20);
        assert_eq!(r.relays, 0);
    }

    #[test]
    fn tight_radius_spends_more_on_relays() {
        let loose = FraBuilder::new(30, 25.0)
            .grid(grid())
            .run(&peaks())
            .unwrap();
        let tight = FraBuilder::new(30, 8.0).grid(grid()).run(&peaks()).unwrap();
        assert!(
            tight.relays >= loose.relays,
            "tight {} vs loose {}",
            tight.relays,
            loose.relays
        );
    }

    #[test]
    fn fra_beats_random_when_connectivity_is_loose() {
        // At Rc = 30 no budget is lost to relays: pure refinement must
        // beat a random scattering decisively (the Fig. 7 claim).
        use rand::{rngs::StdRng, SeedableRng};
        let f = peaks();
        let g = grid();
        let fra = FraBuilder::new(40, 30.0).grid(g).run(&f).unwrap();
        let ev = DeltaEvaluator::new(&f, &g, 30.0);
        let fra_eval = ev.evaluate(&fra.positions).unwrap();
        assert!(fra_eval.connected);
        let mut rng = StdRng::seed_from_u64(11);
        let rand_eval = {
            let pts = crate::osd::baselines::random_deployment(region(), 40, &mut rng);
            ev.evaluate(&pts).unwrap()
        };
        assert!(
            fra_eval.delta < 0.7 * rand_eval.delta,
            "fra {} vs random {}",
            fra_eval.delta,
            rand_eval.delta
        );
    }

    #[test]
    fn fra_beats_worst_case_even_under_tight_connectivity() {
        // At Rc = 10 much of the budget goes to relays on this
        // sharp-featured surface, but FRA must still beat the trivial
        // 4-corner deployment.
        let f = peaks();
        let g = grid();
        let fra = FraBuilder::new(40, 10.0).grid(g).run(&f).unwrap();
        let fra_eval = DeltaEvaluator::new(&f, &g, 10.0)
            .evaluate(&fra.positions)
            .unwrap();
        let corners_eval = DeltaEvaluator::new(&f, &g, 1000.0)
            .evaluate(&region().corners())
            .unwrap();
        assert!(fra_eval.connected);
        assert!(
            fra_eval.delta < corners_eval.delta,
            "fra {} vs corners {}",
            fra_eval.delta,
            corners_eval.delta
        );
    }
}
