//! Deployment evaluation: reconstruct from the node samples and measure
//! the paper's δ against the reference surface.
//!
//! The single entry point is [`DeltaEvaluator`]: a builder holding the
//! reference field, grid, and communication radius, with options for
//! the thread policy and survivor graceful degradation. δ is
//! integrated by the raster kernel ([`cps_field::raster`]).

use cps_field::raster::delta_rms_raster;
use cps_field::{delta, Field, FieldError, Parallelism, PlaneField, ReconstructedSurface};
use cps_geometry::{GridSpec, Point2};
use cps_network::UnitDiskGraph;
use serde::{Deserialize, Serialize};

use crate::CoreError;

/// Quality report for a node deployment against a reference field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeploymentEvaluation {
    /// The paper's δ: `∬ |f − DT| dA` (Eqn. 2).
    pub delta: f64,
    /// Root-mean-square pointwise error (secondary metric).
    pub rms: f64,
    /// Whether the deployment's unit-disk graph is connected — the
    /// feasibility constraint of Definitions 3.1/3.2.
    pub connected: bool,
    /// Number of nodes evaluated.
    pub node_count: usize,
}

/// The thread policy as the FRA and CMA builders take it (their
/// `.evaluator(...)` option) and a simulation hands it on to its δ
/// timeline; [`DeltaEvaluator`] takes the bare policy through
/// [`DeltaEvaluator::parallelism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalOptions {
    /// Thread policy for grid sweeps. Results are bit-identical at any
    /// thread count; this only changes wall-clock time.
    pub parallelism: Parallelism,
}

impl EvalOptions {
    /// The defaults: [`Parallelism::auto`].
    pub fn new() -> Self {
        EvalOptions::default()
    }

    /// Sets the thread policy.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            parallelism: Parallelism::auto(),
        }
    }
}

/// The unified deployment-evaluation builder: samples the reference at
/// the node positions, rebuilds `z* = DT(x, y)`, and measures δ and RMS
/// over the grid, along with unit-disk connectivity.
///
/// The evaluator holds no state between
/// [`evaluate`](DeltaEvaluator::evaluate) calls, and every result is
/// bit-identical at any thread count.
///
/// # Example
///
/// ```
/// use cps_core::DeltaEvaluator;
/// use cps_field::PlaneField;
/// use cps_geometry::{GridSpec, Point2, Rect};
///
/// let region = Rect::square(10.0).unwrap();
/// let grid = GridSpec::new(region, 21, 21).unwrap();
/// let f = PlaneField::new(1.0, 1.0, 0.0);
/// let nodes: Vec<Point2> = region.corners().to_vec();
/// let eval = DeltaEvaluator::new(&f, &grid, 15.0).evaluate(&nodes).unwrap();
/// assert!(eval.delta < 1e-9); // planes reconstruct exactly
/// assert!(eval.connected);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaEvaluator<'f, F> {
    reference: &'f F,
    grid: GridSpec,
    comm_radius: f64,
    par: Parallelism,
    survivors: bool,
}

impl<'f, F: Field + Sync> DeltaEvaluator<'f, F> {
    /// Creates an evaluator for `reference` over `grid` with the given
    /// communication radius (auto parallelism, hard errors below three
    /// distinct nodes).
    pub fn new(reference: &'f F, grid: &GridSpec, comm_radius: f64) -> Self {
        DeltaEvaluator {
            reference,
            grid: *grid,
            comm_radius,
            par: Parallelism::auto(),
            survivors: false,
        }
    }

    /// Sets the thread policy for the δ and RMS sweeps.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Enables graceful degradation under attrition: with fewer than
    /// three distinct positions the abstraction collapses to the best
    /// constant surface — the mean of the survivor samples (0 with no
    /// survivors) — instead of erroring, so the honest, large δ shows
    /// up in survivability curves instead of aborting them.
    pub fn survivors(mut self, survivors: bool) -> Self {
        self.survivors = survivors;
        self
    }

    /// Evaluates one deployment.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Field`] — fewer than 3 distinct positions (unless
    ///   [`survivors`](DeltaEvaluator::survivors) absorbs it), a
    ///   position outside the grid's region, or non-finite values.
    /// * [`CoreError::Network`] — invalid communication radius.
    pub fn evaluate(&self, positions: &[Point2]) -> Result<DeploymentEvaluation, CoreError> {
        let par = self.par;
        let samples: Vec<f64> = positions.iter().map(|&p| self.reference.value(p)).collect();
        match ReconstructedSurface::from_samples(self.grid.rect(), positions, &samples) {
            Ok(surface) => {
                let graph = UnitDiskGraph::new(positions.to_vec(), self.comm_radius)?;
                let totals = delta_rms_raster(self.reference, &surface, &self.grid, par);
                Ok(DeploymentEvaluation {
                    delta: totals.delta,
                    rms: totals.rms,
                    connected: graph.is_connected(),
                    node_count: positions.len(),
                })
            }
            Err(FieldError::TooFewSamples { .. }) if self.survivors => {
                // The one and only constant-surface fallback: a plane
                // has no triangles to rasterize, so the walk pair
                // integrates it.
                cps_obs::count(cps_obs::Counter::SurvivorFallbacks);
                let graph = UnitDiskGraph::new(positions.to_vec(), self.comm_radius)?;
                let surface = constant_fallback(&samples);
                Ok(DeploymentEvaluation {
                    delta: delta::volume_difference_with(self.reference, &surface, &self.grid, par),
                    rms: delta::rms_difference_with(self.reference, &surface, &self.grid, par),
                    connected: graph.is_connected(),
                    node_count: positions.len(),
                })
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// The degraded abstraction when a Delaunay reconstruction is
/// impossible: the constant surface through the survivor-sample mean
/// (0 with no survivors at all). Defined in exactly one place.
pub(crate) fn constant_fallback(samples: &[f64]) -> PlaneField {
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    PlaneField::new(0.0, 0.0, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::PeaksField;
    use cps_geometry::Rect;

    fn setting() -> (Rect, GridSpec) {
        let region = Rect::square(100.0).unwrap();
        (region, GridSpec::new(region, 41, 41).unwrap())
    }

    #[test]
    fn plane_reconstructs_exactly() {
        let (region, grid) = setting();
        let f = cps_field::PlaneField::new(0.5, -0.3, 2.0);
        let nodes: Vec<Point2> = region.corners().to_vec();
        let e = DeltaEvaluator::new(&f, &grid, 150.0)
            .evaluate(&nodes)
            .unwrap();
        assert!(e.delta < 1e-9);
        assert!(e.rms < 1e-12);
        assert!(e.connected);
        assert_eq!(e.node_count, 4);
    }

    #[test]
    fn more_nodes_reduce_delta_on_peaks() {
        let (region, grid) = setting();
        let f = PeaksField::new(region, 8.0);
        // 3×3 vs 7×7 uniform grids of nodes.
        let mk = |n: usize| -> Vec<Point2> {
            let mut v = Vec::new();
            for j in 0..n {
                for i in 0..n {
                    v.push(Point2::new(
                        100.0 * i as f64 / (n - 1) as f64,
                        100.0 * j as f64 / (n - 1) as f64,
                    ));
                }
            }
            v
        };
        let ev = DeltaEvaluator::new(&f, &grid, 200.0);
        let coarse = ev.evaluate(&mk(3)).unwrap();
        let fine = ev.evaluate(&mk(7)).unwrap();
        assert!(fine.delta < coarse.delta);
        assert!(fine.rms < coarse.rms);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical() {
        let (region, grid) = setting();
        let f = PeaksField::new(region, 8.0);
        let mut nodes: Vec<Point2> = region.corners().to_vec();
        nodes.push(Point2::new(37.0, 61.0));
        nodes.push(Point2::new(70.0, 20.0));
        let serial = DeltaEvaluator::new(&f, &grid, 200.0)
            .parallelism(Parallelism::serial())
            .evaluate(&nodes)
            .unwrap();
        for par in [
            Parallelism::serial(),
            Parallelism::fixed(3),
            Parallelism::auto(),
        ] {
            let p = DeltaEvaluator::new(&f, &grid, 200.0)
                .parallelism(par)
                .evaluate(&nodes)
                .unwrap();
            assert_eq!(serial.delta.to_bits(), p.delta.to_bits(), "{par:?}");
            assert_eq!(serial.rms.to_bits(), p.rms.to_bits(), "{par:?}");
            assert_eq!(serial.connected, p.connected);
            assert_eq!(serial.node_count, p.node_count);
        }
    }

    #[test]
    fn disconnected_deployment_is_flagged() {
        let (region, grid) = setting();
        let f = PeaksField::new(region, 8.0);
        let nodes = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(99.0, 99.0),
        ];
        let e = DeltaEvaluator::new(&f, &grid, 5.0)
            .evaluate(&nodes)
            .unwrap();
        assert!(!e.connected);
    }

    #[test]
    fn too_few_nodes_error() {
        let (_, grid) = setting();
        let f = PeaksField::new(grid.rect(), 8.0);
        let nodes = vec![Point2::new(1.0, 1.0), Point2::new(2.0, 2.0)];
        assert!(matches!(
            DeltaEvaluator::new(&f, &grid, 5.0).evaluate(&nodes),
            Err(CoreError::Field(_))
        ));
    }

    #[test]
    fn survivors_match_full_evaluation_when_enough_nodes() {
        let (region, grid) = setting();
        let f = PeaksField::new(region, 8.0);
        let nodes: Vec<Point2> = region.corners().to_vec();
        let full = DeltaEvaluator::new(&f, &grid, 150.0)
            .evaluate(&nodes)
            .unwrap();
        let surv = DeltaEvaluator::new(&f, &grid, 150.0)
            .survivors(true)
            .evaluate(&nodes)
            .unwrap();
        assert_eq!(full.delta.to_bits(), surv.delta.to_bits());
        assert_eq!(full.rms.to_bits(), surv.rms.to_bits());
        assert_eq!(full.connected, surv.connected);
    }

    #[test]
    fn survivors_degrade_to_constant_surface_below_three_nodes() {
        let (region, grid) = setting();
        let f = PeaksField::new(region, 8.0);
        // Two survivors: the full evaluation errors, the degraded one
        // measures against the constant surface through their mean.
        let nodes = vec![Point2::new(10.0, 10.0), Point2::new(15.0, 10.0)];
        assert!(DeltaEvaluator::new(&f, &grid, 10.0)
            .evaluate(&nodes)
            .is_err());
        let e = DeltaEvaluator::new(&f, &grid, 10.0)
            .survivors(true)
            .evaluate(&nodes)
            .unwrap();
        assert!(e.delta.is_finite() && e.delta > 0.0);
        assert!(e.connected);
        assert_eq!(e.node_count, 2);
        // Zero survivors: δ against the zero plane — the volume itself.
        let e = DeltaEvaluator::new(&f, &grid, 10.0)
            .survivors(true)
            .evaluate(&[])
            .unwrap();
        assert!(e.delta.is_finite() && e.delta > 0.0);
        assert_eq!(e.node_count, 0);
        // Parallel path is bit-identical.
        let nodes = vec![Point2::new(10.0, 10.0), Point2::new(15.0, 10.0)];
        let serial = DeltaEvaluator::new(&f, &grid, 10.0)
            .parallelism(Parallelism::serial())
            .survivors(true)
            .evaluate(&nodes)
            .unwrap();
        for par in [Parallelism::fixed(3), Parallelism::auto()] {
            let p = DeltaEvaluator::new(&f, &grid, 10.0)
                .parallelism(par)
                .survivors(true)
                .evaluate(&nodes)
                .unwrap();
            assert_eq!(serial.delta.to_bits(), p.delta.to_bits(), "{par:?}");
            assert_eq!(serial.rms.to_bits(), p.rms.to_bits(), "{par:?}");
        }
    }
}
