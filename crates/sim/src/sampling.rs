//! Trace sampling — the paper's future-work item 2.
//!
//! "This work focuses on point sampling. In order to save more CPS
//! nodes and abstract accurately, trace sampling of mobile nodes is
//! worth to further study." (Section 7.)
//!
//! Mobile nodes measure continuously while they travel; every position
//! along a node's path is a free extra sample. [`PathSampleBank`]
//! accumulates timestamped path samples and serves the *fresh* subset
//! (stale samples of a time-varying field mislead the reconstruction),
//! and [`reconstruct_with_path_samples`] folds them into the Delaunay
//! surface alongside the nodes' current positions.

use cps_core::CoreError;
use cps_field::{Parallelism, ReconstructedSurface, TimeVaryingField};
use cps_geometry::{Point2, Rect};

use crate::Simulation;

/// One timestamped measurement taken along a node's path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSample {
    /// When the sample was taken (simulation minutes).
    pub time: f64,
    /// Where it was taken.
    pub position: Point2,
    /// The measured value.
    pub value: f64,
}

/// A bounded store of path samples with recency queries.
///
/// # Example
///
/// ```
/// use cps_sim::{PathSample, PathSampleBank};
/// use cps_geometry::Point2;
///
/// let mut bank = PathSampleBank::new(100);
/// bank.push(PathSample { time: 0.0, position: Point2::new(1.0, 1.0), value: 5.0 });
/// bank.push(PathSample { time: 9.0, position: Point2::new(2.0, 1.0), value: 6.0 });
/// // Only the sample from the last 5 minutes is "fresh" at t = 10.
/// assert_eq!(bank.fresh(10.0, 5.0).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathSampleBank {
    samples: Vec<PathSample>,
    capacity: usize,
}

impl PathSampleBank {
    /// Creates a bank holding at most `capacity` samples (oldest are
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bank capacity must be positive");
        PathSampleBank {
            samples: Vec::new(),
            capacity,
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the bank holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Adds a sample, evicting the oldest when full.
    pub fn push(&mut self, sample: PathSample) {
        if self.samples.len() == self.capacity {
            // Samples arrive in time order in practice; evict index 0.
            self.samples.remove(0);
        }
        self.samples.push(sample);
    }

    /// Records the current position and measurement of every alive node
    /// in `sim` — call once per simulation step to sample along paths.
    pub fn record<F: TimeVaryingField>(&mut self, sim: &Simulation<F>) {
        let t = sim.time();
        for node in sim.nodes().iter().filter(|n| n.alive) {
            let value = sim.field().value_at(node.position, t);
            self.push(PathSample {
                time: t,
                position: node.position,
                value,
            });
        }
    }

    /// Iterates over samples no older than `max_age` at time `now`.
    pub fn fresh(&self, now: f64, max_age: f64) -> impl Iterator<Item = &PathSample> {
        self.samples
            .iter()
            .filter(move |s| now - s.time <= max_age + 1e-12)
    }
}

/// Builds the reconstruction surface from the nodes' *current* samples
/// plus every fresh path sample in the bank — the trace-sampling
/// upgrade over point sampling. Near-duplicate positions are merged by
/// the triangulation (first sample wins, i.e. the current node sample,
/// which is the most recent).
///
/// # Errors
///
/// Propagates reconstruction errors (fewer than 3 distinct positions).
pub fn reconstruct_with_path_samples<F: TimeVaryingField>(
    sim: &Simulation<F>,
    bank: &PathSampleBank,
    max_age: f64,
) -> Result<ReconstructedSurface, CoreError> {
    let region: Rect = sim.region();
    let now = sim.time();
    let mut positions = sim.positions();
    let mut values: Vec<f64> = positions
        .iter()
        .map(|&p| sim.field().value_at(p, now))
        .collect();
    for s in bank.fresh(now, max_age) {
        positions.push(s.position);
        values.push(s.value);
    }
    ReconstructedSurface::from_samples(region, &positions, &values).map_err(CoreError::from)
}

/// Measures how much trace sampling helps right now: δ of the
/// point-sample reconstruction minus δ of the path-enriched one
/// (positive = path samples help), both against the field frozen at
/// the current time.
///
/// # Errors
///
/// Propagates reconstruction errors.
pub fn path_sampling_gain<F: TimeVaryingField + Sync>(
    sim: &Simulation<F>,
    bank: &PathSampleBank,
    max_age: f64,
    grid: &cps_geometry::GridSpec,
) -> Result<(f64, f64), CoreError> {
    let frozen = sim.field().at_time(sim.time());
    let point_eval = cps_core::DeltaEvaluator::new(&frozen, grid, sim.config().cps.comm_radius())
        .parallelism(Parallelism::serial())
        .evaluate(&sim.positions())?;
    let enriched = reconstruct_with_path_samples(sim, bank, max_age)?;
    let enriched_delta =
        cps_field::delta::volume_difference_with(&frozen, &enriched, grid, Parallelism::serial());
    Ok((point_eval.delta, enriched_delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario, CmaBuilder};
    use cps_field::{GaussianBlob, GaussianMixtureField, Static};
    use cps_geometry::GridSpec;

    fn sample(t: f64, x: f64) -> PathSample {
        PathSample {
            time: t,
            position: Point2::new(x, 0.0),
            value: x,
        }
    }

    #[test]
    fn bank_evicts_oldest_and_filters_by_age() {
        let mut bank = PathSampleBank::new(3);
        for i in 0..5 {
            bank.push(sample(i as f64, i as f64));
        }
        assert_eq!(bank.len(), 3);
        // Oldest two evicted: times 2, 3, 4 remain.
        assert_eq!(bank.fresh(4.0, 1.0).count(), 2); // t = 3, 4
        assert_eq!(bank.fresh(4.0, 100.0).count(), 3);
        assert!(!bank.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        PathSampleBank::new(0);
    }

    #[test]
    fn path_samples_improve_the_reconstruction_of_a_moving_swarm() {
        // A bumpy field and a small swarm: after some walking, the
        // path-enriched reconstruction must beat point sampling.
        let region = Rect::square(60.0).unwrap();
        let field = Static::new(GaussianMixtureField::new(
            1.0,
            vec![
                GaussianBlob::isotropic(Point2::new(20.0, 40.0), 20.0, 5.0),
                GaussianBlob::isotropic(Point2::new(42.0, 20.0), 15.0, 6.0),
            ],
        ));
        let start = scenario::grid_start_spaced(region, 16, 9.3).unwrap();
        let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
        let mut bank = PathSampleBank::new(10_000);
        bank.record(&sim);
        for _ in 0..20 {
            sim.step().unwrap();
            bank.record(&sim);
        }
        let grid = GridSpec::new(region, 31, 31).unwrap();
        let (point_delta, path_delta) =
            path_sampling_gain(&sim, &bank, f64::INFINITY, &grid).unwrap();
        assert!(
            path_delta < point_delta,
            "path samples should help: {path_delta} vs {point_delta}"
        );
    }

    #[test]
    fn record_skips_failed_nodes() {
        let region = Rect::square(60.0).unwrap();
        let field = Static::new(GaussianMixtureField::new(1.0, vec![]));
        let start = scenario::grid_start_spaced(region, 9, 9.3).unwrap();
        let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
        sim.fail_node(0).unwrap();
        let mut bank = PathSampleBank::new(100);
        bank.record(&sim);
        assert_eq!(bank.len(), 8);
    }
}
