//! Exploration coverage: how much of the region has the swarm *ever*
//! sensed?
//!
//! The δ timeline measures instantaneous reconstruction quality; an
//! exploration mission also cares about cumulative coverage — the
//! fraction of the region that has been within some node's sensing
//! range at some time. Mobile nodes trade instantaneous coverage for
//! cumulative coverage; this tracker quantifies that trade.

use cps_field::TimeVaryingField;
use cps_geometry::GridSpec;

use crate::Simulation;

/// A cumulative sensed-coverage bitmap over an evaluation grid.
#[derive(Debug, Clone)]
pub struct ExplorationTracker {
    grid: GridSpec,
    sensed: Vec<bool>,
}

impl ExplorationTracker {
    /// Creates a tracker over `grid` with nothing sensed yet.
    pub fn new(grid: GridSpec) -> Self {
        ExplorationTracker {
            grid,
            sensed: vec![false; grid.len()],
        }
    }

    /// Marks every grid cell within the sensing radius of an alive node
    /// as sensed (call once per step).
    pub fn record<F: TimeVaryingField>(&mut self, sim: &Simulation<F>) {
        let rs = sim.config().cps.sensing_radius();
        let r2 = rs * rs;
        // For each node, only visit grid cells in its bounding box.
        for node in sim.nodes().iter().filter(|n| n.alive) {
            let p = node.position;
            let (i0, j0) = self
                .grid
                .nearest_index(cps_geometry::Point2::new(p.x - rs, p.y - rs));
            let (i1, j1) = self
                .grid
                .nearest_index(cps_geometry::Point2::new(p.x + rs, p.y + rs));
            for j in j0..=j1 {
                for i in i0..=i1 {
                    let q = self.grid.point(i, j);
                    if p.distance_squared(q) <= r2 {
                        self.sensed[self.grid.flat_index(i, j)] = true;
                    }
                }
            }
        }
    }

    /// Fraction of the region sensed at least once.
    pub fn coverage(&self) -> f64 {
        if self.sensed.is_empty() {
            return 0.0;
        }
        self.sensed.iter().filter(|&&s| s).count() as f64 / self.sensed.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario, CmaBuilder};
    use cps_field::{GaussianBlob, Static};
    use cps_geometry::{Point2, Rect};

    #[test]
    fn coverage_accumulates_as_the_swarm_moves() {
        let region = Rect::square(60.0).unwrap();
        let field = Static::new(GaussianBlob::isotropic(Point2::new(30.0, 30.0), 40.0, 8.0));
        let start = scenario::grid_start_spaced(region, 9, 9.3).unwrap();
        let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
        let grid = GridSpec::new(region, 31, 31).unwrap();
        let mut tracker = ExplorationTracker::new(grid);
        tracker.record(&sim);
        let initial = tracker.coverage();
        assert!(initial > 0.0 && initial < 1.0);
        for _ in 0..15 {
            sim.step().unwrap();
            tracker.record(&sim);
        }
        // Coverage is monotone and grew (nodes moved toward the blob).
        assert!(tracker.coverage() >= initial);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let grid = GridSpec::new(Rect::square(10.0).unwrap(), 5, 5).unwrap();
        let t = ExplorationTracker::new(grid);
        assert_eq!(t.coverage(), 0.0);
    }

    #[test]
    fn stationary_node_covers_exactly_its_disc() {
        let region = Rect::square(20.0).unwrap();
        let field = Static::new(cps_field::PlaneField::new(0.0, 0.0, 1.0));
        let start = vec![Point2::new(10.0, 10.0)];
        let sim = CmaBuilder::new(region, start).run(field).unwrap();
        let grid = GridSpec::new(region, 21, 21).unwrap();
        let mut tracker = ExplorationTracker::new(grid);
        tracker.record(&sim);
        // Disc of radius 5 on a 1 m grid: π·25 ≈ 78.5 of 441 cells.
        let expected = std::f64::consts::PI * 25.0 / 441.0;
        assert!((tracker.coverage() - expected).abs() < 0.03);
    }

    #[test]
    fn sensing_disk_past_the_region_boundary_keeps_all_in_region_cells() {
        // A node near the corner: its sensing disk (rs = 5) extends past
        // both region edges, so `nearest_index` clamps the bounding-box
        // corners. The clamped sweep must still visit every in-region
        // cell inside the disk — compare against a brute-force count
        // over the whole grid.
        let region = Rect::square(20.0).unwrap();
        let field = Static::new(cps_field::PlaneField::new(0.0, 0.0, 1.0));
        let p = Point2::new(1.0, 1.0);
        let sim = CmaBuilder::new(region, vec![p]).run(field).unwrap();
        let rs = sim.config().cps.sensing_radius();
        let grid = GridSpec::new(region, 21, 21).unwrap();
        let mut tracker = ExplorationTracker::new(grid);
        tracker.record(&sim);
        let sensed = (tracker.coverage() * grid.len() as f64).round() as usize;
        let brute: usize = (0..21)
            .flat_map(|j| (0..21).map(move |i| (i, j)))
            .filter(|&(i, j)| p.distance_squared(grid.point(i, j)) <= rs * rs)
            .count();
        assert!(brute > 0, "the disk must reach in-region cells");
        assert_eq!(sensed, brute, "clamped corners must not skip cells");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn coverage_is_monotone_non_decreasing_over_steps(seed in 0u64..512) {
            use rand::SeedableRng;
            let region = Rect::square(60.0).unwrap();
            let field = Static::new(GaussianBlob::isotropic(
                Point2::new(20.0 + (seed % 21) as f64, 30.0),
                40.0,
                8.0,
            ));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let start = scenario::random_connected_start(region, 9, 10.0, 20, &mut rng);
            let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
            let grid = GridSpec::new(region, 25, 25).unwrap();
            let mut tracker = ExplorationTracker::new(grid);
            tracker.record(&sim);
            let mut prev = tracker.coverage();
            for _ in 0..5 {
                sim.step().unwrap();
                tracker.record(&sim);
                let now = tracker.coverage();
                proptest::prop_assert!(now >= prev, "coverage regressed: {now} < {prev}");
                prev = now;
            }
        }
    }
}
