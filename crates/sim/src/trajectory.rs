//! Trajectory recording: per-node movement histories for analysis and
//! rendering.

use cps_field::TimeVaryingField;
use cps_geometry::Point2;

use crate::Simulation;

/// Recorded movement histories, one polyline per node id.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryRecorder {
    /// `tracks[id]` = the recorded `(time, position)` sequence.
    tracks: Vec<Vec<(f64, Point2)>>,
}

impl TrajectoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TrajectoryRecorder::default()
    }

    /// Snapshots every node's current position (call once per step;
    /// failed nodes simply stop extending their track).
    pub fn record<F: TimeVaryingField>(&mut self, sim: &Simulation<F>) {
        if self.tracks.len() < sim.nodes().len() {
            self.tracks.resize(sim.nodes().len(), Vec::new());
        }
        let t = sim.time();
        for node in sim.nodes().iter().filter(|n| n.alive) {
            self.tracks[node.id].push((t, node.position));
        }
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.tracks.len()
    }

    /// The recorded track of one node (empty slice for unknown ids).
    pub fn track(&self, id: usize) -> &[(f64, Point2)] {
        self.tracks.get(id).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario, CmaBuilder};
    use cps_field::{GaussianBlob, Static};
    use cps_geometry::Rect;

    /// Polyline length of a recorded track.
    fn path_length(track: &[(f64, Point2)]) -> f64 {
        track.windows(2).map(|w| w[0].1.distance(w[1].1)).sum()
    }

    fn tracked_sim() -> TrajectoryRecorder {
        let region = Rect::square(50.0).unwrap();
        let field = Static::new(GaussianBlob::isotropic(
            cps_geometry::Point2::new(25.0, 25.0),
            30.0,
            6.0,
        ));
        let start = scenario::grid_start_spaced(region, 9, 9.3).unwrap();
        let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
        let mut rec = TrajectoryRecorder::new();
        rec.record(&sim);
        for _ in 0..10 {
            sim.step().unwrap();
            rec.record(&sim);
        }
        rec
    }

    #[test]
    fn tracks_grow_and_lengths_are_bounded_by_speed() {
        let rec = tracked_sim();
        assert_eq!(rec.node_count(), 9);
        for id in 0..9 {
            assert_eq!(rec.track(id).len(), 11);
            // 10 steps at ≤ 1 m/min.
            assert!(path_length(rec.track(id)) <= 10.0 + 1e-9);
        }
        let longest = (0..9)
            .map(|id| path_length(rec.track(id)))
            .fold(0.0, f64::max);
        assert!(longest > 0.0, "somebody must have moved toward the blob");
    }
}
