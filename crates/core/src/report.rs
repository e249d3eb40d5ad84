//! Full deployment analysis: reconstruction quality plus network
//! health plus coverage balance, in one report.
//!
//! [`DeltaEvaluator`](crate::DeltaEvaluator) answers the paper's
//! question (δ and connectivity); this report adds the operational
//! questions a deployment owner asks next: how fragile is the network
//! (articulation points), how long are the data paths (diameter), and
//! how evenly is the region split between nodes (Voronoi coverage
//! areas)?

use cps_field::{Field, Parallelism};
use cps_geometry::{coverage_areas, GridSpec, Point2, Rect, Triangulation};
use cps_linalg::Summary;
use cps_network::{articulation_points, criticality, network_diameter, UnitDiskGraph};
use serde::{Deserialize, Serialize};

use crate::{CoreError, DeltaEvaluator, DeploymentEvaluation};

/// The full analysis of a deployment.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Reconstruction quality (δ, rms, connectivity).
    pub evaluation: DeploymentEvaluation,
    /// Nodes whose single failure would disconnect the network.
    pub articulation_points: Vec<usize>,
    /// Fraction of nodes that are articulation points (0 = fully
    /// redundant).
    pub criticality: f64,
    /// Longest shortest communication path (metres), `None` when
    /// disconnected.
    pub network_diameter: Option<f64>,
    /// Summary of per-node Voronoi coverage areas over the region.
    pub coverage: Summary,
}

impl DeploymentReport {
    /// Ratio of the largest to the smallest per-node coverage area — 1
    /// for a perfectly even split, large when a few nodes carry most of
    /// the region.
    pub fn coverage_imbalance(&self) -> f64 {
        if self.coverage.min > 0.0 {
            self.coverage.max / self.coverage.min
        } else {
            f64::INFINITY
        }
    }
}

/// Computes the [`DeploymentReport`] for node `positions` against
/// `reference` over `grid`, at communication radius `comm_radius`,
/// running the δ/RMS quadratures under the thread policy `par`; the
/// report is bit-identical at any thread count.
///
/// # Errors
///
/// Propagates [`DeltaEvaluator::evaluate`] errors (too few nodes,
/// positions outside the region) and geometry errors from the coverage
/// computation.
///
/// # Example
///
/// ```
/// use cps_core::analyze_deployment_with;
/// use cps_field::{Parallelism, PeaksField};
/// use cps_geometry::{GridSpec, Rect};
/// use cps_core::osd::baselines::uniform_grid_deployment;
///
/// let region = Rect::square(100.0).unwrap();
/// let grid = GridSpec::new(region, 41, 41).unwrap();
/// let field = PeaksField::new(region, 8.0);
/// let nodes = uniform_grid_deployment(region, 16);
/// let report =
///     analyze_deployment_with(&field, &nodes, 30.0, &grid, Parallelism::serial()).unwrap();
/// assert!(report.evaluation.connected);
/// assert!((report.coverage_imbalance() - 1.0).abs() < 1e-6); // even grid
/// ```
pub fn analyze_deployment_with<F: Field + Sync>(
    reference: &F,
    positions: &[Point2],
    comm_radius: f64,
    grid: &GridSpec,
    par: Parallelism,
) -> Result<DeploymentReport, CoreError> {
    let evaluation = DeltaEvaluator::new(reference, grid, comm_radius)
        .parallelism(par)
        .evaluate(positions)?;
    finish_report(evaluation, positions, comm_radius, grid)
}

/// The network-health and coverage half of the report.
fn finish_report(
    evaluation: DeploymentEvaluation,
    positions: &[Point2],
    comm_radius: f64,
    grid: &GridSpec,
) -> Result<DeploymentReport, CoreError> {
    let graph = UnitDiskGraph::new(positions.to_vec(), comm_radius)?;
    let cuts = articulation_points(&graph);
    let crit = criticality(&graph);
    let diameter = if evaluation.connected {
        network_diameter(&graph)
    } else {
        None
    };

    // Coverage: Voronoi cells of the deployment over the region.
    let region: Rect = grid.rect();
    let mut dt = Triangulation::new(region);
    for &p in positions {
        match dt.insert(p) {
            Ok(_) => {}
            Err(cps_geometry::GeometryError::DuplicatePoint { .. }) => {}
            Err(e) => return Err(CoreError::Geometry(e)),
        }
    }
    let coverage = Summary::from_values(&coverage_areas(&dt));

    Ok(DeploymentReport {
        evaluation,
        articulation_points: cuts,
        criticality: crit,
        network_diameter: diameter,
        coverage,
    })
}

/// How gracefully a deployment degraded under a fault schedule: the δ
/// cost of attrition, partition/recovery timing, and the message-level
/// price of lossy links. Built incrementally by [`SurvivabilityTracker`]
/// as a faulty simulation runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivabilityReport {
    /// Fleet size at deployment.
    pub initial_nodes: usize,
    /// Nodes still alive at the end of the run.
    pub surviving_nodes: usize,
    /// `1 − surviving/initial`.
    pub fraction_dead: f64,
    /// First recorded δ (None when no δ sample was taken).
    pub baseline_delta: Option<f64>,
    /// Last recorded δ.
    pub final_delta: Option<f64>,
    /// The degradation curve: `(fraction dead, δ)` at every δ sample,
    /// in record order.
    pub degradation: Vec<(f64, f64)>,
    /// Times the surviving network split into multiple components.
    pub partitions: usize,
    /// Times it healed back into one component.
    pub reconnects: usize,
    /// Time (simulation minutes) each healed partition stayed open, in
    /// order of recovery.
    pub reconnect_times: Vec<f64>,
    /// Whether the run ended partitioned.
    pub unresolved_partition: bool,
    /// Total single-hop message attempts across the run.
    pub messages: usize,
    /// Delivery attempts that were retries of lost messages.
    pub retried: usize,
    /// Directed link-slots whose whole retry budget failed.
    pub dropped: usize,
    /// Articulation points of the final surviving network — the nodes
    /// whose loss would partition it again.
    pub critical_nodes: Vec<usize>,
}

impl SurvivabilityReport {
    /// Serializes the report as a JSON object (hand-rolled: the report
    /// must survive environments without a serializer).
    pub fn to_json(&self) -> String {
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        }
        fn opt(x: Option<f64>) -> String {
            x.map(num).unwrap_or_else(|| "null".to_string())
        }
        let degradation: Vec<String> = self
            .degradation
            .iter()
            .map(|&(dead, delta)| format!("[{},{}]", num(dead), num(delta)))
            .collect();
        let reconnect_times: Vec<String> = self.reconnect_times.iter().map(|&t| num(t)).collect();
        let critical: Vec<String> = self.critical_nodes.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"initial_nodes\":{},\"surviving_nodes\":{},\"fraction_dead\":{},\
             \"baseline_delta\":{},\"final_delta\":{},\"degradation\":[{}],\
             \"partitions\":{},\"reconnects\":{},\"reconnect_times\":[{}],\
             \"unresolved_partition\":{},\"messages\":{},\"retried\":{},\
             \"dropped\":{},\"critical_nodes\":[{}]}}",
            self.initial_nodes,
            self.surviving_nodes,
            num(self.fraction_dead),
            opt(self.baseline_delta),
            opt(self.final_delta),
            degradation.join(","),
            self.partitions,
            self.reconnects,
            reconnect_times.join(","),
            self.unresolved_partition,
            self.messages,
            self.retried,
            self.dropped,
            critical.join(","),
        )
    }
}

/// Accumulates a [`SurvivabilityReport`] from per-slot observations of
/// a running (possibly faulty) simulation. Deliberately decoupled from
/// the simulation types: feed it alive counts, component counts, δ
/// samples, and message counters from any loop.
#[derive(Debug, Clone)]
pub struct SurvivabilityTracker {
    state: SurvivabilityState,
}

/// The complete mutable state of a [`SurvivabilityTracker`], with every
/// field public — the serializable face of the tracker, used by
/// checkpoint/restore so an interrupted run's report picks up exactly
/// where it stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurvivabilityState {
    /// Fleet size at deployment.
    pub initial_nodes: usize,
    /// Survivor count at the last observed slot.
    pub last_alive: usize,
    /// First recorded δ, if any.
    pub baseline_delta: Option<f64>,
    /// Last recorded δ, if any.
    pub final_delta: Option<f64>,
    /// `(fraction dead, δ)` at every δ sample so far.
    pub degradation: Vec<(f64, f64)>,
    /// Partitions opened so far.
    pub partitions: usize,
    /// Partitions healed so far.
    pub reconnects: usize,
    /// Minutes each healed partition stayed open.
    pub reconnect_times: Vec<f64>,
    /// When the currently-open partition started (None when whole).
    pub partition_open_since: Option<f64>,
    /// Message attempts so far.
    pub messages: usize,
    /// Retried attempts so far.
    pub retried: usize,
    /// Dropped directed link-slots so far.
    pub dropped: usize,
    /// Articulation points recorded for the final network.
    pub critical_nodes: Vec<usize>,
}

impl SurvivabilityTracker {
    /// A tracker for a fleet of `initial_nodes`.
    pub fn new(initial_nodes: usize) -> Self {
        SurvivabilityTracker::from_state(SurvivabilityState {
            initial_nodes,
            last_alive: initial_nodes,
            baseline_delta: None,
            final_delta: None,
            degradation: Vec::new(),
            partitions: 0,
            reconnects: 0,
            reconnect_times: Vec::new(),
            partition_open_since: None,
            messages: 0,
            retried: 0,
            dropped: 0,
            critical_nodes: Vec::new(),
        })
    }

    /// Feeds one slot: simulation time, survivor count, component count
    /// of the surviving network, and optionally a fresh δ sample.
    pub fn observe_slot(&mut self, time: f64, alive: usize, components: usize, delta: Option<f64>) {
        let s = &mut self.state;
        s.last_alive = alive;
        if components >= 2 {
            if s.partition_open_since.is_none() {
                s.partition_open_since = Some(time);
                s.partitions += 1;
            }
        } else if components == 1 {
            if let Some(since) = s.partition_open_since.take() {
                s.reconnects += 1;
                s.reconnect_times.push(time - since);
            }
        }
        if let Some(delta) = delta {
            if s.baseline_delta.is_none() {
                s.baseline_delta = Some(delta);
            }
            s.final_delta = Some(delta);
            let dead = if s.initial_nodes == 0 {
                0.0
            } else {
                1.0 - alive as f64 / s.initial_nodes as f64
            };
            s.degradation.push((dead, delta));
        }
    }

    /// Adds one slot's message accounting (attempts, retries, drops).
    pub fn observe_messages(&mut self, messages: usize, retried: usize, dropped: usize) {
        self.state.messages += messages;
        self.state.retried += retried;
        self.state.dropped += dropped;
    }

    /// Records the articulation points of the final surviving network.
    pub fn set_critical_nodes(&mut self, nodes: Vec<usize>) {
        self.state.critical_nodes = nodes;
    }

    /// Copies the tracker's full mutable state (for checkpointing).
    pub fn state(&self) -> SurvivabilityState {
        self.state.clone()
    }

    /// Rebuilds a tracker from a previously captured state; observing
    /// the same remaining slots yields the same report an uninterrupted
    /// tracker would produce.
    pub fn from_state(state: SurvivabilityState) -> Self {
        SurvivabilityTracker { state }
    }

    /// Finalizes the report.
    pub fn finish(self) -> SurvivabilityReport {
        let s = self.state;
        let fraction_dead = if s.initial_nodes == 0 {
            0.0
        } else {
            1.0 - s.last_alive as f64 / s.initial_nodes as f64
        };
        SurvivabilityReport {
            initial_nodes: s.initial_nodes,
            surviving_nodes: s.last_alive,
            fraction_dead,
            baseline_delta: s.baseline_delta,
            final_delta: s.final_delta,
            degradation: s.degradation,
            partitions: s.partitions,
            reconnects: s.reconnects,
            reconnect_times: s.reconnect_times,
            unresolved_partition: s.partition_open_since.is_some(),
            messages: s.messages,
            retried: s.retried,
            dropped: s.dropped,
            critical_nodes: s.critical_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osd::{baselines, FraBuilder};
    use cps_field::PeaksField;

    fn setting() -> (Rect, GridSpec, PeaksField) {
        let region = Rect::square(100.0).unwrap();
        let grid = GridSpec::new(region, 41, 41).unwrap();
        (region, grid, PeaksField::new(region, 8.0))
    }

    #[test]
    fn uniform_grid_report_is_balanced_and_redundant() {
        let (region, grid, field) = setting();
        let nodes = baselines::uniform_grid_deployment(region, 25);
        // Rc = 25 comfortably exceeds the 20 m grid spacing including
        // diagonals (28 > 25): rich connectivity without full mesh.
        let report =
            analyze_deployment_with(&field, &nodes, 25.0, &grid, Parallelism::serial()).unwrap();
        assert!(report.evaluation.connected);
        assert!((report.coverage_imbalance() - 1.0).abs() < 1e-6);
        // Diagonal links exist (20·√2 = 28.3 > 25: no diagonals, but
        // row/column redundancy still removes most cut vertices).
        assert!(report.criticality < 0.5);
        assert!(report.network_diameter.unwrap() > 0.0);
    }

    #[test]
    fn relay_chains_show_up_as_articulation_points() {
        let (_, grid, field) = setting();
        // Tight radius: FRA must build relay chains, which are
        // inherently fragile.
        let fra = FraBuilder::new(30, 8.0).grid(grid).run(&field).unwrap();
        let report =
            analyze_deployment_with(&field, &fra.positions, 8.0, &grid, Parallelism::serial())
                .unwrap();
        assert!(report.evaluation.connected);
        assert!(
            !report.articulation_points.is_empty(),
            "relay chains should contain cut vertices"
        );
        assert!(report.coverage_imbalance() > 1.0);
    }

    #[test]
    fn survivability_tracker_times_partitions() {
        let mut t = SurvivabilityTracker::new(10);
        t.observe_slot(0.0, 10, 1, Some(100.0));
        t.observe_slot(1.0, 8, 2, None); // partition opens
        t.observe_slot(2.0, 8, 2, Some(180.0)); // still open: counted once
        t.observe_slot(5.0, 8, 1, Some(150.0)); // healed after 4 minutes
        t.observe_messages(40, 3, 1);
        t.observe_messages(38, 2, 0);
        t.set_critical_nodes(vec![2, 5]);
        let report = t.finish();
        assert_eq!(report.initial_nodes, 10);
        assert_eq!(report.surviving_nodes, 8);
        assert!((report.fraction_dead - 0.2).abs() < 1e-12);
        assert_eq!(report.partitions, 1);
        assert_eq!(report.reconnects, 1);
        assert_eq!(report.reconnect_times, vec![4.0]);
        assert!(!report.unresolved_partition);
        assert_eq!(report.baseline_delta, Some(100.0));
        assert_eq!(report.final_delta, Some(150.0));
        assert_eq!(report.degradation.len(), 3);
        assert_eq!(
            (report.messages, report.retried, report.dropped),
            (78, 5, 1)
        );
        assert_eq!(report.critical_nodes, vec![2, 5]);
    }

    #[test]
    fn survivability_state_round_trip_matches_uninterrupted() {
        let feed = |t: &mut SurvivabilityTracker, slots: std::ops::Range<usize>| {
            for s in slots {
                let alive = 10 - s.min(3);
                let comps = if s == 2 { 2 } else { 1 };
                let delta = (s % 2 == 0).then_some(100.0 + s as f64);
                t.observe_slot(s as f64, alive, comps, delta);
                t.observe_messages(30 + s, s, 0);
            }
        };
        let mut whole = SurvivabilityTracker::new(10);
        feed(&mut whole, 0..8);
        whole.set_critical_nodes(vec![1, 4]);

        let mut first = SurvivabilityTracker::new(10);
        feed(&mut first, 0..3); // interrupted mid-partition
        let mut resumed = SurvivabilityTracker::from_state(first.state());
        feed(&mut resumed, 3..8);
        resumed.set_critical_nodes(vec![1, 4]);
        assert_eq!(whole.state(), resumed.state());
        assert_eq!(whole.finish(), resumed.finish());
    }

    #[test]
    fn survivability_tracker_flags_unresolved_partition() {
        let mut t = SurvivabilityTracker::new(4);
        t.observe_slot(0.0, 4, 1, None);
        t.observe_slot(1.0, 3, 2, None);
        let report = t.finish();
        assert_eq!(report.partitions, 1);
        assert_eq!(report.reconnects, 0);
        assert!(report.unresolved_partition);
    }

    #[test]
    fn survivability_json_is_well_formed() {
        let mut t = SurvivabilityTracker::new(3);
        t.observe_slot(0.0, 3, 1, Some(12.5));
        t.observe_slot(1.0, 2, 2, Some(20.0));
        t.set_critical_nodes(vec![1]);
        let json = t.finish().to_json();
        // Structural spot checks (no serializer available here).
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"initial_nodes\":3"));
        assert!(json.contains("\"surviving_nodes\":2"));
        assert!(json.contains("\"baseline_delta\":12.5"));
        assert!(json.contains("\"unresolved_partition\":true"));
        assert!(json.contains("\"critical_nodes\":[1]"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn disconnected_deployment_has_no_diameter() {
        let (_, grid, field) = setting();
        let nodes = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(99.0, 99.0),
        ];
        let report =
            analyze_deployment_with(&field, &nodes, 5.0, &grid, Parallelism::serial()).unwrap();
        assert!(!report.evaluation.connected);
        assert_eq!(report.network_diameter, None);
    }
}
