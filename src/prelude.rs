//! The commonly used surface of the workspace in one import.
//!
//! ```
//! use cps::prelude::*;
//! ```
//!
//! brings in the region/grid types, the field traits, the two
//! algorithm builders ([`FraBuilder`] for stationary placement,
//! [`CmaBuilder`] for the mobile swarm), deployment evaluation
//! ([`DeltaEvaluator`] and its [`EvalOptions`]), the thread-count
//! policy [`Parallelism`], the instrumentation layer (the `obs` module
//! plus its [`RunMetrics`] snapshot), and the workspace-wide
//! [`Error`]. Anything more specialised stays behind the
//! per-crate modules (`cps::field`, `cps::geometry`, ...).

pub use crate::Error;
pub use cps_core::osd::{FraBuilder, FraResult};
pub use cps_core::{
    analyze_deployment_with, CoreError, DeltaEvaluator, DeploymentEvaluation, DeploymentReport,
    EvalOptions, SurvivabilityReport, SurvivabilityTracker,
};
pub use cps_field::{Field, Parallelism, ReconstructedSurface, Static, TimeVaryingField};
pub use cps_geometry::{GridSpec, Point2, Rect};
pub use cps_obs as obs;
pub use cps_obs::{PhaseRecord, RunMetrics};
pub use cps_sim::{
    scenario, CmaBuilder, DeltaTimeline, FaultEvent, FaultPlan, FaultPlanBuilder, RecoveryPolicy,
    SimConfig, Simulation,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_covers_the_quickstart_path() {
        let region = Rect::square(50.0).unwrap();
        let grid = GridSpec::new(region, 31, 31).unwrap();
        let reference = cps_field::PeaksField::new(region, 8.0);
        let result = FraBuilder::new(12, 10.0)
            .grid(grid)
            .evaluator(EvalOptions::new().parallelism(Parallelism::auto()))
            .run(&reference)
            .unwrap();
        let eval = DeltaEvaluator::new(&reference, &grid, 10.0)
            .evaluate(&result.positions)
            .unwrap();
        assert!(eval.connected);

        let field = Static::new(cps_field::PeaksField::new(region, 8.0));
        let start = scenario::grid_start(region, 9);
        let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
        sim.step().unwrap();
        let mut timeline = DeltaTimeline::new();
        timeline.record(&sim, &grid).unwrap();
        assert_eq!(timeline.len(), 1);
    }

    #[test]
    fn prelude_covers_the_metrics_path() {
        obs::reset();
        obs::enable();
        let region = Rect::square(50.0).unwrap();
        let grid = GridSpec::new(region, 31, 31).unwrap();
        let reference = cps_field::PeaksField::new(region, 8.0);
        // Generous radius: no budget goes to relays, so all 10 picks
        // are refinement picks and each one is a Delaunay insert.
        let result = FraBuilder::new(10, 100.0)
            .grid(grid)
            .run(&reference)
            .unwrap();
        let metrics: RunMetrics = obs::snapshot();
        obs::disable();
        assert_eq!(result.positions.len(), 10);
        assert!(metrics.counter(obs::Counter::DelaunayInserts) >= 10);
        let _records: &[PhaseRecord] = &metrics.phases;
    }

    #[test]
    fn prelude_covers_the_fault_injection_path() {
        let region = Rect::square(50.0).unwrap();
        let field = Static::new(cps_field::PeaksField::new(region, 8.0));
        let plan = FaultPlanBuilder::default()
            .seed(7)
            .kill(0, 1)
            .link_loss(0.1, 2)
            .recovery(RecoveryPolicy::Auto)
            .build()
            .unwrap();
        let start = scenario::grid_start(region, 9);
        let mut sim = CmaBuilder::new(region, start)
            .faults(plan)
            .run(field)
            .unwrap();
        let mut tracker = SurvivabilityTracker::new(9);
        for _ in 0..3 {
            let r = sim.step().unwrap();
            tracker.observe_messages(r.messages, r.retried, r.dropped);
            tracker.observe_slot(sim.time(), sim.alive_count(), r.components, None);
        }
        assert_eq!(sim.alive_count(), 8);
        assert!(sim
            .fault_events()
            .iter()
            .any(|e| matches!(e, FaultEvent::Death { node: 0, .. })));
        let report: SurvivabilityReport = tracker.finish();
        assert_eq!(report.surviving_nodes, 8);
    }
}
