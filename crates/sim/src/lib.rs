//! Discrete-time simulator for mobile CPS nodes running the coordinated
//! movement algorithm.
//!
//! The paper's OSTD experiments (Section 6, Figs. 8–10) drive 100
//! mobile nodes across a time-varying light field: one time slot per
//! minute, node speed `v = 1 m/min`, communication radius `Rc = 10 m`,
//! sensing radius `Rs = 5 m`, `β = 2`. This crate provides that loop:
//!
//! * [`Simulation`] — world state (field, region, nodes) and the
//!   per-slot step: sense → exchange → CMA force step → LCM
//!   connectivity adjustment → speed-clamped movement;
//! * [`stage`] — that step as one fixed six-stage driver,
//!   [`Simulation::step_observed`], which reports each slot and stage
//!   to [`StepObserver`]s such as the [`RunRecorder`] bundle;
//! * [`SimConfig`] — the knobs above;
//! * [`DeltaTimeline`] / [`ConvergenceDetector`] — the δ(t) series of
//!   Fig. 10 and its convergence point;
//! * [`scenario`] — canonical initial deployments (an FRA placement
//!   from `cps_core::osd::FraBuilder` works as a start too).
//!
//! # Example
//!
//! ```
//! use cps_field::{PeaksField, Static};
//! use cps_geometry::Rect;
//! use cps_sim::{scenario, CmaBuilder};
//!
//! let region = Rect::square(100.0).unwrap();
//! let field = Static::new(PeaksField::new(region, 8.0));
//! let start = scenario::grid_start(region, 16);
//! let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
//! sim.step().unwrap();
//! assert_eq!(sim.positions().len(), 16);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
mod engine;
mod exploration;
mod fault;
mod metrics;
mod observers;
mod sampling;
pub mod scenario;
pub mod stage;
pub mod sweep;
mod trajectory;

pub use checkpoint::{
    CheckpointDir, CheckpointPolicy, SimSnapshot, TimelineState, SNAPSHOT_VERSION,
};
pub use engine::{CmaBuilder, MobileNode, SimConfig, Simulation, StepReport};
pub use exploration::ExplorationTracker;
pub use fault::{
    BatteryModel, DeathCause, FaultEvent, FaultPlan, FaultPlanBuilder, FaultState, RecoveryPolicy,
};
pub use metrics::{ConvergenceDetector, DeltaTimeline};
pub use observers::RunRecorder;
pub use sampling::{path_sampling_gain, reconstruct_with_path_samples, PathSample, PathSampleBank};
pub use stage::{StepEvent, StepObserver};
pub use sweep::{
    run_sweep, Aggregate, CellAggregate, JobOutcome, SweepJob, SweepManifest, SweepResults,
    SweepSpec, SWEEP_MANIFEST_VERSION,
};
pub use trajectory::TrajectoryRecorder;
