//! Simulation metrics: the δ(t) timeline of Fig. 10 and convergence
//! detection.

use cps_core::{CoreError, DeltaEvaluator, DeploymentEvaluation, EvalOptions};
use cps_field::TimeVaryingField;
use cps_geometry::GridSpec;

use crate::{FaultEvent, Simulation, TimelineState};

/// A recorded series of `(time, δ)` samples — the paper's Fig. 10.
///
/// The per-sample δ quadrature runs through
/// [`cps_core::DeltaEvaluator`] with survivors enabled: a fleet culled
/// below three nodes degrades to a constant-surface δ instead of
/// erroring. Options come from [`EvalOptions`]
/// ([`DeltaTimeline::with_options`]): recorded values are bit-identical
/// at any thread count.
///
/// When the simulation carries a fault plan, each
/// [`record`](DeltaTimeline::record) call also copies the fault events
/// that occurred since the previous recording, so deaths, partitions,
/// and reconnections line up with the δ(t) series (see
/// [`DeltaTimeline::events`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaTimeline {
    /// The records, in the form a checkpoint stores them.
    state: TimelineState,
    opts: EvalOptions,
}

impl DeltaTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        DeltaTimeline::default()
    }

    /// An empty timeline recording with the given evaluation options.
    pub fn with_options(opts: EvalOptions) -> Self {
        DeltaTimeline {
            opts,
            ..DeltaTimeline::default()
        }
    }

    /// An empty timeline adopting the simulation's declared evaluation
    /// options ([`crate::CmaBuilder::evaluator`]).
    pub fn for_simulation<F: TimeVaryingField + Sync>(sim: &Simulation<F>) -> Self {
        DeltaTimeline::with_options(sim.eval_options())
    }

    /// Evaluates the simulation *now* — reconstructing the surface from
    /// the current node positions against the field frozen at the
    /// current time — and appends the sample.
    ///
    /// # Errors
    ///
    /// Propagates [`cps_core::DeltaEvaluator::evaluate`] errors (a
    /// position outside the grid, an invalid radius — not mere
    /// attrition).
    pub fn record<F: TimeVaryingField + Sync>(
        &mut self,
        sim: &Simulation<F>,
        grid: &GridSpec,
    ) -> Result<DeploymentEvaluation, CoreError> {
        let frozen = sim.field().at_time(sim.time());
        // The frozen field borrows the simulation, so the evaluator is
        // rebuilt per recording.
        let eval = DeltaEvaluator::new(&frozen, grid, sim.config().cps.comm_radius())
            .parallelism(self.opts.parallelism)
            .survivors(true)
            .evaluate(&sim.positions())?;
        let pending = sim.fault_events();
        let s = &mut self.state;
        if pending.len() > s.events_synced {
            s.events.extend_from_slice(&pending[s.events_synced..]);
            s.events_synced = pending.len();
        }
        s.samples.push((sim.time(), eval));
        Ok(eval)
    }

    /// Fault events copied from the simulation, in occurrence order
    /// (empty without a fault plan).
    pub fn events(&self) -> &[FaultEvent] {
        &self.state.events
    }

    /// The records as a checkpoint stores them (samples, events and
    /// the event sync cursor).
    pub fn state(&self) -> &TimelineState {
        &self.state
    }

    /// Rebuilds a timeline from checkpointed records.
    pub fn from_state(opts: EvalOptions, state: TimelineState) -> Self {
        DeltaTimeline { state, opts }
    }

    /// The recorded `(time, evaluation)` samples, in record order.
    pub fn samples(&self) -> &[(f64, DeploymentEvaluation)] {
        &self.state.samples
    }

    /// Just the `(time, δ)` pairs.
    pub fn delta_series(&self) -> Vec<(f64, f64)> {
        self.state
            .samples
            .iter()
            .map(|&(t, e)| (t, e.delta))
            .collect()
    }

    /// The smallest recorded δ, if any samples exist.
    pub fn best_delta(&self) -> Option<f64> {
        self.state
            .samples
            .iter()
            .map(|&(_, e)| e.delta)
            .min_by(f64::total_cmp)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.state.samples.len()
    }

    /// Whether no samples were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.state.samples.is_empty()
    }
}

/// Declares convergence when the maximum per-slot displacement stays
/// below a tolerance for a whole window of consecutive slots — the
/// "nodes barely move" state of the paper's Fig. 9.
#[derive(Debug, Clone)]
pub struct ConvergenceDetector {
    tolerance: f64,
    window: usize,
    quiet_slots: usize,
    converged_at: Option<f64>,
}

impl ConvergenceDetector {
    /// Creates a detector: convergence = `window` consecutive slots
    /// with max displacement below `tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `tolerance` is negative.
    pub fn new(tolerance: f64, window: usize) -> Self {
        assert!(window > 0, "window must be at least one slot");
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        ConvergenceDetector {
            tolerance,
            window,
            quiet_slots: 0,
            converged_at: None,
        }
    }

    /// Feeds one step's maximum displacement at time `t`; returns
    /// `true` once converged (latching).
    pub fn observe(&mut self, t: f64, max_displacement: f64) -> bool {
        if self.converged_at.is_some() {
            return true;
        }
        if max_displacement <= self.tolerance {
            self.quiet_slots += 1;
            if self.quiet_slots >= self.window {
                self.converged_at = Some(t);
            }
        } else {
            self.quiet_slots = 0;
        }
        self.converged_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario, CmaBuilder};
    use cps_field::{Parallelism, PeaksField, Static};
    use cps_geometry::Rect;

    #[test]
    fn timeline_records_decreasing_delta_on_static_field() {
        let region = Rect::square(100.0).unwrap();
        let field = Static::new(PeaksField::new(region, 8.0));
        let start = scenario::grid_start(region, 100);
        let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
        let grid = GridSpec::new(region, 41, 41).unwrap();
        let mut timeline = DeltaTimeline::new();
        timeline.record(&sim, &grid).unwrap();
        for _ in 0..10 {
            sim.step().unwrap();
        }
        timeline.record(&sim, &grid).unwrap();
        assert_eq!(timeline.len(), 2);
        assert!(!timeline.is_empty());
        let series = timeline.delta_series();
        assert_eq!(series[0].0, 0.0);
        assert_eq!(series[1].0, 10.0);
        assert_eq!(timeline.best_delta().unwrap(), series[0].1.min(series[1].1));
    }

    #[test]
    fn timeline_is_bit_identical_across_thread_counts() {
        let region = Rect::square(100.0).unwrap();
        let field = Static::new(PeaksField::new(region, 8.0));
        let start = scenario::grid_start(region, 36);
        let sim = CmaBuilder::new(region, start).run(field).unwrap();
        let grid = GridSpec::new(region, 41, 41).unwrap();
        let mut serial =
            DeltaTimeline::with_options(EvalOptions::new().parallelism(Parallelism::serial()));
        let s = serial.record(&sim, &grid).unwrap();
        for par in [Parallelism::fixed(3), Parallelism::auto()] {
            let mut timeline = DeltaTimeline::with_options(EvalOptions::new().parallelism(par));
            let e = timeline.record(&sim, &grid).unwrap();
            assert_eq!(s.delta.to_bits(), e.delta.to_bits(), "{par:?}");
            assert_eq!(s.rms.to_bits(), e.rms.to_bits(), "{par:?}");
        }
    }

    #[test]
    fn convergence_latches_after_quiet_window() {
        let mut det = ConvergenceDetector::new(0.1, 3);
        assert!(!det.observe(1.0, 0.5)); // loud
        assert!(!det.observe(2.0, 0.05));
        assert!(!det.observe(3.0, 0.05));
        assert!(det.observe(4.0, 0.05)); // third quiet slot
        assert_eq!(det.converged_at, Some(4.0));
        // Latching: later loud slots don't un-converge.
        assert!(det.observe(5.0, 10.0));
    }

    #[test]
    fn convergence_resets_on_movement() {
        let mut det = ConvergenceDetector::new(0.1, 2);
        assert!(!det.observe(1.0, 0.0));
        assert!(!det.observe(2.0, 1.0)); // reset
        assert!(!det.observe(3.0, 0.0));
        assert!(det.observe(4.0, 0.0));
        assert_eq!(det.converged_at, Some(4.0));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        ConvergenceDetector::new(0.1, 0);
    }
}
