//! Built-in [`StepObserver`] consumers: the [`RunRecorder`] bundle
//! that used to be hand-wired into every simulation loop.
//!
//! Before the observer bus, each driver (CLI `simulate`, the sweep
//! job runner, bench bins) reached into [`Simulation`] after every
//! step to record the δ timeline, feed the survivability ledger, and
//! decide whether a checkpoint was due. [`RunRecorder`] packages those
//! three consumers behind one [`StepObserver`]: hand it to
//! [`Simulation::step_observed`] and read the results back when the
//! run ends. Recording through the observer is bit-identical to the
//! old inline wiring — same sample schedule, same observation order
//! (messages before the slot observation, checkpoint after both).

use std::path::PathBuf;

use cps_core::{CoreError, DeploymentEvaluation, SurvivabilityTracker};
use cps_field::TimeVaryingField;
use cps_geometry::GridSpec;

use crate::checkpoint::{CheckpointDir, CheckpointPolicy};
use crate::engine::Simulation;
use crate::metrics::DeltaTimeline;
use crate::stage::{StepEvent, StepObserver};

/// Where and when [`RunRecorder`] persists checkpoints.
#[derive(Debug)]
struct CheckpointSink {
    policy: CheckpointPolicy,
    dir: CheckpointDir,
    label: String,
    /// Fault events already seen, so `on_fault_event` policies trigger
    /// only on fresh ones.
    events_seen: usize,
}

/// The standard cross-cutting consumer bundle: δ timeline sampling,
/// survivability ledger, and checkpoint policy, fed from the
/// [`StepObserver`] bus instead of reaching into the loop body.
///
/// Configure the pieces you need (each is optional), then pass
/// `&mut recorder` to [`Simulation::step_observed`]. The sample
/// schedule matches the drivers' historical wiring: a slot is sampled
/// when `slot % sample_every == 0` or when it is the declared final
/// slot, and the baseline (pre-loop) sample is taken by
/// [`prime`](RunRecorder::prime).
///
/// # Example
///
/// ```
/// use cps_field::{PeaksField, Static};
/// use cps_geometry::{GridSpec, Rect};
/// use cps_sim::{scenario, CmaBuilder, DeltaTimeline, RunRecorder};
///
/// let region = Rect::square(100.0).unwrap();
/// let field = Static::new(PeaksField::new(region, 8.0));
/// let start = scenario::grid_start(region, 16);
/// let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
/// let grid = GridSpec::new(region, 41, 41).unwrap();
/// let mut rec = RunRecorder::new()
///     .timeline(DeltaTimeline::for_simulation(&sim), grid)
///     .sample_every(5)
///     .final_slot(10);
/// rec.prime(&sim).unwrap();
/// for _ in 0..10 {
///     sim.step_observed(&mut [&mut rec]).unwrap();
/// }
/// assert_eq!(rec.timeline_ref().unwrap().len(), 3); // slots 0, 5, 10
/// ```
#[derive(Debug, Default)]
pub struct RunRecorder {
    timeline: Option<(DeltaTimeline, GridSpec)>,
    sample_every: u64,
    final_slot: Option<u64>,
    survivability: Option<SurvivabilityTracker>,
    checkpoint: Option<CheckpointSink>,
    last_sample: Option<DeploymentEvaluation>,
    last_checkpoint: Option<PathBuf>,
}

impl RunRecorder {
    /// An empty recorder; configure with the builder methods.
    pub fn new() -> Self {
        RunRecorder {
            timeline: None,
            sample_every: 1,
            final_slot: None,
            survivability: None,
            checkpoint: None,
            last_sample: None,
            last_checkpoint: None,
        }
    }

    /// Records the δ timeline over `grid` on the sample schedule.
    pub fn timeline(mut self, timeline: DeltaTimeline, grid: GridSpec) -> Self {
        self.timeline = Some((timeline, grid));
        self
    }

    /// Samples every `every` slots (default 1; 0 is treated as 1).
    pub fn sample_every(mut self, every: u64) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// Declares the run's final slot, which is always sampled even if
    /// off-schedule (the drivers' historical behavior).
    pub fn final_slot(mut self, slot: u64) -> Self {
        self.final_slot = Some(slot);
        self
    }

    /// Feeds the survivability ledger every slot (messages, alive
    /// count, components, sampled δ).
    pub fn survivability(mut self, tracker: SurvivabilityTracker) -> Self {
        self.survivability = Some(tracker);
        self
    }

    /// Persists checkpoints to `dir` whenever `policy` says a slot is
    /// due, labeling snapshots with `label` and attaching the
    /// recorder's timeline and survivability state. Call
    /// [`sync_events`](RunRecorder::sync_events) after building when
    /// resuming, so pre-existing fault events don't count as fresh.
    pub fn checkpoints(
        mut self,
        policy: CheckpointPolicy,
        dir: CheckpointDir,
        label: &str,
    ) -> Self {
        self.checkpoint = Some(CheckpointSink {
            policy,
            dir,
            label: label.to_string(),
            events_seen: 0,
        });
        self
    }

    /// Aligns the fresh-fault-event cursor with `sim`'s current event
    /// log (for resumed runs).
    pub fn sync_events<F: TimeVaryingField>(mut self, sim: &Simulation<F>) -> Self {
        if let Some(sink) = self.checkpoint.as_mut() {
            sink.events_seen = sim.fault_events().len();
        }
        self
    }

    /// Takes the baseline sample (slot-start state, before the first
    /// step) and feeds the survivability ledger its first observation.
    ///
    /// # Errors
    ///
    /// Propagates δ-evaluation failures.
    pub fn prime<F: TimeVaryingField + Sync>(
        &mut self,
        sim: &Simulation<F>,
    ) -> Result<Option<DeploymentEvaluation>, CoreError> {
        let sample = match self.timeline.as_mut() {
            Some((timeline, grid)) => Some(timeline.record(sim, grid)?),
            None => None,
        };
        if let Some(tracker) = self.survivability.as_mut() {
            tracker.observe_slot(sim.time(), sim.alive_count(), 1, sample.map(|e| e.delta));
        }
        self.last_sample = sample;
        Ok(sample)
    }

    /// The recorded timeline, if one was configured.
    pub fn timeline_ref(&self) -> Option<&DeltaTimeline> {
        self.timeline.as_ref().map(|(t, _)| t)
    }

    /// Alias for [`timeline_ref`](RunRecorder::timeline_ref) used when
    /// the builder-style name would shadow it.
    pub fn timeline_recorded(&self) -> Option<&DeltaTimeline> {
        self.timeline_ref()
    }

    /// The survivability tracker, if one was configured.
    pub fn survivability_ref(&self) -> Option<&SurvivabilityTracker> {
        self.survivability.as_ref()
    }

    /// Consumes the recorder, returning the timeline and tracker for
    /// report finishing.
    pub fn into_parts(self) -> (Option<DeltaTimeline>, Option<SurvivabilityTracker>) {
        (self.timeline.map(|(t, _)| t), self.survivability)
    }

    /// The δ sample taken at the most recent slot, if that slot was on
    /// the schedule. Cleared by the next unsampled slot.
    pub fn take_sample(&mut self) -> Option<DeploymentEvaluation> {
        self.last_sample.take()
    }

    /// The checkpoint written at the most recent slot, if any.
    pub fn take_checkpoint(&mut self) -> Option<PathBuf> {
        self.last_checkpoint.take()
    }
}

impl<F: TimeVaryingField + Sync> StepObserver<F> for RunRecorder {
    fn on_event(&mut self, event: StepEvent<'_, F>) -> Result<(), CoreError> {
        let StepEvent::SlotEnd { sim, report } = event else {
            return Ok(());
        };
        // Historical observation order: messages first, then the
        // (possibly sampled) slot observation, then the checkpoint so
        // a resume continues the report series without gaps.
        if let Some(tracker) = self.survivability.as_mut() {
            tracker.observe_messages(report.messages, report.retried, report.dropped);
        }
        let slot = sim.slot();
        let due = slot % self.sample_every == 0 || self.final_slot == Some(slot);
        let sample = match (due, self.timeline.as_mut()) {
            (true, Some((timeline, grid))) => Some(timeline.record(sim, grid)?),
            _ => None,
        };
        self.last_sample = sample;
        if let Some(tracker) = self.survivability.as_mut() {
            tracker.observe_slot(
                sim.time(),
                sim.alive_count(),
                report.components,
                sample.map(|e| e.delta),
            );
        }
        if let Some(sink) = self.checkpoint.as_mut() {
            let fresh = sim.fault_events().len() - sink.events_seen;
            sink.events_seen = sim.fault_events().len();
            if sink.policy.due(slot, fresh) {
                let mut snapshot = sim.checkpoint();
                snapshot.label = sink.label.clone();
                if let Some((timeline, _)) = self.timeline.as_ref() {
                    snapshot.attach_timeline(timeline);
                }
                if let Some(tracker) = self.survivability.as_ref() {
                    snapshot.attach_survivability(tracker);
                }
                self.last_checkpoint = Some(sink.dir.store(&snapshot)?);
            }
        }
        Ok(())
    }
}
