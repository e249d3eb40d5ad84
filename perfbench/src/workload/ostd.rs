//! `ostd_cma` and `ostd_faults_resume`: the paper's Figs. 8–10 run,
//! 100 nodes from the 9.3 m start lattice moving by CMA for 45
//! one-minute slots from 10:00 on the latent light field, δ sampled every
//! 5 slots on the 101² grid, over 24 forest seeds.
//!
//! With faults, the fleet runs under [`FAULT_PLAN`], checkpoints after
//! every slot, and at slot 30 drops the simulation and resumes from the
//! newest valid checkpoint.

use std::time::Instant;

use cps_core::{CoreError, DeploymentEvaluation, EvalOptions};
use cps_field::TimeVaryingField;
use cps_geometry::{GridSpec, Point2};
use cps_greenorbs::{ForestConfig, LatentLightField};
use cps_sim::{
    scenario, CheckpointDir, CmaBuilder, DeltaTimeline, FaultPlan, Simulation, StepEvent,
    StepObserver,
};

use super::{
    derive_seed, grid, parallelism, region, Options, Round, Scale, TempDir, Workload, FAULT_PLAN,
};
use crate::trace;

const FLEET: usize = 100;
const LATTICE_SPACING: f64 = 9.3;
const START_MINUTE: f64 = 600.0;
const SAMPLE_EVERY: u64 = 5;

/// One forest seed's inputs.
struct RunInput {
    field: LatentLightField,
    builder: CmaBuilder,
    checkpoints: Option<CheckpointDir>,
    label: String,
}

pub struct Ostd {
    runs: Vec<RunInput>,
    slots: u64,
    /// With faults: the slot after which the run is dropped and resumed.
    resume_after: Option<u64>,
    grid: GridSpec,
    corrupt: bool,
    _tmp: Option<TempDir>,
}

impl Ostd {
    pub fn new(opts: &Options, faults: bool) -> Result<Self, String> {
        let (seeds, slots, resume_after) = match opts.scale {
            Scale::Full => (24, 45, 30),
            Scale::Smoke => (1, 6, 3),
        };
        let tmp = faults
            .then(|| TempDir::new("ostd_faults_resume"))
            .transpose()?;
        let plan = faults
            .then(|| FaultPlan::parse(FAULT_PLAN))
            .transpose()
            .map_err(|e| e.to_string())?;
        let start = scenario::grid_start_spaced(region(), FLEET, LATTICE_SPACING)
            .map_err(|e| e.to_string())?;
        let stream = u64::from(faults);
        let runs = (0..seeds)
            .map(|i| {
                let seed = derive_seed(opts.seed, stream, i);
                let field = LatentLightField::new(&ForestConfig {
                    seed,
                    ..ForestConfig::default()
                });
                let mut builder = CmaBuilder::new(region(), start.clone())
                    .evaluator(EvalOptions::new().parallelism(parallelism()))
                    .start_time(START_MINUTE);
                if let Some(plan) = &plan {
                    builder = builder.faults(plan.clone());
                }
                let checkpoints = tmp
                    .as_ref()
                    .map(|t| CheckpointDir::new(t.path().join(format!("run-{i}"))));
                RunInput {
                    field,
                    builder,
                    checkpoints,
                    label: format!("forest,seed={seed}"),
                }
            })
            .collect();
        Ok(Ostd {
            runs,
            slots,
            resume_after: faults.then_some(resume_after),
            grid: grid(),
            corrupt: opts.corrupt,
            _tmp: tmp,
        })
    }

    /// δ samples a run records: the priming sample, every
    /// `SAMPLE_EVERY`-th slot, and the final slot.
    fn expected_samples(&self) -> usize {
        1 + (1..=self.slots)
            .filter(|s| s % SAMPLE_EVERY == 0 || *s == self.slots)
            .count()
    }

    fn run_one(&self, i: usize, round: &mut Round, traced: bool) {
        let _run = trace::span("run");
        let input = &self.runs[i];
        let built = {
            let _s = trace::span("sim.build");
            input.builder.clone().run(&input.field)
        };
        let mut sim = match built {
            Ok(sim) => sim,
            Err(e) => return round.fail(self.slots, format!("run {i}: build: {e}")),
        };
        let mut observer = RunObserver {
            timeline: DeltaTimeline::for_simulation(&sim),
            grid: self.grid,
            final_slot: self.slots,
            checkpoints: input
                .checkpoints
                .as_ref()
                .map(|d| (d, input.label.as_str())),
            last: None,
            snapshot_bytes: 0,
        };
        if let Err(e) = observer.prime(&sim) {
            return round.fail(self.slots, format!("run {i}: priming δ: {e}"));
        }
        let mut stage_timer = StageTimer;
        for slot in 1..=self.slots {
            if self.resume_after == Some(slot - 1) {
                sim = match resume(sim, &mut observer, input, round) {
                    Ok(sim) => sim,
                    Err(e) => {
                        return round.fail(self.slots - slot + 1, format!("run {i}: resume: {e}"))
                    }
                };
            }
            let depth = trace::depth();
            let started = Instant::now();
            let stepped = {
                let _op = trace::span("slot");
                let stepped = if traced {
                    sim.step_observed(&mut [&mut stage_timer, &mut observer])
                } else {
                    sim.step_observed(&mut [&mut observer])
                };
                // A failed stage leaves its span open.
                trace::unwind_to(depth + 1);
                stepped
            };
            if let Err(e) = stepped {
                round.op(started, Err(format!("run {i} slot {slot}: {e}")));
                return round.fail(self.slots - slot, format!("run {i}: abandoned"));
            }
            round.op(started, Ok(()));
        }
        round.add_count("persist.snapshot_bytes", observer.snapshot_bytes);

        let _check = trace::span("bench.check");
        let samples = observer.timeline.len();
        let expected = self.expected_samples();
        round.check(samples == expected, || {
            format!("run {i}: {samples} δ samples, expected {expected}")
        });
        let mut delta = observer.last.map_or(f64::NAN, |e| e.delta);
        if self.corrupt && i == 0 {
            delta = -delta;
        }
        round.check(delta.is_finite() && delta > 0.0, || {
            format!("run {i}: final δ {delta} is not positive and finite")
        });
        let alive = sim.alive_count();
        let fleet_ok = if self.resume_after.is_some() {
            alive > 0 && alive <= FLEET
        } else {
            alive == FLEET
        };
        round.check(fleet_ok, || {
            format!("run {i}: {alive} of {FLEET} nodes alive")
        });
        round.output(format!("final_delta.{i}"), delta);
        round.output(format!("alive.{i}"), alive as f64);
    }
}

/// Drops `sim` and resumes it from the newest valid checkpoint, checking
/// that the resumed run continues exactly where the dropped one stood.
fn resume<'f>(
    sim: Simulation<&'f LatentLightField>,
    observer: &mut RunObserver<'_>,
    input: &'f RunInput,
    round: &mut Round,
) -> Result<Simulation<&'f LatentLightField>, String> {
    let (slot, alive, positions) = (sim.slot(), sim.alive_count(), sim.positions());
    let opts = sim.eval_options();
    drop(sim);
    let dir = input
        .checkpoints
        .as_ref()
        .ok_or("no checkpoint directory")?;
    let (snapshot, path) = {
        let _s = trace::span("persist.load");
        dir.latest_valid().map_err(|e| e.to_string())?
    }
    .ok_or("no valid checkpoint")?;
    let encoded = {
        let _s = trace::span("persist.encode");
        snapshot.to_bytes().map_err(|e| e.to_string())?
    };
    {
        let _s = trace::span("bench.check");
        let on_disk = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        round.check(encoded == on_disk, || {
            format!("{} does not re-encode to its own bytes", path.display())
        });
    }
    let timeline = snapshot
        .timeline(opts)
        .ok_or("checkpoint lost its δ timeline")?;
    let resumed = {
        let _s = trace::span("persist.restore");
        CmaBuilder::resume_from(snapshot)
            .parallelism(parallelism())
            .run(&input.field)
            .map_err(|e| e.to_string())?
    };
    let _s = trace::span("bench.check");
    let same_positions = same_points(&resumed.positions(), &positions);
    round.check(
        resumed.slot() == slot
            && resumed.alive_count() == alive
            && same_positions
            && timeline.len() == observer.timeline.len(),
        || {
            format!(
                "resumed at slot {} with {} alive (dropped at {slot} with {alive}), \
                 positions equal: {same_positions}",
                resumed.slot(),
                resumed.alive_count()
            )
        },
    );
    observer.timeline = timeline;
    Ok(resumed)
}

fn same_points(a: &[Point2], b: &[Point2]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

impl Workload for Ostd {
    fn op_name(&self) -> &'static str {
        "slot"
    }

    fn prepare(&mut self) -> Result<(), String> {
        for dir in self.runs.iter().filter_map(|r| r.checkpoints.as_ref()) {
            match std::fs::remove_dir_all(dir.path()) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("{}: {e}", dir.path().display()))
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let input = &self.runs[0];
        let mut sim = input
            .builder
            .clone()
            .run(&input.field)
            .map_err(|e| e.to_string())?;
        let mut timeline = DeltaTimeline::for_simulation(&sim);
        timeline
            .record(&sim, &self.grid)
            .map_err(|e| e.to_string())?;
        for _ in 0..SAMPLE_EVERY {
            sim.step().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn round(&mut self, round: &mut Round, traced: bool) {
        for i in 0..self.runs.len() {
            self.run_one(i, round, traced);
        }
    }
}

/// The run's own observer, the δ-timeline and checkpoint halves of the
/// library's `RunRecorder` built from the same public calls so that each
/// can be timed: δ on the sample schedule, then (with faults) a
/// checkpoint after every slot.
struct RunObserver<'a> {
    timeline: DeltaTimeline,
    grid: GridSpec,
    final_slot: u64,
    checkpoints: Option<(&'a CheckpointDir, &'a str)>,
    last: Option<DeploymentEvaluation>,
    snapshot_bytes: u64,
}

impl RunObserver<'_> {
    fn prime<F: TimeVaryingField + Sync>(&mut self, sim: &Simulation<F>) -> Result<(), CoreError> {
        let _s = trace::span("field.delta");
        self.last = Some(self.timeline.record(sim, &self.grid)?);
        Ok(())
    }
}

impl<F: TimeVaryingField + Sync> StepObserver<F> for RunObserver<'_> {
    fn on_event(&mut self, event: StepEvent<'_, F>) -> Result<(), CoreError> {
        let StepEvent::SlotEnd { sim, .. } = event else {
            return Ok(());
        };
        let _s = trace::span("sim.observe");
        let slot = sim.slot();
        if slot % SAMPLE_EVERY == 0 || slot == self.final_slot {
            let _d = trace::span("field.delta");
            self.last = Some(self.timeline.record(sim, &self.grid)?);
        }
        if let Some((dir, label)) = self.checkpoints {
            let _p = trace::span("persist.store");
            let mut snapshot = sim.checkpoint();
            snapshot.label = label.to_string();
            snapshot.attach_timeline(&self.timeline);
            let path = dir.store(&snapshot)?;
            self.snapshot_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        }
        Ok(())
    }
}

/// Times each stage from its `StageStart` to its `StageEnd` event.
struct StageTimer;

impl<F> StepObserver<F> for StageTimer {
    fn on_event(&mut self, event: StepEvent<'_, F>) -> Result<(), CoreError> {
        match event {
            StepEvent::StageStart { stage } => trace::enter(stage_span(stage)),
            StepEvent::StageEnd { .. } => trace::exit(),
            _ => {}
        }
        Ok(())
    }
}

fn stage_span(stage: &str) -> &'static str {
    match stage {
        "fault" => "sim.stage.fault",
        "sense" => "sim.stage.sense",
        "exchange" => "sim.stage.exchange",
        "recovery" => "sim.stage.recovery",
        "optimize" => "sim.stage.optimize",
        "record" => "sim.stage.record",
        _ => "sim.stage.other",
    }
}
