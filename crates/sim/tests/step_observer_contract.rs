//! The slot driver's observer contract: the event sequence one
//! `step_observed` emits, and the `cps-obs` stage timers and slot
//! counter it feeds. Perfbench's per-stage layers and `--metrics`
//! output are built on both.
//!
//! This file is its own test binary because `cps-obs` keeps one
//! process-wide table; the lock keeps the two tests from stepping into
//! each other's counts.

use std::sync::Mutex;

use cps_core::CoreError;
use cps_field::{PeaksField, Static};
use cps_geometry::Rect;
use cps_sim::stage::STANDARD_STAGES;
use cps_sim::{scenario, CmaBuilder, FaultPlan, Simulation, StepEvent, StepObserver};

static OBS: Mutex<()> = Mutex::new(());

type World = Static<PeaksField>;

fn faulty_sim() -> Simulation<World> {
    let region = Rect::square(100.0).unwrap();
    let field = Static::new(PeaksField::new(region, 8.0));
    CmaBuilder::new(region, scenario::grid_start(region, 16))
        .faults(FaultPlan::parse("seed=3,kill=2@1,loss=0.1:2").unwrap())
        .run(field)
        .unwrap()
}

/// Writes each event down as a string.
#[derive(Default)]
struct Log(Vec<String>);

impl StepObserver<World> for Log {
    fn on_event(&mut self, event: StepEvent<'_, World>) -> Result<(), CoreError> {
        self.0.push(match event {
            StepEvent::SlotStart { slot, .. } => format!("slot_start {slot}"),
            StepEvent::StageStart { stage } => format!("start {stage}"),
            StepEvent::StageEnd { stage } => format!("end {stage}"),
            StepEvent::SlotEnd { sim, .. } => format!("slot_end {}", sim.slot()),
        });
        Ok(())
    }
}

#[test]
fn one_slot_brackets_every_standard_stage_in_order() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = faulty_sim();
    sim.step().unwrap();
    let mut log = Log::default();
    sim.step_observed(&mut [&mut log]).unwrap();

    let mut expected = vec!["slot_start 1".to_string()];
    for stage in STANDARD_STAGES {
        expected.push(format!("start {stage}"));
        expected.push(format!("end {stage}"));
    }
    expected.push("slot_end 2".to_string());
    assert_eq!(log.0, expected);
}

#[test]
fn each_slot_times_every_stage_once_and_counts_one_step() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    const SLOTS: u64 = 4;
    let mut sim = faulty_sim();
    cps_obs::reset();
    cps_obs::enable();
    for _ in 0..SLOTS {
        sim.step().unwrap();
    }
    cps_obs::disable();
    let metrics = cps_obs::snapshot();

    assert_eq!(metrics.counter(cps_obs::Counter::SimSteps), SLOTS);
    for stage in STANDARD_STAGES {
        let key = format!("stage_{stage}");
        let rows: Vec<_> = metrics.phases.iter().filter(|r| r.phase == key).collect();
        assert_eq!(rows.len(), 1, "{key}: {rows:?}");
        assert_eq!((rows[0].threads, rows[0].calls), (1, SLOTS), "{key}");
    }
}
