//! A run's thread policy is stored once, so no builder call can undo
//! it, and a sweep's jobs keep their serial inner work on the pool.
//!
//! Kept in its own test binary: `pool_tasks` is a process-global
//! `cps-obs` counter that tests elsewhere in a shared binary would
//! move.

use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use cps_field::{GaussianBlob, Parallelism, PeaksField, Static};
use cps_geometry::{Point2, Rect};
use cps_obs::Counter;
use cps_sim::sweep::{run_sweep, SweepJob, SweepSpec};
use cps_sim::{scenario, CmaBuilder, SimConfig};

/// Serialises the tests: one of them resets and reads global counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// Long enough for a debug build on a loaded machine; a deadlocked
/// sweep never finishes at all.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Pool tasks a 100-node run queues over its build and 3 slots.
fn pool_tasks_of(builder: CmaBuilder) -> u64 {
    let region = Rect::square(100.0).unwrap();
    cps_obs::reset();
    cps_obs::enable();
    let mut sim = builder
        .run(Static::new(PeaksField::new(region, 8.0)))
        .unwrap();
    for _ in 0..3 {
        sim.step().unwrap();
    }
    cps_obs::disable();
    cps_obs::snapshot().counter(Counter::PoolTasks)
}

#[test]
fn a_serial_run_queues_no_pool_tasks_whatever_the_builder_order() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let region = Rect::square(100.0).unwrap();
    let start = scenario::grid_start(region, 100);
    let builder = || CmaBuilder::new(region, start.clone());
    let serial = Parallelism::serial();
    // A sharded run does queue tasks on two or more cores, so a zero
    // below means the serial policy held, not that nothing counted.
    if Parallelism::auto().threads() >= 2 {
        assert!(pool_tasks_of(builder().parallelism(Parallelism::fixed(2))) > 0);
    }
    let config_first = builder().config(SimConfig::default()).parallelism(serial);
    assert_eq!(pool_tasks_of(config_first), 0, ".config before the policy");
    let config_after = builder().parallelism(serial).config(SimConfig::default());
    assert_eq!(pool_tasks_of(config_after), 0, ".config after the policy");
}

fn field_for(job: &SweepJob) -> Static<GaussianBlob> {
    Static::new(GaussianBlob::isotropic(
        Point2::new(40.0 + job.seed as f64 * 11.0, 70.0),
        45.0,
        18.0,
    ))
}

#[test]
fn a_100_node_sweep_on_two_workers_finishes_and_matches_one_worker() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = SweepSpec {
        seeds: vec![1, 2],
        k: vec![100],
        minutes: 3,
        sample_every: 1,
        resolution: 31,
        ..SweepSpec::default()
    };
    let run = |workers: usize| {
        let (tx, rx) = channel();
        let spec = spec.clone();
        thread::spawn(move || {
            let json = run_sweep(&spec, workers, None, false, field_for)
                .and_then(|results| results.to_json());
            let _ = tx.send(json);
        });
        rx.recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("sweep on {workers} workers did not finish: deadlock"))
            .unwrap()
    };
    let two = run(2);
    assert_eq!(two, run(1));
}
