//! Integration: checkpoint/restore across the full stack — a resumed
//! run must be bit-identical to an uninterrupted one at every thread
//! count, even when the checkpoint lands in the middle of a fault plan; corrupted snapshots must fail
//! with typed errors and fall back to the newest valid one.

use std::fs;
use std::path::PathBuf;

use cps::core::{CoreError, EvalOptions, SurvivabilityTracker};
use cps::field::{Parallelism, PeaksField, Static};
use cps::geometry::{GridSpec, Rect};
use cps::sim::{scenario, CheckpointDir, CmaBuilder, DeltaTimeline, FaultPlan, SimSnapshot};
use proptest::prelude::*;

fn region() -> Rect {
    Rect::square(100.0).unwrap()
}

fn field() -> Static<PeaksField> {
    Static::new(PeaksField::new(region(), 8.0))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps_ckpt_it_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One slot of the shared measurement schedule: δ every third slot,
/// survivability every slot. Run identically on both sides of a
/// checkpoint so the recorded series can be compared bit-for-bit.
fn measure(
    sim: &mut cps::sim::Simulation<Static<PeaksField>>,
    grid: &GridSpec,
    timeline: &mut DeltaTimeline,
    survivability: &mut SurvivabilityTracker,
) {
    let report = sim.step().unwrap();
    survivability.observe_messages(report.messages, report.retried, report.dropped);
    let sampled = if sim.slot().is_multiple_of(3) {
        Some(timeline.record(sim, grid).unwrap().delta)
    } else {
        None
    };
    survivability.observe_slot(sim.time(), sim.alive_count(), report.components, sampled);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: for random fault plans, checkpoint
    /// slots, and thread counts, resuming from a
    /// byte-round-tripped snapshot reproduces the uninterrupted run
    /// (under the same evaluation options) exactly: node state to the
    /// bit, fault events, δ samples, and the survivability ledger.
    #[test]
    fn resume_is_bit_identical_mid_fault_plan(
        seed in any::<u64>(),
        kill_node in 0..25usize,
        kill_slot in 4..10u64,
        checkpoint_slot in 3..9u64,
        threads_idx in 0..3usize,
    ) {
        let par = Parallelism::fixed([1usize, 2, 8][threads_idx]);
        let opts = EvalOptions::new().parallelism(par);
        let grid = GridSpec::new(region(), 21, 21).unwrap();
        let start = scenario::grid_start(region(), 25);
        let plan = FaultPlan::parse(&format!(
            "seed={seed},kill={kill_node}@{kill_slot},death=0.003,loss=0.1:2,stuck=0.02:3"
        ))
        .unwrap();
        let total_slots = 14u64;

        // Uninterrupted reference run.
        let mut reference = CmaBuilder::new(region(), start.clone())
            .start_time(600.0)
            .faults(plan.clone())
            .parallelism(par)
            .evaluator(opts)
            .run(field())
            .unwrap();
        let mut ref_timeline = DeltaTimeline::with_options(opts);
        let mut ref_surv = SurvivabilityTracker::new(25);
        for _ in 0..total_slots {
            measure(&mut reference, &grid, &mut ref_timeline, &mut ref_surv);
        }

        // Interrupted run: identical until `checkpoint_slot`, then the
        // snapshot round-trips through bytes (a simulated crash) and a
        // fresh process resumes.
        let mut interrupted = CmaBuilder::new(region(), start)
            .start_time(600.0)
            .faults(plan)
            .parallelism(par)
            .evaluator(opts)
            .run(field())
            .unwrap();
        let mut timeline = DeltaTimeline::with_options(opts);
        let mut surv = SurvivabilityTracker::new(25);
        for _ in 0..checkpoint_slot {
            measure(&mut interrupted, &grid, &mut timeline, &mut surv);
        }
        let mut snap = interrupted.checkpoint();
        snap.attach_timeline(&timeline);
        snap.attach_survivability(&surv);
        let bytes = snap.to_bytes().unwrap();
        drop((interrupted, timeline, surv));

        let snap = SimSnapshot::from_bytes(&bytes).unwrap();
        let mut timeline = snap.timeline(opts).unwrap();
        let mut surv = snap.survivability_tracker().unwrap();
        let mut resumed = CmaBuilder::resume_from(snap)
            .parallelism(par)
            .evaluator(opts)
            .run(field())
            .unwrap();
        prop_assert_eq!(resumed.slot(), checkpoint_slot);
        for _ in checkpoint_slot..total_slots {
            measure(&mut resumed, &grid, &mut timeline, &mut surv);
        }

        prop_assert_eq!(reference.nodes(), resumed.nodes());
        prop_assert_eq!(reference.fault_events(), resumed.fault_events());
        for (a, b) in reference.nodes().iter().zip(resumed.nodes()) {
            prop_assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
            prop_assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
            prop_assert_eq!(a.curvature.to_bits(), b.curvature.to_bits());
        }
        prop_assert_eq!(ref_timeline.len(), timeline.len());
        for ((ta, ea), (tb, eb)) in ref_timeline.samples().iter().zip(timeline.samples()) {
            prop_assert_eq!(ta.to_bits(), tb.to_bits());
            prop_assert_eq!(ea.delta.to_bits(), eb.delta.to_bits());
        }
        prop_assert_eq!(ref_surv.state(), surv.state());
    }
}

#[test]
fn single_byte_corruption_is_a_checksum_error() {
    let start = scenario::grid_start(region(), 9);
    let mut sim = CmaBuilder::new(region(), start).run(field()).unwrap();
    for _ in 0..3 {
        sim.step().unwrap();
    }
    let dir = scratch("corrupt");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.cpsnap");
    sim.checkpoint().save(&path).unwrap();

    let clean = fs::read(&path).unwrap();
    // Flip a byte in the middle of the payload.
    let mut bad = clean.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    fs::write(&path, &bad).unwrap();
    match SimSnapshot::load(&path) {
        Err(CoreError::SnapshotCorrupt { .. }) => {}
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }

    // The pristine bytes still load.
    fs::write(&path, &clean).unwrap();
    let snap = SimSnapshot::load(&path).unwrap();
    assert_eq!(snap.slot, 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_snapshots_fall_back_to_previous_valid() {
    let start = scenario::grid_start(region(), 9);
    let mut sim = CmaBuilder::new(region(), start).run(field()).unwrap();
    let dir = scratch("fallback");
    let store = CheckpointDir::new(&dir);

    sim.step().unwrap();
    let good_path = store.store(&sim.checkpoint()).unwrap();
    sim.step().unwrap();
    let newer_path = store.store(&sim.checkpoint()).unwrap();

    // Truncate the newest snapshot and drop in an empty decoy that
    // sorts even newer: both are skipped for the older valid one.
    let newer_bytes = fs::read(&newer_path).unwrap();
    fs::write(&newer_path, &newer_bytes[..newer_bytes.len() / 2]).unwrap();
    fs::write(dir.join("snap-999999999999.cpsnap"), b"").unwrap();

    let (snap, path) = store
        .latest_valid()
        .unwrap()
        .expect("older snapshot survives");
    assert_eq!(path, good_path);
    assert_eq!(snap.slot, 1);

    // With every snapshot damaged there is nothing to resume from —
    // reported as absence, not an error, so callers can start fresh.
    let good_bytes = fs::read(&good_path).unwrap();
    fs::write(&good_path, &good_bytes[..10]).unwrap();
    assert!(store.latest_valid().unwrap().is_none());
    let _ = fs::remove_dir_all(&dir);
}
