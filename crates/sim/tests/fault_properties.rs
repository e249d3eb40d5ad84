//! Property tests for the fault-injection subsystem.
//!
//! The two contracts that keep fault injection honest:
//!
//! 1. an all-zero [`FaultPlan`] is *free* — positions, curvatures, and
//!    δ are bit-identical to a run with no plan at all, at every thread
//!    count;
//! 2. killing a non-articulation node never increases the component
//!    count of the communication graph.
//!
//! The `--faults` spec parser is fuzzed too: any text parses to a plan
//! or a typed error, never a panic.

use cps_core::CoreError;
use cps_field::{Parallelism, PeaksField, Static};
use cps_geometry::{GridSpec, Point2, Rect};
use cps_network::UnitDiskGraph;
use cps_sim::{scenario, CmaBuilder, DeltaTimeline, FaultPlan, MobileNode, RecoveryPolicy};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn region() -> Rect {
    Rect::square(100.0).unwrap()
}

fn run_swarm(
    plan: Option<FaultPlan>,
    par: Parallelism,
    slots: usize,
) -> (Vec<MobileNode>, Vec<f64>) {
    let field = Static::new(PeaksField::new(region(), 8.0));
    let grid = GridSpec::new(region(), 41, 41).unwrap();
    let start = scenario::grid_start(region(), 36);
    let mut builder = CmaBuilder::new(region(), start).parallelism(par);
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let mut sim = builder.run(field).unwrap();
    let mut timeline = DeltaTimeline::for_simulation(&sim);
    timeline.record(&sim, &grid).unwrap();
    for _ in 0..slots {
        sim.step().unwrap();
        timeline.record(&sim, &grid).unwrap();
    }
    let deltas = timeline.delta_series().iter().map(|&(_, d)| d).collect();
    (sim.nodes().to_vec(), deltas)
}

fn assert_bit_identical(a: &(Vec<MobileNode>, Vec<f64>), b: &(Vec<MobileNode>, Vec<f64>)) {
    assert_eq!(a.0.len(), b.0.len());
    for (x, y) in a.0.iter().zip(&b.0) {
        assert_eq!(x.position.x.to_bits(), y.position.x.to_bits());
        assert_eq!(x.position.y.to_bits(), y.position.y.to_bits());
        assert_eq!(x.curvature.to_bits(), y.curvature.to_bits());
        assert_eq!(x.traveled.to_bits(), y.traveled.to_bits());
        assert_eq!(x.alive, y.alive);
    }
    assert_eq!(a.1.len(), b.1.len());
    for (x, y) in a.1.iter().zip(&b.1) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan_at_every_thread_count() {
    let baseline = run_swarm(None, Parallelism::serial(), 6);
    // The seed must not matter when nothing is injected. (A zero plan
    // with RecoveryPolicy::On is deliberately NOT inert: it heals
    // disconnected deployments even without injected faults.)
    for plan in [
        FaultPlan::none(),
        FaultPlan::builder().seed(12345).build().unwrap(),
        FaultPlan::builder()
            .recovery(RecoveryPolicy::Off)
            .build()
            .unwrap(),
    ] {
        for par in [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(5),
            Parallelism::auto(),
        ] {
            let faulty = run_swarm(Some(plan.clone()), par, 6);
            assert_bit_identical(&baseline, &faulty);
        }
    }
}

#[test]
fn faulty_runs_are_bit_identical_across_thread_counts() {
    // The deeper determinism contract: even with every fault class
    // active, all draws happen serially, so thread count changes
    // nothing.
    let plan = FaultPlan::parse(
        "seed=11,kill=7@2,death=0.01,dropout=0.05,outlier=0.05:30,stuck=0.03:2,loss=0.15:2",
    )
    .unwrap();
    let serial = run_swarm(Some(plan.clone()), Parallelism::serial(), 6);
    assert!(
        serial.0.iter().any(|n| !n.alive),
        "the schedule should kill at least node 7"
    );
    for par in [
        Parallelism::fixed(2),
        Parallelism::fixed(5),
        Parallelism::auto(),
    ] {
        let threaded = run_swarm(Some(plan.clone()), par, 6);
        assert_bit_identical(&serial, &threaded);
    }
}

#[test]
fn timeline_syncs_fault_events() {
    let field = Static::new(PeaksField::new(region(), 8.0));
    let grid = GridSpec::new(region(), 41, 41).unwrap();
    let start = scenario::grid_start(region(), 16);
    let plan = FaultPlan::builder().kill(5, 1).build().unwrap();
    let mut sim = CmaBuilder::new(region(), start)
        .faults(plan)
        .run(field)
        .unwrap();
    let mut timeline = DeltaTimeline::new();
    timeline.record(&sim, &grid).unwrap();
    assert!(timeline.events().is_empty());
    for _ in 0..3 {
        sim.step().unwrap();
    }
    timeline.record(&sim, &grid).unwrap();
    assert_eq!(timeline.events(), sim.fault_events());
    assert!(!timeline.events().is_empty());
    // Re-recording without new events must not duplicate them.
    let count = timeline.events().len();
    timeline.record(&sim, &grid).unwrap();
    assert_eq!(timeline.events().len(), count);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn killing_a_non_articulation_node_never_splits_the_graph(
        pts in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 4..40),
        pick in any::<prop::sample::Index>(),
    ) {
        let positions: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let graph = UnitDiskGraph::new(positions.clone(), 18.0).unwrap();
        let critical = graph.critical_nodes();
        let victim = pick.index(positions.len());
        prop_assume!(!critical.contains(&victim));
        let survivors: Vec<Point2> = positions
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim)
            .map(|(_, &p)| p)
            .collect();
        let after = UnitDiskGraph::new(survivors, 18.0).unwrap();
        prop_assert!(
            after.component_count() <= graph.component_count(),
            "killing non-critical node {} split {} -> {} components",
            victim,
            graph.component_count(),
            after.component_count()
        );
    }
}

/// A valid spec that sets every key: the base for random edits.
const FULL_SPEC: &str = "seed=11,kill=7@2,cull=0.1@10,death=0.01,battery=100:0.5:2,\
                         dropout=0.05,outlier=0.05:30,stuck=0.03:2,loss=0.15:2,recovery=on";

/// The spec grammar's characters, plus a few it gives no meaning to.
const ALPHABET: &str = "=,@:.-+ 0123456789eEinfNaseedkillculldeathbatterydropout\
                        outlierstucklossrecoveryautoonoff\t\u{0}é∞";

fn alphabet_char(pick: &prop::sample::Index) -> char {
    let chars: Vec<char> = ALPHABET.chars().collect();
    chars[pick.index(chars.len())]
}

fn assert_parses_or_rejects(spec: &str) -> Result<(), TestCaseError> {
    let result = FaultPlan::parse(spec);
    prop_assert!(
        matches!(result, Ok(_) | Err(CoreError::InvalidParameter { .. })),
        "{spec:?}: {result:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fault_spec_parser_never_panics_on_arbitrary_text(
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..60),
        bytes in prop::collection::vec(0u8..=255, 0..60),
    ) {
        let text: String = picks.iter().map(alphabet_char).collect();
        assert_parses_or_rejects(&text)?;
        assert_parses_or_rejects(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn fault_spec_parser_never_panics_on_edited_specs(
        entry in any::<prop::sample::Index>(),
        edits in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..3),
            1..4,
        ),
    ) {
        prop_assert!(FaultPlan::parse(FULL_SPEC).is_ok(), "the edit base must be valid");
        // Replace, insert or delete characters of one entry, so every
        // key's error paths are reached, not just the first entry's.
        let mut entries: Vec<String> = FULL_SPEC.split(',').map(str::to_string).collect();
        let i = entry.index(entries.len());
        let mut chars: Vec<char> = entries[i].chars().collect();
        for (at, pick, op) in &edits {
            let j = at.index(chars.len() + 1);
            match op {
                0 if j < chars.len() => chars[j] = alphabet_char(pick),
                1 => chars.insert(j, alphabet_char(pick)),
                _ if j < chars.len() => {
                    chars.remove(j);
                }
                _ => {}
            }
        }
        entries[i] = chars.into_iter().collect();
        assert_parses_or_rejects(&entries[i])?;
        assert_parses_or_rejects(&entries.join(","))?;
    }
}
