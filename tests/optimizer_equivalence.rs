//! Property tests for the unified `Optimizer` trait: the hybrid's two
//! degenerate configurations must collapse onto the pure algorithms
//! **bit-identically**, not approximately.
//!
//! * hybrid with zero CMA polish minutes ≡ pure FRA placement;
//! * hybrid with FRA refinement disabled ≡ pure CMA (grid start plus
//!   the same movement slots).
//!
//! The cases sweep fleet sizes.

use cps::field::{PeaksField, Static};
use cps::geometry::{Point2, Rect};
use cps::sim::{
    CmaOptimizer, EngineBuilder, FraOptimizer, HybridOptimizer, Optimizer, OptimizerKind,
};

fn region() -> Rect {
    Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap()
}

fn field() -> Static<PeaksField> {
    Static::new(PeaksField::new(region(), 8.0))
}

/// The fleet sizes every equivalence is checked at.
const FLEET_SIZES: [usize; 3] = [8, 13, 21];

fn builder(k: usize) -> EngineBuilder {
    EngineBuilder::new(region(), k)
        .start_time(600.0)
        .grid_resolution(41)
}

fn position_bits(positions: &[Point2]) -> Vec<(u64, u64)> {
    positions
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

#[test]
fn hybrid_with_zero_polish_is_bit_identical_to_pure_fra() {
    for k in FLEET_SIZES {
        let base = builder(k).minutes(0);
        let fra = FraOptimizer::new(base.clone()).run(field()).unwrap();
        let hybrid = HybridOptimizer::new(base).run(field()).unwrap();
        assert_eq!(fra.optimizer, "fra");
        assert_eq!(hybrid.optimizer, "hybrid");
        assert_eq!(hybrid.steps, 0, "zero polish minutes must step nothing");
        assert_eq!(
            (fra.refined, fra.relays),
            (hybrid.refined, hybrid.relays),
            "k={k}: placement provenance diverged"
        );
        assert_eq!(
            position_bits(&fra.sim.positions()),
            position_bits(&hybrid.sim.positions()),
            "k={k}: positions diverged"
        );
        assert_eq!(fra.sim.slot(), hybrid.sim.slot());
        assert_eq!(fra.sim.time().to_bits(), hybrid.sim.time().to_bits());
    }
}

#[test]
fn hybrid_without_refinement_is_bit_identical_to_pure_cma() {
    for k in FLEET_SIZES {
        let base = builder(k).minutes(3);
        let cma = CmaOptimizer::new(base.clone()).run(field()).unwrap();
        let hybrid = HybridOptimizer::new(base.fra_refinement(false))
            .run(field())
            .unwrap();
        assert_eq!(cma.optimizer, "cma");
        assert_eq!(hybrid.optimizer, "hybrid");
        assert_eq!((cma.refined, cma.relays), (0, 0));
        assert_eq!((hybrid.refined, hybrid.relays), (0, 0));
        assert_eq!(cma.steps, hybrid.steps);
        assert_eq!(
            position_bits(&cma.sim.positions()),
            position_bits(&hybrid.sim.positions()),
            "k={k}: positions diverged"
        );
        assert_eq!(cma.sim.slot(), hybrid.sim.slot());
        assert_eq!(cma.sim.time().to_bits(), hybrid.sim.time().to_bits());
    }
}

#[test]
fn engine_builder_dispatches_the_selected_kind() {
    let base = builder(9).minutes(1);
    let cma = base
        .clone()
        .optimizer(OptimizerKind::Cma)
        .run(field())
        .unwrap();
    let fra = base
        .clone()
        .optimizer(OptimizerKind::Fra)
        .run(field())
        .unwrap();
    let hybrid = base.optimizer(OptimizerKind::Hybrid).run(field()).unwrap();
    assert_eq!(cma.optimizer, "cma");
    assert_eq!(fra.optimizer, "fra");
    assert_eq!(hybrid.optimizer, "hybrid");
    // CMA moves for the mission; FRA holds position.
    assert_eq!(cma.steps, 1);
    assert_eq!(fra.steps, 0);
    assert_eq!(hybrid.steps, 1);
    // FRA-placed runs report their refinement provenance.
    assert!(fra.refined > 0 || fra.relays > 0);
}

#[test]
fn optimizer_kind_parses_the_cli_values() {
    assert_eq!("cma".parse::<OptimizerKind>().unwrap(), OptimizerKind::Cma);
    assert_eq!("fra".parse::<OptimizerKind>().unwrap(), OptimizerKind::Fra);
    assert_eq!(
        "hybrid".parse::<OptimizerKind>().unwrap(),
        OptimizerKind::Hybrid
    );
    assert!("annealing".parse::<OptimizerKind>().is_err());
}
