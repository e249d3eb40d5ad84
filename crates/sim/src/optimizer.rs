//! The unified [`Optimizer`] trait over the paper's two algorithms —
//! CMA (the mobile OSTD swarm) and FRA (the static OSD refinement) —
//! plus the [`HybridOptimizer`] composing them, all configured through
//! one [`EngineBuilder`].
//!
//! The paper treats its two problems separately: OSD places `k` static
//! nodes against a frozen reference surface (FRA), OSTD steers `k`
//! mobile nodes across the evolving field (CMA). The trait unifies
//! their contract — *produce a deployed [`Simulation`] and how it got
//! there* — so drivers can select an algorithm at runtime
//! (`cps simulate --optimizer cma|fra|hybrid`) and the hybrid can run
//! FRA refinement for the initial placement and CMA polish for the
//! mission, the two algorithms finally composable in one run.
//!
//! Composability is exact at the endpoints, and property-tested:
//! a hybrid with zero polish minutes is bit-identical to pure FRA, and
//! a hybrid with FRA refinement disabled is bit-identical to pure CMA.

use cps_core::osd::FraBuilder;
use cps_core::{CoreError, EvalOptions};
use cps_field::TimeVaryingField;
use cps_geometry::{GridSpec, Point2, Rect};

use crate::engine::{CmaBuilder, SimConfig, Simulation};
use crate::fault::FaultPlan;
use crate::scenario;

/// Which deployment optimizer an [`EngineBuilder`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerKind {
    /// The paper's OSTD loop: evenly spaced grid start, CMA movement
    /// for the configured mission length.
    #[default]
    Cma,
    /// The paper's OSD algorithm: FRA refinement against the field
    /// frozen at start time; the deployment then holds position.
    Fra,
    /// FRA refinement for the initial placement, then CMA polish for
    /// the mission.
    Hybrid,
}

impl std::str::FromStr for OptimizerKind {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cma" => Ok(OptimizerKind::Cma),
            "fra" => Ok(OptimizerKind::Fra),
            "hybrid" => Ok(OptimizerKind::Hybrid),
            _ => Err(CoreError::InvalidParameter {
                name: "optimizer",
                requirement: "must be cma, fra, or hybrid",
            }),
        }
    }
}

/// What an [`Optimizer`] produced: the deployed (and possibly
/// polished) simulation plus placement provenance.
#[derive(Debug)]
pub struct OptimizerRun<F> {
    /// The simulation after deployment and any polish steps; step it
    /// further, checkpoint it, or evaluate it like any other.
    pub sim: Simulation<F>,
    /// Positions chosen by FRA error refinement (0 for pure CMA).
    pub refined: usize,
    /// Positions spent by FRA on connectivity relays (0 for pure CMA).
    pub relays: usize,
    /// CMA polish slots stepped by the optimizer itself.
    pub steps: u64,
    /// [`Optimizer::name`] of the algorithm that ran.
    pub optimizer: &'static str,
}

/// A deployment optimizer: given a field, produce a deployed
/// [`Simulation`].
///
/// Implemented by [`CmaOptimizer`], [`FraOptimizer`], and
/// [`HybridOptimizer`]; [`EngineBuilder::run`] dispatches between
/// them.
pub trait Optimizer<F: TimeVaryingField + Sync> {
    /// Stable lowercase algorithm name (the CLI `--optimizer` value).
    fn name(&self) -> &'static str;

    /// Runs the optimizer over `field`.
    ///
    /// # Errors
    ///
    /// Placement errors (budget, invalid geometry) and stepping errors.
    fn run(&self, field: F) -> Result<OptimizerRun<F>, CoreError>;
}

/// Shared configuration for every optimizer: region, fleet size, node
/// capabilities, evaluation options, clock, mission length, and the
/// algorithm selection. The previously separate [`CmaBuilder`] and
/// [`FraBuilder`] surfaces converge here — the builder constructs
/// whichever the [`OptimizerKind`] needs.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    region: Rect,
    k: usize,
    config: SimConfig,
    eval: EvalOptions,
    start_time: f64,
    minutes: u64,
    faults: Option<FaultPlan>,
    grid_resolution: usize,
    grid_spacing: Option<f64>,
    kind: OptimizerKind,
    fra_refinement: bool,
}

impl EngineBuilder {
    /// A builder for `k` nodes inside `region`, defaulting to the CMA
    /// optimizer, default [`SimConfig`], clock at 0, no mission steps.
    pub fn new(region: Rect, k: usize) -> Self {
        EngineBuilder {
            region,
            k,
            config: SimConfig::default(),
            eval: EvalOptions::default(),
            start_time: 0.0,
            minutes: 0,
            faults: None,
            grid_resolution: 101,
            grid_spacing: None,
            kind: OptimizerKind::Cma,
            fra_refinement: true,
        }
    }

    /// Selects the algorithm (default [`OptimizerKind::Cma`]).
    pub fn optimizer(mut self, kind: OptimizerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the simulation parameters (node capabilities, time step,
    /// sensing lattice, thread policy) — the [`CmaBuilder::config`]
    /// counterpart.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the shared evaluation options (the thread policy) — the
    /// counterpart of both [`CmaBuilder::evaluator`] and
    /// [`FraBuilder::evaluator`].
    pub fn evaluator(mut self, opts: EvalOptions) -> Self {
        self.config.parallelism = opts.parallelism;
        self.eval = opts;
        self
    }

    /// Starts the clock at `t` minutes; FRA's reference surface is the
    /// field frozen at this instant.
    pub fn start_time(mut self, t: f64) -> Self {
        self.start_time = t;
        self
    }

    /// Mission length in slots for the optimizers that move (CMA
    /// movement, hybrid polish). Pure FRA ignores it.
    pub fn minutes(mut self, minutes: u64) -> Self {
        self.minutes = minutes;
        self
    }

    /// Installs a deterministic fault schedule for the mission — the
    /// [`CmaBuilder::faults`] counterpart.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Grid resolution of FRA's local-error grid (default 101).
    pub fn grid_resolution(mut self, resolution: usize) -> Self {
        self.grid_resolution = resolution;
        self
    }

    /// Spacing of the CMA grid start (default `0.93 × Rc`, the paper's
    /// evenly-spread deployment).
    pub fn grid_spacing(mut self, spacing: f64) -> Self {
        self.grid_spacing = Some(spacing);
        self
    }

    /// Enables or disables the hybrid's FRA refinement placement
    /// (default on). With refinement off the hybrid starts from the
    /// CMA grid start — bit-identical to pure CMA.
    pub fn fra_refinement(mut self, refine: bool) -> Self {
        self.fra_refinement = refine;
        self
    }

    /// Whether this configuration places via FRA (as opposed to the
    /// CMA grid start).
    fn places_with_fra(&self) -> bool {
        match self.kind {
            OptimizerKind::Cma => false,
            OptimizerKind::Fra => true,
            OptimizerKind::Hybrid => self.fra_refinement,
        }
    }

    /// Computes the initial placement without deploying: FRA positions
    /// (with provenance) for the FRA-placing kinds, the evenly spaced
    /// grid start otherwise.
    ///
    /// # Errors
    ///
    /// FRA budget/geometry errors, or an invalid grid spacing.
    pub fn placement<F: TimeVaryingField + Sync>(
        &self,
        field: &F,
    ) -> Result<(Vec<Point2>, usize, usize), CoreError> {
        if self.places_with_fra() {
            let grid = GridSpec::new(self.region, self.grid_resolution, self.grid_resolution)?;
            let frozen = field.at_time(self.start_time);
            let result = FraBuilder::new(self.k, self.config.cps.comm_radius())
                .grid(grid)
                .evaluator(self.eval)
                .run(&frozen)?;
            Ok((result.positions, result.refined, result.relays))
        } else {
            let spacing = self
                .grid_spacing
                .unwrap_or(0.93 * self.config.cps.comm_radius());
            Ok((
                scenario::grid_start_spaced(self.region, self.k, spacing)?,
                0,
                0,
            ))
        }
    }

    /// The number of polish slots this configuration steps.
    fn polish_slots(&self) -> u64 {
        match self.kind {
            OptimizerKind::Fra => 0,
            OptimizerKind::Cma | OptimizerKind::Hybrid => self.minutes,
        }
    }

    /// Runs the selected optimizer over `field`: placement, deploy,
    /// polish.
    ///
    /// # Errors
    ///
    /// Placement, deployment-validation, and stepping errors.
    pub fn run<F: TimeVaryingField + Sync>(&self, field: F) -> Result<OptimizerRun<F>, CoreError> {
        let (positions, refined, relays) = self.placement(&field)?;
        let mut builder = CmaBuilder::new(self.region, positions)
            .config(self.config)
            .evaluator(self.eval)
            .start_time(self.start_time);
        if let Some(plan) = &self.faults {
            builder = builder.faults(plan.clone());
        }
        let mut sim = builder.run(field)?;
        let steps = self.polish_slots();
        for _ in 0..steps {
            sim.step()?;
        }
        Ok(OptimizerRun {
            sim,
            refined,
            relays,
            steps,
            optimizer: match self.kind {
                OptimizerKind::Cma => "cma",
                OptimizerKind::Fra => "fra",
                OptimizerKind::Hybrid => "hybrid",
            },
        })
    }
}

/// The paper's OSTD algorithm behind the [`Optimizer`] trait: evenly
/// spaced grid start, CMA movement for the mission length.
#[derive(Debug, Clone)]
pub struct CmaOptimizer {
    builder: EngineBuilder,
}

impl CmaOptimizer {
    /// Wraps `builder` with the CMA algorithm pinned.
    pub fn new(builder: EngineBuilder) -> Self {
        CmaOptimizer {
            builder: builder.optimizer(OptimizerKind::Cma),
        }
    }
}

impl<F: TimeVaryingField + Sync> Optimizer<F> for CmaOptimizer {
    fn name(&self) -> &'static str {
        "cma"
    }

    fn run(&self, field: F) -> Result<OptimizerRun<F>, CoreError> {
        self.builder.run(field)
    }
}

/// The paper's OSD algorithm behind the [`Optimizer`] trait: FRA
/// refinement against the frozen reference, then hold position.
#[derive(Debug, Clone)]
pub struct FraOptimizer {
    builder: EngineBuilder,
}

impl FraOptimizer {
    /// Wraps `builder` with the FRA algorithm pinned.
    pub fn new(builder: EngineBuilder) -> Self {
        FraOptimizer {
            builder: builder.optimizer(OptimizerKind::Fra),
        }
    }
}

impl<F: TimeVaryingField + Sync> Optimizer<F> for FraOptimizer {
    fn name(&self) -> &'static str {
        "fra"
    }

    fn run(&self, field: F) -> Result<OptimizerRun<F>, CoreError> {
        self.builder.run(field)
    }
}

/// FRA refinement for placement, CMA polish for the mission.
#[derive(Debug, Clone)]
pub struct HybridOptimizer {
    builder: EngineBuilder,
}

impl HybridOptimizer {
    /// Wraps `builder` with the hybrid algorithm pinned.
    pub fn new(builder: EngineBuilder) -> Self {
        HybridOptimizer {
            builder: builder.optimizer(OptimizerKind::Hybrid),
        }
    }
}

impl<F: TimeVaryingField + Sync> Optimizer<F> for HybridOptimizer {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn run(&self, field: F) -> Result<OptimizerRun<F>, CoreError> {
        self.builder.run(field)
    }
}
