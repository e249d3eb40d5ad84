//! The simulation world and stepping engine.

use cps_core::ostd::CmaConfig;
use cps_core::{CoreError, CpsConfig, EvalOptions};
use cps_field::par::map_rows;
use cps_field::{Parallelism, TimeVaryingField};
use cps_geometry::{within, Point2, Rect};

use crate::checkpoint::{corrupt, SimSnapshot};
use crate::fault::{FaultEvent, FaultPlan, FaultState};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Node capabilities (`Rc`, `Rs`, `v`, `β`).
    pub cps: CpsConfig,
    /// Minutes per time slot (the paper steps once per minute).
    pub time_step: f64,
    /// Spacing of the sensing sample lattice within `Rs`; the paper's
    /// `m = ⌊πRs²⌋` corresponds to a 1 m lattice.
    pub sense_spacing: f64,
    /// Thread policy for the per-node sense/curvature phase. Step
    /// results are bit-identical at any thread count — this only
    /// changes wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cps: CpsConfig::default(),
            time_step: 1.0,
            sense_spacing: 1.0,
            parallelism: Parallelism::auto(),
        }
    }
}

/// State of one mobile node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobileNode {
    /// Stable node index.
    pub id: usize,
    /// Current position.
    pub position: Point2,
    /// Most recent self-estimated Gaussian curvature (shared with
    /// neighbors in the periodic exchange).
    pub curvature: f64,
    /// Cumulative distance traveled.
    pub traveled: f64,
    /// Whether the node is still operational. Failed nodes stop
    /// sensing, moving and relaying (see [`Simulation::fail_node`]).
    pub alive: bool,
}

/// What one simulation step did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Simulation time *after* the step, minutes.
    pub time: f64,
    /// Nodes that moved this slot (CMA or LCM).
    pub moved: usize,
    /// Nodes relocated by the local connectivity mechanism.
    pub lcm_followers: usize,
    /// Largest displacement this slot.
    pub max_displacement: f64,
    /// Single-hop messages exchanged this slot: every alive edge
    /// carries the `(x, y, G)` report in both directions (Table 2 lines
    /// 4–5), and every mover broadcasts one `tell(nd, N)` (line 17).
    /// With a lossy fault plan installed this counts *attempts*,
    /// including retries of lost deliveries.
    pub messages: usize,
    /// Nodes that died at the start of this slot (0 without a fault
    /// plan).
    pub deaths: usize,
    /// Message delivery attempts that were retried this slot (0 without
    /// link loss).
    pub retried: usize,
    /// Directed links whose every delivery attempt failed this slot (0
    /// without link loss).
    pub dropped: usize,
    /// Connected components of the surviving network at slot start.
    pub components: usize,
}

/// A running OSTD simulation over a time-varying field.
#[derive(Debug, Clone)]
pub struct Simulation<F> {
    pub(crate) field: F,
    pub(crate) region: Rect,
    pub(crate) config: SimConfig,
    pub(crate) cma: CmaConfig,
    pub(crate) nodes: Vec<MobileNode>,
    pub(crate) time: f64,
    /// Slots stepped since construction (the checkpointable clock: the
    /// fault schedule and every per-slot RNG stream are indexed by it).
    pub(crate) slot: u64,
    /// Decaying running maximum of observed node curvatures — the
    /// gossiped normalization reference fed to every CMA step.
    pub(crate) curvature_scale: f64,
    /// Fault-injection state; `None` runs the pristine fast path.
    pub(crate) fault: Option<FaultState>,
    /// The δ-evaluation options declared at build time
    /// ([`CmaBuilder::evaluator`]) for consumers measuring this run
    /// (e.g. `DeltaTimeline`).
    pub(crate) eval: EvalOptions,
}

impl<F: TimeVaryingField + Sync> Simulation<F> {
    /// The shared constructor behind [`CmaBuilder::run`].
    fn construct(
        field: F,
        region: Rect,
        config: SimConfig,
        initial_positions: Vec<Point2>,
        start_time: f64,
        faults: Option<FaultPlan>,
        eval: EvalOptions,
    ) -> Result<Self, CoreError> {
        if initial_positions.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "initial_positions",
                requirement: "must contain at least one node",
            });
        }
        if initial_positions.iter().any(|p| !region.contains(*p)) {
            return Err(CoreError::InvalidParameter {
                name: "initial_positions",
                requirement: "must lie inside the region",
            });
        }
        if !config.time_step.is_finite() || config.time_step <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "time_step",
                requirement: "must be positive and finite",
            });
        }
        if !config.sense_spacing.is_finite()
            || config.sense_spacing <= 0.0
            || config.sense_spacing > config.cps.sensing_radius()
        {
            return Err(CoreError::InvalidParameter {
                name: "sense_spacing",
                requirement: "must be positive and no larger than the sensing radius",
            });
        }
        let nodes: Vec<MobileNode> = initial_positions
            .into_iter()
            .enumerate()
            .map(|(id, position)| MobileNode {
                id,
                position,
                curvature: 0.0,
                traveled: 0.0,
                alive: true,
            })
            .collect();
        let node_count = nodes.len();
        let mut sim = Simulation {
            field,
            region,
            cma: CmaConfig::from_cps(&config.cps),
            config,
            nodes,
            time: start_time,
            slot: 0,
            curvature_scale: 0.0,
            // The initial sensing pass below is deliberately fault-free:
            // deployment happens before the mission clock starts, so
            // slot 0 of the fault schedule applies to the first step().
            fault: faults.map(|plan| FaultState::new(plan, node_count)),
            eval,
        };
        // Pre-movement sensing pass: every node estimates its initial
        // curvature so the first exchange (and the gossiped
        // normalization scale) start from real data instead of zeros.
        // Per-node fits are independent, so the pass runs on the
        // row-sharded engine; results are identical at any thread count.
        let fits = {
            let sim = &sim;
            map_rows(sim.nodes.len(), sim.config.parallelism, |i| {
                let p = sim.nodes[i].position;
                debug_assert!(sim.nodes[i].alive);
                let (sensed, value) = sim.read_at(p, sim.time);
                Ok::<f64, CoreError>(
                    cps_core::ostd::fit_quadric(p, value, &sensed)?.gaussian_curvature(),
                )
            })
        };
        for (i, g) in fits.into_iter().enumerate() {
            sim.nodes[i].curvature = g?;
        }
        sim.curvature_scale = sim
            .nodes
            .iter()
            .map(|n| n.curvature.abs())
            .fold(0.0, f64::max);
        Ok(sim)
    }

    /// The shared restore path behind [`CmaBuilder::resume_from`]:
    /// rebuilds a simulation from a checkpoint *without* the initial
    /// sensing pass — the snapshot already carries the sensed
    /// curvatures and the gossiped normalization scale, so re-sensing
    /// would diverge from the uninterrupted run.
    fn restore(
        field: F,
        snapshot: SimSnapshot,
        parallelism: Parallelism,
        eval: EvalOptions,
    ) -> Result<Self, CoreError> {
        let cps = CpsConfig::builder()
            .comm_radius(snapshot.comm_radius)
            .sensing_radius(snapshot.sensing_radius)
            .max_speed(snapshot.max_speed)
            .beta(snapshot.beta)
            .build()?;
        let config = SimConfig {
            cps,
            time_step: snapshot.time_step,
            sense_spacing: snapshot.sense_spacing,
            parallelism,
        };
        if !config.time_step.is_finite() || config.time_step <= 0.0 {
            return Err(corrupt("time_step must be positive and finite".to_string()));
        }
        if !config.sense_spacing.is_finite()
            || config.sense_spacing <= 0.0
            || config.sense_spacing > cps.sensing_radius()
        {
            return Err(corrupt(
                "sense_spacing must be positive and within the sensing radius".to_string(),
            ));
        }
        if snapshot.nodes.is_empty() {
            return Err(corrupt("snapshot carries no nodes".to_string()));
        }
        // A snapshot taken under a different stage order cannot resume
        // bit-identically under the standard pipeline.
        if snapshot.pipeline != crate::stage::STANDARD_STAGES {
            return Err(corrupt(format!(
                "snapshot pipeline {:?} is not the standard stage sequence {:?}",
                snapshot.pipeline,
                crate::stage::STANDARD_STAGES
            )));
        }
        // The engine indexes `nodes` by stable id.
        if snapshot.nodes.iter().enumerate().any(|(i, n)| n.id != i) {
            return Err(corrupt("node ids must be dense and in order".to_string()));
        }
        if snapshot
            .nodes
            .iter()
            .any(|n| n.alive && !snapshot.region.contains(n.position))
        {
            return Err(corrupt("an alive node lies outside the region".to_string()));
        }
        if let Some(f) = &snapshot.fault {
            if f.stuck.len() != snapshot.nodes.len() {
                return Err(corrupt(format!(
                    "stuck-sensor table covers {} nodes, fleet has {}",
                    f.stuck.len(),
                    snapshot.nodes.len()
                )));
            }
            let expect_energy = if f.plan.battery.is_some() {
                snapshot.nodes.len()
            } else {
                0
            };
            if f.energy.len() != expect_energy {
                return Err(corrupt(format!(
                    "energy table covers {} nodes, expected {expect_energy}",
                    f.energy.len()
                )));
            }
        }
        Ok(Simulation {
            field,
            region: snapshot.region,
            cma: snapshot.cma,
            config,
            nodes: snapshot.nodes,
            time: snapshot.time,
            slot: snapshot.slot,
            curvature_scale: snapshot.curvature_scale,
            fault: snapshot.fault,
            eval,
        })
    }
}

impl<F: TimeVaryingField> Simulation<F> {
    /// Current simulation time, minutes.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Slots stepped since construction. A checkpoint taken *now*
    /// resumes with this slot as the next one to run.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Captures the complete engine state as a [`SimSnapshot`]:
    /// restoring it (with the same field) and stepping on is
    /// bit-identical to never having stopped, at any thread count. The
    /// field itself is not captured — attach how to rebuild it via
    /// [`SimSnapshot::label`] — and neither are app-level recorders; see
    /// [`SimSnapshot::attach_timeline`] and
    /// [`SimSnapshot::attach_survivability`].
    pub fn checkpoint(&self) -> SimSnapshot {
        SimSnapshot {
            label: String::new(),
            slot: self.slot,
            time: self.time,
            time_step: self.config.time_step,
            sense_spacing: self.config.sense_spacing,
            comm_radius: self.config.cps.comm_radius(),
            sensing_radius: self.config.cps.sensing_radius(),
            max_speed: self.config.cps.max_speed(),
            beta: self.config.cps.beta(),
            cma: self.cma,
            region: self.region,
            curvature_scale: self.curvature_scale,
            pipeline: crate::checkpoint::standard_pipeline(),
            nodes: self.nodes.clone(),
            fault: self.fault.clone(),
            timeline: None,
            survivability: None,
        }
    }

    /// The region of interest.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The simulation parameters.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The δ-evaluation options declared on the builder
    /// ([`CmaBuilder::evaluator`]).
    pub fn eval_options(&self) -> EvalOptions {
        self.eval
    }

    /// Node states.
    pub fn nodes(&self) -> &[MobileNode] {
        &self.nodes
    }

    /// Positions of the *alive* nodes (the operating network).
    pub fn positions(&self) -> Vec<Point2> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.position)
            .collect()
    }

    /// Number of operational nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Fails node `id`: it stops sensing, moving, and relaying from the
    /// next step on (failure injection for robustness experiments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown id or a
    /// node that already failed.
    pub fn fail_node(&mut self, id: usize) -> Result<(), CoreError> {
        match self.nodes.get_mut(id) {
            Some(node) if node.alive => {
                node.alive = false;
                Ok(())
            }
            Some(_) => Err(CoreError::InvalidParameter {
                name: "id",
                requirement: "node already failed",
            }),
            None => Err(CoreError::InvalidParameter {
                name: "id",
                requirement: "must identify an existing node",
            }),
        }
    }

    /// The time-varying field being explored.
    pub fn field(&self) -> &F {
        &self.field
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|rt| &rt.plan)
    }

    /// Everything the fault subsystem recorded so far: deaths,
    /// partitions, reconnections. Empty without a fault plan.
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.fault
            .as_ref()
            .map(|rt| rt.events.as_slice())
            .unwrap_or(&[])
    }

    /// Installs (or replaces) a fault plan mid-run; its slot 0 is the
    /// next step. Prefer [`CmaBuilder::faults`] for whole-run plans.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan, self.nodes.len()));
    }

    /// Whether the surviving network was split into multiple components
    /// at the last fault-plan topology observation.
    pub fn is_partitioned(&self) -> bool {
        self.fault.as_ref().is_some_and(|rt| rt.partitioned())
    }

    /// Overrides the CMA curvature gain (see
    /// [`CmaConfig::curvature_gain`]) for subsequent steps.
    pub fn set_curvature_gain(&mut self, gain: f64) {
        self.cma.curvature_gain = gain;
    }

    /// Overrides the CMA peak-attraction gain (see
    /// [`CmaConfig::peak_gain`]) for subsequent steps.
    pub fn set_peak_gain(&mut self, gain: f64) {
        self.cma.peak_gain = gain;
    }

    /// Overrides the CMA stop threshold for subsequent steps.
    pub fn set_stop_threshold(&mut self, threshold: f64) {
        self.cma.stop_threshold = threshold;
    }

    /// Overrides the CMA curvature-weight significance floor (see
    /// [`CmaConfig::weight_floor`]) for subsequent steps.
    pub fn set_weight_floor(&mut self, floor: f64) {
        self.cma.weight_floor = floor;
    }

    /// Overrides the CMA weight exponent (see
    /// [`CmaConfig::weight_exponent`]) for subsequent steps.
    pub fn set_weight_exponent(&mut self, exponent: f64) {
        self.cma.weight_exponent = exponent;
    }

    /// The CMA parameters in effect.
    pub fn cma_config(&self) -> &CmaConfig {
        &self.cma
    }

    /// Everything a node at `center` senses within `Rs` at `time` —
    /// `(position, value)` on the configured lattice — together with
    /// its own reading at `center`. (A stuck sensor passes the instant
    /// it froze.)
    ///
    /// The own reading is the disc's centre sample: the lattice point
    /// at offset zero is `center` bit for bit, so its value is
    /// `value_at(center, time)` without a second evaluation. Only a
    /// `-0.0` coordinate, which `x + 0.0` turns into `+0.0`, makes the
    /// field answer for `center` directly.
    pub(crate) fn read_at(&self, center: Point2, time: f64) -> (Vec<(Point2, f64)>, f64) {
        let sensed = self.sense_at(center, time);
        let at_center =
            |q: Point2| q.x.to_bits() == center.x.to_bits() && q.y.to_bits() == center.y.to_bits();
        let own = match sensed.iter().find(|(q, _)| at_center(*q)) {
            Some(&(_, z)) => z,
            None => self.field.value_at(center, time),
        };
        (sensed, own)
    }

    /// The sensing disc of [`Simulation::read_at`]: the
    /// `(2·steps + 1)²` lattice at `sense_spacing`, sampled in one
    /// [`TimeVaryingField::sample_lattice_at`] batch, keeping the
    /// points within `Rs` and listing them `x`-offset-major.
    ///
    /// Sensing deliberately reaches *outside* the region of interest: a
    /// physical sensor near the border still measures its full
    /// surroundings. Clipping the disc at the border would hand border
    /// nodes one-sided sample sets whose quadric fits alias the local
    /// gradient into phantom curvature, sending them chasing artefacts.
    fn sense_at(&self, center: Point2, time: f64) -> Vec<(Point2, f64)> {
        let rs = self.config.cps.sensing_radius();
        let s = self.config.sense_spacing;
        let steps = (rs / s).floor() as i32;
        let xs: Vec<f64> = (-steps..=steps).map(|d| center.x + d as f64 * s).collect();
        let ys: Vec<f64> = (-steps..=steps).map(|d| center.y + d as f64 * s).collect();
        let n = xs.len();
        let mut keep = vec![false; n * n];
        for (j, &y) in ys.iter().enumerate() {
            for (i, &x) in xs.iter().enumerate() {
                keep[j * n + i] = within(center, Point2::new(x, y), rs);
            }
        }
        let values = self.field.sample_lattice_at(&xs, &ys, time, Some(&keep));
        let mut out = Vec::with_capacity(n * n);
        for (i, &x) in xs.iter().enumerate() {
            for (j, &y) in ys.iter().enumerate() {
                if keep[j * n + i] {
                    out.push((Point2::new(x, y), values[j * n + i]));
                }
            }
        }
        out
    }
}

impl<F: TimeVaryingField + Sync> Simulation<F> {
    /// Advances the simulation by one time slot: fault deaths, world
    /// snapshot, exchange-level fault draws, recovery overrides, the
    /// CMA/LCM movement plan, then end-of-slot records (see
    /// [`crate::stage`] for the stages and the determinism argument).
    /// This is [`step_observed`](Simulation::step_observed) with no
    /// observers.
    ///
    /// # Errors
    ///
    /// Propagates stage failures (e.g. CMA fit errors on insufficient
    /// sensing samples — cannot happen with a valid configuration).
    pub fn step(&mut self) -> Result<StepReport, CoreError> {
        self.step_observed(&mut [])
    }

    /// Steps until the clock reaches `t_end` (minutes), returning the
    /// last report (or `None` when no step was taken).
    ///
    /// The step count is computed up front from the remaining span with
    /// a *relative* tolerance, rather than re-testing the accumulating
    /// clock against an absolute epsilon each slot: at large absolute
    /// times (long missions, epoch-based clocks) the float error of
    /// repeated `time += Δt` exceeds any fixed epsilon and the old test
    /// would skip the boundary step.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::step`] errors.
    pub fn run_until(&mut self, t_end: f64) -> Result<Option<StepReport>, CoreError> {
        let span = t_end - self.time;
        let ratio = span / self.config.time_step;
        if !ratio.is_finite() {
            return Ok(None);
        }
        let steps = (ratio * (1.0 + 1e-12) + 1e-9).floor() as u64;
        let mut last = None;
        for _ in 0..steps {
            last = Some(self.step()?);
        }
        Ok(last)
    }
}

/// Builder for an OSTD simulation running the coordinated movement
/// algorithm — the counterpart of `FraBuilder` on the OSD side.
///
/// # Example
///
/// ```
/// use cps_field::{PeaksField, Static};
/// use cps_geometry::Rect;
/// use cps_sim::{scenario, CmaBuilder, SimConfig};
///
/// let region = Rect::square(100.0).unwrap();
/// let field = Static::new(PeaksField::new(region, 8.0));
/// let start = scenario::grid_start(region, 16);
/// let mut sim = CmaBuilder::new(region, start)
///     .config(SimConfig::default())
///     .run(field)
///     .unwrap();
/// sim.step().unwrap();
/// assert_eq!(sim.positions().len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct CmaBuilder {
    region: Rect,
    initial_positions: Vec<Point2>,
    config: SimConfig,
    start_time: f64,
    faults: Option<FaultPlan>,
    eval: EvalOptions,
    /// A checkpoint to resume instead of constructing fresh (boxed:
    /// snapshots dwarf the rest of the builder).
    resume: Option<Box<SimSnapshot>>,
}

impl CmaBuilder {
    /// Creates a builder for nodes starting at `initial_positions`
    /// inside `region`, with default [`SimConfig`] and the clock at 0.
    pub fn new(region: Rect, initial_positions: Vec<Point2>) -> Self {
        CmaBuilder {
            region,
            initial_positions,
            config: SimConfig::default(),
            start_time: 0.0,
            faults: None,
            eval: EvalOptions::default(),
            resume: None,
        }
    }

    /// Creates a builder that resumes `snapshot` instead of deploying
    /// fresh: [`run`](CmaBuilder::run) rebuilds the engine exactly as
    /// checkpointed (clock, slot cursor, fleet, CMA overrides, fault
    /// state) and skips the initial sensing pass. Stepping on is
    /// bit-identical to the uninterrupted run when given the same
    /// field.
    ///
    /// The thread policy defaults to [`Parallelism::auto`] and may be
    /// overridden with [`parallelism`](CmaBuilder::parallelism) or
    /// [`evaluator`](CmaBuilder::evaluator) — results do not depend on
    /// it. Deployment-time settings ([`config`](CmaBuilder::config),
    /// [`start_time`](CmaBuilder::start_time),
    /// [`faults`](CmaBuilder::faults)) are ignored on resume: the
    /// snapshot is authoritative.
    pub fn resume_from(snapshot: SimSnapshot) -> Self {
        let mut builder = CmaBuilder::new(snapshot.region, Vec::new());
        builder.resume = Some(Box::new(snapshot));
        builder
    }

    /// Sets the evaluation options shared with
    /// [`cps_core::DeltaEvaluator`] and the FRA builder: the thread
    /// policy (also applied to the per-node sensing phase). Consumers
    /// read it back via [`Simulation::eval_options`] — `DeltaTimeline`
    /// does so when built with `DeltaTimeline::for_simulation`.
    pub fn evaluator(mut self, opts: EvalOptions) -> Self {
        self.config.parallelism = opts.parallelism;
        self.eval = opts;
        self
    }

    /// Sets the simulation parameters (node capabilities, time step,
    /// sensing lattice, thread policy).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Starts the clock at `t` minutes (e.g. 600 for the paper's 10:00
    /// diurnal experiments).
    pub fn start_time(mut self, t: f64) -> Self {
        self.start_time = t;
        self
    }

    /// Sets the thread policy without replacing the rest of the config.
    /// Step results are bit-identical at any thread count. Shorthand
    /// for [`evaluator`](CmaBuilder::evaluator) with only the
    /// parallelism changed.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.config.parallelism = par;
        self.eval.parallelism = par;
        self
    }

    /// Installs a deterministic fault schedule (see
    /// [`FaultPlan`](crate::FaultPlan)); slot 0 of the schedule is the
    /// first [`Simulation::step`]. An all-zero plan leaves every result
    /// bit-identical to running without one.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the simulation over `field`, running the initial sensing
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when a position lies
    /// outside the region, positions are empty, the time step is not
    /// positive, or the sensing lattice is invalid. On a
    /// [`resume_from`](CmaBuilder::resume_from) builder, returns
    /// [`CoreError::SnapshotCorrupt`] when the snapshot is internally
    /// inconsistent (e.g. fault tables not matching the fleet size).
    pub fn run<F: TimeVaryingField + Sync>(self, field: F) -> Result<Simulation<F>, CoreError> {
        if let Some(snapshot) = self.resume {
            return Simulation::restore(field, *snapshot, self.config.parallelism, self.eval);
        }
        Simulation::construct(
            field,
            self.region,
            self.config,
            self.initial_positions,
            self.start_time,
            self.faults,
            self.eval,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{DriftingField, GaussianBlob, PeaksField, PlaneField, Static};
    use cps_network::UnitDiskGraph;

    fn region() -> Rect {
        Rect::square(100.0).unwrap()
    }

    fn grid16() -> Vec<Point2> {
        crate::scenario::grid_start(region(), 16)
    }

    #[test]
    fn construction_validates() {
        let f = Static::new(PlaneField::default());
        assert!(CmaBuilder::new(region(), vec![]).run(f).is_err());
        let f = Static::new(PlaneField::default());
        let outside = vec![Point2::new(200.0, 0.0)];
        assert!(CmaBuilder::new(region(), outside).run(f).is_err());
        let f = Static::new(PlaneField::default());
        let bad_dt = SimConfig {
            time_step: 0.0,
            ..SimConfig::default()
        };
        assert!(CmaBuilder::new(region(), grid16())
            .config(bad_dt)
            .run(f)
            .is_err());
        let f = Static::new(PlaneField::default());
        let bad_spacing = SimConfig {
            sense_spacing: 100.0,
            ..SimConfig::default()
        };
        assert!(CmaBuilder::new(region(), grid16())
            .config(bad_spacing)
            .run(f)
            .is_err());
    }

    /// The reference sensing disc, sampled point by point: offsets
    /// `d·spacing` from the centre, kept by `hypot` distance,
    /// `x`-offset-major.
    fn sense_pointwise<F: TimeVaryingField>(
        sim: &Simulation<F>,
        center: Point2,
        time: f64,
    ) -> Vec<(Point2, f64)> {
        let rs = sim.config.cps.sensing_radius();
        let s = sim.config.sense_spacing;
        let steps = (rs / s).floor() as i32;
        let mut out = Vec::new();
        for dx in -steps..=steps {
            for dy in -steps..=steps {
                let p = Point2::new(center.x + dx as f64 * s, center.y + dy as f64 * s);
                if center.distance(p) <= rs {
                    out.push((p, sim.field.value_at(p, time)));
                }
            }
        }
        out
    }

    fn bits(samples: &[(Point2, f64)]) -> Vec<[u64; 3]> {
        samples
            .iter()
            .map(|(p, z)| [p.x.to_bits(), p.y.to_bits(), z.to_bits()])
            .collect()
    }

    #[test]
    fn lattice_sensing_matches_pointwise_sensing_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e45e);
        let field = DriftingField::new(
            PeaksField::new(region(), 8.0),
            cps_linalg::Vec2::new(0.3, -0.2),
        );
        let mut kept = std::collections::BTreeSet::new();
        for (rs, spacing) in [(5.0, 1.0), (5.0, 0.7), (4.0, 0.35), (6.5, 2.5), (3.0, 1.5)] {
            let cps = CpsConfig::builder().sensing_radius(rs).build().unwrap();
            let config = SimConfig {
                cps,
                sense_spacing: spacing,
                ..SimConfig::default()
            };
            let sim = CmaBuilder::new(region(), grid16())
                .config(config)
                .run(field)
                .unwrap();
            for case in 0..300 {
                let mut center = Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                if case % 50 == 0 {
                    // Whole-number centres put rim offsets such as
                    // (3, 4) at exactly Rs.
                    center = Point2::new(center.x.round(), center.y.round());
                }
                if case == 7 {
                    center = Point2::new(-0.0, 50.0);
                }
                let time = rng.gen_range(0.0..200.0);
                let want = sense_pointwise(&sim, center, time);
                let (sensed, own) = sim.read_at(center, time);
                assert_eq!(
                    bits(&sensed),
                    bits(&want),
                    "rs {rs}, spacing {spacing}, centre {center}"
                );
                assert_eq!(own.to_bits(), sim.field.value_at(center, time).to_bits());
                if (rs, spacing) == (5.0, 1.0) {
                    kept.insert(sensed.len());
                }
            }
        }
        // The float disc test keeps between 69 and 81 of the lattice
        // points, depending on where the 12 rim points at exactly Rs
        // round to.
        assert!(kept.iter().all(|k| (69..=81).contains(k)), "{kept:?}");
        assert!(kept.len() > 1, "{kept:?}");
    }

    #[test]
    fn builder_carries_eval_options() {
        let f = Static::new(GaussianBlob::isotropic(Point2::new(50.0, 50.0), 50.0, 8.0));
        let opts = EvalOptions::new().parallelism(Parallelism::fixed(2));
        let sim = CmaBuilder::new(region(), grid16())
            .evaluator(opts)
            .run(f)
            .unwrap();
        assert_eq!(sim.eval_options(), opts);
        assert_eq!(sim.config().parallelism, Parallelism::fixed(2));
    }

    #[test]
    fn step_is_bit_identical_across_thread_counts() {
        let f = Static::new(PeaksField::new(region(), 8.0));
        let start = crate::scenario::grid_start(region(), 36);
        let run = |par: Parallelism| {
            let mut sim = CmaBuilder::new(region(), start.clone())
                .parallelism(par)
                .run(f)
                .unwrap();
            for _ in 0..5 {
                sim.step().unwrap();
            }
            sim.nodes().to_vec()
        };
        let serial = run(Parallelism::serial());
        for par in [
            Parallelism::fixed(2),
            Parallelism::fixed(5),
            Parallelism::auto(),
        ] {
            let nodes = run(par);
            assert_eq!(serial.len(), nodes.len());
            for (a, b) in serial.iter().zip(&nodes) {
                assert_eq!(a.position.x.to_bits(), b.position.x.to_bits(), "{par:?}");
                assert_eq!(a.position.y.to_bits(), b.position.y.to_bits(), "{par:?}");
                assert_eq!(a.curvature.to_bits(), b.curvature.to_bits(), "{par:?}");
                assert_eq!(a.traveled.to_bits(), b.traveled.to_bits(), "{par:?}");
            }
        }
    }

    #[test]
    fn flat_world_stays_put() {
        let f = Static::new(PlaneField::new(0.0, 0.0, 3.0));
        // Spacing 25 > Rc 10: no neighbors, no repulsion, no curvature.
        let mut sim = CmaBuilder::new(region(), grid16()).run(f).unwrap();
        let before = sim.positions();
        let report = sim.step().unwrap();
        assert_eq!(report.moved, 0);
        assert_eq!(report.max_displacement, 0.0);
        assert_eq!(sim.positions(), before);
        assert_eq!(sim.time(), 1.0);
    }

    #[test]
    fn speed_limit_is_respected() {
        // Strong curvature gradient: nodes want to move Rs = 5 m but may
        // cover at most v·Δt = 1 m per slot.
        let f = Static::new(GaussianBlob::isotropic(Point2::new(50.0, 50.0), 50.0, 8.0));
        let start = vec![Point2::new(40.0, 50.0), Point2::new(60.0, 50.0)];
        let mut sim = CmaBuilder::new(region(), start).run(f).unwrap();
        let report = sim.step().unwrap();
        assert!(report.max_displacement <= 1.0 + 1e-9);
        assert!(report.moved >= 1);
    }

    #[test]
    fn travel_accumulates_and_time_advances() {
        let f = Static::new(GaussianBlob::isotropic(Point2::new(50.0, 50.0), 50.0, 8.0));
        let start = vec![Point2::new(42.0, 50.0), Point2::new(58.0, 50.0)];
        let mut sim = CmaBuilder::new(region(), start)
            .start_time(600.0)
            .run(f)
            .unwrap();
        sim.run_until(605.0).unwrap();
        assert_eq!(sim.time(), 605.0);
        assert!(sim.nodes().iter().any(|n| n.traveled > 0.0));
        assert!(sim.nodes().iter().all(|n| n.traveled <= 5.0 + 1e-9));
    }

    #[test]
    fn run_until_takes_the_boundary_step_at_large_times() {
        // Regression: the old loop tested the accumulating clock
        // against an absolute 1e-9 epsilon; at clock magnitudes where
        // one ulp exceeds that epsilon, drift from repeated
        // `time += 0.1` skipped the final step. One year in minutes
        // with dt = 0.1 (not representable in binary) reproduces it.
        let f = Static::new(PlaneField::new(0.0, 0.0, 3.0));
        let t0 = 525_600.0 * 1024.0;
        let dt = SimConfig {
            time_step: 0.1,
            ..SimConfig::default()
        };
        let mut sim = CmaBuilder::new(region(), vec![Point2::new(50.0, 50.0)])
            .config(dt)
            .start_time(t0)
            .run(f)
            .unwrap();
        sim.run_until(t0 + 5.0).unwrap();
        assert_eq!(sim.slot(), 50, "all 50 slots must run, drift or not");
        // And the small-time semantics are unchanged.
        let f = Static::new(PlaneField::new(0.0, 0.0, 3.0));
        let mut sim = CmaBuilder::new(region(), vec![Point2::new(50.0, 50.0)])
            .start_time(600.0)
            .run(f)
            .unwrap();
        sim.run_until(605.0).unwrap();
        assert_eq!((sim.slot(), sim.time()), (5, 605.0));
        assert!(sim.run_until(605.0).unwrap().is_none(), "already there");
        assert!(sim.run_until(0.0).unwrap().is_none(), "past target");
        assert!(sim.run_until(f64::NAN).unwrap().is_none());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_mid_fault_plan() {
        let f = Static::new(PeaksField::new(region(), 8.0));
        let start = crate::scenario::grid_start(region(), 36);
        let plan =
            FaultPlan::parse("seed=11,kill=5@9,death=0.004,loss=0.15:2,stuck=0.02:4").unwrap();
        let mut reference = CmaBuilder::new(region(), start.clone())
            .start_time(600.0)
            .faults(plan.clone())
            .run(f)
            .unwrap();
        let f = Static::new(PeaksField::new(region(), 8.0));
        let mut interrupted = CmaBuilder::new(region(), start)
            .start_time(600.0)
            .faults(plan)
            .run(f)
            .unwrap();
        // Checkpoint mid-run — inside the fault schedule, before the
        // slot-9 scheduled kill — then "crash" and resume via bytes.
        for _ in 0..7 {
            reference.step().unwrap();
            interrupted.step().unwrap();
        }
        let bytes = interrupted.checkpoint().to_bytes().unwrap();
        drop(interrupted);
        let snapshot = SimSnapshot::from_bytes(&bytes).unwrap();
        let f = Static::new(PeaksField::new(region(), 8.0));
        let mut resumed = CmaBuilder::resume_from(snapshot)
            .parallelism(Parallelism::fixed(2))
            .run(f)
            .unwrap();
        assert_eq!(resumed.slot(), 7);
        for _ in 0..8 {
            let a = reference.step().unwrap();
            let b = resumed.step().unwrap();
            assert_eq!(a, b, "step reports must match");
        }
        assert_eq!(reference.nodes(), resumed.nodes());
        assert_eq!(reference.fault_events(), resumed.fault_events());
        for (a, b) in reference.nodes().iter().zip(resumed.nodes()) {
            assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
            assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
            assert_eq!(a.curvature.to_bits(), b.curvature.to_bits());
        }
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let f = Static::new(PlaneField::default());
        let sim = CmaBuilder::new(region(), grid16()).run(f).unwrap();
        let snap = sim.checkpoint();

        let mut no_nodes = snap.clone();
        no_nodes.nodes.clear();
        let f = Static::new(PlaneField::default());
        assert!(matches!(
            CmaBuilder::resume_from(no_nodes).run(f),
            Err(CoreError::SnapshotCorrupt { .. })
        ));

        let mut shuffled = snap.clone();
        shuffled.nodes[0].id = 7;
        let f = Static::new(PlaneField::default());
        assert!(CmaBuilder::resume_from(shuffled).run(f).is_err());

        let mut bad_cfg = snap;
        bad_cfg.comm_radius = -1.0;
        let f = Static::new(PlaneField::default());
        assert!(CmaBuilder::resume_from(bad_cfg).run(f).is_err());
    }

    #[test]
    fn message_accounting_matches_topology() {
        // 3 isolated nodes: zero edges, so messages = movers only.
        let f = Static::new(PlaneField::new(0.0, 0.0, 1.0));
        let iso = vec![
            Point2::new(10.0, 10.0),
            Point2::new(50.0, 50.0),
            Point2::new(90.0, 90.0),
        ];
        let mut sim = CmaBuilder::new(region(), iso).run(f).unwrap();
        let report = sim.step().unwrap();
        assert_eq!(report.messages, 0, "flat + isolated = silent network");

        // A connected pair on a flat field: one edge, both directions.
        let f = Static::new(PlaneField::new(0.0, 0.0, 1.0));
        let pair = vec![Point2::new(50.0, 50.0), Point2::new(58.0, 50.0)];
        let mut sim = CmaBuilder::new(region(), pair).run(f).unwrap();
        let report = sim.step().unwrap();
        // The pair exchanges reports; repulsion (spacing 8 < 9.5) makes
        // both move, adding two tell() broadcasts.
        assert_eq!(report.messages, 2 + report.moved);
    }

    #[test]
    fn failed_nodes_leave_the_protocol() {
        let f = Static::new(GaussianBlob::isotropic(Point2::new(50.0, 50.0), 50.0, 8.0));
        let start = vec![
            Point2::new(45.0, 50.0),
            Point2::new(52.0, 50.0),
            Point2::new(59.0, 50.0),
        ];
        let mut sim = CmaBuilder::new(region(), start).run(f).unwrap();
        let busy = sim.step().unwrap();
        sim.fail_node(1).unwrap();
        let after = sim.step().unwrap();
        // With the middle node dead the remaining pair is out of range:
        // no edges, strictly fewer messages.
        assert!(after.messages < busy.messages);
        assert_eq!(sim.alive_count(), 2);
    }

    #[test]
    fn nodes_never_leave_the_region() {
        // Blob just outside pulls nodes toward the border.
        let f = Static::new(GaussianBlob::isotropic(Point2::new(99.0, 99.0), 50.0, 5.0));
        let start = vec![Point2::new(97.0, 97.0), Point2::new(94.0, 97.0)];
        let mut sim = CmaBuilder::new(region(), start).run(f).unwrap();
        for _ in 0..20 {
            sim.step().unwrap();
        }
        assert!(sim.positions().iter().all(|p| region().contains(*p)));
    }

    #[test]
    fn connected_start_stays_connected_under_cma() {
        // 100 nodes on a 10×10 grid (spacing 10 = Rc): the paper's
        // Fig. 8(a) initial state. After 30 slots of CMA + LCM the
        // network must still be connected.
        let f = Static::new(PeaksField::new(region(), 8.0));
        let start = crate::scenario::grid_start(region(), 100);
        let g0 = UnitDiskGraph::new(start.clone(), 10.0).unwrap();
        assert!(g0.is_connected());
        let mut sim = CmaBuilder::new(region(), start).run(f).unwrap();
        for _ in 0..30 {
            sim.step().unwrap();
        }
        let g = UnitDiskGraph::new(sim.positions(), 10.0).unwrap();
        assert!(
            g.is_connected(),
            "CMA+LCM broke connectivity: {} components",
            g.component_count()
        );
    }
}
