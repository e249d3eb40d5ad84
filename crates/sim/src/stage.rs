//! The typed stage pipeline behind [`Simulation::step`] and the
//! [`StepObserver`] event bus.
//!
//! One time slot of the paper's control loop (sense → exchange →
//! optimize → move) runs as a fixed sequence of [`Stage`]s over a
//! shared [`StepCtx`] scratchpad:
//!
//! 1. [`FaultStage`] — slot-start deaths, drawn **serially** from the
//!    slot's dedicated SplitMix64 stream;
//! 2. [`SenseStage`] — the slot-start world snapshot: alive set,
//!    positions, unit-disk graph, component count, and partition
//!    bookkeeping;
//! 3. [`ExchangeStage`] — message-level fault draws (sensor faults per
//!    survivor, then directed link outages per edge) and message
//!    attempt accounting, still serial;
//! 4. [`RecoveryStage`] — relay re-planning overrides for a
//!    partitioned network;
//! 5. [`OptimizeStage`] — the parallel per-node sense/fit/CMA sweep,
//!    speed clamp, LCM cooperative repair, and position application;
//! 6. [`RecordStage`] — clock/slot advance, gossiped curvature scale,
//!    battery drain, and the [`StepReport`].
//!
//! # Determinism
//!
//! The pipeline preserves the engine's headline invariant: results are
//! bit-identical at any thread count, cache on or off, on either
//! quadrature kernel, with or without a fault plan. The argument is
//! the stage ordering itself — every random draw happens in a serial
//! stage (1–3) in a fixed order before any parallel work, and the only
//! parallel stage (5) fans out pure per-node computations whose
//! results are folded back in node order. Observers ride on the
//! [`StepObserver`] bus *outside* the stages and therefore cannot
//! perturb the arithmetic; the built-in [`ObsAdapter`] only feeds
//! `cps-obs`, whose hooks are verified not to touch float state or
//! iteration order.

use std::collections::HashSet;

use cps_core::ostd::{cma_step, lcm, CmaAction, NeighborInfo};
use cps_core::CoreError;
use cps_field::par::map_rows;
use cps_field::TimeVaryingField;
use cps_geometry::Point2;
use cps_network::{articulation_points, UnitDiskGraph};

use crate::engine::{Simulation, StepReport};
use crate::fault::{recovery_overrides, FaultRng, SensorFault};

/// Iterations of the LCM cooperative-repair fixed point per slot.
const LCM_ROUNDS: usize = 16;

/// Shared per-slot scratchpad the stages read and write.
///
/// A context borrows the [`Simulation`] for the duration of one slot;
/// stages populate the slot-start snapshot (alive set, graph), the
/// fault draws, the movement plan, and finally the [`StepReport`].
/// All per-node arrays are indexed by *alive index*; `alive_ids` maps
/// back to stable node ids.
pub struct StepCtx<'s, F> {
    pub(crate) sim: &'s mut Simulation<F>,
    // Slot-start constants.
    pub(crate) rc: f64,
    pub(crate) max_move: f64,
    pub(crate) obs_threads: usize,
    // FaultStage.
    pub(crate) slot_rng: Option<FaultRng>,
    pub(crate) deaths: usize,
    // SenseStage.
    pub(crate) alive_ids: Vec<usize>,
    pub(crate) positions: Vec<Point2>,
    pub(crate) graph: Option<UnitDiskGraph>,
    pub(crate) components: usize,
    // ExchangeStage.
    pub(crate) sensor_faults: Vec<SensorFault>,
    pub(crate) link_down: HashSet<(usize, usize)>,
    pub(crate) retried: usize,
    pub(crate) dropped: usize,
    pub(crate) messages: usize,
    // RecoveryStage.
    pub(crate) recovery: Vec<Option<Point2>>,
    // OptimizeStage.
    pub(crate) adjusted: Vec<Point2>,
    pub(crate) lcm_followers: usize,
    pub(crate) moved: usize,
    pub(crate) max_displacement: f64,
    // RecordStage.
    pub(crate) report: Option<StepReport>,
}

impl<'s, F: TimeVaryingField> StepCtx<'s, F> {
    /// Opens a slot context over `sim`, capturing the slot-start
    /// constants (comm radius, speed budget, thread count).
    pub fn new(sim: &'s mut Simulation<F>) -> Self {
        let rc = sim.config.cps.comm_radius();
        let max_move = sim.config.cps.max_speed() * sim.config.time_step;
        let obs_threads = sim.config.parallelism.threads();
        StepCtx {
            sim,
            rc,
            max_move,
            obs_threads,
            slot_rng: None,
            deaths: 0,
            alive_ids: Vec::new(),
            positions: Vec::new(),
            graph: None,
            components: 0,
            sensor_faults: Vec::new(),
            link_down: HashSet::new(),
            retried: 0,
            dropped: 0,
            messages: 0,
            recovery: Vec::new(),
            adjusted: Vec::new(),
            lcm_followers: 0,
            moved: 0,
            max_displacement: 0.0,
            report: None,
        }
    }

    /// The simulation this slot is running over.
    pub fn simulation(&self) -> &Simulation<F> {
        self.sim
    }

    /// Slot-start positions of the alive nodes (populated by
    /// [`SenseStage`]).
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Stable node ids of the alive nodes, parallel to
    /// [`positions`](StepCtx::positions).
    pub fn alive_ids(&self) -> &[usize] {
        &self.alive_ids
    }

    /// Connected components of the surviving network at slot start
    /// (populated by [`SenseStage`]).
    pub fn components(&self) -> usize {
        self.components
    }

    /// Consumes the context, yielding the report [`RecordStage`] built.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the pipeline never ran a
    /// `RecordStage` (a custom pipeline must end with one).
    pub fn into_report(self) -> Result<StepReport, CoreError> {
        self.report.ok_or(CoreError::InvalidParameter {
            name: "pipeline",
            requirement: "must end with RecordStage to produce a StepReport",
        })
    }
}

/// One typed phase of the per-slot control loop.
///
/// Stages are stateless by convention — all per-slot state lives in
/// the [`StepCtx`], all cross-slot state in the [`Simulation`] — so a
/// [`StagePipeline`] can be rebuilt or reordered without touching
/// engine state. Implementations must uphold the determinism contract
/// of the module docs: random draws only in serial stages, in a fixed
/// order.
pub trait Stage<F: TimeVaryingField + Sync> {
    /// Stable lowercase stage name, used in [`StepEvent`]s and
    /// checkpoint snapshots.
    fn name(&self) -> &'static str;

    /// Runs the stage over the slot context.
    ///
    /// # Errors
    ///
    /// Stage-specific; the pipeline aborts the slot on the first
    /// failing stage.
    fn apply(&mut self, ctx: &mut StepCtx<'_, F>) -> Result<(), CoreError>;
}

/// Stage 1: slot-start deaths (scheduled kills, culls, random deaths,
/// battery exhaustion), drawn serially from this slot's dedicated
/// stream so results stay bit-identical at any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStage;

impl<F: TimeVaryingField + Sync> Stage<F> for FaultStage {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn apply(&mut self, ctx: &mut StepCtx<'_, F>) -> Result<(), CoreError> {
        ctx.slot_rng = ctx.sim.fault.as_ref().map(|rt| rt.slot_rng());
        if let (Some(rt), Some(rng)) = (ctx.sim.fault.as_mut(), ctx.slot_rng.as_mut()) {
            let mut alive: Vec<bool> = ctx.sim.nodes.iter().map(|n| n.alive).collect();
            let time = ctx.sim.time;
            ctx.deaths = rt.apply_deaths(rng, &mut alive, time);
            if ctx.deaths > 0 {
                for (node, &a) in ctx.sim.nodes.iter_mut().zip(&alive) {
                    node.alive = a;
                }
            }
        }
        Ok(())
    }
}

/// Stage 2: the slot-start world snapshot — alive set, positions,
/// unit-disk graph, component count — plus partition bookkeeping
/// (`Partition`/`Reconnected` events) when a fault plan is installed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenseStage;

impl<F: TimeVaryingField + Sync> Stage<F> for SenseStage {
    fn name(&self) -> &'static str {
        "sense"
    }

    fn apply(&mut self, ctx: &mut StepCtx<'_, F>) -> Result<(), CoreError> {
        ctx.alive_ids = ctx
            .sim
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.id)
            .collect();
        ctx.positions = ctx.sim.positions();
        let graph = UnitDiskGraph::new(ctx.positions.clone(), ctx.rc)?;
        ctx.components = graph.component_count();
        if ctx.sim.fault.is_some() {
            let critical = if ctx.components >= 2 {
                articulation_points(&graph).len()
            } else {
                0
            };
            let (components, time) = (ctx.components, ctx.sim.time);
            if let Some(rt) = ctx.sim.fault.as_mut() {
                rt.observe_topology(components, critical, time);
            }
        }
        ctx.graph = Some(graph);
        Ok(())
    }
}

/// Stage 3: the remaining fault draws for the slot (still serial, in
/// the documented order: sensor faults per survivor, then directed
/// link outages per edge) and the slot's message-attempt accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeStage;

impl<F: TimeVaryingField + Sync> Stage<F> for ExchangeStage {
    fn name(&self) -> &'static str {
        "exchange"
    }

    fn apply(&mut self, ctx: &mut StepCtx<'_, F>) -> Result<(), CoreError> {
        let graph = ctx.graph.as_ref().ok_or(CoreError::InvalidParameter {
            name: "pipeline",
            requirement: "SenseStage must run before ExchangeStage",
        })?;
        let mut attempt_messages = None;
        if ctx.sim.fault.is_some() {
            let time = ctx.sim.time;
            let rt = ctx.sim.fault.as_mut().ok_or(CoreError::InvalidParameter {
                name: "pipeline",
                requirement: "fault runtime vanished mid-slot",
            })?;
            let rng = ctx.slot_rng.as_mut().ok_or(CoreError::InvalidParameter {
                name: "pipeline",
                requirement: "FaultStage must run before ExchangeStage",
            })?;
            ctx.sensor_faults = rt.draw_sensor_faults(rng, &ctx.alive_ids, time);
            let (down, re, dr, attempts) = rt.draw_link_outages(rng, graph);
            ctx.link_down = down;
            ctx.retried = re;
            ctx.dropped = dr;
            attempt_messages = Some(attempts);
        }
        // Every alive edge carries the (x, y, G) report both ways; a
        // lossy plan counts attempts (including retries) instead.
        ctx.messages = attempt_messages.unwrap_or_else(|| 2 * graph.edge_count());
        Ok(())
    }
}

/// Stage 4: graceful degradation — when the surviving network is
/// partitioned and the plan's recovery policy is active, relay
/// re-planning picks bridgehead nodes and marches them toward the
/// opposite shore of the partition gap.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStage;

impl<F: TimeVaryingField + Sync> Stage<F> for RecoveryStage {
    fn name(&self) -> &'static str {
        "recovery"
    }

    fn apply(&mut self, ctx: &mut StepCtx<'_, F>) -> Result<(), CoreError> {
        let graph = ctx.graph.as_ref().ok_or(CoreError::InvalidParameter {
            name: "pipeline",
            requirement: "SenseStage must run before RecoveryStage",
        })?;
        if let Some(rt) = ctx.sim.fault.as_ref() {
            if ctx.components >= 2 && rt.plan.recovery_active() {
                cps_obs::count(cps_obs::Counter::RelayReplans);
                ctx.recovery = recovery_overrides(graph);
            }
        }
        Ok(())
    }
}

/// Stage 5: the movement plan — the parallel per-node
/// sense/fit/CMA-decision sweep, recovery overrides, speed clamp, LCM
/// cooperative repair, and position application.
///
/// Each node's decision depends only on slot-start state, so the sweep
/// fans out across the row-sharded engine; every per-node result is
/// bit-identical at any thread count. The LCM fixed point and the
/// apply pass run serially in node order.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizeStage;

impl<F: TimeVaryingField + Sync> Stage<F> for OptimizeStage {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn apply(&mut self, ctx: &mut StepCtx<'_, F>) -> Result<(), CoreError> {
        let mut cfg = ctx.sim.cma;
        cfg.curvature_scale = ctx.sim.curvature_scale;
        let decisions = {
            let _t = cps_obs::time(cps_obs::Phase::CmaCurvature, ctx.obs_threads);
            let this = &*ctx.sim;
            let positions = &ctx.positions;
            let alive_ids = &ctx.alive_ids;
            let graph = ctx.graph.as_ref().ok_or(CoreError::InvalidParameter {
                name: "pipeline",
                requirement: "SenseStage must run before OptimizeStage",
            })?;
            let cfg = &cfg;
            let sensor_faults = &ctx.sensor_faults;
            let link_down = &ctx.link_down;
            map_rows(alive_ids.len(), this.config.parallelism, move |i| {
                let p = positions[i];
                let fault = sensor_faults.get(i).copied().unwrap_or(SensorFault::None);
                if fault == SensorFault::Dropout {
                    // No reading this slot: keep the previous curvature
                    // estimate, hold position, stay reachable for LCM.
                    return Ok::<_, CoreError>((this.nodes[alive_ids[i]].curvature, None));
                }
                // A stuck sensor keeps reporting the field as of the
                // instant it froze.
                let sense_time = match fault {
                    SensorFault::Stuck { frozen_time } => frozen_time,
                    _ => this.time,
                };
                let (sensed, mut value) = this.read_at(p, sense_time);
                let neighbors: Vec<NeighborInfo> = graph
                    .neighbors(i)
                    .iter()
                    .filter(|&&j| !link_down.contains(&(j, i)))
                    .map(|&j| NeighborInfo {
                        position: positions[j],
                        curvature: this.nodes[alive_ids[j]].curvature,
                    })
                    .collect();
                if let SensorFault::Outlier(delta) = fault {
                    // Corrupt only the node's own point reading: the
                    // lattice is intact, so the quadric fit sees a
                    // phantom spike at the center rather than a uniform
                    // (curvature-invisible) offset.
                    value += delta;
                }
                let out = cma_step(p, value, &sensed, &neighbors, cfg)?;
                let dest = match out.action {
                    CmaAction::MoveTo(dest) => Some(dest),
                    _ => None,
                };
                Ok::<_, CoreError>((out.curvature, dest))
            })
        };
        let n = ctx.alive_ids.len();
        let mut desired: Vec<Option<Point2>> = vec![None; n];
        let mut new_curvature = vec![0.0; n];
        for (i, decision) in decisions.into_iter().enumerate() {
            let (curvature, dest) = decision?;
            new_curvature[i] = curvature;
            // A recovery bridgehead overrides its own CMA decision and
            // marches toward the opposite shore of the partition gap.
            let dest = ctx.recovery.get(i).copied().flatten().or(dest);
            if dest.is_some() {
                ctx.messages += 1; // the mover's tell(nd, N) broadcast
            }
            desired[i] = dest;
        }

        // Speed clamp.
        let mut next: Vec<Point2> = ctx.positions.clone();
        {
            let _t = cps_obs::time(cps_obs::Phase::CmaMove, 1);
            for i in 0..n {
                if let Some(dest) = desired[i] {
                    let step = (dest - ctx.positions[i]).clamp_norm(ctx.max_move);
                    next[i] = ctx.sim.region.clamp(ctx.positions[i] + step);
                }
            }
        }

        // LCM — cooperative connectivity maintenance (Table 2 lines
        // 19–21 plus the paper's "move cooperatively" reading). For
        // every mover and each of its slot-start neighbors, the edge
        // must survive the slot unless a bridge neighbor covers it
        // (Fig. 4's rule). Repairs are two-sided: the stranded
        // neighbor closes toward the mover's destination, and if it
        // cannot keep up within its speed budget the mover backs off
        // its own move — a follower chasing a runaway at equal speed
        // would otherwise never re-connect. Iterated to a fixed point
        // because repairs can invalidate other edges.
        let mut adjusted = next.clone();
        let graph = ctx.graph.as_ref().ok_or(CoreError::InvalidParameter {
            name: "pipeline",
            requirement: "SenseStage must run before OptimizeStage",
        })?;
        let (positions, rc, max_move) = (&ctx.positions, ctx.rc, ctx.max_move);
        let mut lcm_followers = 0usize;
        let _lcm_timer = cps_obs::time(cps_obs::Phase::CmaForce, 1);
        for _ in 0..LCM_ROUNDS {
            let mut changed = false;
            for i in 0..n {
                // Every displaced node broadcasts tell(): CMA movers and
                // nodes displaced by earlier LCM repairs alike — a
                // dragged node endangers its own star too.
                if adjusted[i].distance(positions[i]) <= 1e-12 {
                    continue;
                }
                let nbrs = graph.neighbors(i);
                for &j in nbrs {
                    if ctx.link_down.contains(&(i, j)) {
                        // The mover's tell() never reached this
                        // neighbor: no cooperative repair on this edge
                        // this slot.
                        continue;
                    }
                    if adjusted[j].distance(adjusted[i]) <= rc {
                        continue;
                    }
                    // Bridged through another of i's former neighbors,
                    // at planned positions?
                    let bridged = nbrs.iter().any(|&k| {
                        k != j
                            && adjusted[j].distance(adjusted[k]) <= rc
                            && adjusted[k].distance(adjusted[i]) <= rc
                    });
                    if bridged {
                        continue;
                    }
                    // The neighbor closes toward the mover's planned
                    // position, within its speed budget.
                    let target = lcm::follow_position(adjusted[j], adjusted[i], 0.98 * rc);
                    let step = (target - positions[j]).clamp_norm(max_move);
                    adjusted[j] = ctx.sim.region.clamp(positions[j] + step);
                    lcm_followers += 1;
                    changed = true;
                    if adjusted[j].distance(adjusted[i]) > rc {
                        // Still out of reach: the mover gives up part of
                        // its own progress until the edge holds.
                        let mut t: f64 = 1.0;
                        while t > 0.0 {
                            t -= 0.25;
                            let candidate = positions[i].lerp(adjusted[i], t.max(0.0));
                            if candidate.distance(adjusted[j]) <= 0.98 * rc {
                                adjusted[i] = candidate;
                                break;
                            }
                        }
                        if adjusted[i].distance(adjusted[j]) > rc {
                            adjusted[i] = positions[i];
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        drop(_lcm_timer);
        ctx.lcm_followers = lcm_followers;

        // Apply.
        let _apply_timer = cps_obs::time(cps_obs::Phase::CmaMove, 1);
        for (i, &id) in ctx.alive_ids.iter().enumerate() {
            let node = &mut ctx.sim.nodes[id];
            let d = node.position.distance(adjusted[i]);
            if d > 1e-12 {
                ctx.moved += 1;
            }
            ctx.max_displacement = ctx.max_displacement.max(d);
            node.traveled += d;
            node.position = adjusted[i];
            node.curvature = new_curvature[i];
        }
        ctx.adjusted = adjusted;
        Ok(())
    }
}

/// Stage 6: end-of-slot bookkeeping — clock and slot advance, the
/// decaying gossiped curvature-scale update, battery drain per
/// survivor, the fault stream's slot cursor, and the [`StepReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordStage;

impl<F: TimeVaryingField + Sync> Stage<F> for RecordStage {
    fn name(&self) -> &'static str {
        "record"
    }

    fn apply(&mut self, ctx: &mut StepCtx<'_, F>) -> Result<(), CoreError> {
        ctx.sim.time += ctx.sim.config.time_step;
        ctx.sim.slot += 1;
        // Update the gossiped curvature reference: running maximum with
        // a slow decay so the scale tracks the evolving field.
        let observed = ctx
            .sim
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.curvature.abs())
            .fold(0.0f64, f64::max);
        ctx.sim.curvature_scale = observed.max(0.98 * ctx.sim.curvature_scale);

        // End-of-slot fault accounting: battery drain per survivor and
        // the slot counter for the next stream.
        if let Some(rt) = ctx.sim.fault.as_mut() {
            for (i, &id) in ctx.alive_ids.iter().enumerate() {
                rt.drain_battery(id, ctx.positions[i].distance(ctx.adjusted[i]));
            }
            rt.slot += 1;
        }

        ctx.report = Some(StepReport {
            time: ctx.sim.time,
            moved: ctx.moved,
            lcm_followers: ctx.lcm_followers,
            max_displacement: ctx.max_displacement,
            messages: ctx.messages,
            deaths: ctx.deaths,
            retried: ctx.retried,
            dropped: ctx.dropped,
            components: ctx.components,
        });
        Ok(())
    }
}

/// The standard pipeline's stage names, in execution order — the
/// sequence [`StagePipeline::standard`] runs and the one checkpoint
/// snapshots record and validate on restore.
pub const STANDARD_STAGES: [&str; 6] = [
    "fault", "sense", "exchange", "recovery", "optimize", "record",
];

/// An ordered sequence of [`Stage`]s driving one slot.
pub struct StagePipeline<F> {
    stages: Vec<Box<dyn Stage<F>>>,
}

impl<F: TimeVaryingField + Sync> StagePipeline<F> {
    /// The engine's standard six-stage pipeline, in the fixed order
    /// the determinism argument relies on (see the module docs).
    pub fn standard() -> Self {
        StagePipeline {
            stages: vec![
                Box::new(FaultStage),
                Box::new(SenseStage),
                Box::new(ExchangeStage),
                Box::new(RecoveryStage),
                Box::new(OptimizeStage),
                Box::new(RecordStage),
            ],
        }
    }

    /// A custom stage sequence. The last stage must populate the
    /// [`StepReport`] (end with a [`RecordStage`] unless a custom
    /// stage takes over that duty).
    pub fn custom(stages: Vec<Box<dyn Stage<F>>>) -> Self {
        StagePipeline { stages }
    }

    /// Stage names, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// The standard pipeline's stage names (what
    /// [`standard`](StagePipeline::standard) runs), without building
    /// the pipeline — used by checkpoint snapshots.
    pub fn standard_names() -> &'static [&'static str] {
        &STANDARD_STAGES
    }

    /// Runs every stage in order over `ctx`, emitting
    /// [`StepEvent::StageStart`]/[`StepEvent::StageEnd`] around each
    /// on the bus.
    ///
    /// # Errors
    ///
    /// The first failing stage (or observer) aborts the slot.
    pub fn run(
        &mut self,
        ctx: &mut StepCtx<'_, F>,
        bus: &mut EventBus<'_, '_, F>,
    ) -> Result<(), CoreError> {
        for stage in &mut self.stages {
            let name = stage.name();
            bus.emit(StepEvent::StageStart { stage: name })?;
            stage.apply(ctx)?;
            bus.emit(StepEvent::StageEnd { stage: name })?;
        }
        Ok(())
    }
}

impl<F> std::fmt::Debug for StagePipeline<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagePipeline")
            .field("stages", &self.stages.len())
            .finish()
    }
}

/// One event on the [`StepObserver`] bus.
///
/// The taxonomy is deliberately small: slot brackets carrying the
/// engine clock, and stage brackets carrying the stage name. Everything
/// an observer could want to *measure* is reachable from the
/// [`SlotEnd`](StepEvent::SlotEnd) borrow of the stepped simulation —
/// the bus hands out read access instead of copying state it cannot
/// predict a consumer needs.
pub enum StepEvent<'a, F> {
    /// A slot is about to run; `slot`/`time` are its start values.
    SlotStart {
        /// The slot index about to execute.
        slot: u64,
        /// Simulation clock at slot start, minutes.
        time: f64,
    },
    /// A stage is about to run.
    StageStart {
        /// [`Stage::name`] of the stage.
        stage: &'static str,
    },
    /// A stage finished successfully.
    StageEnd {
        /// [`Stage::name`] of the stage.
        stage: &'static str,
    },
    /// The slot completed; the simulation has advanced.
    SlotEnd {
        /// The stepped simulation (read access for δ measurements,
        /// survivability observation, checkpointing).
        sim: &'a Simulation<F>,
        /// What the slot did.
        report: &'a StepReport,
    },
}

impl<F> Clone for StepEvent<'_, F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for StepEvent<'_, F> {}

impl<F> std::fmt::Debug for StepEvent<'_, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepEvent::SlotStart { slot, time } => f
                .debug_struct("SlotStart")
                .field("slot", slot)
                .field("time", time)
                .finish(),
            StepEvent::StageStart { stage } => {
                f.debug_struct("StageStart").field("stage", stage).finish()
            }
            StepEvent::StageEnd { stage } => {
                f.debug_struct("StageEnd").field("stage", stage).finish()
            }
            StepEvent::SlotEnd { report, .. } => {
                f.debug_struct("SlotEnd").field("report", report).finish()
            }
        }
    }
}

/// A cross-cutting consumer of per-slot [`StepEvent`]s.
///
/// Observers run *between* stages, never inside them, so they see a
/// consistent world and cannot perturb the engine's arithmetic. An
/// observer error aborts the slot (e.g. a checkpoint write failure).
pub trait StepObserver<F> {
    /// Handles one bus event.
    ///
    /// # Errors
    ///
    /// Observer-specific; a failure aborts the slot.
    fn on_event(&mut self, event: StepEvent<'_, F>) -> Result<(), CoreError>;
}

/// The bus [`Simulation::step_with`] feeds: the built-in
/// [`ObsAdapter`] plus the caller's observers, in order.
pub struct EventBus<'a, 'o, F> {
    adapter: ObsAdapter,
    external: &'a mut [&'o mut dyn StepObserver<F>],
}

impl<'a, 'o, F> EventBus<'a, 'o, F> {
    /// Builds a bus over the caller's observers.
    pub fn new(external: &'a mut [&'o mut dyn StepObserver<F>]) -> Self {
        EventBus {
            adapter: ObsAdapter::default(),
            external,
        }
    }

    /// Feeds `event` to the adapter, then to every external observer
    /// in slice order.
    ///
    /// # Errors
    ///
    /// The first failing observer.
    pub fn emit(&mut self, event: StepEvent<'_, F>) -> Result<(), CoreError> {
        self.adapter.observe(event);
        for obs in self.external.iter_mut() {
            obs.on_event(event)?;
        }
        Ok(())
    }
}

/// The built-in `cps-obs` adapter: translates stage brackets into
/// per-stage [`cps_obs::Phase`] timers and counts stepped slots.
/// Installed on every bus — its hooks are no-ops while the collector
/// is disabled, and never perturb results while enabled.
#[derive(Debug, Default)]
pub struct ObsAdapter {
    timer: Option<cps_obs::PhaseTimer>,
}

impl ObsAdapter {
    fn observe<F>(&mut self, event: StepEvent<'_, F>) {
        match event {
            StepEvent::StageStart { stage } => {
                self.timer = Self::phase_for(stage).map(|p| cps_obs::time(p, 1));
            }
            StepEvent::StageEnd { .. } => {
                self.timer = None;
            }
            StepEvent::SlotEnd { .. } => {
                cps_obs::count(cps_obs::Counter::SimSteps);
            }
            StepEvent::SlotStart { .. } => {}
        }
    }

    /// The standard stages' phase keys; custom stages go untimed.
    fn phase_for(stage: &str) -> Option<cps_obs::Phase> {
        Some(match stage {
            "fault" => cps_obs::Phase::StageFault,
            "sense" => cps_obs::Phase::StageSense,
            "exchange" => cps_obs::Phase::StageExchange,
            "recovery" => cps_obs::Phase::StageRecovery,
            "optimize" => cps_obs::Phase::StageOptimize,
            "record" => cps_obs::Phase::StageRecord,
            _ => return None,
        })
    }
}
