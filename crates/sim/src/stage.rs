//! The fixed per-slot driver behind [`Simulation::step`] and the
//! [`StepObserver`] event bus.
//!
//! One time slot of the paper's control loop (Table 2: sense →
//! exchange → CMA force step → LCM → move) runs as six stages, always
//! in the [`STANDARD_STAGES`] order:
//!
//! 1. `fault` — slot-start deaths, drawn **serially** from the slot's
//!    dedicated SplitMix64 stream;
//! 2. `sense` — the slot-start world snapshot: alive set, positions,
//!    unit-disk graph, component count, and partition bookkeeping;
//! 3. `exchange` — message-level fault draws (sensor faults per
//!    survivor, then directed link outages per edge) and message
//!    attempt accounting, still serial;
//! 4. `recovery` — relay re-planning overrides for a partitioned
//!    network;
//! 5. `optimize` — the parallel per-node sense/fit/CMA sweep, speed
//!    clamp, LCM cooperative repair, and position application;
//! 6. `record` — clock/slot advance, gossiped curvature scale, battery
//!    drain, and the [`StepReport`].
//!
//! Each stage is a private function whose inputs are the outputs of
//! the stages before it, so no stage can run before the data it needs
//! exists.
//!
//! # Determinism
//!
//! Results are bit-identical at any thread count and with or without
//! observers, with or without a fault plan. The argument is the stage
//! order itself: every random draw happens in a serial stage (1–3) in
//! a fixed order before any parallel work, and the only parallel stage
//! (5) fans out pure per-node computations whose results are folded
//! back in node order.
//!
//! # Observation
//!
//! [`Simulation::step_observed`] hands the caller's observers a
//! [`StepEvent::SlotStart`], then a [`StepEvent::StageStart`] /
//! [`StepEvent::StageEnd`] pair around each stage, then a
//! [`StepEvent::SlotEnd`]. Observers run between stages, never inside
//! them, so they cannot perturb the arithmetic. Each stage is also
//! timed under its `cps_obs::Phase::Stage*` key, and each completed
//! slot counts `sim_steps`; both hooks are no-ops while `cps-obs` is
//! disabled.

use std::collections::HashSet;

use cps_core::ostd::{cma_step, lcm, CmaAction, NeighborInfo};
use cps_core::CoreError;
use cps_field::par::map_rows;
use cps_field::TimeVaryingField;
use cps_geometry::Point2;
use cps_network::{articulation_points, UnitDiskGraph};
use cps_obs::Phase;

use crate::engine::{Simulation, StepReport};
use crate::fault::{recovery_overrides, FaultRng, SensorFault};

/// Iterations of the LCM cooperative-repair fixed point per slot.
const LCM_ROUNDS: usize = 16;

/// The stage names, in execution order — the sequence every slot runs
/// and the one checkpoint snapshots record and validate on restore.
pub const STANDARD_STAGES: [&str; 6] = [
    "fault", "sense", "exchange", "recovery", "optimize", "record",
];

impl<F: TimeVaryingField + Sync> Simulation<F> {
    /// [`step`](Simulation::step) with [`StepObserver`]s: each receives
    /// the slot brackets, the stage brackets, and read access to the
    /// stepped world (see [`StepEvent`] and the [module docs](self)).
    ///
    /// Observers cannot perturb the arithmetic — a run with observers
    /// is bit-identical to one without.
    ///
    /// # Errors
    ///
    /// Propagates stage failures and observer failures (e.g. a failed
    /// checkpoint write), whichever happens first.
    pub fn step_observed(
        &mut self,
        observers: &mut [&mut dyn StepObserver<F>],
    ) -> Result<StepReport, CoreError> {
        emit(
            observers,
            StepEvent::SlotStart {
                slot: self.slot,
                time: self.time,
            },
        )?;
        let (mut rng, deaths) = stage(observers, "fault", Phase::StageFault, || Ok(fault(self)))?;
        let sensed = stage(observers, "sense", Phase::StageSense, || sense(self))?;
        let exchanged = stage(observers, "exchange", Phase::StageExchange, || {
            Ok(exchange(self, &sensed, rng.as_mut()))
        })?;
        let overrides = stage(observers, "recovery", Phase::StageRecovery, || {
            Ok(recovery(self, &sensed))
        })?;
        let moves = stage(observers, "optimize", Phase::StageOptimize, || {
            optimize(self, &sensed, &exchanged, &overrides)
        })?;
        let report = stage(observers, "record", Phase::StageRecord, || {
            Ok(record(self, &sensed, &exchanged, &moves, deaths))
        })?;
        cps_obs::count(cps_obs::Counter::SimSteps);
        emit(
            observers,
            StepEvent::SlotEnd {
                sim: self,
                report: &report,
            },
        )?;
        Ok(report)
    }
}

/// Feeds `event` to every observer in slice order.
fn emit<F>(
    observers: &mut [&mut dyn StepObserver<F>],
    event: StepEvent<'_, F>,
) -> Result<(), CoreError> {
    for obs in observers.iter_mut() {
        obs.on_event(event)?;
    }
    Ok(())
}

/// Runs one stage body between its `StageStart`/`StageEnd` events,
/// timed under `phase`.
fn stage<F, T>(
    observers: &mut [&mut dyn StepObserver<F>],
    name: &'static str,
    phase: Phase,
    body: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    emit(observers, StepEvent::StageStart { stage: name })?;
    let out = {
        let _t = cps_obs::time(phase, 1);
        body()?
    };
    emit(observers, StepEvent::StageEnd { stage: name })?;
    Ok(out)
}

/// The slot-start world snapshot `sense` takes. Per-node arrays are
/// indexed by *alive index*; `alive_ids` maps back to stable node ids.
struct Sensed {
    alive_ids: Vec<usize>,
    positions: Vec<Point2>,
    graph: UnitDiskGraph,
    components: usize,
}

/// The fault draws and message count `exchange` produces.
#[derive(Default)]
struct Exchanged {
    sensor_faults: Vec<SensorFault>,
    link_down: HashSet<(usize, usize)>,
    retried: usize,
    dropped: usize,
    messages: usize,
}

/// What `optimize` did to the fleet.
struct Moves {
    /// Slot-end positions, by alive index.
    adjusted: Vec<Point2>,
    /// `tell(nd, N)` broadcasts, one per node with a destination.
    tells: usize,
    lcm_followers: usize,
    moved: usize,
    max_displacement: f64,
}

/// Stage 1: slot-start deaths (scheduled kills, culls, random deaths,
/// battery exhaustion), drawn serially from this slot's dedicated
/// stream so results stay bit-identical at any thread count. Returns
/// that stream (`None` without a fault plan) for `exchange` to
/// continue, and the death count.
fn fault<F>(sim: &mut Simulation<F>) -> (Option<FaultRng>, usize) {
    let Some(rt) = sim.fault.as_mut() else {
        return (None, 0);
    };
    let mut rng = rt.slot_rng();
    let mut alive: Vec<bool> = sim.nodes.iter().map(|n| n.alive).collect();
    let deaths = rt.apply_deaths(&mut rng, &mut alive, sim.time);
    if deaths > 0 {
        for (node, &a) in sim.nodes.iter_mut().zip(&alive) {
            node.alive = a;
        }
    }
    (Some(rng), deaths)
}

/// Stage 2: the slot-start world snapshot — alive set, positions,
/// unit-disk graph, component count — plus partition bookkeeping
/// (`Partition`/`Reconnected` events) when a fault plan is installed.
fn sense<F: TimeVaryingField + Sync>(sim: &mut Simulation<F>) -> Result<Sensed, CoreError> {
    let alive_ids = sim.nodes.iter().filter(|n| n.alive).map(|n| n.id).collect();
    let positions = sim.positions();
    let graph = UnitDiskGraph::new(positions.clone(), sim.config.cps.comm_radius())?;
    let components = graph.component_count();
    if let Some(rt) = sim.fault.as_mut() {
        let critical = if components >= 2 {
            articulation_points(&graph).len()
        } else {
            0
        };
        rt.observe_topology(components, critical, sim.time);
    }
    Ok(Sensed {
        alive_ids,
        positions,
        graph,
        components,
    })
}

/// Stage 3: the remaining fault draws for the slot (still serial, in
/// the documented order: sensor faults per survivor, then directed
/// link outages per edge) and the slot's message-attempt accounting.
fn exchange<F>(sim: &mut Simulation<F>, sensed: &Sensed, rng: Option<&mut FaultRng>) -> Exchanged {
    let Some((rt, rng)) = sim.fault.as_mut().zip(rng) else {
        // Every alive edge carries the (x, y, G) report both ways.
        return Exchanged {
            messages: 2 * sensed.graph.edge_count(),
            ..Exchanged::default()
        };
    };
    let sensor_faults = rt.draw_sensor_faults(rng, &sensed.alive_ids, sim.time);
    // A lossy plan counts attempts, including retries.
    let (link_down, retried, dropped, messages) = rt.draw_link_outages(rng, &sensed.graph);
    Exchanged {
        sensor_faults,
        link_down,
        retried,
        dropped,
        messages,
    }
}

/// Stage 4: graceful degradation — when the surviving network is
/// partitioned and the plan's recovery policy is active, relay
/// re-planning picks bridgehead nodes and marches them toward the
/// opposite shore of the partition gap.
fn recovery<F>(sim: &Simulation<F>, sensed: &Sensed) -> Vec<Option<Point2>> {
    match &sim.fault {
        Some(rt) if sensed.components >= 2 && rt.plan.recovery_active() => {
            cps_obs::count(cps_obs::Counter::RelayReplans);
            recovery_overrides(&sensed.graph)
        }
        _ => Vec::new(),
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
fn optimize<F: TimeVaryingField + Sync>(
    sim: &mut Simulation<F>,
    sensed: &Sensed,
    exchanged: &Exchanged,
    overrides: &[Option<Point2>],
) -> Result<Moves, CoreError> {
    let rc = sim.config.cps.comm_radius();
    let max_move = sim.config.cps.max_speed() * sim.config.time_step;
    let Sensed {
        alive_ids,
        positions,
        graph,
        ..
    } = sensed;
    let link_down = &exchanged.link_down;
    let mut cfg = sim.cma;
    cfg.curvature_scale = sim.curvature_scale;
    let decisions = {
        let _t = cps_obs::time(Phase::CmaCurvature, sim.eval.parallelism.threads());
        let this = &*sim;
        let cfg = &cfg;
        let sensor_faults = &exchanged.sensor_faults;
        map_rows(alive_ids.len(), this.eval.parallelism, move |i| {
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
    let n = alive_ids.len();
    let mut desired: Vec<Option<Point2>> = vec![None; n];
    let mut new_curvature = vec![0.0; n];
    let mut tells = 0usize;
    for (i, decision) in decisions.into_iter().enumerate() {
        let (curvature, dest) = decision?;
        new_curvature[i] = curvature;
        // A recovery bridgehead overrides its own CMA decision and
        // marches toward the opposite shore of the partition gap.
        let dest = overrides.get(i).copied().flatten().or(dest);
        if dest.is_some() {
            tells += 1; // the mover's tell(nd, N) broadcast
        }
        desired[i] = dest;
    }

    // Speed clamp.
    let mut next: Vec<Point2> = positions.clone();
    {
        let _t = cps_obs::time(Phase::CmaMove, 1);
        for i in 0..n {
            if let Some(dest) = desired[i] {
                let step = (dest - positions[i]).clamp_norm(max_move);
                next[i] = sim.region.clamp(positions[i] + step);
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
    let mut lcm_followers = 0usize;
    let lcm_timer = cps_obs::time(Phase::CmaForce, 1);
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
                if link_down.contains(&(i, j)) {
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
                adjusted[j] = sim.region.clamp(positions[j] + step);
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
    drop(lcm_timer);

    // Apply.
    let _apply_timer = cps_obs::time(Phase::CmaMove, 1);
    let (mut moved, mut max_displacement) = (0usize, 0.0f64);
    for (i, &id) in alive_ids.iter().enumerate() {
        let node = &mut sim.nodes[id];
        let d = node.position.distance(adjusted[i]);
        if d > 1e-12 {
            moved += 1;
        }
        max_displacement = max_displacement.max(d);
        node.traveled += d;
        node.position = adjusted[i];
        node.curvature = new_curvature[i];
    }
    Ok(Moves {
        adjusted,
        tells,
        lcm_followers,
        moved,
        max_displacement,
    })
}

/// Stage 6: end-of-slot bookkeeping — clock and slot advance, the
/// decaying gossiped curvature-scale update, battery drain per
/// survivor, the fault stream's slot cursor, and the [`StepReport`].
fn record<F>(
    sim: &mut Simulation<F>,
    sensed: &Sensed,
    exchanged: &Exchanged,
    moves: &Moves,
    deaths: usize,
) -> StepReport {
    sim.time += sim.config.time_step;
    sim.slot += 1;
    // Update the gossiped curvature reference: running maximum with
    // a slow decay so the scale tracks the evolving field.
    let observed = sim
        .nodes
        .iter()
        .filter(|n| n.alive)
        .map(|n| n.curvature.abs())
        .fold(0.0f64, f64::max);
    sim.curvature_scale = observed.max(0.98 * sim.curvature_scale);

    // End-of-slot fault accounting: battery drain per survivor and
    // the slot counter for the next stream.
    if let Some(rt) = sim.fault.as_mut() {
        for (i, &id) in sensed.alive_ids.iter().enumerate() {
            rt.drain_battery(id, sensed.positions[i].distance(moves.adjusted[i]));
        }
        rt.slot += 1;
    }

    StepReport {
        time: sim.time,
        moved: moves.moved,
        lcm_followers: moves.lcm_followers,
        max_displacement: moves.max_displacement,
        messages: exchanged.messages + moves.tells,
        deaths,
        retried: exchanged.retried,
        dropped: exchanged.dropped,
        components: sensed.components,
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
        /// The stage's [`STANDARD_STAGES`] name.
        stage: &'static str,
    },
    /// A stage finished successfully.
    StageEnd {
        /// The stage's [`STANDARD_STAGES`] name.
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
