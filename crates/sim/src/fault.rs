//! Deterministic fault injection for the simulation loop.
//!
//! A [`FaultPlan`] is a seedable schedule of everything that can go
//! wrong in a deployed swarm: node death (scheduled, random, mass cull,
//! or battery depletion), transient sensor dropouts, corrupted
//! readings (outliers and stuck-at sensors), and lossy single-hop
//! links with bounded retry. The plan is pure data — the engine
//! ([`Simulation::step`](crate::Simulation::step)) threads it through
//! each slot's sense → exchange → CMA → LCM phases.
//!
//! # Determinism
//!
//! Every random draw comes from a dedicated SplitMix64 stream seeded
//! from `(plan seed, slot index)`, independent of any other randomness
//! in the workspace. Within a slot the draw order is fixed:
//!
//! 1. deaths, in ascending node-id order (scheduled kills and battery
//!    depletion consume no draws; culls and per-slot random deaths do);
//! 2. sensor faults per surviving node in ascending node-id order
//!    (dropout, then stuck-at, then outlier);
//! 3. link outages per undirected edge in ascending `(i, j)` order,
//!    low→high direction first, one draw per delivery attempt.
//!
//! Two runs with the same plan, start state, and field are therefore
//! bit-identical at any thread count: all draws happen serially before
//! the parallel sense phase. A plan with every rate at zero and no
//! scheduled events never alters a single float operation, so the
//! zero-fault path is bit-identical to running without a plan at all
//! (property-tested).

use std::collections::HashSet;

use cps_core::CoreError;
use cps_geometry::Point2;
use cps_network::{RelayPlan, UnitDiskGraph};
use serde::{Deserialize, Serialize};

/// When the engine re-plans relays to heal a partitioned swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum RecoveryPolicy {
    /// Heal partitions iff the plan injects any fault (the default):
    /// a zero-fault plan stays bit-identical to a fault-free run.
    #[default]
    Auto,
    /// Always steer bridgehead nodes across partition gaps.
    On,
    /// Never re-plan; partitions persist until the CMA drifts nodes
    /// back into range on its own.
    Off,
}

/// Battery model: every node starts with the same budget and spends it
/// per slot and per metre moved; an exhausted node dies at the start of
/// the next slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryModel {
    /// Initial energy budget per node (abstract units).
    pub capacity: f64,
    /// Energy spent per slot just by being on.
    pub idle_drain: f64,
    /// Energy spent per metre of movement.
    pub move_drain: f64,
}

/// Why a node died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum DeathCause {
    /// A [`FaultPlanBuilder::kill`] or [`FaultPlanBuilder::cull`] entry.
    Scheduled,
    /// The battery model ran the node's budget out.
    Battery,
    /// The per-slot random death rate.
    Random,
}

/// Something the fault subsystem did or observed, for the event log
/// recorded alongside δ(t).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase")]
pub enum FaultEvent {
    /// A node died at the start of the slot.
    Death {
        /// Slot index (steps since construction).
        slot: u64,
        /// Simulation time at the start of the slot, minutes.
        time: f64,
        /// Stable node id.
        node: usize,
        /// Why it died.
        cause: DeathCause,
    },
    /// The surviving graph split into more than one component.
    Partition {
        /// Slot index.
        slot: u64,
        /// Simulation time, minutes.
        time: f64,
        /// Component count observed.
        components: usize,
        /// Articulation points of the surviving graph — the nodes whose
        /// further loss would fragment it again.
        critical: usize,
    },
    /// The surviving graph is one component again.
    Reconnected {
        /// Slot index.
        slot: u64,
        /// Simulation time, minutes.
        time: f64,
        /// Slots spent partitioned.
        after_slots: u64,
    },
}

/// A deterministic, seedable fault schedule. Build one with
/// [`FaultPlan::builder`] or parse the CLI spec syntax with
/// [`FaultPlan::parse`], then install it via
/// [`CmaBuilder::faults`](crate::CmaBuilder::faults).
///
/// # Example
///
/// ```
/// use cps_sim::FaultPlan;
///
/// let plan = FaultPlan::builder()
///     .seed(42)
///     .kill(7, 30)
///     .link_loss(0.2, 2)
///     .build()
///     .unwrap();
/// assert!(plan.recovery_active()); // a plan that injects faults heals partitions
/// let parsed = FaultPlan::parse("seed=42,kill=7@30,loss=0.2:2").unwrap();
/// assert_eq!(plan, parsed);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    // Fields are crate-visible for the checkpoint encoder
    // (`crate::checkpoint`); the decoder rebuilds plans through
    // `FaultPlanBuilder`, so restored plans re-pass validation.
    pub(crate) seed: u64,
    pub(crate) kills: Vec<(u64, usize)>,
    pub(crate) culls: Vec<(u64, f64)>,
    pub(crate) death_rate: f64,
    pub(crate) battery: Option<BatteryModel>,
    pub(crate) dropout_rate: f64,
    pub(crate) outlier_rate: f64,
    pub(crate) outlier_magnitude: f64,
    pub(crate) stuck_rate: f64,
    pub(crate) stuck_slots: u64,
    pub(crate) link_loss: f64,
    pub(crate) link_retries: u32,
    pub(crate) recovery: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            kills: Vec::new(),
            culls: Vec::new(),
            death_rate: 0.0,
            battery: None,
            dropout_rate: 0.0,
            outlier_rate: 0.0,
            outlier_magnitude: 0.0,
            stuck_rate: 0.0,
            stuck_slots: 0,
            link_loss: 0.0,
            link_retries: 2,
            recovery: RecoveryPolicy::Auto,
        }
    }
}

impl FaultPlan {
    /// A builder with no faults configured.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// The all-zero plan: installing it must leave every simulation
    /// result bit-identical to running without a plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects no fault at all (rates zero, nothing
    /// scheduled, no battery model).
    fn is_zero(&self) -> bool {
        self.kills.is_empty()
            && self.culls.is_empty()
            && self.death_rate == 0.0
            && self.battery.is_none()
            && self.dropout_rate == 0.0
            && self.outlier_rate == 0.0
            && self.stuck_rate == 0.0
            && self.link_loss == 0.0
    }

    /// Whether partition healing is in effect (see [`RecoveryPolicy`]).
    pub fn recovery_active(&self) -> bool {
        match self.recovery {
            RecoveryPolicy::Auto => !self.is_zero(),
            RecoveryPolicy::On => true,
            RecoveryPolicy::Off => false,
        }
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Parses the CLI fault spec: comma-separated `key=value` entries.
    ///
    /// | key | value | meaning |
    /// |-----|-------|---------|
    /// | `seed` | `N` | RNG seed |
    /// | `kill` | `NODE@SLOT` | kill one node at a slot (repeatable) |
    /// | `cull` | `FRAC@SLOT` | kill a random fraction of survivors at a slot |
    /// | `death` | `P` | per-node per-slot death probability |
    /// | `battery` | `CAP:IDLE:MOVE` | battery capacity and drain rates |
    /// | `dropout` | `P` | per-node per-slot sensor dropout probability |
    /// | `outlier` | `P:MAG` | per-node per-slot outlier probability and size |
    /// | `stuck` | `P:SLOTS` | stuck-at probability and duration |
    /// | `loss` | `P[:RETRIES]` | per-attempt link loss and retry budget |
    /// | `recovery` | `auto`\|`on`\|`off` | partition-healing policy |
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on unknown keys, malformed
    /// numbers, or out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<FaultPlan, CoreError> {
        fn bad(name: &'static str, requirement: &'static str) -> CoreError {
            CoreError::InvalidParameter { name, requirement }
        }
        let mut b = FaultPlan::builder();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| bad("faults", "entries must look like key=value"))?;
            match key.trim() {
                "seed" => {
                    b = b.seed(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad("seed", "must be an unsigned integer"))?,
                    );
                }
                "kill" => {
                    let (node, slot) = value
                        .split_once('@')
                        .ok_or_else(|| bad("kill", "must look like NODE@SLOT"))?;
                    b = b.kill(
                        node.trim()
                            .parse()
                            .map_err(|_| bad("kill", "node must be an unsigned integer"))?,
                        slot.trim()
                            .parse()
                            .map_err(|_| bad("kill", "slot must be an unsigned integer"))?,
                    );
                }
                "cull" => {
                    let (frac, slot) = value
                        .split_once('@')
                        .ok_or_else(|| bad("cull", "must look like FRAC@SLOT"))?;
                    b = b.cull(
                        frac.trim()
                            .parse()
                            .map_err(|_| bad("cull", "fraction must be a number"))?,
                        slot.trim()
                            .parse()
                            .map_err(|_| bad("cull", "slot must be an unsigned integer"))?,
                    );
                }
                "death" => {
                    b = b.death_rate(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad("death", "must be a probability"))?,
                    );
                }
                "battery" => {
                    let mut parts = value.split(':');
                    let mut next = || -> Result<f64, CoreError> {
                        parts
                            .next()
                            .ok_or_else(|| bad("battery", "must look like CAP:IDLE:MOVE"))?
                            .trim()
                            .parse()
                            .map_err(|_| bad("battery", "fields must be numbers"))
                            .and_then(|v: f64| {
                                if v.is_finite() {
                                    Ok(v)
                                } else {
                                    Err(bad("battery", "fields must be finite"))
                                }
                            })
                    };
                    let capacity = next()?;
                    let idle = next()?;
                    let movement = next()?;
                    b = b.battery(capacity, idle, movement);
                }
                "dropout" => {
                    b = b.sensor_dropout(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad("dropout", "must be a probability"))?,
                    );
                }
                "outlier" => {
                    let (p, mag) = value
                        .split_once(':')
                        .ok_or_else(|| bad("outlier", "must look like P:MAG"))?;
                    b = b.reading_outlier(
                        p.trim()
                            .parse()
                            .map_err(|_| bad("outlier", "probability must be a number"))?,
                        mag.trim()
                            .parse()
                            .map_err(|_| bad("outlier", "magnitude must be a number"))?,
                    );
                }
                "stuck" => {
                    let (p, slots) = value
                        .split_once(':')
                        .ok_or_else(|| bad("stuck", "must look like P:SLOTS"))?;
                    b = b.stuck_at(
                        p.trim()
                            .parse()
                            .map_err(|_| bad("stuck", "probability must be a number"))?,
                        slots
                            .trim()
                            .parse()
                            .map_err(|_| bad("stuck", "duration must be an unsigned integer"))?,
                    );
                }
                "loss" => {
                    let (p, retries) = match value.split_once(':') {
                        Some((p, r)) => (
                            p,
                            r.trim()
                                .parse()
                                .map_err(|_| bad("loss", "retries must be an unsigned integer"))?,
                        ),
                        None => (value, 2),
                    };
                    b = b.link_loss(
                        p.trim()
                            .parse()
                            .map_err(|_| bad("loss", "probability must be a number"))?,
                        retries,
                    );
                }
                "recovery" => {
                    b = b.recovery(match value.trim() {
                        "auto" => RecoveryPolicy::Auto,
                        "on" => RecoveryPolicy::On,
                        "off" => RecoveryPolicy::Off,
                        _ => return Err(bad("recovery", "must be auto, on, or off")),
                    });
                }
                _ => {
                    return Err(bad(
                        "faults",
                        "unknown key (expected seed, kill, cull, death, battery, \
                         dropout, outlier, stuck, loss, or recovery)",
                    ))
                }
            }
        }
        b.build()
    }
}

/// Builder for a [`FaultPlan`]; every fault class is off until its
/// method is called.
#[derive(Debug, Clone, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Seeds the fault RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.plan.seed = seed;
        self
    }

    /// Kills node `node` at the start of slot `slot`.
    pub fn kill(mut self, node: usize, slot: u64) -> Self {
        self.plan.kills.push((slot, node));
        self
    }

    /// Kills a random `fraction` of the surviving fleet at the start of
    /// slot `slot` (victims drawn from the fault RNG).
    pub fn cull(mut self, fraction: f64, slot: u64) -> Self {
        self.plan.culls.push((slot, fraction));
        self
    }

    /// Per-node per-slot probability of spontaneous death.
    pub fn death_rate(mut self, rate: f64) -> Self {
        self.plan.death_rate = rate;
        self
    }

    /// Installs the battery model (see [`BatteryModel`]).
    pub fn battery(mut self, capacity: f64, idle_drain: f64, move_drain: f64) -> Self {
        self.plan.battery = Some(BatteryModel {
            capacity,
            idle_drain,
            move_drain,
        });
        self
    }

    /// Per-node per-slot probability of a transient sensor dropout: the
    /// node senses nothing that slot, keeps its previous curvature, and
    /// holds position.
    pub fn sensor_dropout(mut self, rate: f64) -> Self {
        self.plan.dropout_rate = rate;
        self
    }

    /// Per-node per-slot probability of an outlier reading: the node's
    /// own measurement is off by ±`magnitude` for one slot.
    pub fn reading_outlier(mut self, rate: f64, magnitude: f64) -> Self {
        self.plan.outlier_rate = rate;
        self.plan.outlier_magnitude = magnitude;
        self
    }

    /// Per-node per-slot probability of the sensor freezing: for the
    /// next `slots` slots the node keeps sensing the field as it was
    /// when the fault struck.
    pub fn stuck_at(mut self, rate: f64, slots: u64) -> Self {
        self.plan.stuck_rate = rate;
        self.plan.stuck_slots = slots;
        self
    }

    /// Per-attempt probability that a single-hop message is lost, with
    /// up to `retries` re-sends; a direction whose every attempt fails
    /// is down for the slot (the receiver misses that neighbor's
    /// curvature report, and LCM `tell()` broadcasts don't reach it).
    pub fn link_loss(mut self, loss: f64, retries: u32) -> Self {
        self.plan.link_loss = loss;
        self.plan.link_retries = retries;
        self
    }

    /// Sets the partition-healing policy (default [`RecoveryPolicy::Auto`]).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.plan.recovery = policy;
        self
    }

    /// Validates and returns the plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when a probability is outside
    /// `[0, 1]`, a magnitude/fraction is not finite, or the battery
    /// model has a non-positive capacity or negative drain.
    pub fn build(mut self) -> Result<FaultPlan, CoreError> {
        fn probability(value: f64, name: &'static str) -> Result<(), CoreError> {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(CoreError::InvalidParameter {
                    name,
                    requirement: "must be a probability in [0, 1]",
                })
            }
        }
        probability(self.plan.death_rate, "death_rate")?;
        probability(self.plan.dropout_rate, "dropout_rate")?;
        probability(self.plan.outlier_rate, "outlier_rate")?;
        probability(self.plan.stuck_rate, "stuck_rate")?;
        probability(self.plan.link_loss, "link_loss")?;
        for &(_, fraction) in &self.plan.culls {
            probability(fraction, "cull fraction")?;
        }
        if !self.plan.outlier_magnitude.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "outlier_magnitude",
                requirement: "must be finite",
            });
        }
        if let Some(b) = self.plan.battery {
            if !(b.capacity > 0.0 && b.capacity.is_finite()) {
                return Err(CoreError::InvalidParameter {
                    name: "battery capacity",
                    requirement: "must be positive and finite",
                });
            }
            if !(b.idle_drain >= 0.0
                && b.move_drain >= 0.0
                && b.idle_drain.is_finite()
                && b.move_drain.is_finite())
            {
                return Err(CoreError::InvalidParameter {
                    name: "battery drain",
                    requirement: "must be non-negative and finite",
                });
            }
        }
        self.plan.kills.sort_unstable();
        self.plan.kills.dedup();
        self.plan
            .culls
            .sort_unstable_by_key(|&(slot, frac)| (slot, frac.to_bits()));
        Ok(self.plan)
    }
}

/// SplitMix64: the dedicated fault stream. Deliberately not the `rand`
/// crate — fault schedules stay stable no matter what the rest of the
/// workspace does with its RNGs.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Stream for `slot` of a plan seeded with `seed`.
    pub(crate) fn for_slot(seed: u64, slot: u64) -> Self {
        // One scramble round separates neighboring (seed, slot) pairs.
        let mut rng = FaultRng {
            state: seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / ((1u64 << 53) as f64))
    }

    /// Bernoulli draw; `p <= 0` is always false without consuming the
    /// stream, so switched-off fault classes cost nothing.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else {
            self.unit() < p
        }
    }

    /// Uniform index in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// The sensor fault a node suffers this slot, drawn serially before the
/// parallel sense phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SensorFault {
    /// Sensor healthy.
    None,
    /// No data this slot: keep the last curvature, hold position.
    Dropout,
    /// The node's own reading is off by this much.
    Outlier(f64),
    /// The sensor is frozen: it keeps reporting the field as of this
    /// time.
    Stuck {
        /// Simulation time the sensor froze at, minutes.
        frozen_time: f64,
    },
}

/// Per-simulation mutable fault state: the plan plus everything the
/// runtime accumulated so far. A checkpoint stores it as is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultState {
    /// The installed schedule (restored through the validating builder).
    #[serde(with = "crate::checkpoint::plan")]
    pub plan: FaultPlan,
    /// Slot cursor: steps taken since construction. The SplitMix64
    /// stream of every future slot is derived from `(plan seed, slot)`,
    /// so this one integer carries the whole RNG state.
    pub slot: u64,
    /// Remaining energy by node id (empty without a battery model).
    pub energy: Vec<f64>,
    /// Stuck-sensor state by node id: `(frozen_time, expiry_slot)`.
    #[serde(with = "crate::checkpoint::stuck")]
    pub stuck: Vec<Option<(f64, u64)>>,
    /// Everything recorded so far (deaths, partitions, reconnects).
    pub events: Vec<FaultEvent>,
    /// Slot the currently-open partition started at, if any.
    pub partition_since: Option<u64>,
    /// Total deaths so far.
    pub deaths_total: usize,
    /// Total retried deliveries so far.
    pub retried_total: usize,
    /// Total dropped directed link-slots so far.
    pub dropped_total: usize,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, node_count: usize) -> Self {
        let energy = match plan.battery {
            Some(b) => vec![b.capacity; node_count],
            None => Vec::new(),
        };
        FaultState {
            plan,
            slot: 0,
            energy,
            stuck: vec![None; node_count],
            events: Vec::new(),
            partition_since: None,
            deaths_total: 0,
            retried_total: 0,
            dropped_total: 0,
        }
    }

    /// The RNG for the slot about to run.
    pub(crate) fn slot_rng(&self) -> FaultRng {
        FaultRng::for_slot(self.plan.seed, self.slot)
    }

    /// Applies slot-start deaths to `alive` (indexed by node id),
    /// returning how many nodes died. Draw order: per node id —
    /// scheduled kill, battery depletion, then the random death draw;
    /// culls draw victims afterwards.
    pub(crate) fn apply_deaths(
        &mut self,
        rng: &mut FaultRng,
        alive: &mut [bool],
        now: f64,
    ) -> usize {
        let mut deaths = 0usize;
        let slot = self.slot;
        for (id, live) in alive.iter_mut().enumerate() {
            if !*live {
                continue;
            }
            let cause = if self.plan.kills.binary_search(&(slot, id)).is_ok() {
                Some(DeathCause::Scheduled)
            } else if !self.energy.is_empty() && self.energy[id] <= 0.0 {
                Some(DeathCause::Battery)
            } else if rng.chance(self.plan.death_rate) {
                Some(DeathCause::Random)
            } else {
                None
            };
            if let Some(cause) = cause {
                *live = false;
                deaths += 1;
                self.events.push(FaultEvent::Death {
                    slot,
                    time: now,
                    node: id,
                    cause,
                });
            }
        }
        for &(cull_slot, fraction) in &self.plan.culls {
            if cull_slot != slot {
                continue;
            }
            let survivors: Vec<usize> = (0..alive.len()).filter(|&id| alive[id]).collect();
            let victims = ((survivors.len() as f64) * fraction).ceil() as usize;
            let mut pool = survivors;
            for _ in 0..victims.min(pool.len()) {
                let pick = rng.below(pool.len());
                let id = pool.swap_remove(pick);
                alive[id] = false;
                deaths += 1;
                self.events.push(FaultEvent::Death {
                    slot,
                    time: now,
                    node: id,
                    cause: DeathCause::Scheduled,
                });
            }
        }
        self.deaths_total += deaths;
        deaths
    }

    /// Draws this slot's sensor fault per surviving node (indexed like
    /// `alive_ids`). Precedence: dropout masks a stuck sensor for the
    /// slot; a stuck sensor masks outliers.
    pub(crate) fn draw_sensor_faults(
        &mut self,
        rng: &mut FaultRng,
        alive_ids: &[usize],
        now: f64,
    ) -> Vec<SensorFault> {
        let slot = self.slot;
        let plan = &self.plan;
        let mut out = Vec::with_capacity(alive_ids.len());
        for &id in alive_ids {
            if let Some((_, until)) = self.stuck[id] {
                if slot >= until {
                    self.stuck[id] = None;
                }
            }
            let fault = if rng.chance(plan.dropout_rate) {
                SensorFault::Dropout
            } else if let Some((frozen_time, _)) = self.stuck[id] {
                SensorFault::Stuck { frozen_time }
            } else if rng.chance(plan.stuck_rate) {
                self.stuck[id] = Some((now, slot + plan.stuck_slots.max(1)));
                SensorFault::Stuck { frozen_time: now }
            } else if rng.chance(plan.outlier_rate) {
                let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
                SensorFault::Outlier(sign * plan.outlier_magnitude)
            } else {
                SensorFault::None
            };
            out.push(fault);
        }
        out
    }

    /// Draws this slot's directed link outages over `graph` (alive
    /// indices). Returns `(down directions, retries, drops, message
    /// attempts)`; without link loss the attempt count is the fault-free
    /// `2 · |E|`.
    pub(crate) fn draw_link_outages(
        &mut self,
        rng: &mut FaultRng,
        graph: &UnitDiskGraph,
    ) -> (HashSet<(usize, usize)>, usize, usize, usize) {
        let p = self.plan.link_loss;
        if p <= 0.0 {
            return (HashSet::new(), 0, 0, 2 * graph.edge_count());
        }
        let budget = 1 + self.plan.link_retries as usize;
        let mut down = HashSet::new();
        let mut retried = 0usize;
        let mut dropped = 0usize;
        let mut attempts_total = 0usize;
        for (i, j) in graph.edges() {
            for (from, to) in [(i, j), (j, i)] {
                let mut attempts = 0usize;
                let mut delivered = false;
                while attempts < budget {
                    attempts += 1;
                    if !rng.chance(p) {
                        delivered = true;
                        break;
                    }
                }
                attempts_total += attempts;
                retried += attempts - 1;
                if !delivered {
                    down.insert((from, to));
                    dropped += 1;
                }
            }
        }
        self.retried_total += retried;
        self.dropped_total += dropped;
        cps_obs::count_by(cps_obs::Counter::FaultRetries, retried as u64);
        (down, retried, dropped, attempts_total)
    }

    /// Records partition/reconnection transitions of the surviving
    /// graph (`critical` = articulation-point count when a partition
    /// opens).
    pub(crate) fn observe_topology(&mut self, components: usize, critical: usize, now: f64) {
        if components >= 2 {
            if self.partition_since.is_none() {
                self.partition_since = Some(self.slot);
                self.events.push(FaultEvent::Partition {
                    slot: self.slot,
                    time: now,
                    components,
                    critical,
                });
            }
        } else if components == 1 {
            if let Some(since) = self.partition_since.take() {
                self.events.push(FaultEvent::Reconnected {
                    slot: self.slot,
                    time: now,
                    after_slots: self.slot - since,
                });
            }
        }
    }

    /// End-of-slot battery accounting: `moved` metres for node `id`.
    pub(crate) fn drain_battery(&mut self, id: usize, moved: f64) {
        if let Some(b) = self.plan.battery {
            if let Some(e) = self.energy.get_mut(id) {
                *e -= b.idle_drain + b.move_drain * moved;
            }
        }
    }

    /// Whether the swarm is currently partitioned.
    pub(crate) fn partitioned(&self) -> bool {
        self.partition_since.is_some()
    }
}

/// Relay re-planning for a partitioned swarm: plans relays over the
/// surviving graph and steers the closest-pair bridgehead of every MST
/// gap toward its opposite number. Returns per-alive-index destination
/// overrides (None = follow the CMA).
pub(crate) fn recovery_overrides(graph: &UnitDiskGraph) -> Vec<Option<Point2>> {
    let mut overrides = vec![None; graph.node_count()];
    if graph.component_count() <= 1 {
        return overrides;
    }
    let plan = RelayPlan::for_graph(graph);
    for &(a, b) in plan.bridged_gaps() {
        for (i, dest) in overrides.iter_mut().enumerate() {
            if graph.position(i) == a {
                *dest = Some(b);
            } else if graph.position(i) == b {
                *dest = Some(a);
            }
        }
    }
    overrides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::none().is_zero());
        assert!(FaultPlan::builder().seed(99).build().unwrap().is_zero());
        assert!(!FaultPlan::none().recovery_active());
        let on = FaultPlan::builder()
            .recovery(RecoveryPolicy::On)
            .build()
            .unwrap();
        assert!(on.recovery_active());
    }

    #[test]
    fn builder_validates_probabilities() {
        assert!(FaultPlan::builder().death_rate(1.5).build().is_err());
        assert!(FaultPlan::builder().sensor_dropout(-0.1).build().is_err());
        assert!(FaultPlan::builder().link_loss(2.0, 1).build().is_err());
        assert!(FaultPlan::builder().cull(1.2, 5).build().is_err());
        assert!(FaultPlan::builder().battery(0.0, 0.1, 0.1).build().is_err());
        assert!(FaultPlan::builder()
            .battery(5.0, -1.0, 0.1)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .reading_outlier(0.1, f64::NAN)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .death_rate(0.25)
            .link_loss(0.3, 4)
            .build()
            .is_ok());
    }

    #[test]
    fn spec_round_trip_and_errors() {
        let plan = FaultPlan::parse(
            "seed=9, kill=3@12, cull=0.1@20, death=0.01, battery=100:0.5:2, \
                              dropout=0.02, outlier=0.03:40, stuck=0.04:6, loss=0.2:3, \
                              recovery=on",
        )
        .unwrap();
        assert_eq!(plan.seed(), 9);
        assert!(!plan.is_zero());
        assert!(plan.recovery_active());
        assert_eq!(plan.kills, vec![(12, 3)]);
        assert_eq!(plan.culls, vec![(20, 0.1)]);
        assert_eq!(plan.link_retries, 3);
        assert!(FaultPlan::parse("").unwrap().is_zero());
        assert!(FaultPlan::parse("nonsense=1").is_err());
        assert!(FaultPlan::parse("death").is_err());
        assert!(FaultPlan::parse("kill=3").is_err());
        assert!(FaultPlan::parse("loss=1.5").is_err());
    }

    #[test]
    fn slot_streams_are_deterministic_and_distinct() {
        let mut a = FaultRng::for_slot(7, 3);
        let mut b = FaultRng::for_slot(7, 3);
        let mut c = FaultRng::for_slot(7, 4);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        // Zero-rate draws consume nothing.
        let before = a.state;
        assert!(!a.chance(0.0));
        assert_eq!(a.state, before);
    }

    #[test]
    fn scheduled_kill_and_cull_apply() {
        let plan = FaultPlan::builder()
            .kill(1, 0)
            .cull(0.5, 1)
            .build()
            .unwrap();
        let mut rt = FaultState::new(plan, 4);
        let mut alive = vec![true; 4];
        let mut rng = rt.slot_rng();
        assert_eq!(rt.apply_deaths(&mut rng, &mut alive, 0.0), 1);
        assert!(!alive[1]);
        rt.slot = 1;
        let mut rng = rt.slot_rng();
        // 3 survivors, 50% cull → ceil(1.5) = 2 victims.
        assert_eq!(rt.apply_deaths(&mut rng, &mut alive, 1.0), 2);
        assert_eq!(alive.iter().filter(|&&a| a).count(), 1);
        assert_eq!(rt.deaths_total, 3);
        assert_eq!(rt.events.len(), 3);
    }

    #[test]
    fn battery_depletion_kills_at_slot_start() {
        let plan = FaultPlan::builder().battery(1.0, 0.6, 0.0).build().unwrap();
        let mut rt = FaultState::new(plan, 1);
        let mut alive = vec![true];
        for slot in 0..3 {
            rt.slot = slot;
            let mut rng = rt.slot_rng();
            rt.apply_deaths(&mut rng, &mut alive, slot as f64);
            rt.drain_battery(0, 0.0);
        }
        // Energy: 1.0 → 0.4 → −0.2; the node dies at the start of the
        // slot after depletion.
        assert!(!alive[0]);
        assert!(matches!(
            rt.events[0],
            FaultEvent::Death {
                cause: DeathCause::Battery,
                ..
            }
        ));
    }

    #[test]
    fn link_outages_respect_retry_budget() {
        use cps_geometry::Point2;
        let g =
            UnitDiskGraph::new(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)], 2.0).unwrap();
        // Certain loss: every direction exhausts its budget and drops.
        let plan = FaultPlan::builder().link_loss(1.0, 3).build().unwrap();
        let mut rt = FaultState::new(plan, 2);
        let mut rng = rt.slot_rng();
        let (down, retried, dropped, attempts) = rt.draw_link_outages(&mut rng, &g);
        assert_eq!(down.len(), 2);
        assert_eq!(dropped, 2);
        assert_eq!(attempts, 8); // (1 + 3 retries) × 2 directions
        assert_eq!(retried, 6);
        // Zero loss: clean channel, no draws.
        let plan = FaultPlan::builder().build().unwrap();
        let mut rt = FaultState::new(plan, 2);
        let mut rng = rt.slot_rng();
        let (down, retried, dropped, attempts) = rt.draw_link_outages(&mut rng, &g);
        assert!(down.is_empty());
        assert_eq!((retried, dropped), (0, 0));
        assert_eq!(attempts, 2);
    }

    #[test]
    fn partition_bookkeeping_records_recovery_slot() {
        let mut rt = FaultState::new(FaultPlan::none(), 3);
        rt.slot = 5;
        rt.observe_topology(2, 1, 5.0);
        assert!(rt.partitioned());
        rt.slot = 6;
        rt.observe_topology(2, 1, 6.0); // still split: no duplicate event
        rt.slot = 9;
        rt.observe_topology(1, 0, 9.0);
        assert!(!rt.partitioned());
        assert_eq!(rt.events.len(), 2);
        assert!(matches!(
            rt.events[1],
            FaultEvent::Reconnected {
                slot: 9,
                after_slots: 4,
                ..
            }
        ));
    }

    #[test]
    fn recovery_overrides_point_bridgeheads_at_each_other() {
        use cps_geometry::Point2;
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(8.0, 0.0),
            Point2::new(30.0, 0.0),
            Point2::new(38.0, 0.0),
        ];
        let g = UnitDiskGraph::new(pts, 10.0).unwrap();
        assert_eq!(g.component_count(), 2);
        let overrides = recovery_overrides(&g);
        assert_eq!(overrides[0], None);
        assert_eq!(overrides[3], None);
        assert_eq!(overrides[1], Some(Point2::new(30.0, 0.0)));
        assert_eq!(overrides[2], Some(Point2::new(8.0, 0.0)));
        // Connected graph: no overrides at all.
        let g =
            UnitDiskGraph::new(vec![Point2::new(0.0, 0.0), Point2::new(5.0, 0.0)], 10.0).unwrap();
        assert!(recovery_overrides(&g).iter().all(Option::is_none));
    }

    #[test]
    fn stuck_sensor_freezes_then_recovers() {
        let plan = FaultPlan::builder().stuck_at(1.0, 2).build().unwrap();
        let mut rt = FaultState::new(plan, 1);
        let mut rng = rt.slot_rng();
        let f0 = rt.draw_sensor_faults(&mut rng, &[0], 10.0);
        assert_eq!(f0, vec![SensorFault::Stuck { frozen_time: 10.0 }]);
        rt.slot = 1;
        let mut rng = rt.slot_rng();
        let f1 = rt.draw_sensor_faults(&mut rng, &[0], 11.0);
        // Still frozen at the original time.
        assert_eq!(f1, vec![SensorFault::Stuck { frozen_time: 10.0 }]);
        rt.slot = 2;
        let mut rng = rt.slot_rng();
        let f2 = rt.draw_sensor_faults(&mut rng, &[0], 12.0);
        // Expired — but rate 1.0 immediately re-freezes at the new time.
        assert_eq!(f2, vec![SensorFault::Stuck { frozen_time: 12.0 }]);
    }
}
