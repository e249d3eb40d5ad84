//! One node-local iteration of the coordinated movement algorithm
//! (CMA, Table 2 of the paper).
//!
//! A node knows only what it sensed within `Rs` and what single-hop
//! neighbors reported within `Rc`. Each iteration it:
//!
//! 1. estimates its own Gaussian curvature by the quadric fit
//!    (Eqns. 11–13, lines 2–3);
//! 2. estimates the curvature at every sensed position and picks the
//!    hottest one `p_c` (lines 6–7);
//! 3. assembles the virtual forces `F1`, `F2`, `Fr` and the resultant
//!    `Fs = F1 + F2 + β·Fr` (lines 8–12);
//! 4. stops if balanced, otherwise heads a sensing-radius step in the
//!    `Fs` direction (lines 13–18).
//!
//! The complexity is `O(m + q)` per node and iteration (Theorem 5.1)
//! up to the curvature map of step 2, which the paper folds into its
//! `CdG` primitive; see the crate benches for the measured scaling.

use cps_geometry::{within, Point2};
use cps_linalg::Vec2;
use serde::{Deserialize, Serialize};

use super::curvature::{fit_quadric, fit_quadric_over};
use super::forces;
use crate::{CoreError, CpsConfig};

/// Curvature weights below this are treated as "flat" (no attraction)
/// rather than normalized up from numerical noise.
const CURVATURE_FLOOR: f64 = 1e-9;

/// Fraction of `Rc` at which the repulsion force rests. The paper's
/// Eqn. 17 rests exactly at `Rc`, parking every neighbor pair on the
/// connectivity cliff; a 5% margin keeps the discrete-time dynamics off
/// the cliff so edges survive one-slot jitter.
const REST_FRACTION: f64 = 0.95;

/// Parameters of a CMA iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmaConfig {
    /// Communication radius `Rc`.
    pub comm_radius: f64,
    /// Sensing radius `Rs` — the farthest a node will aim per iteration
    /// (Table 2 line 16 caps the desired step at `Rs`).
    pub sensing_radius: f64,
    /// Repulsion weight `β` (Eqn. 18).
    pub beta: f64,
    /// Gain applied to the (normalized) curvature attraction forces
    /// `F1` and `F2` relative to the repulsion `Fr`. The paper leaves
    /// the relative magnitude implicit; the gain decides how strongly
    /// nodes densify at curved terrain versus keeping uniform spacing.
    pub curvature_gain: f64,
    /// Gain applied to the peak-attraction force `F1` (Eqn. 14). Unit
    /// scale keeps it comparable to one neighbor's spring force; zero
    /// disables peak chasing entirely (ablation).
    pub peak_gain: f64,
    /// Reference curvature used to normalize weights: a weight equal to
    /// the reference maps to 1.0 (then multiplied by the gain); larger
    /// weights are clamped. In the distributed setting this is the
    /// gossiped network-wide maximum curvature (the single-hop exchange
    /// of Table 2 propagates it one hop per slot); the simulator keeps
    /// it as a decaying running maximum. Non-positive values disable
    /// the curvature forces.
    pub curvature_scale: f64,
    /// Exponent applied to normalized weights (`(w/scale)^exponent`).
    /// Gaussian curvature spans orders of magnitude on real terrain; a
    /// compressive exponent (mesh-adaptation theory suggests ¼–½ for
    /// piecewise-linear interpolation) lets moderate features
    /// participate instead of being drowned by the hottest peak.
    pub weight_exponent: f64,
    /// Normalized weights below this fraction of the reference are
    /// treated as flat terrain (zero weight). Without the floor, the
    /// residual curvature texture of real sensed data — noise, kernel
    /// artefacts, feature tails — feeds Eqn. 15's distance-weighted
    /// attraction everywhere and the whole lattice slowly collapses
    /// toward the curvature clusters.
    pub weight_floor: f64,
    /// Force magnitude below which the node declares itself balanced
    /// and stops (`Fs == 0` in the paper's idealized arithmetic).
    pub stop_threshold: f64,
}

impl CmaConfig {
    /// Derives CMA parameters from the shared node configuration, with
    /// a stop threshold scaled to the communication radius and the
    /// default curvature gain.
    pub fn from_cps(cfg: &CpsConfig) -> Self {
        CmaConfig {
            comm_radius: cfg.comm_radius(),
            sensing_radius: cfg.sensing_radius(),
            beta: cfg.beta(),
            curvature_gain: 0.5,
            peak_gain: 0.5,
            curvature_scale: 1.0,
            weight_exponent: 0.5,
            weight_floor: 0.3,
            stop_threshold: 0.04 * cfg.comm_radius(),
        }
    }
}

impl Default for CmaConfig {
    fn default() -> Self {
        CmaConfig::from_cps(&CpsConfig::default())
    }
}

/// What a node learned about one single-hop neighbor from the periodic
/// `(x, y, G)` exchange (Table 2 lines 4–5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborInfo {
    /// Neighbor position.
    pub position: Point2,
    /// Neighbor's self-reported Gaussian curvature.
    pub curvature: f64,
}

/// The movement decision of a CMA iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CmaAction {
    /// Forces are balanced; the node stays (Table 2 line 14).
    Stay,
    /// The node wants to move to this destination (Table 2 line 16);
    /// the simulator clamps the actual displacement to the node speed.
    MoveTo(Point2),
}

/// Everything a CMA iteration produces for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmaOutcome {
    /// The node's own estimated Gaussian curvature `G(nᵢ)`.
    pub curvature: f64,
    /// The hottest sensed position `p_c` and its curvature weight.
    pub peak: (Point2, f64),
    /// The peak-attraction component `F1` (Eqn. 14).
    pub f1: Vec2,
    /// The neighbor curvature-balance component `F2` (Eqn. 15).
    pub f2: Vec2,
    /// The spacing repulsion `Fr` (Eqn. 17), before the `β` weight.
    pub fr: Vec2,
    /// The resultant force `Fs` (Eqn. 18).
    pub force: Vec2,
    /// The movement decision.
    pub action: CmaAction,
}

/// Runs one CMA iteration for the node at `position` with sensed value
/// `value`.
///
/// * `sensed` — `(position, value)` pairs within `Rs` (the paper's
///   `M[m][3]`), typically including the node's own position;
/// * `neighbors` — single-hop neighbor reports (the paper's `N[q][3]`).
///
/// # Errors
///
/// * [`CoreError::TooFewSamplesForFit`] / [`CoreError::DegenerateFit`]
///   — the node's own curvature cannot be estimated from `sensed`.
///   (Curvature estimates at *other* sensed positions that fail are
///   skipped with weight zero rather than failing the step.)
///
/// # Example
///
/// ```
/// use cps_core::ostd::{cma_step, CmaAction, CmaConfig, NeighborInfo};
/// use cps_geometry::Point2;
///
/// // Sense a bowl z = x² + y² centred at (3, 0): the node at the
/// // origin should be pulled toward positive x.
/// let f = |x: f64, y: f64| (x - 3.0) * (x - 3.0) + y * y;
/// let mut sensed = Vec::new();
/// for dx in -3i32..=3 {
///     for dy in -3i32..=3 {
///         let (x, y) = (dx as f64, dy as f64);
///         if x * x + y * y <= 9.0 {
///             sensed.push((Point2::new(x, y), f(x, y)));
///         }
///     }
/// }
/// let out = cma_step(
///     Point2::new(0.0, 0.0),
///     f(0.0, 0.0),
///     &sensed,
///     &[],
///     &CmaConfig::default(),
/// )
/// .unwrap();
/// assert!(matches!(out.action, CmaAction::MoveTo(_)));
/// ```
pub fn cma_step(
    position: Point2,
    value: f64,
    sensed: &[(Point2, f64)],
    neighbors: &[NeighborInfo],
    cfg: &CmaConfig,
) -> Result<CmaOutcome, CoreError> {
    step_with(position, value, sensed, neighbors, cfg, hottest_sensed)
}

/// Lines 6–7: the hottest sensed candidate, starting from the node's
/// own weight at `position`.
///
/// Only positions within `half` (Rs/2) are candidates, and each is
/// fitted over the samples within `half` of *itself*: a candidate near
/// the edge of the sensing disc would otherwise be fitted from
/// one-sided samples, and such extrapolative fits report wildly
/// inflated curvature (phantom peaks at the disc boundary that keep
/// every node moving forever). Degenerate fits get weight zero instead
/// of failing the whole step.
///
/// Both filters use [`within`], which decides `distance <= r` exactly
/// without a square root for all but the samples on the rim.
/// `!within(p, position, half)` and `p.distance(position) > half`
/// differ only when the distance or `half` is NaN, and such a candidate
/// can never win. If `position` is NaN, the starting weight is NaN and
/// no `weight > NaN`. If `p` or `half` is NaN, no sample lies within
/// `half` of `p`, so its fit fails with weight 0, which never exceeds
/// the running peak (non-negative or NaN).
fn hottest_sensed(
    position: Point2,
    own: f64,
    sensed: &[(Point2, f64)],
    half: f64,
) -> (Point2, f64) {
    let mut peak = (position, own);
    for &(p, z) in sensed {
        if within(p, position, f64::EPSILON) || !within(p, position, half) {
            continue;
        }
        let local = sensed.iter().copied().filter(|&(s, _)| within(s, p, half));
        let weight = fit_quadric_over(p, z, local)
            .map(|fit| fit.curvature_weight())
            .unwrap_or(0.0);
        if weight > peak.1 {
            peak = (p, weight);
        }
    }
    peak
}

/// A candidate search for lines 6–7: `(position, own weight, sensed,
/// Rs/2)` to the hottest `(position, weight)`.
type CandidateSearch = fn(Point2, f64, &[(Point2, f64)], f64) -> (Point2, f64);

/// [`cma_step`] with the candidate search of lines 6–7 supplied by the
/// caller (the tests pin [`hottest_sensed`] against a reference
/// `hypot` filter through it).
fn step_with(
    position: Point2,
    value: f64,
    sensed: &[(Point2, f64)],
    neighbors: &[NeighborInfo],
    cfg: &CmaConfig,
    hottest: CandidateSearch,
) -> Result<CmaOutcome, CoreError> {
    // Lines 2–3: own curvature from the local quadric fit.
    let own_fit = fit_quadric(position, value, sensed)?;
    let own_curvature = own_fit.gaussian_curvature();

    // Lines 6–7: curvature at sensed positions; hottest wins.
    let peak = hottest(
        position,
        own_fit.curvature_weight(),
        sensed,
        cfg.sensing_radius / 2.0,
    );

    // Lines 8–12: virtual forces. Curvature weights are normalized by
    // the network-wide reference scale: raw Gaussian curvatures scale
    // with the inverse square of the region size (a surface stretched
    // over a 100 m region has |G| ~ 10⁻³), which would let the
    // repulsion term drown the curvature terms for any fixed β.
    // Normalizing by a *global* reference (rather than the local
    // maximum) matters: a local normalization makes the faintest
    // neighborhood look maximally curved and the node never settles.
    // See DESIGN.md.
    let norm = |w: f64| -> f64 {
        if cfg.curvature_scale > CURVATURE_FLOOR {
            let nw = (w.abs() / cfg.curvature_scale)
                .min(1.0)
                .powf(cfg.weight_exponent);
            if nw < cfg.weight_floor {
                0.0
            } else {
                nw
            }
        } else {
            0.0
        }
    };
    // The gain applies to the *pairwise* F2 term only. Combined with
    // the repulsion, each neighbor pair behaves as a spring with rest
    // length `rest·β/(β + w·gain)` — hot pairs compress, cold pairs
    // keep the uniform spacing. Amplifying F1 as well would let nodes
    // pile onto curvature peaks with nothing to balance them.
    let nbr_pairs: Vec<(Point2, f64)> = neighbors
        .iter()
        .map(|n| (n.position, norm(n.curvature) * cfg.curvature_gain))
        .collect();
    let f1 = forces::attraction_to_peak(position, peak.0, norm(peak.1) * cfg.peak_gain);
    let f2 = forces::neighbor_attraction(position, &nbr_pairs);
    let fr = forces::repulsion(position, &nbr_pairs, REST_FRACTION * cfg.comm_radius);
    let fs = forces::resultant(f1, f2, fr, cfg.beta);

    // Lines 13–18: stop, or head along Fs. The displacement is
    // proportional to the force and capped at Rs: a literal fixed-Rs
    // jump (the pseudocode's reading) makes nodes orbit their
    // equilibrium forever instead of settling — force-proportional
    // steps converge onto the balance point the stop test expects.
    let action = if fs.norm() <= cfg.stop_threshold {
        CmaAction::Stay
    } else {
        CmaAction::MoveTo(position + fs.clamp_norm(cfg.sensing_radius))
    };

    Ok(CmaOutcome {
        curvature: own_curvature,
        peak,
        f1,
        f2,
        fr,
        force: fs,
        action,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{Field, GaussianBlob, PlaneField};

    fn sense<F: Field>(field: &F, center: Point2, rs: f64) -> Vec<(Point2, f64)> {
        let mut out = Vec::new();
        let r = rs.ceil() as i32;
        for dx in -r..=r {
            for dy in -r..=r {
                let p = Point2::new(center.x + dx as f64, center.y + dy as f64);
                if center.distance(p) <= rs {
                    out.push((p, field.value(p)));
                }
            }
        }
        out
    }

    fn cfg() -> CmaConfig {
        CmaConfig::default()
    }

    #[test]
    fn flat_field_with_no_neighbors_is_stationary() {
        let f = PlaneField::new(0.0, 0.0, 5.0);
        let n = Point2::new(50.0, 50.0);
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &[], &cfg()).unwrap();
        assert_eq!(out.action, CmaAction::Stay);
        assert!(out.force.norm() <= cfg().stop_threshold);
        assert!(out.curvature.abs() < 1e-9);
    }

    #[test]
    fn node_heads_toward_curvature_peak() {
        // A sharp blob at (53, 50); node at (50, 50) senses its flank.
        let f = GaussianBlob::isotropic(Point2::new(53.0, 50.0), 10.0, 1.5);
        let n = Point2::new(50.0, 50.0);
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &[], &cfg()).unwrap();
        let CmaAction::MoveTo(dest) = out.action else {
            panic!("expected movement, got {:?}", out.action);
        };
        // Destination is at most Rs away, toward the blob.
        assert!(dest.distance(n) <= 5.0 + 1e-9);
        assert!(dest.distance(n) > 0.0);
        assert!(dest.x > n.x, "moved {dest:?}, expected +x");
        assert!(out.peak.1 > 0.0);
    }

    #[test]
    fn crowded_neighbor_pushes_node_away_on_flat_field() {
        let f = PlaneField::new(0.0, 0.0, 1.0);
        let n = Point2::new(50.0, 50.0);
        // Neighbor very close on the +x side, zero curvature everywhere:
        // only repulsion acts.
        let nbr = [NeighborInfo {
            position: Point2::new(51.0, 50.0),
            curvature: 0.0,
        }];
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &nbr, &cfg()).unwrap();
        let CmaAction::MoveTo(dest) = out.action else {
            panic!("expected repulsion to move the node");
        };
        assert!(dest.x < n.x);
    }

    #[test]
    fn neighbor_curvature_balance_holds_node() {
        // Symmetric equal-curvature neighbors + flat sensing: balanced.
        let f = PlaneField::new(0.0, 0.0, 1.0);
        let n = Point2::new(50.0, 50.0);
        let nbrs = [
            NeighborInfo {
                position: Point2::new(58.0, 50.0),
                curvature: 3.0,
            },
            NeighborInfo {
                position: Point2::new(42.0, 50.0),
                curvature: 3.0,
            },
            NeighborInfo {
                position: Point2::new(50.0, 58.0),
                curvature: 3.0,
            },
            NeighborInfo {
                position: Point2::new(50.0, 42.0),
                curvature: 3.0,
            },
        ];
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &nbrs, &cfg()).unwrap();
        assert_eq!(out.action, CmaAction::Stay, "force {:?}", out.force);
    }

    #[test]
    fn beta_scales_repulsion_influence() {
        let f = PlaneField::new(0.0, 0.0, 1.0);
        let n = Point2::new(50.0, 50.0);
        let nbr = [NeighborInfo {
            position: Point2::new(52.0, 50.0),
            curvature: 0.0,
        }];
        let weak = CmaConfig { beta: 0.5, ..cfg() };
        let strong = CmaConfig { beta: 4.0, ..cfg() };
        let s = sense(&f, n, 5.0);
        let fw = cma_step(n, f.value(n), &s, &nbr, &weak).unwrap().force;
        let fs = cma_step(n, f.value(n), &s, &nbr, &strong).unwrap().force;
        assert!(fs.norm() > fw.norm());
    }

    #[test]
    fn insufficient_sensing_is_an_error() {
        let n = Point2::new(0.0, 0.0);
        let err = cma_step(n, 0.0, &[], &[], &cfg()).unwrap_err();
        assert!(matches!(err, CoreError::TooFewSamplesForFit { .. }));
    }

    /// The reference candidate search, filtering all samples by
    /// `hypot` distance for each candidate: [`hottest_sensed`] must
    /// match it bit for bit.
    fn hottest_sensed_oracle(
        position: Point2,
        own: f64,
        sensed: &[(Point2, f64)],
        half: f64,
    ) -> (Point2, f64) {
        let mut peak = (position, own);
        let mut local: Vec<(Point2, f64)> = Vec::with_capacity(sensed.len());
        for &(p, z) in sensed {
            if p.distance(position) <= f64::EPSILON || p.distance(position) > half {
                continue;
            }
            local.clear();
            local.extend(
                sensed
                    .iter()
                    .filter(|(s, _)| s.distance(p) <= half)
                    .copied(),
            );
            let weight = fit_quadric(p, z, &local)
                .map(|fit| fit.curvature_weight())
                .unwrap_or(0.0);
            if weight > peak.1 {
                peak = (p, weight);
            }
        }
        peak
    }

    fn outcome_bits(out: &CmaOutcome) -> Vec<u64> {
        let v = |v: Vec2| [v.x.to_bits(), v.y.to_bits()];
        let mut bits = vec![
            out.curvature.to_bits(),
            out.peak.0.x.to_bits(),
            out.peak.0.y.to_bits(),
            out.peak.1.to_bits(),
        ];
        for f in [out.f1, out.f2, out.fr, out.force] {
            bits.extend(v(f));
        }
        match out.action {
            CmaAction::Stay => bits.push(0),
            CmaAction::MoveTo(d) => bits.extend([1, d.x.to_bits(), d.y.to_bits()]),
        }
        bits
    }

    /// Senses a lattice disc exactly as the simulator does: offsets
    /// `d·spacing` from a float centre, kept by `hypot` distance.
    fn sense_disc(
        f: &dyn Fn(f64, f64) -> f64,
        c: Point2,
        rs: f64,
        spacing: f64,
    ) -> Vec<(Point2, f64)> {
        let steps = (rs / spacing).floor() as i32;
        let mut out = Vec::new();
        for dx in -steps..=steps {
            for dy in -steps..=steps {
                let p = Point2::new(c.x + dx as f64 * spacing, c.y + dy as f64 * spacing);
                if c.distance(p) <= rs {
                    out.push((p, f(p.x, p.y)));
                }
            }
        }
        out
    }

    #[test]
    fn candidate_search_matches_the_hypot_oracle_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut checked = 0;
        for case in 0..500 {
            let c = Point2::new(rng.gen_range(-20.0..160.0), rng.gen_range(-20.0..160.0));
            let (rs, spacing) = match case % 5 {
                0 => (5.0, 1.0),
                1 => (rng.gen_range(2.0..7.0), 1.0),
                2 => (5.0, rng.gen_range(0.4..1.3)),
                3 => (rng.gen_range(1.5..6.0), rng.gen_range(0.3..1.0)),
                // Rs/2 a whole multiple of the spacing: candidates and
                // samples at lattice offsets (3, 4) and (5, 0) sit on
                // the Rs/2 rim up to rounding.
                _ => [(10.0, 1.0), (5.0, 0.5), (6.0, 0.6), (4.0, 0.4)][case % 4],
            };
            let (px, py) = (rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
            let (sx, sy) = (rng.gen_range(1.0..8.0), rng.gen_range(1.0..8.0));
            let amp = rng.gen_range(-3.0..3.0);
            let noise = rng.gen_range(0.0..0.05);
            let field = move |x: f64, y: f64| {
                let (u, v) = ((x - c.x - px) / sx, (y - c.y - py) / sy);
                amp * (-0.5 * (u * u + v * v)).exp() + noise * (7.3 * x).sin() * (5.1 * y).cos()
            };
            let mut sensed = sense_disc(&field, c, rs, spacing);
            if case % 9 == 0 {
                // A corrupted reading at a non-finite position.
                sensed.push((Point2::new(f64::NAN, c.y), 1.0));
            }
            let nbrs: Vec<NeighborInfo> = (0..rng.gen_range(0..6))
                .map(|_| NeighborInfo {
                    position: Point2::new(
                        c.x + rng.gen_range(-10.0..10.0),
                        c.y + rng.gen_range(-10.0..10.0),
                    ),
                    curvature: rng.gen_range(0.0..2.0),
                })
                .collect();
            let cfg = CmaConfig {
                sensing_radius: rs,
                curvature_scale: rng.gen_range(0.001..2.0),
                ..cfg()
            };
            let value = field(c.x, c.y);
            let fast = step_with(c, value, &sensed, &nbrs, &cfg, hottest_sensed);
            let slow = step_with(c, value, &sensed, &nbrs, &cfg, hottest_sensed_oracle);
            match (fast, slow) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(outcome_bits(&a), outcome_bits(&b), "case {case}");
                    checked += 1;
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                (a, b) => panic!("case {case}: {a:?} vs {b:?}"),
            }
            assert_eq!(
                outcome_bits(&cma_step(c, value, &sensed, &nbrs, &cfg).unwrap()),
                outcome_bits(
                    &step_with(c, value, &sensed, &nbrs, &cfg, hottest_sensed_oracle).unwrap()
                ),
            );
        }
        assert!(checked > 450);
    }

    #[test]
    fn candidate_search_matches_the_oracle_on_degenerate_inputs() {
        let sensed = sense_disc(&|x, y| x * x - y * y, Point2::new(3.0, 4.0), 5.0, 1.0);
        for position in [
            Point2::new(f64::NAN, 4.0),
            Point2::new(f64::INFINITY, 4.0),
            Point2::new(3.0, 4.0),
            Point2::new(3.0 + 2.5, 4.0),
        ] {
            for rs in [5.0, 2.0 * f64::EPSILON, 0.0] {
                let cfg = CmaConfig {
                    sensing_radius: rs,
                    ..cfg()
                };
                let fast = step_with(position, 0.0, &sensed, &[], &cfg, hottest_sensed);
                let slow = step_with(position, 0.0, &sensed, &[], &cfg, hottest_sensed_oracle);
                match (fast, slow) {
                    (Ok(a), Ok(b)) => assert_eq!(outcome_bits(&a), outcome_bits(&b)),
                    (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                    (a, b) => panic!("position {position}, rs {rs}: {a:?} vs {b:?}"),
                }
            }
        }
        // A NaN radius (no valid configuration has one) keeps every
        // candidate in the oracle and none in the fast search; either
        // way nothing beats a non-negative or NaN starting weight.
        let position = Point2::new(3.0, 4.0);
        for own in [0.0, 0.5, f64::NAN] {
            let a = hottest_sensed(position, own, &sensed, f64::NAN);
            let b = hottest_sensed_oracle(position, own, &sensed, f64::NAN);
            assert_eq!(
                (a.0.x.to_bits(), a.0.y.to_bits(), a.1.to_bits()),
                (b.0.x.to_bits(), b.0.y.to_bits(), b.1.to_bits())
            );
        }
    }

    #[test]
    fn config_from_cps_defaults() {
        let c = CmaConfig::default();
        assert_eq!(c.comm_radius, 10.0);
        assert_eq!(c.sensing_radius, 5.0);
        assert_eq!(c.beta, 2.0);
        assert!(c.stop_threshold > 0.0);
    }
}
