//! The synthetic forest generator.
//!
//! The latent environment is a physically motivated light model:
//!
//! * **ambient sky light** follows a diurnal curve, zero at night and
//!   peaking around solar noon;
//! * the **canopy** transmits a position-dependent fraction of it — a
//!   low base transmission with Gaussian *gap* openings where the crown
//!   is thin (these produce the bright patches visible in the paper's
//!   Fig. 1);
//! * **sun flecks** — small bright spots that drift westward over the
//!   day as the sun angle changes, making the field genuinely
//!   time-varying for the OSTD experiments;
//! * temperature follows the ambient curve with local light coupling;
//!   humidity runs inverse to temperature.
//!
//! Node readings add per-reading measurement noise. Everything is
//! seeded: the same [`ForestConfig`] always yields the same trace.

use cps_field::{lattice_keeps, TimeVaryingField};
use cps_geometry::Point2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::records::{NodeMeta, SensorReading};

/// Configuration of the synthetic forest trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// RNG seed; the trace is a pure function of the configuration.
    pub seed: u64,
    /// Side of the square forest plot, metres. The default 141.4 m
    /// gives the paper's "nearly 20 000 square meters".
    pub side: f64,
    /// Number of sensor nodes (GreenOrbs: 1000+).
    pub node_count: usize,
    /// Hours of trace to generate.
    pub hours: u32,
    /// Hour-of-day of hour index 0 (readings are hourly).
    pub start_hour_of_day: u32,
    /// Number of canopy gaps.
    pub gap_count: usize,
    /// Number of drifting sun flecks.
    pub fleck_count: usize,
    /// Standard deviation of per-reading measurement noise, as a
    /// fraction of the channel's typical scale.
    pub noise: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            seed: 0x9e3779b97f4a7c15,
            side: 141.4,
            node_count: 1000,
            hours: 24,
            start_hour_of_day: 0,
            gap_count: 8,
            fleck_count: 18,
            noise: 0.005,
        }
    }
}

/// A Gaussian feature of the latent model.
#[derive(Debug, Clone, Copy)]
struct Feature {
    center: Point2,
    amplitude: f64,
    sigma_x: f64,
    sigma_y: f64,
    /// Drift of the centre per hour past solar noon (sun-fleck motion).
    drift: (f64, f64),
}

impl Feature {
    /// `((x − cx)/σx)²` against the centre `hours_past_noon` after
    /// solar noon.
    fn qx(&self, x: f64, hours_past_noon: f64) -> f64 {
        let dx = (x - (self.center.x + self.drift.0 * hours_past_noon)) / self.sigma_x;
        dx * dx
    }

    /// `((y − cy)/σy)²`, as [`Feature::qx`].
    fn qy(&self, y: f64, hours_past_noon: f64) -> f64 {
        let dy = (y - (self.center.y + self.drift.1 * hours_past_noon)) / self.sigma_y;
        dy * dy
    }

    fn value(&self, p: Point2, hours_past_noon: f64) -> f64 {
        self.amplitude
            * (-0.5 * (self.qx(p.x, hours_past_noon) + self.qy(p.y, hours_past_noon))).exp()
    }

    /// The exponent below which this feature's term is negligible.
    ///
    /// Every transmission term a [`LatentModel`] adds to its 0.04 shade
    /// base is non-negative, so the running sum never drops below 0.04
    /// and its ulp never below that of 0.04, which lies in
    /// `[2⁻⁵, 2⁻⁴)`: 2⁻⁵⁷. A term below half of that, 2⁻⁵⁸, rounds
    /// away — `t + x` is exactly `t` for every `0 ≤ x < 2⁻⁵⁸` under
    /// round-to-nearest. For an exponent `a` below
    /// `ln(2⁻⁵⁸ / amplitude) − 1` the computed term is
    /// `amplitude · exp(a) < 2⁻⁵⁸ · e⁻¹ · (1 + 2⁻⁵⁰) < 2⁻⁵⁸`: the margin
    /// of 1 dwarfs the few-ulp errors of `ln`, `exp` and the product.
    /// So skipping such a term cannot change `t`. A NaN exponent is
    /// never below the cutoff, so NaN still propagates.
    fn negligible_exponent(&self) -> f64 {
        (2f64.powi(-58) / self.amplitude).ln() - 1.0
    }
}

/// Folds one transmission term into the running sum `t` of every kept
/// point of a `cols.len() × rows.len()` lattice (row-major), given the
/// term's operand for each column and each row.
fn add_term(
    t: &mut [f64],
    kept: &[bool],
    cols: &[f64],
    rows: &[f64],
    term: impl Fn(f64, f64, f64) -> f64,
) {
    for (j, &row) in rows.iter().enumerate() {
        for (i, &col) in cols.iter().enumerate() {
            let k = j * cols.len() + i;
            if kept[k] {
                t[k] = term(t[k], col, row);
            }
        }
    }
}

/// The latent (noise-free) environment model.
#[derive(Debug, Clone)]
pub(crate) struct LatentModel {
    side: f64,
    start_hour_of_day: u32,
    gaps: Vec<Feature>,
    flecks: Vec<Feature>,
    /// Smooth large-scale canopy-density variation.
    density_waves: Vec<(f64, f64, f64, f64)>, // (kx, ky, phase, amp)
    /// [`Feature::negligible_exponent`] of each gap, then each fleck.
    negligible: Vec<f64>,
}

impl LatentModel {
    fn new(cfg: &ForestConfig, rng: &mut StdRng) -> Self {
        // Canopy gaps cluster into a few clearings (blowdowns, old
        // logging patches): most of the plot is deep shade, and the
        // photic structure concentrates where the crown is open. This
        // clustering is what makes non-uniform node densities pay off.
        let clearing_count = 3.max(cfg.gap_count / 4).min(4);
        let clearings: Vec<Point2> = (0..clearing_count)
            .map(|_| {
                Point2::new(
                    rng.gen_range(0.28 * cfg.side..0.72 * cfg.side),
                    rng.gen_range(0.28 * cfg.side..0.72 * cfg.side),
                )
            })
            .collect();
        let mut gaps = Vec::with_capacity(cfg.gap_count);
        for i in 0..cfg.gap_count {
            let host = clearings[i % clearings.len()];
            gaps.push(Feature {
                center: Point2::new(
                    (host.x + rng.gen_range(-10.0..10.0)).clamp(0.0, cfg.side),
                    (host.y + rng.gen_range(-10.0..10.0)).clamp(0.0, cfg.side),
                ),
                amplitude: rng.gen_range(0.1..0.3),
                sigma_x: rng.gen_range(5.0..9.0),
                sigma_y: rng.gen_range(5.0..9.0),
                drift: (0.0, 0.0),
            });
        }
        // Sun flecks live *inside* canopy gaps (light only reaches the
        // floor where the crown is open), so the fine detail of the
        // field is spatially clustered — the property that makes
        // curvature-weighted node densities pay off.
        let mut flecks = Vec::with_capacity(cfg.fleck_count);
        for i in 0..cfg.fleck_count {
            let host = &gaps[i % gaps.len().max(1)];
            let cx = host.center.x + rng.gen_range(-1.0..1.0) * host.sigma_x;
            let cy = host.center.y + rng.gen_range(-1.0..1.0) * host.sigma_y;
            flecks.push(Feature {
                center: Point2::new(cx.clamp(0.0, cfg.side), cy.clamp(0.0, cfg.side)),
                amplitude: rng.gen_range(0.4..0.9),
                sigma_x: rng.gen_range(4.5..7.0),
                sigma_y: rng.gen_range(4.5..7.0),
                // Flecks slide west-ish as the sun moves east→west.
                drift: (rng.gen_range(-4.0..-1.5), rng.gen_range(-1.0..1.0)),
            });
        }
        let mut density_waves = Vec::new();
        for _ in 0..3 {
            density_waves.push((
                rng.gen_range(0.01..0.05),
                rng.gen_range(0.01..0.05),
                rng.gen_range(0.0..std::f64::consts::TAU),
                rng.gen_range(0.02..0.06),
            ));
        }
        let negligible = gaps
            .iter()
            .chain(&flecks)
            .map(Feature::negligible_exponent)
            .collect();
        LatentModel {
            side: cfg.side,
            start_hour_of_day: cfg.start_hour_of_day,
            gaps,
            flecks,
            density_waves,
            negligible,
        }
    }

    /// Hour-of-day of trace hour `hour` (fractional hours allowed).
    fn hour_of_day(&self, hour: f64) -> f64 {
        (self.start_hour_of_day as f64 + hour).rem_euclid(24.0)
    }

    /// Ambient above-canopy illumination, KLux.
    fn ambient(&self, hour: f64) -> f64 {
        let h = self.hour_of_day(hour);
        if !(6.0..=18.0).contains(&h) {
            return 0.0;
        }
        // Peaks at 60 KLux around solar noon; the clipped sine gives a
        // mid-day plateau (thin-cloud diffusion), so morning experiment
        // windows are not dominated by the raw brightness ramp.
        (60.0 * 1.3 * (std::f64::consts::PI * (h - 6.0) / 12.0).sin().max(0.0)).min(60.0)
    }

    /// Canopy transmission fraction at `p` (0..1-ish).
    fn transmission(&self, p: Point2, hours_past_noon: f64) -> f64 {
        let mut t = 0.04; // deep-shade base
        for (kx, ky, phase, amp) in &self.density_waves {
            t += 0.4 * amp * (kx * p.x + ky * p.y + phase).sin().abs();
        }
        for (f, h) in self.features(hours_past_noon) {
            t += f.value(p, h);
        }
        t.clamp(0.0, 0.95)
    }

    /// Every Gaussian feature in summation order — the gaps, which do
    /// not drift, then the flecks — with the hours past noon to place
    /// it at.
    fn features(&self, hours_past_noon: f64) -> impl Iterator<Item = (&Feature, f64)> {
        let gaps = self.gaps.iter().map(|g| (g, 0.0));
        gaps.chain(self.flecks.iter().map(move |f| (f, hours_past_noon)))
    }

    /// Light in KLux at position `p` and fractional trace hour `hour`.
    pub(crate) fn light(&self, p: Point2, hour: f64) -> f64 {
        let h = self.hour_of_day(hour);
        self.ambient(hour) * self.transmission(p, h - 12.0)
    }

    /// [`LatentModel::light`] at every kept point of the lattice
    /// `xs × ys` (row-major, NaN where `keep` says no), bitwise equal
    /// to the pointwise call.
    ///
    /// Every point's transmission is summed term by term in the
    /// pointwise order, one term across the whole lattice at a time, so
    /// each term's per-column and per-row operands (`kx·x`, `ky·y`, a
    /// Gaussian's squared normalized offsets) are computed once per
    /// column and row; the ambient level and hour once per batch. Two
    /// kinds of Gaussian term are skipped because they cannot change
    /// the result: terms below [`Feature::negligible_exponent`], and
    /// every term once a point's sum has reached the 0.95 clamp — a
    /// sum that is not NaN proves the point's coordinates are not NaN,
    /// so the terms still to come are non-negative and the clamp
    /// returns 0.95 whatever they add.
    fn light_lattice(&self, xs: &[f64], ys: &[f64], hour: f64, keep: Option<&[bool]>) -> Vec<f64> {
        let ambient = self.ambient(hour);
        let hours_past_noon = self.hour_of_day(hour) - 12.0;
        let kept: Vec<bool> = (0..xs.len() * ys.len())
            .map(|k| lattice_keeps(keep, k))
            .collect();
        let mut t = vec![0.04; kept.len()];
        let mut cols = Vec::with_capacity(xs.len());
        let mut rows = Vec::with_capacity(ys.len());
        for &(kx, ky, phase, amp) in &self.density_waves {
            cols.clear();
            cols.extend(xs.iter().map(|&x| kx * x));
            rows.clear();
            rows.extend(ys.iter().map(|&y| ky * y));
            add_term(&mut t, &kept, &cols, &rows, |t, kx_x, ky_y| {
                t + 0.4 * amp * (kx_x + ky_y + phase).sin().abs()
            });
        }
        for ((f, h), &cutoff) in self.features(hours_past_noon).zip(&self.negligible) {
            cols.clear();
            cols.extend(xs.iter().map(|&x| f.qx(x, h)));
            rows.clear();
            rows.extend(ys.iter().map(|&y| f.qy(y, h)));
            add_term(&mut t, &kept, &cols, &rows, |t, qx, qy| {
                let a = -0.5 * (qx + qy);
                if a < cutoff || t >= 0.95 {
                    t
                } else {
                    t + f.amplitude * a.exp()
                }
            });
        }
        t.iter()
            .zip(&kept)
            .map(|(&t, &kept)| {
                if kept {
                    ambient * t.clamp(0.0, 0.95)
                } else {
                    f64::NAN
                }
            })
            .collect()
    }

    /// Temperature in °C.
    pub(crate) fn temperature(&self, p: Point2, hour: f64) -> f64 {
        // Base 8 °C at night, up to ~+10 °C at noon, plus a light
        // coupling (sunlit spots are warmer).
        8.0 + 10.0 * self.ambient(hour) / 60.0 + 0.08 * self.light(p, hour)
    }

    /// Relative humidity in %.
    pub(crate) fn humidity(&self, p: Point2, hour: f64) -> f64 {
        (95.0 - 2.2 * (self.temperature(p, hour) - 8.0)).clamp(20.0, 100.0)
    }

    /// Side of the plot.
    pub(crate) fn side(&self) -> f64 {
        self.side
    }
}

/// The *true* (noise-free) light environment behind a synthetic trace,
/// as a continuous time-varying field with time in **minutes**
/// (matching the OSTD simulator's clock: hour `h` is `t = 60·h`).
///
/// The OSTD experiments evaluate exploration against this latent truth:
/// mobile nodes sample the real environment, and reconstruction quality
/// is judged against the environment itself rather than against a
/// smoothed re-interpolation of the scattered trace (whose kernel
/// texture would dominate the curvature signal).
///
/// # Example
///
/// ```
/// use cps_field::TimeVaryingField;
/// use cps_geometry::Point2;
/// use cps_greenorbs::{ForestConfig, LatentLightField};
///
/// let field = LatentLightField::new(&ForestConfig::default());
/// let noon = field.value_at(Point2::new(70.0, 70.0), 12.0 * 60.0);
/// let night = field.value_at(Point2::new(70.0, 70.0), 2.0 * 60.0);
/// assert!(noon > night);
/// ```
#[derive(Debug, Clone)]
pub struct LatentLightField {
    model: LatentModel,
}

impl LatentLightField {
    /// Builds the latent field for `config` (the same one that
    /// generated / would generate the trace readings).
    pub fn new(config: &ForestConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        LatentLightField {
            model: LatentModel::new(config, &mut rng),
        }
    }

    /// Side of the forest plot, metres.
    pub fn side(&self) -> f64 {
        self.model.side()
    }
}

impl TimeVaryingField for LatentLightField {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        self.model.light(p, t / 60.0)
    }

    fn sample_lattice_at(&self, xs: &[f64], ys: &[f64], t: f64, keep: Option<&[bool]>) -> Vec<f64> {
        self.model.light_lattice(xs, ys, t / 60.0, keep)
    }
}

/// Generates node metadata, readings and the latent model.
pub(crate) fn generate(cfg: &ForestConfig) -> (Vec<NodeMeta>, Vec<SensorReading>, LatentModel) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = LatentModel::new(cfg, &mut rng);

    let nodes: Vec<NodeMeta> = (0..cfg.node_count)
        .map(|id| NodeMeta {
            id: id as u32,
            x: rng.gen_range(0.0..cfg.side),
            y: rng.gen_range(0.0..cfg.side),
        })
        .collect();

    let mut readings = Vec::with_capacity(cfg.node_count * cfg.hours as usize);
    for hour in 0..cfg.hours {
        for n in &nodes {
            let p = Point2::new(n.x, n.y);
            let t = hour as f64;
            let light = model.light(p, t);
            let temperature = model.temperature(p, t);
            let humidity = model.humidity(p, t);
            readings.push(SensorReading {
                node_id: n.id,
                hour,
                light: (light * (1.0 + cfg.noise * rng.gen_range(-1.0..1.0))).max(0.0),
                temperature: temperature + 20.0 * cfg.noise * rng.gen_range(-1.0..1.0),
                humidity: (humidity * (1.0 + cfg.noise * rng.gen_range(-1.0..1.0)))
                    .clamp(0.0, 100.0),
            });
        }
    }
    (nodes, readings, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> ForestConfig {
        ForestConfig {
            node_count: 50,
            hours: 24,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (n1, r1, _) = generate(&small());
        let (n2, r2, _) = generate(&small());
        assert_eq!(n1, n2);
        assert_eq!(r1, r2);
        let other = ForestConfig { seed: 1, ..small() };
        let (n3, _, _) = generate(&other);
        assert_ne!(n1, n3);
    }

    #[test]
    fn counts_and_bounds() {
        let cfg = small();
        let (nodes, readings, _) = generate(&cfg);
        assert_eq!(nodes.len(), 50);
        assert_eq!(readings.len(), 50 * 24);
        assert!(nodes.iter().all(|n| (0.0..=cfg.side).contains(&n.x)));
        assert!(readings.iter().all(|r| r.light >= 0.0));
        assert!(readings.iter().all(|r| (0.0..=100.0).contains(&r.humidity)));
    }

    #[test]
    fn night_is_dark_noon_is_bright() {
        let (_, readings, _) = generate(&small());
        let at = |h: u32| -> f64 {
            let rs: Vec<f64> = readings
                .iter()
                .filter(|r| r.hour == h)
                .map(|r| r.light)
                .collect();
            rs.iter().sum::<f64>() / rs.len() as f64
        };
        assert_eq!(at(2), 0.0); // 02:00 — night
        assert!(at(12) > 1.0); // noon — canopy-filtered daylight
        assert!(at(12) > at(8));
    }

    #[test]
    fn temperature_tracks_daylight_and_humidity_inverts() {
        let (_, readings, _) = generate(&small());
        let mean = |h: u32, f: fn(&SensorReading) -> f64| -> f64 {
            let v: Vec<f64> = readings.iter().filter(|r| r.hour == h).map(f).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(12, |r| r.temperature) > mean(2, |r| r.temperature));
        assert!(mean(12, |r| r.humidity) < mean(2, |r| r.humidity));
    }

    #[test]
    fn flecks_move_between_hours() {
        // The light field at a fixed point changes shape between 10:00
        // and 14:00 by more than the pure ambient rescaling.
        let (_, _, model) = generate(&small());
        let p = Point2::new(50.0, 50.0);
        let q = Point2::new(90.0, 90.0);
        let ratio_p = model.light(p, 14.0) / model.light(p, 10.0).max(1e-9);
        let ratio_q = model.light(q, 14.0) / model.light(q, 10.0).max(1e-9);
        // Pure rescaling would give identical ratios everywhere.
        assert!((ratio_p - ratio_q).abs() > 1e-3);
    }

    /// Asserts the lattice path reproduces `value_at` bit for bit at
    /// every kept point and leaves the rest NaN.
    fn assert_lattice_bitwise(
        field: &LatentLightField,
        xs: &[f64],
        ys: &[f64],
        minutes: f64,
        keep: Option<&[bool]>,
    ) {
        let got = field.sample_lattice_at(xs, ys, minutes, keep);
        assert_eq!(got.len(), xs.len() * ys.len());
        for (j, &y) in ys.iter().enumerate() {
            for (i, &x) in xs.iter().enumerate() {
                let k = j * xs.len() + i;
                if lattice_keeps(keep, k) {
                    let want = field.value_at(Point2::new(x, y), minutes);
                    assert_eq!(
                        got[k].to_bits(),
                        want.to_bits(),
                        "({x}, {y}) at t = {minutes}: lattice {} vs value_at {want}",
                        got[k]
                    );
                } else {
                    assert!(got[k].is_nan());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random forests, lattices, instants and masks: the lattice
        /// path is `value_at`, bit for bit.
        #[test]
        fn lattice_sampling_is_bitwise_value_at(
            seed in any::<u64>(),
            cx in -20.0f64..160.0,
            cy in -20.0f64..160.0,
            minutes in -60.0f64..1500.0,
            spacing in 0.05f64..6.0,
            mask_seed in any::<u64>(),
        ) {
            let field = LatentLightField::new(&ForestConfig { seed, ..ForestConfig::default() });
            let mut rng = StdRng::seed_from_u64(mask_seed);
            let xs: Vec<f64> = (0..rng.gen_range(1usize..15)).map(|i| cx + i as f64 * spacing).collect();
            let ys: Vec<f64> = (0..rng.gen_range(1usize..15)).map(|j| cy + j as f64 * spacing).collect();
            let mask: Vec<bool> = (0..xs.len() * ys.len()).map(|_| rng.gen_range(0.0..1.0) < 0.6).collect();
            // Daylight only when the instant is; the night branch too.
            assert_lattice_bitwise(&field, &xs, &ys, minutes, None);
            assert_lattice_bitwise(&field, &xs, &ys, minutes, Some(&mask));
            assert_lattice_bitwise(&field, &xs, &ys, 12.0 * 60.0 + minutes / 10.0, Some(&mask));
        }
    }

    #[test]
    fn lattice_sampling_is_exact_across_the_cull_threshold() {
        let (mut skipped, mut summed) = (0, 0);
        for seed in 0..6u64 {
            let field = LatentLightField::new(&ForestConfig {
                seed,
                ..ForestConfig::default()
            });
            let minutes = 11.0 * 60.0 + 37.0 * seed as f64;
            let hours_past_noon = field.model.hour_of_day(minutes / 60.0) - 12.0;
            let model = &field.model;
            for ((f, h), &cutoff) in model.features(hours_past_noon).zip(&model.negligible) {
                let cx = f.center.x + f.drift.0 * h;
                let cy = f.center.y + f.drift.1 * h;
                // Radii at which the exponent crosses the cutoff, and
                // at which the term itself crosses 2⁻⁵⁸, with points a
                // few ulps either side.
                let mut xs = Vec::new();
                for a in [cutoff, cutoff + 1.0] {
                    let r = f.sigma_x * (-2.0 * a).sqrt();
                    for k in -4..=4 {
                        xs.push(cx + r * (1.0 + k as f64 * 1e-15));
                        xs.push(cx - r * (1.0 + k as f64 * 1e-15));
                    }
                }
                let ys = [cy, cy + 1e-7];
                for &x in &xs {
                    if -0.5 * (f.qx(x, h) + f.qy(cy, h)) < cutoff {
                        skipped += 1;
                    } else {
                        summed += 1;
                    }
                }
                assert_lattice_bitwise(&field, &xs, &ys, minutes, None);
            }
        }
        assert!(
            skipped > 100 && summed > 100,
            "{skipped} skipped, {summed} summed"
        );
    }

    #[test]
    fn lattice_sampling_is_exact_around_the_clamp() {
        let (mut clamped, mut free) = (0, 0);
        for seed in 0..8u64 {
            let field = LatentLightField::new(&ForestConfig {
                seed,
                ..ForestConfig::default()
            });
            let minutes = 12.0 * 60.0 + 5.0 * seed as f64;
            let hours_past_noon = field.model.hour_of_day(minutes / 60.0) - 12.0;
            for f in &field.model.flecks {
                // Walk out from the fleck centre, through the clamped
                // core (if any) and across the 0.95 level.
                let cx = f.center.x + f.drift.0 * hours_past_noon;
                let cy = f.center.y + f.drift.1 * hours_past_noon;
                let xs: Vec<f64> = (0..240).map(|i| cx + i as f64 * 0.05).collect();
                let ys = [cy, cy + 0.25];
                for &y in &ys {
                    for &x in &xs {
                        if field.model.transmission(Point2::new(x, y), hours_past_noon) == 0.95 {
                            clamped += 1;
                        } else {
                            free += 1;
                        }
                    }
                }
                assert_lattice_bitwise(&field, &xs, &ys, minutes, None);
            }
        }
        assert!(clamped > 0 && free > 0, "{clamped} clamped, {free} free");
    }
}
