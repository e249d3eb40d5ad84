//! Property tests on the field substrate.

use cps_field::{
    delta, DriftingField, Field, GaussianBlob, GaussianMixtureField, GridField, KeyframeField,
    Parallelism, PeaksField, Static, TimeVaryingField,
};
use cps_geometry::{GridSpec, Point2, Rect};
use cps_linalg::Vec2;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random lattice (xs, ys) around `(cx, cy)` and a random keep-mask
/// (or none) drawn from `seed`.
fn random_lattice(seed: u64, cx: f64, cy: f64) -> (Vec<f64>, Vec<f64>, Option<Vec<bool>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spacing = rng.gen_range(0.1..3.0);
    let xs: Vec<f64> = (0..rng.gen_range(1..14))
        .map(|i| cx + i as f64 * spacing)
        .collect();
    let ys: Vec<f64> = (0..rng.gen_range(1..14))
        .map(|j| cy - j as f64 * spacing * 0.7)
        .collect();
    let mask = (rng.gen_range(0.0..1.0) < 0.7).then(|| {
        // Occasionally short, so trailing points are unrequested.
        let len = xs.len() * ys.len() - rng.gen_range(0usize..3).min(xs.len() * ys.len());
        (0..len).map(|_| rng.gen_range(0.0..1.0) < 0.6).collect()
    });
    (xs, ys, mask)
}

/// Asserts `lattice` holds `point(x, y)` bit for bit at every kept
/// entry and NaN elsewhere.
fn assert_lattice_matches(
    lattice: &[f64],
    xs: &[f64],
    ys: &[f64],
    mask: Option<&[bool]>,
    point: impl Fn(Point2) -> f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(lattice.len(), xs.len() * ys.len());
    for (j, &y) in ys.iter().enumerate() {
        for (i, &x) in xs.iter().enumerate() {
            let k = j * xs.len() + i;
            let got = lattice[k];
            if cps_field::lattice_keeps(mask, k) {
                prop_assert_eq!(got.to_bits(), point(Point2::new(x, y)).to_bits());
            } else {
                prop_assert!(got.is_nan());
            }
        }
    }
    Ok(())
}

fn blobs_strategy() -> impl Strategy<Value = GaussianMixtureField> {
    prop::collection::vec(
        (2.0f64..48.0, 2.0f64..48.0, -15.0f64..30.0, 1.5f64..9.0),
        0..5,
    )
    .prop_map(|raw| {
        GaussianMixtureField::new(
            4.0,
            raw.into_iter()
                .map(|(x, y, a, s)| GaussianBlob::isotropic(Point2::new(x, y), a, s))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rasterizing any field onto a grid reproduces it exactly at the
    /// grid points and within the field's local variation between them.
    #[test]
    fn grid_field_round_trips_at_grid_points(field in blobs_strategy()) {
        let spec = GridSpec::new(Rect::square(50.0).unwrap(), 26, 26).unwrap();
        let raster = GridField::from_field(spec, &field);
        for (i, j, p) in spec.iter() {
            prop_assert!((raster.at(i, j) - field.value(p)).abs() < 1e-12);
            prop_assert!((raster.value(p) - field.value(p)).abs() < 1e-9);
        }
    }

    /// δ between a field and its rasterization shrinks as the raster
    /// refines.
    #[test]
    fn rasterization_error_shrinks_with_resolution(field in blobs_strategy()) {
        let region = Rect::square(50.0).unwrap();
        let eval = GridSpec::new(region, 41, 41).unwrap();
        let coarse = GridField::from_field(GridSpec::new(region, 6, 6).unwrap(), &field);
        let fine = GridField::from_field(GridSpec::new(region, 21, 21).unwrap(), &field);
        let d_coarse = delta::volume_difference_with(&field, &coarse, &eval, Parallelism::serial());
        let d_fine = delta::volume_difference_with(&field, &fine, &eval, Parallelism::serial());
        prop_assert!(d_fine <= d_coarse + 1e-9, "fine {d_fine} vs coarse {d_coarse}");
    }

    /// Keyframe interpolation is bounded by its bracketing frames at
    /// every point and instant.
    #[test]
    fn keyframes_stay_within_their_brackets(
        lo in 0.0f64..5.0,
        hi in 6.0f64..12.0,
        t in 0.0f64..20.0,
        px in 0.0f64..10.0,
        py in 0.0f64..10.0,
    ) {
        let spec = GridSpec::new(Rect::square(10.0).unwrap(), 6, 6).unwrap();
        let f0 = GridField::from_fn(spec, |_| lo);
        let f1 = GridField::from_fn(spec, |_| hi);
        let kf = KeyframeField::new(vec![(5.0, f0), (15.0, f1)]).unwrap();
        let v = kf.value_at(Point2::new(px, py), t);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{v} outside [{lo}, {hi}]");
    }

    /// The default lattice samplers are pointwise sampling: for a
    /// static field through `Static`/`Frozen`, and for a drifting field
    /// at any instant.
    #[test]
    fn default_lattice_sampling_is_pointwise(
        seed in any::<u64>(),
        cx in -20.0f64..120.0,
        cy in -20.0f64..120.0,
        t in -50.0f64..500.0,
        vx in -2.0f64..2.0,
        vy in -2.0f64..2.0,
    ) {
        let (xs, ys, mask) = random_lattice(seed, cx, cy);
        let mask = mask.as_deref();
        let peaks = PeaksField::new(Rect::square(100.0).unwrap(), 8.0);
        let fixed = Static::new(peaks);
        assert_lattice_matches(&fixed.sample_lattice_at(&xs, &ys, t, mask), &xs, &ys, mask, |p| fixed.value_at(p, t))?;
        assert_lattice_matches(&fixed.sample_lattice(&xs, &ys, mask), &xs, &ys, mask, |p| peaks.value(p))?;
        let drifting = DriftingField::new(peaks, Vec2::new(vx, vy));
        assert_lattice_matches(&drifting.sample_lattice_at(&xs, &ys, t, mask), &xs, &ys, mask, |p| drifting.value_at(p, t))?;
        let frozen = drifting.at_time(t);
        assert_lattice_matches(&frozen.sample_lattice(&xs, &ys, mask), &xs, &ys, mask, |p| drifting.value_at(p, t))?;
        let by_ref = &drifting;
        assert_lattice_matches(&by_ref.sample_lattice_at(&xs, &ys, t, mask), &xs, &ys, mask, |p| drifting.value_at(p, t))?;
    }

    /// The δ metric is a pseudometric on fields: symmetric, zero on the
    /// diagonal, triangle inequality.
    #[test]
    fn delta_is_a_pseudometric(f in blobs_strategy(), g in blobs_strategy(), h in blobs_strategy()) {
        let grid = GridSpec::new(Rect::square(50.0).unwrap(), 21, 21).unwrap();
        let dfg = delta::volume_difference_with(&f, &g, &grid, Parallelism::serial());
        let dgf = delta::volume_difference_with(&g, &f, &grid, Parallelism::serial());
        prop_assert!((dfg - dgf).abs() < 1e-9);
        prop_assert_eq!(delta::volume_difference_with(&f, &f, &grid, Parallelism::serial()), 0.0);
        let dfh = delta::volume_difference_with(&f, &h, &grid, Parallelism::serial());
        let dhg = delta::volume_difference_with(&h, &g, &grid, Parallelism::serial());
        prop_assert!(dfg <= dfh + dhg + 1e-9);
    }
}
