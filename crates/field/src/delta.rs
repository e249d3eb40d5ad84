//! The paper's surface-difference metric `δ` (Section 3.3).
//!
//! The difference between the real surface `z = f(x, y)` and the rebuilt
//! surface `z* = DT(x, y)` is defined as the volume difference between
//! the polytopes under the two surfaces:
//!
//! ```text
//! δ(V(z), V(z*)) = |V(z) ∪ V(z*)| − |V(z) ∩ V(z*)|
//!               = ∬_A |f(x,y) − DT(x,y)| dx dy        (Eqn. 2)
//! ```
//!
//! All integrals are evaluated by grid quadrature over a [`GridSpec`]
//! with trapezoidal weights (boundary points count half, corners a
//! quarter), which converges at O(h²) for the piecewise-smooth surfaces
//! used in the experiments.
//!
//! # Parallelism and determinism
//!
//! Every quadrature here is evaluated row by row: each grid row is
//! summed left to right into a private partial, and the row partials
//! are folded in row order. Because that operation order never depends
//! on how rows are distributed, each function returns results
//! **bit-identical** at any thread count of the [`Parallelism`] it
//! takes (property-tested in `tests/parallel_delta.rs`); pass
//! [`Parallelism::serial`] to stay on the calling thread.

use cps_geometry::GridSpec;

use crate::par::{map_rows, Parallelism};
use crate::Field;

/// Quadrature weight for grid point `(i, j)`: trapezoidal rule. Shared
/// with the raster kernel so both integrate the identical quadrature.
#[inline]
pub(crate) fn weight(grid: &GridSpec, i: usize, j: usize) -> f64 {
    let wx = if i == 0 || i == grid.nx() - 1 {
        0.5
    } else {
        1.0
    };
    let wy = if j == 0 || j == grid.ny() - 1 {
        0.5
    } else {
        1.0
    };
    wx * wy
}

/// Weighted sum of `combine(f, g)` over row `j`, left to right — the
/// unit of work the parallel engine shards, and the canonical operand
/// order of every reduction.
#[inline]
fn row_sum<F, G, C>(f: &F, g: &G, grid: &GridSpec, j: usize, combine: &C) -> f64
where
    F: Field,
    G: Field,
    C: Fn(f64, f64) -> f64,
{
    let mut row = 0.0;
    for i in 0..grid.nx() {
        let p = grid.point(i, j);
        row += weight(grid, i, j) * combine(f.value(p), g.value(p));
    }
    row
}

/// Integrates an arbitrary pointwise combination of two fields over the
/// grid: rows are sharded across `par.threads()` pool workers and
/// reduced in row order (see the module docs).
fn integrate2_with<F, G, C>(f: &F, g: &G, grid: &GridSpec, par: Parallelism, combine: C) -> f64
where
    F: Field + Sync,
    G: Field + Sync,
    C: Fn(f64, f64) -> f64 + Sync,
{
    let _timer = cps_obs::time(cps_obs::Phase::DeltaQuadrature, par.threads());
    let rows = map_rows(grid.ny(), par, |j| row_sum(f, g, grid, j, &combine));
    let mut total = 0.0;
    for row in rows {
        total += row;
    }
    total * grid.cell_area()
}

/// The paper's `δ` (Eqn. 2): `∬ |f − g| dA` over the grid's region.
///
/// # Example
///
/// ```
/// use cps_field::{delta::volume_difference_with, Parallelism, PlaneField};
/// use cps_geometry::{GridSpec, Rect};
///
/// let grid = GridSpec::new(Rect::square(10.0).unwrap(), 11, 11).unwrap();
/// let f = PlaneField::new(0.0, 0.0, 3.0);
/// let g = PlaneField::new(0.0, 0.0, 1.0);
/// let d = volume_difference_with(&f, &g, &grid, Parallelism::serial());
/// assert!((d - 200.0).abs() < 1e-9); // |3−1| × area 100
/// ```
pub fn volume_difference_with<F: Field + Sync, G: Field + Sync>(
    f: &F,
    g: &G,
    grid: &GridSpec,
    par: Parallelism,
) -> f64 {
    integrate2_with(f, g, grid, par, |a, b| (a - b).abs())
}

/// `|V(f) ∪ V(g)| = ∬ max(f, g) dA` (Eqn. 6).
pub fn union_volume_with<F: Field + Sync, G: Field + Sync>(
    f: &F,
    g: &G,
    grid: &GridSpec,
    par: Parallelism,
) -> f64 {
    integrate2_with(f, g, grid, par, f64::max)
}

/// `|V(f) ∩ V(g)| = ∬ min(f, g) dA` (Eqn. 7).
pub fn intersection_volume_with<F: Field + Sync, G: Field + Sync>(
    f: &F,
    g: &G,
    grid: &GridSpec,
    par: Parallelism,
) -> f64 {
    integrate2_with(f, g, grid, par, f64::min)
}

/// Weighted-less sum of squared differences over row `j`.
#[inline]
fn row_sum_squares<F: Field, G: Field>(f: &F, g: &G, grid: &GridSpec, j: usize) -> f64 {
    let mut row = 0.0;
    for i in 0..grid.nx() {
        let p = grid.point(i, j);
        let d = f.value(p) - g.value(p);
        row += d * d;
    }
    row
}

/// Root-mean-square pointwise difference over the grid — a secondary
/// error metric reported alongside δ in the experiment harnesses.
pub fn rms_difference_with<F: Field + Sync, G: Field + Sync>(
    f: &F,
    g: &G,
    grid: &GridSpec,
    par: Parallelism,
) -> f64 {
    let _timer = cps_obs::time(cps_obs::Phase::DeltaQuadrature, par.threads());
    let rows = map_rows(grid.ny(), par, |j| row_sum_squares(f, g, grid, j));
    let mut ss = 0.0;
    for row in rows {
        ss += row;
    }
    (ss / grid.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaussianBlob, PeaksField, PlaneField};
    use cps_geometry::{Point2, Rect};

    fn grid() -> GridSpec {
        GridSpec::new(Rect::square(10.0).unwrap(), 21, 21).unwrap()
    }

    /// `∬ f dA` for a field that is non-negative on the grid: δ against
    /// the zero plane.
    fn volume(f: &PlaneField, grid: &GridSpec) -> f64 {
        let zero = PlaneField::new(0.0, 0.0, 0.0);
        volume_difference_with(f, &zero, grid, Parallelism::serial())
    }

    #[test]
    fn delta_of_identical_surfaces_is_zero() {
        let f = PeaksField::new(Rect::square(10.0).unwrap(), 5.0);
        assert_eq!(
            volume_difference_with(&f, &f, &grid(), Parallelism::serial()),
            0.0
        );
    }

    #[test]
    fn delta_is_symmetric_and_nonnegative() {
        let f = PlaneField::new(1.0, 0.0, 0.0);
        let g = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 4.0, 2.0);
        let d1 = volume_difference_with(&f, &g, &grid(), Parallelism::serial());
        let d2 = volume_difference_with(&g, &f, &grid(), Parallelism::serial());
        assert!(d1 > 0.0);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn union_minus_intersection_equals_delta() {
        // Theorem 3.1: |V∪V*| − |V∩V*| = ∬|f − g|.
        let f = PlaneField::new(0.5, -0.2, 3.0);
        let g = GaussianBlob::isotropic(Point2::new(4.0, 6.0), 5.0, 2.0);
        let u = union_volume_with(&f, &g, &grid(), Parallelism::serial());
        let i = intersection_volume_with(&f, &g, &grid(), Parallelism::serial());
        let d = volume_difference_with(&f, &g, &grid(), Parallelism::serial());
        assert!((u - i - d).abs() < 1e-9);
    }

    #[test]
    fn volume_of_constant_field() {
        let f = PlaneField::new(0.0, 0.0, 2.5);
        assert!((volume(&f, &grid()) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn volume_of_linear_ramp() {
        // ∬ x dA over [0,10]² = 500.
        let f = PlaneField::new(1.0, 0.0, 0.0);
        assert!((volume(&f, &grid()) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_minimal_grid_quadrature_is_exact() {
        // The smallest legal grid is 2×2: every node is a corner, so
        // every trapezoid weight is 0.25 and one cell covers the whole
        // region. Constant and bilinear integrands are exact there.
        let rect = Rect::square(10.0).unwrap();
        let tiny = GridSpec::new(rect, 2, 2).unwrap();
        let c = PlaneField::new(0.0, 0.0, 3.0);
        assert!((volume(&c, &tiny) - 300.0).abs() < 1e-12);
        // ∬ x dA over [0,10]² = 500: the trapezoid rule is exact for
        // linear integrands even on a single cell.
        let ramp = PlaneField::new(1.0, 0.0, 0.0);
        assert!((volume(&ramp, &tiny) - 500.0).abs() < 1e-12);
        // δ against itself stays exactly zero, and the parallel engine
        // agrees bit-for-bit even when rows outnumber workers requests.
        assert_eq!(
            volume_difference_with(&c, &c, &tiny, Parallelism::serial()),
            0.0
        );
        let serial = volume_difference_with(&c, &ramp, &tiny, Parallelism::serial());
        for par in [Parallelism::fixed(2), Parallelism::fixed(7)] {
            let p = volume_difference_with(&c, &ramp, &tiny, par);
            assert_eq!(serial.to_bits(), p.to_bits());
        }
        // Asymmetric degenerate strip: 2 columns, many rows.
        let strip = GridSpec::new(rect, 2, 9).unwrap();
        assert!((volume(&c, &strip) - 300.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality_on_delta() {
        let f = PlaneField::new(1.0, 0.0, 0.0);
        let g = PlaneField::new(0.0, 1.0, 0.0);
        let h = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 3.0, 3.0);
        let fg = volume_difference_with(&f, &g, &grid(), Parallelism::serial());
        let fh = volume_difference_with(&f, &h, &grid(), Parallelism::serial());
        let hg = volume_difference_with(&h, &g, &grid(), Parallelism::serial());
        assert!(fg <= fh + hg + 1e-9);
    }

    #[test]
    fn rms_difference_of_constant_offset() {
        let f = PlaneField::new(0.0, 0.0, 1.0);
        let g = PlaneField::new(0.0, 0.0, 4.0);
        assert!((rms_difference_with(&f, &g, &grid(), Parallelism::serial()) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_variants_are_bit_identical_to_serial() {
        let f = PeaksField::new(Rect::square(10.0).unwrap(), 5.0);
        let g = GaussianBlob::isotropic(Point2::new(3.0, 7.0), 4.0, 2.0);
        let grid = grid();
        for par in [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::auto(),
        ] {
            assert_eq!(
                volume_difference_with(&f, &g, &grid, par).to_bits(),
                volume_difference_with(&f, &g, &grid, Parallelism::serial()).to_bits(),
                "volume_difference with {par:?}"
            );
            assert_eq!(
                union_volume_with(&f, &g, &grid, par).to_bits(),
                union_volume_with(&f, &g, &grid, Parallelism::serial()).to_bits()
            );
            assert_eq!(
                intersection_volume_with(&f, &g, &grid, par).to_bits(),
                intersection_volume_with(&f, &g, &grid, Parallelism::serial()).to_bits()
            );
            assert_eq!(
                rms_difference_with(&f, &g, &grid, par).to_bits(),
                rms_difference_with(&f, &g, &grid, Parallelism::serial()).to_bits()
            );
        }
    }

    #[test]
    fn quadrature_refines() {
        // Finer grids converge: compare a coarse and a fine δ on a
        // smooth field against a very fine reference.
        let region = Rect::square(10.0).unwrap();
        let f = PeaksField::new(region, 5.0);
        let g = PlaneField::new(0.0, 0.0, 0.0);
        let coarse = volume_difference_with(
            &f,
            &g,
            &GridSpec::new(region, 11, 11).unwrap(),
            Parallelism::serial(),
        );
        let fine = volume_difference_with(
            &f,
            &g,
            &GridSpec::new(region, 81, 81).unwrap(),
            Parallelism::serial(),
        );
        let reference = volume_difference_with(
            &f,
            &g,
            &GridSpec::new(region, 161, 161).unwrap(),
            Parallelism::serial(),
        );
        assert!((fine - reference).abs() < (coarse - reference).abs());
    }
}
