//! The [`Field`] and [`TimeVaryingField`] traits and adapters.

use cps_geometry::{GridSpec, Point2};
use cps_linalg::Summary;

/// A static scalar field `z = f(x, y)` over the plane — the paper's
/// virtual surface.
///
/// Implementations must return finite values for all finite points
/// inside their region of interest; behaviour outside the region is
/// implementation-defined (most fields extend smoothly or clamp).
///
/// The trait is object-safe, so heterogeneous references
/// (`&dyn Field`) can be passed to the evaluation harnesses.
pub trait Field {
    /// Field value at `p`.
    fn value(&self, p: Point2) -> f64;

    /// Samples the field at every point of `grid`, row-major
    /// (`j`-major, matching [`GridSpec::flat_index`]).
    fn sample_grid(&self, grid: &GridSpec) -> Vec<f64>
    where
        Self: Sized,
    {
        let mut out = vec![0.0; grid.len()];
        for (i, j, p) in grid.iter() {
            out[grid.flat_index(i, j)] = self.value(p);
        }
        out
    }

    /// Samples the field on the lattice `xs × ys` — see
    /// [`TimeVaryingField::sample_lattice_at`], of which this is the
    /// static counterpart. The default loops over [`Field::value`].
    fn sample_lattice(&self, xs: &[f64], ys: &[f64], keep: Option<&[bool]>) -> Vec<f64> {
        fill_lattice(xs, ys, keep, |p| self.value(p))
    }

    /// Summary statistics of the field over `grid`.
    fn summarize(&self, grid: &GridSpec) -> Summary
    where
        Self: Sized,
    {
        Summary::from_values(&self.sample_grid(grid))
    }
}

impl<F: Field + ?Sized> Field for &F {
    fn value(&self, p: Point2) -> f64 {
        (**self).value(p)
    }

    fn sample_lattice(&self, xs: &[f64], ys: &[f64], keep: Option<&[bool]>) -> Vec<f64> {
        (**self).sample_lattice(xs, ys, keep)
    }
}

impl<F: Field + ?Sized> Field for Box<F> {
    fn value(&self, p: Point2) -> f64 {
        (**self).value(p)
    }

    fn sample_lattice(&self, xs: &[f64], ys: &[f64], keep: Option<&[bool]>) -> Vec<f64> {
        (**self).sample_lattice(xs, ys, keep)
    }
}

/// Whether lattice point `k` (row-major) is requested by `keep`: every
/// point without a mask, otherwise exactly the `true` entries (missing
/// entries count as `false`).
#[inline]
pub fn lattice_keeps(keep: Option<&[bool]>, k: usize) -> bool {
    keep.is_none_or(|mask| mask.get(k).copied().unwrap_or(false))
}

/// The reference lattice sampler behind the trait defaults: `value` at
/// every kept point of `xs × ys`, row-major, NaN elsewhere.
fn fill_lattice(
    xs: &[f64],
    ys: &[f64],
    keep: Option<&[bool]>,
    value: impl Fn(Point2) -> f64,
) -> Vec<f64> {
    let mut out = vec![f64::NAN; xs.len() * ys.len()];
    for (j, &y) in ys.iter().enumerate() {
        for (i, &x) in xs.iter().enumerate() {
            let k = j * xs.len() + i;
            if lattice_keeps(keep, k) {
                out[k] = value(Point2::new(x, y));
            }
        }
    }
    out
}

/// A scalar field that also varies with time: `z = f(x, y, t)`.
///
/// Time is measured in the simulation's time unit (minutes in the
/// paper's OSTD experiments).
pub trait TimeVaryingField {
    /// Field value at `p` at time `t`.
    fn value_at(&self, p: Point2, t: f64) -> f64;

    /// Samples the field at time `t` on the lattice `xs × ys`: entry
    /// `j·xs.len() + i` (row-major, `ys` outer) is the value at
    /// `(xs[i], ys[j])`. With a `keep` mask (same indexing) only its
    /// `true` points are sampled and the rest read NaN.
    ///
    /// Every sampled entry must be bitwise equal to
    /// [`value_at`](TimeVaryingField::value_at) at that point — the
    /// simulator's outputs depend on it. The default loops over
    /// `value_at`; fields override it to share per-row, per-column and
    /// per-instant work across the batch.
    fn sample_lattice_at(&self, xs: &[f64], ys: &[f64], t: f64, keep: Option<&[bool]>) -> Vec<f64> {
        fill_lattice(xs, ys, keep, |p| self.value_at(p, t))
    }

    /// Borrows the field frozen at an instant, yielding a [`Field`].
    fn at_time(&self, t: f64) -> Frozen<'_, Self> {
        Frozen { inner: self, t }
    }
}

impl<F: TimeVaryingField + ?Sized> TimeVaryingField for &F {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        (**self).value_at(p, t)
    }

    fn sample_lattice_at(&self, xs: &[f64], ys: &[f64], t: f64, keep: Option<&[bool]>) -> Vec<f64> {
        (**self).sample_lattice_at(xs, ys, t, keep)
    }
}

/// Adapter: a static [`Field`] viewed as a (constant) time-varying one.
///
/// # Example
///
/// ```
/// use cps_field::{Field, PlaneField, Static, TimeVaryingField};
/// use cps_geometry::Point2;
///
/// let f = Static::new(PlaneField::new(1.0, 0.0, 0.0));
/// let p = Point2::new(2.0, 5.0);
/// assert_eq!(f.value_at(p, 0.0), f.value_at(p, 100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Static<F> {
    inner: F,
}

impl<F: Field> Static<F> {
    /// Wraps a static field.
    pub fn new(inner: F) -> Self {
        Static { inner }
    }

    /// Returns the wrapped field.
    pub fn into_inner(self) -> F {
        self.inner
    }
}

impl<F: Field> TimeVaryingField for Static<F> {
    fn value_at(&self, p: Point2, _t: f64) -> f64 {
        self.inner.value(p)
    }
}

impl<F: Field> Field for Static<F> {
    fn value(&self, p: Point2) -> f64 {
        self.inner.value(p)
    }
}

/// Adapter: a [`TimeVaryingField`] frozen at a fixed instant, usable as
/// a static [`Field`]. Produced by [`TimeVaryingField::at_time`].
#[derive(Debug, Clone, Copy)]
pub struct Frozen<'a, F: ?Sized> {
    inner: &'a F,
    t: f64,
}

impl<F: TimeVaryingField + ?Sized> Frozen<'_, F> {
    /// The freeze instant.
    pub fn time(&self) -> f64 {
        self.t
    }
}

impl<F: TimeVaryingField + ?Sized> Field for Frozen<'_, F> {
    fn value(&self, p: Point2) -> f64 {
        self.inner.value_at(p, self.t)
    }

    fn sample_lattice(&self, xs: &[f64], ys: &[f64], keep: Option<&[bool]>) -> Vec<f64> {
        self.inner.sample_lattice_at(xs, ys, self.t, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_geometry::Rect;

    struct Gradient;
    impl Field for Gradient {
        fn value(&self, p: Point2) -> f64 {
            p.x + 2.0 * p.y
        }
    }

    struct Wave;
    impl TimeVaryingField for Wave {
        fn value_at(&self, p: Point2, t: f64) -> f64 {
            p.x + t
        }
    }

    #[test]
    fn sample_grid_matches_values() {
        let grid = GridSpec::new(Rect::square(2.0).unwrap(), 3, 3).unwrap();
        let samples = Gradient.sample_grid(&grid);
        assert_eq!(samples.len(), 9);
        assert_eq!(samples[grid.flat_index(2, 2)], 6.0);
        assert_eq!(samples[grid.flat_index(1, 0)], 1.0);
    }

    #[test]
    fn summarize_reports_extremes() {
        let grid = GridSpec::new(Rect::square(2.0).unwrap(), 3, 3).unwrap();
        let s = Gradient.summarize(&grid);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 6.0);
    }

    #[test]
    fn reference_impl_forwards() {
        let g = Gradient;
        let r: &dyn Field = &g;
        assert_eq!(r.value(Point2::new(1.0, 1.0)), 3.0);
        let boxed: Box<dyn Field> = Box::new(Gradient);
        assert_eq!(boxed.value(Point2::new(1.0, 1.0)), 3.0);
    }

    #[test]
    fn frozen_fixes_time() {
        let w = Wave;
        let f5 = w.at_time(5.0);
        assert_eq!(f5.time(), 5.0);
        assert_eq!(f5.value(Point2::new(1.0, 0.0)), 6.0);
    }

    #[test]
    fn lattice_defaults_sample_row_major_and_honour_the_mask() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [10.0, 20.0];
        let all = Gradient.sample_lattice(&xs, &ys, None);
        assert_eq!(all, vec![20.0, 21.0, 22.0, 40.0, 41.0, 42.0]);
        let keep = [true, false, true, false, true];
        let some = Gradient.sample_lattice(&xs, &ys, Some(&keep));
        assert_eq!(
            some[..5].iter().map(|v| v.is_nan()).collect::<Vec<_>>(),
            [false, true, false, true, false]
        );
        assert_eq!((some[0], some[2], some[4]), (20.0, 22.0, 41.0));
        // Entries past the end of a short mask are not sampled.
        assert!(some[5].is_nan());
        let w = Wave;
        let frozen = w.at_time(5.0);
        assert_eq!(
            frozen.sample_lattice(&xs, &ys, None),
            w.sample_lattice_at(&xs, &ys, 5.0, None)
        );
        let by_ref = <&Wave as TimeVaryingField>::sample_lattice_at(&&w, &xs, &ys, 5.0, None);
        assert_eq!(by_ref[4], 6.0);
    }

    #[test]
    fn static_is_time_invariant() {
        let s = Static::new(Gradient);
        let p = Point2::new(1.0, 1.0);
        assert_eq!(s.value_at(p, 0.0), 3.0);
        assert_eq!(s.value_at(p, 9.0), 3.0);
        assert_eq!(s.value(p), 3.0);
        let _inner = s.into_inner();
    }
}
