//! Planar points.

use std::fmt;

use cps_linalg::Vec2;

/// A point in the plane (a *position*, as opposed to the displacement
/// vector [`Vec2`]).
///
/// # Example
///
/// ```
/// use cps_geometry::Point2;
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// let mid = a.midpoint(b);
/// assert_eq!(mid, Point2::new(1.5, 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point2 {
    /// The origin.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn distance_squared(self, other: Point2) -> f64 {
        (self - other).norm_squared()
    }

    /// The midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// The position vector from the origin.
    #[inline]
    pub fn to_vec(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

/// Relative half-width of the band around `r²` inside which [`within`]
/// defers to the exact `hypot` comparison.
const WITHIN_BAND: f64 = 1e-9;

/// `a.distance(b) <= r`, bit for bit, for every input — decided by
/// squared distance wherever that cannot disagree.
///
/// Outside a `1e-9` relative band around `r²` the squared distance
/// settles the question without a square root. The comparison can only
/// flip if rounding moves the distance across `r`, and the errors
/// involved are tiny next to the band: `d² = dx² + dy²` is off by at
/// most 2 ulp, `r²` and the band edges by 1 ulp each, and `hypot` by
/// well under 4 ulp, all relative errors ≤ 2⁻⁵⁰ ≪ 10⁻⁹ (so
/// `d² < r²(1 − 10⁻⁹)` forces `hypot(dx, dy) < r`, and
/// `d² > r²(1 + 10⁻⁹)` forces `hypot(dx, dy) > r`). Restricting `r` to
/// `[10⁻¹⁵⁰, 10¹⁵⁰]` keeps `r²` and the band edges clear of overflow
/// and of subnormal underflow, whose absolute error (≤ 2⁻¹⁰⁷⁴) is
/// likewise negligible next to a band of width ≥ 10⁻³⁰⁹. Inside the
/// band, for a NaN or out-of-range `r`, or a NaN `d²`, the answer is
/// `a.distance(b) <= r` itself.
///
/// # Example
///
/// ```
/// use cps_geometry::{within, Point2};
///
/// let a = Point2::new(0.5, 0.25);
/// let b = Point2::new(3.5, 4.25);
/// assert_eq!(within(a, b, 5.0), a.distance(b) <= 5.0);
/// assert!(!within(a, b, 4.999));
/// ```
#[inline]
pub fn within(a: Point2, b: Point2, r: f64) -> bool {
    if (1e-150..=1e150).contains(&r) {
        let (dx, dy) = (a.x - b.x, a.y - b.y);
        let d2 = dx * dx + dy * dy;
        let r2 = r * r;
        if d2 < r2 * (1.0 - WITHIN_BAND) {
            return true;
        }
        if d2 > r2 * (1.0 + WITHIN_BAND) {
            return false;
        }
    }
    a.distance(b) <= r
}

impl std::ops::Sub for Point2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Add<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl From<(f64, f64)> for Point2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    #[inline]
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

impl From<Vec2> for Point2 {
    #[inline]
    fn from(v: Vec2) -> Self {
        Point2::new(v.x, v.y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn distance_and_midpoint() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(4.0, 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
        assert_eq!(a.midpoint(b), Point2::new(2.5, 3.0));
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -2.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(5.0, -1.0));
    }

    #[test]
    fn point_vector_arithmetic() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        let d = b - a;
        assert_eq!(d, Vec2::new(3.0, 4.0));
        assert_eq!(a + d, b);
        assert_eq!(a.to_vec(), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn conversions() {
        let p: Point2 = (2.0, 3.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (2.0, 3.0));
        let q: Point2 = Vec2::new(1.0, 1.0).into();
        assert_eq!(q, Point2::new(1.0, 1.0));
    }

    fn agrees(a: Point2, b: Point2, r: f64) {
        assert_eq!(
            within(a, b, r),
            a.distance(b) <= r,
            "within({a}, {b}, {r:e}) disagrees with distance {:e}",
            a.distance(b)
        );
    }

    #[test]
    fn within_matches_distance_at_exact_lattice_radii() {
        // Offsets whose exact length is r: (3,4) and (5,0) at r = 5,
        // (6,8) and (0,10) at r = 10, scaled by lattice spacings, from
        // random float centres — the squared distance sits on r² up to
        // rounding, so these exercise the exact fallback.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let c = Point2::new(rng.gen_range(-50.0..150.0), rng.gen_range(-50.0..150.0));
            for spacing in [1.0, 0.5, 0.1, 0.3, 1.7] {
                for (ox, oy, r) in [
                    (3.0, 4.0, 5.0),
                    (5.0, 0.0, 5.0),
                    (0.0, -5.0, 5.0),
                    (-4.0, 3.0, 5.0),
                    (6.0, 8.0, 10.0),
                    (0.0, 10.0, 10.0),
                    (2.0, 2.0, 2.0 * 2f64.sqrt()),
                ] {
                    let p = Point2::new(c.x + ox * spacing, c.y + oy * spacing);
                    for rr in [
                        r * spacing,
                        (r * spacing).next_up(),
                        (r * spacing).next_down(),
                    ] {
                        agrees(c, p, rr);
                        agrees(p, c, rr);
                    }
                }
            }
        }
    }

    #[test]
    fn within_matches_distance_at_tiny_and_special_radii() {
        let mut rng = StdRng::seed_from_u64(11);
        let eps = f64::EPSILON;
        for _ in 0..2_000 {
            let c = Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..1.0));
            let near = Point2::new(c.x + rng.gen_range(0.0..4.0) * eps, c.y);
            for r in [eps, eps.next_up(), eps.next_down(), 0.0, -0.0, -1.0] {
                agrees(c, c, r);
                agrees(c, near, r);
                agrees(near, c, r);
            }
        }
        let o = Point2::new(1.0, 2.0);
        let nan = Point2::new(f64::NAN, 2.0);
        let inf = Point2::new(f64::INFINITY, 2.0);
        let inf_nan = Point2::new(f64::INFINITY, f64::NAN);
        for r in [
            1.0,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            0.0,
            1e-200,
            1e200,
        ] {
            for (a, b) in [
                (o, nan),
                (nan, o),
                (nan, nan),
                (o, inf),
                (inf, inf),
                (o, inf_nan),
            ] {
                agrees(a, b, r);
            }
            agrees(o, o, r);
        }
        assert!(!within(o, nan, 1.0));
        assert!(!within(o, o, f64::NAN));
    }

    #[test]
    fn within_matches_distance_at_large_coordinates() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..2_000 {
            let scale = 10f64.powi(rng.gen_range(-160..160));
            let c = Point2::new(
                rng.gen_range(-0.5..0.5) * scale,
                rng.gen_range(-0.5..0.5) * scale,
            );
            let p = Point2::new(
                rng.gen_range(-0.5..0.5) * scale,
                rng.gen_range(-0.5..0.5) * scale,
            );
            let d = c.distance(p);
            for r in [
                d,
                d.next_up(),
                d.next_down(),
                d * 1.5,
                d * 0.5,
                1e150,
                1e-150,
            ] {
                agrees(c, p, r);
            }
        }
        // Coordinates whose squares overflow.
        let big = Point2::new(1e200, -1e200);
        agrees(big, Point2::ORIGIN, 1e150);
        agrees(big, Point2::ORIGIN, f64::MAX);
        agrees(big, big, 1.0);
    }

    #[test]
    fn finiteness() {
        assert!(Point2::new(0.0, 0.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
    }
}
