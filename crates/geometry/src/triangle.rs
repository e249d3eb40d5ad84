//! Triangle utilities: areas, circumcircles, barycentric coordinates and
//! planar interpolation.

use crate::predicates::orient2d;
use crate::Point2;

/// A triangle in the plane, defined by its three corner points.
///
/// # Example
///
/// ```
/// use cps_geometry::{Point2, Triangle};
///
/// let t = Triangle::new(
///     Point2::new(0.0, 0.0),
///     Point2::new(4.0, 0.0),
///     Point2::new(0.0, 3.0),
/// );
/// assert_eq!(t.area(), 6.0);
/// assert!(t.contains(Point2::new(1.0, 1.0)));
/// // Interpolate a plane z = x + y over the triangle:
/// let z = t.interpolate(Point2::new(1.0, 1.0), [0.0, 4.0, 3.0]).unwrap();
/// assert!((z - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First corner.
    pub a: Point2,
    /// Second corner.
    pub b: Point2,
    /// Third corner.
    pub c: Point2,
}

impl Triangle {
    /// Creates a triangle from its corners.
    #[inline]
    pub const fn new(a: Point2, b: Point2, c: Point2) -> Self {
        Triangle { a, b, c }
    }

    /// Unsigned area.
    #[inline]
    pub fn area(&self) -> f64 {
        orient2d(self.a, self.b, self.c).abs() / 2.0
    }

    /// Centroid of the triangle.
    #[inline]
    pub fn centroid(&self) -> Point2 {
        Point2::new(
            (self.a.x + self.b.x + self.c.x) / 3.0,
            (self.a.y + self.b.y + self.c.y) / 3.0,
        )
    }

    /// Barycentric coordinates `(wa, wb, wc)` of `p` with respect to this
    /// triangle. The weights sum to 1; all non-negative iff `p` is inside
    /// (or on the boundary of) the triangle.
    ///
    /// Returns `None` when the triangle is degenerate (area ≈ 0).
    pub fn barycentric(&self, p: Point2) -> Option<(f64, f64, f64)> {
        let denom = orient2d(self.a, self.b, self.c);
        if denom.abs() < 1e-300 {
            return None;
        }
        let wa = orient2d(p, self.b, self.c) / denom;
        let wb = orient2d(self.a, p, self.c) / denom;
        let wc = 1.0 - wa - wb;
        Some((wa, wb, wc))
    }

    /// Returns `true` when `p` lies inside or on the boundary of the
    /// triangle (within a small relative tolerance).
    pub fn contains(&self, p: Point2) -> bool {
        match self.barycentric(p) {
            Some((wa, wb, wc)) => {
                let tol = -1e-9;
                wa >= tol && wb >= tol && wc >= tol
            }
            None => false,
        }
    }

    /// Linearly interpolates vertex values `z = [za, zb, zc]` at `p`
    /// (the planar facet of the lifted surface `z* = DT(x, y)`).
    ///
    /// Returns `None` for a degenerate triangle. Values are extrapolated
    /// if `p` is outside the triangle; combine with [`Triangle::contains`]
    /// when interpolation must stay interior.
    pub fn interpolate(&self, p: Point2, z: [f64; 3]) -> Option<f64> {
        let (wa, wb, wc) = self.barycentric(p)?;
        Some(wa * z[0] + wb * z[1] + wc * z[2])
    }

    /// Circumcenter and squared circumradius, or `None` for a degenerate
    /// triangle.
    pub fn circumcircle(&self) -> Option<(Point2, f64)> {
        let d = 2.0
            * (self.a.x * (self.b.y - self.c.y)
                + self.b.x * (self.c.y - self.a.y)
                + self.c.x * (self.a.y - self.b.y));
        if d.abs() < 1e-300 {
            return None;
        }
        let a2 = self.a.x * self.a.x + self.a.y * self.a.y;
        let b2 = self.b.x * self.b.x + self.b.y * self.b.y;
        let c2 = self.c.x * self.c.x + self.c.y * self.c.y;
        let ux =
            (a2 * (self.b.y - self.c.y) + b2 * (self.c.y - self.a.y) + c2 * (self.a.y - self.b.y))
                / d;
        let uy =
            (a2 * (self.c.x - self.b.x) + b2 * (self.a.x - self.c.x) + c2 * (self.b.x - self.a.x))
                / d;
        let center = Point2::new(ux, uy);
        Some((center, center.distance_squared(self.a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn right_triangle() -> Triangle {
        Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 0.0),
            Point2::new(0.0, 3.0),
        )
    }

    #[test]
    fn area_and_signed_area() {
        // The area is unsigned: reversing the winding flips the sign of
        // `orient2d` but not the area.
        let t = right_triangle();
        assert_eq!(t.area(), 6.0);
        assert_eq!(orient2d(t.a, t.b, t.c), 12.0);
        let flipped = Triangle::new(t.a, t.c, t.b);
        assert_eq!(orient2d(flipped.a, flipped.b, flipped.c), -12.0);
        assert_eq!(flipped.area(), 6.0);
    }

    #[test]
    fn centroid_is_average() {
        let t = right_triangle();
        let c = t.centroid();
        assert!((c.x - 4.0 / 3.0).abs() < 1e-12);
        assert!((c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn barycentric_weights_sum_to_one() {
        let t = right_triangle();
        let p = Point2::new(1.0, 1.0);
        let (wa, wb, wc) = t.barycentric(p).unwrap();
        assert!((wa + wb + wc - 1.0).abs() < 1e-12);
        // Vertices map to unit weights.
        assert_eq!(t.barycentric(t.a).unwrap().0, 1.0);
    }

    #[test]
    fn degenerate_triangle_returns_none() {
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        assert!(t.barycentric(Point2::new(0.5, 0.5)).is_none());
        assert!(t.circumcircle().is_none());
        assert!(!t.contains(Point2::new(0.5, 0.5)));
    }

    #[test]
    fn containment() {
        let t = right_triangle();
        assert!(t.contains(Point2::new(0.5, 0.5)));
        assert!(t.contains(t.a)); // boundary counts
        assert!(t.contains(Point2::new(2.0, 0.0))); // on edge
        assert!(!t.contains(Point2::new(3.0, 3.0)));
        assert!(!t.contains(Point2::new(-0.1, 0.0)));
    }

    #[test]
    fn interpolation_reproduces_plane() {
        // z = 2x - y + 5 is linear, so interpolation must be exact.
        let t = right_triangle();
        let f = |p: Point2| 2.0 * p.x - p.y + 5.0;
        let z = [f(t.a), f(t.b), f(t.c)];
        for p in [
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.5),
            Point2::new(10.0, -3.0), // extrapolation is still the plane
        ] {
            assert!((t.interpolate(p, z).unwrap() - f(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn circumcircle_is_equidistant() {
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(5.0, 1.0),
            Point2::new(2.0, 4.0),
        );
        let (center, r2) = t.circumcircle().unwrap();
        for v in [t.a, t.b, t.c] {
            assert!((center.distance_squared(v) - r2).abs() < 1e-9);
        }
    }
}
