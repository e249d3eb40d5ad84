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

    /// Signed area (positive for counterclockwise winding).
    #[inline]
    pub fn signed_area(&self) -> f64 {
        orient2d(self.a, self.b, self.c) / 2.0
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

    /// Axis-aligned bounding box as `(min, max)` corners.
    pub fn bounding_box(&self) -> (Point2, Point2) {
        (
            Point2::new(
                self.a.x.min(self.b.x).min(self.c.x),
                self.a.y.min(self.b.y).min(self.c.y),
            ),
            Point2::new(
                self.a.x.max(self.b.x).max(self.c.x),
                self.a.y.max(self.b.y).max(self.c.y),
            ),
        )
    }

    /// Length of the longest edge.
    pub fn longest_edge(&self) -> f64 {
        self.a
            .distance(self.b)
            .max(self.b.distance(self.c))
            .max(self.c.distance(self.a))
    }

    /// Length of the shortest edge.
    pub fn shortest_edge(&self) -> f64 {
        self.a
            .distance(self.b)
            .min(self.b.distance(self.c))
            .min(self.c.distance(self.a))
    }

    /// Mesh-quality aspect ratio: circumradius over twice the inradius
    /// (1 for equilateral, growing unboundedly for slivers). Returns
    /// `f64::INFINITY` for degenerate triangles.
    pub fn aspect_ratio(&self) -> f64 {
        let area = self.area();
        if area < 1e-300 {
            return f64::INFINITY;
        }
        let (ab, bc, ca) = (
            self.a.distance(self.b),
            self.b.distance(self.c),
            self.c.distance(self.a),
        );
        // R = abc / (4·area); r = area / s with s the semi-perimeter.
        let circumradius = ab * bc * ca / (4.0 * area);
        let inradius = area / ((ab + bc + ca) / 2.0);
        circumradius / (2.0 * inradius)
    }

    /// Smallest interior angle in radians (0 for degenerate input).
    pub fn min_angle(&self) -> f64 {
        let (ab, bc, ca) = (
            self.a.distance(self.b),
            self.b.distance(self.c),
            self.c.distance(self.a),
        );
        if ab * bc * ca < 1e-300 {
            return 0.0;
        }
        // Law of cosines at each corner.
        let angle = |opp: f64, e1: f64, e2: f64| -> f64 {
            (((e1 * e1 + e2 * e2 - opp * opp) / (2.0 * e1 * e2)).clamp(-1.0, 1.0)).acos()
        };
        angle(bc, ab, ca)
            .min(angle(ca, ab, bc))
            .min(angle(ab, bc, ca))
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
        let t = right_triangle();
        assert_eq!(t.area(), 6.0);
        assert_eq!(t.signed_area(), 6.0);
        let flipped = Triangle::new(t.a, t.c, t.b);
        assert_eq!(flipped.signed_area(), -6.0);
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

    #[test]
    fn quality_metrics() {
        // Equilateral: aspect ratio 1, min angle 60°.
        let h = 3f64.sqrt() / 2.0;
        let eq = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.5, h),
        );
        assert!((eq.aspect_ratio() - 1.0).abs() < 1e-9);
        assert!((eq.min_angle() - std::f64::consts::FRAC_PI_3).abs() < 1e-9);
        assert!((eq.shortest_edge() - 1.0).abs() < 1e-12);
        // A sliver: terrible aspect ratio, tiny min angle.
        let sliver = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(5.0, 0.01),
        );
        assert!(sliver.aspect_ratio() > 100.0);
        assert!(sliver.min_angle() < 0.01);
        // Degenerate: infinite ratio, zero angle.
        let degen = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        assert_eq!(degen.aspect_ratio(), f64::INFINITY);
        assert_eq!(degen.min_angle(), 0.0);
    }

    #[test]
    fn bounding_box_and_longest_edge() {
        let t = right_triangle();
        let (lo, hi) = t.bounding_box();
        assert_eq!(lo, Point2::new(0.0, 0.0));
        assert_eq!(hi, Point2::new(4.0, 3.0));
        assert_eq!(t.longest_edge(), 5.0);
    }
}
