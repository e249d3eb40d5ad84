//! Planar geometric predicates.
//!
//! These are careful (but not exact-arithmetic) `f64` implementations of
//! the two classic predicates behind Delaunay triangulation: orientation
//! and in-circumcircle. Tolerances are scaled by the magnitude of the
//! operands so the predicates behave consistently across the coordinate
//! ranges used in the paper's experiments (0–100 m regions).

use crate::Point2;

/// Twice the signed area of triangle `(a, b, c)`.
///
/// Positive when the triangle winds counterclockwise, negative when
/// clockwise, near zero when degenerate.
///
/// # Example
///
/// ```
/// use cps_geometry::{predicates::orient2d, Point2};
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(1.0, 0.0);
/// let c = Point2::new(0.0, 1.0);
/// assert!(orient2d(a, b, c) > 0.0); // counterclockwise
/// assert!(orient2d(a, c, b) < 0.0); // clockwise
/// ```
#[inline]
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Returns `true` when `(a, b, c)` winds counterclockwise within a scaled
/// tolerance.
#[inline]
pub fn is_ccw(a: Point2, b: Point2, c: Point2) -> bool {
    orient2d(a, b, c) > orientation_tolerance(a, b, c)
}

/// Tolerance for orientation tests, scaled to the operand magnitudes.
#[inline]
fn orientation_tolerance(a: Point2, b: Point2, c: Point2) -> f64 {
    let m =
        a.x.abs()
            .max(a.y.abs())
            .max(b.x.abs())
            .max(b.y.abs())
            .max(c.x.abs())
            .max(c.y.abs())
            .max(1.0);
    8.0 * f64::EPSILON * m * m
}

/// In-circumcircle test: `true` when `p` lies strictly inside the
/// circumcircle of the counterclockwise triangle `(a, b, c)`.
///
/// This is the Delaunay "empty circle" predicate. The test evaluates the
/// standard lifted 3×3 determinant; a tolerance proportional to the
/// operand magnitudes keeps cocircular configurations classified as *not
/// inside*, which guarantees termination of cavity searches.
///
/// The caller must supply `(a, b, c)` in counterclockwise order; for a
/// clockwise triangle the sign of the determinant flips.
///
/// # Example
///
/// ```
/// use cps_geometry::{predicates::in_circumcircle, Point2};
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(2.0, 0.0);
/// let c = Point2::new(1.0, 2.0);
/// assert!(in_circumcircle(a, b, c, Point2::new(1.0, 0.5)));
/// assert!(!in_circumcircle(a, b, c, Point2::new(10.0, 10.0)));
/// ```
#[inline]
pub fn in_circumcircle(a: Point2, b: Point2, c: Point2, p: Point2) -> bool {
    let adx = a.x - p.x;
    let ady = a.y - p.y;
    let bdx = b.x - p.x;
    let bdy = b.y - p.y;
    let cdx = c.x - p.x;
    let cdy = c.y - p.y;

    let ad = adx * adx + ady * ady;
    let bd = bdx * bdx + bdy * bdy;
    let cd = cdx * cdx + cdy * cdy;

    let det =
        adx * (bdy * cd - bd * cdy) - ady * (bdx * cd - bd * cdx) + ad * (bdx * cdy - bdy * cdx);

    // Scale-aware tolerance: the determinant has units of length⁴.
    let m = ad.max(bd).max(cd).max(1.0);
    det > 64.0 * f64::EPSILON * m * m
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Point2 = Point2::new(0.0, 0.0);
    const B: Point2 = Point2::new(4.0, 0.0);
    const C: Point2 = Point2::new(2.0, 3.0);

    #[test]
    fn orientation_signs() {
        assert!(orient2d(A, B, C) > 0.0);
        assert!(orient2d(A, C, B) < 0.0);
        assert_eq!(orient2d(A, B, Point2::new(8.0, 0.0)), 0.0);
    }

    #[test]
    fn ccw_and_collinear_helpers() {
        assert!(is_ccw(A, B, C));
        assert!(!is_ccw(A, C, B));
        // Collinear points wind neither way.
        let on_line = Point2::new(2.0, 0.0);
        assert!(!is_ccw(A, B, on_line) && !is_ccw(A, on_line, B));
    }

    #[test]
    fn circumcircle_center_inside_far_outside() {
        // Circumcenter of (A, B, C) is inside.
        assert!(in_circumcircle(A, B, C, Point2::new(2.0, 1.0)));
        assert!(!in_circumcircle(A, B, C, Point2::new(100.0, 100.0)));
    }

    #[test]
    fn circumcircle_vertices_not_inside() {
        // Triangle vertices are *on* the circle, never strictly inside.
        assert!(!in_circumcircle(A, B, C, A));
        assert!(!in_circumcircle(A, B, C, B));
        assert!(!in_circumcircle(A, B, C, C));
    }

    #[test]
    fn circumcircle_cocircular_point_not_inside() {
        // Unit square: all four corners are cocircular.
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(1.0, 1.0);
        let d = Point2::new(0.0, 1.0);
        assert!(!in_circumcircle(a, b, c, d));
    }

    #[test]
    fn circumcircle_scales() {
        // Same configuration at 1000× scale must classify identically.
        let s = 1000.0;
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(4.0 * s, 0.0);
        let c = Point2::new(2.0 * s, 3.0 * s);
        assert!(in_circumcircle(a, b, c, Point2::new(2.0 * s, 1.0 * s)));
        assert!(!in_circumcircle(a, b, c, Point2::new(50.0 * s, 50.0 * s)));
    }
}
