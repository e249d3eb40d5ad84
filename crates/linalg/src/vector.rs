//! The fixed-size 2-D vector.
//!
//! [`Vec2`] is the workhorse of the movement planner: virtual forces
//! (Eqns. 14–18 of the paper) are accumulated as `Vec2` values and the
//! resultant decides each node's heading.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector (or point offset) with `f64` components.
///
/// # Example
///
/// ```
/// use cps_linalg::Vec2;
///
/// let force = Vec2::new(3.0, 4.0);
/// assert_eq!(force.norm(), 5.0);
/// assert_eq!(force.normalized().norm(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Component along the X axis.
    pub x: f64,
    /// Component along the Y axis.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the z component of the 3-D cross product).
    ///
    /// Positive when `other` is counterclockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction.
    ///
    /// Returns [`Vec2::ZERO`] when the vector has (near-)zero length, so
    /// that force resultants of magnitude ~0 produce no movement rather
    /// than a NaN heading.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n <= f64::EPSILON {
            Vec2::ZERO
        } else {
            Vec2::new(self.x / n, self.y / n)
        }
    }

    /// Clamps the vector's length to at most `max_len`, preserving
    /// direction. Used to enforce the node speed limit `v`.
    #[inline]
    pub fn clamp_norm(self, max_len: f64) -> Vec2 {
        debug_assert!(max_len >= 0.0, "max_len must be non-negative");
        let n = self.norm();
        if n > max_len && n > 0.0 {
            self * (max_len / n)
        } else {
            self
        }
    }

    /// Rotates the vector by `angle` radians counterclockwise.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, |acc, v| acc + v)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    #[inline]
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec2_assign_ops() {
        let mut v = Vec2::new(1.0, 1.0);
        v += Vec2::new(2.0, 3.0);
        assert_eq!(v, Vec2::new(3.0, 4.0));
        v -= Vec2::new(1.0, 1.0);
        assert_eq!(v, Vec2::new(2.0, 3.0));
    }

    #[test]
    fn vec2_norm_and_dot() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_squared(), 25.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!(Vec2::new(1.0, 0.0).cross(Vec2::new(0.0, 1.0)), 1.0);
    }

    #[test]
    fn vec2_normalized_zero_is_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let v = Vec2::new(0.0, 2.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec2_clamp_norm() {
        let v = Vec2::new(6.0, 8.0);
        let c = v.clamp_norm(5.0);
        assert!((c.norm() - 5.0).abs() < 1e-12);
        // Direction preserved.
        assert!((c.normalized() - v.normalized()).norm() < 1e-12);
        // Short vectors untouched.
        assert_eq!(Vec2::new(1.0, 0.0).clamp_norm(5.0), Vec2::new(1.0, 0.0));
        // Zero clamp collapses to zero.
        assert_eq!(v.clamp_norm(0.0).norm(), 0.0);
    }

    #[test]
    fn vec2_rotation() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((v.x).abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec2_sum() {
        let total: Vec2 = [Vec2::new(1.0, 0.0), Vec2::new(0.0, 2.0)].into_iter().sum();
        assert_eq!(total, Vec2::new(1.0, 2.0));
    }

    #[test]
    fn vec2_conversions_and_display() {
        let v: Vec2 = (1.5, 2.5).into();
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.5, 2.5));
        assert_eq!(v.to_string(), "(1.5, 2.5)");
    }

    #[test]
    fn finiteness_checks() {
        assert!(Vec2::new(1.0, 2.0).is_finite());
        assert!(!Vec2::new(f64::NAN, 0.0).is_finite());
        assert!(!Vec2::new(0.0, f64::INFINITY).is_finite());
    }
}
