//! 2×2 symmetric-matrix utilities: the Hessian algebra behind
//! principal curvatures and their directions.

use crate::Vec2;

/// A symmetric 2×2 matrix `[[a, b], [b, c]]` — the shape of a surface
/// Hessian or a quadric coefficient matrix.
///
/// # Example
///
/// ```
/// use cps_linalg::SymMat2;
///
/// let h = SymMat2::new(2.0, 0.0, 3.0);
/// let (l1, l2) = h.eigenvalues();
/// assert_eq!((l1, l2), (2.0, 3.0));
/// assert_eq!(h.det(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SymMat2 {
    /// Top-left entry.
    pub a: f64,
    /// Off-diagonal entry.
    pub b: f64,
    /// Bottom-right entry.
    pub c: f64,
}

impl SymMat2 {
    /// Creates `[[a, b], [b, c]]`.
    pub const fn new(a: f64, b: f64, c: f64) -> Self {
        SymMat2 { a, b, c }
    }

    /// Matrix determinant `a·c − b²` (the Gaussian-curvature part of a
    /// Hessian).
    pub fn det(&self) -> f64 {
        self.a * self.c - self.b * self.b
    }

    /// Matrix trace `a + c` (twice the mean curvature of a Hessian).
    pub fn trace(&self) -> f64 {
        self.a + self.c
    }

    /// Eigenvalues in ascending order — for a quadric `ax² + bxy + cy²`
    /// Hessian these are the principal curvature magnitudes up to the
    /// paper's convention (`g₁,₂ = a + c ∓ √((a−c)² + b²)` matches
    /// eigenvalues of `[[2a, b], [b, 2c]]` halved appropriately).
    pub fn eigenvalues(&self) -> (f64, f64) {
        let mean = self.trace() / 2.0;
        let d = ((self.a - self.c) / 2.0).hypot(self.b);
        (mean - d, mean + d)
    }

    /// Unit eigenvector for the given eigenvalue (falls back to the X
    /// axis for the isotropic case where every direction qualifies).
    pub fn eigenvector(&self, eigenvalue: f64) -> Vec2 {
        // (A − λI)v = 0 → v ∝ (b, λ − a) or (λ − c, b).
        let v1 = Vec2::new(self.b, eigenvalue - self.a);
        let v2 = Vec2::new(eigenvalue - self.c, self.b);
        let v = if v1.norm_squared() >= v2.norm_squared() {
            v1
        } else {
            v2
        };
        if v.norm() <= 1e-14 {
            Vec2::new(1.0, 0.0)
        } else {
            v.normalized()
        }
    }

    /// Quadratic form `vᵀ M v`.
    pub fn quad_form(&self, v: Vec2) -> f64 {
        self.a * v.x * v.x + 2.0 * self.b * v.x * v.y + self.c * v.y * v.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigen() {
        let m = SymMat2::new(5.0, 0.0, -1.0);
        assert_eq!(m.eigenvalues(), (-1.0, 5.0));
        assert_eq!(m.det(), -5.0);
        assert_eq!(m.trace(), 4.0);
    }

    #[test]
    fn eigenvectors_satisfy_the_definition() {
        let m = SymMat2::new(2.0, 1.5, -0.5);
        let (l1, l2) = m.eigenvalues();
        for l in [l1, l2] {
            let v = m.eigenvector(l);
            // M·v = λ·v
            let mv = Vec2::new(m.a * v.x + m.b * v.y, m.b * v.x + m.c * v.y);
            assert!((mv - v * l).norm() < 1e-10, "λ={l}");
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
        // Eigenvectors of a symmetric matrix are orthogonal.
        let e1 = m.eigenvector(l1);
        let e2 = m.eigenvector(l2);
        assert!(e1.dot(e2).abs() < 1e-10);
    }

    #[test]
    fn isotropic_matrix_falls_back_gracefully() {
        let m = SymMat2::new(3.0, 0.0, 3.0);
        let (l1, l2) = m.eigenvalues();
        assert_eq!((l1, l2), (3.0, 3.0));
        let v = m.eigenvector(3.0);
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quad_form_matches_eigen_decomposition() {
        let m = SymMat2::new(1.0, -0.3, 2.0);
        let (l1, l2) = m.eigenvalues();
        let e1 = m.eigenvector(l1);
        let e2 = m.eigenvector(l2);
        assert!((m.quad_form(e1) - l1).abs() < 1e-10);
        assert!((m.quad_form(e2) - l2).abs() < 1e-10);
    }

    #[test]
    fn det_equals_eigenvalue_product() {
        let m = SymMat2::new(0.7, 0.4, -1.1);
        let (l1, l2) = m.eigenvalues();
        assert!((m.det() - l1 * l2).abs() < 1e-12);
        assert!((m.trace() - (l1 + l2)).abs() < 1e-12);
    }
}
