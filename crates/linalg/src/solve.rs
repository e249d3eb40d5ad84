//! The closed-form 3×3 solver behind the curvature quadric fit.

use crate::LinalgError;

/// Pivot threshold below which a matrix is treated as singular.
const SINGULAR_EPS: f64 = 1e-12;

/// Solves a 3×3 system `M·x = b` given as row-major arrays, by Cramer's
/// rule. Used for the curvature quadric's normal equations on hot paths.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] when `det(M)` is below the
/// singularity threshold.
pub fn solve_3x3(m: &[[f64; 3]; 3], b: &[f64; 3]) -> Result<[f64; 3], LinalgError> {
    let det = det3(m);
    if det.abs() < SINGULAR_EPS {
        return Err(LinalgError::Singular);
    }
    let mut out = [0.0; 3];
    for col in 0..3 {
        let mut mc = *m;
        for row in 0..3 {
            mc[row][col] = b[row];
        }
        out[col] = det3(&mc) / det;
    }
    Ok(out)
}

#[inline]
fn det3(m: &[[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_3x3_cramer_matches_dense() {
        let m = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]];
        let b = [8.0, -11.0, -3.0];
        let x = solve_3x3(&m, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
        let singular = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]];
        assert!(solve_3x3(&singular, &b).is_err());
    }
}
