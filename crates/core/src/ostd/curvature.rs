//! Local Gaussian-curvature estimation (Eqns. 11–13 of the paper).
//!
//! A node senses `m = ⌊πRs²⌋` positions in its sensing range and fits
//! the quadric `a·x² + b·xy + c·y² = z` (coordinates and values relative
//! to the node) by least squares — the *m nearest-neighbors method*. The
//! principal curvatures follow in closed form:
//!
//! ```text
//! g₁ = a + c − √((a−c)² + b²)          (Eqn. 12)
//! g₂ = a + c + √((a−c)² + b²)          (Eqn. 13)
//! G  = g₁ · g₂
//! ```

use cps_field::Field;
use cps_geometry::Point2;
use cps_linalg::solve_3x3;

use crate::CoreError;

/// The fitted quadric `z = a·x² + b·xy + c·y²` around a node (relative
/// coordinates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadricFit {
    /// Coefficient of `x²`.
    pub a: f64,
    /// Coefficient of `xy`.
    pub b: f64,
    /// Coefficient of `y²`.
    pub c: f64,
}

impl QuadricFit {
    /// Principal curvatures `(g₁, g₂)` per Eqns. 12–13.
    pub fn principal_curvatures(&self) -> (f64, f64) {
        let s = ((self.a - self.c) * (self.a - self.c) + self.b * self.b).sqrt();
        (self.a + self.c - s, self.a + self.c + s)
    }

    /// Gaussian curvature `G = g₁·g₂`.
    pub fn gaussian_curvature(&self) -> f64 {
        let (g1, g2) = self.principal_curvatures();
        g1 * g2
    }

    /// `|G|` — the non-negative curvature *weight* used by the
    /// force and balance computations. The paper assumes convex
    /// surfaces where `G ≥ 0`; taking the magnitude extends the
    /// leverage semantics to saddle regions of real data.
    pub fn curvature_weight(&self) -> f64 {
        self.gaussian_curvature().abs()
    }
}

/// Fits the quadric of Eqn. 11 to samples around `center`.
///
/// `samples` are `(position, value)` pairs — typically everything a node
/// sensed within `Rs`; the sample at the centre itself (if present) is
/// skipped because its design row is identically zero.
///
/// # Errors
///
/// * [`CoreError::TooFewSamplesForFit`] — fewer than 3 usable samples.
/// * [`CoreError::DegenerateFit`] — the normal equations are singular
///   (e.g. all samples collinear through the centre).
///
/// # Example
///
/// ```
/// use cps_core::ostd::fit_quadric;
/// use cps_geometry::Point2;
///
/// // Samples of the bowl z = x² + y² around the origin.
/// let samples: Vec<(Point2, f64)> = [
///     (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 1.0),
/// ]
/// .iter()
/// .map(|&(x, y)| (Point2::new(x, y), x * x + y * y))
/// .collect();
/// let fit = fit_quadric(Point2::new(0.0, 0.0), 0.0, &samples).unwrap();
/// assert!((fit.gaussian_curvature() - 4.0).abs() < 1e-9);
/// ```
pub fn fit_quadric(
    center: Point2,
    center_value: f64,
    samples: &[(Point2, f64)],
) -> Result<QuadricFit, CoreError> {
    fit_quadric_over(center, center_value, samples.iter().copied())
}

/// [`fit_quadric`] over any sample sequence, accumulated in order — a
/// caller can fit a filtered view of its samples without collecting it.
pub(crate) fn fit_quadric_over(
    center: Point2,
    center_value: f64,
    samples: impl IntoIterator<Item = (Point2, f64)>,
) -> Result<QuadricFit, CoreError> {
    // Accumulate the 3×3 normal equations directly — the design matrix
    // has only three columns, so this is both exact and allocation-free
    // (important: this runs for every sensed position of every node at
    // every time step).
    let mut ata = [[0.0f64; 3]; 3];
    let mut atz = [0.0f64; 3];
    let mut used = 0usize;
    for (p, z) in samples {
        let x = p.x - center.x;
        let y = p.y - center.y;
        if x == 0.0 && y == 0.0 {
            continue; // the centre row is identically zero
        }
        let row = [x * x, x * y, y * y];
        let rel_z = z - center_value;
        for r in 0..3 {
            for c in 0..3 {
                ata[r][c] += row[r] * row[c];
            }
            atz[r] += row[r] * rel_z;
        }
        used += 1;
    }
    if used < 3 {
        return Err(CoreError::TooFewSamplesForFit { count: used });
    }
    let coef = solve_3x3(&ata, &atz).map_err(|_| CoreError::DegenerateFit)?;
    Ok(QuadricFit {
        a: coef[0],
        b: coef[1],
        c: coef[2],
    })
}

/// Gaussian curvature of an arbitrary [`Field`] at `p`, estimated by the
/// same quadric fit over a ring of probes at spacing `h` — the
/// "global-information" curvature used by the CWD reference solver and
/// the simulator's sensing model.
///
/// # Errors
///
/// Propagates [`fit_quadric`] errors (degenerate only for pathological
/// `h`).
pub fn gaussian_curvature_at<F: Field>(field: &F, p: Point2, h: f64) -> Result<f64, CoreError> {
    debug_assert!(h > 0.0, "probe spacing must be positive");
    let mut samples = Vec::with_capacity(8);
    for (dx, dy) in [
        (1.0, 0.0),
        (-1.0, 0.0),
        (0.0, 1.0),
        (0.0, -1.0),
        (1.0, 1.0),
        (1.0, -1.0),
        (-1.0, 1.0),
        (-1.0, -1.0),
    ] {
        let q = Point2::new(p.x + dx * h, p.y + dy * h);
        samples.push((q, field.value(q)));
    }
    let fit = fit_quadric(p, field.value(p), &samples)?;
    Ok(fit.gaussian_curvature())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{ParaboloidField, PlaneField};

    fn disc_samples<F: Field>(field: &F, center: Point2, radius: f64) -> Vec<(Point2, f64)> {
        // Integer-offset positions within the sensing disc, the paper's
        // m = ⌊πRs²⌋ model.
        let mut out = Vec::new();
        let r = radius.ceil() as i32;
        for dx in -r..=r {
            for dy in -r..=r {
                let p = Point2::new(center.x + dx as f64, center.y + dy as f64);
                if center.distance(p) <= radius {
                    out.push((p, field.value(p)));
                }
            }
        }
        out
    }

    #[test]
    fn recovers_analytic_curvature_of_bowl() {
        let f = ParaboloidField::new(Point2::new(3.0, 4.0), 0.5, 0.0, 0.5);
        let samples = disc_samples(&f, Point2::new(3.0, 4.0), 5.0);
        let fit = fit_quadric(Point2::new(3.0, 4.0), 0.0, &samples).unwrap();
        assert!((fit.gaussian_curvature() - f.gaussian_curvature()).abs() < 1e-9);
        let (g1, g2) = fit.principal_curvatures();
        assert!((g1 - 1.0).abs() < 1e-9);
        assert!((g2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_saddle_sign() {
        let f = ParaboloidField::new(Point2::ORIGIN, 1.0, 0.0, -1.0);
        let samples = disc_samples(&f, Point2::ORIGIN, 3.0);
        let fit = fit_quadric(Point2::ORIGIN, 0.0, &samples).unwrap();
        assert!(fit.gaussian_curvature() < 0.0);
        assert!((fit.gaussian_curvature() + 4.0).abs() < 1e-9);
        assert_eq!(fit.curvature_weight(), -fit.gaussian_curvature());
    }

    #[test]
    fn cross_term_is_recovered() {
        let f = ParaboloidField::new(Point2::ORIGIN, 0.0, 1.0, 0.0);
        let samples = disc_samples(&f, Point2::ORIGIN, 3.0);
        let fit = fit_quadric(Point2::ORIGIN, 0.0, &samples).unwrap();
        assert!(fit.a.abs() < 1e-9);
        assert!((fit.b - 1.0).abs() < 1e-9);
        assert!(fit.c.abs() < 1e-9);
        // G = g1·g2 = (0 − 1)(0 + 1) = −1.
        assert!((fit.gaussian_curvature() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn plane_has_zero_curvature() {
        let f = PlaneField::new(2.0, -3.0, 1.0);
        let samples = disc_samples(&f, Point2::new(1.0, 1.0), 3.0);
        // Relative z on a plane is linear, and the quadric basis can
        // only fit it with a ≈ b ≈ c ≈ 0 on symmetric discs... not
        // exactly (linear terms alias into the quadric); what must hold
        // is |G| far smaller than a genuinely curved surface's.
        let fit = fit_quadric(
            Point2::new(1.0, 1.0),
            f.value(Point2::new(1.0, 1.0)),
            &samples,
        )
        .unwrap();
        assert!(
            fit.curvature_weight() < 0.3,
            "weight {}",
            fit.curvature_weight()
        );
    }

    #[test]
    fn too_few_or_degenerate_samples() {
        let p = Point2::ORIGIN;
        assert!(matches!(
            fit_quadric(p, 0.0, &[]),
            Err(CoreError::TooFewSamplesForFit { count: 0 })
        ));
        // Centre sample must not count toward the minimum.
        let only_center = [(p, 0.0)];
        assert!(matches!(
            fit_quadric(p, 0.0, &only_center),
            Err(CoreError::TooFewSamplesForFit { count: 0 })
        ));
        // Collinear through the centre: rank-deficient for the 3-basis.
        let collinear: Vec<(Point2, f64)> = (1..=4)
            .map(|i| (Point2::new(i as f64, 0.0), (i * i) as f64))
            .collect();
        assert!(matches!(
            fit_quadric(p, 0.0, &collinear),
            Err(CoreError::DegenerateFit)
        ));
    }

    #[test]
    fn field_probe_matches_closed_form() {
        let f = ParaboloidField::new(Point2::new(5.0, 5.0), 0.3, 0.1, 0.4);
        let g = gaussian_curvature_at(&f, Point2::new(5.0, 5.0), 0.5).unwrap();
        assert!((g - f.gaussian_curvature()).abs() < 1e-9);
    }
}
