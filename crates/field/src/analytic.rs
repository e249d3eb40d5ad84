//! Analytic benchmark surfaces.
//!
//! [`PeaksField`] reproduces Matlab's `peaks` function, which the paper
//! uses in Fig. 3 to contrast the uniform and curvature-weighted
//! distributions. The Gaussian-mixture machinery also underlies the
//! synthetic GreenOrbs trace generator.

use cps_geometry::{Point2, Rect};

use crate::Field;

/// Matlab's `peaks` surface mapped onto a rectangle.
///
/// The canonical formula is defined on `[-3, 3]²`:
///
/// ```text
/// z = 3(1−x)²·e^(−x²−(y+1)²) − 10(x/5 − x³ − y⁵)·e^(−x²−y²) − ⅓·e^(−(x+1)²−y²)
/// ```
///
/// [`PeaksField::new`] rescales a region of interest (the paper uses a
/// 100×100 square) onto that canonical domain and scales the amplitude.
///
/// # Example
///
/// ```
/// use cps_field::{Field, PeaksField};
/// use cps_geometry::{Point2, Rect};
///
/// let f = PeaksField::new(Rect::square(100.0).unwrap(), 8.0);
/// let center = f.value(Point2::new(50.0, 50.0));
/// assert!(center.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeaksField {
    region: Rect,
    amplitude: f64,
}

impl PeaksField {
    /// Creates a peaks surface over `region` with the given amplitude
    /// multiplier (1.0 reproduces Matlab's range of roughly ±8).
    pub fn new(region: Rect, amplitude: f64) -> Self {
        PeaksField { region, amplitude }
    }

    /// The mapped region.
    pub fn region(&self) -> Rect {
        self.region
    }
}

impl Field for PeaksField {
    fn value(&self, p: Point2) -> f64 {
        // Map the region onto the canonical [-3, 3]² domain.
        let x = (p.x - self.region.min().x) / self.region.width() * 6.0 - 3.0;
        let y = (p.y - self.region.min().y) / self.region.height() * 6.0 - 3.0;
        let term1 = 3.0 * (1.0 - x) * (1.0 - x) * (-x * x - (y + 1.0) * (y + 1.0)).exp();
        let term2 = -10.0 * (x / 5.0 - x.powi(3) - y.powi(5)) * (-x * x - y * y).exp();
        let term3 = -(1.0 / 3.0) * (-(x + 1.0) * (x + 1.0) - y * y).exp();
        self.amplitude * (term1 + term2 + term3)
    }
}

/// A single anisotropic Gaussian bump (or dip, with negative amplitude).
///
/// `value = amplitude · exp(−((x−cx)/σx)²/2 − ((y−cy)/σy)²/2)`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianBlob {
    /// Blob centre.
    pub center: Point2,
    /// Peak value at the centre (may be negative for a dip).
    pub amplitude: f64,
    /// Standard deviation along X (must be positive).
    pub sigma_x: f64,
    /// Standard deviation along Y (must be positive).
    pub sigma_y: f64,
}

impl GaussianBlob {
    /// Creates an isotropic blob.
    pub fn isotropic(center: Point2, amplitude: f64, sigma: f64) -> Self {
        GaussianBlob {
            center,
            amplitude,
            sigma_x: sigma,
            sigma_y: sigma,
        }
    }
}

impl Field for GaussianBlob {
    fn value(&self, p: Point2) -> f64 {
        let dx = (p.x - self.center.x) / self.sigma_x;
        let dy = (p.y - self.center.y) / self.sigma_y;
        self.amplitude * (-0.5 * (dx * dx + dy * dy)).exp()
    }
}

/// A sum of Gaussian blobs over a constant base level — the workhorse
/// synthetic environment (sun flecks over ambient light, heat islands,
/// humidity pockets).
///
/// # Example
///
/// ```
/// use cps_field::{Field, GaussianBlob, GaussianMixtureField};
/// use cps_geometry::Point2;
///
/// let f = GaussianMixtureField::new(
///     1.0,
///     vec![GaussianBlob::isotropic(Point2::new(0.0, 0.0), 2.0, 1.0)],
/// );
/// assert!((f.value(Point2::new(0.0, 0.0)) - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GaussianMixtureField {
    base: f64,
    blobs: Vec<GaussianBlob>,
}

impl GaussianMixtureField {
    /// Creates a mixture with a constant `base` level plus `blobs`.
    pub fn new(base: f64, blobs: Vec<GaussianBlob>) -> Self {
        GaussianMixtureField { base, blobs }
    }

    /// The constant base level.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The component blobs.
    pub fn blobs(&self) -> &[GaussianBlob] {
        &self.blobs
    }

    /// Adds a blob.
    pub fn push(&mut self, blob: GaussianBlob) {
        self.blobs.push(blob);
    }

    /// Returns a copy with every blob centre displaced by `(dx, dy)`, so
    /// that `translated(dx, dy).value(p + (dx, dy)) == value(p)` up to
    /// rounding.
    pub fn translated(&self, dx: f64, dy: f64) -> GaussianMixtureField {
        GaussianMixtureField {
            base: self.base,
            blobs: self
                .blobs
                .iter()
                .map(|b| GaussianBlob {
                    center: Point2::new(b.center.x + dx, b.center.y + dy),
                    ..*b
                })
                .collect(),
        }
    }
}

impl Field for GaussianMixtureField {
    fn value(&self, p: Point2) -> f64 {
        self.base + self.blobs.iter().map(|b| b.value(p)).sum::<f64>()
    }
}

/// The affine field `z = a·x + b·y + c`. Its Delaunay reconstruction is
/// exact from any three non-collinear samples, making it the canonical
/// zero-error test case.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlaneField {
    a: f64,
    b: f64,
    c: f64,
}

impl PlaneField {
    /// Creates `z = a·x + b·y + c`.
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        PlaneField { a, b, c }
    }
}

impl Field for PlaneField {
    fn value(&self, p: Point2) -> f64 {
        self.a * p.x + self.b * p.y + self.c
    }
}

/// The quadric `z = a·x² + b·xy + c·y²` centred on a point. Its
/// Gaussian curvature at the centre is known in closed form, making it
/// the ground truth for the curvature-estimation tests (Eqns. 11–13 of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParaboloidField {
    center: Point2,
    /// Coefficient of `x²`.
    pub a: f64,
    /// Coefficient of `xy`.
    pub b: f64,
    /// Coefficient of `y²`.
    pub c: f64,
}

impl ParaboloidField {
    /// Creates `z = a·(x−cx)² + b·(x−cx)(y−cy) + c·(y−cy)²`.
    pub fn new(center: Point2, a: f64, b: f64, c: f64) -> Self {
        ParaboloidField { center, a, b, c }
    }

    /// The paper's principal curvatures at the centre
    /// (`g₁,₂ = a + c ∓ √((a−c)² + b²)`, Eqns. 12–13).
    pub fn principal_curvatures(&self) -> (f64, f64) {
        let s = ((self.a - self.c) * (self.a - self.c) + self.b * self.b).sqrt();
        (self.a + self.c - s, self.a + self.c + s)
    }

    /// The paper's Gaussian curvature `G = g₁·g₂` at the centre.
    pub fn gaussian_curvature(&self) -> f64 {
        let (g1, g2) = self.principal_curvatures();
        g1 * g2
    }
}

impl Field for ParaboloidField {
    fn value(&self, p: Point2) -> f64 {
        let x = p.x - self.center.x;
        let y = p.y - self.center.y;
        self.a * x * x + self.b * x * y + self.c * y * y
    }
}

/// A sinusoidal ridge field `z = amplitude · sin(2π·x/λx) · cos(2π·y/λy)`,
/// useful as a non-convex stress surface (the paper's future-work
/// concave case).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidgeField {
    /// Peak height.
    pub amplitude: f64,
    /// Wavelength along X (must be non-zero).
    pub wavelength_x: f64,
    /// Wavelength along Y (must be non-zero).
    pub wavelength_y: f64,
}

impl RidgeField {
    /// Creates a ridge field.
    pub fn new(amplitude: f64, wavelength_x: f64, wavelength_y: f64) -> Self {
        RidgeField {
            amplitude,
            wavelength_x,
            wavelength_y,
        }
    }
}

impl Field for RidgeField {
    fn value(&self, p: Point2) -> f64 {
        let tau = std::f64::consts::TAU;
        self.amplitude
            * (tau * p.x / self.wavelength_x).sin()
            * (tau * p.y / self.wavelength_y).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_geometry::GridSpec;

    #[test]
    fn peaks_has_matlab_extremes() {
        // Matlab's peaks ranges roughly over [-6.55, 8.11] on [-3,3]².
        let region = Rect::square(100.0).unwrap();
        let f = PeaksField::new(region, 1.0);
        let grid = GridSpec::new(region, 201, 201).unwrap();
        let s = f.summarize(&grid);
        assert!((s.max - 8.1).abs() < 0.2, "max {}", s.max);
        assert!((s.min + 6.55).abs() < 0.2, "min {}", s.min);
    }

    #[test]
    fn peaks_amplitude_scales_linearly() {
        let region = Rect::square(10.0).unwrap();
        let f1 = PeaksField::new(region, 1.0);
        let f2 = PeaksField::new(region, 3.0);
        let p = Point2::new(4.0, 7.0);
        assert!((f2.value(p) - 3.0 * f1.value(p)).abs() < 1e-12);
        assert_eq!(f1.region(), region);
    }

    #[test]
    fn blob_peaks_at_center_and_decays() {
        let b = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 2.0, 1.0);
        assert_eq!(b.value(Point2::new(5.0, 5.0)), 2.0);
        assert!(b.value(Point2::new(6.0, 5.0)) < 2.0);
        assert!(b.value(Point2::new(15.0, 5.0)) < 1e-8);
    }

    #[test]
    fn anisotropic_blob_stretches() {
        let b = GaussianBlob {
            center: Point2::ORIGIN,
            amplitude: 1.0,
            sigma_x: 4.0,
            sigma_y: 1.0,
        };
        // Same offset decays slower along the wide axis.
        assert!(b.value(Point2::new(2.0, 0.0)) > b.value(Point2::new(0.0, 2.0)));
    }

    #[test]
    fn mixture_sums_components() {
        let mut f = GaussianMixtureField::new(10.0, vec![]);
        assert_eq!(f.value(Point2::ORIGIN), 10.0);
        f.push(GaussianBlob::isotropic(Point2::ORIGIN, 5.0, 2.0));
        assert_eq!(f.value(Point2::ORIGIN), 15.0);
        assert_eq!(f.blobs().len(), 1);
        assert_eq!(f.base(), 10.0);
    }

    #[test]
    fn mixture_translation_shifts_peaks() {
        let f = GaussianMixtureField::new(
            0.0,
            vec![GaussianBlob::isotropic(Point2::new(1.0, 1.0), 1.0, 0.5)],
        );
        let g = f.translated(2.0, -1.0);
        assert!((g.value(Point2::new(3.0, 0.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plane_is_affine() {
        let f = PlaneField::new(2.0, -1.0, 3.0);
        assert_eq!(f.value(Point2::new(1.0, 1.0)), 4.0);
    }

    #[test]
    fn paraboloid_curvature_closed_form() {
        // Isotropic bowl z = x² + y²: g1 = g2 = 2, G = 4.
        let f = ParaboloidField::new(Point2::ORIGIN, 1.0, 0.0, 1.0);
        let (g1, g2) = f.principal_curvatures();
        assert_eq!((g1, g2), (2.0, 2.0));
        assert_eq!(f.gaussian_curvature(), 4.0);
        // Saddle z = x² − y²: G = (0−2)·(0+2)... g1 = 0−2 = hmm, from the
        // formula: a=1, c=−1 ⇒ g1 = 0 − 2 = −2, g2 = 2, G = −4.
        let s = ParaboloidField::new(Point2::ORIGIN, 1.0, 0.0, -1.0);
        assert_eq!(s.gaussian_curvature(), -4.0);
    }

    #[test]
    fn ridge_oscillates() {
        let f = RidgeField::new(2.0, 4.0, 4.0);
        assert!((f.value(Point2::new(1.0, 0.0)) - 2.0).abs() < 1e-12);
        assert!((f.value(Point2::new(3.0, 0.0)) + 2.0).abs() < 1e-12);
        assert!(f.value(Point2::new(0.0, 0.0)).abs() < 1e-12);
    }
}
