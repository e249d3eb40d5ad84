//! Scalar fields sampled on a regular grid.

use cps_geometry::{GridSpec, Point2};

use crate::{Field, FieldError};

/// A scalar field stored as samples on a regular grid, evaluated
/// anywhere by bilinear interpolation.
///
/// Queries outside the grid's rectangle are clamped to the boundary, so
/// the field is total over the plane (constant extension).
///
/// # Example
///
/// ```
/// use cps_field::{Field, GridField};
/// use cps_geometry::{GridSpec, Point2, Rect};
///
/// let grid = GridSpec::new(Rect::square(10.0).unwrap(), 11, 11).unwrap();
/// let f = GridField::from_fn(grid, |p| p.x * p.y);
/// // Bilinear interpolation reproduces the bilinear function exactly.
/// assert!((f.value(Point2::new(2.5, 3.5)) - 8.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridField {
    spec: GridSpec,
    /// Row-major (`j`-major) samples, `values[j * nx + i]`.
    values: Vec<f64>,
}

impl GridField {
    /// Wraps existing samples (row-major, `j`-major, as produced by
    /// [`Field::sample_grid`]).
    ///
    /// # Errors
    ///
    /// * [`FieldError::LengthMismatch`] — `values.len() != spec.len()`.
    /// * [`FieldError::NonFiniteValue`] — any sample is NaN/∞.
    pub fn new(spec: GridSpec, values: Vec<f64>) -> Result<Self, FieldError> {
        if values.len() != spec.len() {
            return Err(FieldError::LengthMismatch {
                positions: spec.len(),
                values: values.len(),
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(FieldError::NonFiniteValue);
        }
        Ok(GridField { spec, values })
    }

    /// Samples `f` at every grid point.
    pub fn from_fn<F: FnMut(Point2) -> f64>(spec: GridSpec, mut f: F) -> Self {
        let mut values = vec![0.0; spec.len()];
        for (i, j, p) in spec.iter() {
            values[spec.flat_index(i, j)] = f(p);
        }
        GridField { spec, values }
    }

    /// Rasterizes any [`Field`] onto a grid.
    pub fn from_field<F: Field>(spec: GridSpec, field: &F) -> Self {
        GridField::from_fn(spec, |p| field.value(p))
    }

    /// The grid specification.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Borrows the raw samples (row-major, `j`-major).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample at grid point `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of the grid.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.values[self.spec.flat_index(i, j)]
    }

    /// Pointwise map, producing a new field on the same grid.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> GridField {
        GridField {
            spec: self.spec,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Minimum sample value.
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl Field for GridField {
    fn value(&self, p: Point2) -> f64 {
        let rect = self.spec.rect();
        let q = rect.clamp(p);
        let fx = (q.x - rect.min().x) / self.spec.dx();
        let fy = (q.y - rect.min().y) / self.spec.dy();
        let i0 = (fx.floor() as usize).min(self.spec.nx() - 2);
        let j0 = (fy.floor() as usize).min(self.spec.ny() - 2);
        let tx = (fx - i0 as f64).clamp(0.0, 1.0);
        let ty = (fy - j0 as f64).clamp(0.0, 1.0);
        let v00 = self.at(i0, j0);
        let v10 = self.at(i0 + 1, j0);
        let v01 = self.at(i0, j0 + 1);
        let v11 = self.at(i0 + 1, j0 + 1);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_geometry::Rect;

    fn spec() -> GridSpec {
        GridSpec::new(Rect::square(10.0).unwrap(), 11, 11).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            GridField::new(spec(), vec![0.0; 5]),
            Err(FieldError::LengthMismatch { .. })
        ));
        let mut vals = vec![0.0; spec().len()];
        vals[3] = f64::NAN;
        assert!(matches!(
            GridField::new(spec(), vals),
            Err(FieldError::NonFiniteValue)
        ));
        assert!(GridField::new(spec(), vec![1.0; spec().len()]).is_ok());
    }

    #[test]
    fn exact_at_grid_points() {
        let f = GridField::from_fn(spec(), |p| p.x - 3.0 * p.y);
        for (i, j, p) in spec().iter() {
            assert_eq!(f.at(i, j), p.x - 3.0 * p.y);
            assert!((f.value(p) - (p.x - 3.0 * p.y)).abs() < 1e-12);
        }
    }

    #[test]
    fn bilinear_between_grid_points() {
        let f = GridField::from_fn(spec(), |p| 2.0 * p.x + p.y);
        // Affine functions are reproduced exactly by bilinear interpolation.
        for (x, y) in [(0.5, 0.5), (3.3, 7.7), (9.99, 0.01)] {
            let p = Point2::new(x, y);
            assert!((f.value(p) - (2.0 * x + y)).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_region_queries_clamp() {
        let f = GridField::from_fn(spec(), |p| p.x);
        assert_eq!(f.value(Point2::new(-5.0, 5.0)), 0.0);
        assert_eq!(f.value(Point2::new(25.0, 5.0)), 10.0);
    }

    #[test]
    fn map_and_extremes() {
        let f = GridField::from_fn(spec(), |p| p.x);
        let g = f.map(|v| -v);
        assert_eq!(g.min_value(), -10.0);
        assert_eq!(g.max_value(), 0.0);
        assert_eq!(f.max_value(), 10.0);
    }

    #[test]
    fn from_field_round_trip() {
        struct Lin;
        impl Field for Lin {
            fn value(&self, p: Point2) -> f64 {
                p.y
            }
        }
        let f = GridField::from_field(spec(), &Lin);
        assert_eq!(f.values().len(), 121);
        assert_eq!(f.at(0, 10), 10.0);
    }
}
