//! The reconstruction surface `z* = DT(x, y)`: scattered samples lifted
//! to a piecewise-linear surface by Delaunay triangulation.

use cps_geometry::{LocateCache, LocateCursor, Point2, Rect, Triangulation};

use crate::{Field, FieldError};

/// A piecewise-linear surface interpolating scattered samples over their
/// Delaunay triangulation — the paper's `z* = DT(x, y)` (Section 3.1,
/// "Environment reconstruction").
///
/// Queries inside the convex hull of the samples are barycentric
/// interpolations on the containing triangle; queries outside the hull
/// fall back to the nearest sample's value (the surface is total over
/// the region so that the δ integral of Eqn. 2 is defined everywhere).
///
/// # Example
///
/// ```
/// use cps_field::{Field, ReconstructedSurface};
/// use cps_geometry::{Point2, Rect};
///
/// let region = Rect::square(10.0).unwrap();
/// let positions = [
///     Point2::new(0.0, 0.0),
///     Point2::new(10.0, 0.0),
///     Point2::new(10.0, 10.0),
///     Point2::new(0.0, 10.0),
/// ];
/// // Sample the plane z = x + y at the corners.
/// let samples: Vec<f64> = positions.iter().map(|p| p.x + p.y).collect();
/// let surf = ReconstructedSurface::from_samples(region, &positions, &samples).unwrap();
/// assert!((surf.value(Point2::new(3.0, 4.0)) - 7.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ReconstructedSurface {
    triangulation: Triangulation,
    samples: Vec<f64>,
    /// Point-location accelerator snapshotted at construction; the
    /// triangulation is immutable from here on, so the cache never goes
    /// stale and keeps `value` lookups O(1) amortized during grid
    /// quadrature — including from many threads at once.
    cache: LocateCache,
}

impl ReconstructedSurface {
    /// Builds the surface from node positions and their sampled values.
    ///
    /// Duplicate positions (within the triangulation's tolerance) are
    /// merged, keeping the first value — a scattered deployment may land
    /// two nodes on the same spot.
    ///
    /// # Errors
    ///
    /// * [`FieldError::LengthMismatch`] — `positions` and `samples`
    ///   differ in length.
    /// * [`FieldError::TooFewSamples`] — fewer than 3 distinct usable
    ///   positions.
    /// * [`FieldError::SampleOutOfRegion`] — a position outside `region`.
    /// * [`FieldError::NonFiniteValue`] — a non-finite sample value or
    ///   coordinate.
    pub fn from_samples(
        region: Rect,
        positions: &[Point2],
        samples: &[f64],
    ) -> Result<Self, FieldError> {
        if positions.len() != samples.len() {
            return Err(FieldError::LengthMismatch {
                positions: positions.len(),
                values: samples.len(),
            });
        }
        if samples.iter().any(|v| !v.is_finite()) {
            return Err(FieldError::NonFiniteValue);
        }
        let mut triangulation = Triangulation::new(region);
        let mut kept = Vec::with_capacity(samples.len());
        for (&p, &z) in positions.iter().zip(samples) {
            match triangulation.insert(p) {
                Ok(_) => kept.push(z),
                Err(cps_geometry::GeometryError::DuplicatePoint { .. }) => {
                    // Merged with an earlier node at the same spot.
                }
                Err(cps_geometry::GeometryError::OutOfBounds { .. }) => {
                    return Err(FieldError::SampleOutOfRegion)
                }
                Err(cps_geometry::GeometryError::NonFiniteCoordinate) => {
                    return Err(FieldError::NonFiniteValue)
                }
                Err(e) => return Err(FieldError::Geometry(e)),
            }
        }
        if triangulation.vertex_count() < 3 {
            return Err(FieldError::TooFewSamples {
                count: triangulation.vertex_count(),
            });
        }
        let cache = triangulation.locate_cache();
        Ok(ReconstructedSurface {
            triangulation,
            samples: kept,
            cache,
        })
    }

    /// The underlying triangulation.
    pub fn triangulation(&self) -> &Triangulation {
        &self.triangulation
    }

    /// Sample values, indexed by vertex id.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Field for ReconstructedSurface {
    fn value(&self, p: Point2) -> f64 {
        // A fresh cursor per query keeps the result independent of call
        // history (and hence of thread count); the bucket cache alone
        // already provides the O(1) warm start.
        let mut cursor = LocateCursor::new();
        match self
            .triangulation
            .interpolate_with(&self.cache, &mut cursor, p, &self.samples)
        {
            Some(z) => z,
            None => {
                // Outside the hull of the samples: nearest-sample value.
                // Construction guarantees at least 3 vertices, so the
                // lookup cannot fail; degrade to the sample mean rather
                // than panicking mid-quadrature if that ever changes.
                match self.triangulation.nearest_vertex(p) {
                    Some(id) => self.samples[id.0],
                    None => self.samples.iter().sum::<f64>() / self.samples.len().max(1) as f64,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Rect {
        Rect::square(10.0).unwrap()
    }

    fn corners_and(center: bool) -> (Vec<Point2>, Vec<f64>) {
        let mut ps: Vec<Point2> = region().corners().to_vec();
        if center {
            ps.push(Point2::new(5.0, 5.0));
        }
        let zs = ps.iter().map(|p| 2.0 * p.x - p.y).collect();
        (ps, zs)
    }

    #[test]
    fn validation_errors() {
        let (ps, zs) = corners_and(false);
        assert!(matches!(
            ReconstructedSurface::from_samples(region(), &ps, &zs[..3]),
            Err(FieldError::LengthMismatch { .. })
        ));
        assert!(matches!(
            ReconstructedSurface::from_samples(region(), &ps[..2], &zs[..2]),
            Err(FieldError::TooFewSamples { count: 2 })
        ));
        let bad = vec![f64::NAN; 4];
        assert!(matches!(
            ReconstructedSurface::from_samples(region(), &ps, &bad),
            Err(FieldError::NonFiniteValue)
        ));
        let outside = vec![Point2::new(50.0, 50.0); 4];
        assert!(matches!(
            ReconstructedSurface::from_samples(region(), &outside, &zs),
            Err(FieldError::SampleOutOfRegion)
        ));
    }

    #[test]
    fn duplicates_are_merged() {
        let (mut ps, mut zs) = corners_and(true);
        ps.push(Point2::new(5.0, 5.0)); // exact duplicate of the centre
        zs.push(999.0); // later value must be dropped
        let surf = ReconstructedSurface::from_samples(region(), &ps, &zs).unwrap();
        assert_eq!(surf.samples().len(), 5);
        assert!((surf.value(Point2::new(5.0, 5.0)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn interpolates_plane_exactly() {
        let (ps, zs) = corners_and(true);
        let surf = ReconstructedSurface::from_samples(region(), &ps, &zs).unwrap();
        for p in [
            Point2::new(1.0, 9.0),
            Point2::new(7.3, 2.2),
            Point2::new(5.0, 0.0),
        ] {
            assert!((surf.value(p) - (2.0 * p.x - p.y)).abs() < 1e-9);
        }
    }

    #[test]
    fn outside_hull_falls_back_to_nearest() {
        // Three samples in the middle of the region: hull misses corners.
        let ps = [
            Point2::new(4.0, 4.0),
            Point2::new(6.0, 4.0),
            Point2::new(5.0, 6.0),
        ];
        let zs = [1.0, 2.0, 3.0];
        let surf = ReconstructedSurface::from_samples(region(), &ps, &zs).unwrap();
        // Near the region corner (0,0), the nearest sample is the first.
        assert_eq!(surf.value(Point2::new(0.0, 0.0)), 1.0);
        assert_eq!(surf.value(Point2::new(10.0, 10.0)), 3.0);
    }
}
