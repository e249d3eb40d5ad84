//! Rectangular regions of interest and sampling grids.

use crate::{GeometryError, Point2};

/// An axis-aligned rectangle, used as the region of interest `A`.
///
/// # Example
///
/// ```
/// use cps_geometry::{Point2, Rect};
///
/// // The paper's 100×100 m region.
/// let region = Rect::square(100.0).unwrap();
/// assert_eq!(region.area(), 10_000.0);
/// assert!(region.contains(Point2::new(50.0, 50.0)));
/// assert!(!region.contains(Point2::new(101.0, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point2,
    max: Point2,
}

impl Rect {
    /// Creates a rectangle from its minimum and maximum corners.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::InvalidRect`] — `min` is not strictly below
    ///   `max` in both coordinates.
    /// * [`GeometryError::NonFiniteCoordinate`] — a corner is NaN or
    ///   infinite.
    pub fn new(min: Point2, max: Point2) -> Result<Self, GeometryError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(GeometryError::NonFiniteCoordinate);
        }
        if min.x >= max.x || min.y >= max.y {
            return Err(GeometryError::InvalidRect { min, max });
        }
        Ok(Rect { min, max })
    }

    /// A `side`×`side` square with its minimum corner at the origin —
    /// the paper's canonical region shape.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidRect`] if `side` is not a positive
    /// finite number.
    pub fn square(side: f64) -> Result<Self, GeometryError> {
        Rect::new(Point2::ORIGIN, Point2::new(side, side))
    }

    /// Minimum corner.
    #[inline]
    pub fn min(&self) -> Point2 {
        self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max(&self) -> Point2 {
        self.max
    }

    /// Width along X.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along Y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }

    /// The four corners in counterclockwise order starting at `min`.
    pub fn corners(&self) -> [Point2; 4] {
        [
            self.min,
            Point2::new(self.max.x, self.min.y),
            self.max,
            Point2::new(self.min.x, self.max.y),
        ]
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the rectangle (component-wise).
    #[inline]
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Grows the rectangle by `margin` on every side.
    ///
    /// # Panics
    ///
    /// Panics (via `Rect::new` invariants, in debug) when shrinking with a
    /// negative margin would invert the rectangle; callers use positive
    /// margins.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            min: Point2::new(self.min.x - margin, self.min.y - margin),
            max: Point2::new(self.max.x + margin, self.max.y + margin),
        }
    }
}

/// A regular sampling grid over a [`Rect`], mapping integer indices to
/// coordinates. Mirrors the paper's evaluation of the `√A × √A` positions
/// of the region (Table 1's `Err[√A][√A]` array).
///
/// Grid point `(i, j)` with `0 ≤ i < nx`, `0 ≤ j < ny` sits at the
/// coordinates returned by [`GridSpec::point`], with `(0, 0)` at the
/// region minimum and `(nx−1, ny−1)` at the maximum.
///
/// # Example
///
/// ```
/// use cps_geometry::{GridSpec, Rect};
///
/// let region = Rect::square(100.0).unwrap();
/// let grid = GridSpec::new(region, 101, 101).unwrap();
/// assert_eq!(grid.point(0, 0), region.min());
/// assert_eq!(grid.point(100, 100), region.max());
/// assert_eq!(grid.len(), 101 * 101);
/// // Cell area for quadrature:
/// assert!((grid.cell_area() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    rect: Rect,
    nx: usize,
    ny: usize,
}

impl GridSpec {
    /// Creates a grid with `nx × ny` sample points over `rect`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyGrid`] when either dimension is less
    /// than 2 (a grid needs at least one cell).
    pub fn new(rect: Rect, nx: usize, ny: usize) -> Result<Self, GeometryError> {
        if nx < 2 || ny < 2 {
            return Err(GeometryError::EmptyGrid);
        }
        Ok(GridSpec { rect, nx, ny })
    }

    /// The underlying region.
    #[inline]
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Number of sample points along X.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of sample points along Y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of sample points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Always `false`: construction requires at least 2×2 points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grid spacing along X.
    #[inline]
    pub fn dx(&self) -> f64 {
        self.rect.width() / (self.nx - 1) as f64
    }

    /// Grid spacing along Y.
    #[inline]
    pub fn dy(&self) -> f64 {
        self.rect.height() / (self.ny - 1) as f64
    }

    /// Area associated with one grid cell (`dx · dy`), the quadrature
    /// weight for integrating over the region.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.dx() * self.dy()
    }

    /// Coordinates of grid point `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nx()` or `j >= ny()`.
    #[inline]
    pub fn point(&self, i: usize, j: usize) -> Point2 {
        assert!(i < self.nx && j < self.ny, "grid index out of bounds");
        Point2::new(
            self.rect.min().x + self.dx() * i as f64,
            self.rect.min().y + self.dy() * j as f64,
        )
    }

    /// Flat row-major index of grid point `(i, j)` (`j` major).
    #[inline]
    pub fn flat_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny);
        j * self.nx + i
    }

    /// The grid indices nearest to an arbitrary point, clamped to the
    /// grid.
    pub fn nearest_index(&self, p: Point2) -> (usize, usize) {
        let fi = ((p.x - self.rect.min().x) / self.dx()).round();
        let fj = ((p.y - self.rect.min().y) / self.dy()).round();
        let i = fi.clamp(0.0, (self.nx - 1) as f64) as usize;
        let j = fj.clamp(0.0, (self.ny - 1) as f64) as usize;
        (i, j)
    }

    /// Iterates over all grid points as `(i, j, point)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Point2)> + '_ {
        let (nx, ny) = (self.nx, self.ny);
        (0..ny).flat_map(move |j| (0..nx).map(move |i| (i, j, self.point(i, j))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_validation() {
        assert!(Rect::new(Point2::new(0.0, 0.0), Point2::new(0.0, 1.0)).is_err());
        assert!(Rect::new(Point2::new(2.0, 0.0), Point2::new(1.0, 1.0)).is_err());
        assert!(Rect::new(Point2::new(0.0, 0.0), Point2::new(f64::NAN, 1.0)).is_err());
        assert!(Rect::square(-5.0).is_err());
        assert!(Rect::square(10.0).is_ok());
    }

    #[test]
    fn rect_geometry() {
        let r = Rect::new(Point2::new(1.0, 2.0), Point2::new(5.0, 8.0)).unwrap();
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 6.0);
        assert_eq!(r.area(), 24.0);
        assert_eq!(r.center(), Point2::new(3.0, 5.0));
        let corners = r.corners();
        assert_eq!(corners[0], r.min());
        assert_eq!(corners[2], r.max());
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::square(10.0).unwrap();
        assert!(r.contains(Point2::new(0.0, 0.0)));
        assert!(r.contains(Point2::new(10.0, 10.0)));
        assert!(!r.contains(Point2::new(10.1, 5.0)));
        assert_eq!(r.clamp(Point2::new(-1.0, 12.0)), Point2::new(0.0, 10.0));
    }

    #[test]
    fn rect_expanded() {
        let r = Rect::square(10.0).unwrap().expanded(5.0);
        assert_eq!(r.min(), Point2::new(-5.0, -5.0));
        assert_eq!(r.max(), Point2::new(15.0, 15.0));
    }

    #[test]
    fn grid_mapping_round_trips() {
        let grid = GridSpec::new(Rect::square(100.0).unwrap(), 101, 51).unwrap();
        assert_eq!(grid.dx(), 1.0);
        assert_eq!(grid.dy(), 2.0);
        let p = grid.point(10, 20);
        assert_eq!(p, Point2::new(10.0, 40.0));
        assert_eq!(grid.nearest_index(p), (10, 20));
        // Off-grid points snap to nearest.
        assert_eq!(grid.nearest_index(Point2::new(10.4, 40.9)), (10, 20));
        // Far outside clamps.
        assert_eq!(grid.nearest_index(Point2::new(-50.0, 500.0)), (0, 50));
    }

    #[test]
    fn grid_iteration_covers_everything() {
        let grid = GridSpec::new(Rect::square(2.0).unwrap(), 3, 3).unwrap();
        let pts: Vec<_> = grid.iter().collect();
        assert_eq!(pts.len(), grid.len());
        assert_eq!(pts[0].2, Point2::new(0.0, 0.0));
        assert_eq!(pts.last().unwrap().2, Point2::new(2.0, 2.0));
        // Flat indices are unique and dense.
        let mut seen = vec![false; grid.len()];
        for (i, j, _) in grid.iter() {
            let f = grid.flat_index(i, j);
            assert!(!seen[f]);
            seen[f] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grid_rejects_degenerate() {
        let r = Rect::square(1.0).unwrap();
        assert!(GridSpec::new(r, 1, 5).is_err());
        assert!(GridSpec::new(r, 5, 0).is_err());
    }
}
