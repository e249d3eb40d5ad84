//! Typed problem statements — the paper's Definitions 3.1 (OSD) and
//! 3.2 (OSTD) as validated, solvable objects.

use cps_field::Field;
use cps_geometry::{GridSpec, Point2, Rect};

use crate::osd::{FraBuilder, FraResult};
use crate::{CoreError, CpsConfig};

/// The optimal spatial distribution problem (Definition 3.1):
/// given `k`, a referential surface, `Rc` and the region `A`, choose
/// `k` positions minimizing δ subject to `G(V, E)` connected.
///
/// # Example
///
/// ```
/// use cps_core::OsdProblem;
/// use cps_field::PeaksField;
/// use cps_geometry::Rect;
///
/// let region = Rect::square(100.0).unwrap();
/// let problem = OsdProblem::new(region, 20, 15.0).unwrap();
/// let solution = problem.solve(&PeaksField::new(region, 8.0)).unwrap();
/// assert_eq!(solution.positions.len(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsdProblem {
    region: Rect,
    k: usize,
    comm_radius: f64,
    resolution: usize,
}

impl OsdProblem {
    /// Default candidate-grid resolution: ~1 position per metre on the
    /// paper's 100 m region, scaled with the region.
    fn default_resolution(region: Rect) -> usize {
        (region.width().max(region.height()).round() as usize + 1).clamp(11, 201)
    }

    /// States the problem.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for `k == 0` or a non-positive
    /// communication radius.
    pub fn new(region: Rect, k: usize, comm_radius: f64) -> Result<Self, CoreError> {
        if k == 0 {
            return Err(CoreError::BudgetTooSmall { k: 0, minimum: 1 });
        }
        if !comm_radius.is_finite() || comm_radius <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "comm_radius",
                requirement: "must be positive and finite",
            });
        }
        Ok(OsdProblem {
            region,
            k,
            comm_radius,
            resolution: Self::default_resolution(region),
        })
    }

    /// The region of interest `A`.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The node budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The communication radius `Rc`.
    pub fn comm_radius(&self) -> f64 {
        self.comm_radius
    }

    /// The candidate grid the solver searches.
    ///
    /// # Errors
    ///
    /// Propagates grid-construction failures (cannot occur for a
    /// validated problem).
    pub fn candidate_grid(&self) -> Result<GridSpec, CoreError> {
        GridSpec::new(self.region, self.resolution, self.resolution).map_err(CoreError::from)
    }

    /// Solves the problem with the paper's FRA heuristic (the exact
    /// problem is NP-hard, Theorem 4.1).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn solve<F: Field + Sync>(&self, reference: &F) -> Result<FraResult, CoreError> {
        FraBuilder::new(self.k, self.comm_radius)
            .grid(self.candidate_grid()?)
            .run(reference)
    }
}

/// The optimal spatio-temporal distribution problem (Definition 3.2):
/// `k` mobile nodes with capabilities `cfg` must track a time-varying
/// field over `region`, connected at every time slot. Solved by running
/// CMA in the `cps-sim` simulator; this type validates and packages the
/// inputs the simulator needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OstdProblem {
    region: Rect,
    k: usize,
    cfg: CpsConfig,
}

impl OstdProblem {
    /// States the problem.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetTooSmall`] for `k == 0`.
    pub fn new(region: Rect, k: usize, cfg: CpsConfig) -> Result<Self, CoreError> {
        if k == 0 {
            return Err(CoreError::BudgetTooSmall { k: 0, minimum: 1 });
        }
        Ok(OstdProblem { region, k, cfg })
    }

    /// The region of interest.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The node budget.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The node capabilities.
    pub fn config(&self) -> &CpsConfig {
        &self.cfg
    }

    /// The paper's initial state: a connected grid. Spacing is 93 % of
    /// `Rc` so the lattice starts with connectivity slack (see the
    /// simulator's scenario docs).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the grid cannot fit in the
    /// region at that spacing.
    pub fn initial_positions(&self) -> Result<Vec<Point2>, CoreError> {
        let n = (self.k as f64).sqrt().ceil();
        let spacing = 0.93 * self.cfg.comm_radius();
        let span = spacing * (n - 1.0);
        if span > self.region.width() || span > self.region.height() {
            return Err(CoreError::InvalidParameter {
                name: "k",
                requirement: "connected grid start does not fit the region at 0.93*Rc spacing",
            });
        }
        let x0 = self.region.center().x - span / 2.0;
        let y0 = self.region.center().y - span / 2.0;
        let n = n as usize;
        let mut out = Vec::with_capacity(self.k);
        'outer: for j in 0..n {
            for i in 0..n {
                if out.len() == self.k {
                    break 'outer;
                }
                out.push(Point2::new(
                    x0 + spacing * i as f64,
                    y0 + spacing * j as f64,
                ));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::PeaksField;
    use cps_network::UnitDiskGraph;

    #[test]
    fn osd_validation_and_accessors() {
        let region = Rect::square(50.0).unwrap();
        assert!(matches!(
            OsdProblem::new(region, 0, 10.0),
            Err(CoreError::BudgetTooSmall { .. })
        ));
        assert!(OsdProblem::new(region, 5, 0.0).is_err());
        let p = OsdProblem::new(region, 5, 10.0).unwrap();
        assert_eq!(p.k(), 5);
        assert_eq!(p.comm_radius(), 10.0);
        assert_eq!(p.region(), region);
        assert_eq!(p.candidate_grid().unwrap().nx(), 51);
    }

    #[test]
    fn osd_solve_produces_a_feasible_plan() {
        let region = Rect::square(60.0).unwrap();
        let mut problem = OsdProblem::new(region, 12, 15.0).unwrap();
        problem.resolution = 31;
        let field = PeaksField::new(region, 8.0);
        let solution = problem.solve(&field).unwrap();
        assert_eq!(solution.positions.len(), 12);
        assert!(UnitDiskGraph::new(solution.positions, 15.0)
            .unwrap()
            .is_connected());
    }

    #[test]
    fn ostd_initial_grid_is_connected_and_fits() {
        let region = Rect::square(100.0).unwrap();
        let problem = OstdProblem::new(region, 100, CpsConfig::default()).unwrap();
        let start = problem.initial_positions().unwrap();
        assert_eq!(start.len(), 100);
        assert!(start.iter().all(|p| region.contains(*p)));
        assert!(UnitDiskGraph::new(start, problem.config().comm_radius())
            .unwrap()
            .is_connected());
    }

    #[test]
    fn ostd_rejects_impossible_grids() {
        // 400 nodes at 0.93·10 m spacing span ~177 m: too big for 100 m.
        let region = Rect::square(100.0).unwrap();
        let problem = OstdProblem::new(region, 400, CpsConfig::default()).unwrap();
        assert!(problem.initial_positions().is_err());
        assert!(matches!(
            OstdProblem::new(region, 0, CpsConfig::default()),
            Err(CoreError::BudgetTooSmall { .. })
        ));
    }
}
