//! Curvature-weighted distribution (CWD) metrics and the
//! global-information reference solver (Section 5.1, Eqns. 9–10).
//!
//! A deployment follows the CWD when every node balances the curvature
//! weights of its single-hop neighbors:
//!
//! ```text
//! Σ_{j : d(nᵢ,nⱼ) ≤ Rc}  d⃗(nᵢ, nⱼ) · G(nⱼ) = 0        (Eqn. 9)
//! ```
//!
//! with ties broken by maximizing the total curvature Σ G(nᵢ)
//! (Eqn. 10). [`cwd_metrics`] quantifies how far a deployment is from
//! that fixed point; [`relax_to_cwd`] iterates the virtual-force update
//! with *exact* field curvature (global information) to produce the
//! Fig. 3(c)-style reference configuration.

use cps_field::Field;
use cps_geometry::{Point2, Rect};
use cps_network::UnitDiskGraph;

use super::curvature::gaussian_curvature_at;
use super::forces;
use crate::{CoreError, CpsConfig};

/// How closely a deployment matches the curvature-weighted
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CwdMetrics {
    /// Mean over nodes of `‖Σ d⃗·G‖` (Eqn. 9 residual); zero at a
    /// perfect CWD.
    pub mean_balance_residual: f64,
    /// Worst single-node balance residual.
    pub max_balance_residual: f64,
    /// Σᵢ G(nᵢ) — the tie-breaking objective of Eqn. 10.
    pub total_curvature: f64,
}

/// Balance residual of one node (the norm of Eqn. 9's left side) given
/// its single-hop neighbors' positions and curvature weights.
fn balance_residual(node: Point2, neighbors: &[(Point2, f64)]) -> f64 {
    forces::neighbor_attraction(node, neighbors).norm()
}

/// Computes CWD metrics for a deployment.
///
/// `curvatures[i]` is the curvature weight of `positions[i]` (from the
/// node's own quadric fit, or [`gaussian_curvature_at`] when global
/// information is available).
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] — `positions` and `curvatures`
///   differ in length.
/// * [`CoreError::Network`] — invalid communication radius.
pub fn cwd_metrics(
    positions: &[Point2],
    curvatures: &[f64],
    comm_radius: f64,
) -> Result<CwdMetrics, CoreError> {
    if positions.len() != curvatures.len() {
        return Err(CoreError::InvalidParameter {
            name: "curvatures",
            requirement: "must match positions in length",
        });
    }
    let graph = UnitDiskGraph::new(positions.to_vec(), comm_radius)?;
    let mut mean = 0.0;
    let mut max: f64 = 0.0;
    for i in 0..positions.len() {
        let nbrs: Vec<(Point2, f64)> = graph
            .neighbors(i)
            .iter()
            .map(|&j| (positions[j], curvatures[j].abs()))
            .collect();
        let r = balance_residual(positions[i], &nbrs);
        mean += r;
        max = max.max(r);
    }
    if !positions.is_empty() {
        mean /= positions.len() as f64;
    }
    Ok(CwdMetrics {
        mean_balance_residual: mean,
        max_balance_residual: max,
        total_curvature: curvatures.iter().map(|g| g.abs()).sum(),
    })
}

/// Iterates the virtual-force update with exact field curvature to relax
/// a deployment toward the CWD — the "global information" construction
/// behind the paper's Fig. 3(c).
///
/// Each iteration probes the field's Gaussian curvature at every node,
/// finds each node's local curvature peak within `Rs` (on a small polar
/// probe pattern), applies `Fs = F1 + F2 + β·Fr`, and moves every node
/// at most `step` along its resultant, clamped to `region`.
///
/// Returns the final positions after `iterations` rounds (earlier if
/// every node balances).
///
/// # Errors
///
/// Propagates curvature-probe failures ([`CoreError::DegenerateFit`])
/// — not expected for smooth fields.
pub fn relax_to_cwd<F: Field>(
    field: &F,
    region: Rect,
    mut positions: Vec<Point2>,
    cfg: &CpsConfig,
    iterations: usize,
    step: f64,
) -> Result<Vec<Point2>, CoreError> {
    let probe_h = (cfg.sensing_radius() / 4.0).max(1e-3);
    for _ in 0..iterations {
        // Exact curvature weight at each node and at each node's local
        // curvature peak (within Rs on a polar probe pattern).
        let mut weights = Vec::with_capacity(positions.len());
        let mut peaks = Vec::with_capacity(positions.len());
        for &p in &positions {
            let own = gaussian_curvature_at(field, p, probe_h)?.abs();
            weights.push(own);
            let mut peak = (p, own);
            for ring in [0.5, 1.0] {
                let r = cfg.sensing_radius() * ring;
                for s in 0..8 {
                    let a = std::f64::consts::TAU * s as f64 / 8.0;
                    let q = region.clamp(Point2::new(p.x + r * a.cos(), p.y + r * a.sin()));
                    let w = gaussian_curvature_at(field, q, probe_h)?.abs();
                    if w > peak.1 {
                        peak = (q, w);
                    }
                }
            }
            peaks.push(peak);
        }
        // Normalize curvature weights by the largest one in the network
        // (same rationale as `cma_step`: raw Gaussian curvature scales
        // with the inverse square of the region size).
        let wmax = peaks
            .iter()
            .map(|&(_, w)| w)
            .fold(0.0f64, f64::max)
            .max(weights.iter().copied().fold(0.0, f64::max));
        let scale = if wmax > 1e-9 { 1.0 / wmax } else { 0.0 };

        let graph = UnitDiskGraph::new(positions.clone(), cfg.comm_radius())?;
        let mut next = positions.clone();
        let mut any_moved = false;
        for (i, &p) in positions.iter().enumerate() {
            let peak = peaks[i];
            let nbrs: Vec<(Point2, f64)> = graph
                .neighbors(i)
                .iter()
                .map(|&j| (positions[j], weights[j] * scale))
                .collect();
            let f1 = forces::attraction_to_peak(p, peak.0, peak.1 * scale);
            let f2 = forces::neighbor_attraction(p, &nbrs);
            let fr = forces::repulsion(p, &nbrs, cfg.comm_radius());
            let fs = forces::resultant(f1, f2, fr, cfg.beta());
            if fs.norm() > 1e-3 {
                next[i] = region.clamp(p + fs.clamp_norm(step));
                any_moved = true;
            }
        }
        positions = next;
        if !any_moved {
            break;
        }
    }
    Ok(positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{GaussianBlob, PeaksField};

    #[test]
    fn metrics_of_perfectly_balanced_pair() {
        // Symmetric nodes around the middle one.
        let positions = vec![
            Point2::new(45.0, 50.0),
            Point2::new(50.0, 50.0),
            Point2::new(55.0, 50.0),
        ];
        let curv = vec![1.0, 1.0, 1.0];
        let m = cwd_metrics(&positions, &curv, 6.0).unwrap();
        // The middle node is balanced; the outer ones are pulled inward
        // (their only neighbor is the centre), so residuals are nonzero
        // but the mean reflects the balanced middle.
        assert!(m.total_curvature == 3.0);
        assert!(m.max_balance_residual > 0.0);
        let middle_nbrs = [(positions[0], 1.0), (positions[2], 1.0)];
        assert!(balance_residual(positions[1], &middle_nbrs) < 1e-12);
    }

    #[test]
    fn metrics_validate_lengths() {
        let e = cwd_metrics(&[Point2::ORIGIN], &[], 1.0).unwrap_err();
        assert!(matches!(e, CoreError::InvalidParameter { .. }));
        let empty = cwd_metrics(&[], &[], 1.0).unwrap();
        assert_eq!(empty.mean_balance_residual, 0.0);
        assert_eq!(empty.total_curvature, 0.0);
    }

    #[test]
    fn lone_node_climbs_to_the_curvature_peak() {
        // One node, no neighbors: pure F1 hill-climbing toward the
        // blob's curvature, the mechanism behind CWD formation.
        let region = Rect::square(100.0).unwrap();
        let target = Point2::new(70.0, 70.0);
        let field = GaussianBlob::isotropic(target, 50.0, 20.0);
        let cfg = CpsConfig::default();
        let initial = vec![Point2::new(20.0, 20.0)];
        let before = initial[0].distance(target);
        let after_positions = relax_to_cwd(&field, region, initial, &cfg, 150, 2.0).unwrap();
        let after = after_positions[0].distance(target);
        assert!(
            after < 0.5 * before,
            "node did not approach the blob: {after} vs {before}"
        );
        assert!(region.contains(after_positions[0]));
    }

    #[test]
    fn relaxation_improves_total_curvature_on_peaks() {
        let region = Rect::square(100.0).unwrap();
        let field = PeaksField::new(region, 8.0);
        // Rc below the 25 m grid spacing: no repulsion/balance coupling
        // at the start, so the curvature attraction is what moves nodes.
        let cfg = CpsConfig::builder()
            .comm_radius(20.0)
            .beta(1.0)
            .build()
            .unwrap();
        // 4×4 uniform start (the paper's Fig. 3(b)).
        let mut initial = Vec::new();
        for j in 0..4 {
            for i in 0..4 {
                initial.push(Point2::new(12.5 + 25.0 * i as f64, 12.5 + 25.0 * j as f64));
            }
        }
        let probe = |ps: &[Point2]| -> f64 {
            ps.iter()
                .map(|&p| gaussian_curvature_at(&field, p, 1.0).unwrap().abs())
                .sum()
        };
        let before = probe(&initial);
        let relaxed = relax_to_cwd(&field, region, initial, &cfg, 60, 2.0).unwrap();
        let after = probe(&relaxed);
        assert!(
            after > before,
            "total curvature did not increase: {after} vs {before}"
        );
    }
}
