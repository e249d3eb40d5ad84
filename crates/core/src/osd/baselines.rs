//! Baseline deployments the paper compares against.
//!
//! * [`random_deployment`] — the widely used random scattering of WSN
//!   studies (the "random" curve of Fig. 7);
//! * [`uniform_grid_deployment`] — the regular grid of Fig. 3(b) and
//!   the initial state of the OSTD experiments (Fig. 8(a)).

use cps_geometry::{Point2, Rect};
use rand::Rng;

/// `k` positions drawn uniformly at random from `region`.
///
/// Determinism is the caller's choice of `rng` (tests and benches use a
/// seeded `StdRng`).
///
/// # Example
///
/// ```
/// use cps_core::osd::baselines::random_deployment;
/// use cps_geometry::Rect;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let region = Rect::square(100.0).unwrap();
/// let mut rng = StdRng::seed_from_u64(7);
/// let nodes = random_deployment(region, 50, &mut rng);
/// assert_eq!(nodes.len(), 50);
/// assert!(nodes.iter().all(|p| region.contains(*p)));
/// ```
pub fn random_deployment<R: Rng + ?Sized>(region: Rect, k: usize, rng: &mut R) -> Vec<Point2> {
    (0..k)
        .map(|_| {
            Point2::new(
                rng.gen_range(region.min().x..=region.max().x),
                rng.gen_range(region.min().y..=region.max().y),
            )
        })
        .collect()
}

/// `k` positions on a centred uniform grid: the smallest `n×n` grid
/// with `n² ≥ k`, positions at cell centres, the first `k` in row-major
/// order.
///
/// For square numbers (the common case — the paper uses 16 and 100)
/// this is the exact `√k × √k` grid.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn uniform_grid_deployment(region: Rect, k: usize) -> Vec<Point2> {
    assert!(k > 0, "a deployment needs at least one node");
    let n = (k as f64).sqrt().ceil() as usize;
    let dx = region.width() / n as f64;
    let dy = region.height() / n as f64;
    let mut out = Vec::with_capacity(k);
    'outer: for j in 0..n {
        for i in 0..n {
            if out.len() == k {
                break 'outer;
            }
            out.push(Point2::new(
                region.min().x + dx * (i as f64 + 0.5),
                region.min().y + dy * (j as f64 + 0.5),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn region() -> Rect {
        Rect::square(100.0).unwrap()
    }

    #[test]
    fn random_is_seeded_and_in_region() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let da = random_deployment(region(), 20, &mut a);
        let db = random_deployment(region(), 20, &mut b);
        assert_eq!(da, db);
        assert!(da.iter().all(|p| region().contains(*p)));
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(da, random_deployment(region(), 20, &mut c));
    }

    #[test]
    fn uniform_grid_square_counts() {
        let d16 = uniform_grid_deployment(region(), 16);
        assert_eq!(d16.len(), 16);
        // 4×4 grid: first node at cell centre (12.5, 12.5).
        assert_eq!(d16[0], Point2::new(12.5, 12.5));
        assert_eq!(d16[15], Point2::new(87.5, 87.5));
        let d100 = uniform_grid_deployment(region(), 100);
        assert_eq!(d100.len(), 100);
        assert_eq!(d100[0], Point2::new(5.0, 5.0));
    }

    #[test]
    fn uniform_grid_non_square_truncates() {
        let d = uniform_grid_deployment(region(), 10);
        assert_eq!(d.len(), 10);
        // 4×4 host grid, first 10 cells.
        assert_eq!(d[9], Point2::new(37.5, 62.5));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        uniform_grid_deployment(region(), 0);
    }
}
