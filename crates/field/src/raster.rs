//! Triangle-major scanline rasterization of the reconstruction surface.
//!
//! The locate-walk quadrature answers "which triangle contains this grid
//! point?" once per cell. This module inverts the loop: each alive
//! triangle is *planed* once (the linear `z = za + gx·(x−ax) + gy·(y−ay)`
//! its lifted vertices span), clipped to the grid rows it crosses, and
//! swept along each row span with an incremental DDA (`z += gx·Δx`) —
//! no point location at all for cells inside the hull. Cells no span
//! claims (outside the hull, or under a degenerate sliver the plan
//! rejects) fall back to the surface's existing extrapolation
//! semantics, so hull-exterior behavior is unchanged.
//!
//! Two fill modes exist:
//!
//! * **value mode** (`RasterPlan::fill_row_values`) writes plane
//!   heights directly and is used by the δ quadrature. Span cells are
//!   claimed without re-verifying containment: the reconstruction is
//!   continuous across interior edges, so a cell attributed to either
//!   neighbor of an fp-ambiguous edge crossing gets the same height up
//!   to one rounding step.
//! * **locate mode** ([`RasterPlan::fill_row_owners`]) records *which*
//!   triangle owns each cell and only claims cells strictly inside by
//!   more than the walk's `1e-12` orientation tolerance — any such
//!   cell is one the walk provably assigns to the same triangle, which
//!   lets the FRA error grid reproduce walk results bit-for-bit while
//!   skipping the walk for the vast majority of cells.

use cps_geometry::scanline::{span_cells, triangle_row_span};
use cps_geometry::{predicates::orient2d, GridSpec, Point2, Triangle, Triangulation, VertexId};

use crate::delta::weight;
use crate::par::{map_rows, Parallelism};
use crate::reconstruct::ReconstructedSurface;
use crate::traits::Field;

/// Sentinel for "no triangle claimed this cell" in locate mode.
pub const NO_OWNER: u32 = u32::MAX;

/// Margin beyond the walk's orientation tolerance required before
/// locate mode claims a cell: strictly inside every edge by more than
/// the walk's acceptance slack means the walk cannot stop in any other
/// triangle for that point.
const STRICT_INSIDE: f64 = 1e-12;

/// One planed triangle of the reconstruction surface.
#[derive(Debug, Clone, Copy)]
struct PlanTri {
    geom: Triangle,
    /// Vertex ids in the exact order the walk reports them, so locate
    /// mode can reproduce `interpolate_with` arithmetic bit-for-bit.
    ids: [VertexId; 3],
    /// Plane gradient of the lifted triangle.
    gx: f64,
    gy: f64,
    /// Sample height at vertex `a` (the plane's anchor).
    za: f64,
}

/// A rasterization plan: the alive triangles near a cell window of the
/// grid, each planed once and bucketed by the window rows it crosses.
/// Building is `O(tris + rows)`; each fill touches only the triangles
/// crossing its row.
///
/// The plan is a pure function of `(triangulation, samples, grid,
/// window)` — it holds no cursor or other call-history state — so
/// every fill from the same plan is deterministic regardless of thread
/// interleaving.
#[derive(Debug, Clone)]
pub struct RasterPlan {
    grid: GridSpec,
    /// The inclusive cell window `(i0, i1, j0, j1)` the plan covers.
    window: (usize, usize, usize, usize),
    tris: Vec<PlanTri>,
    /// Indices into `tris` crossing window row `j0 + r`, ascending:
    /// `members[starts[r]..starts[r + 1]]`.
    members: Vec<u32>,
    starts: Vec<usize>,
}

impl RasterPlan {
    /// Planes the alive triangles of `dt` (lifted by `samples`) that
    /// can reach the inclusive cell window `(i0, i1, j0, j1)` of
    /// `grid`, and clips each to the window rows it crosses. The δ
    /// quadrature passes the whole grid; an error refresh passes its
    /// box.
    ///
    /// A triangle whose bounding box, padded by one cell, misses the
    /// window is left out: a span is an exact edge crossing, within a
    /// rounding step of the box, so no span of it reaches a window cell.
    /// The fills over the window are therefore those of the whole-grid
    /// plan, with the triangles renumbered.
    ///
    /// Triangles whose plane gradient is non-finite (degenerate or
    /// fp-catastrophic slivers) are left out of the plan too; the cells
    /// under them simply fall back to per-cell location.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty or reaches past the grid.
    pub fn build(
        dt: &Triangulation,
        samples: &[f64],
        grid: &GridSpec,
        window: (usize, usize, usize, usize),
    ) -> Self {
        let (i0, i1, j0, j1) = window;
        assert!(
            i0 <= i1 && i1 < grid.nx() && j0 <= j1 && j1 < grid.ny(),
            "raster window {window:?} is not inside the {}×{} grid",
            grid.nx(),
            grid.ny()
        );
        let mut tris: Vec<PlanTri> = Vec::new();
        // Each plan triangle's inclusive range of window rows.
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let (ox, oy) = (grid.rect().min().x, grid.rect().min().y);
        let (dx, dy) = (grid.dx(), grid.dy());
        // The window's outermost cell centres, one cell further out.
        let (wx0, wx1) = (ox + dx * (i0 as f64 - 1.0), ox + dx * (i1 as f64 + 1.0));
        let (wy0, wy1) = (oy + dy * (j0 as f64 - 1.0), oy + dy * (j1 as f64 + 1.0));
        dt.for_each_triangle(|ids, geom| {
            let xmin = geom.a.x.min(geom.b.x).min(geom.c.x);
            let xmax = geom.a.x.max(geom.b.x).max(geom.c.x);
            let ymin = geom.a.y.min(geom.b.y).min(geom.c.y);
            let ymax = geom.a.y.max(geom.b.y).max(geom.c.y);
            if xmax < wx0 || xmin > wx1 || ymax < wy0 || ymin > wy1 {
                return;
            }
            let e1x = geom.b.x - geom.a.x;
            let e1y = geom.b.y - geom.a.y;
            let e2x = geom.c.x - geom.a.x;
            let e2y = geom.c.y - geom.a.y;
            let det = e1x * e2y - e1y * e2x;
            let dz1 = samples[ids[1].0] - samples[ids[0].0];
            let dz2 = samples[ids[2].0] - samples[ids[0].0];
            let gx = (dz1 * e2y - dz2 * e1y) / det;
            let gy = (dz2 * e1x - dz1 * e2x) / det;
            if !(gx.is_finite() && gy.is_finite()) {
                return;
            }
            let Some((r0, r1)) = span_cells(ymin, ymax, oy, dy, grid.ny()) else {
                return;
            };
            let (r0, r1) = (r0.max(j0), r1.min(j1));
            if r0 > r1 {
                return;
            }
            tris.push(PlanTri {
                geom,
                ids,
                gx,
                gy,
                za: samples[ids[0].0],
            });
            spans.push((r0 - j0, r1 - j0));
        });
        // Bucket the triangles by row, in plan order.
        let mut starts = vec![0usize; j1 - j0 + 2];
        for &(r0, r1) in &spans {
            for count in &mut starts[r0 + 1..=r1 + 1] {
                *count += 1;
            }
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; starts[starts.len() - 1]];
        for (t, &(r0, r1)) in spans.iter().enumerate() {
            for slot in &mut next[r0..=r1] {
                members[*slot] = t as u32;
                *slot += 1;
            }
        }
        cps_obs::count_by(cps_obs::Counter::TrianglesRasterized, tris.len() as u64);
        RasterPlan {
            grid: *grid,
            window,
            tris,
            members,
            starts,
        }
    }

    /// Number of triangles in the plan.
    pub fn triangle_count(&self) -> usize {
        self.tris.len()
    }

    /// The inclusive span of cells triangle `t` covers on row `j`,
    /// clipped to `[i0, i1]`.
    fn row_cells(&self, t: u32, j: usize, i0: usize, i1: usize) -> Option<(usize, usize)> {
        let y = self.grid.point(0, j).y;
        let (lo, hi) = triangle_row_span(&self.tris[t as usize].geom, y)?;
        let ox = self.grid.rect().min().x;
        let (s, e) = span_cells(lo, hi, ox, self.grid.dx(), self.grid.nx())?;
        let (s, e) = (s.max(i0), e.min(i1));
        (s <= e).then_some((s, e))
    }

    /// The plan triangles crossing row `j` of the window.
    fn row(&self, j: usize) -> &[u32] {
        let (_, _, j0, j1) = self.window;
        assert!(
            (j0..=j1).contains(&j),
            "row {j} is outside the raster window"
        );
        &self.members[self.starts[j - j0]..self.starts[j - j0 + 1]]
    }

    /// Value mode: overwrites `out[i]` with the plane height for every
    /// cell `i` of row `j` claimed by a span, leaving unclaimed slots
    /// untouched (callers pre-fill with NaN). Returns the number of
    /// cells written (with multiplicity, which only differs on fp-exact
    /// edge crossings). Cells outside the window's columns may be left
    /// unclaimed.
    fn fill_row_values(&self, j: usize, out: &mut [f64]) -> usize {
        debug_assert_eq!(out.len(), self.grid.nx());
        let y = self.grid.point(0, j).y;
        let dx = self.grid.dx();
        let mut claimed = 0;
        for &t in self.row(j) {
            let Some((s, e)) = self.row_cells(t, j, 0, out.len() - 1) else {
                continue;
            };
            let tri = &self.tris[t as usize];
            let x0 = self.grid.point(s, j).x;
            let mut z = tri.za + tri.gx * (x0 - tri.geom.a.x) + tri.gy * (y - tri.geom.a.y);
            let step = tri.gx * dx;
            for slot in &mut out[s..=e] {
                *slot = z;
                z += step;
            }
            claimed += e - s + 1;
        }
        cps_obs::count_by(cps_obs::Counter::RasterCells, claimed as u64);
        claimed
    }

    /// Locate mode: writes the owning plan-triangle index into
    /// `out[i - i0]` for every cell of row `j` that lies strictly
    /// inside a planed triangle (beyond the walk tolerance), leaving
    /// other slots untouched (callers pre-fill with [`NO_OWNER`]).
    /// Returns the number of cells claimed.
    pub fn fill_row_owners(&self, j: usize, i0: usize, i1: usize, out: &mut [u32]) -> usize {
        debug_assert_eq!(out.len(), i1 - i0 + 1);
        debug_assert!(self.window.0 <= i0 && i1 <= self.window.1);
        let mut claimed = 0;
        for &t in self.row(j) {
            let Some((s, e)) = self.row_cells(t, j, i0, i1) else {
                continue;
            };
            let tri = &self.tris[t as usize];
            let (a, b, c) = (tri.geom.a, tri.geom.b, tri.geom.c);
            for i in s..=e {
                let p = self.grid.point(i, j);
                if orient2d(a, b, p) > STRICT_INSIDE
                    && orient2d(b, c, p) > STRICT_INSIDE
                    && orient2d(c, a, p) > STRICT_INSIDE
                {
                    out[i - i0] = t;
                    claimed += 1;
                }
            }
        }
        cps_obs::count_by(cps_obs::Counter::RasterCells, claimed as u64);
        claimed
    }

    /// Interpolates `samples` at `p` inside plan triangle `owner`,
    /// using the same barycentric arithmetic as the locate walk (so a
    /// cell claimed by locate mode reproduces the walk's value
    /// bit-for-bit). `None` for [`NO_OWNER`] or a degenerate triangle.
    pub fn interpolate_owned(&self, owner: u32, p: Point2, samples: &[f64]) -> Option<f64> {
        let tri = self.tris.get(owner as usize)?;
        tri.geom.interpolate(
            p,
            [
                samples[tri.ids[0].0],
                samples[tri.ids[1].0],
                samples[tri.ids[2].0],
            ],
        )
    }
}

/// The two totals the δ quadrature produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaTotals {
    /// The paper's δ: `∬ |f − DT| dA` (Eqn. 2).
    pub delta: f64,
    /// Root-mean-square pointwise difference (secondary metric).
    pub rms: f64,
}

/// Fused δ + RMS quadrature of `|reference − surface|` over `grid`
/// using the raster kernel: one sweep computes both integrals, with
/// hull-exterior (and sliver-fallback) cells answered by the surface's
/// usual extrapolation path.
///
/// Rows are whole work units and are folded in row order, so the
/// result is bit-identical at every thread count, and within
/// quadrature tolerance (≤1e-9 relative) of the per-cell walk pair
/// [`volume_difference_with`](crate::delta::volume_difference_with) /
/// [`rms_difference_with`](crate::delta::rms_difference_with).
pub fn delta_rms_raster<F: Field + Sync>(
    reference: &F,
    surface: &ReconstructedSurface,
    grid: &GridSpec,
    par: Parallelism,
) -> DeltaTotals {
    let _t = cps_obs::time(
        cps_obs::Phase::DeltaRaster,
        par.effective_workers(grid.ny()),
    );
    let plan = RasterPlan::build(
        surface.triangulation(),
        surface.samples(),
        grid,
        (0, grid.nx() - 1, 0, grid.ny() - 1),
    );
    let nx = grid.nx();
    let xs: Vec<f64> = (0..nx).map(|i| grid.point(i, 0).x).collect();
    let rows = map_rows(grid.ny(), par, |j| {
        let mut heights = vec![f64::NAN; nx];
        plan.fill_row_values(j, &mut heights);
        // `grid.point(i, j)` is `(xs[i], y)`: x depends on i alone and
        // y on j alone, so the lattice row is the same set of points.
        let y = grid.point(0, j).y;
        let truth = reference.sample_lattice(&xs, &[y], None);
        let mut row_abs = 0.0;
        let mut row_sq = 0.0;
        for (i, &z) in heights.iter().enumerate() {
            let p = grid.point(i, j);
            let approx = if z.is_nan() { surface.value(p) } else { z };
            let d = truth[i] - approx;
            row_abs += weight(grid, i, j) * d.abs();
            row_sq += d * d;
        }
        (row_abs, row_sq)
    });
    let mut abs = 0.0;
    let mut sq = 0.0;
    for (row_abs, row_sq) in rows {
        abs += row_abs;
        sq += row_sq;
    }
    DeltaTotals {
        delta: abs * grid.cell_area(),
        rms: (sq / grid.len() as f64).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{PeaksField, PlaneField};
    use crate::delta::{rms_difference_with, volume_difference_with};
    use cps_geometry::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scattered_surface(n: usize, seed: u64) -> (Rect, PeaksField, ReconstructedSurface) {
        let region = Rect::square(100.0).unwrap();
        let reference = PeaksField::new(region, 8.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions: Vec<Point2> = region.corners().to_vec();
        for _ in 0..n {
            positions.push(Point2::new(
                rng.gen_range(5.0..95.0),
                rng.gen_range(5.0..95.0),
            ));
        }
        let samples: Vec<f64> = positions.iter().map(|&p| reference.value(p)).collect();
        let surface = ReconstructedSurface::from_samples(region, &positions, &samples).unwrap();
        (region, reference, surface)
    }

    #[test]
    fn raster_quadrature_matches_walk_within_tolerance() {
        let (region, reference, surface) = scattered_surface(60, 9);
        let grid = GridSpec::new(region, 81, 81).unwrap();
        let walk_delta = volume_difference_with(&reference, &surface, &grid, Parallelism::serial());
        let walk_rms = rms_difference_with(&reference, &surface, &grid, Parallelism::serial());
        let got = delta_rms_raster(&reference, &surface, &grid, Parallelism::serial());
        assert!(
            (got.delta - walk_delta).abs() <= 1e-9 * walk_delta.abs().max(1.0),
            "delta: raster {} vs walk {}",
            got.delta,
            walk_delta
        );
        assert!(
            (got.rms - walk_rms).abs() <= 1e-9 * walk_rms.abs().max(1.0),
            "rms: raster {} vs walk {}",
            got.rms,
            walk_rms
        );
    }

    #[test]
    fn raster_reconstructs_a_plane_exactly() {
        // The reconstruction of samples drawn from a plane IS that
        // plane, so raster δ must be ~0 inside and outside the hull.
        let region = Rect::square(50.0).unwrap();
        let plane = PlaneField::new(0.03, -0.01, 2.0);
        let positions: Vec<Point2> = vec![
            Point2::new(10.0, 10.0),
            Point2::new(40.0, 12.0),
            Point2::new(25.0, 40.0),
            Point2::new(12.0, 30.0),
        ];
        let samples: Vec<f64> = positions.iter().map(|&p| plane.value(p)).collect();
        let surface = ReconstructedSurface::from_samples(region, &positions, &samples).unwrap();
        let grid = GridSpec::new(region, 41, 41).unwrap();
        let interior = GridSpec::new(
            Rect::new(Point2::new(15.0, 15.0), Point2::new(30.0, 30.0)).unwrap(),
            21,
            21,
        )
        .unwrap();
        let got = delta_rms_raster(&plane, &surface, &interior, Parallelism::serial());
        assert!(got.delta < 1e-9, "interior plane delta {}", got.delta);
        // Hull-exterior cells go through extrapolation: identical to
        // the walk kernel by construction (same fallback call).
        let walk = volume_difference_with(&plane, &surface, &grid, Parallelism::serial());
        let full = delta_rms_raster(&plane, &surface, &grid, Parallelism::serial());
        assert!((full.delta - walk).abs() <= 1e-9 * walk.max(1.0));
    }

    #[test]
    fn raster_is_bit_identical_across_thread_counts() {
        let (region, reference, surface) = scattered_surface(40, 4);
        let grid = GridSpec::new(region, 67, 73).unwrap();
        let reference_run = delta_rms_raster(&reference, &surface, &grid, Parallelism::serial());
        for threads in [2, 3, 8] {
            let got = delta_rms_raster(&reference, &surface, &grid, Parallelism::fixed(threads));
            assert_eq!(got.delta.to_bits(), reference_run.delta.to_bits());
            assert_eq!(got.rms.to_bits(), reference_run.rms.to_bits());
        }
    }

    #[test]
    fn locate_mode_owners_agree_with_the_walk() {
        let (region, _reference, surface) = scattered_surface(50, 11);
        let grid = GridSpec::new(region, 61, 61).unwrap();
        let dt = surface.triangulation();
        let samples = surface.samples();
        let plan = RasterPlan::build(dt, samples, &grid, (0, 60, 0, 60));
        let mut owners = vec![NO_OWNER; grid.nx()];
        let mut verified = 0usize;
        for j in 0..grid.ny() {
            owners.fill(NO_OWNER);
            plan.fill_row_owners(j, 0, grid.nx() - 1, &mut owners);
            for (i, &o) in owners.iter().enumerate() {
                if o == NO_OWNER {
                    continue;
                }
                let p = grid.point(i, j);
                let raster = plan.interpolate_owned(o, p, samples).unwrap();
                let walk = dt.interpolate(p, samples).unwrap();
                assert_eq!(
                    raster.to_bits(),
                    walk.to_bits(),
                    "cell ({i},{j}) raster {raster} vs walk {walk}"
                );
                verified += 1;
            }
        }
        assert!(
            verified > grid.len() / 2,
            "locate mode should claim most interior cells, got {verified}"
        );
    }

    #[test]
    fn windowed_plans_claim_what_the_whole_grid_plan_claims() {
        // On random windows, a windowed plan's locate-mode owners are
        // the whole-grid plan's, up to renumbering: the same cells are
        // claimed, and each interpolates to the same bits.
        for seed in 0..12u64 {
            let (region, _reference, surface) = scattered_surface(20 + 10 * seed as usize, seed);
            let grid = GridSpec::new(region, 61, 53).unwrap();
            let (dt, samples) = (surface.triangulation(), surface.samples());
            let whole = RasterPlan::build(dt, samples, &grid, (0, 60, 0, 52));
            let mut rng = StdRng::seed_from_u64(100 + seed);
            for _ in 0..20 {
                let (a, b) = (rng.gen_range(0..grid.nx()), rng.gen_range(0..grid.nx()));
                let (c, d) = (rng.gen_range(0..grid.ny()), rng.gen_range(0..grid.ny()));
                let window = (a.min(b), a.max(b), c.min(d), c.max(d));
                let (i0, i1, j0, j1) = window;
                let plan = RasterPlan::build(dt, samples, &grid, window);
                assert!(plan.triangle_count() <= whole.triangle_count());
                for j in j0..=j1 {
                    let mut got = vec![NO_OWNER; i1 - i0 + 1];
                    let mut want = got.clone();
                    let claimed = plan.fill_row_owners(j, i0, i1, &mut got);
                    assert_eq!(claimed, whole.fill_row_owners(j, i0, i1, &mut want));
                    for (k, (&o, &w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(o == NO_OWNER, w == NO_OWNER, "{window:?} cell {k} row {j}");
                        let p = grid.point(i0 + k, j);
                        let value = |plan: &RasterPlan, o| {
                            plan.interpolate_owned(o, p, samples).map(f64::to_bits)
                        };
                        assert_eq!(value(&plan, o), value(&whole, w));
                    }
                }
            }
            // A one-cell window plans only the triangles near that cell.
            let corner = RasterPlan::build(dt, samples, &grid, (0, 0, 0, 0));
            assert!(corner.triangle_count() < whole.triangle_count());
        }
    }

    #[test]
    #[should_panic(expected = "raster window")]
    fn windows_past_the_grid_are_rejected() {
        let (region, _reference, surface) = scattered_surface(10, 1);
        let grid = GridSpec::new(region, 11, 11).unwrap();
        RasterPlan::build(
            surface.triangulation(),
            surface.samples(),
            &grid,
            (0, 11, 0, 10),
        );
    }
}
