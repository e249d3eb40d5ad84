//! The local-error array driving FRA's refinement choice.
//!
//! The paper adopts Garland & Heckbert's *local error* measure: for each
//! candidate position, the vertical distance between the reference
//! surface and the current triangulated approximation,
//! `Err[i][j] = |f(xᵢ, yⱼ) − DT(xᵢ, yⱼ)|` (Table 1 lines 2–3), updated
//! after every insertion only where new triangles appeared (line 11).
//!
//! Recomputation is a dense grid sweep — the FRA hot path — so it runs
//! on the row-sharded evaluation engine of [`cps_field::par`]: one
//! raster plan and point-location cache per refresh, one locate cursor
//! per row, rows written back in order.
//! [`LocalErrorGrid::recompute_region`] produces bit-identical error
//! arrays at any thread count.
//!
//! Three caches keep a refinement run from recomputing values that
//! cannot change, each reproducing the uncached result bit for bit:
//!
//! * the reference surface is sampled once, at construction, because
//!   `f(xᵢ, yⱼ)` is the same at every refresh;
//! * each row keeps a summary of its unused cells, so
//!   [`LocalErrorGrid::argmax`] folds one summary per row instead of
//!   scanning every cell;
//! * cells outside the hull of the inserted vertices take their value
//!   from a per-cell nearest-vertex map that absorbs each inserted
//!   vertex once, instead of scanning every vertex per cell.

use cps_field::par::{map_rows, Parallelism};
use cps_field::raster::NO_OWNER;
use cps_field::{Field, RasterPlan};
use cps_geometry::{GridSpec, LocateCache, LocateCursor, Point2, Triangulation, VertexId};

/// The error grid `Err[√A][√A]` of FRA, with used-position tracking.
#[derive(Debug, Clone)]
pub struct LocalErrorGrid {
    grid: GridSpec,
    /// The reference surface sampled at every grid point.
    reference: Vec<f64>,
    errors: Vec<f64>,
    used: Vec<bool>,
    /// One argmax summary of the unused cells per row.
    row_best: Vec<RowBest>,
    /// Nearest inserted vertex per cell, for hull-exterior cells.
    nearest: NearestMap,
}

impl LocalErrorGrid {
    /// Builds the grid and computes every local error against the
    /// current triangulated surface, sweeping rows on the parallel
    /// evaluation engine (bit-identical at any thread count).
    ///
    /// `samples[i]` is the surface value at the triangulation's
    /// `VertexId(i)`. The reference `field` is sampled once here; later
    /// refreshes reuse those samples.
    pub fn new<F: Field>(
        grid: GridSpec,
        field: &F,
        dt: &Triangulation,
        samples: &[f64],
        par: Parallelism,
    ) -> Self {
        let mut reference = Vec::with_capacity(grid.len());
        reference.extend(grid.iter().map(|(_, _, p)| field.value(p)));
        let mut this = LocalErrorGrid {
            grid,
            reference,
            errors: vec![0.0; grid.len()],
            used: vec![false; grid.len()],
            // Every row is written, and summarised, by the full refresh.
            row_best: vec![RowBest::default(); grid.ny()],
            nearest: NearestMap::new(grid.len()),
        };
        this.recompute_region(grid.rect().min(), grid.rect().max(), dt, samples, par);
        this
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Flat index of the grid point nearest `p` — the one shared lookup
    /// behind [`LocalErrorGrid::mark_used`] and
    /// [`LocalErrorGrid::flat_index_of`].
    fn nearest_flat(&self, p: Point2) -> usize {
        let (i, j) = self.grid.nearest_index(p);
        self.grid.flat_index(i, j)
    }

    /// Marks the grid point nearest `p` as used (it can no longer be
    /// selected).
    pub fn mark_used(&mut self, p: Point2) {
        let idx = self.nearest_flat(p);
        self.used[idx] = true;
        let j = idx / self.grid.nx();
        self.row_best[j] = self.scan_row(j, &[]);
    }

    /// Clips the axis-aligned box `[lo, hi]` to inclusive grid index
    /// ranges, expanding outward so every point inside (or on the edge
    /// of) the box is covered; recomputing a ring of extra points is
    /// harmless.
    fn clip_box(&self, lo: Point2, hi: Point2) -> (usize, usize, usize, usize) {
        let g = &self.grid;
        let fi0 = ((lo.x - g.rect().min().x) / g.dx()).floor();
        let fj0 = ((lo.y - g.rect().min().y) / g.dy()).floor();
        let fi1 = ((hi.x - g.rect().min().x) / g.dx()).ceil();
        let fj1 = ((hi.y - g.rect().min().y) / g.dy()).ceil();
        let i0 = fi0.clamp(0.0, (g.nx() - 1) as f64) as usize;
        let j0 = fj0.clamp(0.0, (g.ny() - 1) as f64) as usize;
        let i1 = fi1.clamp(0.0, (g.nx() - 1) as f64) as usize;
        let j1 = fj1.clamp(0.0, (g.ny() - 1) as f64) as usize;
        (i0, i1, j0, j1)
    }

    /// Copies one recomputed row segment back into the flat error
    /// array, resolves its hull-exterior cells against the
    /// nearest-vertex map, and refreshes the row's argmax summary.
    fn write_row(&mut self, i0: usize, j: usize, row: &[f64], samples: &[f64]) {
        let base = self.grid.flat_index(i0, j);
        for (k, &e) in row.iter().enumerate() {
            let flat = base + k;
            self.errors[flat] = if e.is_sign_negative() {
                // Outside the hull of inserted vertices (possible before
                // the scaffold corners exist): nearest value.
                let grid = &self.grid;
                let approx = self
                    .nearest
                    .nearest(flat, || grid.point(i0 + k, j))
                    .map(|id| samples[id.0])
                    .unwrap_or(0.0);
                (self.reference[flat] - approx).abs()
            } else {
                e
            };
        }
        self.row_best[j] = self.scan_row(j, &[]);
    }

    /// Recomputes local errors for every grid point inside the
    /// axis-aligned box `[lo, hi]` (clipped to the grid), against the
    /// surface `dt` carrying `samples`.
    ///
    /// Rows are sharded across `par.threads()` workers and written back
    /// in row order, so the refreshed errors are bit-identical at any
    /// thread count. Each row's cells are attributed to triangles by
    /// the raster plan's scanline spans in *locate mode*: a cell is
    /// claimed only when it is strictly inside a triangle beyond the
    /// walk's orientation tolerance, in which case the walk provably
    /// lands in the same triangle and the raster error reproduces the
    /// walk's bit for bit. The remaining cells (hull boundary and
    /// exterior) run the per-cell walk behind a private
    /// [`LocateCursor`], and hull-exterior cells take their nearest
    /// vertex's sample.
    ///
    /// The plan covers only the clipped box: a triangle it leaves out
    /// could claim no cell of the box, so the errors are those a
    /// whole-grid plan gives.
    pub fn recompute_region(
        &mut self,
        lo: Point2,
        hi: Point2,
        dt: &Triangulation,
        samples: &[f64],
        par: Parallelism,
    ) {
        let window = self.clip_box(lo, hi);
        let plan = RasterPlan::build(dt, samples, &self.grid, window);
        self.refresh(window, &plan, dt, samples, par);
    }

    /// Recomputes the cells of `window` with the locate-mode fills of
    /// `plan`, which must cover the window.
    fn refresh(
        &mut self,
        (i0, i1, j0, j1): (usize, usize, usize, usize),
        plan: &RasterPlan,
        dt: &Triangulation,
        samples: &[f64],
        par: Parallelism,
    ) {
        self.nearest.sync(dt);
        let cache = dt.locate_cache();
        let sweep = RowSweep {
            grid: &self.grid,
            reference: &self.reference,
            dt,
            cache: &cache,
            samples,
            plan,
            has_triangle: dt.triangle_count() > 0,
        };
        let rows = map_rows(j1 - j0 + 1, par, |r| sweep.row(i0, i1, j0 + r));
        for (r, row) in rows.iter().enumerate() {
            self.write_row(i0, j0 + r, row, samples);
        }
    }

    /// Argmax summary of row `j`'s unused cells, skipping the flat
    /// indices listed in `rejected`.
    fn scan_row(&self, j: usize, rejected: &[usize]) -> RowBest {
        let nx = self.grid.nx();
        let row = j * nx..(j + 1) * nx;
        let cells = self.errors[row.clone()].iter().zip(&self.used[row.clone()]);
        let mut best = RowBest::default();
        for (idx, (&e, &used)) in row.zip(cells) {
            if !used && !rejected.contains(&idx) {
                best.absorb(idx, e);
            }
        }
        best
    }

    /// The unused grid point with the largest local error, skipping the
    /// flat indices listed in `rejected`. Returns `None` when every
    /// position is used or rejected.
    ///
    /// Ties go to the lowest flat index. NaN errors follow a plain
    /// left-to-right `e > best` scan: a NaN is picked only when it is
    /// the first selectable cell, which no later cell can then displace.
    /// The row summaries fold to exactly that scan's answer; rows that
    /// hold a rejected cell are rescanned without it.
    pub fn argmax(&self, rejected: &[usize]) -> Option<(Point2, f64)> {
        let nx = self.grid.nx();
        let mut all = RowBest::default();
        for j in 0..self.grid.ny() {
            let row = if rejected.iter().any(|&r| r / nx == j) {
                self.scan_row(j, rejected)
            } else {
                self.row_best[j]
            };
            all.merge(row);
        }
        all.pick().map(|(idx, e)| {
            let i = idx % nx;
            let j = idx / nx;
            (self.grid.point(i, j), e)
        })
    }

    /// Flat index of the grid point nearest `p` (for rejection lists).
    pub fn flat_index_of(&self, p: Point2) -> usize {
        self.nearest_flat(p)
    }
}

/// Summary of a run of selectable cells that is enough to reproduce a
/// left-to-right `e > best` argmax scan over them: the scan keeps its
/// first cell when that cell's error is NaN (nothing compares greater
/// than NaN) and otherwise ends on the first cell holding the largest
/// non-NaN error.
#[derive(Debug, Clone, Copy, Default)]
struct RowBest {
    /// The first selectable cell.
    first: Option<(usize, f64)>,
    /// The first selectable cell holding the largest non-NaN error.
    max: Option<(usize, f64)>,
}

impl RowBest {
    /// Appends one cell (in ascending index order).
    fn absorb(&mut self, idx: usize, e: f64) {
        if self.first.is_none() {
            self.first = Some((idx, e));
        }
        if !e.is_nan() && self.max.is_none_or(|(_, be)| e > be) {
            self.max = Some((idx, e));
        }
    }

    /// Appends a later run of cells.
    fn merge(&mut self, later: RowBest) {
        if self.first.is_none() {
            self.first = later.first;
        }
        if let Some((idx, e)) = later.max {
            if self.max.is_none_or(|(_, be)| e > be) {
                self.max = Some((idx, e));
            }
        }
    }

    /// The scan's answer.
    fn pick(self) -> Option<(usize, f64)> {
        match self.first {
            Some((_, e)) if e.is_nan() => self.first,
            _ => self.max,
        }
    }
}

/// Per-cell nearest inserted vertex, for cells outside the hull of the
/// inserted vertices.
///
/// Each cell absorbs the vertices it has not seen yet, in ascending id
/// order, and switches to a vertex only when its squared distance is
/// strictly smaller under `total_cmp` — exactly the fold of
/// [`Triangulation::nearest_vertex`], so the answers agree bit for bit,
/// ties included. Cells catch up lazily, on the refreshes that need
/// them, so every cell absorbs each vertex at most once per run.
#[derive(Debug, Clone)]
struct NearestMap {
    /// Positions of the vertices of the triangulation being tracked, by
    /// id.
    seen: Vec<Point2>,
    cells: Vec<NearestCell>,
}

/// A cell's progress: it has absorbed `seen[..upto]`, and `seen[id]`
/// is the nearest of those (meaningless while `upto` is 0). The best
/// distance is recomputed from `seen[id]` rather than stored, which
/// keeps a cell at 8 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct NearestCell {
    upto: u32,
    id: u32,
}

impl NearestMap {
    fn new(cells: usize) -> Self {
        NearestMap {
            seen: Vec::new(),
            cells: vec![NearestCell::default(); cells],
        }
    }

    /// Tracks `dt`. Vertices appended since the last call are queued
    /// for absorption; a triangulation that is not the one seen growing
    /// (fewer vertices, or a moved one) resets every cell.
    fn sync(&mut self, dt: &Triangulation) {
        let same =
            |a: Point2, b: Point2| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits();
        let grown = dt.vertex_count() >= self.seen.len()
            && self
                .seen
                .iter()
                .zip(dt.vertices())
                .all(|(&a, b)| same(a, b));
        if !grown {
            self.seen.clear();
            self.cells.iter_mut().for_each(|c| c.upto = 0);
        }
        let known = self.seen.len();
        self.seen.extend(dt.vertices().skip(known));
    }

    /// The vertex nearest to cell `flat`, whose position `at` yields;
    /// `None` while the tracked triangulation has no vertex.
    fn nearest(&mut self, flat: usize, at: impl FnOnce() -> Point2) -> Option<VertexId> {
        let cell = &mut self.cells[flat];
        let (upto, n) = (cell.upto as usize, self.seen.len());
        if upto < n {
            let p = at();
            let mut best = (upto > 0).then(|| {
                let id = cell.id as usize;
                (id, self.seen[id].distance_squared(p))
            });
            for (id, &v) in self.seen.iter().enumerate().skip(upto) {
                let d2 = v.distance_squared(p);
                if best.is_none_or(|(_, bd)| d2.total_cmp(&bd).is_lt()) {
                    best = Some((id, d2));
                }
            }
            let narrow = |v: usize| u32::try_from(v).expect("vertex ids fit in 32 bits");
            cell.id = best.map_or(0, |(id, _)| narrow(id));
            cell.upto = narrow(n);
        }
        (cell.upto > 0).then_some(VertexId(cell.id as usize))
    }
}

/// Marks a cell of a recomputed row that lies outside the hull of the
/// inserted vertices, for [`LocalErrorGrid::write_row`] to resolve.
/// Local errors are absolute values, whose sign bit is never set.
const EXTERIOR: f64 = -1.0;

/// The shared, read-only environment of one error refresh.
struct RowSweep<'a> {
    grid: &'a GridSpec,
    reference: &'a [f64],
    dt: &'a Triangulation,
    cache: &'a LocateCache,
    samples: &'a [f64],
    plan: &'a RasterPlan,
    /// Whether `dt` has a real triangle. Without one every cell is
    /// outside the hull, which is what point location would find.
    has_triangle: bool,
}

impl RowSweep<'_> {
    /// Row `j` over `i0..=i1`, walked left-to-right behind a fresh
    /// cursor, with hull-exterior cells marked [`EXTERIOR`]. Every
    /// thread count delegates here, which is what makes the sweeps
    /// bit-identical. Span-claimed cells interpolate from their owning
    /// plan triangle (bit-identical to the walk by the locate-mode
    /// claim rule); the other cells fall through to the walk.
    fn row(&self, i0: usize, i1: usize, j: usize) -> Vec<f64> {
        if !self.has_triangle {
            return vec![EXTERIOR; i1 - i0 + 1];
        }
        let mut owners = vec![NO_OWNER; i1 - i0 + 1];
        self.plan.fill_row_owners(j, i0, i1, &mut owners);
        let reference = &self.reference[self.grid.flat_index(i0, j)..=self.grid.flat_index(i1, j)];
        // `grid.point(i, j)`, with the spacing hoisted out of the loop.
        let (x0, dx) = (self.grid.rect().min().x, self.grid.dx());
        let y = self.grid.point(i0, j).y;
        let mut cursor = LocateCursor::new();
        (i0..=i1)
            .map(|i| {
                let k = i - i0;
                let p = Point2::new(x0 + dx * i as f64, y);
                let owned = self.plan.interpolate_owned(owners[k], p, self.samples);
                let approx = owned.or_else(|| {
                    self.dt
                        .interpolate_with(self.cache, &mut cursor, p, self.samples)
                });
                approx.map_or(EXTERIOR, |approx| (reference[k] - approx).abs())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{GaussianBlob, PlaneField};
    use cps_geometry::Rect;

    impl LocalErrorGrid {
        /// Current error at grid point `(i, j)`.
        fn error_at(&self, i: usize, j: usize) -> f64 {
            self.errors[self.grid.flat_index(i, j)]
        }
    }

    fn setup<F: Field>(field: &F) -> (GridSpec, Triangulation, Vec<f64>) {
        let rect = Rect::square(10.0).unwrap();
        let grid = GridSpec::new(rect, 11, 11).unwrap();
        let mut dt = Triangulation::new(rect);
        let mut zs = Vec::new();
        for c in rect.corners() {
            dt.insert(c).unwrap();
            zs.push(field.value(c));
        }
        (grid, dt, zs)
    }

    #[test]
    fn plane_has_zero_error_everywhere() {
        let f = PlaneField::new(1.0, -2.0, 3.0);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        assert!(errs.errors.iter().sum::<f64>() < 1e-6);
        // argmax still returns something (the max of zeros).
        assert!(errs.argmax(&[]).is_some());
    }

    #[test]
    fn blob_error_peaks_at_blob_center() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let (p, e) = errs.argmax(&[]).unwrap();
        assert_eq!(p, Point2::new(5.0, 5.0));
        assert!((e - 10.0).abs() < 1.0);
    }

    #[test]
    fn mark_used_excludes_position() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, dt, zs) = setup(&f);
        let mut errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let (p1, _) = errs.argmax(&[]).unwrap();
        errs.mark_used(p1);
        assert!(errs.used[errs.nearest_flat(p1)]);
        let (p2, _) = errs.argmax(&[]).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn rejection_list_is_honoured() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let (p1, _) = errs.argmax(&[]).unwrap();
        let rejected = vec![errs.flat_index_of(p1)];
        let (p2, _) = errs.argmax(&rejected).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn insertion_update_reduces_local_error() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, mut dt, mut zs) = setup(&f);
        let mut errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let before = errs.error_at(5, 5);
        // Insert the blob centre and update the dirtied area.
        let center = Point2::new(5.0, 5.0);
        dt.insert(center).unwrap();
        zs.push(f.value(center));
        let (lo, hi) = dt.last_insert_bbox().unwrap();
        errs.recompute_region(lo, hi, &dt, &zs, Parallelism::serial());
        let after = errs.error_at(5, 5);
        assert!(after < before);
        assert!(after < 1e-9);
    }

    #[test]
    fn parallel_recompute_is_bit_identical_to_serial() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, dt, zs) = setup(&f);
        let serial = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        for par in [
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::auto(),
        ] {
            let parallel = LocalErrorGrid::new(grid, &f, &dt, &zs, par);
            for j in 0..grid.ny() {
                for i in 0..grid.nx() {
                    assert_eq!(
                        serial.error_at(i, j).to_bits(),
                        parallel.error_at(i, j).to_bits(),
                        "({i}, {j}) with {par:?}"
                    );
                }
            }
        }
    }

    use cps_field::{GaussianMixtureField, ReconstructedSurface};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The plain per-cell walk, kept as the oracle: the field is
    /// sampled per cell, every cell is located by `interpolate_with`
    /// behind one cursor per row, and hull-exterior cells scan every
    /// vertex.
    fn oracle_row(
        g: &GridSpec,
        (i0, i1, j): (usize, usize, usize),
        field: &dyn Field,
        dt: &Triangulation,
        samples: &[f64],
    ) -> Vec<f64> {
        let cache = dt.locate_cache();
        let mut cursor = LocateCursor::new();
        (i0..=i1)
            .map(|i| {
                let p = g.point(i, j);
                let approx = dt
                    .interpolate_with(&cache, &mut cursor, p, samples)
                    .unwrap_or_else(|| dt.nearest_vertex(p).map(|id| samples[id.0]).unwrap_or(0.0));
                (field.value(p) - approx).abs()
            })
            .collect()
    }

    /// The full-grid scan `argmax` used to run, kept as the oracle.
    fn oracle_argmax(errs: &LocalErrorGrid, rejected: &[usize]) -> Option<(Point2, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..errs.errors.len() {
            if errs.used[idx] || rejected.contains(&idx) {
                continue;
            }
            let e = errs.errors[idx];
            if best.is_none_or(|(_, be)| e > be) {
                best = Some((idx, e));
            }
        }
        best.map(|(idx, e)| {
            let nx = errs.grid.nx();
            (errs.grid.point(idx % nx, idx / nx), e)
        })
    }

    fn same_pick(a: Option<(Point2, f64)>, b: Option<(Point2, f64)>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some((pa, ea)), Some((pb, eb))) => pa == pb && ea.to_bits() == eb.to_bits(),
            _ => false,
        }
    }

    fn random_field(rng: &mut StdRng) -> GaussianMixtureField {
        let blobs = (0..rng.gen_range(1..4usize))
            .map(|_| {
                GaussianBlob::isotropic(
                    Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(-4.0..4.0),
                )
            })
            .collect();
        GaussianMixtureField::new(0.5, blobs)
    }

    #[test]
    fn cached_refreshes_match_the_uncached_oracle_bitwise() {
        // Grow random triangulations vertex by vertex — through the
        // hull-exterior phase — refreshing the full grid or a random
        // box after each insert. Every error, and the argmax, must
        // equal the plain walk's bit for bit.
        let rect = Rect::square(10.0).unwrap();
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = random_field(&mut rng);
            let n = rng.gen_range(13..31usize);
            let grid = GridSpec::new(rect, n, n + 3).unwrap();
            let par = Parallelism::fixed(1 + (seed % 3) as usize);
            let mut dt = Triangulation::new(rect);
            let mut zs: Vec<f64> = Vec::new();
            let mut errs = LocalErrorGrid::new(grid, &f, &dt, &zs, par);
            let mut oracle = vec![0.0; grid.len()];
            let full = |oracle: &mut Vec<f64>,
                        dt: &Triangulation,
                        zs: &[f64],
                        box_: (usize, usize, usize, usize)| {
                let (i0, i1, j0, j1) = box_;
                for j in j0..=j1 {
                    let row = oracle_row(&grid, (i0, i1, j), &f, dt, zs);
                    let base = grid.flat_index(i0, j);
                    oracle[base..base + row.len()].copy_from_slice(&row);
                }
            };
            let whole = (0, grid.nx() - 1, 0, grid.ny() - 1);
            full(&mut oracle, &dt, &zs, whole);
            for step in 0..14 {
                // Snap some picks to grid points so vertices sit on
                // cell centres and hull edges run through cells.
                let mut p = Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                if step % 3 == 0 {
                    let (i, j) = grid.nearest_index(p);
                    p = grid.point(i, j);
                }
                if dt.insert(p).is_err() {
                    continue;
                }
                zs.push(f.value(p));
                errs.mark_used(p);
                let (lo, hi) = if rng.gen_range(0.0..1.0) < 0.5 {
                    (rect.min(), rect.max())
                } else {
                    let a = Point2::new(rng.gen_range(-1.0..11.0), rng.gen_range(-1.0..11.0));
                    let b = Point2::new(rng.gen_range(-1.0..11.0), rng.gen_range(-1.0..11.0));
                    (
                        Point2::new(a.x.min(b.x), a.y.min(b.y)),
                        Point2::new(a.x.max(b.x), a.y.max(b.y)),
                    )
                };
                errs.recompute_region(lo, hi, &dt, &zs, par);
                full(&mut oracle, &dt, &zs, errs.clip_box(lo, hi));
                for (idx, (a, b)) in errs.errors.iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "seed {seed} step {step} cell {idx}"
                    );
                }
                assert!(same_pick(errs.argmax(&[]), oracle_argmax(&errs, &[])));
            }
        }
    }

    #[test]
    fn windowed_refreshes_match_whole_grid_plan_refreshes_bitwise() {
        // Two copies of a growing error grid: one refreshes through
        // `recompute_region` (a plan of the box alone), the other
        // refreshes the same box with a plan of the whole grid. Every
        // error and the argmax must agree bit for bit.
        let rect = Rect::square(10.0).unwrap();
        let policies = [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::auto(),
        ];
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(500 + seed);
            let f = random_field(&mut rng);
            let n = rng.gen_range(13..41usize);
            let grid = GridSpec::new(rect, n + 2, n).unwrap();
            let par = policies[seed as usize % policies.len()];
            let mut dt = Triangulation::new(rect);
            let mut zs: Vec<f64> = Vec::new();
            let mut windowed = LocalErrorGrid::new(grid, &f, &dt, &zs, par);
            let mut whole = windowed.clone();
            for step in 0..24 {
                let mut p = Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                if step % 3 == 0 {
                    let (i, j) = grid.nearest_index(p);
                    p = grid.point(i, j);
                }
                if dt.insert(p).is_err() {
                    continue;
                }
                zs.push(f.value(p));
                windowed.mark_used(p);
                whole.mark_used(p);
                let a = Point2::new(rng.gen_range(-1.0..11.0), rng.gen_range(-1.0..11.0));
                let b = Point2::new(rng.gen_range(-1.0..11.0), rng.gen_range(-1.0..11.0));
                let lo = Point2::new(a.x.min(b.x), a.y.min(b.y));
                let hi = Point2::new(a.x.max(b.x), a.y.max(b.y));
                windowed.recompute_region(lo, hi, &dt, &zs, par);
                let whole_grid = (0, grid.nx() - 1, 0, grid.ny() - 1);
                let plan = RasterPlan::build(&dt, &zs, &grid, whole_grid);
                whole.refresh(whole.clip_box(lo, hi), &plan, &dt, &zs, par);
                for (idx, (a, b)) in windowed.errors.iter().zip(&whole.errors).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "seed {seed} step {step} cell {idx}"
                    );
                }
                assert!(same_pick(windowed.argmax(&[]), whole.argmax(&[])));
            }
        }
    }

    #[test]
    fn row_best_argmax_matches_the_linear_scan() {
        // Quantized errors force ties, NaNs exercise the scan's
        // first-cell rule, and used cells and rejection lists knock
        // out candidates — on the first row, in the middle and at the
        // end of the grid.
        let f = PlaneField::new(0.0, 0.0, 0.0);
        let (grid, dt, zs) = setup(&f);
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..400 {
            let mut errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
            let nan_rate = [0.0, 0.05, 0.5, 1.0][case % 4];
            for e in errs.errors.iter_mut() {
                *e = if rng.gen_range(0.0..1.0) < nan_rate {
                    f64::NAN
                } else {
                    f64::from(rng.gen_range(0..6u32)) * 0.25
                };
            }
            errs.row_best = (0..grid.ny()).map(|j| errs.scan_row(j, &[])).collect();
            let used = rng.gen_range(0..grid.len() + 1);
            for _ in 0..used {
                let (i, j) = (rng.gen_range(0..grid.nx()), rng.gen_range(0..grid.ny()));
                errs.mark_used(grid.point(i, j));
            }
            let rejected: Vec<usize> = (0..rng.gen_range(0..8usize))
                .map(|_| rng.gen_range(0..grid.len() + 3))
                .collect();
            for r in [&[][..], &rejected[..]] {
                let fast = errs.argmax(r);
                let slow = oracle_argmax(&errs, r);
                assert!(same_pick(fast, slow), "case {case}: {fast:?} vs {slow:?}");
            }
        }
        // Every cell used: nothing to pick.
        let mut errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        for (_, _, p) in grid.iter() {
            errs.mark_used(p);
        }
        assert_eq!(errs.argmax(&[]), None);
    }

    #[test]
    fn nearest_map_matches_the_vertex_scan() {
        let rect = Rect::square(10.0).unwrap();
        let grid = GridSpec::new(rect, 11, 11).unwrap();
        let check = |map: &mut NearestMap, dt: &Triangulation| {
            map.sync(dt);
            for (i, j, p) in grid.iter() {
                assert_eq!(
                    map.nearest(grid.flat_index(i, j), || p),
                    dt.nearest_vertex(p),
                    "({i}, {j})"
                );
            }
        };
        // Empty triangulation: no nearest vertex anywhere.
        let mut map = NearestMap::new(grid.len());
        let mut dt = Triangulation::new(rect);
        check(&mut map, &dt);
        // Equidistant pairs: grid point (5, 5) is 3 from both, (5, 0)
        // is 5 from both; the lower id must win, as in the scan.
        for p in [
            Point2::new(2.0, 5.0),
            Point2::new(8.0, 5.0),
            Point2::new(5.0, 8.0),
            Point2::new(5.0, 2.0),
        ] {
            dt.insert(p).unwrap();
            check(&mut map, &dt);
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let _ = dt.insert(Point2::new(
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
            ));
            check(&mut map, &dt);
        }
        // A different triangulation (not the one the map saw grow) and
        // a smaller one both force a rebuild.
        let mut other = Triangulation::new(rect);
        for p in [
            Point2::new(9.0, 9.0),
            Point2::new(1.0, 9.0),
            Point2::new(9.0, 1.0),
            Point2::new(3.0, 3.0),
        ] {
            other.insert(p).unwrap();
        }
        check(&mut map, &other);
        check(&mut map, &Triangulation::new(rect));
        check(&mut map, &dt);
        let moved =
            Triangulation::from_points(rect, dt.vertices().map(|v| Point2::new(v.y, v.x))).unwrap();
        check(&mut map, &moved);
    }

    #[test]
    fn construction_samples_the_reference_once() {
        // Refreshes read the construction-time samples: a grid built
        // from a reconstructed surface keeps agreeing with the oracle
        // that re-evaluates the surface per cell.
        let rect = Rect::square(10.0).unwrap();
        let grid = GridSpec::new(rect, 17, 17).unwrap();
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 10.0),
            Point2::new(10.0, 10.0),
            Point2::new(4.0, 6.0),
        ];
        let surface =
            ReconstructedSurface::from_samples(rect, &pts, &[1.0, 2.0, 3.0, 4.0, 9.0]).unwrap();
        let (_, dt, zs) = setup(&PlaneField::new(0.5, 0.25, 1.0));
        let errs = LocalErrorGrid::new(grid, &surface, &dt, &zs, Parallelism::serial());
        let whole = oracle_row(&grid, (0, 16, 8), &surface, &dt, &zs);
        for (i, e) in whole.iter().enumerate() {
            assert_eq!(errs.error_at(i, 8).to_bits(), e.to_bits());
        }
    }
}
