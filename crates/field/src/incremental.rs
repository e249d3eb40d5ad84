//! Incremental δ evaluation: a tile cache over the quadrature grid.
//!
//! Both OSD and OSTD re-measure the volume difference δ (Eqn. 2) after
//! every small change to the reconstruction — FRA after each Delaunay
//! insertion, CMA after each movement round — yet the full quadrature
//! re-walks every grid point even though the reconstructed surface
//! `z* = DT(x, y)` only changed inside a handful of triangles.
//!
//! [`DeltaCache`] partitions the grid into square tiles of
//! [`DeltaCache::tile_size`] × `tile_size` points and stores, per tile,
//! the partial trapezoid-weighted `Σ w·|f − DT|` and the partial
//! `Σ (f − DT)²` over the tile's points. A [`refresh`](DeltaCache::refresh)
//! against a new surface then
//!
//! 1. diffs the surface's triangle set (vertex positions + sample
//!    values) against the previous refresh — the symmetric difference
//!    is exactly where `DT` changed: the Delaunay cavity of an
//!    insertion, or the retriangulated stars around moved nodes;
//! 2. invalidates only the tiles overlapping a changed triangle's
//!    bounding box (plus every tile containing extrapolated points
//!    whenever the vertex set changed at all, since nearest-sample
//!    extrapolation outside the hull is a global function of the
//!    vertices);
//! 3. re-integrates the invalid tiles on the row-sharded parallel
//!    engine and folds all tile partials in fixed tile order.
//!
//! A retriangulation that changes many triangles simply invalidates
//! many tiles; an unprimed or grid-incompatible cache degrades to a
//! full recompute. Either way the result is the same quadrature sum
//! regrouped per tile, so it matches the row-order
//! [`delta::volume_difference`](crate::delta::volume_difference) within
//! floating-point regrouping error (≪ 1e-9 relative; property-tested),
//! and is **bit-identical across thread counts and invalidation
//! histories**: a tile's partial never depends on when or why it was
//! recomputed.
//!
//! The reference field `f` is swept once at priming time and memoized
//! per grid point. A deterministic probe set guards reuse: if the
//! reference's probe values change (a time-varying field advanced
//! between refreshes), the cache re-primes itself — correct, but no
//! faster than the full quadrature, which is why the cached paths pay
//! off for static references.

use std::collections::HashSet;

use cps_geometry::{GridSpec, Point2};

use crate::delta::weight;
use crate::par::{map_rows, Parallelism};
use crate::raster::{Kernel, RasterPlan};
use crate::{Field, ReconstructedSurface};

/// Default tile side, in grid points. 16×16 keeps a 201×201 grid at
/// 169 tiles: small enough that a single cavity touches only a few,
/// large enough that per-tile bookkeeping stays negligible.
pub const DEFAULT_TILE_SIZE: usize = 16;

/// Number of deterministic probe points used to detect a changed
/// reference field between refreshes.
const REFERENCE_PROBES: usize = 32;

/// Canonical key of one reconstruction triangle: the three
/// `(x, y, z)` bit-patterns of its vertices, sorted so the same
/// geometric triangle matches across independently built
/// triangulations.
type TriKey = [u64; 9];

/// One vertex's `(x, y, z)` bit-pattern.
type VertKey = [u64; 3];

/// The two totals the δ quadrature produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaTotals {
    /// The paper's δ: `∬ |f − DT| dA` (Eqn. 2).
    pub delta: f64,
    /// Root-mean-square pointwise difference (secondary metric).
    pub rms: f64,
}

/// A tile cache of partial δ integrals over a [`GridSpec`], reusable
/// across successive reconstructions of a slowly changing deployment.
///
/// # Example
///
/// ```
/// use cps_field::{DeltaCache, Field, Parallelism, PeaksField, ReconstructedSurface};
/// use cps_field::delta::volume_difference;
/// use cps_geometry::{GridSpec, Point2, Rect};
///
/// let region = Rect::square(100.0).unwrap();
/// let grid = GridSpec::new(region, 101, 101).unwrap();
/// let reference = PeaksField::new(region, 8.0);
/// let mut positions: Vec<Point2> = region.corners().to_vec();
/// let samples = |ps: &[Point2]| ps.iter().map(|&p| reference.value(p)).collect::<Vec<_>>();
///
/// let mut cache = DeltaCache::new(&reference, &grid, Parallelism::serial());
/// let s0 = ReconstructedSurface::from_samples(region, &positions, &samples(&positions)).unwrap();
/// let t0 = cache.refresh(&s0, Parallelism::serial());
///
/// // One interior insertion: only the tiles under its cavity re-integrate.
/// positions.push(Point2::new(40.0, 60.0));
/// let s1 = ReconstructedSurface::from_samples(region, &positions, &samples(&positions)).unwrap();
/// let t1 = cache.refresh(&s1, Parallelism::serial());
/// let full = volume_difference(&reference, &s1, &grid);
/// assert!((t1.delta - full).abs() <= 1e-9 * full.max(1.0));
/// assert!(t1.delta < t0.delta);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaCache {
    grid: GridSpec,
    tile: usize,
    /// Tiles per axis.
    tx: usize,
    ty: usize,
    /// Reference values, one per grid point (`grid.flat_index` order).
    ref_vals: Vec<f64>,
    /// Deterministic `(flat_index, value_bits)` probes of the reference.
    probes: Vec<(usize, u64)>,
    /// Per-tile partial `Σ w·|f − DT|` over the tile's points.
    tile_abs: Vec<f64>,
    /// Per-tile partial `Σ (f − DT)²` over the tile's points.
    tile_sq: Vec<f64>,
    /// Whether any of the tile's points fell outside the sample hull at
    /// its last recomputation.
    tile_extrapolates: Vec<bool>,
    valid: Vec<bool>,
    tri_keys: HashSet<TriKey>,
    vert_keys: HashSet<VertKey>,
    /// Whether a surface has ever been integrated into the tiles.
    primed: bool,
}

impl DeltaCache {
    /// Builds a cache for `grid` with the default tile size, sweeping
    /// the reference once on `par` threads.
    pub fn new<F: Field + Sync>(reference: &F, grid: &GridSpec, par: Parallelism) -> Self {
        Self::with_tile_size(reference, grid, DEFAULT_TILE_SIZE, par)
    }

    /// Like [`DeltaCache::new`] with an explicit tile side in grid
    /// points (clamped to at least 1).
    pub fn with_tile_size<F: Field + Sync>(
        reference: &F,
        grid: &GridSpec,
        tile: usize,
        par: Parallelism,
    ) -> Self {
        let tile = tile.max(1);
        let tx = grid.nx().div_ceil(tile);
        let ty = grid.ny().div_ceil(tile);
        let tiles = tx * ty;
        let mut cache = DeltaCache {
            grid: *grid,
            tile,
            tx,
            ty,
            ref_vals: Vec::new(),
            probes: Vec::new(),
            tile_abs: vec![0.0; tiles],
            tile_sq: vec![0.0; tiles],
            tile_extrapolates: vec![false; tiles],
            valid: vec![false; tiles],
            tri_keys: HashSet::new(),
            vert_keys: HashSet::new(),
            primed: false,
        };
        cache.sweep_reference(reference, par);
        cache
    }

    /// Tile side, in grid points.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Total number of tiles covering the grid.
    pub fn tile_count(&self) -> usize {
        self.tx * self.ty
    }

    /// Whether this cache was built over an identical grid.
    pub fn compatible(&self, grid: &GridSpec) -> bool {
        self.grid == *grid
    }

    /// Whether the reference the cache was primed with still produces
    /// the same values at the cache's probe points (bit-compared).
    ///
    /// Probing is a spot check, not a proof: a reference that changed
    /// *only* away from every probe point would go unnoticed. The probe
    /// set spans the whole grid, so any physically plausible field
    /// change (drift, diurnal cycles, keyframes) trips it.
    pub fn reference_matches<F: Field>(&self, reference: &F) -> bool {
        self.probes.iter().all(|&(flat, bits)| {
            let (i, j) = (flat % self.grid.nx(), flat / self.grid.nx());
            reference.value(self.grid.point(i, j)).to_bits() == bits
        })
    }

    /// Re-sweeps the reference and invalidates every tile. Call when
    /// [`DeltaCache::reference_matches`] reports a changed reference.
    pub fn reprime<F: Field + Sync>(&mut self, reference: &F, par: Parallelism) {
        self.sweep_reference(reference, par);
        self.invalidate_all();
    }

    /// Marks every tile dirty (the full-recompute fallback).
    pub fn invalidate_all(&mut self) {
        let flips = self.valid.iter().filter(|&&v| v).count() as u64;
        cps_obs::count_by(cps_obs::Counter::TileInvalidations, flips);
        self.valid.fill(false);
        self.primed = false;
        self.tri_keys.clear();
        self.vert_keys.clear();
    }

    /// Marks every tile overlapping the closed box `[lo, hi]` dirty —
    /// e.g. a Delaunay cavity bounding box from
    /// [`Triangulation::last_insert_bbox`](cps_geometry::Triangulation::last_insert_bbox).
    pub fn invalidate_box(&mut self, lo: Point2, hi: Point2) {
        let min = self.grid.rect().min();
        let (dx, dy) = (self.grid.dx(), self.grid.dy());
        // Conservative index ranges: floor on the low side, ceil on the
        // high side, so every grid point inside the box is covered.
        let clampi = |v: f64, n: usize| (v.max(0.0) as usize).min(n - 1);
        let i0 = clampi(((lo.x - min.x) / dx).floor(), self.grid.nx());
        let i1 = clampi(((hi.x - min.x) / dx).ceil(), self.grid.nx());
        let j0 = clampi(((lo.y - min.y) / dy).floor(), self.grid.ny());
        let j1 = clampi(((hi.y - min.y) / dy).ceil(), self.grid.ny());
        let mut flips = 0u64;
        for tj in (j0 / self.tile)..=(j1 / self.tile) {
            for ti in (i0 / self.tile)..=(i1 / self.tile) {
                let t = tj * self.tx + ti;
                if self.valid[t] {
                    self.valid[t] = false;
                    flips += 1;
                }
            }
        }
        cps_obs::count_by(cps_obs::Counter::TileInvalidations, flips);
    }

    /// Integrates `surface` into the tiles, recomputing only what the
    /// dirty-triangle diff invalidates, and returns the grid totals.
    ///
    /// The first refresh (or the first after
    /// [`invalidate_all`](DeltaCache::invalidate_all) /
    /// [`reprime`](DeltaCache::reprime)) integrates every tile. Tiles
    /// are integrated with the per-cell locate walk; see
    /// [`DeltaCache::refresh_with_kernel`] for the raster kernel.
    pub fn refresh(&mut self, surface: &ReconstructedSurface, par: Parallelism) -> DeltaTotals {
        self.refresh_with_kernel(surface, par, Kernel::Walk)
    }

    /// [`DeltaCache::refresh`] with an explicit quadrature [`Kernel`].
    ///
    /// Under [`Kernel::Raster`] a [`RasterPlan`] is built once per
    /// refresh and each dirty tile fills its rows from the plan's
    /// spans (clipped to the tile), falling back to per-cell
    /// extrapolation only for unclaimed cells. A tile's partial stays
    /// a pure function of `(tile bounds, surface)` for either kernel,
    /// so results remain bit-identical across thread counts and
    /// invalidation histories; walk and raster tiles agree within
    /// quadrature tolerance (≤1e-9 relative).
    pub fn refresh_with_kernel(
        &mut self,
        surface: &ReconstructedSurface,
        par: Parallelism,
        kernel: Kernel,
    ) -> DeltaTotals {
        let _t = cps_obs::time(cps_obs::Phase::DeltaTileRefresh, par.threads());

        let dt = surface.triangulation();
        let zs = surface.samples();
        let mut new_tris: HashSet<TriKey> = HashSet::with_capacity(2 * zs.len());
        dt.for_each_triangle(|ids, _| {
            new_tris.insert(tri_key(
                [dt.vertex(ids[0]), dt.vertex(ids[1]), dt.vertex(ids[2])],
                [zs[ids[0].0], zs[ids[1].0], zs[ids[2].0]],
            ));
        });
        let new_verts: HashSet<VertKey> = dt
            .vertices()
            .zip(zs)
            .map(|(p, &z)| [p.x.to_bits(), p.y.to_bits(), z.to_bits()])
            .collect();

        if self.primed {
            let dirty_boxes: Vec<(Point2, Point2)> = new_tris
                .symmetric_difference(&self.tri_keys)
                .map(tri_key_bbox)
                .collect();
            for (lo, hi) in dirty_boxes {
                self.invalidate_box(lo, hi);
            }
            if new_verts != self.vert_keys {
                // Nearest-sample extrapolation outside the hull depends
                // on the whole vertex set, not on any one triangle.
                let mut flips = 0u64;
                for t in 0..self.valid.len() {
                    if self.valid[t] && self.tile_extrapolates[t] {
                        self.valid[t] = false;
                        flips += 1;
                    }
                }
                cps_obs::count_by(cps_obs::Counter::TileInvalidations, flips);
            }
        }
        self.tri_keys = new_tris;
        self.vert_keys = new_verts;

        let dirty: Vec<usize> = (0..self.valid.len()).filter(|&t| !self.valid[t]).collect();
        cps_obs::count_by(cps_obs::Counter::TileCacheMisses, dirty.len() as u64);
        cps_obs::count_by(
            cps_obs::Counter::TileCacheHits,
            (self.valid.len() - dirty.len()) as u64,
        );

        let grid = self.grid;
        let (tile, tx) = (self.tile, self.tx);
        let ref_vals = &self.ref_vals;
        let plan = match kernel {
            Kernel::Raster if !dirty.is_empty() => Some(RasterPlan::build(
                surface.triangulation(),
                surface.samples(),
                &grid,
            )),
            _ => None,
        };
        let recomputed = map_rows(dirty.len(), par, |k| match &plan {
            Some(plan) => compute_tile_raster(&grid, tile, tx, ref_vals, dirty[k], surface, plan),
            None => compute_tile(&grid, tile, tx, ref_vals, dirty[k], surface),
        });
        for (&t, (abs, sq, extra)) in dirty.iter().zip(recomputed) {
            self.tile_abs[t] = abs;
            self.tile_sq[t] = sq;
            self.tile_extrapolates[t] = extra;
            self.valid[t] = true;
        }
        self.primed = true;
        self.totals().expect("all tiles valid after refresh")
    }

    /// The totals of the last refresh, or `None` if any tile is dirty
    /// (or nothing has been integrated yet).
    pub fn totals(&self) -> Option<DeltaTotals> {
        if !self.primed || self.valid.iter().any(|&v| !v) {
            return None;
        }
        // Fixed fold order over tiles: the result is independent of
        // which tiles any particular refresh recomputed.
        let mut abs = 0.0;
        let mut sq = 0.0;
        for t in 0..self.tile_abs.len() {
            abs += self.tile_abs[t];
            sq += self.tile_sq[t];
        }
        Some(DeltaTotals {
            delta: abs * self.grid.cell_area(),
            rms: (sq / self.grid.len() as f64).sqrt(),
        })
    }

    fn sweep_reference<F: Field + Sync>(&mut self, reference: &F, par: Parallelism) {
        let grid = self.grid;
        let rows = map_rows(grid.ny(), par, |j| {
            (0..grid.nx())
                .map(|i| reference.value(grid.point(i, j)))
                .collect::<Vec<f64>>()
        });
        self.ref_vals = rows.concat();
        let stride = (self.ref_vals.len() / REFERENCE_PROBES).max(1);
        self.probes = self
            .ref_vals
            .iter()
            .enumerate()
            .step_by(stride)
            .map(|(flat, v)| (flat, v.to_bits()))
            .collect();
    }
}

/// Canonical triangle key: per-vertex `(x, y, z)` bit-triples in sorted
/// order, so vertex rotation/relabeling between rebuilds cannot hide a
/// match.
fn tri_key(ps: [Point2; 3], zs: [f64; 3]) -> TriKey {
    let mut triples: [[u64; 3]; 3] = [[0; 3]; 3];
    for (slot, (p, z)) in triples.iter_mut().zip(ps.iter().zip(zs)) {
        *slot = [p.x.to_bits(), p.y.to_bits(), z.to_bits()];
    }
    triples.sort_unstable();
    [
        triples[0][0],
        triples[0][1],
        triples[0][2],
        triples[1][0],
        triples[1][1],
        triples[1][2],
        triples[2][0],
        triples[2][1],
        triples[2][2],
    ]
}

/// Bounding box of a [`tri_key`]'s three vertices.
fn tri_key_bbox(key: &TriKey) -> (Point2, Point2) {
    let xs = [
        f64::from_bits(key[0]),
        f64::from_bits(key[3]),
        f64::from_bits(key[6]),
    ];
    let ys = [
        f64::from_bits(key[1]),
        f64::from_bits(key[4]),
        f64::from_bits(key[7]),
    ];
    let fold = |vals: [f64; 3], pick: fn(f64, f64) -> f64| vals.into_iter().reduce(pick).unwrap();
    (
        Point2::new(fold(xs, f64::min), fold(ys, f64::min)),
        Point2::new(fold(xs, f64::max), fold(ys, f64::max)),
    )
}

/// Integrates one tile: row-major over the tile's points, rows summed
/// left to right then folded in row order — a fixed operand order, so
/// the partial is bit-identical no matter when or on which thread the
/// tile is recomputed.
fn compute_tile(
    grid: &GridSpec,
    tile: usize,
    tx: usize,
    ref_vals: &[f64],
    t: usize,
    surface: &ReconstructedSurface,
) -> (f64, f64, bool) {
    let (ti, tj) = (t % tx, t / tx);
    let (i0, j0) = (ti * tile, tj * tile);
    let i1 = (i0 + tile).min(grid.nx());
    let j1 = (j0 + tile).min(grid.ny());
    let mut abs = 0.0;
    let mut sq = 0.0;
    let mut extrapolates = false;
    for j in j0..j1 {
        let mut row_abs = 0.0;
        let mut row_sq = 0.0;
        for i in i0..i1 {
            let p = grid.point(i, j);
            let (g, outside) = surface.value_extrapolated(p);
            extrapolates |= outside;
            let d = ref_vals[grid.flat_index(i, j)] - g;
            row_abs += weight(grid, i, j) * d.abs();
            row_sq += d * d;
        }
        abs += row_abs;
        sq += row_sq;
    }
    (abs, sq, extrapolates)
}

/// [`compute_tile`] under the raster kernel: the tile's rows are
/// filled from the plan's spans (clipped to the tile's cell range) and
/// only unclaimed cells pay the per-cell extrapolation fallback. Same
/// fixed operand order as the walk variant.
fn compute_tile_raster(
    grid: &GridSpec,
    tile: usize,
    tx: usize,
    ref_vals: &[f64],
    t: usize,
    surface: &ReconstructedSurface,
    plan: &RasterPlan,
) -> (f64, f64, bool) {
    let (ti, tj) = (t % tx, t / tx);
    let (i0, j0) = (ti * tile, tj * tile);
    let i1 = (i0 + tile).min(grid.nx());
    let j1 = (j0 + tile).min(grid.ny());
    let mut heights = vec![f64::NAN; i1 - i0];
    let mut abs = 0.0;
    let mut sq = 0.0;
    let mut extrapolates = false;
    for j in j0..j1 {
        heights.fill(f64::NAN);
        plan.fill_row_values(j, i0, i1 - 1, &mut heights);
        let mut row_abs = 0.0;
        let mut row_sq = 0.0;
        for i in i0..i1 {
            let z = heights[i - i0];
            let (g, outside) = if z.is_nan() {
                surface.value_extrapolated(grid.point(i, j))
            } else {
                (z, false)
            };
            extrapolates |= outside;
            let d = ref_vals[grid.flat_index(i, j)] - g;
            row_abs += weight(grid, i, j) * d.abs();
            row_sq += d * d;
        }
        abs += row_abs;
        sq += row_sq;
    }
    (abs, sq, extrapolates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{rms_difference, volume_difference};
    use crate::PeaksField;
    use cps_geometry::Rect;

    /// Tile hit/miss counts are process-global, so a test that reads
    /// them must not overlap another test's cache refreshes: every test
    /// here holds this lock.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn setting() -> (Rect, GridSpec, PeaksField) {
        let region = Rect::square(100.0).unwrap();
        (
            region,
            GridSpec::new(region, 81, 81).unwrap(),
            PeaksField::new(region, 8.0),
        )
    }

    fn surface(region: Rect, f: &PeaksField, positions: &[Point2]) -> ReconstructedSurface {
        let samples: Vec<f64> = positions.iter().map(|&p| f.value(p)).collect();
        ReconstructedSurface::from_samples(region, positions, &samples).unwrap()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn primed_refresh_matches_full_quadrature() {
        let _serial = serial();
        let (region, grid, f) = setting();
        let positions: Vec<Point2> = region
            .corners()
            .into_iter()
            .chain([Point2::new(50.0, 50.0)])
            .collect();
        let s = surface(region, &f, &positions);
        let mut cache = DeltaCache::new(&f, &grid, Parallelism::serial());
        assert!(cache.totals().is_none());
        let t = cache.refresh(&s, Parallelism::serial());
        assert!(close(t.delta, volume_difference(&f, &s, &grid)));
        assert!(close(t.rms, rms_difference(&f, &s, &grid)));
        assert_eq!(cache.totals(), Some(t));
    }

    #[test]
    fn incremental_insertions_match_full_quadrature() {
        let _serial = serial();
        let (region, grid, f) = setting();
        let mut positions: Vec<Point2> = region.corners().to_vec();
        let mut cache = DeltaCache::new(&f, &grid, Parallelism::serial());
        cache.refresh(&surface(region, &f, &positions), Parallelism::serial());
        for (k, p) in [
            Point2::new(30.0, 40.0),
            Point2::new(71.0, 22.0),
            Point2::new(55.0, 80.0),
            Point2::new(12.0, 64.0),
            Point2::new(90.0, 90.0),
        ]
        .into_iter()
        .enumerate()
        {
            positions.push(p);
            let s = surface(region, &f, &positions);
            let t = cache.refresh(&s, Parallelism::serial());
            let full = volume_difference(&f, &s, &grid);
            assert!(close(t.delta, full), "insert {k}: {} vs {full}", t.delta);
            assert!(close(t.rms, rms_difference(&f, &s, &grid)), "insert {k}");
        }
    }

    #[test]
    fn interior_insertion_recomputes_a_strict_tile_subset() {
        let _serial = serial();
        let (region, grid, f) = setting();
        // A dense deployment keeps triangles small, and the corner
        // scaffolding keeps the hull fixed, so an interior insert must
        // dirty only the cavity tiles.
        let mut positions: Vec<Point2> = Vec::new();
        for j in 0..6 {
            for i in 0..6 {
                positions.push(Point2::new(20.0 * i as f64, 20.0 * j as f64));
            }
        }
        let mut cache = DeltaCache::new(&f, &grid, Parallelism::serial());
        cache.refresh(&surface(region, &f, &positions), Parallelism::serial());

        cps_obs::reset();
        cps_obs::enable();
        positions.push(Point2::new(52.0, 47.0));
        cache.refresh(&surface(region, &f, &positions), Parallelism::serial());
        cps_obs::disable();
        let m = cps_obs::snapshot();
        let misses = m.counter(cps_obs::Counter::TileCacheMisses);
        let hits = m.counter(cps_obs::Counter::TileCacheHits);
        assert_eq!(hits + misses, cache.tile_count() as u64);
        assert!(misses > 0);
        assert!(
            misses < cache.tile_count() as u64 / 2,
            "interior insert recomputed {misses}/{} tiles",
            cache.tile_count()
        );
    }

    #[test]
    fn refresh_is_bit_identical_across_thread_counts_and_histories() {
        let _serial = serial();
        let (region, grid, f) = setting();
        let mut positions: Vec<Point2> = region.corners().to_vec();
        positions.push(Point2::new(33.0, 41.0));

        // Incremental history on varying thread counts…
        let mut incremental = DeltaCache::new(&f, &grid, Parallelism::serial());
        incremental.refresh(&surface(region, &f, &positions), Parallelism::fixed(2));
        positions.push(Point2::new(61.0, 58.0));
        let s = surface(region, &f, &positions);
        let a = incremental.refresh(&s, Parallelism::fixed(3));
        // …must equal a cold cache integrating the final surface only.
        for par in [Parallelism::serial(), Parallelism::fixed(8)] {
            let mut cold = DeltaCache::new(&f, &grid, par);
            let b = cold.refresh(&s, par);
            assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{par:?}");
            assert_eq!(a.rms.to_bits(), b.rms.to_bits(), "{par:?}");
        }
    }

    #[test]
    fn changed_reference_is_detected_and_reprimed() {
        let _serial = serial();
        let (region, grid, f) = setting();
        let positions: Vec<Point2> = region
            .corners()
            .into_iter()
            .chain([Point2::new(44.0, 51.0)])
            .collect();
        let s = surface(region, &f, &positions);
        let mut cache = DeltaCache::new(&f, &grid, Parallelism::serial());
        cache.refresh(&s, Parallelism::serial());
        assert!(cache.reference_matches(&f));

        let shifted = PeaksField::new(region, 9.5);
        assert!(!cache.reference_matches(&shifted));
        cache.reprime(&shifted, Parallelism::serial());
        let t = cache.refresh(&s, Parallelism::serial());
        assert!(close(t.delta, volume_difference(&shifted, &s, &grid)));
    }

    #[test]
    fn incompatible_grid_is_reported() {
        let _serial = serial();
        let (region, grid, f) = setting();
        let cache = DeltaCache::new(&f, &grid, Parallelism::serial());
        assert!(cache.compatible(&grid));
        let other = GridSpec::new(region, 41, 41).unwrap();
        assert!(!cache.compatible(&other));
    }

    #[test]
    fn tiny_tile_and_degenerate_grid_still_agree() {
        let _serial = serial();
        let region = Rect::square(10.0).unwrap();
        let grid = GridSpec::new(region, 2, 9).unwrap();
        let f = PeaksField::new(region, 5.0);
        let positions: Vec<Point2> = region
            .corners()
            .into_iter()
            .chain([Point2::new(5.0, 5.0)])
            .collect();
        let s = surface(region, &f, &positions);
        for tile in [1, 3, 100] {
            let mut cache = DeltaCache::with_tile_size(&f, &grid, tile, Parallelism::serial());
            let t = cache.refresh(&s, Parallelism::serial());
            assert!(
                close(t.delta, volume_difference(&f, &s, &grid)),
                "tile {tile}"
            );
        }
    }
}
