//! Incremental Bowyer–Watson Delaunay triangulation with walk-based point
//! location.
//!
//! The paper's FRA (Table 1) refines a triangulation one vertex at a
//! time — "when node D is selected to add in Δ ABC, Delaunay rules
//! re-triangulate ABCD" (Fig. 2) — so the structure here is fully
//! incremental: each [`Triangulation::insert`] carves the Bowyer–Watson
//! cavity and retriangulates it, maintaining triangle adjacency so that
//! point location is a short walk rather than a scan.

use std::collections::HashMap;

use crate::predicates::{in_circumcircle, orient2d};
use crate::{GeometryError, Point2, Rect, Triangle};

/// Identifier of a vertex inserted into a [`Triangulation`].
///
/// Ids are dense and assigned in insertion order starting from zero, so
/// they double as indices into caller-side parallel arrays (for example
/// the sampled `z` values handed to [`Triangulation::interpolate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub usize);

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Number of synthetic super-triangle vertices stored before real ones.
const SUPER_VERTS: usize = 3;

#[derive(Debug, Clone)]
struct Tri {
    /// Vertex indices (into the internal vertex array), counterclockwise.
    v: [usize; 3],
    /// `neighbors[i]` is the triangle opposite `v[i]`, i.e. across the
    /// edge `(v[i+1], v[i+2])`.
    neighbors: [Option<usize>; 3],
    alive: bool,
}

/// An incremental Delaunay triangulation of points inside a bounding
/// region.
///
/// # Example
///
/// ```
/// use cps_geometry::{Point2, Rect, Triangulation};
///
/// let region = Rect::square(10.0).unwrap();
/// let mut dt = Triangulation::new(region);
/// for p in [
///     Point2::new(0.0, 0.0),
///     Point2::new(10.0, 0.0),
///     Point2::new(10.0, 10.0),
///     Point2::new(0.0, 10.0),
///     Point2::new(3.0, 4.0),
/// ] {
///     dt.insert(p).unwrap();
/// }
/// // Interpolate the plane z = x over the triangulation:
/// let zs: Vec<f64> = dt.vertices().map(|p| p.x).collect();
/// let z = dt.interpolate(Point2::new(5.0, 5.0), &zs).unwrap();
/// assert!((z - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Triangulation {
    bounds: Rect,
    /// All vertices; the first [`SUPER_VERTS`] belong to the synthetic
    /// super-triangle and are never reported.
    vertices: Vec<Point2>,
    tris: Vec<Tri>,
    /// Walk start hint (index of the alive triangle most recently
    /// created by [`Triangulation::insert`]). Updated only under
    /// `&mut self`, which keeps the structure `Sync` for the parallel
    /// evaluation engine; query-side warm starts use [`LocateCursor`].
    hint: usize,
    /// Minimum distance between distinct vertices.
    dup_tolerance: f64,
    /// Bounding box of the triangles created by the most recent insert.
    last_insert_bbox: Option<(Point2, Point2)>,
}

impl Triangulation {
    /// Creates an empty triangulation able to hold points within
    /// `bounds`.
    ///
    /// The duplicate-vertex tolerance defaults to `1e-9` times the larger
    /// side of `bounds`.
    pub fn new(bounds: Rect) -> Self {
        let span = bounds.width().max(bounds.height());
        let c = bounds.center();
        // A super-triangle comfortably enclosing the region; far enough
        // out that border artefacts are negligible, close enough that
        // the incircle determinant keeps precision.
        let s = 40.0 * span;
        let sv = [
            Point2::new(c.x - s, c.y - 0.5 * s),
            Point2::new(c.x + s, c.y - 0.5 * s),
            Point2::new(c.x, c.y + s),
        ];
        debug_assert!(orient2d(sv[0], sv[1], sv[2]) > 0.0);
        let tris = vec![Tri {
            v: [0, 1, 2],
            neighbors: [None, None, None],
            alive: true,
        }];
        Triangulation {
            bounds,
            vertices: sv.to_vec(),
            tris,
            hint: 0,
            dup_tolerance: 1e-9 * span,
            last_insert_bbox: None,
        }
    }

    /// Builds a triangulation by inserting `points` in order.
    ///
    /// # Errors
    ///
    /// Propagates the first insertion error (out-of-bounds, duplicate, or
    /// non-finite point).
    pub fn from_points<I>(bounds: Rect, points: I) -> Result<Self, GeometryError>
    where
        I: IntoIterator<Item = Point2>,
    {
        let mut dt = Triangulation::new(bounds);
        for p in points {
            dt.insert(p)?;
        }
        Ok(dt)
    }

    /// The bounding region supplied at construction.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of real (caller-inserted) vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len() - SUPER_VERTS
    }

    /// Position of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn vertex(&self, id: VertexId) -> Point2 {
        self.vertices[id.0 + SUPER_VERTS]
    }

    /// Iterates over real vertices in insertion order.
    pub fn vertices(&self) -> impl Iterator<Item = Point2> + '_ {
        self.vertices.iter().skip(SUPER_VERTS).copied()
    }

    /// Triangles among real vertices, as triples of [`VertexId`] in
    /// counterclockwise order. Triangles incident to the synthetic
    /// super-triangle are omitted.
    pub fn triangles(&self) -> Vec<[VertexId; 3]> {
        self.tris
            .iter()
            .filter(|t| t.alive && t.v.iter().all(|&v| v >= SUPER_VERTS))
            .map(|t| {
                [
                    VertexId(t.v[0] - SUPER_VERTS),
                    VertexId(t.v[1] - SUPER_VERTS),
                    VertexId(t.v[2] - SUPER_VERTS),
                ]
            })
            .collect()
    }

    /// Number of real triangles (those not touching the super-triangle).
    pub fn triangle_count(&self) -> usize {
        self.tris
            .iter()
            .filter(|t| t.alive && t.v.iter().all(|&v| v >= SUPER_VERTS))
            .count()
    }

    /// Undirected edges among real vertices, each reported once with
    /// the smaller id first, in sorted order.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut set = std::collections::BTreeSet::new();
        for tri in self.triangles() {
            for i in 0..3 {
                let a = tri[i].0;
                let b = tri[(i + 1) % 3].0;
                set.insert((a.min(b), a.max(b)));
            }
        }
        set.into_iter()
            .map(|(a, b)| (VertexId(a), VertexId(b)))
            .collect()
    }

    /// Geometry of a triangle triple reported by
    /// [`Triangulation::triangles`].
    pub fn triangle_geometry(&self, tri: [VertexId; 3]) -> Triangle {
        Triangle::new(
            self.vertex(tri[0]),
            self.vertex(tri[1]),
            self.vertex(tri[2]),
        )
    }

    /// Visits every real triangle with its vertex triple and geometry,
    /// without materializing the `Vec` that [`Triangulation::triangles`]
    /// snapshots.
    ///
    /// The raster quadrature plans every triangle on each δ evaluation
    /// and error refresh, so the visitor form keeps that path
    /// allocation-free.
    pub fn for_each_triangle<F: FnMut([VertexId; 3], Triangle)>(&self, mut f: F) {
        for t in self
            .tris
            .iter()
            .filter(|t| t.alive && t.v.iter().all(|&v| v >= SUPER_VERTS))
        {
            let tri = [
                VertexId(t.v[0] - SUPER_VERTS),
                VertexId(t.v[1] - SUPER_VERTS),
                VertexId(t.v[2] - SUPER_VERTS),
            ];
            f(tri, self.triangle_geometry(tri));
        }
    }

    /// Bounding box of the cavity retriangulated by the most recent
    /// successful [`Triangulation::insert`], if any.
    ///
    /// The paper's FRA uses this to update local errors only where "new
    /// triangles \[were\] generated" (Table 1, line 11) rather than over
    /// the whole region.
    #[inline]
    pub fn last_insert_bbox(&self) -> Option<(Point2, Point2)> {
        self.last_insert_bbox
    }

    /// Inserts a point and restores the Delaunay property.
    ///
    /// Returns the new vertex's id (dense, insertion-ordered).
    ///
    /// # Errors
    ///
    /// * [`GeometryError::NonFiniteCoordinate`] — `p` has NaN/∞.
    /// * [`GeometryError::OutOfBounds`] — `p` outside the bounding region.
    /// * [`GeometryError::DuplicatePoint`] — `p` within tolerance of an
    ///   existing vertex.
    pub fn insert(&mut self, p: Point2) -> Result<VertexId, GeometryError> {
        if !p.is_finite() {
            return Err(GeometryError::NonFiniteCoordinate);
        }
        if !self.bounds.contains(p) {
            return Err(GeometryError::OutOfBounds { point: p });
        }
        let start = self
            .locate_alive(p)
            .expect("point inside bounds is inside the super-triangle");

        // --- Bowyer–Watson cavity search ------------------------------
        let mut bad: Vec<usize> = Vec::new();
        let mut in_cavity: HashMap<usize, bool> = HashMap::new();
        let mut stack = vec![start];
        in_cavity.insert(start, true);
        while let Some(t) = stack.pop() {
            bad.push(t);
            for i in 0..3 {
                if let Some(n) = self.tris[t].neighbors[i] {
                    if in_cavity.contains_key(&n) {
                        continue;
                    }
                    let is_bad = self.cavity_test(n, p);
                    in_cavity.insert(n, is_bad);
                    if is_bad {
                        stack.push(n);
                    }
                }
            }
        }

        // Duplicate check against every cavity vertex (a coincident
        // vertex is necessarily incident to a cavity triangle).
        for &t in &bad {
            for &v in &self.tris[t].v {
                if self.vertices[v].distance(p) <= self.dup_tolerance {
                    return Err(GeometryError::DuplicatePoint { point: p });
                }
            }
        }

        // --- collect boundary edges (CCW around the cavity) -----------
        // Each boundary edge is (a, b, outer neighbor).
        let mut boundary: Vec<(usize, usize, Option<usize>)> = Vec::new();
        for &t in &bad {
            for i in 0..3 {
                let n = self.tris[t].neighbors[i];
                let n_in_cavity = n.map(|n| in_cavity.get(&n) == Some(&true)).unwrap_or(false);
                if !n_in_cavity {
                    let a = self.tris[t].v[(i + 1) % 3];
                    let b = self.tris[t].v[(i + 2) % 3];
                    boundary.push((a, b, n));
                }
            }
        }

        // --- retriangulate ---------------------------------------------
        let new_vertex = self.vertices.len();
        self.vertices.push(p);
        for &t in &bad {
            self.tris[t].alive = false;
        }

        // Map from the spoke edge (new_vertex, x) to the triangle that
        // owns it, to stitch adjacent fan triangles together.
        let mut spoke: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        let mut bbox_min = Point2::new(f64::INFINITY, f64::INFINITY);
        let mut bbox_max = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);

        for &(a, b, outer) in &boundary {
            let idx = self.tris.len();
            // CCW: boundary edges are oriented so the cavity interior
            // (and hence p) lies to their left.
            debug_assert!(
                orient2d(self.vertices[a], self.vertices[b], p) > -1e-12,
                "cavity boundary edge not CCW with respect to inserted point"
            );
            self.tris.push(Tri {
                v: [a, b, new_vertex],
                // neighbors[0] opposite a: edge (b, new_vertex)
                // neighbors[1] opposite b: edge (new_vertex, a)
                // neighbors[2] opposite new_vertex: edge (a, b) = outer
                neighbors: [None, None, outer],
                alive: true,
            });
            // Fix the outer triangle's back-pointer.
            if let Some(o) = outer {
                for i in 0..3 {
                    if let Some(on) = self.tris[o].neighbors[i] {
                        if !self.tris[on].alive {
                            // This slot pointed into the cavity across
                            // edge (a, b); repoint it at the new triangle.
                            let oa = self.tris[o].v[(i + 1) % 3];
                            let ob = self.tris[o].v[(i + 2) % 3];
                            if (oa == b && ob == a) || (oa == a && ob == b) {
                                self.tris[o].neighbors[i] = Some(idx);
                            }
                        }
                    }
                }
            }
            // Stitch fan spokes: edge (b, new_vertex) pairs with some
            // other fan triangle's edge (new_vertex, b).
            for (key, slot) in [((b, new_vertex), 0usize), ((new_vertex, a), 1usize)] {
                let canon = (key.0.min(key.1), key.0.max(key.1));
                match spoke.remove(&canon) {
                    Some((other_idx, other_slot)) => {
                        self.tris[idx].neighbors[slot] = Some(other_idx);
                        self.tris[other_idx].neighbors[other_slot] = Some(idx);
                    }
                    None => {
                        spoke.insert(canon, (idx, slot));
                    }
                }
            }
            for q in [self.vertices[a], self.vertices[b], p] {
                bbox_min = Point2::new(bbox_min.x.min(q.x), bbox_min.y.min(q.y));
                bbox_max = Point2::new(bbox_max.x.max(q.x), bbox_max.y.max(q.y));
            }
        }
        debug_assert!(spoke.is_empty(), "unmatched fan spokes after insertion");

        self.hint = self.tris.len() - 1;
        self.last_insert_bbox = Some((bbox_min, bbox_max));
        cps_obs::count(cps_obs::Counter::DelaunayInserts);
        Ok(VertexId(new_vertex - SUPER_VERTS))
    }

    /// Decides whether triangle `t` belongs to the Bowyer–Watson cavity
    /// of a new point `p`.
    ///
    /// Triangles among real vertices use the standard in-circumcircle
    /// test. Triangles incident to the synthetic super-triangle ("ghost"
    /// triangles) must *not* use their finite circumcircle — that is the
    /// classic finite-super-triangle artefact which swallows thin hull
    /// triangles. Instead a ghost with real edge `(a, b)` is treated as
    /// having its circumcircle degenerate to the open half-plane beyond
    /// the hull edge: it joins the cavity iff `p` is strictly beyond the
    /// edge (visibility) or lies *on* the edge segment (so the hull edge
    /// is split rather than producing a degenerate triangle).
    fn cavity_test(&self, t: usize, p: Point2) -> bool {
        let tv = self.tris[t].v;
        let supers = tv.iter().filter(|&&v| v < SUPER_VERTS).count();
        match supers {
            0 => in_circumcircle(
                self.vertices[tv[0]],
                self.vertices[tv[1]],
                self.vertices[tv[2]],
                p,
            ),
            1 => {
                // Rotate so the super vertex is last: real edge (a, b)
                // keeps the triangle's CCW order.
                let s = tv.iter().position(|&v| v < SUPER_VERTS).expect("super");
                let a = self.vertices[tv[(s + 1) % 3]];
                let b = self.vertices[tv[(s + 2) % 3]];
                let orient = orient2d(a, b, p);
                let span = self.bounds.width().max(self.bounds.height());
                let tol = 1e-12 * span * span;
                if orient > tol {
                    // p strictly beyond the hull edge: the ghost is
                    // visible from p.
                    true
                } else if orient >= -tol {
                    // Collinear: only split when p lies within the edge
                    // segment (not merely on the supporting line).
                    let lo_x = a.x.min(b.x) - self.dup_tolerance;
                    let hi_x = a.x.max(b.x) + self.dup_tolerance;
                    let lo_y = a.y.min(b.y) - self.dup_tolerance;
                    let hi_y = a.y.max(b.y) + self.dup_tolerance;
                    p.x >= lo_x && p.x <= hi_x && p.y >= lo_y && p.y <= hi_y
                } else {
                    false
                }
            }
            // Ghosts with two or three super vertices join the cavity
            // only by containing p (the force-include at the start of
            // the search), never through this test.
            _ => false,
        }
    }

    /// Walks to the alive triangle containing `p` (including triangles
    /// incident to the super-triangle), starting from the insert-side
    /// hint. Returns `None` only when `p` escapes the super-triangle,
    /// which cannot happen for in-bounds points.
    fn locate_alive(&self, p: Point2) -> Option<usize> {
        self.locate_alive_from(self.hint, p)
    }

    /// Walk core shared by [`Triangulation::locate`] and the cached
    /// [`Triangulation::locate_with`] path. `start` may be stale (dead
    /// or out of range); the walk then restarts from the most recently
    /// created alive triangle.
    fn locate_alive_from(&self, start: usize, p: Point2) -> Option<usize> {
        let mut t = start;
        if t >= self.tris.len() || !self.tris[t].alive {
            t = self.tris.iter().rposition(|t| t.alive)?;
        }
        let mut steps = 0usize;
        let max_steps = 4 * self.tris.len() + 16;
        'walk: while steps < max_steps {
            steps += 1;
            let tri = &self.tris[t];
            for i in 0..3 {
                let a = self.vertices[tri.v[(i + 1) % 3]];
                let b = self.vertices[tri.v[(i + 2) % 3]];
                if orient2d(a, b, p) < -1e-12 {
                    match tri.neighbors[i] {
                        Some(n) if self.tris[n].alive => {
                            t = n;
                            continue 'walk;
                        }
                        Some(_) | None => return None,
                    }
                }
            }
            return Some(t);
        }
        // Degenerate walk (should not happen): fall back to a scan.
        self.tris.iter().position(|tri| {
            tri.alive
                && Triangle::new(
                    self.vertices[tri.v[0]],
                    self.vertices[tri.v[1]],
                    self.vertices[tri.v[2]],
                )
                .contains(p)
        })
    }

    /// Builds a read-only point-location accelerator for the current
    /// triangulation: a uniform bucket grid over the bounding region
    /// whose cells hold a nearby alive triangle (seeded from triangle
    /// circumcenters), so a cold lookup starts its walk O(1) triangles
    /// away instead of walking across the whole structure.
    ///
    /// The cache is a snapshot: it stays *valid* after further
    /// [`Triangulation::insert`] calls (stale seeds are detected and
    /// recovered from), but lookups gradually lose their O(1) warm
    /// start, so rebuild it after a batch of insertions.
    pub fn locate_cache(&self) -> LocateCache {
        let bounds = self.bounds;
        let mut entries: Vec<(usize, Point2)> = Vec::new();
        for (idx, tri) in self.tris.iter().enumerate() {
            if !tri.alive || tri.v.iter().any(|&v| v < SUPER_VERTS) {
                continue;
            }
            let geom = Triangle::new(
                self.vertices[tri.v[0]],
                self.vertices[tri.v[1]],
                self.vertices[tri.v[2]],
            );
            // Circumcenters of sliver triangles can land far outside
            // the region; clamp (or fall back to the centroid) so every
            // seed maps to a bucket.
            let seed = match geom.circumcircle() {
                Some((center, _)) if bounds.contains(center) => center,
                _ => geom.centroid(),
            };
            entries.push((idx, bounds.clamp(seed)));
        }
        let per_side = ((entries.len().max(1) as f64).sqrt().ceil() as usize).clamp(1, 128);
        let mut cache = LocateCache {
            bounds,
            nx: per_side,
            ny: per_side,
            seeds: vec![usize::MAX; per_side * per_side],
        };
        // Keep, per bucket, the seed nearest the bucket center.
        let mut best = vec![f64::INFINITY; cache.seeds.len()];
        for &(idx, at) in &entries {
            let b = cache.bucket_of(at);
            let d = cache.bucket_center(b).distance_squared(at);
            if d < best[b] {
                best[b] = d;
                cache.seeds[b] = idx;
            }
        }
        cache.fill_empty_buckets();
        cache
    }

    /// Point location through a [`LocateCache`] and per-caller
    /// [`LocateCursor`]: behaves like [`Triangulation::locate`] but
    /// starts the walk from the cursor's last triangle (or the cache
    /// bucket seed on a cold cursor), making repeated nearby queries
    /// O(1) amortized. Safe to use from many threads, each with its own
    /// cursor.
    pub fn locate_with(
        &self,
        cache: &LocateCache,
        cursor: &mut LocateCursor,
        p: Point2,
    ) -> Option<[VertexId; 3]> {
        let start = cursor
            .last
            .filter(|&t| t < self.tris.len() && self.tris[t].alive)
            .unwrap_or_else(|| cache.seed(p));
        let t = self.locate_alive_from(start, p)?;
        cursor.last = Some(t);
        let tri = &self.tris[t];
        if tri.v.iter().any(|&v| v < SUPER_VERTS) {
            return None;
        }
        Some([
            VertexId(tri.v[0] - SUPER_VERTS),
            VertexId(tri.v[1] - SUPER_VERTS),
            VertexId(tri.v[2] - SUPER_VERTS),
        ])
    }

    /// Cached-lookup variant of [`Triangulation::interpolate`]; see
    /// [`Triangulation::locate_with`] for the cache/cursor contract.
    pub fn interpolate_with(
        &self,
        cache: &LocateCache,
        cursor: &mut LocateCursor,
        p: Point2,
        z: &[f64],
    ) -> Option<f64> {
        if z.len() < self.vertex_count() {
            return None;
        }
        let tri = self.locate_with(cache, cursor, p)?;
        let geom = self.triangle_geometry(tri);
        geom.interpolate(p, [z[tri[0].0], z[tri[1].0], z[tri[2].0]])
    }

    /// Finds the real triangle containing `p`, or `None` when `p` falls
    /// outside the convex hull of the inserted vertices (i.e. its
    /// containing triangle touches the super-triangle).
    pub fn locate(&self, p: Point2) -> Option<[VertexId; 3]> {
        let t = self.locate_alive(p)?;
        let tri = &self.tris[t];
        if tri.v.iter().any(|&v| v < SUPER_VERTS) {
            return None;
        }
        Some([
            VertexId(tri.v[0] - SUPER_VERTS),
            VertexId(tri.v[1] - SUPER_VERTS),
            VertexId(tri.v[2] - SUPER_VERTS),
        ])
    }

    /// Piecewise-linear interpolation of per-vertex values at `p`: the
    /// surface `z* = DT(x, y)` of the paper.
    ///
    /// `z[i]` is the value at `VertexId(i)`. Returns `None` when `p`
    /// falls outside the convex hull of the inserted vertices or when
    /// `z` is shorter than the vertex count.
    pub fn interpolate(&self, p: Point2, z: &[f64]) -> Option<f64> {
        if z.len() < self.vertex_count() {
            return None;
        }
        let tri = self.locate(p)?;
        let geom = self.triangle_geometry(tri);
        geom.interpolate(p, [z[tri[0].0], z[tri[1].0], z[tri[2].0]])
    }

    /// Nearest inserted vertex to `p`, by linear scan (used as a
    /// fallback for out-of-hull queries). Ties go to the lowest id; a
    /// NaN query, whose distances are all NaN, gets the first vertex.
    pub fn nearest_vertex(&self, p: Point2) -> Option<VertexId> {
        (0..self.vertex_count())
            .map(|i| (VertexId(i), self.vertex(VertexId(i)).distance_squared(p)))
            .reduce(|best, cand| {
                if cand.1.total_cmp(&best.1).is_lt() {
                    cand
                } else {
                    best
                }
            })
            .map(|(id, _)| id)
    }

    /// Verifies the Delaunay empty-circumcircle property over all real
    /// triangles and vertices (O(T·V) — intended for tests).
    ///
    /// `slack` loosens the check to tolerate floating-point noise;
    /// cocircular configurations pass.
    pub fn is_delaunay(&self, slack: f64) -> bool {
        let verts: Vec<Point2> = self.vertices().collect();
        for tri in self.triangles() {
            let geom = self.triangle_geometry(tri);
            let Some((center, r2)) = geom.circumcircle() else {
                return false;
            };
            let r = r2.sqrt();
            for (i, &v) in verts.iter().enumerate() {
                if tri.iter().any(|id| id.0 == i) {
                    continue;
                }
                if center.distance(v) < r - slack.max(1e-9 * r) {
                    return false;
                }
            }
        }
        true
    }
}

/// Per-caller warm-start state for cached point location.
///
/// Consecutive queries from one cursor walk from the previously located
/// triangle, which is O(1) when queries are spatially coherent (for
/// example scanning a grid row). Each thread of a parallel sweep owns
/// its own cursor; the [`Triangulation`] and [`LocateCache`] are shared
/// immutably.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocateCursor {
    last: Option<usize>,
}

impl LocateCursor {
    /// A cold cursor; the first query seeds from the [`LocateCache`].
    pub fn new() -> Self {
        LocateCursor::default()
    }
}

/// Read-only point-location accelerator built by
/// [`Triangulation::locate_cache`].
///
/// A uniform bucket grid over the triangulation's bounding region; each
/// bucket stores the index of an alive triangle whose circumcenter
/// (centroid for degenerate triangles) falls nearest the bucket center.
/// Cold lookups walk from the seed of the query's bucket instead of
/// from a global hint, making point location O(1) amortized during
/// quadrature sweeps.
#[derive(Debug, Clone)]
pub struct LocateCache {
    bounds: Rect,
    nx: usize,
    ny: usize,
    /// Seed triangle index per bucket; `usize::MAX` marks a bucket that
    /// could not be filled (empty triangulation).
    seeds: Vec<usize>,
}

impl LocateCache {
    /// Bucket index containing `p` (clamped to the region).
    fn bucket_of(&self, p: Point2) -> usize {
        let fx = (p.x - self.bounds.min().x) / self.bounds.width().max(f64::MIN_POSITIVE);
        let fy = (p.y - self.bounds.min().y) / self.bounds.height().max(f64::MIN_POSITIVE);
        let cx = ((fx * self.nx as f64) as isize).clamp(0, self.nx as isize - 1) as usize;
        let cy = ((fy * self.ny as f64) as isize).clamp(0, self.ny as isize - 1) as usize;
        cy * self.nx + cx
    }

    /// Center point of bucket `b`.
    fn bucket_center(&self, b: usize) -> Point2 {
        let (cx, cy) = (b % self.nx, b / self.nx);
        Point2::new(
            self.bounds.min().x + (cx as f64 + 0.5) / self.nx as f64 * self.bounds.width(),
            self.bounds.min().y + (cy as f64 + 0.5) / self.ny as f64 * self.bounds.height(),
        )
    }

    /// Seed triangle for a query at `p`; `usize::MAX` when the cache is
    /// empty (the walk then falls back to its own recovery path).
    fn seed(&self, p: Point2) -> usize {
        self.seeds[self.bucket_of(p)]
    }

    /// Propagates seeds into empty buckets from their filled neighbors
    /// (multi-pass flood) so every bucket has a walk start.
    fn fill_empty_buckets(&mut self) {
        loop {
            let mut changed = false;
            for b in 0..self.seeds.len() {
                if self.seeds[b] != usize::MAX {
                    continue;
                }
                let (cx, cy) = (b % self.nx, b / self.nx);
                let neighbors = [
                    (cx > 0).then(|| b - 1),
                    (cx + 1 < self.nx).then(|| b + 1),
                    (cy > 0).then(|| b - self.nx),
                    (cy + 1 < self.ny).then(|| b + self.nx),
                ];
                for n in neighbors.into_iter().flatten() {
                    if self.seeds[n] != usize::MAX {
                        self.seeds[b] = self.seeds[n];
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_dt(side: f64) -> Triangulation {
        let bounds = Rect::square(side).unwrap();
        let mut dt = Triangulation::new(bounds);
        for c in bounds.corners() {
            dt.insert(c).unwrap();
        }
        dt
    }

    #[test]
    fn four_corners_make_two_triangles() {
        let dt = square_dt(10.0);
        assert_eq!(dt.vertex_count(), 4);
        assert_eq!(dt.triangle_count(), 2);
        // Total area equals the square's area.
        let area: f64 = dt
            .triangles()
            .iter()
            .map(|&t| dt.triangle_geometry(t).area())
            .sum();
        assert!((area - 100.0).abs() < 1e-9);
    }

    #[test]
    fn insertion_preserves_area_and_delaunay() {
        let mut dt = square_dt(100.0);
        let pts = [
            (13.0, 42.0),
            (77.0, 18.0),
            (50.0, 50.0),
            (91.5, 88.0),
            (10.0, 90.0),
            (60.0, 30.0),
            (30.0, 60.0),
            (85.0, 55.0),
        ];
        for (x, y) in pts {
            dt.insert(Point2::new(x, y)).unwrap();
            let area: f64 = dt
                .triangles()
                .iter()
                .map(|&t| dt.triangle_geometry(t).area())
                .sum();
            assert!((area - 10_000.0).abs() < 1e-6, "area drifted: {area}");
            assert!(dt.is_delaunay(1e-9));
        }
        assert_eq!(dt.vertex_count(), 12);
    }

    #[test]
    fn rejects_bad_inserts() {
        let mut dt = square_dt(10.0);
        assert!(matches!(
            dt.insert(Point2::new(11.0, 5.0)),
            Err(GeometryError::OutOfBounds { .. })
        ));
        assert!(matches!(
            dt.insert(Point2::new(0.0, 0.0)),
            Err(GeometryError::DuplicatePoint { .. })
        ));
        assert!(matches!(
            dt.insert(Point2::new(f64::NAN, 1.0)),
            Err(GeometryError::NonFiniteCoordinate)
        ));
        // Failed inserts leave the structure intact.
        assert_eq!(dt.vertex_count(), 4);
        assert!(dt.is_delaunay(1e-9));
    }

    #[test]
    fn locate_finds_containing_triangle() {
        let mut dt = square_dt(10.0);
        dt.insert(Point2::new(5.0, 5.0)).unwrap();
        let p = Point2::new(2.0, 2.0);
        let tri = dt.locate(p).unwrap();
        assert!(dt.triangle_geometry(tri).contains(p));
    }

    #[test]
    fn interpolation_is_exact_for_planes() {
        let mut dt = square_dt(10.0);
        for (x, y) in [(3.0, 7.0), (6.0, 2.0), (8.0, 8.0)] {
            dt.insert(Point2::new(x, y)).unwrap();
        }
        let f = |p: Point2| 3.0 * p.x - 2.0 * p.y + 1.0;
        let zs: Vec<f64> = dt.vertices().map(f).collect();
        for p in [
            Point2::new(1.0, 1.0),
            Point2::new(5.0, 5.0),
            Point2::new(9.9, 0.1),
        ] {
            let z = dt.interpolate(p, &zs).unwrap();
            assert!((z - f(p)).abs() < 1e-9, "at {p}: {z} vs {}", f(p));
        }
    }

    #[test]
    fn interpolate_rejects_short_value_slice() {
        let dt = square_dt(10.0);
        assert!(dt.interpolate(Point2::new(5.0, 5.0), &[1.0, 2.0]).is_none());
    }

    #[test]
    fn point_on_shared_edge_inserts_cleanly() {
        let mut dt = square_dt(10.0);
        // The diagonal (0,0)-(10,10) is a shared edge of the two initial
        // triangles; inserting on it exercises the two-triangle cavity.
        dt.insert(Point2::new(5.0, 5.0)).unwrap();
        assert_eq!(dt.triangle_count(), 4);
        assert!(dt.is_delaunay(1e-9));
    }

    #[test]
    fn nearest_vertex_scan() {
        let mut dt = square_dt(10.0);
        let id = dt.insert(Point2::new(5.0, 5.0)).unwrap();
        assert_eq!(dt.nearest_vertex(Point2::new(5.2, 4.9)), Some(id));
    }

    #[test]
    fn nearest_vertex_ties_go_to_the_first_vertex() {
        let mut dt = square_dt(10.0);
        let left = dt.insert(Point2::new(4.0, 5.0)).unwrap();
        let right = dt.insert(Point2::new(6.0, 5.0)).unwrap();
        assert!(left.0 < right.0);
        assert_eq!(dt.nearest_vertex(Point2::new(5.0, 5.0)), Some(left));
        // The centre of the square is equidistant from all four corners.
        let dt = square_dt(10.0);
        assert_eq!(dt.nearest_vertex(Point2::new(5.0, 5.0)), Some(VertexId(0)));
    }

    #[test]
    fn nearest_vertex_survives_non_finite_queries() {
        let mut dt = square_dt(10.0);
        dt.insert(Point2::new(5.0, 5.0)).unwrap();
        assert_eq!(
            dt.nearest_vertex(Point2::new(f64::NAN, 1.0)),
            Some(VertexId(0))
        );
        assert_eq!(
            dt.nearest_vertex(Point2::new(f64::NAN, f64::NAN)),
            Some(VertexId(0))
        );
        assert!(dt.nearest_vertex(Point2::new(f64::INFINITY, 5.0)).is_some());
        let empty = Triangulation::new(Rect::square(10.0).unwrap());
        assert_eq!(empty.nearest_vertex(Point2::new(1.0, 1.0)), None);
    }

    #[test]
    fn grid_insertions_stay_consistent() {
        // A regular grid triggers many cocircular configurations — the
        // classic stress test for the incircle tolerance.
        let bounds = Rect::square(8.0).unwrap();
        let mut dt = Triangulation::new(bounds);
        for j in 0..=4 {
            for i in 0..=4 {
                dt.insert(Point2::new(2.0 * i as f64, 2.0 * j as f64))
                    .unwrap();
            }
        }
        assert_eq!(dt.vertex_count(), 25);
        let area: f64 = dt
            .triangles()
            .iter()
            .map(|&t| dt.triangle_geometry(t).area())
            .sum();
        assert!((area - 64.0).abs() < 1e-6);
        assert!(dt.is_delaunay(1e-6));
    }

    #[test]
    fn last_insert_bbox_covers_cavity() {
        let mut dt = square_dt(10.0);
        assert!(dt.last_insert_bbox().is_some());
        dt.insert(Point2::new(5.0, 5.0)).unwrap();
        let (lo, hi) = dt.last_insert_bbox().unwrap();
        // The cavity for the centre point spans the whole square here.
        assert!(lo.x <= 0.0 + 1e-9 && hi.x >= 10.0 - 1e-9);
        assert!(lo.y <= 0.0 + 1e-9 && hi.y >= 10.0 - 1e-9);
    }

    #[test]
    fn edges_and_vertex_neighbors_are_consistent() {
        let mut dt = square_dt(10.0);
        let center = dt.insert(Point2::new(5.0, 5.0)).unwrap();
        let edges = dt.edges();
        // The centre connects to all four corners.
        let deg = edges
            .iter()
            .filter(|&&(a, b)| a == center || b == center)
            .count();
        assert_eq!(deg, 4);
        // Every edge is a side of some triangle.
        let triangles = dt.triangles();
        for &(a, b) in &edges {
            assert!(triangles.iter().any(|t| t.contains(&a) && t.contains(&b)));
        }
        // Edges are canonical (small id first) and unique.
        for w in edges.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn cached_locate_matches_uncached() {
        let mut dt = square_dt(10.0);
        for (x, y) in [(3.0, 7.0), (6.0, 2.0), (8.0, 8.0), (2.0, 3.0), (5.0, 5.0)] {
            dt.insert(Point2::new(x, y)).unwrap();
        }
        let cache = dt.locate_cache();
        let mut cursor = LocateCursor::new();
        for j in 0..20 {
            for i in 0..20 {
                let p = Point2::new(0.25 + 0.5 * i as f64, 0.25 + 0.5 * j as f64);
                let plain = dt.locate(p);
                let cached = dt.locate_with(&cache, &mut cursor, p);
                match (plain, cached) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        // Both triangles must contain the query point;
                        // on shared edges they may legitimately differ.
                        assert!(dt.triangle_geometry(a).contains(p));
                        assert!(dt.triangle_geometry(b).contains(p));
                    }
                    other => panic!("cache disagrees on hull membership at {p}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn stale_cache_still_locates_after_inserts() {
        let mut dt = square_dt(10.0);
        dt.insert(Point2::new(5.0, 5.0)).unwrap();
        let cache = dt.locate_cache();
        // Mutate after the snapshot: old seeds die in the cavities.
        for (x, y) in [(2.0, 2.0), (8.0, 3.0), (4.0, 8.0)] {
            dt.insert(Point2::new(x, y)).unwrap();
        }
        let mut cursor = LocateCursor::new();
        for (x, y) in [(1.0, 1.0), (9.0, 9.0), (5.0, 2.5), (3.0, 6.0)] {
            let p = Point2::new(x, y);
            let tri = dt.locate_with(&cache, &mut cursor, p).unwrap();
            assert!(dt.triangle_geometry(tri).contains(p));
        }
    }

    #[test]
    fn interpolate_with_matches_plain_interpolate() {
        let mut dt = square_dt(10.0);
        for (x, y) in [(3.0, 7.0), (6.0, 2.0), (8.0, 8.0)] {
            dt.insert(Point2::new(x, y)).unwrap();
        }
        let f = |p: Point2| 3.0 * p.x - 2.0 * p.y + 1.0;
        let zs: Vec<f64> = dt.vertices().map(f).collect();
        let cache = dt.locate_cache();
        let mut cursor = LocateCursor::new();
        for p in [
            Point2::new(1.0, 1.0),
            Point2::new(5.0, 5.0),
            Point2::new(9.9, 0.1),
        ] {
            let z = dt.interpolate_with(&cache, &mut cursor, p, &zs).unwrap();
            assert!((z - f(p)).abs() < 1e-9);
        }
        // Short value slices are rejected just like the plain path.
        assert!(dt
            .interpolate_with(&cache, &mut cursor, Point2::new(5.0, 5.0), &[1.0])
            .is_none());
    }

    #[test]
    fn from_points_convenience() {
        let bounds = Rect::square(10.0).unwrap();
        let dt = Triangulation::from_points(
            bounds,
            bounds.corners().into_iter().chain([Point2::new(4.0, 6.0)]),
        )
        .unwrap();
        assert_eq!(dt.vertex_count(), 5);
        assert!(
            Triangulation::from_points(bounds, [Point2::new(1.0, 1.0), Point2::new(1.0, 1.0)])
                .is_err()
        );
    }
}
