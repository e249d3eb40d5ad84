//! The unit-disk communication graph.

use cps_geometry::Point2;

use crate::{NetworkError, UnionFind};

/// The communication graph of a node deployment: vertices are node
/// positions, and an edge joins every pair within the communication
/// radius `Rc` (Definition 3.1 of the paper).
///
/// # Example
///
/// ```
/// use cps_geometry::Point2;
/// use cps_network::UnitDiskGraph;
///
/// let g = UnitDiskGraph::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(3.0, 0.0), Point2::new(9.0, 0.0)],
///     5.0,
/// ).unwrap();
/// assert_eq!(g.neighbors(0), &[1]);
/// assert!(!g.is_connected());
/// assert_eq!(g.component_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnitDiskGraph {
    positions: Vec<Point2>,
    radius: f64,
    adjacency: Vec<Vec<usize>>,
}

impl UnitDiskGraph {
    /// Builds the graph over `positions` with communication radius
    /// `radius` (inclusive: distance exactly `radius` forms an edge).
    ///
    /// # Errors
    ///
    /// * [`NetworkError::InvalidRadius`] — `radius` non-positive or
    ///   non-finite.
    /// * [`NetworkError::NonFinitePosition`] — a NaN/∞ coordinate.
    pub fn new(positions: Vec<Point2>, radius: f64) -> Result<Self, NetworkError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(NetworkError::InvalidRadius);
        }
        if positions.iter().any(|p| !p.is_finite()) {
            return Err(NetworkError::NonFinitePosition);
        }
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        // Inclusive radius with a relative tolerance: relay chains are
        // deliberately planned at hops of exactly `radius`, and the
        // floating-point lerp that places them can overshoot by an ulp
        // — a strict comparison would drop those edges.
        let tolerant_radius = radius * (1.0f64 + 1e-9).sqrt();
        let r2 = radius * radius * (1.0 + 1e-9);
        if n > 64 {
            // Bucket-grid construction: O(n) for bounded densities.
            let index = cps_geometry::GridIndex::new(&positions, radius.max(1e-9));
            for i in 0..n {
                index.for_each_within(positions[i], tolerant_radius, |j| {
                    if j > i {
                        adjacency[i].push(j);
                        adjacency[j].push(i);
                    }
                });
            }
            for nbrs in &mut adjacency {
                nbrs.sort_unstable();
            }
        } else {
            for i in 0..n {
                for j in i + 1..n {
                    if positions[i].distance_squared(positions[j]) <= r2 {
                        adjacency[i].push(j);
                        adjacency[j].push(i);
                    }
                }
            }
        }
        Ok(UnitDiskGraph {
            positions,
            radius,
            adjacency,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The communication radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn position(&self, i: usize) -> Point2 {
        self.positions[i]
    }

    /// All node positions.
    #[inline]
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Single-hop neighbors of node `i` (ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// Iterates over undirected edges as `(i, j)` with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(i, nbrs)| nbrs.iter().filter(move |&&j| j > i).map(move |&j| (i, j)))
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Union–find over the graph's connectivity.
    fn union_find(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.node_count());
        for (i, j) in self.edges() {
            uf.union(i, j);
        }
        uf
    }

    /// Number of connected components — the paper's `C(G)`. An empty
    /// graph has zero components.
    pub fn component_count(&self) -> usize {
        self.union_find().component_count()
    }

    /// Whether the whole deployment forms one connected network (the
    /// paper's feasibility constraint). Empty and single-node graphs
    /// count as connected.
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Nodes grouped by connected component (component order is
    /// deterministic: by smallest contained node index).
    pub fn components(&self) -> Vec<Vec<usize>> {
        let labels = self.union_find().labels();
        let count = labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut groups = vec![Vec::new(); count];
        for (node, &label) in labels.iter().enumerate() {
            groups[label].push(node);
        }
        groups
    }

    /// Breadth-first hop distances from `start` (`None` = unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn bfs_hops(&self, start: usize) -> Vec<Option<usize>> {
        let n = self.node_count();
        assert!(start < n, "start node out of range");
        let mut dist = vec![None; n];
        dist[start] = Some(0);
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn construction_validates() {
        assert!(UnitDiskGraph::new(vec![], 0.0).is_err());
        assert!(UnitDiskGraph::new(vec![], -1.0).is_err());
        assert!(UnitDiskGraph::new(vec![], f64::INFINITY).is_err());
        assert!(UnitDiskGraph::new(vec![Point2::new(f64::NAN, 0.0)], 1.0).is_err());
        assert!(UnitDiskGraph::new(vec![], 1.0).is_ok());
    }

    #[test]
    fn edges_are_radius_inclusive() {
        let g = UnitDiskGraph::new(line(3, 5.0), 5.0).unwrap();
        // Spacing exactly equals the radius: consecutive nodes connect.
        assert_eq!(g.edge_count(), 2);
        assert!(g.is_connected());
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn component_structure() {
        // Two clusters of 2, far apart.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(50.0, 0.0),
            Point2::new(51.0, 0.0),
        ];
        let g = UnitDiskGraph::new(pts, 2.0).unwrap();
        assert_eq!(g.component_count(), 2);
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_and_singleton_graphs_are_connected() {
        assert!(UnitDiskGraph::new(vec![], 1.0).unwrap().is_connected());
        assert!(UnitDiskGraph::new(vec![Point2::ORIGIN], 1.0)
            .unwrap()
            .is_connected());
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = UnitDiskGraph::new(line(4, 1.0), 1.5).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn bfs_hop_counts() {
        let g = UnitDiskGraph::new(line(5, 1.0), 1.0).unwrap();
        let d = g.bfs_hops(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        // Disconnected case.
        let g2 = UnitDiskGraph::new(vec![Point2::ORIGIN, Point2::new(100.0, 0.0)], 1.0).unwrap();
        assert_eq!(g2.bfs_hops(0)[1], None);
    }

    #[test]
    fn accessors() {
        let g = UnitDiskGraph::new(line(2, 1.0), 3.0).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.radius(), 3.0);
        assert_eq!(g.position(1), Point2::new(1.0, 0.0));
        assert_eq!(g.positions().len(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }
}
