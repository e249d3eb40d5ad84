//! Relay planning: the paper's `L(G, r)` / `P(G, i)` primitives.
//!
//! When the partially built FRA deployment has `C(G) > 1` connected
//! subgraphs, the foresight step must know (a) the least number of extra
//! nodes with radius `r` that would stitch the subgraphs into one
//! network and (b) where those nodes would go (Table 1). The plan here
//! steinerizes the minimum spanning tree over the components: for each
//! MST edge, relays are spread evenly along the closest-pair segment
//! between the two components, every hop at most `r` long.

use cps_geometry::Point2;

use crate::{prim_mst_weighted, UnitDiskGraph};

/// A relay plan connecting the components of a [`UnitDiskGraph`].
///
/// # Example
///
/// ```
/// use cps_geometry::Point2;
/// use cps_network::{RelayPlan, UnitDiskGraph};
///
/// let g = UnitDiskGraph::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(30.0, 0.0)],
///     10.0,
/// ).unwrap();
/// let plan = RelayPlan::for_graph(&g);
/// assert_eq!(plan.relay_count(), 2); // 30 m gap, 10 m hops
/// // Adding the relays yields one connected network.
/// let mut all = g.positions().to_vec();
/// all.extend_from_slice(plan.relays());
/// assert!(UnitDiskGraph::new(all, 10.0).unwrap().is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelayPlan {
    relays: Vec<Point2>,
    bridged_gaps: Vec<(Point2, Point2)>,
}

impl RelayPlan {
    /// Plans relays for `graph`. Relays are nodes like the others, so
    /// they use the graph's communication radius `r`: the plan realizes
    /// the paper's `L(G, r)` with `r = graph.radius()`.
    pub fn for_graph(graph: &UnitDiskGraph) -> Self {
        let r = graph.radius();
        let components = graph.components();
        let c = components.len();
        if c <= 1 {
            return RelayPlan::default();
        }

        // Closest pair of positions between every pair of components.
        let inf = Point2::new(f64::INFINITY, f64::INFINITY);
        let mut gap = vec![vec![(f64::INFINITY, inf, inf); c]; c];
        for a in 0..c {
            for b in a + 1..c {
                let mut best = (f64::INFINITY, inf, inf);
                for &i in &components[a] {
                    for &j in &components[b] {
                        let d = graph.position(i).distance(graph.position(j));
                        if d < best.0 {
                            best = (d, graph.position(i), graph.position(j));
                        }
                    }
                }
                gap[a][b] = best;
                gap[b][a] = (best.0, best.2, best.1);
            }
        }

        // MST over components, weighted by the closest-pair gap.
        let mst = prim_mst_weighted(c, |a, b| gap[a][b].0);

        let mut relays = Vec::new();
        let mut bridged_gaps = Vec::new();
        for (a, b) in mst {
            let (d, from, to) = gap[a][b];
            bridged_gaps.push((from, to));
            // Hops of length ≤ r: ceil(d / r) segments need that many
            // minus one interior relay nodes.
            let segments = (d / r).ceil().max(1.0) as usize;
            for s in 1..segments {
                relays.push(from.lerp(to, s as f64 / segments as f64));
            }
        }
        RelayPlan {
            relays,
            bridged_gaps,
        }
    }

    /// The relay positions — the paper's `P(G, i)` with
    /// `i = relay_count()`.
    pub fn relays(&self) -> &[Point2] {
        &self.relays
    }

    /// The least number of relays that connect the graph — the paper's
    /// `L(G, r)`.
    pub fn relay_count(&self) -> usize {
        self.relays.len()
    }

    /// The closest-pair segments bridged by the plan (one per MST edge
    /// over the components).
    pub fn bridged_gaps(&self) -> &[(Point2, Point2)] {
        &self.bridged_gaps
    }

    /// Whether no relays are needed (graph already connected).
    pub fn is_empty(&self) -> bool {
        self.relays.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udg(pts: Vec<Point2>, r: f64) -> UnitDiskGraph {
        UnitDiskGraph::new(pts, r).unwrap()
    }

    #[test]
    fn connected_graph_needs_no_relays() {
        let g = udg(vec![Point2::ORIGIN, Point2::new(1.0, 0.0)], 2.0);
        let plan = RelayPlan::for_graph(&g);
        assert!(plan.is_empty());
        assert_eq!(plan.relay_count(), 0);
        assert!(plan.bridged_gaps().is_empty());
    }

    #[test]
    fn single_gap_relay_count_is_ceiling() {
        for (gap, r, expected) in [
            (10.0, 10.0, 0usize), // exactly one hop
            (10.1, 10.0, 1),
            (25.0, 10.0, 2),
            (30.0, 10.0, 2),
            (30.1, 10.0, 3),
        ] {
            let g = udg(vec![Point2::ORIGIN, Point2::new(gap, 0.0)], r);
            if g.is_connected() {
                assert_eq!(expected, 0, "gap {gap} should need no relays");
                continue;
            }
            let plan = RelayPlan::for_graph(&g);
            assert_eq!(plan.relay_count(), expected, "gap {gap} radius {r}");
        }
    }

    #[test]
    fn relays_make_the_network_connected() {
        // Three clusters in a triangle.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(40.0, 0.0),
            Point2::new(42.0, 0.0),
            Point2::new(20.0, 35.0),
        ];
        let g = udg(pts.clone(), 5.0);
        assert_eq!(g.component_count(), 3);
        let plan = RelayPlan::for_graph(&g);
        assert!(!plan.is_empty());
        let mut all = pts;
        all.extend_from_slice(plan.relays());
        assert!(udg(all, 5.0).is_connected());
        assert_eq!(plan.bridged_gaps().len(), 2); // MST over 3 components
    }

    #[test]
    fn plan_uses_closest_pair_between_components() {
        // Component A = {(0,0), (4,0)}, B = {(10,0)}: the gap must be
        // bridged from (4,0), not (0,0).
        let g = udg(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(4.0, 0.0),
                Point2::new(10.0, 0.0),
            ],
            4.0,
        );
        let plan = RelayPlan::for_graph(&g);
        let (from, to) = plan.bridged_gaps()[0];
        let pair = [from, to];
        assert!(pair.contains(&Point2::new(4.0, 0.0)));
        assert!(pair.contains(&Point2::new(10.0, 0.0)));
        // 6 m gap at radius 4 → 1 relay at the midpoint.
        assert_eq!(plan.relay_count(), 1);
        assert_eq!(plan.relays()[0], Point2::new(7.0, 0.0));
    }

    #[test]
    fn custom_relay_radius() {
        // Relays hop at the graph's radius: longer hops need fewer.
        let pts = vec![Point2::ORIGIN, Point2::new(30.0, 0.0)];
        let strong = RelayPlan::for_graph(&udg(pts.clone(), 15.0));
        assert_eq!(strong.relay_count(), 1);
        let weak = RelayPlan::for_graph(&udg(pts, 5.0));
        assert_eq!(weak.relay_count(), 5);
    }
}
