//! The local connectivity mechanism (LCM, Section 5.2 and Fig. 4).
//!
//! When a node announces a move to destination `nd` together with its
//! current single-hop neighbor list `N`, each former neighbor checks
//! whether it will still reach the mover — directly (within `Rc` of
//! `nd`) or through some other neighbor in `N` that stays put. A
//! neighbor that would be stranded moves along with the mover, stopping
//! at exactly `Rc` from the destination.

use cps_geometry::Point2;

/// Whether `node` (a current single-hop neighbor of a mover) remains
/// connected to the mover after it relocates to `mover_dest`.
///
/// `mover_neighbors` are the positions of the mover's *other* single-hop
/// neighbors (the `N[q]` broadcast in Table 2); entries coincident with
/// `node` are ignored. Connection is direct (`d(node, nd) ≤ Rc`) or via
/// one intermediate neighbor `nₖ` with `d(node, nₖ) ≤ Rc` and
/// `d(nₖ, nd) ≤ Rc` — exactly the Fig. 4 rule that lets `n4` stay
/// (bridged by `n3`) while `n5` must follow.
pub fn stays_connected(
    node: Point2,
    mover_dest: Point2,
    mover_neighbors: &[Point2],
    comm_radius: f64,
) -> bool {
    if node.distance(mover_dest) <= comm_radius {
        return true;
    }
    mover_neighbors.iter().any(|&nk| {
        nk.distance(node) > f64::EPSILON // skip self
            && node.distance(nk) <= comm_radius
            && nk.distance(mover_dest) <= comm_radius
    })
}

/// The position a stranded neighbor moves to: on the segment from
/// `node` toward `mover_dest`, at distance exactly `Rc` from the
/// destination (`|d(nᵢ, nd)| = Rc`, Table 2 line 21).
///
/// If `node` is already within `Rc` of the destination it stays put.
pub fn follow_position(node: Point2, mover_dest: Point2, comm_radius: f64) -> Point2 {
    let d = node.distance(mover_dest);
    if d <= comm_radius {
        return node;
    }
    // Walk toward the destination until exactly Rc away.
    node.lerp(mover_dest, (d - comm_radius) / d)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RC: f64 = 10.0;

    /// Mirror of the paper's Fig. 4 scenario: n1 moves; n3 stays in
    /// range, n4 is bridged by n3, n5 is stranded and must follow, n2
    /// becomes a new neighbor (not LCM's concern).
    #[test]
    fn figure4_scenario() {
        let n1_dest = Point2::new(0.0, 0.0);
        let n3 = Point2::new(8.0, 0.0); // within Rc of dest: stays
        let n4 = Point2::new(16.0, 0.0); // out of range, but n3 bridges
        let n5 = Point2::new(0.0, 25.0); // stranded: nothing bridges

        let others_for_n4 = [n3, n5];
        let others_for_n5 = [n3, n4];

        assert!(stays_connected(n3, n1_dest, &[n4, n5], RC));
        assert!(stays_connected(n4, n1_dest, &others_for_n4, RC));
        assert!(!stays_connected(n5, n1_dest, &others_for_n5, RC));

        let n5_new = follow_position(n5, n1_dest, RC);
        assert!((n5_new.distance(n1_dest) - RC).abs() < 1e-9);
        // n5 moved straight toward the destination.
        assert_eq!(n5_new.x, 0.0);
        assert!((n5_new.y - 10.0).abs() < 1e-9);
    }

    #[test]
    fn direct_connection_needs_no_bridge() {
        assert!(stays_connected(
            Point2::new(5.0, 0.0),
            Point2::ORIGIN,
            &[],
            RC
        ));
    }

    #[test]
    fn bridge_must_reach_both_sides() {
        let node = Point2::new(18.0, 0.0);
        let dest = Point2::ORIGIN;
        // Bridge within Rc of the node but not of the destination.
        let bad_bridge = [Point2::new(14.0, 0.0)];
        assert!(!stays_connected(node, dest, &bad_bridge, RC));
        // Bridge reaching both (9 from each side).
        let good_bridge = [Point2::new(9.0, 0.0)];
        assert!(stays_connected(node, dest, &good_bridge, RC));
    }

    #[test]
    fn self_entry_in_neighbor_list_is_ignored() {
        let node = Point2::new(25.0, 0.0);
        // The node itself appearing in the broadcast list must not count
        // as a bridge.
        assert!(!stays_connected(node, Point2::ORIGIN, &[node], RC));
    }

    #[test]
    fn follow_position_preserves_direction_and_distance() {
        let node = Point2::new(30.0, 40.0); // 50 from origin
        let new = follow_position(node, Point2::ORIGIN, RC);
        assert!((new.distance(Point2::ORIGIN) - RC).abs() < 1e-9);
        // Same ray: components keep the 3:4 ratio.
        assert!((new.x / new.y - 0.75).abs() < 1e-9);
        // Already in range: unchanged.
        let near = Point2::new(3.0, 0.0);
        assert_eq!(follow_position(near, Point2::ORIGIN, RC), near);
    }
}
