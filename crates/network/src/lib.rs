//! Connectivity substrate for the CPS distribution workspace.
//!
//! The paper constrains every node distribution to form a *connected*
//! unit-disk communication graph: nodes `u, v` share an edge iff
//! `‖u − v‖ ≤ Rc` (Definition 3.1). This crate supplies the pieces the
//! FRA foresight step (Table 1) needs:
//!
//! * [`UnitDiskGraph`] — the communication graph over node positions;
//! * [`UnionFind`] and component queries — the paper's `C(G)` count of
//!   connected subgraphs;
//! * [`prim_mst`] — Prim's minimum spanning tree, which the paper uses
//!   to link subgraphs at minimum cost;
//! * [`RelayPlan`] — the paper's `L(G, r)` (least number of relay nodes
//!   that connect the subgraphs) and `P(G, i)` (their positions), built
//!   by steinerizing the inter-component MST.
//!
//! # Example
//!
//! ```
//! use cps_geometry::Point2;
//! use cps_network::{RelayPlan, UnitDiskGraph};
//!
//! // Two clusters 10 apart with communication radius 4.
//! let positions = vec![
//!     Point2::new(0.0, 0.0),
//!     Point2::new(2.0, 0.0),
//!     Point2::new(12.0, 0.0),
//! ];
//! let g = UnitDiskGraph::new(positions, 4.0).unwrap();
//! assert_eq!(g.component_count(), 2);
//! let plan = RelayPlan::for_graph(&g);
//! // Gap is 10; two relays at spacing ≤ 4 bridge it.
//! assert_eq!(plan.relay_count(), 2);
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod articulation;
mod components;
mod connect;
mod error;
mod graph;
mod mst;
mod paths;

pub use articulation::{articulation_points, criticality};
pub use components::UnionFind;
pub use connect::RelayPlan;
pub use error::NetworkError;
pub use graph::UnitDiskGraph;
pub use mst::{prim_mst, prim_mst_weighted};
pub use paths::{network_diameter, shortest_distances};
