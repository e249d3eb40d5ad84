//! Computational-geometry substrate for the CPS distribution workspace.
//!
//! The paper reconstructs the environment surface by Delaunay-triangulating
//! the sampled node positions and lifting the triangulation to 3-D
//! (`z* = DT(x, y)`). This crate provides everything that pipeline needs:
//!
//! * [`Point2`] and planar [`predicates`] — orientation and
//!   in-circumcircle tests;
//! * [`Triangle`] utilities — circumcircles, barycentric coordinates,
//!   planar interpolation of a lifted vertex value;
//! * [`Triangulation`] — an incremental Bowyer–Watson Delaunay
//!   triangulation with walk-based point location, supporting the
//!   one-point-at-a-time refinement loop of the paper's FRA (Table 1);
//! * [`convex_hull`] and [`Rect`]/[`GridSpec`] region helpers.
//!
//! # Example
//!
//! ```
//! use cps_geometry::{Point2, Triangulation, Rect};
//!
//! let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(100.0, 100.0)).unwrap();
//! let mut dt = Triangulation::new(region);
//! // Paper's FRA initial state: the four region corners.
//! for corner in region.corners() {
//!     dt.insert(corner).unwrap();
//! }
//! dt.insert(Point2::new(40.0, 60.0)).unwrap();
//! assert_eq!(dt.vertex_count(), 5);
//! // Every triangle of the finished triangulation satisfies Delaunay's
//! // empty-circumcircle property.
//! assert!(dt.is_delaunay(1e-9));
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod delaunay;
mod error;
mod hull;
mod index;
mod point;
mod polygon;
pub mod predicates;
mod region;
pub mod scanline;
mod triangle;
mod voronoi;

pub use delaunay::{LocateCache, LocateCursor, Triangulation, VertexId};
pub use error::GeometryError;
pub use hull::convex_hull;
pub use index::GridIndex;
pub use point::{within, Point2};
pub use polygon::{clip_polygon_halfplane, polygon_area, polygon_centroid};
pub use region::{GridSpec, Rect};
pub use triangle::Triangle;
pub use voronoi::{coverage_areas, voronoi_cells};
