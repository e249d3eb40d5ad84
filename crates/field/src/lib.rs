//! Environment-field substrate for the CPS distribution workspace.
//!
//! The paper models an environmental quantity over a region as a scalar
//! field `z = f(x, y)` — a *virtual surface* in 3-D — and, when the
//! quantity drifts, as a time-varying field `z = f(x(t), y(t))`. This
//! crate provides:
//!
//! * the [`Field`] / [`TimeVaryingField`] traits and adapters between
//!   them ([`Static`], [`Frozen`]);
//! * analytic surfaces ([`PeaksField`] — Matlab's `peaks`, used by the
//!   paper's Fig. 3 — plus planes, paraboloids, Gaussian mixtures);
//! * sampled surfaces on regular grids with bilinear interpolation
//!   ([`GridField`]);
//! * time dynamics ([`DriftingField`], [`KeyframeField`]);
//! * the reconstruction surface `z* = DT(x, y)` built from scattered
//!   samples by Delaunay triangulation ([`ReconstructedSurface`]);
//! * the paper's quality metric `δ` — the volume difference between two
//!   surfaces (Eqn. 2) — in [`delta`];
//! * the row-sharded parallel evaluation engine in [`par`]
//!   ([`Parallelism`]), whose grid sweeps are bit-identical to serial
//!   at any thread count and run on a persistent worker pool;
//! * the triangle-major scanline quadrature kernel in [`raster`]
//!   ([`RasterPlan`], [`raster::delta_rms_raster`]): plane each alive
//!   triangle once and DDA-sweep its row spans instead of locating per
//!   grid cell. This is the one δ and local-error integration path.
//!
//! # Example
//!
//! ```
//! use cps_field::{delta, Field, Parallelism, PeaksField, ReconstructedSurface};
//! use cps_geometry::{GridSpec, Point2, Rect};
//!
//! let region = Rect::square(100.0).unwrap();
//! let reference = PeaksField::new(region, 8.0);
//! // Sample the four corners and the centre, reconstruct, and measure δ.
//! let positions: Vec<Point2> = region
//!     .corners()
//!     .into_iter()
//!     .chain([Point2::new(50.0, 50.0)])
//!     .collect();
//! let samples: Vec<f64> = positions.iter().map(|&p| reference.value(p)).collect();
//! let rebuilt = ReconstructedSurface::from_samples(region, &positions, &samples).unwrap();
//! let grid = GridSpec::new(region, 51, 51).unwrap();
//! let d = delta::volume_difference_with(&reference, &rebuilt, &grid, Parallelism::serial());
//! assert!(d > 0.0); // five samples cannot capture peaks exactly
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod analytic;
pub mod delta;
mod dynamics;
mod error;
mod grid;
mod noise;
pub mod par;
pub mod raster;
mod reconstruct;
mod traits;

pub use analytic::{
    GaussianBlob, GaussianMixtureField, ParaboloidField, PeaksField, PlaneField, RidgeField,
};
pub use dynamics::{DriftingField, KeyframeField};
pub use error::FieldError;
pub use grid::GridField;
pub use noise::NoiseField;
pub use par::Parallelism;
pub use raster::{DeltaTotals, RasterPlan};
pub use reconstruct::ReconstructedSurface;
pub use traits::{lattice_keeps, Field, Frozen, Static, TimeVaryingField};
