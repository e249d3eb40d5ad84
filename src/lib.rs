//! Spatio-temporal distribution of cyber-physical systems for
//! environment abstraction.
//!
//! A from-scratch Rust reproduction of Kong, Jiang & Wu, *"Optimizing
//! the Spatio-Temporal Distribution of Cyber-Physical Systems for
//! Environment Abstraction"* (ICDCS 2010): given `k` sensing nodes and
//! a region of interest, place (or move) them so that the surface
//! rebuilt from their samples by Delaunay triangulation matches the
//! real environment as closely as possible, subject to the node network
//! staying connected.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `cps-core` | FRA (stationary placement), CMA (mobile exploration), curvature, virtual forces, CWD metrics |
//! | [`field`] | `cps-field` | scalar fields, time dynamics, reconstruction, the δ metric |
//! | [`geometry`] | `cps-geometry` | Delaunay triangulation, predicates, regions |
//! | [`network`] | `cps-network` | unit-disk graphs, components, MST, relay planning |
//! | [`sim`] | `cps-sim` | discrete-time mobile-node simulator |
//! | [`greenorbs`] | `cps-greenorbs` | synthetic GreenOrbs-style forest sensing trace |
//! | [`linalg`] | `cps-linalg` | 2-D vectors, summary statistics, the 3×3 quadric-fit solver |
//! | [`viz`] | `cps-viz` | ASCII/CSV/PGM figure rendering |
//!
//! Most programs only need [`prelude`], which gathers the common
//! surface (region/grid types, the two algorithm builders, deployment
//! evaluation, the [`Parallelism`](cps_field::Parallelism) thread
//! policy) behind one import, and [`Error`], which any crate's error
//! converts into with `?`.
//!
//! # Quickstart
//!
//! Place 20 stationary nodes on a known surface with the foresighted
//! refinement algorithm and measure the reconstruction error:
//!
//! ```
//! use cps::prelude::*;
//!
//! fn main() -> Result<(), cps::Error> {
//!     let region = Rect::square(100.0)?;
//!     let grid = GridSpec::new(region, 51, 51)?;
//!     let reference = cps::field::PeaksField::new(region, 8.0);
//!
//!     let result = FraBuilder::new(20, 10.0)
//!         .grid(grid)
//!         .evaluator(EvalOptions::new().parallelism(Parallelism::auto()))
//!         .run(&reference)?;
//!     let eval = DeltaEvaluator::new(&reference, &grid, 10.0).evaluate(&result.positions)?;
//!     assert!(eval.connected);
//!     println!("delta = {}", eval.delta);
//!     Ok(())
//! }
//! ```
//!
//! The δ quadrature and the per-node sense/decide sweeps run on a
//! row-sharded thread pool ([`Parallelism`](cps_field::Parallelism)
//! picks the worker count, `auto()` = all cores); results are
//! bit-identical at any thread count. See `examples/` for end-to-end
//! scenarios and `crates/bench/src/bin/` for the harnesses that
//! regenerate every figure of the paper (documented in EXPERIMENTS.md).

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod error;
pub mod prelude;

pub use error::Error;

pub use cps_core as core;
pub use cps_field as field;
pub use cps_geometry as geometry;
pub use cps_greenorbs as greenorbs;
pub use cps_linalg as linalg;
pub use cps_network as network;
pub use cps_sim as sim;
pub use cps_viz as viz;
