//! The paper's contribution: optimal spatio-temporal distribution of CPS
//! nodes for environment abstraction.
//!
//! Two problems from Kong, Jiang & Wu (ICDCS 2010):
//!
//! * **OSD** — optimal *spatial* distribution of stationary nodes given a
//!   historical reference surface. NP-hard (Theorem 4.1); solved
//!   approximately by the **foresighted refinement algorithm**
//!   ([`osd::FraBuilder`], Table 1 of the paper): greedy Delaunay
//!   refinement at the maximum-local-error position, with a foresight
//!   step that reserves exactly enough of the node budget to stitch the
//!   deployment into one connected network via MST relays.
//!
//! * **OSTD** — optimal *spatio-temporal* distribution of mobile nodes
//!   over a time-varying field with no reference. Solved by the
//!   **coordinated movement algorithm** ([`ostd::cma_step`], Table 2):
//!   each node estimates local Gaussian curvature by a least-squares
//!   quadric fit (Eqns. 11–13), combines curvature-weighted attraction
//!   and spacing repulsion into a virtual-force resultant
//!   (Eqns. 14–18), and preserves connectivity with the local
//!   connectivity mechanism ([`ostd::lcm`]).
//!
//! The target configuration of OSTD is the **curvature-weighted
//! distribution** (CWD, Eqns. 9–10), whose residuals are measured in
//! [`ostd::cwd`].
//!
//! # Example: FRA on a known surface
//!
//! ```
//! use cps_core::osd::FraBuilder;
//! use cps_core::DeltaEvaluator;
//! use cps_field::PeaksField;
//! use cps_geometry::{GridSpec, Rect};
//!
//! let region = Rect::square(100.0).unwrap();
//! let grid = GridSpec::new(region, 51, 51).unwrap();
//! let reference = PeaksField::new(region, 8.0);
//! let result = FraBuilder::new(30, 10.0)
//!     .grid(grid)
//!     .run(&reference)
//!     .unwrap();
//! assert_eq!(result.positions.len(), 30);
//! let eval = DeltaEvaluator::new(&reference, &grid, 10.0)
//!     .evaluate(&result.positions)
//!     .unwrap();
//! assert!(eval.connected);
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod config;
mod coverage;
mod error;
mod evaluate;
pub mod osd;
pub mod ostd;
mod problem;
mod report;

pub use config::CpsConfig;
pub use coverage::{coverage_histogram, sensing_coverage};
pub use error::CoreError;
pub use evaluate::{DeltaEvaluator, DeploymentEvaluation, EvalOptions};
pub use problem::{OsdProblem, OstdProblem};
pub use report::{
    analyze_deployment_with, DeploymentReport, SurvivabilityReport, SurvivabilityState,
    SurvivabilityTracker,
};
