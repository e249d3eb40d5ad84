//! Small linear-algebra substrate for the CPS distribution workspace.
//!
//! The reproduced paper needs only a handful of numerical kernels: 2-D
//! vector arithmetic for force accumulation and geometry, summary
//! statistics for the evaluation harnesses, and a 3×3 solver for the
//! normal equations of the local quadric fit that yields Gaussian
//! curvature (Eqn. 11 of the paper). The crate is self-contained and
//! dependency-free.
//!
//! # Example
//!
//! Fit `a·x² + b·xy + c·y² = z` in the least-squares sense, exactly as a
//! CPS node does over its sensed samples: accumulate the normal
//! equations `AᵀA·x = Aᵀz` and solve them with [`solve_3x3`].
//!
//! ```
//! use cps_linalg::solve_3x3;
//!
//! // Samples of z = 2x² + 0·xy + 1·y² (so a=2, b=0, c=1).
//! let pts = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)];
//! let mut ata = [[0.0; 3]; 3];
//! let mut atz = [0.0; 3];
//! for &(x, y) in &pts {
//!     let row = [x * x, x * y, y * y];
//!     let z = 2.0 * x * x + y * y;
//!     for i in 0..3 {
//!         for j in 0..3 {
//!             ata[i][j] += row[i] * row[j];
//!         }
//!         atz[i] += row[i] * z;
//!     }
//! }
//! let coef = solve_3x3(&ata, &atz).unwrap();
//! assert!((coef[0] - 2.0).abs() < 1e-9);
//! assert!(coef[1].abs() < 1e-9);
//! assert!((coef[2] - 1.0).abs() < 1e-9);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod error;
mod solve;
mod stats;
mod vector;

pub use error::LinalgError;
pub use solve::solve_3x3;
pub use stats::{mean, Summary};
pub use vector::Vec2;
