//! Figure rendering for the experiment harnesses: ASCII heatmaps for
//! terminal output, CSV series for plotting, PGM images for reports,
//! and topology dumps of node deployments.
//!
//! # Example
//!
//! ```
//! use cps_field::PeaksField;
//! use cps_geometry::{GridSpec, Rect};
//! use cps_viz::ascii_heatmap;
//!
//! let region = Rect::square(100.0).unwrap();
//! let field = PeaksField::new(region, 8.0);
//! let grid = GridSpec::new(region, 41, 41).unwrap();
//! let art = ascii_heatmap(&field, &grid, 40, 20).unwrap();
//! assert_eq!(art.lines().count(), 20);
//! ```
//!
//! Renderers return [`VizError`] instead of panicking: canvas sizes
//! typically arrive from CLI flags, so bad dimensions are input errors.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod ascii;
mod csv;
mod error;
mod pgm;
mod svg;
mod topology;

pub use ascii::{ascii_heatmap, ascii_scatter};
pub use csv::{write_series, write_xy_series};
pub use error::VizError;
pub use pgm::field_to_pgm;
pub use svg::{topology_svg, trajectories_svg, SvgStyle};
pub use topology::topology_summary;
