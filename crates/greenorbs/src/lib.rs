//! Synthetic GreenOrbs-style forest sensing trace.
//!
//! The paper's evaluation is trace-driven: light (KLux), temperature and
//! humidity collected hourly by 1000+ TelosB nodes in a ~20 000 m²
//! forest in Lin'an, China (the GreenOrbs project), with the referential
//! surface taken from a 100×100 m region at 10:00 on Nov 24, 2009.
//! That trace is not published in machine-readable form, so this crate
//! generates a statistically similar *synthetic* trace (see DESIGN.md,
//! "Substitutions"):
//!
//! * ~1000 virtual nodes scattered over a square forest plot;
//! * a latent light model — diurnal ambient sky light filtered through
//!   a canopy-transmission field with gap openings, plus sun flecks
//!   that drift with the sun angle;
//! * derived temperature and humidity channels;
//! * hourly per-node readings with measurement noise.
//!
//! The [`Dataset`] API is what a loader for the real trace would offer:
//! query readings, extract a smoothed [`cps_field::GridField`] for a
//! region at an hour (the experiments' ground truth `f(x, y)`), build a
//! time-varying [`cps_field::KeyframeField`], and round-trip through
//! CSV/JSON.
//!
//! # Example
//!
//! ```
//! use cps_greenorbs::{ForestConfig, Dataset};
//! use cps_geometry::{Point2, Rect};
//!
//! let dataset = Dataset::generate(&ForestConfig::default());
//! assert!(dataset.node_count() >= 1000);
//! // The paper's referential surface: light in a 100×100 m region at
//! // 10:00 of day 0.
//! let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
//! let field = dataset
//!     .region_field(region, cps_greenorbs::Channel::Light, 10, 101)
//!     .unwrap();
//! assert!(field.max_value() > field.min_value());
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod csv;
mod dataset;
mod error;
mod generator;
mod records;
mod smooth;

pub use dataset::{Dataset, DEFAULT_KERNEL_BANDWIDTH};
pub use error::TraceError;
pub use generator::{ForestConfig, LatentLightField};
pub use records::{Channel, NodeMeta, SensorReading};
