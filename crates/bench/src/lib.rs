//! Shared setup for the experiment harnesses reproducing the paper's
//! figures (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for measured results).
//!
//! Every binary in `src/bin/` uses the same canonical scenario: the
//! synthetic GreenOrbs trace with the default [`ForestConfig`], a
//! 100×100 m region of interest inside the forest plot, light (KLux)
//! as the channel, and the paper's node parameters `Rc = 10 m`,
//! `Rs = 5 m`, `v = 1 m/min`, `β = 2` (Section 6.1).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use cps_field::GridField;
use cps_geometry::{GridSpec, Point2, Rect};
use cps_greenorbs::{Channel, Dataset, ForestConfig};

/// The paper's communication radius, metres.
pub const PAPER_RC: f64 = 10.0;

/// Trace hour of the paper's referential surface (10:00).
const PAPER_HOUR: u32 = 10;

/// Evaluation grid resolution (101×101 over the 100 m region → 1 m).
const EVAL_RESOLUTION: usize = 101;

/// The 100×100 m region of interest inside the forest plot.
pub fn paper_region() -> Rect {
    Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).expect("paper region is valid")
}

/// The canonical synthetic GreenOrbs dataset (deterministic).
pub fn paper_dataset() -> Dataset {
    Dataset::generate(&ForestConfig::default())
}

/// The evaluation grid over the paper region.
pub fn eval_grid() -> GridSpec {
    GridSpec::new(paper_region(), EVAL_RESOLUTION, EVAL_RESOLUTION)
        .expect("evaluation grid is valid")
}

/// The referential light surface (the paper's Fig. 1 field): light at
/// 10:00, kernel-smoothed onto the evaluation grid.
pub fn reference_light_surface(dataset: &Dataset) -> GridField {
    dataset
        .region_field(paper_region(), Channel::Light, PAPER_HOUR, EVAL_RESOLUTION)
        .expect("reference surface extraction succeeds")
}

/// Directory where experiment outputs (CSV, PGM) are written.
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::Field;

    #[test]
    fn canonical_scenario_is_consistent() {
        let region = paper_region();
        assert_eq!(region.width(), 100.0);
        let grid = eval_grid();
        assert_eq!(grid.len(), EVAL_RESOLUTION * EVAL_RESOLUTION);
        let dataset = paper_dataset();
        assert!(dataset.node_count() >= 1000);
        let surface = reference_light_surface(&dataset);
        assert!(surface.max_value() > surface.min_value());
        assert!(surface.value(region.center()).is_finite());
    }
}
