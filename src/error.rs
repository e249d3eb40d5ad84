//! A single error type spanning the whole workspace.

use std::error::Error as StdError;
use std::fmt;

/// Any error produced by the workspace, one variant per crate.
///
/// Every crate keeps its own focused error enum; this umbrella type
/// exists so applications can use `Result<_, cps::Error>` (or
/// `Box<dyn Error>`) end-to-end without writing conversion glue. All
/// per-crate errors convert in with `?` via the [`From`] impls below.
///
/// ```
/// use cps::prelude::*;
///
/// fn plan(k: usize) -> Result<Vec<Point2>, cps::Error> {
///     let region = Rect::square(100.0)?; // GeometryError -> cps::Error
///     let grid = GridSpec::new(region, 41, 41)?;
///     let reference = cps::field::PeaksField::new(region, 8.0);
///     let result = FraBuilder::new(k, 10.0).grid(grid).run(&reference)?;
///     Ok(result.positions) // CoreError -> cps::Error
/// }
///
/// assert!(plan(20).is_ok());
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// From `cps-linalg`: a singular system in the 3×3 solver.
    Linalg(cps_linalg::LinalgError),
    /// From `cps-geometry`: geometric construction and query failures.
    Geometry(cps_geometry::GeometryError),
    /// From `cps-field`: field construction and evaluation failures.
    Field(cps_field::FieldError),
    /// From `cps-network`: connectivity structure failures.
    Network(cps_network::NetworkError),
    /// From `cps-greenorbs`: trace generation and loading failures.
    Trace(cps_greenorbs::TraceError),
    /// From `cps-core`: distribution algorithm failures.
    Core(cps_core::CoreError),
    /// From `cps-viz`: rendering and figure-export failures.
    Viz(cps_viz::VizError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Linalg(e) => write!(f, "linalg: {e}"),
            Error::Geometry(e) => write!(f, "geometry: {e}"),
            Error::Field(e) => write!(f, "field: {e}"),
            Error::Network(e) => write!(f, "network: {e}"),
            Error::Trace(e) => write!(f, "trace: {e}"),
            Error::Core(e) => write!(f, "core: {e}"),
            Error::Viz(e) => write!(f, "viz: {e}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::Geometry(e) => Some(e),
            Error::Field(e) => Some(e),
            Error::Network(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Viz(e) => Some(e),
        }
    }
}

impl From<cps_linalg::LinalgError> for Error {
    fn from(e: cps_linalg::LinalgError) -> Self {
        Error::Linalg(e)
    }
}

impl From<cps_geometry::GeometryError> for Error {
    fn from(e: cps_geometry::GeometryError) -> Self {
        Error::Geometry(e)
    }
}

impl From<cps_field::FieldError> for Error {
    fn from(e: cps_field::FieldError) -> Self {
        Error::Field(e)
    }
}

impl From<cps_network::NetworkError> for Error {
    fn from(e: cps_network::NetworkError) -> Self {
        Error::Network(e)
    }
}

impl From<cps_greenorbs::TraceError> for Error {
    fn from(e: cps_greenorbs::TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<cps_core::CoreError> for Error {
    fn from(e: cps_core::CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<cps_viz::VizError> for Error {
    fn from(e: cps_viz::VizError) -> Self {
        Error::Viz(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_crate_error_converts_and_sources() {
        let errs: Vec<Error> = vec![
            cps_linalg::LinalgError::Singular.into(),
            cps_geometry::GeometryError::EmptyGrid.into(),
            cps_field::FieldError::NonFiniteValue.into(),
            cps_network::NetworkError::InvalidRadius.into(),
            cps_greenorbs::TraceError::EmptyRegion.into(),
            cps_core::CoreError::DegenerateFit.into(),
            cps_viz::VizError::EmptyCanvas {
                what: "heatmap",
                cols: 0,
                rows: 0,
            }
            .into(),
        ];
        for e in &errs {
            assert!(StdError::source(e).is_some(), "{e:?} must expose a source");
            assert!(!e.to_string().is_empty());
        }
        assert!(errs[0].to_string().starts_with("linalg:"));
        assert!(errs[4].to_string().starts_with("trace:"));
        assert!(errs[6].to_string().starts_with("viz:"));
    }

    #[test]
    fn question_mark_works_across_crates() {
        fn inner() -> Result<(), Error> {
            let region = cps_geometry::Rect::square(10.0)?;
            let _grid = cps_geometry::GridSpec::new(region, 0, 0)?;
            Ok(())
        }
        assert!(matches!(
            inner(),
            Err(Error::Geometry(cps_geometry::GeometryError::EmptyGrid))
        ));
    }
}
