//! Error type for trace generation and loading.

use std::error::Error;
use std::fmt;

/// Errors produced by the trace substrate.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The requested hour is outside the dataset's time range.
    HourOutOfRange {
        /// Requested hour index.
        hour: u32,
        /// Hours available in the dataset.
        available: u32,
    },
    /// The requested region contains no sensor nodes.
    EmptyRegion,
    /// A record failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// An underlying field operation failed.
    Field(cps_field::FieldError),
    /// A smoothing kernel bandwidth was not positive and finite.
    InvalidBandwidth {
        /// The rejected bandwidth, metres.
        bandwidth: f64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::HourOutOfRange { hour, available } => {
                write!(
                    f,
                    "hour {hour} out of range (dataset has {available} hours)"
                )
            }
            TraceError::EmptyRegion => write!(f, "requested region contains no sensor nodes"),
            TraceError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::Json(e) => write!(f, "json error: {e}"),
            TraceError::Field(e) => write!(f, "field error: {e}"),
            TraceError::InvalidBandwidth { bandwidth } => {
                write!(
                    f,
                    "kernel bandwidth must be positive and finite, got {bandwidth}"
                )
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Json(e) => Some(e),
            TraceError::Field(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Json(e)
    }
}

impl From<cps_field::FieldError> for TraceError {
    fn from(e: cps_field::FieldError) -> Self {
        TraceError::Field(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TraceError::HourOutOfRange {
            hour: 30,
            available: 24,
        };
        assert!(e.to_string().contains("hour 30"));
        assert!(TraceError::EmptyRegion.to_string().contains("region"));
        let p = TraceError::Parse {
            line: 3,
            message: "bad float".into(),
        };
        assert!(p.to_string().contains("line 3"));
        let b = TraceError::InvalidBandwidth { bandwidth: -1.0 };
        assert!(b.to_string().contains("-1"));
        assert!(Error::source(&b).is_none());
    }
}
