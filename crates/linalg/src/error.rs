//! Error type for linear-algebra operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// The system matrix is singular (or numerically indistinguishable
    /// from singular) and cannot be solved.
    Singular,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        assert_eq!(LinalgError::Singular.to_string(), "matrix is singular");
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<LinalgError>();
    }
}
