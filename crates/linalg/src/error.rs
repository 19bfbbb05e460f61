//! Error type shared by all linear-algebra operations in this crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Error raised by matrix construction, conversion, or factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ///
    /// Carries a human-readable description of the mismatch.
    ShapeMismatch(String),
    /// A pivot smaller than the given tolerance was encountered during
    /// factorization; the matrix is singular to working precision.
    SingularMatrix {
        /// Elimination step at which the zero pivot appeared.
        step: usize,
        /// Magnitude of the offending pivot.
        pivot: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            LinalgError::SingularMatrix { step, pivot } => write!(
                f,
                "singular matrix: pivot {pivot:e} at elimination step {step}"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::SingularMatrix {
            step: 1,
            pivot: 0.0,
        };
        assert!(e.to_string().contains("singular"));
        let e = LinalgError::ShapeMismatch("2x2 vs 3x3".into());
        assert!(e.to_string().contains("2x2 vs 3x3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
