//! Error type shared by all linear-algebra operations in this crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Error raised by matrix construction, conversion, or factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// An index exceeded the declared matrix dimensions.
    ///
    /// Carries `(row, col, rows, cols)`.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Number of rows in the matrix.
        rows: usize,
        /// Number of columns in the matrix.
        cols: usize,
    },
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
    /// A value that must be finite was NaN or infinite.
    NonFiniteValue {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {rows}x{cols} matrix"
            ),
            LinalgError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            LinalgError::SingularMatrix { step, pivot } => write!(
                f,
                "singular matrix: pivot {pivot:e} at elimination step {step}"
            ),
            LinalgError::NonFiniteValue { row, col, value } => {
                write!(f, "non-finite value {value} at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::IndexOutOfBounds {
            row: 5,
            col: 2,
            rows: 3,
            cols: 3,
        };
        assert!(e.to_string().contains("(5, 2)"));
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
