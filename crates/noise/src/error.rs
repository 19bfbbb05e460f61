//! Error type for noise and jitter modeling.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NoiseError>;

/// Error raised by distribution construction or discretization.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// A distribution parameter was out of its valid domain.
    InvalidParameter(String),
    /// A probability mass function did not sum to one or had negative mass.
    InvalidPmf(String),
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            NoiseError::InvalidPmf(msg) => write!(f, "invalid pmf: {msg}"),
        }
    }
}

impl std::error::Error for NoiseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(NoiseError::InvalidParameter("sigma < 0".into())
            .to_string()
            .contains("sigma"));
    }
}
