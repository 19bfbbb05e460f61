//! Error type for FSM-network construction.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, FsmError>;

/// Error raised while assembling an FSM network or its Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub enum FsmError {
    /// A probability was negative, non-finite, or a pmf did not sum to one.
    InvalidProbability(String),
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::InvalidProbability(msg) => write!(f, "invalid probability: {msg}"),
        }
    }
}

impl std::error::Error for FsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FsmError::InvalidProbability("row 9 sums to 0.5, expected 1".into());
        assert!(e.to_string().contains("row 9"));
    }
}
