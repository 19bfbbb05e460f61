//! Unified error type for the `stochcdr` crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CdrError>;

/// Error raised during CDR model construction or analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum CdrError {
    /// A configuration parameter was invalid or inconsistent.
    Config(String),
    /// The noise layer rejected a specification.
    Noise(stochcdr_noise::NoiseError),
    /// FSM-network assembly failed.
    Fsm(stochcdr_fsm::FsmError),
    /// Markov-chain analysis failed.
    Markov(stochcdr_markov::MarkovError),
    /// The stationary cycle-slip rate is exactly zero: the chain never
    /// slips, so the mean time between slips is infinite.
    ZeroSlipRate,
}

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdrError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CdrError::Noise(e) => write!(f, "noise model error: {e}"),
            CdrError::Fsm(e) => write!(f, "FSM network error: {e}"),
            CdrError::Markov(e) => write!(f, "Markov analysis error: {e}"),
            CdrError::ZeroSlipRate => write!(
                f,
                "stationary slip rate is zero; the configured noise cannot produce slips"
            ),
        }
    }
}

impl std::error::Error for CdrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CdrError::Config(_) | CdrError::ZeroSlipRate => None,
            CdrError::Noise(e) => Some(e),
            CdrError::Fsm(e) => Some(e),
            CdrError::Markov(e) => Some(e),
        }
    }
}

impl From<stochcdr_noise::NoiseError> for CdrError {
    fn from(e: stochcdr_noise::NoiseError) -> Self {
        CdrError::Noise(e)
    }
}

impl From<stochcdr_fsm::FsmError> for CdrError {
    fn from(e: stochcdr_fsm::FsmError) -> Self {
        CdrError::Fsm(e)
    }
}

impl From<stochcdr_markov::MarkovError> for CdrError {
    fn from(e: stochcdr_markov::MarkovError) -> Self {
        CdrError::Markov(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CdrError::Config("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_none());
        let e: CdrError = stochcdr_noise::NoiseError::InvalidParameter("x".into()).into();
        assert!(e.source().is_some());
    }
}
