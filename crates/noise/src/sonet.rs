//! SONET/SDH-flavored system specifications.
//!
//! The paper evaluates its method on a SONET-type application: "The first
//! FSM models the data statistics taken from SONET system specifications"
//! and `n_r`'s density is "chosen to reflect SONET system specifications".
//! Real SONET specs (GR-253, ITU-T G.825) are long documents; this module
//! captures the part the data-source FSM consumes: scrambled-data
//! statistics — a transition density (½ for scrambled data) with a bounded
//! run of consecutive identical digits (CID; receivers are tested with
//! 72-bit CID per GR-253). Clock accuracy and jitter tolerance enter the
//! model as [`crate::jitter`] specs.

use crate::{NoiseError, Result};

/// Statistics of the incoming (scrambled) data stream.
///
/// "The input data stream is usually specified in terms of the longest
/// possible bit sequence with no transitions and a maximal drift in
/// frequency."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSpec {
    /// Probability that consecutive bits differ (½ for scrambled data).
    pub transition_density: f64,
    /// Longest allowed run of identical bits; the source FSM forces a
    /// transition at this length.
    pub max_run_length: usize,
}

impl DataSpec {
    /// Creates a data spec.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidParameter`] unless
    /// `0 < transition_density < 1` and `max_run_length >= 1`.
    pub fn new(transition_density: f64, max_run_length: usize) -> Result<Self> {
        if !(transition_density > 0.0 && transition_density < 1.0) {
            return Err(NoiseError::InvalidParameter(format!(
                "transition density {transition_density} must be in (0, 1)"
            )));
        }
        if max_run_length == 0 {
            return Err(NoiseError::InvalidParameter(
                "max run length must be >= 1".into(),
            ));
        }
        Ok(DataSpec {
            transition_density,
            max_run_length,
        })
    }

    /// Stationary transition density of the run-length-limited source
    /// (slightly above `transition_density` because of the forced
    /// transition at the run bound).
    ///
    /// Derived from the stationary distribution of the run-length counter:
    /// states `0..L-1` with continue-probability `q = 1 − p` and a forced
    /// transition at `L−1`.
    pub fn effective_transition_density(&self) -> f64 {
        let p = self.transition_density;
        let q = 1.0 - p;
        let l = self.max_run_length;
        // Stationary run-position distribution: π_k ∝ q^k for k < L.
        let mut norm = 0.0;
        let mut qs = 1.0;
        for _ in 0..l {
            norm += qs;
            qs *= q;
        }
        // Transition probability from position k is p except at L-1 where 1.
        let mut acc = 0.0;
        let mut qk = 1.0;
        for k in 0..l {
            let pk = qk / norm;
            acc += pk * if k == l - 1 { 1.0 } else { p };
            qk *= q;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_spec_validation() {
        assert!(DataSpec::new(0.0, 4).is_err());
        assert!(DataSpec::new(1.0, 4).is_err());
        assert!(DataSpec::new(0.5, 0).is_err());
        assert!(DataSpec::new(0.5, 4).is_ok());
    }

    #[test]
    fn effective_density_exceeds_nominal() {
        let d = DataSpec::new(0.5, 4).unwrap();
        let eff = d.effective_transition_density();
        assert!(eff > 0.5 && eff < 1.0, "eff = {eff}");
        // With a huge run bound the correction vanishes.
        let d = DataSpec::new(0.5, 60).unwrap();
        assert!((d.effective_transition_density() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn forced_transition_dominates_short_bounds() {
        let d = DataSpec::new(0.1, 2).unwrap();
        // Positions: π ∝ (1, 0.9); transition = (0.1·1 + 1.0·0.9)/1.9.
        let expect = (0.1 + 0.9) / 1.9;
        assert!((d.effective_transition_density() - expect).abs() < 1e-12);
    }
}
