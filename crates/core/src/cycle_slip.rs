//! Cycle-slip analysis.
//!
//! "Another measure of performance for CDR circuits is the average time
//! between cycle slips. This translates into the computation of mean
//! transition times between certain sets of MC states ... It involves
//! solving a linear system with the (modified) TPM."
//!
//! Two complementary estimators:
//!
//! * [`mean_time_between_slips`] — the exact stationary slip rate: every
//!   state's one-step phase-wrap probability is known from model assembly,
//!   so `MTBS = 1 / Σ_i η_i · P(wrap | i)` with no extra linear solve.
//! * [`mean_time_to_first_slip`] — the paper's modified-TPM computation:
//!   mean first-passage time from the locked state to the slip boundary,
//!   solved as `(I − Q) t = 1`.

use stochcdr_markov::passage::{mean_hitting_times, mean_hitting_times_direct, PassageOptions};

use crate::{CdrChain, CdrError, Result};

/// Mean time between cycle slips (in symbol intervals) under stationary
/// operation: the reciprocal of the stationary phase-wrap rate.
///
/// # Example
///
/// ```
/// use stochcdr::cycle_slip::mean_time_between_slips;
/// use stochcdr::{CdrConfig, CdrModel, SolverChoice};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = CdrConfig::builder()
///     .phases(8).grid_refinement(2).counter_len(4)
///     .white_sigma_ui(0.08).drift(1e-2, 6e-2).build()?;
/// let chain = CdrModel::new(config).build_chain()?;
/// let a = chain.analyze(SolverChoice::Multigrid)?;
/// let mtbs = mean_time_between_slips(&chain, &a.stationary)?;
/// assert!(mtbs > 1.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`CdrError::Config`] if `eta` has the wrong length, and
/// [`CdrError::ZeroSlipRate`] if the slip rate is exactly zero (no slip is
/// reachable — infinite MTBS is reported as an error rather than `inf` so
/// callers must handle it).
pub fn mean_time_between_slips(chain: &CdrChain, eta: &[f64]) -> Result<f64> {
    if eta.len() != chain.state_count() {
        return Err(CdrError::Config(format!(
            "stationary vector length {} != state count {}",
            eta.len(),
            chain.state_count()
        )));
    }
    let rate: f64 = eta
        .iter()
        .zip(chain.wrap_prob())
        .map(|(&e, &w)| e * w)
        .sum();
    if rate <= 0.0 {
        return Err(CdrError::ZeroSlipRate);
    }
    Ok(1.0 / rate)
}

/// The slip-boundary state set: every joint state whose phase bin lies
/// within `margin_bins` of the ±UI/2 wrap boundary.
pub fn boundary_states(chain: &CdrChain, margin_bins: usize) -> Vec<usize> {
    let m = chain.config().m_bins();
    let half = (m / 2) as i64;
    let margin = margin_bins as i64;
    (0..chain.state_count())
        .filter(|&s| {
            let o = chain.phase_offset_of(s);
            o < -half + margin || o >= half - margin
        })
        .collect()
}

/// Mean number of symbols until the phase first reaches the slip boundary,
/// starting from the locked state — the paper's "mean transition times
/// between certain sets of MC states" via the modified-TPM linear system.
///
/// `margin_bins` widens the boundary set (states within `margin` bins of
/// ±UI/2 count as slipped); 1 targets exactly the outermost bins.
///
/// Solver selection: slips are rare events, so the Gauss–Seidel iteration
/// on `(I − Q) t = 1` converges at rate `1 − 1/E[T]` — unusable once
/// `E[T]` is large. Chains with at most [`DIRECT_STATE_CAP`] states are
/// therefore solved with the exact dense LU path
/// ([`mean_hitting_times_direct`]); larger chains fall back to the
/// iterative solver, which is only adequate at *high*-noise operating
/// points where slips are frequent.
///
/// # Errors
///
/// * [`CdrError::Config`] if the margin covers the locked state,
/// * passage-solver errors (unreachable boundary, non-convergence).
pub fn mean_time_to_first_slip(chain: &CdrChain, margin_bins: usize) -> Result<f64> {
    let target = boundary_states(chain, margin_bins.max(1));
    let locked = chain.locked_state();
    if target.contains(&locked) {
        return Err(CdrError::Config(format!(
            "margin of {margin_bins} bins covers the locked state"
        )));
    }
    let times = if chain.state_count() <= DIRECT_STATE_CAP {
        mean_hitting_times_direct(chain.tpm(), &target)?
    } else {
        mean_hitting_times(chain.tpm(), &target, &PassageOptions::default())?
    };
    Ok(times[locked])
}

/// Largest chain solved with the dense direct first-passage path.
pub const DIRECT_STATE_CAP: usize = 2048;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdrConfig, CdrModel, SolverChoice};

    fn chain(sigma: f64) -> CdrChain {
        let config = CdrConfig::builder()
            .phases(8)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(sigma)
            .drift(1e-2, 6e-2)
            .build()
            .unwrap();
        CdrModel::new(config).build_chain().unwrap()
    }

    #[test]
    fn mtbs_positive_and_reasonable() {
        let c = chain(0.06);
        let a = c.analyze(SolverChoice::Multigrid).unwrap();
        let mtbs = mean_time_between_slips(&c, &a.stationary).unwrap();
        assert!(mtbs > 1.0, "MTBS {mtbs}");
        assert!(mtbs.is_finite());
    }

    #[test]
    fn more_noise_slips_sooner() {
        let quiet = chain(0.04);
        let loud = chain(0.12);
        let aq = quiet.analyze(SolverChoice::Multigrid).unwrap();
        let al = loud.analyze(SolverChoice::Multigrid).unwrap();
        let mq = mean_time_between_slips(&quiet, &aq.stationary).unwrap();
        let ml = mean_time_between_slips(&loud, &al.stationary).unwrap();
        assert!(mq > ml, "quiet {mq} should out-last loud {ml}");
    }

    #[test]
    fn boundary_set_geometry() {
        let c = chain(0.06);
        let b = boundary_states(&c, 1);
        // Margin 1: offsets -4 (bin 0) and +3 (bin 7) on the m=16 grid...
        let m = c.config().m_bins();
        for &s in &b {
            let o = c.phase_offset_of(s);
            assert!(o == -(m as i64 / 2) || o == m as i64 / 2 - 1);
        }
        // Exactly 2 bins x data x counter states.
        assert_eq!(
            b.len(),
            2 * c.config().data_model.state_count() * c.config().filter_states()
        );
    }

    #[test]
    fn first_slip_time_exceeds_zero_and_margin_checked() {
        let c = chain(0.08);
        let t = mean_time_to_first_slip(&c, 1).unwrap();
        assert!(t > 1.0, "first-slip time {t}");
        // A margin covering the center is rejected.
        assert!(mean_time_to_first_slip(&c, c.config().half_ui_bins()).is_err());
    }

    #[test]
    fn estimators_are_same_order_of_magnitude() {
        // MTBS (stationary rate) and first-passage from lock measure
        // different but related quantities; for a well-locked loop they
        // agree within an order of magnitude.
        let c = chain(0.1);
        let a = c.analyze(SolverChoice::Multigrid).unwrap();
        let mtbs = mean_time_between_slips(&c, &a.stationary).unwrap();
        let first = mean_time_to_first_slip(&c, 1).unwrap();
        let ratio = mtbs / first;
        assert!(ratio > 0.05 && ratio < 20.0, "mtbs {mtbs} vs first {first}");
    }

    #[test]
    fn wrong_eta_length_rejected() {
        let c = chain(0.06);
        assert!(mean_time_between_slips(&c, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn zero_slip_rate_has_its_own_error() {
        // All mass on a state that cannot wrap in one step.
        let c = chain(0.06);
        let safe = c.wrap_prob().iter().position(|&w| w == 0.0).unwrap();
        let mut eta = vec![0.0; c.state_count()];
        eta[safe] = 1.0;
        assert_eq!(
            mean_time_between_slips(&c, &eta),
            Err(CdrError::ZeroSlipRate)
        );
    }
}
