//! Functionals of functions defined on the chain's state space.
//!
//! The paper's performance measures are all functionals of the stationary
//! distribution: BER is a tail probability of `Φ + n_w`, the plotted curves
//! are marginal densities of functions of the state, and "computation of η
//! is the prerequisite for computing other performance quantities such as
//! the autocorrelation of a function defined on the states of the MC".

use std::collections::BTreeMap;

use crate::{MarkovError, Result, StochasticMatrix};

/// Stationary expectation `E[f(X)] = Σ_i η_i f_i`.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] on length mismatch.
pub fn expectation(eta: &[f64], f: &[f64]) -> Result<f64> {
    check_len(eta, f)?;
    Ok(eta.iter().zip(f).map(|(e, v)| e * v).sum())
}

/// Stationary variance `Var[f(X)]`.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] on length mismatch.
pub fn variance(eta: &[f64], f: &[f64]) -> Result<f64> {
    let m = expectation(eta, f)?;
    let m2: f64 = eta.iter().zip(f).map(|(e, v)| e * v * v).sum();
    Ok((m2 - m * m).max(0.0))
}

/// Marginal distribution of a state labeling: sums `η` over states with the
/// same label and returns `(label, probability)` in ascending label order.
///
/// This is how the phase-error density plots of the paper are produced: the
/// label is the discretized phase-error bin of each joint state.
pub fn marginal<L: Ord + Copy>(eta: &[f64], label: impl Fn(usize) -> L) -> Vec<(L, f64)> {
    let mut acc: BTreeMap<L, f64> = BTreeMap::new();
    for (i, &e) in eta.iter().enumerate() {
        *acc.entry(label(i)).or_insert(0.0) += e;
    }
    acc.into_iter().collect()
}

/// Stationary autocovariance sequence of `f` on the chain:
///
/// ```text
/// C(k) = E[f(X_0) f(X_k)] − E[f]²
///      = Σ_i η_i f_i (P^k f)_i − (Σ_i η_i f_i)²
/// ```
///
/// Returns `C(0), C(1), ..., C(max_lag)`. Cost: `max_lag` sparse
/// matrix-vector products.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] on length mismatches.
pub fn autocovariance(
    p: &StochasticMatrix,
    eta: &[f64],
    f: &[f64],
    max_lag: usize,
) -> Result<Vec<f64>> {
    if eta.len() != p.n() {
        return Err(MarkovError::InvalidArgument("eta length mismatch".into()));
    }
    check_len(eta, f)?;
    let mean = expectation(eta, f)?;
    let mut out = Vec::with_capacity(max_lag + 1);
    // g = P^k f, updated in place.
    let mut g = f.to_vec();
    let mut next = vec![0.0; p.n()];
    for _lag in 0..=max_lag {
        let moment: f64 = eta
            .iter()
            .zip(f)
            .zip(&g)
            .map(|((&e, &fi), &gi)| e * fi * gi)
            .sum();
        out.push(moment - mean * mean);
        p.matrix().mul_right_into(&g, &mut next);
        std::mem::swap(&mut g, &mut next);
    }
    Ok(out)
}

/// Normalized autocorrelation `ρ(k) = C(k) / C(0)`.
///
/// Returns all-zero (after lag 0) when `C(0) = 0` (constant function).
///
/// # Errors
///
/// Propagates [`autocovariance`] errors.
pub fn autocorrelation(
    p: &StochasticMatrix,
    eta: &[f64],
    f: &[f64],
    max_lag: usize,
) -> Result<Vec<f64>> {
    let c = autocovariance(p, eta, f, max_lag)?;
    let c0 = c[0];
    if c0 <= 0.0 {
        let mut out = vec![0.0; c.len()];
        out[0] = 1.0;
        return Ok(out);
    }
    Ok(c.into_iter().map(|v| v / c0).collect())
}

fn check_len(a: &[f64], b: &[f64]) -> Result<()> {
    if a.len() != b.len() {
        return Err(MarkovError::InvalidArgument(format!(
            "length mismatch: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary::{GthSolver, StationarySolver};
    use stochcdr_linalg::CooMatrix;

    fn two_state(a: f64, b: f64) -> StochasticMatrix {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0 - a);
        coo.push(0, 1, a);
        coo.push(1, 0, b);
        coo.push(1, 1, 1.0 - b);
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn expectation_and_variance() {
        let eta = [0.25, 0.75];
        let f = [0.0, 4.0];
        assert_eq!(expectation(&eta, &f).unwrap(), 3.0);
        // E[f^2] = 12, Var = 12 - 9 = 3.
        assert!((variance(&eta, &f).unwrap() - 3.0).abs() < 1e-12);
        assert!(expectation(&eta, &[1.0]).is_err());
    }

    #[test]
    fn marginal_groups_labels() {
        let eta = [0.1, 0.2, 0.3, 0.4];
        let m = marginal(&eta, |i| i % 2);
        assert_eq!(m.len(), 2);
        assert!((m[0].1 - 0.4).abs() < 1e-15);
        assert!((m[1].1 - 0.6).abs() < 1e-15);
    }

    #[test]
    fn autocovariance_of_two_state_chain() {
        // For the symmetric two-state chain with flip prob a, the
        // autocorrelation of f = (0, 1) is (1-2a)^k.
        let a = 0.3;
        let p = two_state(a, a);
        let eta = GthSolver::new().solve(&p, None).unwrap().distribution;
        let f = [0.0, 1.0];
        let rho = autocorrelation(&p, &eta, &f, 5).unwrap();
        for (k, &r) in rho.iter().enumerate() {
            let expect = (1.0 - 2.0 * a).powi(k as i32);
            assert!((r - expect).abs() < 1e-10, "lag {k}: {r} vs {expect}");
        }
    }

    #[test]
    fn constant_function_has_unit_rho0() {
        let p = two_state(0.5, 0.5);
        let eta = [0.5, 0.5];
        let rho = autocorrelation(&p, &eta, &[3.0, 3.0], 3).unwrap();
        assert_eq!(rho, vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn autocovariance_lag0_is_variance() {
        let p = two_state(0.2, 0.4);
        let eta = GthSolver::new().solve(&p, None).unwrap().distribution;
        let f = [1.0, 5.0];
        let c = autocovariance(&p, &eta, &f, 0).unwrap();
        assert!((c[0] - variance(&eta, &f).unwrap()).abs() < 1e-12);
    }
}
