//! Grid discretization of noise distributions.
//!
//! "One way to analyze the system ... is using the machinery of
//! discrete-time Markov chains, which requires that we discretize the phase
//! error and also the noise sources to obtain a discrete state-space."
//! A [`DiscreteDist`] is a probability mass function over *integer grid
//! offsets*: offset `k` means a jitter amplitude of `k · δ` where `δ` is the
//! phase-error grid step.

use crate::dist::Distribution;
use crate::{NoiseError, Result};
use stochcdr_obs as obs;

/// A finite probability mass function over integer grid offsets.
///
/// Offsets are expressed in units of the phase-error grid step `δ`; the
/// support is contiguous `[min_offset, max_offset]` with possibly-zero
/// entries stored explicitly (they are pruned at construction).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    offsets: Vec<i32>,
    probs: Vec<f64>,
}

impl DiscreteDist {
    /// Builds a distribution from `(offset, probability)` pairs.
    ///
    /// Pairs may be unordered; duplicate offsets are summed; zero-mass
    /// entries are dropped; the result is normalized to total mass one.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidPmf`] if the support is empty after
    /// pruning, any mass is negative/non-finite, or the total mass is zero.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (i32, f64)>) -> Result<Self> {
        let mut map = std::collections::BTreeMap::<i32, f64>::new();
        for (k, p) in pairs {
            if !p.is_finite() || p < 0.0 {
                return Err(NoiseError::InvalidPmf(format!("mass {p} at offset {k}")));
            }
            if p > 0.0 {
                *map.entry(k).or_insert(0.0) += p;
            }
        }
        if map.is_empty() {
            return Err(NoiseError::InvalidPmf("empty support".into()));
        }
        let total: f64 = map.values().sum();
        if total <= 0.0 {
            return Err(NoiseError::InvalidPmf("zero total mass".into()));
        }
        let (offsets, probs): (Vec<i32>, Vec<f64>) =
            map.into_iter().map(|(k, p)| (k, p / total)).unzip();
        Ok(DiscreteDist { offsets, probs })
    }

    /// The deterministic distribution concentrated at one offset.
    pub fn point(offset: i32) -> Self {
        DiscreteDist {
            offsets: vec![offset],
            probs: vec![1.0],
        }
    }

    /// A two-point distribution: `P(a) = pa`, `P(b) = 1 − pa`.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidPmf`] if `pa ∉ [0, 1]` or `a == b` with
    /// degenerate mass handled as a point mass.
    pub fn two_point(a: i32, pa: f64, b: i32) -> Result<Self> {
        if !(0.0..=1.0).contains(&pa) {
            return Err(NoiseError::InvalidPmf(format!("pa = {pa} outside [0,1]")));
        }
        Self::from_pairs([(a, pa), (b, 1.0 - pa)])
    }

    /// Support/probability pairs, ascending by offset.
    pub fn iter(&self) -> impl Iterator<Item = (i32, f64)> + '_ {
        self.offsets.iter().copied().zip(self.probs.iter().copied())
    }

    /// Number of support points.
    pub fn support_len(&self) -> usize {
        self.offsets.len()
    }

    /// Smallest offset with positive mass.
    pub fn min_offset(&self) -> i32 {
        self.offsets[0]
    }

    /// Largest offset with positive mass.
    pub fn max_offset(&self) -> i32 {
        *self.offsets.last().expect("non-empty by construction")
    }

    /// Total mass (should be 1 up to round-off; exposed for validation).
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Mean offset in grid units.
    pub fn mean_offset(&self) -> f64 {
        self.iter().map(|(k, p)| k as f64 * p).sum()
    }

    /// Variance in grid units squared.
    pub fn variance_offset(&self) -> f64 {
        let m = self.mean_offset();
        self.iter().map(|(k, p)| (k as f64 - m).powi(2) * p).sum()
    }

    /// Probability mass at a given offset (zero if outside the support).
    pub fn prob(&self, offset: i32) -> f64 {
        match self.offsets.binary_search(&offset) {
            Ok(i) => self.probs[i],
            Err(_) => 0.0,
        }
    }

    /// `P(X > k)`.
    pub fn prob_gt(&self, k: i32) -> f64 {
        self.iter().filter(|&(o, _)| o > k).map(|(_, p)| p).sum()
    }

    /// `P(X < k)`.
    pub fn prob_lt(&self, k: i32) -> f64 {
        self.iter().filter(|&(o, _)| o < k).map(|(_, p)| p).sum()
    }

    /// Convolution with another discrete distribution (sum of independent
    /// variables).
    pub fn convolve(&self, other: &DiscreteDist) -> DiscreteDist {
        let mut pairs = std::collections::BTreeMap::<i32, f64>::new();
        for (a, pa) in self.iter() {
            for (b, pb) in other.iter() {
                *pairs.entry(a + b).or_insert(0.0) += pa * pb;
            }
        }
        let (offsets, probs) = pairs.into_iter().unzip();
        DiscreteDist { offsets, probs }
    }
}

/// Discretizes a continuous distribution onto the grid `… −δ, 0, +δ …`,
/// truncated to `[lo, hi]` (in the same physical units as the
/// distribution, typically UI).
///
/// Bin `k` receives the probability of `((k−½)δ, (k+½)δ]`; the truncated
/// tail mass below `lo` (above `hi`) is folded into the first (last) bin so
/// no probability is lost. This preserves total mass exactly and the mean
/// to `O(δ²)` for symmetric densities.
///
/// # Panics
///
/// Panics if `delta <= 0` or `lo >= hi`.
pub fn discretize(dist: &dyn Distribution, delta: f64, lo: f64, hi: f64) -> DiscreteDist {
    assert!(
        delta > 0.0 && delta.is_finite(),
        "grid step must be positive"
    );
    assert!(lo < hi, "truncation range must be non-empty");
    let k_lo = (lo / delta).round() as i64;
    let k_hi = (hi / delta).round() as i64;
    let mut pairs = Vec::with_capacity((k_hi - k_lo + 1) as usize);
    for k in k_lo..=k_hi {
        let left = if k == k_lo {
            f64::NEG_INFINITY
        } else {
            (k as f64 - 0.5) * delta
        };
        let right = if k == k_hi {
            f64::INFINITY
        } else {
            (k as f64 + 0.5) * delta
        };
        let mass = if right.is_infinite() {
            dist.sf(left)
        } else if left.is_infinite() {
            dist.cdf(right)
        } else {
            (dist.cdf(right) - dist.cdf(left)).max(0.0)
        };
        pairs.push((k as i32, mass));
    }
    let d = DiscreteDist::from_pairs(pairs).expect("discretization of a CDF yields a valid pmf");
    obs::event(
        "noise.discretized",
        &[
            ("support", d.support_len().into()),
            ("delta", delta.into()),
            ("mean_offset", d.mean_offset().into()),
        ],
    );
    d
}

/// Discretizes with a symmetric `n_sigma` truncation around the mean.
///
/// Convenience wrapper: the range is `mean ± n_sigma · std`.
///
/// # Panics
///
/// Panics if `delta <= 0` or `n_sigma <= 0` or the distribution has zero
/// variance.
pub fn discretize_sigma(dist: &dyn Distribution, delta: f64, n_sigma: f64) -> DiscreteDist {
    assert!(n_sigma > 0.0, "n_sigma must be positive");
    let std = dist.variance().sqrt();
    assert!(std > 0.0, "distribution must have positive variance");
    let m = dist.mean();
    // Always include at least one bin on each side of the mean.
    let half = (n_sigma * std).max(delta);
    discretize(dist, delta, m - half, m + half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Gaussian, Uniform};

    #[test]
    fn from_pairs_normalizes_and_sorts() {
        let d = DiscreteDist::from_pairs([(2, 1.0), (-1, 1.0), (2, 2.0)]).unwrap();
        assert_eq!(d.support_len(), 2);
        assert_eq!(d.min_offset(), -1);
        assert_eq!(d.max_offset(), 2);
        assert!((d.prob(-1) - 0.25).abs() < 1e-15);
        assert!((d.prob(2) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn invalid_pmfs_rejected() {
        assert!(DiscreteDist::from_pairs([(0, -0.5)]).is_err());
        assert!(DiscreteDist::from_pairs([(0, 0.0)]).is_err());
        assert!(DiscreteDist::from_pairs(std::iter::empty()).is_err());
        assert!(DiscreteDist::two_point(0, 1.5, 1).is_err());
    }

    #[test]
    fn point_mass() {
        let d = DiscreteDist::point(3);
        assert_eq!(d.mean_offset(), 3.0);
        assert_eq!(d.variance_offset(), 0.0);
        assert_eq!(d.prob_gt(2), 1.0);
        assert_eq!(d.prob_gt(3), 0.0);
    }

    #[test]
    fn moments_of_two_point() {
        let d = DiscreteDist::two_point(-1, 0.5, 1).unwrap();
        assert_eq!(d.mean_offset(), 0.0);
        assert_eq!(d.variance_offset(), 1.0);
    }

    #[test]
    fn tails() {
        let d = DiscreteDist::from_pairs([(-2, 0.1), (0, 0.5), (3, 0.4)]).unwrap();
        assert!((d.prob_gt(0) - 0.4).abs() < 1e-15);
        assert!((d.prob_lt(0) - 0.1).abs() < 1e-15);
        assert!((d.prob_gt(-3) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn convolution_matches_manual() {
        let a = DiscreteDist::two_point(0, 0.5, 1).unwrap();
        let c = a.convolve(&a);
        assert!((c.prob(0) - 0.25).abs() < 1e-15);
        assert!((c.prob(1) - 0.5).abs() < 1e-15);
        assert!((c.prob(2) - 0.25).abs() < 1e-15);
        // Mean and variance add.
        assert!((c.mean_offset() - 2.0 * a.mean_offset()).abs() < 1e-12);
        assert!((c.variance_offset() - 2.0 * a.variance_offset()).abs() < 1e-12);
    }

    #[test]
    fn gaussian_discretization_preserves_moments() {
        let g = Gaussian::new(0.0, 0.02);
        let delta = 1.0 / 256.0;
        let d = discretize_sigma(&g, delta, 8.0);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        // Mean in physical units.
        assert!((d.mean_offset() * delta).abs() < 1e-6);
        let var_phys = d.variance_offset() * delta * delta;
        assert!(
            (var_phys / g.variance() - 1.0).abs() < 0.01,
            "variance off: {var_phys} vs {}",
            g.variance()
        );
    }

    #[test]
    fn truncation_folds_tails() {
        let g = Gaussian::new(0.0, 1.0);
        let d = discretize(&g, 1.0, -2.0, 2.0);
        assert_eq!(d.min_offset(), -2);
        assert_eq!(d.max_offset(), 2);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        // Edge bins hold the folded tail: more than the central formula.
        let edge_mass = d.prob(2);
        let interior_formula = g.cdf(2.5) - g.cdf(1.5);
        assert!(edge_mass > interior_formula);
    }

    #[test]
    fn uniform_discretization_is_flat_inside() {
        let u = Uniform::new(-0.05, 0.05);
        let d = discretize(&u, 0.01, -0.05, 0.05);
        // Interior bins all equal.
        let inner: Vec<f64> = d
            .iter()
            .filter(|&(k, _)| k.abs() < 4)
            .map(|(_, p)| p)
            .collect();
        for w in inner.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn nonzero_mean_shifted_source() {
        use crate::dist::Shifted;
        let base = Uniform::new(-0.002, 0.002);
        let d = discretize(&Shifted::new(base, 0.004), 0.001, 0.0, 0.008);
        assert!((d.mean_offset() * 0.001 - 0.004).abs() < 2e-4);
        assert!(d.min_offset() >= 0);
    }
}
