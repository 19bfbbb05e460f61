//! Random sampling from noise models — the Monte-Carlo substrate.
//!
//! The paper's core argument is that Monte-Carlo simulation cannot verify
//! BERs of 1e-10; the workspace still implements MC simulation to
//! cross-validate the analysis at *high* BER operating points. This module
//! provides the sampler: inverse-CDF sampling of a [`DiscreteDist`] with
//! `O(log n)` lookup.

use rand::Rng;

use crate::discretize::DiscreteDist;

/// Pre-processed sampler over a [`DiscreteDist`] using cumulative inversion.
///
/// # Example
///
/// ```
/// use stochcdr_noise::DiscreteDist;
/// use stochcdr_noise::sampling::DiscreteSampler;
/// use rand::SeedableRng;
///
/// let d = DiscreteDist::two_point(-1, 0.5, 1).unwrap();
/// let sampler = DiscreteSampler::new(&d);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = sampler.sample(&mut rng);
/// assert!(x == -1 || x == 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteSampler {
    offsets: Vec<i32>,
    /// Cumulative probabilities; last entry is exactly 1.0.
    cdf: Vec<f64>,
}

impl DiscreteSampler {
    /// Builds a sampler from a discrete distribution.
    pub fn new(dist: &DiscreteDist) -> Self {
        let mut offsets = Vec::with_capacity(dist.support_len());
        let mut cdf = Vec::with_capacity(dist.support_len());
        let mut acc = 0.0;
        for (k, p) in dist.iter() {
            acc += p;
            offsets.push(k);
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0; // absorb round-off so sampling never falls off the end
        }
        DiscreteSampler { offsets, cdf }
    }

    /// Draws one grid offset.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i32 {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        self.offsets[idx.min(self.offsets.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn discrete_sampler_matches_pmf() {
        let d = DiscreteDist::from_pairs([(-2, 0.2), (0, 0.5), (3, 0.3)]).unwrap();
        let s = DiscreteSampler::new(&d);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(s.sample(&mut rng)).or_insert(0usize) += 1;
        }
        for (k, p) in d.iter() {
            let freq = counts[&k] as f64 / n as f64;
            assert!((freq - p).abs() < 0.01, "offset {k}: {freq} vs {p}");
        }
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn point_mass_always_same() {
        let s = DiscreteSampler::new(&DiscreteDist::point(7));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 7);
        }
    }
}
