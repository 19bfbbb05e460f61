//! Log-binned histograms for hot repeated measurements.
//!
//! A [`LogHist`] buckets positive values into quarter-octave bins
//! (`floor(log2(v) · 4)`), giving ~19% relative resolution over the whole
//! `f64` range with a handful of `u64` counters — the right shape for
//! per-cycle residual-reduction factors, SpMV latencies, and shard
//! throughputs, where a last-write-wins gauge loses the distribution.
//!
//! Zero, negative, and non-finite observations land in a dedicated
//! `other` bucket so bin arithmetic never sees them; quantile estimation
//! orders that bucket below every positive bin.

use std::collections::BTreeMap;

/// Bins per factor-of-two of value range (quarter-octave resolution).
pub const BINS_PER_OCTAVE: f64 = 4.0;

/// A sparse log₂-binned histogram with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHist {
    count: u64,
    other: u64,
    sum: f64,
    min: f64,
    max: f64,
    bins: BTreeMap<i32, u64>,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHist {
            count: 0,
            other: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: BTreeMap::new(),
        }
    }

    /// Bin index for a positive finite value: `floor(log2(v) · 4)`.
    ///
    /// Subnormals map to deeply negative indices (down to ~−4296) and the
    /// largest finite doubles to ~+4095; both fit an `i32` comfortably.
    pub fn bin_of(v: f64) -> i32 {
        debug_assert!(v > 0.0 && v.is_finite());
        (v.log2() * BINS_PER_OCTAVE).floor() as i32
    }

    /// Geometric midpoint of bin `k` — the representative value reported
    /// for observations that landed in it.
    pub fn bin_value(k: i32) -> f64 {
        ((k as f64 + 0.5) / BINS_PER_OCTAVE).exp2()
    }

    /// Records one observation.
    ///
    /// Positive finite values are binned; zero, negative, and non-finite
    /// values count toward [`LogHist::other`] (and the total) but stay out
    /// of the bins. Finite values also update the exact sum/min/max.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        if v > 0.0 && v.is_finite() {
            *self.bins.entry(Self::bin_of(v)).or_insert(0) += 1;
        } else {
            self.other += 1;
        }
    }

    /// Total observations, including the `other` bucket.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations that were zero, negative, or non-finite.
    pub fn other(&self) -> u64 {
        self.other
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.min.is_finite() {
            self.min
        } else {
            0.0
        }
    }

    /// Largest finite observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Mean of finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// The `other` bucket sorts below every positive bin and reports the
    /// exact minimum; positive bins report their geometric midpoint,
    /// clamped into the observed `[min, max]` so the estimate never
    /// strays outside the data.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if target >= self.count {
            // p100 is exact: the tracked maximum, not a bin midpoint.
            return self.max();
        }
        let mut cum = self.other;
        if cum >= target {
            return self.min().min(0.0);
        }
        for (&k, &c) in &self.bins {
            cum += c;
            if cum >= target {
                return Self::bin_value(k).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Iterates `(bin index, count)` in ascending bin order.
    pub fn bins(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.bins.iter().map(|(&k, &c)| (k, c))
    }

    /// Reconstructs a histogram from serialized parts (artifact loading).
    pub fn from_parts(
        count: u64,
        other: u64,
        sum: f64,
        min: f64,
        max: f64,
        bins: BTreeMap<i32, u64>,
    ) -> Self {
        LogHist {
            count,
            other,
            sum,
            min: if count > 0 { min } else { f64::INFINITY },
            max: if count > 0 { max } else { f64::NEG_INFINITY },
            bins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_quarter_octaves() {
        assert_eq!(LogHist::bin_of(1.0), 0);
        assert_eq!(LogHist::bin_of(2.0), 4);
        assert_eq!(LogHist::bin_of(0.5), -4);
        // Representative value sits inside its own bin.
        for v in [1.0, 3.7, 1e-9, 2.5e11] {
            let k = LogHist::bin_of(v);
            assert_eq!(LogHist::bin_of(LogHist::bin_value(k)), k, "v={v}");
        }
    }

    #[test]
    fn edge_values_are_safe() {
        let mut h = LogHist::new();
        h.observe(0.0); // zero -> other
        h.observe(-3.0); // negative -> other
        h.observe(f64::NAN); // non-finite -> other
        h.observe(f64::INFINITY); // non-finite -> other
        h.observe(5e-324); // smallest subnormal
        h.observe(f64::MAX); // largest finite
        assert_eq!(h.count(), 6);
        assert_eq!(h.other(), 4);
        assert_eq!(h.bins().count(), 2);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), f64::MAX);
        // Quantiles stay within the observed range.
        assert!(h.quantile(1.0) <= f64::MAX);
        assert!(h.quantile(0.0) <= 0.0);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = LogHist::new();
        for i in 1..=1000u64 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        // Quarter-octave bins are ~19% wide; allow a generous band.
        assert!((300.0..=800.0).contains(&p50), "p50={p50}");
        assert!((700.0..=1000.0).contains(&p95), "p95={p95}");
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.quantile(1.0), 1000.0);
    }
}
