//! Sample statistics, the seeded generator and the distribution checksum.

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartiles by the "exclusive" rule of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads printed here match the
/// ones a reader recomputes from the raw samples. `None` below two
/// samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let len = s.len() as i64;
    if len < 2 {
        return None;
    }
    // Python's integer arithmetic verbatim, including its linear
    // extrapolation past the sample ends for tiny counts.
    let (m, n) = (len + 1, 4i64);
    let at = |i: i64| {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        (lo * (n - delta) as f64 + hi * delta as f64) / n as f64
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median. Zero below two samples
/// (a single sample carries no spread information).
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => (q3 - q1) / median(xs).abs(),
        None => 0.0,
    }
}

/// The highest percentile of the ladder 50/90/99/99.9 that still has at
/// least ten samples beyond it, with its value — the tail statistic that
/// `n` samples can support. `None` below 20 samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    // Nearest rank in exact integer arithmetic: the smallest sample with
    // at least p‰ of the samples at or below it.
    let (permille, rank) = [999, 990, 900, 500]
        .into_iter()
        .map(|p| (p, (p * n).div_ceil(1000)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)?;
    Some((permille as f64 / 10.0, sorted(xs)[rank - 1]))
}

/// SplitMix64: the seed expander behind every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// FNV-1a over the distribution's f64 bit patterns, one 64-bit word per
/// entry — the same fold `stochcdr scale` prints as "distribution fnv1a",
/// so the two can be compared directly.
pub fn checksum(pi: &[f64]) -> u64 {
    pi.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // exclusive rule extrapolates past the sample ends.
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        let beyond = xs.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, 10);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn splitmix_is_deterministic_and_symmetric_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = a.symmetric();
            assert_eq!(x.to_bits(), b.symmetric().to_bits());
            assert!((-1.0..1.0).contains(&x));
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn checksum_sees_every_bit() {
        let pi = [0.25, 0.75];
        assert_eq!(checksum(&pi), checksum(&[0.25, 0.75]));
        assert_ne!(checksum(&pi), checksum(&[0.75, 0.25]));
        assert_ne!(
            checksum(&pi),
            checksum(&[0.25, f64::from_bits(0.75f64.to_bits() + 1)])
        );
    }
}
