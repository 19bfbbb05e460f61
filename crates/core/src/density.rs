//! Stationary densities of phase quantities — the curves the paper plots.

use stochcdr_noise::DiscreteDist;

/// A probability mass function over signed phase-grid offsets, with the
/// grid step attached so values can be read in UI.
///
/// The paper's Figures 4 and 5 plot exactly two of these per experiment:
/// the stationary density of the phase error `Φ` and of the phase-detector
/// input `Φ + n_w`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiDensity {
    delta_ui: f64,
    /// `(offset, probability)` pairs, ascending by offset.
    bins: Vec<(i32, f64)>,
}

impl PhiDensity {
    /// Builds a density from `(offset, probability)` pairs.
    ///
    /// Pairs are sorted and zero-mass entries dropped; total mass is *not*
    /// renormalized (callers pass genuine marginals that already sum to 1).
    ///
    /// # Panics
    ///
    /// Panics if `delta_ui <= 0` or any probability is negative.
    pub fn from_pairs(delta_ui: f64, pairs: impl IntoIterator<Item = (i32, f64)>) -> Self {
        assert!(delta_ui > 0.0, "grid step must be positive");
        let mut bins: Vec<(i32, f64)> = pairs
            .into_iter()
            .inspect(|&(o, p)| assert!(p >= 0.0 && p.is_finite(), "bad mass {p} at {o}"))
            .filter(|&(_, p)| p > 0.0)
            .collect();
        bins.sort_unstable_by_key(|&(o, _)| o);
        PhiDensity { delta_ui, bins }
    }

    /// Grid step in UI.
    pub fn delta_ui(&self) -> f64 {
        self.delta_ui
    }

    /// `(offset, probability)` pairs, ascending.
    pub fn bins(&self) -> &[(i32, f64)] {
        &self.bins
    }

    /// Total mass (≈ 1 for a marginal).
    pub fn total_mass(&self) -> f64 {
        self.bins.iter().map(|&(_, p)| p).sum()
    }

    /// Mean in UI.
    pub fn mean_ui(&self) -> f64 {
        self.bins
            .iter()
            .map(|&(o, p)| o as f64 * self.delta_ui * p)
            .sum()
    }

    /// Standard deviation in UI.
    pub fn std_ui(&self) -> f64 {
        let m = self.mean_ui();
        let var: f64 = self
            .bins
            .iter()
            .map(|&(o, p)| {
                let x = o as f64 * self.delta_ui;
                (x - m) * (x - m) * p
            })
            .sum();
        var.max(0.0).sqrt()
    }

    /// Convolves with a discrete distribution on the same grid (e.g. the
    /// density of `Φ + n_w` from the marginal of `Φ`).
    pub fn convolve(&self, other: &DiscreteDist) -> PhiDensity {
        let mut acc = std::collections::BTreeMap::<i32, f64>::new();
        for &(o, p) in &self.bins {
            for (k, q) in other.iter() {
                *acc.entry(o + k).or_insert(0.0) += p * q;
            }
        }
        PhiDensity {
            delta_ui: self.delta_ui,
            bins: acc.into_iter().collect(),
        }
    }

    /// Renders the density as a fixed-height ASCII plot (log scale), the
    /// terminal stand-in for the paper's figure panels.
    ///
    /// `floor` is the smallest probability shown (e.g. `1e-15`); values at
    /// or below it map to an empty column.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `height == 0`, or `floor <= 0`.
    pub fn ascii_plot(&self, width: usize, height: usize, floor: f64) -> String {
        assert!(width > 0 && height > 0, "plot dimensions must be positive");
        assert!(floor > 0.0, "floor must be positive");
        if self.bins.is_empty() {
            return String::from("(empty density)");
        }
        let lo = self.bins.first().unwrap().0;
        let hi = self.bins.last().unwrap().0;
        let span = (hi - lo).max(1) as f64;
        // Aggregate bins into `width` columns (max within a column).
        let mut cols = vec![0.0f64; width];
        for &(o, p) in &self.bins {
            let x = (((o - lo) as f64 / span) * (width - 1) as f64).round() as usize;
            cols[x] = cols[x].max(p);
        }
        let top: f64 = cols.iter().fold(floor, |m, &v| m.max(v));
        let log_floor = floor.ln();
        let log_span = (top.ln() - log_floor).max(f64::MIN_POSITIVE);
        let levels: Vec<usize> = cols
            .iter()
            .map(|&p| {
                if p <= floor {
                    0
                } else {
                    (((p.ln() - log_floor) / log_span) * height as f64).ceil() as usize
                }
            })
            .collect();
        let mut out = String::new();
        for row in (1..=height).rev() {
            for &lvl in &levels {
                out.push(if lvl >= row { '#' } else { ' ' });
            }
            out.push('\n');
        }
        // Axis with UI labels at the ends.
        out.push_str(&"-".repeat(width));
        out.push('\n');
        let left = format!("{:+.3}", lo as f64 * self.delta_ui);
        let right = format!("{:+.3} UI", hi as f64 * self.delta_ui);
        let pad = width.saturating_sub(left.len() + right.len());
        out.push_str(&left);
        out.push_str(&" ".repeat(pad));
        out.push_str(&right);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> PhiDensity {
        PhiDensity::from_pairs(0.1, vec![(-1, 0.25), (0, 0.5), (1, 0.25)])
    }

    #[test]
    fn moments() {
        let d = tri();
        assert!((d.total_mass() - 1.0).abs() < 1e-15);
        assert!(d.mean_ui().abs() < 1e-15);
        // Var = 0.5 * (0.1)^2 = 0.005 -> std ~ 0.0707.
        assert!((d.std_ui() - (0.005f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn convolution_spreads() {
        let d = tri();
        let nw = DiscreteDist::two_point(-1, 0.5, 1).unwrap();
        let c = d.convolve(&nw);
        assert!((c.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(c.bins().first().unwrap().0, -2);
        assert_eq!(c.bins().last().unwrap().0, 2);
        // Symmetric input stays symmetric.
        assert!(c.mean_ui().abs() < 1e-15);
    }

    #[test]
    fn zero_mass_bins_dropped() {
        let d = PhiDensity::from_pairs(1.0, vec![(0, 0.0), (1, 1.0)]);
        assert_eq!(d.bins().len(), 1);
    }

    #[test]
    fn ascii_plot_shape() {
        let d = tri();
        let plot = d.ascii_plot(30, 8, 1e-12);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 10); // 8 rows + axis + labels
        assert!(plot.contains('#'));
        assert!(plot.contains("UI"));
    }
}
