//! Jitter specifications and their conversion to discretized noise sources.
//!
//! System specs express jitter as an *eye opening* ("the input data jitter
//! is specified by eye opening, usually defined as uncorrelated timing
//! jitter from a bit to the next") and a worst-case *frequency drift*. This
//! module converts those specs into the `n_w` and `n_r` mass functions the
//! Markov model consumes.
//!
//! All amplitudes are in **unit intervals (UI)**: 1 UI = one symbol period.

use crate::discretize::{discretize, DiscreteDist};
use crate::dist::{DualDirac, Shifted, SinusoidalJitter, Triangular, Uniform};

/// Specification of the white data jitter `n_w` (eye opening).
///
/// `n_w` is zero-mean. The random part is Gaussian with `sigma_ui`; an
/// optional deterministic part `dj_ui` (dual-Dirac peak-to-peak) models
/// data-dependent jitter, giving the industry-standard DJ⊕RJ
/// decomposition. `dj_ui = 0` is the pure-Gaussian case.
///
/// # Example
///
/// ```
/// use stochcdr_noise::jitter::WhiteJitterSpec;
///
/// // sigma = 0.0213 UI closes 0.3 UI of the eye at BER 1e-12 (Q ≈ 7.03).
/// let spec = WhiteJitterSpec::from_sigma(0.0213);
/// assert!((spec.total_jitter_at_ber(1e-12) - 0.3).abs() < 1e-3);
/// let pmf = spec.discretize(1.0 / 128.0);
/// assert!((pmf.total_mass() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhiteJitterSpec {
    /// Random-jitter standard deviation in UI.
    pub sigma_ui: f64,
    /// Deterministic (dual-Dirac) jitter in UI, peak-to-peak (0 = none).
    pub dj_ui: f64,
    /// Truncation width in standard deviations when discretizing.
    pub n_sigma: f64,
}

impl WhiteJitterSpec {
    /// Creates a spec from an explicit σ (UI).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ui <= 0`.
    pub fn from_sigma(sigma_ui: f64) -> Self {
        assert!(
            sigma_ui > 0.0 && sigma_ui.is_finite(),
            "sigma must be positive"
        );
        WhiteJitterSpec {
            sigma_ui,
            dj_ui: 0.0,
            n_sigma: 8.0,
        }
    }

    /// Creates a dual-Dirac spec: deterministic jitter `dj_ui`
    /// (peak-to-peak) plus Gaussian random jitter `sigma_ui`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ui <= 0` or `dj_ui < 0`.
    pub fn from_dual_dirac(dj_ui: f64, sigma_ui: f64) -> Self {
        assert!(
            sigma_ui > 0.0 && sigma_ui.is_finite(),
            "sigma must be positive"
        );
        assert!(dj_ui >= 0.0 && dj_ui.is_finite(), "DJ must be non-negative");
        WhiteJitterSpec {
            sigma_ui,
            dj_ui,
            n_sigma: 8.0,
        }
    }

    /// The continuous distribution of `n_w` (a [`DualDirac`], which with
    /// `dj_ui = 0` is exactly the Gaussian).
    pub fn distribution(&self) -> DualDirac {
        DualDirac::new(self.dj_ui, self.sigma_ui)
    }

    /// Datasheet total jitter at a BER: `TJ = DJ + 2 Q(BER) σ`.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `(0, 0.5)`.
    pub fn total_jitter_at_ber(&self, ber: f64) -> f64 {
        self.distribution().total_jitter_at_ber(ber)
    }

    /// Discretizes `n_w` onto a grid with step `delta_ui`.
    pub fn discretize(&self, delta_ui: f64) -> DiscreteDist {
        let g = self.distribution();
        let half = (self.n_sigma * self.sigma_ui + self.dj_ui / 2.0).max(delta_ui);
        discretize(&g, delta_ui, -half, half)
    }
}

/// Shape of the bounded random part of the drift source `n_r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftShape {
    /// Uniform over `[−max_dev, +max_dev]`.
    Uniform,
    /// Triangular peaked at zero over `[−max_dev, +max_dev]`.
    Triangular,
    /// Arcsine distribution of a sinusoid of amplitude `max_dev`
    /// (models sinusoidal interference jitter).
    Sinusoidal,
}

/// Specification of the drift jitter `n_r`: a deterministic per-symbol mean
/// (frequency offset between data and local clock) plus a bounded,
/// zero-mean random part.
///
/// # Example
///
/// ```
/// use stochcdr_noise::jitter::{DriftJitterSpec, DriftShape};
///
/// // 100 ppm frequency offset with 4e-3 UI of triangular interference.
/// let spec = DriftJitterSpec::from_frequency_offset_ppm(100.0, 4e-3, DriftShape::Triangular);
/// let pmf = spec.discretize(1.0 / 256.0);
/// // The discretized mean preserves the drift exactly.
/// assert!((pmf.mean_offset() / 256.0 - 1e-4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftJitterSpec {
    /// Deterministic drift per symbol, UI (sign = direction).
    pub mean_ui: f64,
    /// Maximum deviation of the random part, UI.
    pub max_dev_ui: f64,
    /// Density shape of the random part.
    pub shape: DriftShape,
}

impl DriftJitterSpec {
    /// Creates a drift spec.
    ///
    /// # Panics
    ///
    /// Panics if `max_dev_ui < 0` or parameters are non-finite.
    pub fn new(mean_ui: f64, max_dev_ui: f64, shape: DriftShape) -> Self {
        assert!(
            mean_ui.is_finite() && max_dev_ui.is_finite(),
            "parameters must be finite"
        );
        assert!(max_dev_ui >= 0.0, "max deviation must be non-negative");
        DriftJitterSpec {
            mean_ui,
            max_dev_ui,
            shape,
        }
    }

    /// Creates a spec from a fractional frequency offset (ppm):
    /// a `f_ppm` offset slips `f_ppm · 1e-6` UI per symbol.
    pub fn from_frequency_offset_ppm(f_ppm: f64, max_dev_ui: f64, shape: DriftShape) -> Self {
        Self::new(f_ppm * 1e-6, max_dev_ui, shape)
    }

    /// Largest magnitude `n_r` can take (mean plus worst-case deviation).
    pub fn max_abs_ui(&self) -> f64 {
        self.mean_ui.abs() + self.max_dev_ui
    }

    /// Discretizes `n_r` onto a grid with step `delta_ui`.
    ///
    /// The returned mass function has mean `≈ mean_ui / delta_ui` grid
    /// units. When the spec is smaller than half a grid step in every
    /// direction, the result degenerates to a point mass at the rounded
    /// mean — the paper's warning that the grid "needs to be fine enough to
    /// accurately capture the small jumps in phase error due to n_r" is
    /// checked by [`resolves_grid`](Self::resolves_grid).
    pub fn discretize(&self, delta_ui: f64) -> DiscreteDist {
        if self.max_dev_ui == 0.0 {
            // Pure deterministic drift: spread the mean over the two
            // adjacent grid points to preserve it in expectation.
            return spread_mean(self.mean_ui / delta_ui);
        }
        let lo = self.mean_ui - self.max_dev_ui;
        let hi = self.mean_ui + self.max_dev_ui;
        let d: DiscreteDist = match self.shape {
            DriftShape::Uniform => {
                let u = Shifted::new(
                    Uniform::new(-self.max_dev_ui, self.max_dev_ui),
                    self.mean_ui,
                );
                discretize(&u, delta_ui, lo, hi)
            }
            DriftShape::Triangular => {
                let t = Triangular::new(lo, self.mean_ui, hi);
                discretize(&t, delta_ui, lo, hi)
            }
            DriftShape::Sinusoidal => {
                let s = Shifted::new(SinusoidalJitter::new(self.max_dev_ui), self.mean_ui);
                discretize(&s, delta_ui, lo, hi)
            }
        };
        correct_mean(d, self.mean_ui / delta_ui)
    }

    /// `true` if the grid step resolves this drift source: the grid must be
    /// no coarser than the total drift span, otherwise the discretized
    /// `n_r` cannot move the phase at all.
    pub fn resolves_grid(&self, delta_ui: f64) -> bool {
        self.max_abs_ui() >= 0.5 * delta_ui
    }
}

/// Point-ish distribution with non-integer mean `m` (grid units): mass split
/// between `floor(m)` and `ceil(m)` so the expectation is exactly `m`.
fn spread_mean(m: f64) -> DiscreteDist {
    let lo = m.floor();
    let frac = m - lo;
    if frac == 0.0 {
        DiscreteDist::point(lo as i32)
    } else {
        DiscreteDist::two_point(lo as i32, 1.0 - frac, lo as i32 + 1)
            .expect("fraction in [0,1] by construction")
    }
}

/// Adjusts a discretized pmf so its mean equals `target` (grid units) by
/// convolving-in a tiny two-point correction; keeps sub-grid drift rates
/// exact, which matters because the drift accumulates over millions of
/// symbols.
fn correct_mean(d: DiscreteDist, target: f64) -> DiscreteDist {
    let err = target - d.mean_offset();
    if err.abs() < 1e-12 {
        return d;
    }
    d.convolve(&spread_mean(err))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn white_jitter_discretizes_symmetric() {
        let w = WhiteJitterSpec::from_sigma(0.02);
        let d = w.discretize(1.0 / 128.0);
        assert!(d.mean_offset().abs() < 1e-9);
        assert_eq!(d.min_offset(), -d.max_offset());
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dual_dirac_spec_widens_the_pmf() {
        let delta = 1.0 / 128.0;
        let rj_only = WhiteJitterSpec::from_sigma(0.01).discretize(delta);
        let with_dj = WhiteJitterSpec::from_dual_dirac(0.1, 0.01).discretize(delta);
        assert!(with_dj.max_offset() > rj_only.max_offset());
        assert!(with_dj.variance_offset() > rj_only.variance_offset());
        // Still symmetric and zero-mean.
        assert!(with_dj.mean_offset().abs() < 1e-9);
        // TJ formula plumbing.
        let spec = WhiteJitterSpec::from_dual_dirac(0.1, 0.01);
        assert!((spec.total_jitter_at_ber(1e-12) - (0.1 + 2.0 * 7.0345 * 0.01)).abs() < 1e-3);
    }

    #[test]
    fn drift_spec_mean_preserved_exactly() {
        let delta = 1.0 / 64.0;
        for shape in [
            DriftShape::Uniform,
            DriftShape::Triangular,
            DriftShape::Sinusoidal,
        ] {
            let s = DriftJitterSpec::new(2.3e-4, 5e-3, shape);
            let d = s.discretize(delta);
            let mean_ui = d.mean_offset() * delta;
            assert!(
                (mean_ui - 2.3e-4).abs() < 1e-9,
                "{shape:?}: mean {mean_ui} vs 2.3e-4"
            );
        }
    }

    #[test]
    fn pure_deterministic_drift() {
        let delta = 0.01;
        let s = DriftJitterSpec::new(0.004, 0.0, DriftShape::Uniform);
        let d = s.discretize(delta);
        assert_eq!(d.support_len(), 2);
        assert!((d.mean_offset() * delta - 0.004).abs() < 1e-12);
    }

    #[test]
    fn integer_grid_drift_is_point() {
        let s = DriftJitterSpec::new(0.02, 0.0, DriftShape::Uniform);
        let d = s.discretize(0.01);
        assert_eq!(d.support_len(), 1);
        assert_eq!(d.min_offset(), 2);
    }

    #[test]
    fn ppm_conversion() {
        let s = DriftJitterSpec::from_frequency_offset_ppm(100.0, 0.0, DriftShape::Uniform);
        assert!((s.mean_ui - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn grid_resolution_check() {
        let s = DriftJitterSpec::new(1e-4, 4e-3, DriftShape::Uniform);
        assert!(s.resolves_grid(1.0 / 256.0)); // δ≈3.9e-3, span 4.1e-3
        assert!(!s.resolves_grid(1.0 / 64.0)); // δ≈1.6e-2 too coarse
    }

    #[test]
    fn max_abs_combines_parts() {
        let s = DriftJitterSpec::new(-1e-3, 2e-3, DriftShape::Triangular);
        assert!((s.max_abs_ui() - 3e-3).abs() < 1e-15);
    }
}
