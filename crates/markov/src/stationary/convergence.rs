//! Convergence telemetry: per-cycle reduction factors, EWMA, and a
//! stall detector shared by every iterative solver.
//!
//! A [`ConvergenceTrace`] is fed the solver's per-iteration convergence
//! metric (the L1 residual for power/multigrid, the sweep change for
//! Jacobi/Gauss–Seidel) and derives the *reduction factor* between
//! consecutive observations — the quantity the paper's convergence claims
//! are about. It maintains an exponentially-weighted moving average of the
//! reduction and a stall detector that fires once when `window` consecutive
//! reductions sit at or above `threshold` (the iteration is barely
//! contracting, e.g. power iteration on a nearly-completely-decomposable
//! chain whose subdominant eigenvalue is `1 − O(ε)`).
//!
//! The trace is a **pure function of the metric sequence**. Most solvers
//! only report it; the multigrid loop also reads its stall verdict and
//! continues a stalled V-cycle solve on W-cycles. Since the verdict
//! depends on the residual history alone, that feedback keeps solver
//! results bit-identical at any thread count. Its [`ConvergenceSummary`]
//! is attached to [`super::SolveReport`] (and `MultigridStats` in the
//! multigrid crate), and the stall fires an `obs` event so artifacts
//! record *when* a solve went flat, not just that it eventually did or
//! did not converge.

use stochcdr_obs as obs;

/// EWMA smoothing factor for the reduction average (weight of the newest
/// reduction).
const EWMA_ALPHA: f64 = 0.25;
/// Default reduction threshold at/above which a cycle counts as "slow".
pub const DEFAULT_STALL_THRESHOLD: f64 = 0.99;
/// Default number of consecutive slow cycles that constitutes a stall.
pub const DEFAULT_STALL_WINDOW: usize = 10;

/// Streaming recorder for a solver's convergence trajectory.
///
/// Feed it the per-iteration metric with [`observe`](Self::observe); read
/// the result with [`summary`](Self::summary). See the module docs for
/// the semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    stall_event: &'static str,
    threshold: f64,
    window: usize,
    observations: usize,
    reductions: usize,
    prev_metric: Option<f64>,
    last_reduction: Option<f64>,
    ewma: Option<f64>,
    best_reduction: Option<f64>,
    worst_reduction: Option<f64>,
    slow_streak: usize,
    stalled_at: Option<usize>,
}

impl ConvergenceTrace {
    /// Creates a trace with default EWMA/stall parameters. `stall_event`
    /// is the `obs` event name fired (once) when the stall detector trips,
    /// e.g. `"markov.power.stall"`.
    pub fn new(stall_event: &'static str) -> Self {
        ConvergenceTrace {
            stall_event,
            threshold: DEFAULT_STALL_THRESHOLD,
            window: DEFAULT_STALL_WINDOW,
            observations: 0,
            reductions: 0,
            prev_metric: None,
            last_reduction: None,
            ewma: None,
            best_reduction: None,
            worst_reduction: None,
            slow_streak: 0,
            stalled_at: None,
        }
    }

    /// Sets the stall detector: `window` consecutive reductions at or
    /// above `threshold` trip it.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive/finite or `window` is zero.
    #[must_use]
    pub fn with_stall(mut self, threshold: f64, window: usize) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "stall threshold must be positive and finite"
        );
        assert!(window > 0, "stall window must be positive");
        self.threshold = threshold;
        self.window = window;
        self
    }

    /// Records one per-iteration convergence metric and returns the
    /// reduction factor relative to the previous observation (`None` for
    /// the first observation or a non-positive/non-finite predecessor).
    ///
    /// Fires the stall event the first time `window` consecutive
    /// reductions are at or above the threshold.
    pub fn observe(&mut self, metric: f64) -> Option<f64> {
        self.observations += 1;
        let reduction = match self.prev_metric {
            Some(prev) if prev > 0.0 && metric.is_finite() && metric >= 0.0 => Some(metric / prev),
            _ => None,
        };
        self.prev_metric = Some(metric);
        let red = reduction?;
        self.reductions += 1;
        self.last_reduction = Some(red);
        self.ewma = Some(match self.ewma {
            Some(e) => EWMA_ALPHA * red + (1.0 - EWMA_ALPHA) * e,
            None => red,
        });
        self.best_reduction = Some(self.best_reduction.map_or(red, |b| b.min(red)));
        self.worst_reduction = Some(self.worst_reduction.map_or(red, |w| w.max(red)));
        if red >= self.threshold {
            self.slow_streak += 1;
            if self.slow_streak >= self.window && self.stalled_at.is_none() {
                self.stalled_at = Some(self.observations);
                obs::event(
                    self.stall_event,
                    &[
                        ("iteration", self.observations.into()),
                        ("reduction_ewma", self.ewma.unwrap_or(red).into()),
                        ("threshold", self.threshold.into()),
                        ("window", self.window.into()),
                    ],
                );
            }
        } else {
            self.slow_streak = 0;
        }
        Some(red)
    }

    /// Snapshot of the trajectory so far.
    pub fn summary(&self) -> ConvergenceSummary {
        ConvergenceSummary {
            reductions: self.reductions,
            ewma_reduction: self.ewma,
            last_reduction: self.last_reduction,
            best_reduction: self.best_reduction,
            worst_reduction: self.worst_reduction,
            stalled: self.stalled_at.is_some(),
            stalled_at: self.stalled_at,
        }
    }
}

/// Condensed convergence trajectory attached to solve reports.
///
/// All fields are pure functions of the observed metric sequence, so the
/// summary is bit-identical across thread counts whenever the trajectory
/// is. A summary from a direct solver (or a solve with fewer than two
/// observations) is [`Default::default`]: zero reductions, every optional
/// field `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceSummary {
    /// Number of consecutive-iteration reduction factors observed.
    pub reductions: usize,
    /// Exponentially-weighted moving average of the reduction factor.
    pub ewma_reduction: Option<f64>,
    /// Reduction factor of the final iteration.
    pub last_reduction: Option<f64>,
    /// Smallest (fastest) reduction factor seen.
    pub best_reduction: Option<f64>,
    /// Largest (slowest) reduction factor seen.
    pub worst_reduction: Option<f64>,
    /// Whether the stall detector tripped at any point.
    pub stalled: bool,
    /// 1-based observation index at which the stall detector tripped.
    pub stalled_at: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_detector_fires_on_stalling_sequence() {
        // A constructed stalling model: residuals contracting at 0.999 per
        // cycle — above the 0.99 threshold every single cycle.
        let mut trace = ConvergenceTrace::new("test.stall").with_stall(0.99, 5);
        let mut res = 1.0;
        for _ in 0..8 {
            trace.observe(res);
            res *= 0.999;
        }
        let s = trace.summary();
        assert!(s.stalled, "stall detector must fire on 0.999 reductions");
        // First observation yields no reduction; the 5-slow-cycle window
        // completes on the 6th observation.
        assert_eq!(s.stalled_at, Some(6));
        assert_eq!(s.reductions, 7);
        // Constant reduction: EWMA equals it bit-exactly (α·r + (1−α)·r).
        assert_eq!(s.ewma_reduction, Some(0.999));
        assert_eq!(s.best_reduction, Some(0.999));
        assert_eq!(s.worst_reduction, Some(0.999));
    }

    #[test]
    fn fast_convergence_never_stalls() {
        let mut trace = ConvergenceTrace::new("test.stall");
        let mut res = 1.0;
        for _ in 0..50 {
            trace.observe(res);
            res *= 0.1;
        }
        let s = trace.summary();
        assert!(!s.stalled);
        assert_eq!(s.stalled_at, None);
        assert!(s.ewma_reduction.unwrap() < 0.2);
    }

    #[test]
    fn recovery_resets_the_slow_streak() {
        let mut trace = ConvergenceTrace::new("test.stall").with_stall(0.9, 3);
        // Two slow cycles, one fast, two slow, one fast, ... never 3 in a
        // row.
        let factors = [0.95, 0.95, 0.1, 0.95, 0.95, 0.1, 0.95, 0.95];
        let mut res = 1.0;
        trace.observe(res);
        for f in factors {
            res *= f;
            trace.observe(res);
        }
        assert!(!trace.summary().stalled);
        // One more slow cycle after a 2-streak completes the window.
        trace.observe(res * 0.95);
        trace.observe(res * 0.95 * 0.95);
        assert!(trace.summary().stalled);
    }

    #[test]
    fn degenerate_metrics_produce_no_reductions() {
        let mut trace = ConvergenceTrace::new("test.stall");
        assert_eq!(trace.observe(1.0), None); // first observation
        assert_eq!(trace.observe(f64::NAN), None); // non-finite metric
        assert_eq!(trace.observe(0.5), None); // NaN predecessor
        trace.observe(0.0);
        assert_eq!(trace.observe(0.3), None); // zero predecessor
        let s = trace.summary();
        assert_eq!(s.reductions, 1); // only 0.5 → 0.0
        assert!(!s.stalled);
    }

    #[test]
    fn default_summary_is_empty() {
        let s = ConvergenceSummary::default();
        assert_eq!(s, ConvergenceTrace::new("test.stall").summary());
        assert_eq!(s.reductions, 0);
        assert!(!s.stalled);
    }
}
