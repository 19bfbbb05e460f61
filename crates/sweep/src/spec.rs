//! Declarative sweep specifications: axes × base configuration.

use stochcdr::{CdrConfig, CdrError, FilterKind, Result, SolverChoice};
use stochcdr_noise::jitter::{DriftJitterSpec, WhiteJitterSpec};

/// One swept parameter and the values it takes.
///
/// Each axis names the configuration knob it perturbs; everything else is
/// inherited from the sweep's base configuration. Every derived point is
/// re-validated through [`CdrConfig::builder`]'s `build`, so invalid
/// combinations (e.g. a counter length below the filter's minimum) surface
/// as per-sweep errors instead of panics deep in assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// White-jitter σ in UI (replaces `white.sigma_ui`, keeping the base
    /// spec's deterministic-jitter and tail-truncation settings).
    SigmaNw(Vec<f64>),
    /// Reference-clock frequency offset in ppm (replaces the drift mean,
    /// keeping the base spec's deviation magnitude and shape). This is the
    /// cache-friendly axis: only the `n_r` pmf factor is rebuilt.
    DriftPpm(Vec<f64>),
    /// Phase-grid refinement (bins per VCO phase step).
    Refinement(Vec<usize>),
    /// Loop-filter length parameter.
    CounterLen(Vec<usize>),
    /// Phase-detector dead zone in grid bins.
    DeadZone(Vec<usize>),
    /// Loop-filter circuit.
    Filter(Vec<FilterKind>),
    /// Stationary solver (overrides the sweep-level choice at this point).
    Solver(Vec<SolverChoice>),
}

impl SweepAxis {
    /// Stable axis name used in JSON output and CLI `--axes` strings.
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::SigmaNw(_) => "sigma-nw",
            SweepAxis::DriftPpm(_) => "drift-ppm",
            SweepAxis::Refinement(_) => "refinement",
            SweepAxis::CounterLen(_) => "counter",
            SweepAxis::DeadZone(_) => "dead-zone",
            SweepAxis::Filter(_) => "filter",
            SweepAxis::Solver(_) => "solver",
        }
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::SigmaNw(v) => v.len(),
            SweepAxis::DriftPpm(v) => v.len(),
            SweepAxis::Refinement(v) => v.len(),
            SweepAxis::CounterLen(v) => v.len(),
            SweepAxis::DeadZone(v) => v.len(),
            SweepAxis::Filter(v) => v.len(),
            SweepAxis::Solver(v) => v.len(),
        }
    }

    /// True when the axis has no values (the spec rejects such axes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human/JSON label of the `i`-th value.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn label(&self, i: usize) -> String {
        match self {
            SweepAxis::SigmaNw(v) => format!("{:e}", v[i]),
            SweepAxis::DriftPpm(v) => format!("{:e}", v[i]),
            SweepAxis::Refinement(v) => v[i].to_string(),
            SweepAxis::CounterLen(v) => v[i].to_string(),
            SweepAxis::DeadZone(v) => v[i].to_string(),
            SweepAxis::Filter(v) => match v[i] {
                FilterKind::OverflowCounter => "overflow".into(),
                FilterKind::ConsecutiveDetector => "consecutive".into(),
            },
            SweepAxis::Solver(v) => v[i].cli_name().into(),
        }
    }
}

/// A full sweep: base configuration, axes (outer product, first axis
/// slowest-varying), solver choice, and solve policy.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Configuration every point derives from.
    pub base: CdrConfig,
    /// Swept parameters; the grid is their Cartesian product. Empty means
    /// a single point (the base configuration itself).
    pub axes: Vec<SweepAxis>,
    /// Stationary solver for every point (a [`SweepAxis::Solver`] axis
    /// overrides it per point).
    pub solver: SolverChoice,
    /// Residual tolerance passed to the solver.
    pub tol: f64,
    /// Seed each solve from the nearest previously completed grid
    /// neighbor's stationary distribution (within fixed chunks, so results
    /// stay independent of the thread count).
    pub warm_start: bool,
}

impl SweepSpec {
    /// A single-point sweep of `base` with the default solver policy
    /// (multigrid V-cycles at [`stochcdr::analysis::DEFAULT_TOL`], warm
    /// starts on).
    pub fn new(base: CdrConfig) -> Self {
        SweepSpec {
            base,
            axes: Vec::new(),
            solver: SolverChoice::Multigrid,
            tol: stochcdr::analysis::DEFAULT_TOL,
            warm_start: true,
        }
    }

    /// Appends an axis (first added varies slowest).
    #[must_use]
    pub fn axis(mut self, axis: SweepAxis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Sets the solver used at every point.
    #[must_use]
    pub fn solver(mut self, choice: SolverChoice) -> Self {
        self.solver = choice;
        self
    }

    /// Sets the residual tolerance.
    #[must_use]
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Enables/disables warm-started solves.
    #[must_use]
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Total grid points (product of axis lengths; 1 with no axes).
    pub fn points(&self) -> usize {
        self.axes.iter().map(SweepAxis::len).product()
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError::Config`] for an empty axis, a duplicated axis
    /// name, or a non-positive tolerance.
    pub fn validate(&self) -> Result<()> {
        if self.tol.is_nan() || self.tol <= 0.0 {
            return Err(CdrError::Config(format!(
                "sweep tolerance must be positive, got {}",
                self.tol
            )));
        }
        let mut seen: Vec<&'static str> = Vec::new();
        for axis in &self.axes {
            if axis.is_empty() {
                return Err(CdrError::Config(format!(
                    "sweep axis '{}' has no values",
                    axis.name()
                )));
            }
            if seen.contains(&axis.name()) {
                return Err(CdrError::Config(format!(
                    "sweep axis '{}' appears twice",
                    axis.name()
                )));
            }
            seen.push(axis.name());
        }
        Ok(())
    }

    /// Decomposes a flat grid index (grid order: first axis slowest) into
    /// per-axis indices.
    ///
    /// # Panics
    ///
    /// Panics when `flat >= self.points()`.
    pub fn index_of(&self, flat: usize) -> Vec<usize> {
        assert!(flat < self.points(), "flat index {flat} out of range");
        let mut index = vec![0usize; self.axes.len()];
        let mut rem = flat;
        for (slot, axis) in index.iter_mut().zip(&self.axes).rev() {
            *slot = rem % axis.len();
            rem /= axis.len();
        }
        index
    }

    /// Axis-name/value-label pairs for a grid point, in axis order.
    ///
    /// # Panics
    ///
    /// Panics when `index` does not match the axes.
    pub fn params_at(&self, index: &[usize]) -> Vec<(String, String)> {
        assert_eq!(index.len(), self.axes.len(), "index rank mismatch");
        self.axes
            .iter()
            .zip(index)
            .map(|(axis, &i)| (axis.name().to_string(), axis.label(i)))
            .collect()
    }

    /// Materializes the configuration and solver choice at a grid point,
    /// re-running full builder validation.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError::Config`] when the derived point is invalid
    /// (e.g. an axis value below a structural minimum).
    ///
    /// # Panics
    ///
    /// Panics when `index` does not match the axes.
    pub fn resolve(&self, index: &[usize]) -> Result<(CdrConfig, SolverChoice)> {
        assert_eq!(index.len(), self.axes.len(), "index rank mismatch");
        let mut builder = self.base.to_builder();
        let mut choice = self.solver;
        for (axis, &i) in self.axes.iter().zip(index) {
            builder = match axis {
                SweepAxis::SigmaNw(v) => builder.white(WhiteJitterSpec {
                    sigma_ui: v[i],
                    ..self.base.white
                }),
                SweepAxis::DriftPpm(v) => {
                    builder.drift_spec(DriftJitterSpec::from_frequency_offset_ppm(
                        v[i],
                        self.base.drift.max_dev_ui,
                        self.base.drift.shape,
                    ))
                }
                SweepAxis::Refinement(v) => builder.grid_refinement(v[i]),
                SweepAxis::CounterLen(v) => builder.counter_len(v[i]),
                SweepAxis::DeadZone(v) => builder.dead_zone_bins(v[i]),
                SweepAxis::Filter(v) => builder.filter_kind(v[i]),
                SweepAxis::Solver(v) => {
                    choice = v[i];
                    builder
                }
            };
        }
        Ok((builder.build()?, choice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CdrConfig {
        CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_order_is_row_major_first_axis_slowest() {
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::CounterLen(vec![2, 4, 6]))
            .axis(SweepAxis::DeadZone(vec![0, 1]));
        assert_eq!(spec.points(), 6);
        assert_eq!(spec.index_of(0), vec![0, 0]);
        assert_eq!(spec.index_of(1), vec![0, 1]);
        assert_eq!(spec.index_of(2), vec![1, 0]);
        assert_eq!(spec.index_of(5), vec![2, 1]);
        let params = spec.params_at(&[2, 1]);
        assert_eq!(params[0], ("counter".to_string(), "6".to_string()));
        assert_eq!(params[1], ("dead-zone".to_string(), "1".to_string()));
    }

    #[test]
    fn resolve_applies_each_axis() {
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::DriftPpm(vec![100.0, 200.0]))
            .axis(SweepAxis::Solver(vec![
                SolverChoice::Power,
                SolverChoice::GaussSeidel,
            ]));
        let (cfg, choice) = spec.resolve(&[1, 0]).unwrap();
        assert!((cfg.drift.mean_ui - 2e-4).abs() < 1e-18);
        assert_eq!(cfg.drift.max_dev_ui, spec.base.drift.max_dev_ui);
        assert_eq!(choice, SolverChoice::Power);
        let (_, choice) = spec.resolve(&[0, 1]).unwrap();
        assert_eq!(choice, SolverChoice::GaussSeidel);
    }

    #[test]
    fn sigma_axis_preserves_other_white_fields() {
        let spec = SweepSpec::new(base()).axis(SweepAxis::SigmaNw(vec![0.05]));
        let (cfg, _) = spec.resolve(&[0]).unwrap();
        assert_eq!(cfg.white.sigma_ui, 0.05);
        assert_eq!(cfg.white.dj_ui, spec.base.white.dj_ui);
    }

    #[test]
    fn validation_rejects_empty_and_duplicate_axes() {
        let spec = SweepSpec::new(base()).axis(SweepAxis::SigmaNw(vec![]));
        assert!(spec.validate().is_err());
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::CounterLen(vec![2]))
            .axis(SweepAxis::CounterLen(vec![4]));
        assert!(spec.validate().is_err());
        assert!(SweepSpec::new(base()).tol(0.0).validate().is_err());
    }

    #[test]
    fn invalid_point_surfaces_as_config_error() {
        // counter length 1 is below the overflow counter's minimum of 2 —
        // the per-point builder re-validation catches it.
        let spec = SweepSpec::new(base()).axis(SweepAxis::CounterLen(vec![1]));
        assert!(matches!(spec.resolve(&[0]), Err(CdrError::Config(_))));
    }

    #[test]
    fn no_axes_means_one_point() {
        let spec = SweepSpec::new(base());
        assert_eq!(spec.points(), 1);
        assert_eq!(spec.index_of(0), Vec::<usize>::new());
        let (cfg, _) = spec.resolve(&[]).unwrap();
        assert_eq!(cfg, spec.base);
    }
}
