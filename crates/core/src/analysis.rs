//! Stationary analysis of a built CDR chain: solver dispatch, densities,
//! BER, and timing.

use std::time::Instant;

use stochcdr_markov::functional::marginal;
use stochcdr_markov::lumping::{LumpPlan, Partition};
use stochcdr_markov::stationary::{
    GaussSeidelSolver, GmresStationary, GthSolver, JacobiSolver, PowerIteration, StationarySolver,
};
use stochcdr_multigrid::{CycleKind, MgPhases, MultigridSolver, Smoother, DEFAULT_KRYLOV_RESTART};
use stochcdr_obs as obs;

use crate::ber::{ber_discrete, ber_symmetric_dist};
use crate::density::PhiDensity;
use crate::stages::PhaseDetector;
use crate::{CdrChain, Result};

/// Which stationary solver to run.
///
/// `Multigrid*` builds the paper's phase-pairing hierarchy from the chain's
/// `(data, counter, phase)` layout automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Plain power iteration (baseline).
    Power,
    /// Gauss–Seidel sweeps.
    GaussSeidel,
    /// Damped Jacobi sweeps.
    Jacobi,
    /// Direct GTH elimination — `O(n³)`, only for small chains.
    Direct,
    /// Multigrid V-cycles with phase-pairing coarsening (the paper's
    /// solver), 5 Gauss–Seidel sweeps before and after each coarse
    /// correction; a solve that stalls continues on W-cycles (see
    /// [`CdrChain::multigrid_solver`]).
    Multigrid,
    /// Multigrid W-cycles (more robust on very stiff operating points).
    MultigridW,
    /// Multigrid V-cycles with windowed Krylov acceleration: a
    /// minimal-residual extrapolation recombines every
    /// [`DEFAULT_KRYLOV_RESTART`] successive iterates.
    MgKrylov,
    /// Restarted GMRES on the rank-one-shifted stationarity system
    /// (standalone Krylov baseline, no multigrid preconditioning).
    Gmres,
}

impl SolverChoice {
    /// Every solver, in the canonical presentation order used by the CLI
    /// and the benchmark tables. Adding a solver here is the single
    /// registration point: `parse`, `cli_name`, the CLI `--solver` flag,
    /// and the benchmark sweeps all iterate this list.
    pub const ALL: [SolverChoice; 8] = [
        SolverChoice::Power,
        SolverChoice::GaussSeidel,
        SolverChoice::Jacobi,
        SolverChoice::Direct,
        SolverChoice::Multigrid,
        SolverChoice::MultigridW,
        SolverChoice::MgKrylov,
        SolverChoice::Gmres,
    ];

    /// The CLI spelling of this choice (`--solver` value).
    pub fn cli_name(self) -> &'static str {
        match self {
            SolverChoice::Power => "power",
            SolverChoice::GaussSeidel => "gs",
            SolverChoice::Jacobi => "jacobi",
            SolverChoice::Direct => "direct",
            SolverChoice::Multigrid => "mg",
            SolverChoice::MultigridW => "mgw",
            SolverChoice::MgKrylov => "mgk",
            SolverChoice::Gmres => "gmres",
        }
    }

    /// Whether this choice runs the multigrid machinery (and therefore
    /// needs a coarsening hierarchy and can use cached symbolic plans).
    pub fn is_multigrid(self) -> bool {
        matches!(
            self,
            SolverChoice::Multigrid | SolverChoice::MultigridW | SolverChoice::MgKrylov
        )
    }

    /// Parses a CLI spelling; `None` for unknown names.
    pub fn parse(name: &str) -> Option<SolverChoice> {
        SolverChoice::ALL
            .iter()
            .copied()
            .find(|c| c.cli_name() == name)
    }

    /// All CLI spellings joined with `|` — for usage strings and error
    /// messages.
    pub fn cli_names() -> String {
        SolverChoice::ALL.map(SolverChoice::cli_name).join("|")
    }
}

/// Default residual tolerance for analyses.
pub const DEFAULT_TOL: f64 = 1e-12;

/// The complete output of one stationary analysis — everything a paper
/// figure panel reports.
#[derive(Debug, Clone)]
pub struct CdrAnalysis {
    /// Stationary distribution over joint states.
    pub stationary: Vec<f64>,
    /// Stationary marginal density of the phase error `Φ`.
    pub phi_density: PhiDensity,
    /// Stationary density of the phase-detector input `Φ + n_w`
    /// (discretized-`n_w` convolution; the paper's second curve).
    pub pd_input_density: PhiDensity,
    /// BER via the continuous Gaussian tail (production estimator).
    pub ber: f64,
    /// BER via the discretized `n_w` (matches the Monte-Carlo probability
    /// space; zero when the truncated support cannot reach ±UI/2).
    pub ber_discrete: f64,
    /// Solver iterations (cycles for multigrid).
    pub iterations: usize,
    /// Final stationary residual `||ηP − η||₁`.
    pub residual: f64,
    /// Wall-clock time of the stationary solve.
    pub solve_time: std::time::Duration,
    /// Which solver produced the result.
    pub solver_name: &'static str,
    /// Per-phase wall-time attribution for multigrid solves (`None` for
    /// other solvers, or when the stationary vector came from outside).
    pub mg_phases: Option<MgPhases>,
    /// Work-normalized multigrid cost in units of one V-cycle's
    /// fine-through-coarse sweep (`None` outside multigrid): the machine
    /// metric behind the `≤ N cycle-equivalents` acceptance gates, equal
    /// to the cycle count on an unaccelerated fixed-V solve.
    pub mg_cycle_equivalents: Option<f64>,
}

impl CdrChain {
    /// Builds the paper's coarsening hierarchy for this chain: lump pairs
    /// of adjacent phase bins until the phase grid is small, then continue
    /// through the filter and data components so the coarsest direct solve
    /// is a few dozen states (W-cycles visit it `2^levels` times, so its
    /// `O(n³)` GTH cost must be negligible).
    ///
    /// Works on reachability-pruned chains: levels are derived from the
    /// surviving states' `(data, filter, phase)` coordinates rather than
    /// the full Cartesian product.
    pub fn phase_hierarchy(&self) -> Vec<Partition> {
        let mut coords = self.hierarchy_coords();
        let mut parts = Vec::new();
        for (comp, _) in self.coarsening_plan() {
            let (part, coarse) = coarsen_step(&coords, comp);
            parts.push(part);
            coords = coarse;
        }
        parts
    }

    /// [`phase_hierarchy`](Self::phase_hierarchy) with per-level caching:
    /// each `(Partition, coarse coords)` step is fetched from `cache`
    /// under a key derived from the state layout (dimensions plus the
    /// reachability-pruning map) and the level index. Sweep points whose
    /// axes do not change the surviving state set share the entire
    /// hierarchy.
    pub fn phase_hierarchy_cached(&self, cache: &stochcdr_fsm::FactorCache) -> Vec<Partition> {
        let cfg = self.config();
        let mut base = stochcdr_fsm::KeyHasher::new();
        base.usize(cfg.data_model.state_count())
            .usize(cfg.filter_states())
            .usize(cfg.m_bins())
            .usize(self.state_count());
        if self.pruned_states() > 0 {
            for s in 0..self.state_count() {
                base.usize(self.full_index_of(s));
            }
        }
        let base = base.finish();
        let mut coords: Option<std::sync::Arc<Vec<[usize; 3]>>> = None;
        let mut parts = Vec::new();
        for (level, (comp, _)) in self.coarsening_plan().into_iter().enumerate() {
            let mut key = stochcdr_fsm::KeyHasher::new();
            key.u64(base).usize(level).usize(comp);
            let step = cache.get_or_build("mg.level", key.finish(), || {
                let fine = match &coords {
                    None => std::borrow::Cow::Owned(self.hierarchy_coords()),
                    Some(c) => std::borrow::Cow::Borrowed(&***c),
                };
                coarsen_step(&fine, comp)
            });
            parts.push(step.0.clone());
            coords = Some(std::sync::Arc::new(step.1.clone()));
        }
        parts
    }

    /// The surviving states' `(data, filter, phase)` coordinates — the
    /// finest level of the coarsening hierarchy.
    fn hierarchy_coords(&self) -> Vec<[usize; 3]> {
        (0..self.state_count())
            .map(|s| [self.data_of(s), self.counter_of(s), self.phase_bin_of(s)])
            .collect()
    }

    /// The fixed coarsening schedule as a flat list of `(component,
    /// resulting dimension)` steps: halve the phase grid to 8 bins, then
    /// the filter to 2 states, then the data component to 2.
    fn coarsening_plan(&self) -> Vec<(usize, usize)> {
        let cfg = self.config();
        let mut dims = [
            cfg.data_model.state_count(),
            cfg.filter_states(),
            cfg.m_bins(),
        ];
        let schedule = [
            (2usize, 8.min(cfg.m_bins())),
            (1, 2.min(cfg.filter_states())),
            (0, 2),
        ];
        let mut plan = Vec::new();
        for (comp, stop) in schedule {
            while dims[comp] > stop {
                dims[comp] = dims[comp].div_ceil(2);
                plan.push((comp, dims[comp]));
            }
        }
        plan
    }

    /// Builds the solver object for a [`SolverChoice`], configured for this
    /// chain's state layout.
    pub fn solver(&self, choice: SolverChoice) -> Box<dyn StationarySolver> {
        self.solver_with_tol(choice, DEFAULT_TOL)
    }

    /// [`solver`](Self::solver) with an explicit residual tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0`.
    pub fn solver_with_tol(&self, choice: SolverChoice, tol: f64) -> Box<dyn StationarySolver> {
        let parts = if choice.is_multigrid() {
            self.phase_hierarchy()
        } else {
            Vec::new()
        };
        self.solver_from_hierarchy(choice, tol, parts)
    }

    /// [`solver_with_tol`](Self::solver_with_tol) with an externally built
    /// (typically cached, see
    /// [`phase_hierarchy_cached`](Self::phase_hierarchy_cached)) coarsening
    /// hierarchy. Non-multigrid choices ignore `parts`.
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0`.
    pub fn solver_from_hierarchy(
        &self,
        choice: SolverChoice,
        tol: f64,
        parts: Vec<Partition>,
    ) -> Box<dyn StationarySolver> {
        assert!(tol > 0.0, "tolerance must be positive");
        let iters = 5_000_000;
        match choice {
            SolverChoice::Power => Box::new(PowerIteration::new(tol, iters)),
            SolverChoice::GaussSeidel => Box::new(GaussSeidelSolver::new(tol, iters)),
            SolverChoice::Jacobi => Box::new(JacobiSolver::new(tol, iters, 0.8)),
            SolverChoice::Direct => Box::new(GthSolver::new()),
            SolverChoice::Gmres => Box::new(GmresStationary::new(tol, iters.min(100_000))),
            SolverChoice::Multigrid | SolverChoice::MultigridW | SolverChoice::MgKrylov => {
                Box::new(self.multigrid_solver(choice, tol, parts, None))
            }
        }
    }

    /// The concrete multigrid solver with the project-standard
    /// configuration (Gauss–Seidel smoothing, 2000 cycle budget):
    /// V-cycles with 5 pre-/5 post-sweeps for `mg` (W-cycles with
    /// [`STALL_W_SWEEPS`](stochcdr_multigrid::STALL_W_SWEEPS) once they
    /// stall), W-cycles with 1 pre-/2 post-sweeps for `mgw`, and V-cycles
    /// with 1 pre-/2 post-sweeps and a Krylov window of
    /// [`DEFAULT_KRYLOV_RESTART`] for `mgk`. Unlike [`solver_from_hierarchy`](Self::solver_from_hierarchy)
    /// this keeps the concrete type, so callers reach
    /// [`MultigridSolver::solve_with_stats`] (phase attribution) and can
    /// inject cached symbolic plans (see
    /// [`mg_plans_cached`](Self::mg_plans_cached)).
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0` or `choice` is not a multigrid variant.
    pub fn multigrid_solver(
        &self,
        choice: SolverChoice,
        tol: f64,
        parts: Vec<Partition>,
        plans: Option<std::sync::Arc<Vec<LumpPlan>>>,
    ) -> MultigridSolver {
        assert!(tol > 0.0, "tolerance must be positive");
        // Five sweeps each side make `mg`'s V-cycles contract the
        // residual 25× or more per cycle on the reference chain instead
        // of ~2×, a shorter answer for all the extra smoothing (DESIGN
        // §16).
        let (kind, pre, post) = match choice {
            SolverChoice::Multigrid => (CycleKind::V, 5, 5),
            SolverChoice::MgKrylov => (CycleKind::V, 1, 2),
            SolverChoice::MultigridW => (CycleKind::W, 1, 2),
            _ => panic!("multigrid_solver called with {choice:?}"),
        };
        let mut b = MultigridSolver::builder(parts)
            .cycle(kind)
            .smoother(Smoother::GaussSeidel)
            .pre_sweeps(pre)
            .post_sweeps(post)
            .tol(tol)
            .max_cycles(2_000);
        if choice == SolverChoice::MgKrylov {
            b = b.krylov_window(DEFAULT_KRYLOV_RESTART);
        }
        if let Some(plans) = plans {
            b = b.plans(plans);
        }
        b.build()
    }

    /// The symbolic lumping plans for `parts` against this chain's TPM,
    /// fetched from `cache` under the `mg.plan` kind. The key hashes the
    /// TPM's sparsity *pattern* and the partition shapes — plans are pure
    /// functions of those, never of transition values or of the solver
    /// that cycles them — so sweep points that move only numeric factors,
    /// or only the multigrid variant, share one plan stack, while any
    /// pattern change (pruning, support growth) forces a rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `parts` does not chain over this chain's states (the
    /// partitions must come from this chain's hierarchy builders).
    pub fn mg_plans_cached(
        &self,
        cache: &stochcdr_fsm::FactorCache,
        parts: &[Partition],
    ) -> std::sync::Arc<Vec<LumpPlan>> {
        let m = self.tpm().matrix();
        let mut key = stochcdr_fsm::KeyHasher::new();
        key.usize(self.state_count()).usize(m.nnz());
        for &p in m.indptr() {
            key.usize(p);
        }
        for &c in m.indices() {
            key.u64(c as u64);
        }
        key.usize(parts.len());
        for part in parts {
            key.usize(part.block_count());
        }
        cache.get_or_build("mg.plan", key.finish(), || {
            LumpPlan::build_stack(self.tpm(), parts)
                .expect("hierarchy partitions chain over this chain's states")
        })
    }

    /// Runs the full stationary analysis with the chosen solver.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`stochcdr_markov::MarkovError`]).
    pub fn analyze(&self, choice: SolverChoice) -> Result<CdrAnalysis> {
        self.analyze_with_tol(choice, DEFAULT_TOL)
    }

    /// [`analyze`](Self::analyze) with an explicit residual tolerance.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn analyze_with_tol(&self, choice: SolverChoice, tol: f64) -> Result<CdrAnalysis> {
        // Multigrid keeps the concrete solver type so the analysis can
        // carry per-phase attribution; other solvers go through the trait
        // object. Same solve, same bits either way.
        enum Prepared {
            Mg(MultigridSolver),
            Other(Box<dyn StationarySolver>),
        }
        let prepared = if choice.is_multigrid() {
            Prepared::Mg(self.multigrid_solver(choice, tol, self.phase_hierarchy(), None))
        } else {
            Prepared::Other(self.solver_with_tol(choice, tol))
        };
        let _span = obs::span("core.analyze");
        let start = Instant::now();
        let (result, solver_name, mg_phases, mg_equiv) = match &prepared {
            Prepared::Mg(s) => {
                let (result, stats) = s.solve_with_stats(self.tpm(), None)?;
                (
                    result,
                    s.name(),
                    Some(stats.phases),
                    Some(stats.cycle_equivalents),
                )
            }
            Prepared::Other(s) => (s.solve(self.tpm(), None)?, s.name(), None, None),
        };
        let solve_time = start.elapsed();
        obs::event(
            "core.stationary_solved",
            &[
                ("iterations", result.iterations().into()),
                ("residual", result.residual().into()),
                ("solve_ms", (solve_time.as_secs_f64() * 1e3).into()),
            ],
        );
        let iterations = result.iterations();
        let residual = result.residual();
        let mut a = self.analysis_from_stationary(
            result.distribution,
            iterations,
            residual,
            solve_time,
            solver_name,
        );
        a.mg_phases = mg_phases;
        a.mg_cycle_equivalents = mg_equiv;
        Ok(a)
    }

    /// Assembles the derived quantities from an externally computed
    /// stationary vector (used by benchmarks that time the solve
    /// separately).
    ///
    /// # Panics
    ///
    /// Panics if `stationary.len() != state_count()`.
    pub fn analysis_from_stationary(
        &self,
        stationary: Vec<f64>,
        iterations: usize,
        residual: f64,
        solve_time: std::time::Duration,
        solver_name: &'static str,
    ) -> CdrAnalysis {
        assert_eq!(
            stationary.len(),
            self.state_count(),
            "stationary vector length"
        );
        let cfg = self.config();
        let m = cfg.m_bins();
        let half = (m / 2) as i32;

        // Phase marginal: group by signed offset (mapping-aware).
        let pairs = marginal(&stationary, |s| self.phase_bin_of(s) as i32 - half);
        let phi_density = PhiDensity::from_pairs(cfg.delta_ui(), pairs);

        // PD input: phase ⊕ discretized n_w.
        let nw = PhaseDetector::new(cfg).nw().clone();
        let pd_input_density = phi_density.convolve(&nw);

        let ber = ber_symmetric_dist(&phi_density, &cfg.white.distribution());
        let ber_d = ber_discrete(&phi_density, &nw, half);
        CdrAnalysis {
            stationary,
            phi_density,
            pd_input_density,
            ber,
            ber_discrete: ber_d,
            iterations,
            residual,
            solve_time,
            solver_name,
            mg_phases: None,
            mg_cycle_equivalents: None,
        }
    }
}

/// One coarsening step of the phase-pairing hierarchy: halve component
/// `comp` of every coordinate, label the surviving coarse coordinates in
/// sorted order, and return the resulting [`Partition`] together with the
/// coarse coordinate list (the next level's input).
///
/// Pure function of its inputs — this is what makes per-level caching
/// across sweep points sound.
fn coarsen_step(coords: &[[usize; 3]], comp: usize) -> (Partition, Vec<[usize; 3]>) {
    let next: Vec<[usize; 3]> = coords
        .iter()
        .map(|&t| {
            let mut u = t;
            u[comp] /= 2;
            u
        })
        .collect();
    let mut uniq = next.clone();
    uniq.sort_unstable();
    uniq.dedup();
    let labels: Vec<usize> = next
        .iter()
        .map(|t| uniq.binary_search(t).expect("label present"))
        .collect();
    (
        Partition::from_labels(labels).expect("labels are contiguous"),
        uniq,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdrConfig, CdrModel};
    use stochcdr_linalg::vecops;

    fn chain() -> CdrChain {
        let config = CdrConfig::builder()
            .phases(8)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.06)
            .drift(5e-3, 4e-2)
            .build()
            .unwrap();
        CdrModel::new(config).build_chain().unwrap()
    }

    #[test]
    fn all_solvers_agree() {
        let c = chain();
        let reference = c.analyze(SolverChoice::Direct).unwrap();
        for choice in SolverChoice::ALL {
            if choice == SolverChoice::Direct {
                continue;
            }
            let a = c.analyze_with_tol(choice, 1e-11).unwrap();
            let dist = vecops::dist1(&a.stationary, &reference.stationary);
            assert!(dist < 1e-7, "{choice:?} deviates by {dist}");
            assert!(
                (a.ber / reference.ber - 1.0).abs() < 1e-4,
                "{choice:?} BER {} vs {}",
                a.ber,
                reference.ber
            );
        }
    }

    #[test]
    fn densities_are_distributions() {
        let c = chain();
        let a = c.analyze(SolverChoice::Multigrid).unwrap();
        assert!((a.phi_density.total_mass() - 1.0).abs() < 1e-9);
        assert!((a.pd_input_density.total_mass() - 1.0).abs() < 1e-9);
        assert!((vecops::sum(&a.stationary) - 1.0).abs() < 1e-9);
        // PD input is a smeared version of the phase density.
        assert!(a.pd_input_density.std_ui() > a.phi_density.std_ui());
    }

    #[test]
    fn phase_density_is_centered_near_lock() {
        let c = chain();
        let a = c.analyze(SolverChoice::Multigrid).unwrap();
        // The loop locks: mean phase error well inside ±0.25 UI (drift
        // produces a small systematic offset).
        assert!(
            a.phi_density.mean_ui().abs() < 0.25,
            "mean {}",
            a.phi_density.mean_ui()
        );
        assert!(a.ber < 0.5);
        assert!(a.ber > 0.0);
    }

    #[test]
    fn multigrid_converges_in_few_cycles() {
        let c = chain();
        let a = c.analyze(SolverChoice::Multigrid).unwrap();
        let p = c.analyze(SolverChoice::Power).unwrap();
        assert!(
            a.iterations < p.iterations / 2,
            "multigrid {} cycles vs power {} iterations",
            a.iterations,
            p.iterations
        );
    }

    #[test]
    fn cached_hierarchy_matches_and_hits() {
        let c = chain();
        let cache = stochcdr_fsm::FactorCache::new();
        let direct = c.phase_hierarchy();
        let cached = c.phase_hierarchy_cached(&cache);
        assert_eq!(direct, cached);
        let levels = direct.len();
        assert_eq!(cache.stats().by_kind["mg.level"].misses, levels as u64);
        let again = c.phase_hierarchy_cached(&cache);
        assert_eq!(direct, again);
        let stats = cache.stats();
        assert_eq!(stats.by_kind["mg.level"].hits, levels as u64);
        // Solving from the cached hierarchy matches the stock solver.
        let solver = c.solver_from_hierarchy(SolverChoice::Multigrid, 1e-12, cached);
        let a = solver.solve(c.tpm(), None).unwrap();
        let b = c.analyze(SolverChoice::Multigrid).unwrap();
        assert_eq!(a.distribution, b.stationary);
    }

    #[test]
    fn registry_round_trips() {
        for choice in SolverChoice::ALL {
            assert_eq!(SolverChoice::parse(choice.cli_name()), Some(choice));
        }
        assert_eq!(SolverChoice::parse("nope"), None);
        assert_eq!(
            SolverChoice::cli_names(),
            "power|gs|jacobi|direct|mg|mgw|mgk|gmres"
        );
    }

    #[test]
    fn timing_recorded() {
        let c = chain();
        let a = c.analyze(SolverChoice::GaussSeidel).unwrap();
        assert!(a.solve_time.as_nanos() > 0);
        assert_eq!(a.solver_name, "gauss-seidel");
    }
}
