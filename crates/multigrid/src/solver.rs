//! The multi-level aggregation/disaggregation solver.
//!
//! Threading: the grid-transfer kernels (`lump_weighted_into`,
//! `lump_factored_into`) fan out over the `LumpPlan`'s precomputed
//! blocking — gather weights on a materialized level, coarse-row costs on
//! a traversed matrix-free fine grid, outer states on a factored one —
//! and every smoothing/residual product rides the chain's own partition —
//! all on the persistent `linalg::par` pool, with block fences that are a
//! pure function of the operator, never of the thread count.

use std::sync::Arc;
use std::time::Instant;

use stochcdr_linalg::{vecops, TransitionOp};
use stochcdr_markov::lumping::{disaggregate_scaled, LumpPlan, Partition};
use stochcdr_markov::stationary::{
    ConvergenceSummary, ConvergenceTrace, GthSolver, SolveReport, StationaryResult,
    StationarySolver,
};
use stochcdr_markov::{MarkovError, Result, StochasticMatrix, StochasticOp};
use stochcdr_obs as obs;

use crate::hierarchy::{CoarseWs, MgHierarchy, MgLevel, MgPhases};
use crate::Smoother;

/// Static span names per level, so per-level trace lanes stay
/// allocation-free. Hierarchies deeper than this share the last name.
const LEVEL_SPANS: [&str; 12] = [
    "mg.level0",
    "mg.level1",
    "mg.level2",
    "mg.level3",
    "mg.level4",
    "mg.level5",
    "mg.level6",
    "mg.level7",
    "mg.level8",
    "mg.level9",
    "mg.level10",
    "mg.level.deep",
];

fn level_span(level: usize) -> &'static str {
    LEVEL_SPANS[level.min(LEVEL_SPANS.len() - 1)]
}

/// Writes `{prefix}{level}` into `buf` and returns it: per-level counter
/// and histogram names without an allocation per traced call.
fn level_name<'a>(buf: &'a mut [u8; 64], prefix: &str, level: usize) -> &'a str {
    use std::io::Write as _;
    let mut cur = std::io::Cursor::new(&mut buf[..]);
    write!(cur, "{prefix}{level}").expect("level name fits its buffer");
    let len = cur.position() as usize;
    std::str::from_utf8(&buf[..len]).expect("level name is UTF-8")
}

/// Recursion pattern of the multigrid cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleKind {
    /// One recursive visit per level (V-cycle).
    V,
    /// Two recursive visits per level (W-cycle) — more coarse-level work,
    /// more robust on stiff chains. Truncated below [`MAX_W_DEPTH`]: on
    /// deep hierarchies an exact W-cycle re-enters level `ℓ` `2^ℓ` times,
    /// and each visit re-lumps and re-smooths, so the coarse traversal
    /// grows exponentially with depth while the extra visits stop buying
    /// contraction. Levels deeper than the cap recurse singly.
    W,
}

/// Depth at which W-recursion stops branching: level `ℓ` is visited
/// `2^min(ℓ, MAX_W_DEPTH)` times per W-cycle. Hierarchies up to
/// `MAX_W_DEPTH + 1` coarse levels run the textbook W-cycle unchanged;
/// the deep (12–17 level) implicit Kronecker hierarchies keep at most 64
/// revisits per level, which bounds the per-cycle coarse work at a small
/// multiple of one fine apply instead of an exponential in the depth.
pub const MAX_W_DEPTH: usize = 6;

impl CycleKind {
    /// Recursive visits below `level`: a V-cycle recurses once, a
    /// W-cycle twice until the [`MAX_W_DEPTH`] truncation stops the
    /// branching.
    fn branches(self, level: usize) -> usize {
        match self {
            CycleKind::W if level < MAX_W_DEPTH => 2,
            _ => 1,
        }
    }

    /// Number of times a cycle of this kind started at the fine grid
    /// visits the level `depth` grids below it.
    fn visits(self, depth: usize) -> f64 {
        match self {
            CycleKind::V => 1.0,
            CycleKind::W => (depth.min(MAX_W_DEPTH) as f64).exp2(),
        }
    }

    /// V-cycle equivalents of one cycle of this kind,
    /// `Σ_ℓ visits(ℓ)·w_ℓ / Σ_ℓ w_ℓ`, over levels whose applies cost
    /// `level_work` multiply-adds, fine first. Exactly 1 for a V-cycle.
    fn price(self, level_work: &[f64]) -> f64 {
        let v_cost: f64 = level_work.iter().sum();
        level_work
            .iter()
            .enumerate()
            .map(|(depth, w)| self.visits(depth) * w)
            .sum::<f64>()
            / v_cost
    }
}

/// Apply cost of each level of `h` in multiply-adds, fine first:
/// [`TransitionOp::apply_cost`] of every level's chain.
fn level_work(h: &MgHierarchy) -> Vec<f64> {
    std::iter::once(h.fine_work as f64)
        .chain(
            h.levels
                .iter()
                .map(|l| l.coarse.chain().apply_cost() as f64),
        )
        .collect()
}

/// Largest coarsest-level size accepted for the direct (GTH) solve: its
/// dense elimination costs `O(n³)` time and `O(n²)` memory.
const COARSE_DIRECT_MAX: usize = 4096;

/// Largest accepted Krylov window length (the small least-squares system
/// lives on the stack).
pub const MAX_KRYLOV_WINDOW: usize = 16;

/// Default Krylov window length: long enough to collapse a handful of
/// slow modes per window, short enough that the window storage stays a
/// small multiple of the iterate.
pub const DEFAULT_KRYLOV_RESTART: usize = 8;

/// Builder for [`MultigridSolver`].
#[derive(Debug, Clone)]
pub struct MultigridBuilder {
    partitions: Vec<Partition>,
    pre_sweeps: usize,
    post_sweeps: usize,
    kind: CycleKind,
    krylov_window: Option<usize>,
    smoother: Smoother,
    tol: f64,
    max_cycles: usize,
    plans: Option<Arc<Vec<LumpPlan>>>,
}

impl MultigridBuilder {
    /// Pre-smoothing sweeps per level (default 1).
    pub fn pre_sweeps(mut self, n: usize) -> Self {
        self.pre_sweeps = n;
        self
    }

    /// Post-smoothing sweeps per level (default 2).
    pub fn post_sweeps(mut self, n: usize) -> Self {
        self.post_sweeps = n;
        self
    }

    /// Cycle kind (default V). A V-cycle solve without a Krylov window
    /// continues on W-cycles once its stall detector trips; see
    /// [`MultigridSolver::solve_prepared`].
    pub fn cycle(mut self, kind: CycleKind) -> Self {
        self.kind = kind;
        self
    }

    /// Enables Krylov acceleration of the cycle fixed point (default
    /// off): collect a window of `len` successive cycle iterates and
    /// their residual vectors, then replace the iterate with the
    /// minimal-residual affine combination of the window (GMRES on the
    /// multigrid-preconditioned fixed-point map, computed by a
    /// deterministic serial Arnoldi/MGS factorization). The candidate is
    /// accepted only when its true fine-grid residual improves on the
    /// plain cycle's — a safeguard that makes acceleration strictly
    /// non-harmful in exact arithmetic and deterministic in floating
    /// point.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is in `2..=16`.
    pub fn krylov_window(mut self, len: usize) -> Self {
        assert!(
            (2..=MAX_KRYLOV_WINDOW).contains(&len),
            "Krylov window length must be in 2..={MAX_KRYLOV_WINDOW}"
        );
        self.krylov_window = Some(len);
        self
    }

    /// Smoother (default damped Jacobi, ω = 0.8).
    pub fn smoother(mut self, s: Smoother) -> Self {
        self.smoother = s;
        self
    }

    /// Residual tolerance `||ηP − η||₁` (default 1e-12).
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0`.
    pub fn tol(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        self.tol = tol;
        self
    }

    /// Cycle budget (default 200).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn max_cycles(mut self, n: usize) -> Self {
        assert!(n > 0, "cycle budget must be positive");
        self.max_cycles = n;
        self
    }

    /// Injects precomputed symbolic lumping plans (default: none; the
    /// solver runs the symbolic analysis itself during
    /// [`MultigridSolver::prepare`]). Plans are pure functions of the fine
    /// sparsity pattern and the partition sequence, so sweep drivers cache
    /// and share them across solves whose patterns match; a mismatched
    /// stack is rejected by `prepare`, never silently used.
    pub fn plans(mut self, plans: Arc<Vec<LumpPlan>>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Finalizes the solver.
    pub fn build(self) -> MultigridSolver {
        MultigridSolver {
            partitions: self.partitions,
            pre_sweeps: self.pre_sweeps,
            post_sweeps: self.post_sweeps,
            kind: self.kind,
            krylov_window: self.krylov_window,
            smoother: self.smoother,
            tol: self.tol,
            max_cycles: self.max_cycles,
            plans: self.plans,
        }
    }
}

/// Per-solve diagnostics collected by
/// [`MultigridSolver::solve_with_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultigridStats {
    /// L1 residual after each cycle.
    pub residual_history: Vec<f64>,
    /// Number of levels (including the fine grid).
    pub levels: usize,
    /// State count at each level, fine first.
    pub level_sizes: Vec<usize>,
    /// Wall-clock seconds per phase (setup, smoothing, aggregation,
    /// disaggregation, coarse solves, residual checks). Advisory: the
    /// arithmetic is deterministic, the timings are not.
    pub phases: MgPhases,
    /// Condensed convergence trajectory: per-cycle reduction-factor EWMA
    /// and the stall detector's verdict. A pure function of
    /// [`MultigridStats::residual_history`], so bit-identical across
    /// thread counts.
    pub convergence: ConvergenceSummary,
    /// Total fine-grid work in units of one V-cycle: each cycle costs
    /// `Σ_ℓ visits(kind, ℓ)·w_ℓ / Σ_ℓ w_ℓ` V-cycle equivalents, priced by
    /// the kind it ran, where
    /// `w_ℓ` is the level's apply cost in multiply-adds,
    /// [`TransitionOp::apply_cost`]: the nnz of a materialized level, the
    /// block values plus outer mode products of a factored one, and the
    /// mode products of an implicit fine grid (whose compact nnz badly
    /// understates the real work), and
    /// every extra fine-grid residual evaluation the Krylov safeguard
    /// performs adds `w_0 / Σ_ℓ w_ℓ`. A deterministic cost metric: a
    /// pure function of the hierarchy pattern and the cycle/extrapolation
    /// decisions, never of timing. Equals the cycle count exactly for an
    /// unaccelerated solve that never leaves V-cycles.
    pub cycle_equivalents: f64,
    /// Krylov extrapolation windows completed.
    pub krylov_windows: u64,
    /// Windows whose candidate beat the plain cycle and was accepted.
    pub krylov_accepts: u64,
}

/// Multi-level aggregation/disaggregation stationary solver.
///
/// One cycle at level `ℓ`:
///
/// 1. pre-smooth the iterate `x` on the level-`ℓ` chain,
/// 2. aggregate: build the weighted-lumped coarse chain using `x` as the
///    lumping weights (weak lumping), restrict `x` by block sums,
/// 3. recurse (or solve the coarsest level directly with GTH),
/// 4. disaggregate: distribute the coarse solution over each block
///    proportionally to the fine iterate (multiplicative correction),
/// 5. post-smooth.
///
/// The coarse chain is rebuilt *every cycle* from the current iterate —
/// the scheme is a fixed-point (nonlinear) multigrid whose exact solution
/// is a fixed point of the aggregation/disaggregation pair.
#[derive(Debug, Clone)]
pub struct MultigridSolver {
    partitions: Vec<Partition>,
    pre_sweeps: usize,
    post_sweeps: usize,
    kind: CycleKind,
    krylov_window: Option<usize>,
    smoother: Smoother,
    tol: f64,
    max_cycles: usize,
    plans: Option<Arc<Vec<LumpPlan>>>,
}

impl MultigridSolver {
    /// Starts building a solver from a fine-to-coarse partition sequence
    /// (e.g. from [`crate::GeometricCoarsening::levels`]).
    ///
    /// # Panics
    ///
    /// Panics if consecutive partitions do not chain (`partitions[k]`'s
    /// block count must equal `partitions[k+1]`'s state count).
    pub fn builder(partitions: Vec<Partition>) -> MultigridBuilder {
        for w in partitions.windows(2) {
            assert_eq!(
                w[0].block_count(),
                w[1].n(),
                "partition sequence does not chain"
            );
        }
        MultigridBuilder {
            partitions,
            pre_sweeps: 1,
            post_sweeps: 2,
            kind: CycleKind::V,
            krylov_window: None,
            smoother: Smoother::default(),
            tol: 1e-12,
            max_cycles: 200,
            plans: None,
        }
    }

    /// Number of levels including the fine grid.
    pub fn levels(&self) -> usize {
        self.partitions.len() + 1
    }

    /// Prepares and solves in one call, returning per-cycle diagnostics
    /// alongside the result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`prepare`](Self::prepare) and
    /// [`solve_prepared`](Self::solve_prepared).
    pub fn solve_with_stats(
        &self,
        fine: &dyn StochasticOp,
        init: Option<&[f64]>,
    ) -> Result<(StationaryResult, MultigridStats)> {
        let mut h = self.prepare(fine)?;
        self.solve_prepared(fine, &mut h, init)
    }

    /// One-time symbolic + storage setup for the fine chain: validates the
    /// partition sequence, runs (or adopts injected) symbolic lumping
    /// plans, and allocates every buffer the cycle loop needs. The fine
    /// chain may be materialized or matrix-free, and a matrix-free chain
    /// with no partitions is solved directly. Coarse levels under a
    /// Kronecker fine grid stay in factor form (outer lanes times one
    /// inner block per outer state) until a partition has aggregated
    /// every outer lane; every other coarse level is materialized. The
    /// returned hierarchy is valid for any chain
    /// sharing `fine`'s sparsity pattern — value changes never require
    /// re-preparation.
    ///
    /// Instrumented as the `mg.setup` span.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] when the finest partition
    /// does not cover `fine`, when the coarsest level exceeds the
    /// direct-solve cap, when Gauss–Seidel smoothing meets a matrix-free
    /// chain (its sweeps need the cached transpose only a materialized
    /// chain stores), or when injected plans do not match.
    pub fn prepare(&self, fine: &dyn StochasticOp) -> Result<MgHierarchy> {
        let n = fine.rows();
        if let Some(part) = self.partitions.first() {
            if part.n() != n {
                return Err(MarkovError::InvalidArgument(format!(
                    "finest partition covers {} states, chain has {n}",
                    part.n()
                )));
            }
        }
        let coarsest = self.partitions.last().map_or(n, Partition::block_count);
        if coarsest > COARSE_DIRECT_MAX {
            return Err(MarkovError::InvalidArgument(format!(
                "coarsest level has {coarsest} states, exceeding the direct-solve cap {}; \
                 add more coarsening levels",
                COARSE_DIRECT_MAX
            )));
        }
        self.check_smoother(fine)?;
        let t0 = Instant::now();
        let _span = obs::span("mg.setup");
        let plans = match &self.plans {
            Some(pl) => Arc::clone(pl),
            None => Arc::new(LumpPlan::build_stack(fine, &self.partitions)?),
        };
        let mut h = MgHierarchy::build(fine, &self.partitions, plans)?;
        h.phases.setup_secs = t0.elapsed().as_secs_f64();
        Ok(h)
    }

    /// Rejects Gauss–Seidel smoothing of a chain without a cached
    /// transpose: its sweeps run over the rows of `P^T`, which only a
    /// materialized chain stores.
    fn check_smoother(&self, fine: &dyn StochasticOp) -> Result<()> {
        if self.smoother == Smoother::GaussSeidel && fine.transpose_csr().is_none() {
            return Err(MarkovError::InvalidArgument(
                "Gauss–Seidel smoothing needs a materialized fine chain; \
                 smooth a matrix-free chain with Jacobi"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Runs one multigrid cycle against a prepared hierarchy and returns
    /// the L1 stationarity residual of the updated iterate.
    ///
    /// This is the allocation-free hot path: after [`prepare`](Self::prepare),
    /// repeated calls perform no heap allocations (instrumentation off,
    /// single worker thread) and produce bits identical to the original
    /// rebuild-everything cycle at any thread count.
    ///
    /// Callers driving the cycle loop themselves can feed the returned
    /// residuals to a [`ConvergenceTrace`] for reduction-factor EWMA and
    /// stall detection — [`solve_prepared`](Self::solve_prepared) does
    /// exactly that and reports the summary on [`MultigridStats`].
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if `h` was prepared for a
    /// different chain or the smoother cannot run on this one, or
    /// propagates coarse-solve failures.
    pub fn cycle(
        &self,
        fine: &dyn StochasticOp,
        h: &mut MgHierarchy,
        x: &mut [f64],
    ) -> Result<f64> {
        self.cycle_of(self.kind, fine, h, x)
    }

    /// [`cycle`](Self::cycle) with the recursion pattern chosen by the
    /// caller: the solve loop runs the builder's kind until a stall
    /// switches it.
    fn cycle_of(
        &self,
        kind: CycleKind,
        fine: &dyn StochasticOp,
        h: &mut MgHierarchy,
        x: &mut [f64],
    ) -> Result<f64> {
        if !h.matches(fine) {
            return Err(MarkovError::InvalidArgument(
                "hierarchy was prepared for a different chain".into(),
            ));
        }
        self.check_smoother(fine)?;
        let MgHierarchy {
            plans,
            levels,
            gth,
            resid,
            phases,
            ..
        } = h;
        self.run_cycle(kind, fine, 0, plans, levels, gth, phases, x)?;
        let t0 = Instant::now();
        let res = fine.stationary_residual_with(x, resid);
        phases.residual_secs += t0.elapsed().as_secs_f64();
        Ok(res)
    }

    /// Cycles a prepared hierarchy to convergence. Same contract as
    /// [`solve_with_stats`](Self::solve_with_stats), minus the setup work:
    /// callers that solve many chains with one pattern (parameter sweeps)
    /// prepare once and reuse `h`. A matrix-free chain that serves the
    /// same values as a materialized one returns the same distribution,
    /// cycle count and residuals, bit for bit, at any thread count.
    ///
    /// A V-cycle solve without a Krylov window runs W-cycles from the
    /// cycle after its stall detector trips (5 consecutive residual
    /// reductions of at least 0.9): that cycle is
    /// [`ConvergenceSummary::stalled_at`], marked by the
    /// `multigrid.stall` event. A solve that never stalls runs V-cycles
    /// throughout.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StationarySolver::solve`], plus a hierarchy
    /// prepared for a different chain.
    pub fn solve_prepared(
        &self,
        fine: &dyn StochasticOp,
        h: &mut MgHierarchy,
        init: Option<&[f64]>,
    ) -> Result<(StationaryResult, MultigridStats)> {
        if !h.matches(fine) {
            return Err(MarkovError::InvalidArgument(
                "hierarchy was prepared for a different chain".into(),
            ));
        }
        let n = fine.rows();
        let x = match init {
            None => vecops::uniform(n),
            Some(v) => checked_init(n, v)?,
        };
        self.solve_loop(fine, h, x)
    }

    /// The cycle loop shared by every fine chain: a matrix-free chain runs
    /// the same control flow as its materialized twin, on products and
    /// refreshes equal to rounding.
    fn solve_loop(
        &self,
        fine: &dyn StochasticOp,
        h: &mut MgHierarchy,
        mut x: Vec<f64>,
    ) -> Result<(StationaryResult, MultigridStats)> {
        let level_sizes = h.level_sizes();

        let _solve_span = obs::span("multigrid.solve");
        let coarsest_size = *level_sizes.last().expect("non-empty");
        obs::event(
            "multigrid.hierarchy",
            &[
                ("levels", self.levels().into()),
                ("fine_states", fine.rows().into()),
                ("coarsest_states", coarsest_size.into()),
                (
                    "coarsening_ratio",
                    (fine.rows() as f64 / coarsest_size.max(1) as f64).into(),
                ),
            ],
        );

        let mut history = Vec::new();
        // Multigrid stalls much faster than a slowly-grinding power
        // iteration would: a healthy cycle contracts by ~0.1, so even a
        // 0.9 reduction sustained over 5 cycles means the coarse
        // correction has stopped helping.
        let mut trace = ConvergenceTrace::new("multigrid.stall").with_stall(0.9, 5);
        // Live progress (default off): interval-throttled solve.progress
        // heartbeats with an ETA projected from the EWMA contraction.
        let heartbeat = obs::Heartbeat::new("multigrid");

        // Deterministic cost accounting: per-level apply work and the
        // resulting V-cycle-equivalent price of one cycle of each kind.
        // The coarse patterns are fixed by the plans, so these are
        // constants of the hierarchy.
        let level_work = level_work(h);
        let (v_price, w_price) = (
            CycleKind::V.price(&level_work),
            CycleKind::W.price(&level_work),
        );
        let fine_apply_cost = level_work[0] / level_work.iter().sum::<f64>();
        let mut cycle_equivalents = 0.0;

        let mut krylov = self
            .krylov_window
            .map(|len| KrylovWindow::new(fine.rows(), len));
        let mut krylov_windows = 0u64;
        let mut krylov_accepts = 0u64;

        // A stall means one coarse visit per level has stopped correcting
        // the slow modes, so an unwindowed V-cycle solve continues on
        // W-cycles from the cycle where the detector trips. The switch
        // reads only the residual history, so it is as deterministic as
        // the trace. A Krylov window collapses the slow modes itself and
        // keeps its V-cycles.
        let mut kind = self.kind;
        for cycle in 1..=self.max_cycles {
            let cycle_t0 = obs::enabled().then(Instant::now);
            let cycle_span = obs::span("cycle");
            let mut res = self.cycle_of(kind, fine, h, &mut x)?;
            drop(cycle_span);
            cycle_equivalents += match kind {
                CycleKind::V => v_price,
                CycleKind::W => w_price,
            };
            if let Some(w) = krylov.as_mut() {
                // `h.resid` holds xP from the residual evaluation above,
                // so the residual *vector* of the cycle's iterate is free.
                w.push(&x, &h.resid);
                if w.full() {
                    krylov_windows += 1;
                    obs::counter("solver.krylov.windows", 1);
                    let _accel_span = obs::span("krylov.extrapolate");
                    if w.extrapolate() {
                        // Safeguard: one true fine-grid residual for the
                        // candidate (priced like any other fine apply).
                        let res_y = fine.stationary_residual_with(&w.y, &mut h.resid);
                        cycle_equivalents += fine_apply_cost;
                        if res_y < res {
                            krylov_accepts += 1;
                            obs::counter("solver.krylov.accepts", 1);
                            obs::histogram(
                                "solver.krylov.gain",
                                res / res_y.max(f64::MIN_POSITIVE),
                            );
                            x.copy_from_slice(&w.y);
                            res = res_y;
                        } else {
                            obs::counter("solver.krylov.rejects", 1);
                        }
                    }
                    w.clear();
                }
            }
            trace.observe(res);
            if kind == CycleKind::V && krylov.is_none() && trace.summary().stalled {
                kind = CycleKind::W;
            }
            if heartbeat.active() {
                heartbeat.tick_solve(cycle as u64, res, trace.summary().ewma_reduction, self.tol);
            }
            if let Some(t0) = cycle_t0 {
                obs::histogram("multigrid.cycle.ns", t0.elapsed().as_nanos() as f64);
                // Per-cycle contraction factor: the distribution the
                // convergence claim rests on, not just its last value.
                if let Some(&prev) = history.last() {
                    if prev > 0.0 {
                        obs::histogram("multigrid.residual_reduction", res / prev);
                    }
                }
            }
            history.push(res);
            obs::event(
                "multigrid.cycle",
                &[("cycle", cycle.into()), ("residual", res.into())],
            );
            if res <= self.tol {
                vecops::clamp_roundoff(&mut x, 1e-12);
                // Clamping perturbs the iterate, so the pre-clamp residual
                // no longer describes the distribution actually returned:
                // recompute it and keep history's last entry in sync.
                let final_res = fine.stationary_residual_with(&x, &mut h.resid);
                *history.last_mut().expect("pushed above") = final_res;
                obs::event(
                    "multigrid.converged",
                    &[
                        ("cycles", cycle.into()),
                        ("residual", final_res.into()),
                        ("cycle_equivalents", cycle_equivalents.into()),
                    ],
                );
                let convergence = trace.summary();
                if obs::enabled() {
                    if let Some(ewma) = convergence.ewma_reduction {
                        obs::gauge("multigrid.reduction_ewma", ewma);
                    }
                }
                let result = StationaryResult {
                    distribution: x,
                    report: SolveReport {
                        iterations: cycle,
                        residual: final_res,
                        residual_history: history.clone(),
                        convergence: convergence.clone(),
                    },
                };
                let stats = MultigridStats {
                    residual_history: history,
                    levels: self.levels(),
                    level_sizes,
                    phases: h.phases,
                    convergence,
                    cycle_equivalents,
                    krylov_windows,
                    krylov_accepts,
                };
                return Ok((result, stats));
            }
        }
        Err(MarkovError::NotConverged {
            iterations: self.max_cycles,
            residual: *history.last().unwrap_or(&f64::NAN),
        })
    }

    /// Smoothing sweeps with per-level accounting: a `smooth` span, the
    /// level's sweep counter, and a per-level sweep-time histogram. The
    /// per-level names are written on the stack, and only when
    /// instrumentation is enabled.
    #[allow(clippy::too_many_arguments)]
    fn smooth_ws(
        &self,
        chain: &dyn StochasticOp,
        x: &mut [f64],
        sweeps: usize,
        level: usize,
        diag: &mut [f64],
        scratch: &mut [f64],
        ph: &mut MgPhases,
    ) {
        let t0 = Instant::now();
        if !obs::enabled() {
            self.smoother.apply_ws(chain, x, sweeps, diag, scratch);
            ph.smooth_secs += t0.elapsed().as_secs_f64();
            return;
        }
        {
            let _span = obs::span("smooth");
            self.smoother.apply_ws(chain, x, sweeps, diag, scratch);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        ph.smooth_secs += ns * 1e-9;
        let mut name = [0u8; 64];
        obs::counter(
            level_name(&mut name, "multigrid.smooth_sweeps.level", level),
            sweeps as u64,
        );
        obs::histogram(
            level_name(&mut name, "multigrid.smooth.ns.level", level),
            ns,
        );
    }

    /// One multigrid cycle at `level`, updating `x` in place. Numeric
    /// only: the coarse chain's values are refreshed through the cached
    /// plan, the restriction is the block-weight vector the refresh
    /// already computed, and the prolongation reuses its per-state shares.
    #[allow(clippy::too_many_arguments)]
    fn run_cycle(
        &self,
        kind: CycleKind,
        chain: &dyn StochasticOp,
        level: usize,
        plans: &[LumpPlan],
        levels: &mut [MgLevel],
        cw: &mut CoarseWs,
        ph: &mut MgPhases,
        x: &mut [f64],
    ) -> Result<()> {
        let _level_span = obs::span(level_span(level));
        let Some((lvl, rest)) = levels.split_first_mut() else {
            let t0 = Instant::now();
            let _span = obs::span("coarse_solve");
            let r = self.solve_coarsest_ws(chain, cw, x);
            ph.coarse_solve_secs += t0.elapsed().as_secs_f64();
            return r;
        };
        self.smooth_ws(
            chain,
            x,
            self.pre_sweeps,
            level,
            &mut lvl.diag,
            &mut lvl.sm,
            ph,
        );

        let part = &self.partitions[level];
        let t0 = Instant::now();
        let agg_span = obs::span("aggregate");
        {
            let _refresh = obs::span("mg.refresh");
            lvl.coarse
                .refresh(chain, part, x, &plans[level], &mut lvl.ws)?;
        }
        // The refresh's block-weight pass *is* the restriction: same block
        // sums, same order, same bits as `aggregate(part, x)`.
        lvl.xc.copy_from_slice(lvl.ws.block_weight());
        vecops::normalize_l1(&mut lvl.xc);
        drop(agg_span);
        ph.aggregate_secs += t0.elapsed().as_secs_f64();
        for _ in 0..kind.branches(level) {
            self.run_cycle(
                kind,
                lvl.coarse.chain(),
                level + 1,
                plans,
                rest,
                cw,
                ph,
                &mut lvl.xc,
            )?;
        }
        let t0 = Instant::now();
        let disagg_span = obs::span("disaggregate");
        disaggregate_scaled(part, &lvl.xc, lvl.ws.wscale(), x);
        vecops::normalize_l1(x);
        drop(disagg_span);
        ph.disaggregate_secs += t0.elapsed().as_secs_f64();

        self.smooth_ws(
            chain,
            x,
            self.post_sweeps,
            level,
            &mut lvl.diag,
            &mut lvl.sm,
            ph,
        );
        Ok(())
    }

    /// Direct solve at the coarsest level; falls back to smoothing sweeps
    /// when the (weight-dependent) coarse chain is numerically reducible.
    /// The dense scratch is reused across cycles: zero it, scatter the
    /// chain's entries (stored values when materialized, row traversal
    /// when matrix-free), eliminate in place.
    fn solve_coarsest_ws(
        &self,
        chain: &dyn StochasticOp,
        cw: &mut CoarseWs,
        x: &mut [f64],
    ) -> Result<()> {
        let gth_span = obs::span("markov.gth");
        cw.dense.fill(0.0);
        let stored = chain.csr();
        for r in 0..chain.rows() {
            let row = cw.dense.row_mut(r);
            match stored {
                Some(m) => m.row(r).for_each(|(c, v)| row[c] = v),
                None => chain.for_each_in_row(r, &mut |c, v| row[c] = v),
            }
        }
        match GthSolver::new().solve_dense_in_place(&mut cw.dense, x) {
            Ok(()) => {
                if obs::enabled() {
                    let residual = chain.stationary_residual_with(x, &mut cw.resid);
                    obs::event(
                        "markov.gth",
                        &[
                            ("states", chain.rows().into()),
                            ("residual", residual.into()),
                        ],
                    );
                }
                Ok(())
            }
            Err(MarkovError::Reducible(_)) => {
                drop(gth_span);
                // Zero-weight aggregates can disconnect the coarse chain;
                // relaxation still reduces the error, so smooth instead.
                // (A failed elimination never touches `x`.)
                self.smoother
                    .apply_ws(chain, x, 20, &mut cw.diag, &mut cw.sm);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

/// Workspace for the windowed minimal-residual extrapolation: `len`
/// iterates with their residual vectors, plus the candidate buffer. All
/// storage is allocated once (when the solve starts) and reused across
/// windows; the per-cycle hot path [`MultigridSolver::cycle`] never sees
/// it.
struct KrylovWindow {
    /// Window iterates `x_0 … x_{m−1}`.
    xs: Vec<Vec<f64>>,
    /// Their residual vectors `r_i = x_iP − x_i`; during extrapolation
    /// the first `m − 1` slots are overwritten in place by the
    /// orthonormalized difference basis.
    rs: Vec<Vec<f64>>,
    /// Candidate combination.
    y: Vec<f64>,
    len: usize,
}

impl KrylovWindow {
    fn new(n: usize, len: usize) -> Self {
        KrylovWindow {
            xs: vec![vec![0.0; n]; len],
            rs: vec![vec![0.0; n]; len],
            y: vec![0.0; n],
            len: 0,
        }
    }

    /// Records an iterate and its residual vector, given `xp = xP` (the
    /// scratch the cycle's residual evaluation already produced).
    fn push(&mut self, x: &[f64], xp: &[f64]) {
        let i = self.len;
        self.xs[i].copy_from_slice(x);
        for ((r, &a), &b) in self.rs[i].iter_mut().zip(xp).zip(x) {
            *r = a - b;
        }
        self.len += 1;
    }

    fn full(&self) -> bool {
        self.len == self.xs.len()
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Minimal-residual extrapolation over the full window: finds the
    /// affine combination `y = Σ c_i x_i`, `Σ c_i = 1`, minimizing the
    /// 2-norm of the linearized residual `Σ c_i r_i`, via a serial
    /// modified-Gram-Schmidt QR of the difference basis
    /// `s_i = r_i − r_{m−1}` (every reduction is a serial `vecops` dot,
    /// so the coefficients are bit-identical at any thread count). The
    /// combination is clamped to the simplex (negative entries zeroed,
    /// L1-normalized) before it lands in `self.y`.
    ///
    /// Returns false when the basis is numerically degenerate or the
    /// clamped combination has no mass — callers then skip the window.
    fn extrapolate(&mut self) -> bool {
        let m = self.len;
        debug_assert!(self.full() && m >= 2);
        let (basis, tail) = self.rs.split_at_mut(m - 1);
        let r_last = &tail[0];
        let k = m - 1;
        let mut r = [[0.0f64; MAX_KRYLOV_WINDOW]; MAX_KRYLOV_WINDOW];
        let mut used = [false; MAX_KRYLOV_WINDOW];
        for i in 0..k {
            vecops::axpy(-1.0, r_last, &mut basis[i]);
            let norm0 = vecops::norm2(&basis[i]);
            let (left, right) = basis.split_at_mut(i);
            let qi = &mut right[0];
            for (j, qj) in left.iter().enumerate() {
                if !used[j] {
                    continue;
                }
                let hij = vecops::dot(qj, qi);
                r[j][i] = hij;
                vecops::axpy(-hij, qj, qi);
            }
            let nrm = vecops::norm2(qi);
            // Columns that vanish under orthogonalization carry no new
            // direction; drop them rather than divide by noise.
            if nrm > 1e-12 * norm0.max(f64::MIN_POSITIVE) {
                vecops::scale(1.0 / nrm, qi);
                r[i][i] = nrm;
                used[i] = true;
            }
        }
        if !used.iter().take(k).any(|&u| u) {
            return false;
        }
        // γ = argmin ‖r_last + Σ γ_i s_i‖₂  ⇒  Rγ = −Qᵀ r_last.
        let mut gamma = [0.0f64; MAX_KRYLOV_WINDOW];
        let mut beta = [0.0f64; MAX_KRYLOV_WINDOW];
        for j in 0..k {
            if used[j] {
                beta[j] = -vecops::dot(&basis[j], r_last);
            }
        }
        for i in (0..k).rev() {
            if !used[i] {
                continue;
            }
            let mut s = beta[i];
            for j in (i + 1)..k {
                if used[j] {
                    s -= r[i][j] * gamma[j];
                }
            }
            gamma[i] = s / r[i][i];
        }
        // y = (1 − Σγ)·x_last + Σ γ_i x_i, clamped back onto the simplex.
        let c_last = 1.0 - gamma.iter().take(k).sum::<f64>();
        self.y.copy_from_slice(&self.xs[m - 1]);
        vecops::scale(c_last, &mut self.y);
        for i in 0..k {
            if used[i] && gamma[i] != 0.0 {
                vecops::axpy(gamma[i], &self.xs[i], &mut self.y);
            }
        }
        for v in &mut self.y {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        vecops::normalize_l1(&mut self.y)
    }
}

/// Validates a caller-provided starting vector and normalizes it.
fn checked_init(n: usize, v: &[f64]) -> Result<Vec<f64>> {
    let mut x = v.to_vec();
    if x.len() != n || !vecops::is_nonnegative(&x) || !vecops::normalize_l1(&mut x) {
        return Err(MarkovError::InvalidArgument(
            "initial vector must be a non-negative distribution of matching length".into(),
        ));
    }
    Ok(x)
}

impl StationarySolver for MultigridSolver {
    /// Materializes the operator as a validated [`StochasticMatrix`] and
    /// runs the cycling on it. The cycling itself runs matrix-free on
    /// any [`StochasticOp`]: a caller that must not materialize wraps the
    /// operator in an `ImplicitStochastic` and calls
    /// [`solve_with_stats`](MultigridSolver::solve_with_stats), as the
    /// product solve does. A `StochasticMatrix` takes the direct
    /// [`solve`](StationarySolver::solve) path with no copy.
    fn solve_op(&self, op: &dyn TransitionOp, init: Option<&[f64]>) -> Result<StationaryResult> {
        let p = StochasticMatrix::with_tolerance(op.materialize_csr(), 1e-6)?;
        self.solve_with_stats(&p, init).map(|(r, _)| r)
    }

    fn solve(&self, p: &StochasticMatrix, init: Option<&[f64]>) -> Result<StationaryResult> {
        self.solve_with_stats(p, init).map(|(r, _)| r)
    }

    fn name(&self) -> &'static str {
        match (self.kind, self.krylov_window.is_some()) {
            (_, true) => "multigrid-krylov",
            (CycleKind::V, false) => "multigrid-v",
            (CycleKind::W, false) => "multigrid-w",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeometricCoarsening, PairwiseCoarsening};
    use stochcdr_linalg::{par, CooMatrix};
    use stochcdr_markov::stationary::PowerIteration;
    use stochcdr_markov::ImplicitStochastic;

    /// Birth–death chain of `n` states with up-probability `up`.
    fn birth_death(n: usize, up: f64) -> StochasticMatrix {
        let down = 1.0 - up;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i == 0 {
                coo.push(0, 0, down);
            } else {
                coo.push(i, i - 1, down);
            }
            if i == n - 1 {
                coo.push(i, i, up);
            } else {
                coo.push(i, i + 1, up);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    /// A stiff nearly-completely-decomposable chain: `k` clusters of `m`
    /// states with weak ring coupling `eps` — the structure multigrid
    /// excels at. Within each cluster, a reflecting birth–death walk with a
    /// geometric (non-uniform) stationary profile.
    fn ncd_chain(k: usize, m: usize, eps: f64) -> StochasticMatrix {
        let n = k * m;
        let (up, down) = (0.7 * (1.0 - eps), 0.3 * (1.0 - eps));
        let mut coo = CooMatrix::new(n, n);
        for c in 0..k {
            for i in 0..m {
                let s = c * m + i;
                if i == 0 {
                    coo.push(s, s, down);
                } else {
                    coo.push(s, s - 1, down);
                }
                if i == m - 1 {
                    coo.push(s, s, up);
                } else {
                    coo.push(s, s + 1, up);
                }
                // Weak coupling to the same position in the next cluster.
                coo.push(s, ((c + 1) % k) * m + i, eps);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn matches_power_iteration_on_birth_death() {
        let p = birth_death(64, 0.45);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(64))
            .tol(1e-11)
            .build();
        let mg = solver.solve(&p, None).unwrap();
        let pw = PowerIteration::new(1e-13, 2_000_000)
            .solve(&p, None)
            .unwrap();
        assert!(vecops::dist1(&mg.distribution, &pw.distribution) < 1e-8);
    }

    #[test]
    fn solves_ncd_chain_where_power_struggles() {
        let p = ncd_chain(4, 8, 1e-7);
        // Start with all mass in cluster 0: the inter-cluster equilibration
        // is the 1 − O(eps) slow mode.
        let mut init = vec![0.0; 32];
        for v in init.iter_mut().take(8) {
            *v = 1.0 / 8.0;
        }
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
            .cycle(CycleKind::W)
            .tol(1e-12)
            .build();
        let (r, stats) = solver.solve_with_stats(&p, Some(&init)).unwrap();
        assert!(p.stationary_residual(&r.distribution) < 1e-11);
        assert!(stats.levels >= 3);
        // Correctness: all four clusters carry equal mass.
        for c in 0..4 {
            let mass: f64 = r.distribution[c * 8..(c + 1) * 8].iter().sum();
            assert!((mass - 0.25).abs() < 1e-9, "cluster {c} mass {mass}");
        }
        // Power iteration with an equivalent sweep budget barely moves the
        // cluster masses: residual stays at the O(eps) coupling scale.
        let budget = r.iterations() * (stats.levels * 4);
        let mut x = init;
        let mut buf = vec![0.0; 32];
        for _ in 0..budget {
            p.step_into(&x, &mut buf);
            std::mem::swap(&mut x, &mut buf);
        }
        assert!(p.stationary_residual(&x) > p.stationary_residual(&r.distribution) * 100.0);
    }

    #[test]
    fn geometric_coarsening_on_product_chain() {
        // 2-component chain: independent toggle (dim 2) x birth-death (dim 32),
        // phase component fastest-varying.
        let bd = birth_death(32, 0.4);
        let mut coo = CooMatrix::new(64, 64);
        for s in 0..64usize {
            let (t, phi) = (s / 32, s % 32);
            for (phi2, v) in bd.matrix().row(phi) {
                coo.push(s, (1 - t) * 32 + phi2, v);
            }
        }
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let parts = GeometricCoarsening::new(vec![2, 32], 1, 4).levels();
        let solver = MultigridSolver::builder(parts)
            .tol(1e-11)
            .max_cycles(500)
            .build();
        let r = solver.solve(&p, None).unwrap();
        // Product stationary: uniform over toggle x geometric over phase.
        let pw = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pw.distribution) < 1e-8);
    }

    #[test]
    fn implicit_path_matches_the_materialized_solve() {
        // A raw CSR whose rows sum to 1 + 3e-7 plays the never-materialized
        // operator: the implicit chain scales vectors where the validated
        // StochasticMatrix stores scaled values, and the operator-plan
        // lumping folds in traversal order, so the two solves run the same
        // cycles on values equal to rounding — the same cycle count and
        // hierarchy, and distributions within 1e-13 in L1.
        let ncd = ncd_chain(4, 8, 1e-7);
        let raw = ncd.matrix().scale_rows(&vec![1.0 + 3e-7; ncd.n()]);
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
            .cycle(CycleKind::W)
            .smoother(Smoother::Jacobi { omega: 0.8 })
            .tol(1e-12)
            .build();
        let (rm, sm) = solver.solve_with_stats(&mat, None).unwrap();
        let (ri, si) = solver.solve_with_stats(&imp, None).unwrap();
        assert_eq!(rm.iterations(), ri.iterations());
        assert!(rm.residual() <= 1e-12 && ri.residual() <= 1e-12);
        let gap = vecops::dist1(&rm.distribution, &ri.distribution);
        assert!(gap <= 1e-13, "distributions differ by {gap:e} in L1");
        assert_eq!(sm.level_sizes, si.level_sizes);
    }

    #[test]
    fn implicit_hierarchy_is_reusable_across_solves() {
        let raw = ncd_chain(4, 8, 1e-7).matrix().clone();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
            .tol(1e-11)
            .build();
        let mut h = solver.prepare(&imp).unwrap();
        let (a, _) = solver.solve_prepared(&imp, &mut h, None).unwrap();
        let (b, _) = solver.solve_prepared(&imp, &mut h, None).unwrap();
        assert_eq!(a.distribution, b.distribution);
        // Cached plans can seed a second solver instance.
        let reuse = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
            .tol(1e-11)
            .plans(Arc::clone(h.plans()))
            .build();
        let (c, _) = reuse.solve_with_stats(&imp, None).unwrap();
        assert_eq!(a.distribution, c.distribution);
    }

    #[test]
    fn implicit_path_rejects_unsupported_shapes() {
        let raw = birth_death(16, 0.4).matrix().clone();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let parts = PairwiseCoarsening::until(4).levels(16);
        // Gauss–Seidel sweeps a cached transpose a matrix-free chain lacks.
        let gs = MultigridSolver::builder(parts.clone())
            .smoother(Smoother::GaussSeidel)
            .build();
        assert!(matches!(
            gs.prepare(&imp),
            Err(MarkovError::InvalidArgument(_))
        ));
        // Nor can it cycle a hierarchy prepared for the materialized twin.
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let mut h = gs.prepare(&mat).unwrap();
        let mut x = vecops::uniform(16);
        assert!(gs.cycle(&imp, &mut h, &mut x).is_err());
        // Mismatched hierarchy rejected.
        let solver = MultigridSolver::builder(parts).build();
        let mut h = solver.prepare(&imp).unwrap();
        let other_raw = birth_death(32, 0.4).matrix().clone();
        let other_t = other_raw.transpose();
        let other = ImplicitStochastic::with_tolerance(&other_raw, &other_t, 1e-6).unwrap();
        let mut x = vecops::uniform(32);
        assert!(solver.cycle(&other, &mut h, &mut x).is_err());
    }

    #[test]
    fn no_partitions_degenerates_to_direct() {
        let p = birth_death(16, 0.3);
        let solver = MultigridSolver::builder(vec![]).build();
        let r = solver.solve(&p, None).unwrap();
        assert!(p.stationary_residual(&r.distribution) < 1e-12);
        assert_eq!(r.iterations(), 1);
        // A matrix-free chain solves directly too, filling the dense
        // elimination by row traversal: its materialized twin's values,
        // hence its bits. The residual runs through the scaled product
        // instead of the stored values, so it agrees to 1e-15.
        let raw = p.matrix().clone();
        let rawt = raw.transpose();
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let (rm, _) = solver.solve_with_stats(&mat, None).unwrap();
        let (ri, _) = solver.solve_with_stats(&imp, None).unwrap();
        assert_eq!(ri.distribution, rm.distribution);
        assert!((ri.residual() - rm.residual()).abs() <= 1e-15);
    }

    #[test]
    fn coarse_cap_enforced() {
        let p = birth_death(COARSE_DIRECT_MAX + 1, 0.4);
        let solver = MultigridSolver::builder(vec![]).build();
        assert!(matches!(
            solver.solve(&p, None),
            Err(MarkovError::InvalidArgument(_))
        ));
    }

    #[test]
    fn default_builder_converges_beyond_f64_range() {
        // pi[i+1] / pi[i] = 1.5 spans ~1e700: the coarsest (63-state)
        // GTH solve overflows unless its back-substitution rescales.
        let n = 4000;
        let p = birth_death(n, 0.6);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(64).levels(n)).build();
        let (r, stats) = solver.solve_with_stats(&p, None).unwrap();
        assert!(r.residual() <= 1e-12, "residual {}", r.residual());
        assert!(stats.residual_history.len() < 200);
        assert!(r.distribution.iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    #[test]
    fn mismatched_partition_rejected() {
        let p = birth_death(16, 0.4);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32)).build();
        assert!(solver.solve(&p, None).is_err());
    }

    #[test]
    fn stats_expose_hierarchy() {
        let p = birth_death(64, 0.45);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(64))
            .tol(1e-10)
            .build();
        let (_, stats) = solver.solve_with_stats(&p, None).unwrap();
        assert_eq!(stats.level_sizes, vec![64, 32, 16, 8]);
        assert_eq!(stats.levels, 4);
        assert!(!stats.residual_history.is_empty());
        // Residual history is (weakly) decreasing at the tail.
        let h = &stats.residual_history;
        if h.len() >= 2 {
            assert!(h[h.len() - 1] <= h[0]);
        }
    }

    #[test]
    fn invalid_init_rejected() {
        let p = birth_death(16, 0.4);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(16)).build();
        assert!(solver.solve(&p, Some(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn fixed_v_cycle_equivalents_equal_cycle_count() {
        let p = birth_death(64, 0.45);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(64))
            .tol(1e-10)
            .build();
        let (r, stats) = solver.solve_with_stats(&p, None).unwrap();
        assert_eq!(stats.cycle_equivalents, r.report.iterations as f64);
        assert_eq!(stats.krylov_windows, 0);
    }

    /// Underdamped smoothing on an NCD chain: its V-cycles stall within
    /// a few cycles (the chain `tests/stall_once.rs` stalls W-cycles on).
    fn stalling_solver(p: &StochasticMatrix) -> MultigridBuilder {
        MultigridSolver::builder(PairwiseCoarsening::until(4).levels(p.n()))
            .smoother(Smoother::Jacobi { omega: 0.15 })
            .pre_sweeps(0)
            .post_sweeps(1)
            .tol(1e-12)
            .max_cycles(20_000)
    }

    /// Solves at a pinned worker count; the result as exact bits.
    fn solve_bits(
        solver: &MultigridSolver,
        p: &StochasticMatrix,
        threads: usize,
    ) -> (Vec<u64>, MultigridStats) {
        par::set_threads(Some(threads));
        let (r, stats) = solver.solve_with_stats(p, None).unwrap();
        par::set_threads(None);
        (r.distribution.iter().map(|v| v.to_bits()).collect(), stats)
    }

    #[test]
    fn stalled_v_cycle_solve_continues_on_w_cycles() {
        let p = ncd_chain(4, 8, 0.2);
        let solver = stalling_solver(&p).build();
        assert_eq!(solver.name(), "multigrid-v");
        let (bits, stats) = solve_bits(&solver, &p, 1);
        let k = stats.convergence.stalled_at.expect("the V-cycles stall");
        let n = stats.residual_history.len();
        assert!(k < n, "stalled at {k} of {n} cycles");

        // k V-cycles, then n − k W-cycles, priced in cycle order.
        let mut h = solver.prepare(&p).unwrap();
        let c_w = CycleKind::W.price(&level_work(&h));
        assert!(c_w > 1.0);
        let expected = (0..n).fold(0.0, |acc, c| acc + if c < k { 1.0 } else { c_w });
        assert_eq!(stats.cycle_equivalents, expected);

        // Replaying those cycles through the public entry points gives
        // the solve's bits: the switch happens right after cycle k.
        let w = stalling_solver(&p).cycle(CycleKind::W).build();
        let mut x = vecops::uniform(p.n());
        for c in 0..n {
            let cycler = if c < k { &solver } else { &w };
            cycler.cycle(&p, &mut h, &mut x).unwrap();
        }
        vecops::clamp_roundoff(&mut x, 1e-12);
        assert_eq!(x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
        let gth = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&x, &gth.distribution) < 1e-8);

        let (bits4, stats4) = solve_bits(&solver, &p, 4);
        assert_eq!(bits4, bits);
        assert_eq!(stats4.convergence, stats.convergence);
        assert_eq!(
            stats4.cycle_equivalents.to_bits(),
            stats.cycle_equivalents.to_bits()
        );
    }

    #[test]
    fn windowed_solve_keeps_v_cycles_through_a_stall() {
        let p = ncd_chain(4, 8, 0.2);
        let solver = stalling_solver(&p).krylov_window(6).build();
        let (bits, stats) = solve_bits(&solver, &p, 1);
        let k = stats.convergence.stalled_at.expect("the detector trips");
        let n = stats.residual_history.len();
        assert!(k < n, "stalled at {k} of {n} cycles");

        // Every cycle is priced as a V-cycle, plus at most one fine
        // residual per window; W-cycles after k would cost far more.
        let lw = level_work(&solver.prepare(&p).unwrap());
        let fine = lw[0] / lw.iter().sum::<f64>();
        let v_only = n as f64 + stats.krylov_windows as f64 * fine;
        assert!(stats.cycle_equivalents >= n as f64);
        assert!(stats.cycle_equivalents <= v_only);
        assert!(v_only < k as f64 + (n - k) as f64 * CycleKind::W.price(&lw));

        let (bits4, stats4) = solve_bits(&solver, &p, 4);
        assert_eq!(bits4, bits);
        assert_eq!(
            stats4.cycle_equivalents.to_bits(),
            stats.cycle_equivalents.to_bits()
        );
    }

    #[test]
    fn krylov_acceleration_reduces_cycles_on_stiff_chain() {
        let p = ncd_chain(4, 8, 0.2);
        let parts = PairwiseCoarsening::until(4).levels(32);
        let plain = MultigridSolver::builder(parts.clone())
            .tol(1e-12)
            .max_cycles(20_000)
            .build();
        let accel = MultigridSolver::builder(parts)
            .tol(1e-12)
            .max_cycles(20_000)
            .krylov_window(6)
            .build();
        let (rp, _) = plain.solve_with_stats(&p, None).unwrap();
        let (ra, sa) = accel.solve_with_stats(&p, None).unwrap();
        let gth = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&ra.distribution, &gth.distribution) < 1e-8);
        assert!(sa.krylov_windows > 0);
        assert!(sa.krylov_accepts > 0, "no extrapolation ever accepted");
        assert!(
            sa.cycle_equivalents < 0.7 * rp.report.iterations as f64,
            "acceleration saved too little: {} equivalents vs {} plain cycles",
            sa.cycle_equivalents,
            rp.report.iterations
        );
        // Deterministic: same bits on a rerun.
        let (ra2, sa2) = accel.solve_with_stats(&p, None).unwrap();
        assert_eq!(ra.distribution, ra2.distribution);
        assert_eq!(sa.cycle_equivalents, sa2.cycle_equivalents);
    }

    #[test]
    fn solver_names_cover_schedules() {
        let parts = PairwiseCoarsening::until(4).levels(16);
        let mk = |b: MultigridBuilder| b.build().name();
        assert_eq!(mk(MultigridSolver::builder(parts.clone())), "multigrid-v");
        assert_eq!(
            mk(MultigridSolver::builder(parts.clone()).cycle(CycleKind::W)),
            "multigrid-w"
        );
        assert_eq!(
            mk(MultigridSolver::builder(parts).krylov_window(DEFAULT_KRYLOV_RESTART)),
            "multigrid-krylov"
        );
    }
}
