//! Multi-lane product-form CDR models and the implicit Kronecker solve
//! path.
//!
//! The paper's headline scale — ~10^6 states — is out of reach for any
//! path that materializes the joint TPM: a product of two ~10^3-state
//! lanes has ~10^6 states but ~10^8 stored transitions (nnz multiplies,
//! not adds). Product-form front-ends (multi-lane collaborative CDR,
//! auxiliary frequency loops) compose per-lane chains with a Kronecker
//! product, and [`ProductChain`] keeps that product *implicit*: the fine
//! grid lives as a [`KroneckerOp`] holding only the per-lane CSRs, the
//! multigrid solver smooths through mode-by-mode factor products and
//! refreshes the first coarse level by sum factorization over the
//! factors (the first partition aggregates only the innermost lane), and
//! only the (small) coarse levels are ever materialized.
//!
//! # Path selection
//!
//! [`solve_auto`](ProductChain::solve_auto) picks the backend from a
//! soft memory budget (`--mem-budget` on the CLI): when
//! [`KroneckerOp::materialize_cost_bytes`] would push the live heap past
//! the budget, the solve runs implicitly; otherwise
//! the product is materialized and solved on the ordinary path. Both
//! backends share one solver configuration and one hierarchy and agree
//! to rounding: the implicit path scales vectors instead of stored
//! values and associates products mode by mode, so on a model small
//! enough to run both the two land on the same cycle count with
//! stationary vectors within 1e-13 in L1 (the tests pin this). Each
//! backend is bit-identical at any thread count.

use std::sync::Arc;

use stochcdr_fsm::{FactorCache, KroneckerOp};
use stochcdr_markov::lumping::Partition;
use stochcdr_markov::stationary::{StationaryResult, StationarySolver};
use stochcdr_markov::{ImplicitStochastic, StochasticMatrix};
use stochcdr_multigrid::{GeometricCoarsening, MultigridSolver, MultigridStats, Smoother};
use stochcdr_obs as obs;

use crate::factors::chain_key;
use crate::{AssemblyFactors, CdrChain, CdrConfig, CdrError, CdrModel, Result};

/// TPM-validation tolerance for product chains. Each lane's rows sum to
/// one within the assembly tolerance (1e-9); the product's row sums are
/// products of lane row sums, so the joint drift stays far below this.
const PRODUCT_TOL: f64 = 1e-6;

/// Coarsest-level state cap — matches the multigrid builder's default
/// direct-solve cap.
const COARSE_CAP: usize = 4096;

/// Target size for the first (implicit-level) aggregation. The level-1
/// coarse chain is the largest *materialized* object in an implicit
/// solve, and its nnz scales with its state count; collapsing the fine
/// grid to ~10^5 states in one composed partition keeps the whole
/// hierarchy (coarse CSRs + gather plans) well under the budgets that
/// forced the implicit path in the first place. Aggressive first-step
/// aggregation trades some per-cycle contraction for memory — the
/// weighted (iterate-adaptive) lumping keeps the cycle convergent.
const FIRST_LEVEL_TARGET: usize = 1 << 17;

/// A product-form chain: the Kronecker product of per-lane CDR chains.
///
/// Lane 0 is the outermost (slowest-varying) factor of the joint state
/// index, matching [`KroneckerOp`]'s ordering.
#[derive(Debug, Clone)]
pub struct ProductChain {
    lanes: Vec<CdrChain>,
    op: KroneckerOp,
}

/// Result of a product-chain stationary solve.
#[derive(Debug, Clone)]
pub struct ProductSolve {
    /// The stationary distribution over the joint state space plus
    /// iteration/residual bookkeeping.
    pub result: StationaryResult,
    /// Per-cycle multigrid diagnostics.
    pub stats: MultigridStats,
    /// Name of the solver that ran ([`StationarySolver::name`]).
    pub solver_name: &'static str,
    /// Whether the solve ran on the implicit (matrix-free) fine grid.
    pub implicit: bool,
}

impl ProductChain {
    /// Composes the given lanes into a product chain.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError::Config`] when `lanes` is empty or the joint
    /// dimension would overflow `usize`.
    pub fn new(lanes: Vec<CdrChain>) -> Result<Self> {
        if lanes.is_empty() {
            return Err(CdrError::Config(
                "product chain needs at least one lane".into(),
            ));
        }
        let mut dim = 1usize;
        for lane in &lanes {
            dim = dim.checked_mul(lane.state_count()).ok_or_else(|| {
                CdrError::Config("joint product dimension overflows usize".into())
            })?;
        }
        let op = KroneckerOp::new(lanes.iter().map(|c| c.tpm().matrix().clone()).collect());
        Ok(ProductChain { lanes, op })
    }

    /// `n` identical copies of `lane` — the cheap way to reach the
    /// paper's scale regime from a single assembled chain.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn replicated(lane: &CdrChain, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(CdrError::Config(
                "product chain needs at least one lane".into(),
            ));
        }
        Self::new(vec![lane.clone(); n])
    }

    /// Builds the lanes through `cache`: assembled lane chains are
    /// shared under the `product.lane` kind (keyed by each
    /// configuration's chain-determining parameters), and lane assembly
    /// itself pulls its tables through [`AssemblyFactors::cached`]. A
    /// sweep that moves one lane's drift axis therefore reuses every
    /// untouched lane outright *and* rebuilds the moved lane from cached
    /// factors — only the drift table (`acc.nr`) is recomputed.
    ///
    /// # Errors
    ///
    /// Propagates the first lane-assembly failure (which is also cached:
    /// a configuration that failed once fails again without re-running
    /// the assembler), plus the [`new`](Self::new) conditions.
    pub fn cached(configs: &[CdrConfig], cache: &FactorCache) -> Result<Self> {
        let mut lanes = Vec::with_capacity(configs.len());
        for cfg in configs {
            // Fetched outside the lane closure: `get_or_build` runs its
            // builder under the cache lock, so the nested factor lookups
            // must happen first (they are pure hits when the lane is
            // cached anyway).
            let factors = AssemblyFactors::cached(cfg, cache);
            let built: Arc<Result<CdrChain>> =
                cache.get_or_build("product.lane", chain_key(cfg), || {
                    CdrModel::new(cfg.clone()).build_chain_with(&factors)
                });
            lanes.push(built.as_ref().clone()?);
        }
        Self::new(lanes)
    }

    /// The per-lane chains, outermost first.
    pub fn lanes(&self) -> &[CdrChain] {
        &self.lanes
    }

    /// Joint state count (product of lane state counts).
    pub fn state_count(&self) -> usize {
        self.op.dim()
    }

    /// The implicit Kronecker operator over the lane TPMs.
    pub fn operator(&self) -> &KroneckerOp {
        &self.op
    }

    /// Stored entries of the compact (factored) representation.
    pub fn compact_nnz(&self) -> usize {
        self.op.compact_nnz()
    }

    /// Nonzeros the materialized joint TPM would hold.
    pub fn materialized_nnz(&self) -> usize {
        self.op.materialized_nnz()
    }

    /// Estimated heap bytes of materializing the joint TPM.
    pub fn materialize_cost_bytes(&self) -> u64 {
        self.op.materialize_cost_bytes()
    }

    /// The multigrid coarsening hierarchy for this product space.
    ///
    /// Above `FIRST_LEVEL_TARGET` (2¹⁷) joint states, the first partition is
    /// a *composed* geometric coarsening (several halvings of the
    /// innermost lanes folded into one aggregation step) so the level-1
    /// coarse chain — the largest materialized object of an implicit
    /// solve — lands near the target size instead of at half the fine
    /// grid. Below the target, plain one-halving-per-level geometric
    /// coarsening is used. Either way the coarsest level ends at or
    /// under the direct-solve cap.
    pub fn hierarchy(&self) -> Vec<Partition> {
        let dims: Vec<usize> = self.lanes.iter().map(CdrChain::state_count).collect();
        let mut parts = Vec::new();
        let mut cur = dims;
        if let Some((first, coarse_dims)) = composed_first_partition(&cur) {
            parts.push(first);
            cur = coarse_dims;
        }
        // Halve lane dimensions innermost-first down to 2 until the
        // coarsest product is under the cap; guarantee at least one
        // level, so even a product under the cap cycles instead of
        // running one dense elimination of the whole joint chain.
        let mut schedule = Vec::new();
        let mut sim = cur.clone();
        for c in (0..sim.len()).rev() {
            if sim.iter().product::<usize>() <= COARSE_CAP
                && !(parts.is_empty() && schedule.is_empty())
            {
                break;
            }
            if sim[c] > 2 {
                schedule.push((c, 2usize));
                sim[c] = 2;
            }
        }
        if parts.is_empty() && schedule.is_empty() {
            // Tiny product, nothing above 2 to halve further except one
            // last cut; halve the innermost non-trivial lane once.
            if let Some(c) = (0..cur.len()).rev().find(|&c| cur[c] > 1) {
                schedule.push((c, cur[c].div_ceil(2)));
            }
        }
        if !schedule.is_empty() {
            parts.extend(GeometricCoarsening::with_schedule(cur, schedule).levels());
        }
        parts
    }

    /// The project-standard solver for product chains: fixed V-cycles
    /// with Krylov window acceleration (window
    /// [`Self::KRYLOV_RESTART`]) over the paper's damped-Jacobi
    /// smoother (`ω = 0.8`, fully parallel on the implicit fine grid),
    /// 1 pre-/2 post-sweeps. Both solve backends use this exact
    /// configuration, which is what makes them comparable; the
    /// extrapolation is a pure function of the residual history, so
    /// the acceleration preserves the thread-count determinism
    /// contract.
    ///
    /// V rather than a deeper cycle is a measured choice: on the deep
    /// (~14-level) hierarchies these product chains build, a (truncated)
    /// W-cycle costs ~2.2+ V-equivalents, because the first lumped level
    /// is as expensive to visit as the implicit fine grid itself. With
    /// the Krylov window armed the deeper cycles no longer buy
    /// convergence — on the 574k-state two-lane chain at tol 1e-8, plain
    /// V and a schedule escalating to W both converge in 34–37 cycles,
    /// so plain V wins outright: 36.2 cycle-equivalents and 115 s vs
    /// 75.5 / 180 s.
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0`.
    pub fn solver(&self, tol: f64) -> MultigridSolver {
        assert!(tol > 0.0, "tolerance must be positive");
        MultigridSolver::builder(self.hierarchy())
            .smoother(Smoother::Jacobi { omega: 0.8 })
            .pre_sweeps(1)
            .post_sweeps(2)
            .tol(tol)
            .max_cycles(2_000)
            .krylov_window(Self::KRYLOV_RESTART)
            .build()
    }

    /// Krylov window length for the product-path default accelerator.
    ///
    /// Longer than [`stochcdr_multigrid::DEFAULT_KRYLOV_RESTART`]
    /// because at tight
    /// tolerances the window length dominates the cycle count: on the
    /// 574k-state two-lane chain at tol 1e-10 a window of 4 needs 93
    /// accelerated V-cycles, 6 needs 72, 8 needs 50, and 12/16 plateau
    /// at 48 — short windows extrapolate from too small a subspace and
    /// the accept-test keeps rejecting marginal candidates. 12 buys
    /// the plateau at 3/4 of the window-buffer footprint of 16
    /// (`restart × n` doubles).
    pub const KRYLOV_RESTART: usize = 12;

    /// Solves for the stationary distribution without ever materializing
    /// the joint TPM: the fine grid stays a [`KroneckerOp`] wrapped in an
    /// [`ImplicitStochastic`] view (validated lane by lane, applied mode
    /// by mode), and only coarse levels exist as CSR.
    ///
    /// # Errors
    ///
    /// Propagates TPM validation (joint row-mass drift) and solver
    /// failures.
    pub fn solve_implicit(&self, tol: f64) -> Result<ProductSolve> {
        let solver = self.solver(tol);
        let _span = obs::span("core.product_solve");
        let tr = self.op.transposed();
        let imp = ImplicitStochastic::with_tolerance(&self.op, tr, PRODUCT_TOL)?;
        let (result, stats) = solver.solve_with_stats(&imp, None)?;
        self.solved_event(true, &result);
        Ok(ProductSolve {
            result,
            stats,
            solver_name: solver.name(),
            implicit: true,
        })
    }

    /// Solves on the materialized joint TPM (the reference path for
    /// models small enough to afford it) under a soft memory `budget`.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError::Config`] when `budget` refuses the
    /// materialization ([`KroneckerOp::try_materialize`]); use
    /// [`solve_implicit`](Self::solve_implicit) or
    /// [`solve_auto`](Self::solve_auto) instead. Propagates TPM
    /// validation and solver failures.
    pub fn solve_materialized(&self, tol: f64, budget: Option<u64>) -> Result<ProductSolve> {
        let solver = self.solver(tol);
        let _span = obs::span("core.product_solve");
        let csr = self.op.try_materialize(budget).ok_or_else(|| {
            CdrError::Config(format!(
                "materializing the {}-state product TPM needs {} bytes, over the memory \
                 budget; use the implicit path",
                self.op.dim(),
                self.op.materialize_cost_bytes()
            ))
        })?;
        let tpm = StochasticMatrix::with_tolerance(csr, PRODUCT_TOL)?;
        let (result, stats) = solver.solve_with_stats(&tpm, None)?;
        self.solved_event(false, &result);
        Ok(ProductSolve {
            result,
            stats,
            solver_name: solver.name(),
            implicit: false,
        })
    }

    /// Budget-driven backend selection: runs
    /// [`solve_implicit`](Self::solve_implicit) when materializing the
    /// joint TPM would cross the soft memory `budget`, and
    /// [`solve_materialized`](Self::solve_materialized) otherwise. With
    /// no budget, the materialized path always wins. The two backends
    /// agree to rounding, not bit for bit (see the module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as the selected backend.
    pub fn solve_auto(&self, tol: f64, budget: Option<u64>) -> Result<ProductSolve> {
        if obs::mem::would_exceed(self.op.materialize_cost_bytes(), budget) {
            obs::event(
                "core.product_path",
                &[
                    ("path", "implicit".into()),
                    ("states", self.op.dim().into()),
                    ("materialize_bytes", self.op.materialize_cost_bytes().into()),
                    ("budget_bytes", budget.unwrap_or(0).into()),
                ],
            );
            self.solve_implicit(tol)
        } else {
            self.solve_materialized(tol, budget)
        }
    }

    fn solved_event(&self, implicit: bool, result: &StationaryResult) {
        obs::event(
            "core.product_solved",
            &[
                ("implicit", implicit.into()),
                ("states", self.op.dim().into()),
                ("lanes", self.lanes.len().into()),
                ("cycles", result.iterations().into()),
                ("residual", result.residual().into()),
            ],
        );
    }
}

/// Row-major strides for dimensions `dims` (first component slowest),
/// matching [`KroneckerOp`]'s joint-index packing.
fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for c in (0..dims.len().saturating_sub(1)).rev() {
        strides[c] = strides[c + 1] * dims[c + 1];
    }
    strides
}

/// Builds the composed first partition when the product is large:
/// repeatedly halves lane dimensions innermost-first (each lane down to
/// 8, exactly the per-level maps `v → v/2` of [`GeometricCoarsening`]
/// composed together, i.e. `v → v >> k`) until the simulated coarse
/// product is at or under [`FIRST_LEVEL_TARGET`]. Returns the partition
/// over the fine grid plus the coarse dimensions, or `None` when the
/// product is already small enough for plain halving.
fn composed_first_partition(dims: &[usize]) -> Option<(Partition, Vec<usize>)> {
    let total: usize = dims.iter().product();
    if total <= FIRST_LEVEL_TARGET {
        return None;
    }
    let mut halvings = vec![0u32; dims.len()];
    let mut coarse = dims.to_vec();
    'halve: for c in (0..dims.len()).rev() {
        while coarse[c] > 8 {
            coarse[c] = coarse[c].div_ceil(2);
            halvings[c] += 1;
            if coarse.iter().product::<usize>() <= FIRST_LEVEL_TARGET {
                break 'halve;
            }
        }
    }
    let fine_strides = row_major_strides(dims);
    let coarse_strides = row_major_strides(&coarse);
    let mut labels = vec![0usize; total];
    for (flat, label) in labels.iter_mut().enumerate() {
        let mut l = 0usize;
        for c in 0..dims.len() {
            let v = (flat / fine_strides[c]) % dims[c];
            l += (v >> halvings[c]) * coarse_strides[c];
        }
        *label = l;
    }
    let part = Partition::from_labels(labels).expect("composed labels are contiguous");
    Some((part, coarse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_model::DataModel;
    use stochcdr_linalg::{vecops, TransitionOp};
    use stochcdr_markov::lumping::{lump_with_plan, LumpPlan, LumpWorkspace};
    use stochcdr_markov::stationary::GthSolver;

    fn lane_config() -> CdrConfig {
        CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .data_model(DataModel::two_state(0.7, 0.8).unwrap())
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap()
    }

    fn lane() -> CdrChain {
        CdrModel::new(lane_config()).build_chain().unwrap()
    }

    /// A deliberately tiny lane so the double solves in these tests stay
    /// fast in debug builds.
    fn tiny_lane() -> CdrChain {
        let cfg = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(2)
            .data_model(DataModel::two_state(0.7, 0.8).unwrap())
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        CdrModel::new(cfg).build_chain().unwrap()
    }

    #[test]
    fn implicit_and_materialized_solves_agree() {
        // The implicit path scales vectors where the materialized one
        // stores scaled values, applies the product mode by mode and
        // refreshes level 0 by sum factorization, so the two backends
        // agree to rounding: the same hierarchy and cycle count, and
        // distributions within 1e-13 in L1.
        let p = ProductChain::replicated(&tiny_lane(), 2).unwrap();
        let a = p.solve_materialized(1e-10, None).unwrap();
        let b = p.solve_implicit(1e-10).unwrap();
        assert!(!a.implicit);
        assert!(b.implicit);
        assert_eq!(a.stats.level_sizes, b.stats.level_sizes);
        assert_eq!(a.result.iterations(), b.result.iterations());
        assert!(a.result.residual() <= 1e-10 && b.result.residual() <= 1e-10);
        let gap = vecops::dist1(&a.result.distribution, &b.result.distribution);
        assert!(gap <= 1e-13, "backends differ by {gap:e} in L1");
    }

    /// The accuracy-lock lane: phases 8, refinement 2, counter 2 — 128
    /// states, so the two-lane product has 16,384.
    fn lock_lane() -> CdrChain {
        let cfg = CdrConfig::builder()
            .phases(8)
            .grid_refinement(2)
            .counter_len(2)
            .white_sigma_ui(0.05)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        CdrModel::new(cfg).build_chain().unwrap()
    }

    #[test]
    fn implicit_solve_matches_the_lane_product_entrywise() {
        // Independent lanes: the joint stationary vector is exactly
        // π_lane ⊗ π_lane, and GTH gives π_lane entrywise accurate. At
        // tol 1e-10 the implicit solve lands within 1e-12 in L1 and 1e-6
        // relative in every entry, down to entries near 1e-20.
        let lane = lock_lane();
        assert_eq!(lane.state_count(), 128);
        let exact = GthSolver::new()
            .solve(lane.tpm(), None)
            .unwrap()
            .distribution;
        let p = ProductChain::replicated(&lane, 2).unwrap();
        let got = p.solve_implicit(1e-10).unwrap().result.distribution;
        assert_eq!(got.len(), 16_384);
        let mut l1 = 0.0f64;
        let mut worst = 0.0f64;
        for (k, &g) in got.iter().enumerate() {
            let want = exact[k / 128] * exact[k % 128];
            l1 += (g - want).abs();
            if want > 0.0 {
                worst = worst.max((g - want).abs() / want);
            }
        }
        assert!(l1 <= 1e-12, "L1 error {l1:e}");
        assert!(worst <= 1e-6, "worst relative entry error {worst:e}");
    }

    #[test]
    fn implicit_solves_are_bitwise_across_thread_counts() {
        // The factored refresh, the mode products and the scaling each
        // write every output on one worker in a fixed order.
        let p = ProductChain::replicated(&lock_lane(), 2).unwrap();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            stochcdr_linalg::par::set_threads(Some(threads));
            runs.push(p.solve_implicit(1e-6).unwrap());
        }
        stochcdr_linalg::par::set_threads(None);
        let first = &runs[0];
        for (run, threads) in runs.iter().zip([1, 2, 4, 8]) {
            assert_eq!(run.result.iterations(), first.result.iterations());
            assert_eq!(
                run.stats.residual_history, first.stats.residual_history,
                "{threads} workers"
            );
            assert!(
                run.result
                    .distribution
                    .iter()
                    .zip(&first.result.distribution)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{threads} workers diverge from 1"
            );
        }
    }

    /// The product operator with its Kronecker structure hidden, so
    /// lumping takes the traversal refresh: the oracle for the factored
    /// one.
    struct Opaque<'a>(&'a KroneckerOp);

    impl TransitionOp for Opaque<'_> {
        fn rows(&self) -> usize {
            self.0.rows()
        }

        fn cols(&self) -> usize {
            self.0.cols()
        }

        fn nnz(&self) -> usize {
            self.0.nnz()
        }

        fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
            self.0.mul_left_into(x, y);
        }

        fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
            self.0.mul_right_into(x, y);
        }

        fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
            self.0.for_each_in_row(row, f);
        }
    }

    #[test]
    fn factored_refresh_matches_the_traversal_refresh_on_the_lane_pair() {
        // The implicit65k lane pair (two 256-state lanes) and its first
        // partition, which halves lane 1: the factored plan rebuilds the
        // traversal plan's coarse pattern exactly, and its values agree
        // to 1e-13 relative — the refreshes differ only in summation
        // order and in the row scale (lane sums multiplied versus
        // product entries summed) — at 1 and 4 workers, bit for bit.
        let cfg = CdrConfig::builder()
            .phases(8)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.05)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        let lane = CdrModel::new(cfg).build_chain().unwrap();
        assert_eq!(lane.state_count(), 256);
        let p = ProductChain::replicated(&lane, 2).unwrap();
        let part = &p.hierarchy()[0];
        let op = p.operator();
        let opaque = Opaque(op);
        let factored = ImplicitStochastic::with_tolerance(op, op, PRODUCT_TOL).unwrap();
        let walked = ImplicitStochastic::with_tolerance(&opaque, &opaque, PRODUCT_TOL).unwrap();
        let fplan = LumpPlan::new(&factored, part).unwrap();
        let tplan = LumpPlan::new(&walked, part).unwrap();
        assert_eq!(fplan.pattern(), tplan.pattern());
        assert_eq!(fplan.nnz(), 6_541_472);
        let n = p.state_count();
        let w: Vec<f64> = (0..n).map(|i| 0.05 + (i as f64 * 0.61).fract()).collect();
        let want = lump_with_plan(
            &walked,
            part,
            &w,
            &tplan,
            &mut LumpWorkspace::for_plan(&tplan),
        )
        .unwrap();
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            stochcdr_linalg::par::set_threads(Some(threads));
            let mut ws = LumpWorkspace::for_plan(&fplan);
            runs.push(lump_with_plan(&factored, part, &w, &fplan, &mut ws).unwrap());
        }
        stochcdr_linalg::par::set_threads(None);
        let worst = runs[0]
            .matrix()
            .data()
            .iter()
            .zip(want.matrix().data())
            .map(|(a, b)| (a - b).abs() / b.abs())
            .fold(0.0, f64::max);
        assert!(worst <= 1e-13, "worst relative gap {worst:e}");
        let (a, b) = (runs[0].matrix().data(), runs[1].matrix().data());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        let (a, b) = (runs[0].transposed().data(), runs[1].transposed().data());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn solve_auto_selects_by_budget() {
        let p = ProductChain::replicated(&tiny_lane(), 2).unwrap();
        // Anything materialized exceeds a one-byte budget.
        let implicit = p.solve_auto(1e-8, Some(1));
        assert!(implicit.unwrap().implicit, "tight budget must go implicit");
        let materialized = p.solve_auto(1e-8, None).unwrap();
        assert!(!materialized.implicit, "no budget must materialize");
    }

    #[test]
    fn cached_lanes_are_shared_across_points() {
        let cache = FactorCache::new();
        let cfgs = [lane_config(), lane_config()];
        let p = ProductChain::cached(&cfgs, &cache).unwrap();
        assert_eq!(p.lanes().len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.by_kind["product.lane"].misses, 1);
        assert_eq!(stats.by_kind["product.lane"].hits, 1);
        // A second product over the same configs touches nothing new.
        let q = ProductChain::cached(&cfgs, &cache).unwrap();
        assert_eq!(cache.stats().by_kind["product.lane"].misses, 1);
        assert_eq!(q.state_count(), p.state_count());
    }

    #[test]
    fn drift_axis_rebuilds_one_lane_from_one_fresh_factor() {
        let cache = FactorCache::new();
        let base = lane_config();
        let moved = {
            let mut b = base.to_builder();
            b = b.drift(3e-2, 8e-2);
            b.build().unwrap()
        };
        ProductChain::cached(&[base.clone(), base.clone()], &cache).unwrap();
        let before = cache.stats();
        // Move lane 1's drift: lane 0 is a pure cache hit, lane 1
        // reassembles — but only the drift table is computed fresh.
        ProductChain::cached(&[base, moved], &cache).unwrap();
        let after = cache.stats();
        assert_eq!(after.by_kind["product.lane"].misses, 2);
        assert_eq!(
            after.by_kind["acc.nr"].misses,
            before.by_kind["acc.nr"].misses + 1,
            "moved drift axis must rebuild the drift factor"
        );
        for kind in [
            "data.branches",
            "pd.nw",
            "pd.decisions",
            "filter.table",
            "row.skeleton",
            "wrap.skeleton",
        ] {
            assert_eq!(
                after.by_kind[kind].misses, before.by_kind[kind].misses,
                "kind {kind} must be shared across the drift axis"
            );
        }
    }

    #[test]
    fn hierarchy_reaches_the_direct_solve_cap() {
        let p = ProductChain::replicated(&lane(), 2).unwrap();
        let parts = p.hierarchy();
        assert!(!parts.is_empty());
        assert_eq!(parts[0].n(), p.state_count());
        for w in parts.windows(2) {
            assert_eq!(w[0].block_count(), w[1].n(), "levels must chain");
            assert!(w[1].block_count() < w[0].block_count());
        }
        assert!(parts.last().unwrap().block_count() <= COARSE_CAP);
    }

    #[test]
    fn composed_first_partition_matches_geometric_halvings() {
        // Composing k halvings of one component must agree with running
        // GeometricCoarsening's per-level maps k times.
        let dims = vec![6usize, 70, 700];
        let (part, coarse) = composed_first_partition(&dims).unwrap();
        assert!(dims.iter().product::<usize>() > FIRST_LEVEL_TARGET);
        assert_eq!(part.n(), 6 * 70 * 700);
        assert_eq!(part.block_count(), coarse.iter().product::<usize>());
        let mut geo = GeometricCoarsening::new(dims.clone(), 2, coarse[2]).levels();
        assert!(!geo.is_empty());
        // Compose the geometric per-level labels into one map.
        let mut label: Vec<usize> = (0..part.n()).collect();
        for g in &geo {
            for l in label.iter_mut() {
                *l = g.block_of(*l);
            }
        }
        // Only component 2 was halved for these dims (6*70*88 < target).
        assert_eq!(coarse[..2], dims[..2]);
        for (s, &l) in label.iter().enumerate() {
            assert_eq!(part.block_of(s), l, "state {s}");
        }
        geo.clear();
    }

    #[test]
    fn degenerate_products_are_rejected() {
        assert!(ProductChain::new(Vec::new()).is_err());
        assert!(ProductChain::replicated(&lane(), 0).is_err());
    }
}
