//! Multi-lane product-form CDR models and the implicit Kronecker solve
//! path.
//!
//! The paper's headline scale — ~10^6 states — is out of reach for any
//! path that materializes the joint TPM: a product of two ~10^3-state
//! lanes has ~10^6 states but ~10^8 stored transitions (nnz multiplies,
//! not adds). Product-form front-ends (multi-lane collaborative CDR,
//! auxiliary frequency loops) compose per-lane chains with a Kronecker
//! product, and [`ProductChain`] keeps that product *implicit*: the fine
//! grid lives as a [`KroneckerOp`] holding only the per-lane CSRs, and
//! the multigrid solver smooths through mode-by-mode factor products and
//! refreshes every coarse level by sum factorization over the factors.
//! The partitions halve the inner lanes' phase bins, so each coarse level
//! stays in factor form too — the outer lanes times one small inner
//! block per outer state ([`FactoredChain`](stochcdr_markov::FactoredChain)),
//! applied by the same mode products; a level is materialized only once
//! the partitions have aggregated every outer lane.
//!
//! There is one solve, [`solve_implicit`](ProductChain::solve_implicit):
//! it matches or beats materializing the joint TPM at every product
//! size, in time and in memory (DESIGN.md §13), and it is bit-identical
//! at any thread count.

use stochcdr_fsm::KroneckerOp;
use stochcdr_markov::lumping::Partition;
use stochcdr_markov::stationary::{StationaryResult, StationarySolver};
use stochcdr_markov::ImplicitStochastic;
use stochcdr_multigrid::{GeometricCoarsening, MultigridSolver, MultigridStats, Smoother};
use stochcdr_obs as obs;

use crate::{CdrChain, CdrError, Result};

/// TPM-validation tolerance for product chains. Each lane's rows sum to
/// one within the assembly tolerance (1e-9); the product's row sums are
/// products of lane row sums, so the joint drift stays far below this.
const PRODUCT_TOL: f64 = 1e-6;

/// Coarsest-level state cap — matches the multigrid builder's default
/// direct-solve cap.
const COARSE_CAP: usize = 4096;

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

    /// The multigrid coarsening hierarchy for this product space: plain
    /// geometric coarsening, one halving of one lane per level,
    /// innermost lane first, down to 2 states per lane until the coarsest
    /// product is at or under the direct-solve cap. Every level halves
    /// phase bins as the paper's coarsening does, and while the halvings
    /// stay in the inner lanes the coarse levels stay in factor form.
    ///
    /// One halving per level is a measured choice: a composed first
    /// partition (several halvings in one) kept a materialized first
    /// coarse level small, but with factored coarse levels it only cost
    /// cycles — 36 against 24 on the scaling table's 574,564- and
    /// 1,612,900-state rows, and more time on both (DESIGN.md §13). At
    /// least one level is always built, so even a product under the cap
    /// cycles instead of running one dense elimination of the whole
    /// joint chain.
    pub fn hierarchy(&self) -> Vec<Partition> {
        let dims: Vec<usize> = self.lanes.iter().map(CdrChain::state_count).collect();
        let mut schedule = Vec::new();
        let mut sim = dims.clone();
        for c in (0..sim.len()).rev() {
            if sim.iter().product::<usize>() <= COARSE_CAP && !schedule.is_empty() {
                break;
            }
            if sim[c] > 2 {
                schedule.push((c, 2usize));
                sim[c] = 2;
            }
        }
        if schedule.is_empty() {
            // Tiny product, nothing above 2 to halve further except one
            // last cut; halve the innermost non-trivial lane once.
            if let Some(c) = (0..dims.len()).rev().find(|&c| dims[c] > 1) {
                schedule.push((c, dims[c].div_ceil(2)));
            }
        }
        if schedule.is_empty() {
            return Vec::new();
        }
        GeometricCoarsening::with_schedule(dims, schedule).levels()
    }

    /// The project-standard solver for product chains: fixed V-cycles
    /// with Krylov window acceleration (window
    /// [`Self::KRYLOV_RESTART`]) over the paper's damped-Jacobi
    /// smoother (`ω = 0.8`, fully parallel on the implicit fine grid),
    /// 1 pre-/2 post-sweeps. The extrapolation is a pure function of
    /// the residual history, so the acceleration preserves the
    /// thread-count determinism contract.
    ///
    /// V rather than a deeper cycle is a measured choice: on the deep
    /// (~14-level) hierarchies these product chains build, a (truncated)
    /// W-cycle cost ~2.2+ V-equivalents when it was measured, because the
    /// first lumped level, then materialized, was as expensive to visit
    /// as the implicit fine grid itself. With the Krylov window armed the
    /// deeper cycles no longer buy convergence — on the 574k-state
    /// two-lane chain at tol 1e-8, plain V and a schedule escalating to
    /// W both converge in 34–37 cycles, so plain V wins outright: 36.2
    /// cycle-equivalents and 115 s vs 75.5 / 180 s.
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
    /// by mode), and the coarse levels stay in factor form while outer
    /// lanes remain.
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
        obs::event(
            "core.product_solved",
            &[
                ("states", self.op.dim().into()),
                ("lanes", self.lanes.len().into()),
                ("cycles", result.iterations().into()),
                ("residual", result.residual().into()),
            ],
        );
        Ok(ProductSolve {
            result,
            stats,
            solver_name: solver.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_model::DataModel;
    use crate::{CdrConfig, CdrModel};
    use stochcdr_linalg::{vecops, CsrMatrix, TransitionOp};
    use stochcdr_markov::lumping::{lump_factored_into, lump_with_plan, LumpPlan, LumpWorkspace};
    use stochcdr_markov::stationary::GthSolver;
    use stochcdr_markov::{FactoredChain, StochasticMatrix, StochasticOp};

    fn lane() -> CdrChain {
        let cfg = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .data_model(DataModel::two_state(0.7, 0.8).unwrap())
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        CdrModel::new(cfg).build_chain().unwrap()
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
        // The reference materializes the joint TPM and runs the same
        // solver on it. The implicit solve scales vectors where the
        // materialized chain stores scaled values, applies the product
        // mode by mode and refreshes level 0 by sum factorization, so the
        // two agree to rounding: the same hierarchy and cycle count, and
        // distributions within 1e-13 in L1.
        let p = ProductChain::replicated(&tiny_lane(), 2).unwrap();
        let tpm =
            StochasticMatrix::with_tolerance(p.operator().materialize(), PRODUCT_TOL).unwrap();
        let (a, a_stats) = p.solver(1e-10).solve_with_stats(&tpm, None).unwrap();
        let b = p.solve_implicit(1e-10).unwrap();
        assert_eq!(a_stats.level_sizes, b.stats.level_sizes);
        assert_eq!(a.iterations(), b.result.iterations());
        assert!(a.residual() <= 1e-10 && b.result.residual() <= 1e-10);
        let gap = vecops::dist1(&a.distribution, &b.result.distribution);
        assert!(gap <= 1e-13, "solves differ by {gap:e} in L1");
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

    /// FNV-1a over a vector's f64 bit patterns, as `stochcdr scale`
    /// prints it.
    fn fnv1a(v: &[f64]) -> u64 {
        v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn implicit_solves_are_bitwise_across_thread_counts() {
        // The factored refresh, the mode products and the scaling each
        // write every output on one worker in a fixed order. The cycle
        // count, the final residual and π are also pinned bit for bit, so
        // a kernel rewrite that reorders a sum fails here.
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
        let r = &first.result;
        assert_eq!(r.iterations(), 7);
        assert_eq!(r.residual().to_bits(), 0x3eac_d1b0_4f6e_b49b);
        assert_eq!(fnv1a(&r.distribution), 0x54f6_cc74_2509_8b9b);
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

    /// Positive pseudo-random weights for level `k` of a hierarchy.
    fn level_weights(n: usize, k: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.05 + (i as f64 * 0.61 + k as f64 * 0.17).fract())
            .collect()
    }

    /// Lumps `fine` level by level through `plans`, level `k` under
    /// [`level_weights`], into whichever chain each plan refreshes.
    fn lump_levels(
        fine: &dyn StochasticOp,
        parts: &[Partition],
        plans: &[LumpPlan],
    ) -> Vec<Box<dyn StochasticOp>> {
        let mut levels: Vec<Box<dyn StochasticOp>> = Vec::new();
        for (k, (part, plan)) in parts.iter().zip(plans).enumerate() {
            let next: Box<dyn StochasticOp> = {
                let level = levels.last().map_or(fine, |l| l.as_ref());
                let w = level_weights(part.n(), k);
                let mut ws = LumpWorkspace::for_plan(plan);
                match FactoredChain::for_plan(plan) {
                    Some(mut f) => {
                        lump_factored_into(level, part, &w, plan, &mut ws, &mut f).unwrap();
                        Box::new(f)
                    }
                    None => Box::new(lump_with_plan(level, part, &w, plan, &mut ws).unwrap()),
                }
            };
            levels.push(next);
        }
        levels
    }

    /// Largest relative gap between the rows of `got` and the stored
    /// rows of `want`, whose patterns must agree.
    fn worst_row_gap(got: &dyn StochasticOp, want: &CsrMatrix) -> f64 {
        let mut worst = 0.0f64;
        for r in 0..want.rows() {
            let mut k = want.indptr()[r];
            got.for_each_in_row(r, &mut |c, v| {
                assert_eq!(c, want.indices()[k] as usize, "row {r}");
                let w = want.data()[k];
                worst = worst.max((v - w).abs() / w.abs());
                k += 1;
            });
            assert_eq!(k, want.indptr()[r + 1], "row {r} length");
        }
        worst
    }

    /// FNV-1a over every row entry's column and value bits.
    fn row_bits(op: &dyn StochasticOp) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in 0..op.rows() {
            op.for_each_in_row(r, &mut |c, v| {
                for x in [c as u64, v.to_bits()] {
                    h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
                }
            });
        }
        h
    }

    /// Checks every factored level of the implicit chain over `op` under
    /// `parts` against the traversal-then-gather hierarchy over the same
    /// product with its structure hidden: the same rows within 1e-13
    /// relative under the same weights, and the same bits at 1 and 4
    /// workers. Returns the factored and the oracle plans.
    fn check_levels_against_the_oracle(
        op: &KroneckerOp,
        parts: &[Partition],
    ) -> (Vec<LumpPlan>, Vec<LumpPlan>) {
        let opaque = Opaque(op);
        let factored = ImplicitStochastic::with_tolerance(op, op, PRODUCT_TOL).unwrap();
        let walked = ImplicitStochastic::with_tolerance(&opaque, &opaque, PRODUCT_TOL).unwrap();
        let fplans = LumpPlan::build_stack(&factored, parts).unwrap();
        let tplans = LumpPlan::build_stack(&walked, parts).unwrap();
        let want = lump_levels(&walked, parts, &tplans);
        let mut hashes = Vec::new();
        for threads in [1usize, 4] {
            stochcdr_linalg::par::set_threads(Some(threads));
            let got = lump_levels(&factored, parts, &fplans);
            stochcdr_linalg::par::set_threads(None);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                let gap = worst_row_gap(g.as_ref(), w.csr().expect("the oracle materializes"));
                assert!(gap <= 1e-13, "level {}: worst relative gap {gap:e}", k + 1);
            }
            hashes.push(got.iter().map(|l| row_bits(l.as_ref())).collect::<Vec<_>>());
        }
        assert_eq!(hashes[0], hashes[1], "1 and 4 workers diverge");
        (fplans, tplans)
    }

    #[test]
    fn factored_refresh_matches_the_traversal_refresh_on_the_lane_pair() {
        // The implicit65k lane pair (two 256-state lanes) and its seven
        // partitions, each halving lane 1: every coarse level stays in
        // factor form over lane 0, and each agrees with the traversal and
        // gather refreshes to 1e-13 relative — they differ only in
        // summation order and in the row scale (lane sums multiplied
        // versus product entries summed) — bit for bit at 1 and 4
        // workers. Level 1 holds 415,744 block values on a 1,624-entry
        // inner pattern where the materialized level holds 6,541,472.
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
        let parts = p.hierarchy();
        assert_eq!(parts.len(), 7);
        let (fplans, tplans) = check_levels_against_the_oracle(p.operator(), &parts);
        assert!(fplans.iter().all(|plan| plan.factored_output().is_some()));
        assert_eq!(fplans[0].pattern().1.len(), 1_624);
        assert_eq!(fplans[0].nnz(), 415_744);
        assert_eq!(tplans[0].nnz(), 6_541_472);
    }

    /// A reflecting 8-state walk, up 0.6 and down 0.4: a small lane with
    /// a geometric stationary vector.
    fn walk8() -> CsrMatrix {
        let mut coo = stochcdr_linalg::CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i.saturating_sub(1), 0.4);
            coo.push(i, (i + 1).min(7), 0.6);
        }
        coo.to_csr()
    }

    #[test]
    fn three_lane_hierarchies_fold_an_outer_lane() {
        // Lanes (tiny CDR lane, 8-state walk, tiny CDR lane): halving
        // lane 2 keeps lanes 0 and 1 outer (a two-lane outer mode
        // product); the first halving of lane 1 then folds it into the
        // inner block, leaving lane 0 outer. Every level is checked
        // against the oracle, and the solve against π_0 ⊗ π_1 ⊗ π_2
        // within the bounds of the two-lane accuracy lock.
        let cdr = tiny_lane();
        assert_eq!(cdr.state_count(), 32);
        let lanes = vec![
            cdr.tpm().matrix().clone(),
            walk8(),
            cdr.tpm().matrix().clone(),
        ];
        let dims: Vec<usize> = lanes.iter().map(CsrMatrix::rows).collect();
        let op = KroneckerOp::new(lanes);
        let parts = GeometricCoarsening::with_schedule(dims.clone(), vec![(2, 2), (1, 2)]).levels();
        let (fplans, _) = check_levels_against_the_oracle(&op, &parts);
        let kept: Vec<usize> = fplans
            .iter()
            .map(|plan| plan.factored_output().map_or(0, |(outer, _)| outer.len()))
            .collect();
        assert_eq!(kept, [2, 2, 2, 2, 1, 1]);

        let exact: Vec<Vec<f64>> = op
            .factors()
            .iter()
            .map(|f| {
                let chain = StochasticMatrix::with_tolerance(f.clone(), PRODUCT_TOL).unwrap();
                GthSolver::new().solve(&chain, None).unwrap().distribution
            })
            .collect();
        let imp = ImplicitStochastic::with_tolerance(&op, op.transposed(), PRODUCT_TOL).unwrap();
        let solver = MultigridSolver::builder(parts)
            .smoother(Smoother::Jacobi { omega: 0.8 })
            .tol(1e-13)
            .max_cycles(2_000)
            .krylov_window(ProductChain::KRYLOV_RESTART)
            .build();
        let (r, _) = solver.solve_with_stats(&imp, None).unwrap();
        // Pinned bit for bit: this solve runs a two-lane outer mode
        // product and a fold, which the lane-pair pin does not.
        assert_eq!(r.iterations(), 24);
        assert_eq!(r.residual().to_bits(), 0x3cd1_c13f_9a00_0000);
        assert_eq!(fnv1a(&r.distribution), 0x64fc_48ca_b343_3d42);
        let mut l1 = 0.0f64;
        let mut worst = 0.0f64;
        for (k, &g) in r.distribution.iter().enumerate() {
            let (i, j, l) = (
                k / (dims[1] * dims[2]),
                (k / dims[2]) % dims[1],
                k % dims[2],
            );
            let want = exact[0][i] * exact[1][j] * exact[2][l];
            l1 += (g - want).abs();
            if want > 0.0 {
                worst = worst.max((g - want).abs() / want);
            }
        }
        assert!(l1 <= 1e-12, "L1 error {l1:e}");
        assert!(worst <= 1e-6, "worst relative entry error {worst:e}");
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
    fn degenerate_products_are_rejected() {
        assert!(ProductChain::new(Vec::new()).is_err());
        assert!(ProductChain::replicated(&lane(), 0).is_err());
    }
}
