//! Prepared multigrid hierarchy: the symbolic/numeric split.
//!
//! The aggregation/disaggregation scheme rebuilds every coarse chain from
//! the current iterate *each cycle* — the scheme is nonlinear — but the
//! coarse **patterns** never change: they are pure functions of the fine
//! sparsity pattern and the partition sequence. [`MgHierarchy`] exploits
//! that by running the symbolic analysis once
//! ([`stochcdr_markov::lumping::LumpPlan`] per level) and reducing every
//! subsequent cycle to numeric refreshes into preallocated storage:
//!
//! * per level: the coarse [`StochasticMatrix`] (pattern fixed, values
//!   rewritten), the lumping workspace (block weights + per-state shares),
//!   the restricted iterate, and smoothing scratch;
//! * at the coarsest level: one dense scratch matrix for the in-place GTH
//!   elimination plus its smoothing/residual buffers;
//! * at the finest level: a residual scratch vector.
//!
//! After [`MultigridSolver::prepare`](crate::MultigridSolver::prepare)
//! returns, [`MultigridSolver::cycle`](crate::MultigridSolver::cycle)
//! performs **zero heap allocations** (with instrumentation disabled and a
//! single worker thread; at higher thread counts the persistent pool's
//! workers are spawned once, ahead of the first cycle, and parked between
//! dispatches). Values produced are bit-identical to the from-scratch
//! path at every thread count.
//!
//! **Invalidation rules**: a hierarchy is valid for exactly one (fine
//! pattern, partition sequence) pair. Changing transition *values* never
//! invalidates it; changing the sparsity pattern or any partition requires
//! a fresh `prepare`. [`MgHierarchy::matches`] is the guard callers use
//! when recycling hierarchies across solves (e.g. warm-started sweeps).

use std::sync::Arc;

use stochcdr_linalg::DenseMatrix;
use stochcdr_markov::lumping::{lump_with_plan, LumpPlan, LumpWorkspace, Partition};
use stochcdr_markov::{MarkovError, Result, StochasticMatrix, StochasticOp};

/// Wall-clock seconds accumulated per multigrid phase.
///
/// Collected unconditionally (two `Instant` reads per phase — negligible
/// next to the numeric work) so phase attribution does not require
/// instrumentation to be on. Wall times are advisory: they vary run to
/// run even though the arithmetic is bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MgPhases {
    /// One-time hierarchy construction: symbolic analysis (when not
    /// injected from a cache) plus the initial numeric refresh.
    pub setup_secs: f64,
    /// Pre- and post-smoothing sweeps across all levels.
    pub smooth_secs: f64,
    /// Coarse-chain numeric refresh + iterate restriction.
    pub aggregate_secs: f64,
    /// Prolongation of coarse corrections back to finer levels.
    pub disaggregate_secs: f64,
    /// Direct (GTH) solves at the coarsest level.
    pub coarse_solve_secs: f64,
    /// Per-cycle residual evaluation on the fine chain.
    pub residual_secs: f64,
}

impl MgPhases {
    /// Total seconds across the cycle-loop phases (setup excluded).
    pub fn cycle_total_secs(&self) -> f64 {
        self.smooth_secs
            + self.aggregate_secs
            + self.disaggregate_secs
            + self.coarse_solve_secs
            + self.residual_secs
    }
}

/// Per-level preallocated state: the coarse chain with its fixed pattern,
/// the lumping workspace, the restricted iterate, and smoothing scratch
/// sized for the *fine* side of this level's transfer.
pub(crate) struct MgLevel {
    /// Coarse chain for this level; values refreshed each cycle.
    pub(crate) coarse: StochasticMatrix,
    /// Block weights + per-state shares from the latest refresh.
    pub(crate) ws: LumpWorkspace,
    /// Restricted iterate (length = this level's block count).
    pub(crate) xc: Vec<f64>,
    /// Diagonal scratch for smoothing the fine side of this transfer.
    pub(crate) diag: Vec<f64>,
    /// Sweep scratch for smoothing the fine side of this transfer.
    pub(crate) sm: Vec<f64>,
}

/// Coarsest-level scratch: a dense matrix reused by the in-place GTH
/// elimination plus smoothing/residual buffers for the fallback path.
pub(crate) struct CoarseWs {
    /// Dense scratch the elimination destroys each coarse solve.
    pub(crate) dense: DenseMatrix,
    /// Residual scratch (coarsest size).
    pub(crate) resid: Vec<f64>,
    /// Diagonal scratch for the reducible-fallback smoothing.
    pub(crate) diag: Vec<f64>,
    /// Sweep scratch for the reducible-fallback smoothing.
    pub(crate) sm: Vec<f64>,
}

/// A prepared multigrid hierarchy: cached symbolic plans plus every buffer
/// the cycle loop needs, so cycling is numeric-only and allocation-free.
///
/// Built by [`MultigridSolver::prepare`](crate::MultigridSolver::prepare);
/// driven by [`MultigridSolver::cycle`](crate::MultigridSolver::cycle) or
/// [`MultigridSolver::solve_prepared`](crate::MultigridSolver::solve_prepared).
pub struct MgHierarchy {
    /// One symbolic plan per transfer, fine to coarse. Shared (`Arc`) so
    /// sweep drivers can cache plans across solver instances.
    pub(crate) plans: Arc<Vec<LumpPlan>>,
    pub(crate) levels: Vec<MgLevel>,
    pub(crate) gth: CoarseWs,
    /// Fine-level residual scratch.
    pub(crate) resid: Vec<f64>,
    pub(crate) fine_n: usize,
    /// Fine-level apply cost in scalar multiply-adds, the weight the
    /// cycle-equivalents accounting uses for level 0: the stored nnz of a
    /// materialized chain; for a matrix-free one the operator's true
    /// per-apply work ([`apply_cost`](stochcdr_linalg::TransitionOp::apply_cost)),
    /// which its compact `nnz` badly understates.
    pub(crate) fine_work: usize,
    pub(crate) phases: MgPhases,
}

impl MgHierarchy {
    /// Builds the numeric side of a hierarchy from prevalidated plans:
    /// allocates every level's storage and refreshes each coarse chain
    /// with uniform weights. The fine chain may be materialized or
    /// matrix-free; every coarse level is materialized.
    pub(crate) fn build(
        fine: &dyn StochasticOp,
        partitions: &[Partition],
        plans: Arc<Vec<LumpPlan>>,
    ) -> Result<Self> {
        if plans.len() != partitions.len() {
            return Err(MarkovError::InvalidArgument(format!(
                "hierarchy has {} plans for {} partitions",
                plans.len(),
                partitions.len()
            )));
        }
        let mut levels: Vec<MgLevel> = Vec::with_capacity(plans.len());
        for (k, plan) in plans.iter().enumerate() {
            let level: &dyn StochasticOp = match levels.last() {
                None => fine,
                Some(prev) => &prev.coarse,
            };
            if !plan.matches(level) {
                return Err(MarkovError::InvalidArgument(format!(
                    "plan {k} expects a {}-state/{}-entry fine chain, level has {} states",
                    plan.fine_n(),
                    plan.fine_nnz(),
                    level.rows()
                )));
            }
            let mut ws = LumpWorkspace::for_plan(plan);
            let ones = vec![1.0; plan.fine_n()];
            let coarse = lump_with_plan(level, &partitions[k], &ones, plan, &mut ws)?;
            levels.push(MgLevel {
                coarse,
                ws,
                xc: vec![0.0; plan.block_count()],
                diag: vec![0.0; plan.fine_n()],
                sm: vec![0.0; plan.fine_n()],
            });
        }
        let n = fine.rows();
        let nc = levels.last().map_or(n, |l| l.coarse.n());
        Ok(MgHierarchy {
            plans,
            levels,
            gth: CoarseWs {
                dense: DenseMatrix::zeros(nc, nc),
                resid: vec![0.0; nc],
                diag: vec![0.0; nc],
                sm: vec![0.0; nc],
            },
            resid: vec![0.0; n],
            fine_n: n,
            fine_work: fine.apply_cost(),
            phases: MgPhases::default(),
        })
    }

    /// Number of levels including the fine grid.
    pub fn levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// State count at each level, fine first.
    pub fn level_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.levels.len() + 1);
        sizes.push(self.fine_n);
        sizes.extend(self.levels.iter().map(|l| l.coarse.n()));
        sizes
    }

    /// The shared symbolic plans, for caching across solver instances.
    pub fn plans(&self) -> &Arc<Vec<LumpPlan>> {
        &self.plans
    }

    /// Whether this hierarchy is valid for `fine`: the same state count
    /// and a finest plan that [matches](LumpPlan::matches) the chain's
    /// storage and pattern size. (Values may differ freely — the symbolic
    /// side only depends on the pattern.)
    pub fn matches(&self, fine: &dyn StochasticOp) -> bool {
        self.plans
            .first()
            .map_or(self.fine_n == fine.rows(), |plan| plan.matches(fine))
    }

    /// Phase-time totals accumulated so far (setup plus all cycles run
    /// against this hierarchy).
    pub fn phases(&self) -> &MgPhases {
        &self.phases
    }
}
