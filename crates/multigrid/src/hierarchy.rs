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

use stochcdr_linalg::{DenseMatrix, TransitionOp};
use stochcdr_markov::lumping::{
    lump_op_with_plan, lump_with_plan, LumpPlan, LumpWorkspace, Partition,
};
use stochcdr_markov::{ImplicitStochastic, MarkovError, Result, StochasticMatrix};

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
    pub(crate) fine_nnz: usize,
    /// Fine-level apply cost in scalar multiply-adds, the weight the
    /// cycle-equivalents accounting uses for level 0. Equals `fine_nnz`
    /// for materialized chains; for the implicit path it is the
    /// operator's true per-apply work ([`TransitionOp::apply_cost`]),
    /// which the compact `nnz` badly understates.
    pub(crate) fine_work: usize,
    pub(crate) phases: MgPhases,
}

impl MgHierarchy {
    /// Builds the numeric side of a hierarchy from prevalidated plans:
    /// allocates every level's storage and refreshes each coarse chain
    /// with uniform weights.
    pub(crate) fn build(
        p: &StochasticMatrix,
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
            let (fine_n, fine_nnz) = match levels.last() {
                None => (p.n(), p.nnz()),
                Some(prev) => (prev.coarse.n(), prev.coarse.nnz()),
            };
            if plan.fine_n() != fine_n || plan.fine_nnz() != fine_nnz {
                return Err(MarkovError::InvalidArgument(format!(
                    "plan {k} expects a {}-state/{}-entry fine chain, level has {fine_n}/{fine_nnz}",
                    plan.fine_n(),
                    plan.fine_nnz()
                )));
            }
            let mut ws = LumpWorkspace::for_plan(plan);
            let ones = vec![1.0; plan.fine_n()];
            let coarse = {
                let fine = match levels.last() {
                    None => p,
                    Some(prev) => &prev.coarse,
                };
                lump_with_plan(fine, &partitions[k], &ones, plan, &mut ws)?
            };
            levels.push(MgLevel {
                coarse,
                ws,
                xc: vec![0.0; plan.block_count()],
                diag: vec![0.0; plan.fine_n()],
                sm: vec![0.0; plan.fine_n()],
            });
        }
        let nc = levels.last().map_or(p.n(), |l| l.coarse.n());
        Ok(MgHierarchy {
            plans,
            levels,
            gth: CoarseWs {
                dense: DenseMatrix::zeros(nc, nc),
                resid: vec![0.0; nc],
                diag: vec![0.0; nc],
                sm: vec![0.0; nc],
            },
            resid: vec![0.0; p.n()],
            fine_n: p.n(),
            fine_nnz: p.nnz(),
            fine_work: p.nnz(),
            phases: MgPhases::default(),
        })
    }

    /// Builds a hierarchy whose finest level is a matrix-free
    /// [`ImplicitStochastic`] chain: the level-0 transfer uses an
    /// operator-built plan ([`LumpPlan::from_op`]) that re-traverses the
    /// operator's rows instead of gathering from materialized storage, so
    /// only the coarse levels are ever materialized. When `injected` is
    /// `None` the symbolic analysis runs here, interleaved with the coarse
    /// chain construction (each plan needs the previous level's pattern).
    ///
    /// The level-0 smoothing diagonal is filled once from the operator —
    /// the implicit chain's values are fixed for the borrow's lifetime, so
    /// cycles never recompute it (and the Kronecker diagonal expansion
    /// allocates, which the allocation-free cycle loop must avoid).
    pub(crate) fn build_op(
        imp: &ImplicitStochastic<'_>,
        partitions: &[Partition],
        injected: Option<Arc<Vec<LumpPlan>>>,
    ) -> Result<Self> {
        if partitions.is_empty() {
            return Err(MarkovError::InvalidArgument(
                "implicit fine grid needs at least one coarsening level: the coarsest \
                 level must be materialized for the direct solve"
                    .into(),
            ));
        }
        if let Some(pl) = &injected {
            if pl.len() != partitions.len() {
                return Err(MarkovError::InvalidArgument(format!(
                    "hierarchy has {} plans for {} partitions",
                    pl.len(),
                    partitions.len()
                )));
            }
        }
        let mut built: Vec<LumpPlan> = Vec::with_capacity(partitions.len());
        let mut levels: Vec<MgLevel> = Vec::with_capacity(partitions.len());
        for (k, part) in partitions.iter().enumerate() {
            let plan: &LumpPlan = match &injected {
                Some(pl) => &pl[k],
                None => {
                    let p = if k == 0 {
                        LumpPlan::from_op(imp, part)?
                    } else {
                        LumpPlan::build(&levels[k - 1].coarse, part)?
                    };
                    built.push(p);
                    built.last().expect("just pushed")
                }
            };
            if plan.is_operator_plan() != (k == 0) {
                return Err(MarkovError::InvalidArgument(format!(
                    "plan {k}: the finest plan must be operator-built (LumpPlan::from_op), \
                     coarser plans gather-built"
                )));
            }
            let fine_n = match levels.last() {
                None => imp.n(),
                Some(prev) => prev.coarse.n(),
            };
            if plan.fine_n() != fine_n {
                return Err(MarkovError::InvalidArgument(format!(
                    "plan {k} expects a {}-state fine chain, level has {fine_n}",
                    plan.fine_n()
                )));
            }
            if let Some(prev_nnz) = levels.last().map(|l| l.coarse.nnz()) {
                if plan.fine_nnz() != prev_nnz {
                    return Err(MarkovError::InvalidArgument(format!(
                        "plan {k} expects {} fine entries, level has {prev_nnz}",
                        plan.fine_nnz()
                    )));
                }
            }
            let mut ws = LumpWorkspace::for_plan(plan);
            let ones = vec![1.0; plan.fine_n()];
            let coarse = if k == 0 {
                lump_op_with_plan(imp, part, &ones, plan, &mut ws)?
            } else {
                let fine = &levels[k - 1].coarse;
                lump_with_plan(fine, part, &ones, plan, &mut ws)?
            };
            levels.push(MgLevel {
                coarse,
                ws,
                xc: vec![0.0; plan.block_count()],
                diag: vec![0.0; plan.fine_n()],
                sm: vec![0.0; plan.fine_n()],
            });
        }
        imp.diagonal_into(&mut levels[0].diag);
        let plans = match injected {
            Some(pl) => pl,
            None => Arc::new(built),
        };
        let fine_nnz = plans[0].fine_nnz();
        let nc = levels.last().expect("non-empty").coarse.n();
        Ok(MgHierarchy {
            plans,
            levels,
            gth: CoarseWs {
                dense: DenseMatrix::zeros(nc, nc),
                resid: vec![0.0; nc],
                diag: vec![0.0; nc],
                sm: vec![0.0; nc],
            },
            resid: vec![0.0; imp.n()],
            fine_n: imp.n(),
            fine_nnz,
            fine_work: imp.apply_cost(),
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

    /// Whether this hierarchy is valid for `p`: same state count and same
    /// sparsity-pattern size as the chain it was prepared for. (Values may
    /// differ freely — the symbolic side only depends on the pattern.)
    pub fn matches(&self, p: &StochasticMatrix) -> bool {
        self.fine_n == p.n() && self.fine_nnz == p.nnz()
    }

    /// Whether this hierarchy is valid for the implicit chain `imp`: same
    /// state count and an operator-built finest plan. The entry count
    /// cannot be cross-checked cheaply (product-form operators report
    /// their compact storage size, while the plan counts the logical
    /// entries it traverses), so callers must keep the operator's sparsity
    /// pattern fixed across reuse — the same contract
    /// [`matches`](Self::matches) states for values vs. patterns.
    pub fn matches_op(&self, imp: &ImplicitStochastic<'_>) -> bool {
        self.fine_n == imp.n() && self.plans.first().is_some_and(LumpPlan::is_operator_plan)
    }

    /// Phase-time totals accumulated so far (setup plus all cycles run
    /// against this hierarchy).
    pub fn phases(&self) -> &MgPhases {
        &self.phases
    }
}
