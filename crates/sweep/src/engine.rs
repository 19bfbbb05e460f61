//! Parallel sweep execution with factor caching and warm-started solves.
//!
//! # Determinism contract
//!
//! The engine extends the PR 2 contract to sweeps: for a fixed spec, the
//! returned points (every float included) are **bit-identical for any
//! thread count**. Three mechanisms make that true:
//!
//! * Points are partitioned into fixed chunks of [`WARM_CHUNK`]
//!   consecutive grid indices. Chunks are distributed over `linalg::par`
//!   workers with [`stochcdr_linalg::par::map_tasks`], which returns
//!   results in chunk (= grid) order regardless of which worker ran what.
//! * Warm starting never crosses a chunk boundary: the first point of a
//!   chunk always solves cold, and later points seed from their immediate
//!   predecessor *within the chunk*. The seed is therefore a pure function
//!   of the grid coordinates, not of scheduling.
//! * Each point's assembly, solve, and analysis run sequentially inside
//!   one worker, using the same deterministic kernels as a lone run.
//!
//! The shared [`FactorCache`] does not break the contract: a cache hit
//! returns the same bits a rebuild would produce (factors are themselves
//! deterministic), so scheduling only affects *which* point pays the
//! build cost, never the values.

use std::time::Instant;

use stochcdr::cycle_slip::mean_time_between_slips;
use stochcdr::{CdrAnalysis, CdrChain, CdrModel, Result};
use stochcdr_fsm::{CacheStats, FactorCache};
use stochcdr_linalg::par;
use stochcdr_markov::stationary::StationarySolver;
use stochcdr_obs as obs;

use crate::spec::SweepSpec;
use stochcdr::AssemblyFactors;

/// Number of consecutive grid points per warm-start chain. Also the unit
/// of parallel work distribution. Fixed (not thread-count dependent) so
/// warm-start seeding is deterministic.
pub const WARM_CHUNK: usize = 8;

/// Per-point context handed to [`run_map`] extractors.
#[derive(Debug, Clone)]
pub struct PointCtx {
    /// Flat grid index (grid order: first axis slowest).
    pub flat: usize,
    /// Per-axis value indices.
    pub index: Vec<usize>,
    /// Axis-name/value-label pairs, in axis order.
    pub params: Vec<(String, String)>,
    /// Whether this point's solve was seeded from a neighbor.
    pub warm_started: bool,
    /// Wall-clock seconds spent assembling the chain (advisory: machine-
    /// and cache-state-dependent, excluded from deterministic output).
    pub form_secs: f64,
    /// Wall-clock seconds spent in the stationary solve (advisory).
    pub solve_secs: f64,
}

/// Deterministic per-point results extracted by the default runner.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Flat grid index.
    pub flat: usize,
    /// Per-axis value indices.
    pub index: Vec<usize>,
    /// Axis-name/value-label pairs.
    pub params: Vec<(String, String)>,
    /// Solver that ran at this point.
    pub solver: &'static str,
    /// Chain states after pruning.
    pub states: usize,
    /// Stored TPM transitions.
    pub nnz: usize,
    /// Interpolated bit error rate.
    pub ber: f64,
    /// Discrete (bin-mass) bit error rate.
    pub ber_discrete: f64,
    /// Mean time between cycle slips, in symbol periods.
    pub mtbs: f64,
    /// Solver iterations.
    pub iterations: usize,
    /// Final solve residual.
    pub residual: f64,
    /// Whether the solve was warm-started.
    pub warm_started: bool,
    /// Advisory assembly seconds (not part of the deterministic output).
    pub form_secs: f64,
    /// Advisory solve seconds (not part of the deterministic output).
    pub solve_secs: f64,
}

/// A completed sweep: points in grid order plus cache telemetry.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Per-point results, in grid order.
    pub points: Vec<SweepPoint>,
    /// Factor-cache statistics accumulated over the sweep.
    pub cache: CacheStats,
}

/// Runs a sweep with a fresh [`FactorCache`], extracting the standard
/// [`SweepPoint`] metrics.
///
/// # Errors
///
/// Returns the first error in grid order: an invalid derived
/// configuration, a failed assembly, or a solver failure.
pub fn run(spec: &SweepSpec) -> Result<SweepRun> {
    let cache = FactorCache::new();
    let points = run_with(spec, &cache)?;
    Ok(SweepRun {
        points,
        cache: cache.stats(),
    })
}

/// [`run`] against a caller-owned cache (reusable across sweeps).
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with(spec: &SweepSpec, cache: &FactorCache) -> Result<Vec<SweepPoint>> {
    run_map(spec, cache, &|ctx, chain, analysis| {
        let mtbs = mean_time_between_slips(chain, &analysis.stationary)?;
        Ok(SweepPoint {
            flat: ctx.flat,
            index: ctx.index.clone(),
            params: ctx.params.clone(),
            solver: analysis.solver_name,
            states: chain.state_count(),
            nnz: chain.nnz(),
            ber: analysis.ber,
            ber_discrete: analysis.ber_discrete,
            mtbs,
            iterations: analysis.iterations,
            residual: analysis.residual,
            warm_started: ctx.warm_started,
            form_secs: ctx.form_secs,
            solve_secs: ctx.solve_secs,
        })
    })
}

/// Core engine: runs every grid point and maps `(ctx, chain, analysis)`
/// through `extract`, returning results in grid order.
///
/// Figure/table renderers use this to pull exactly the quantities they
/// print (e.g. a φ-density panel) while sharing the cache, warm-start,
/// and determinism machinery.
///
/// # Errors
///
/// Returns the first error in grid order; later points may still have
/// been computed (and their factors cached) but are discarded.
pub fn run_map<T, F>(spec: &SweepSpec, cache: &FactorCache, extract: &F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&PointCtx, &CdrChain, &CdrAnalysis) -> Result<T> + Sync,
{
    spec.validate()?;
    let total = spec.points();
    let _span = obs::span("sweep.run");
    let chunks = total.div_ceil(WARM_CHUNK);
    // Shared across workers: all-atomic, so parallel chunks tick one
    // heartbeat and a single thread per interval emits the progress
    // event. Inert (one branch per point) unless armed via the CLI.
    let heartbeat = obs::Heartbeat::new("sweep");
    // One task per warm chunk; map_tasks returns them in chunk order and
    // its worker scheduling never leaks into the values (see module docs).
    let per_chunk: Vec<Result<Vec<T>>> = par::map_tasks(chunks, |k| {
        let lo = k * WARM_CHUNK;
        let hi = ((k + 1) * WARM_CHUNK).min(total);
        let mut out = Vec::with_capacity(hi - lo);
        let mut prev_eta: Option<Vec<f64>> = None;
        for flat in lo..hi {
            // Stop at the chunk's first failure: within a chunk, grid
            // order and execution order coincide, so the error the caller
            // sees is the earliest one in grid order.
            let (value, eta) = run_point(spec, cache, flat, prev_eta.take(), extract)?;
            out.push(value);
            prev_eta = Some(eta);
            heartbeat.tick_unit(total as u64);
        }
        Ok(out)
    });
    let mut results = Vec::with_capacity(total);
    for chunk in per_chunk {
        results.extend(chunk?);
    }
    obs::counter("sweep.runs", 1);
    Ok(results)
}

/// Assembles, solves, and analyzes one grid point; returns the extracted
/// value and the stationary distribution (the next point's warm seed).
fn run_point<T, F>(
    spec: &SweepSpec,
    cache: &FactorCache,
    flat: usize,
    warm: Option<Vec<f64>>,
    extract: &F,
) -> Result<(T, Vec<f64>)>
where
    F: Fn(&PointCtx, &CdrChain, &CdrAnalysis) -> Result<T> + Sync,
{
    let _span = obs::span("sweep.point");
    let index = spec.index_of(flat);
    let (config, choice) = spec.resolve(&index)?;

    let form_start = Instant::now();
    let factors = AssemblyFactors::cached(&config, cache);
    let chain = CdrModel::new(config).build_chain_with(&factors)?;
    let parts = if choice.is_multigrid() {
        chain.phase_hierarchy_cached(cache)
    } else {
        Vec::new()
    };
    let form_secs = form_start.elapsed().as_secs_f64();

    // A warm seed is only valid when the neighbor's state space matches
    // (axes like refinement change it). Direct solvers ignore the seed.
    let init = warm.filter(|eta| spec.warm_start && eta.len() == chain.state_count());
    let warm_started = init.is_some();

    // Multigrid points fetch the symbolic lumping plans from the cache
    // too (`mg.plan` kind): points that only move transition values share
    // one plan stack, so their solves skip the symbolic setup entirely.
    let (result, solve_time, solver_name, mg_phases) = if choice.is_multigrid() {
        let plans = chain.mg_plans_cached(cache, &parts);
        let solver = chain.multigrid_solver(choice, spec.tol, parts, Some(plans));
        let solve_start = Instant::now();
        let (result, stats) = solver.solve_with_stats(chain.tpm(), init.as_deref())?;
        (
            result,
            solve_start.elapsed(),
            solver.name(),
            Some(stats.phases),
        )
    } else {
        let solver = chain.solver_from_hierarchy(choice, spec.tol, parts);
        let solve_start = Instant::now();
        let result = solver.solve(chain.tpm(), init.as_deref())?;
        (result, solve_start.elapsed(), solver.name(), None)
    };
    let iterations = result.iterations();
    let residual = result.residual();
    let mut analysis = chain.analysis_from_stationary(
        result.distribution,
        iterations,
        residual,
        solve_time,
        solver_name,
    );
    analysis.mg_phases = mg_phases;

    obs::counter("sweep.points", 1);
    obs::histogram("sweep.point.form_ns", form_secs * 1e9);
    obs::histogram("sweep.point.solve_ns", solve_time.as_nanos() as f64);
    if obs::enabled() {
        obs::event(
            "sweep.point",
            &[
                ("flat", (flat as u64).into()),
                ("states", (chain.state_count() as u64).into()),
                ("iterations", (iterations as u64).into()),
                ("warm", warm_started.into()),
            ],
        );
    }

    let params = spec.params_at(&index);
    let ctx = PointCtx {
        flat,
        index,
        params,
        warm_started,
        form_secs,
        solve_secs: solve_time.as_secs_f64(),
    };
    let value = extract(&ctx, &chain, &analysis)?;
    Ok((value, analysis.stationary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepAxis;
    use stochcdr::{CdrConfig, SolverChoice};

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
    fn single_point_matches_direct_analysis() {
        let spec = SweepSpec::new(base())
            .solver(SolverChoice::Power)
            .tol(1e-10);
        let sweep = run(&spec).unwrap();
        assert_eq!(sweep.points.len(), 1);
        let p = &sweep.points[0];

        let chain = CdrModel::new(base()).build_chain().unwrap();
        let direct = chain.analyze_with_tol(SolverChoice::Power, 1e-10).unwrap();
        assert_eq!(p.ber.to_bits(), direct.ber.to_bits());
        assert_eq!(p.ber_discrete.to_bits(), direct.ber_discrete.to_bits());
        assert_eq!(p.iterations, direct.iterations);
        assert_eq!(p.residual.to_bits(), direct.residual.to_bits());
        assert_eq!(p.states, chain.state_count());
        assert_eq!(p.nnz, chain.nnz());
        assert!(!p.warm_started, "single cold point");
        let mtbs = mean_time_between_slips(&chain, &direct.stationary).unwrap();
        assert_eq!(p.mtbs.to_bits(), mtbs.to_bits());
    }

    #[test]
    fn grid_points_match_hand_loop() {
        let sigmas = [0.06, 0.08, 0.10];
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::SigmaNw(sigmas.to_vec()))
            .solver(SolverChoice::GaussSeidel)
            .tol(1e-10)
            .warm_start(false);
        let sweep = run(&spec).unwrap();
        assert_eq!(sweep.points.len(), 3);
        for (p, &sigma) in sweep.points.iter().zip(&sigmas) {
            let cfg = {
                let mut b = base().to_builder();
                b = b.white(stochcdr_noise::jitter::WhiteJitterSpec {
                    sigma_ui: sigma,
                    ..base().white
                });
                b.build().unwrap()
            };
            let chain = CdrModel::new(cfg).build_chain().unwrap();
            let direct = chain
                .analyze_with_tol(SolverChoice::GaussSeidel, 1e-10)
                .unwrap();
            assert_eq!(p.ber.to_bits(), direct.ber.to_bits(), "sigma {sigma}");
            assert_eq!(p.iterations, direct.iterations, "cold iterations match");
        }
    }

    #[test]
    fn warm_start_agrees_with_cold_to_tolerance() {
        let tol = 1e-12;
        let axis = SweepAxis::DriftPpm(vec![100.0, 120.0, 140.0, 160.0]);
        let cold = run(&SweepSpec::new(base())
            .axis(axis.clone())
            .solver(SolverChoice::GaussSeidel)
            .tol(tol)
            .warm_start(false))
        .unwrap();
        let warm = run(&SweepSpec::new(base())
            .axis(axis)
            .solver(SolverChoice::GaussSeidel)
            .tol(tol)
            .warm_start(true))
        .unwrap();
        assert!(!cold.points[1].warm_started);
        assert!(
            warm.points[1].warm_started,
            "later points in a chunk warm-start"
        );
        for (c, w) in cold.points.iter().zip(&warm.points) {
            // Both solves converged to the same stationary distribution up
            // to the residual tolerance; BER is a bounded functional of η.
            assert!(
                (c.ber - w.ber).abs() <= 1e-6 * c.ber.abs().max(1e-300) + 1e4 * tol,
                "warm/cold BER mismatch: {} vs {}",
                c.ber,
                w.ber
            );
            assert!(c.residual <= tol && w.residual <= tol);
        }
        // Warm starts may not help tiny systems much, but they must never
        // change which points exist or their labels.
        assert_eq!(cold.points.len(), warm.points.len());
    }

    #[test]
    fn refinement_axis_disables_warm_start_across_sizes() {
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::Refinement(vec![2, 4]))
            .solver(SolverChoice::Power)
            .tol(1e-8)
            .warm_start(true);
        let sweep = run(&spec).unwrap();
        assert!(!sweep.points[0].warm_started);
        assert!(
            !sweep.points[1].warm_started,
            "state-count change must fall back to cold"
        );
        assert_ne!(sweep.points[0].states, sweep.points[1].states);
    }

    #[test]
    fn error_reported_in_grid_order() {
        // Point 1 (counter 1) is invalid; the engine must surface it even
        // though point 0 and 2 are fine.
        let spec = SweepSpec::new(base()).axis(SweepAxis::CounterLen(vec![4, 1, 6]));
        let err = run(&spec).unwrap_err();
        assert!(matches!(err, stochcdr::CdrError::Config(_)), "got {err:?}");
    }

    #[test]
    fn drift_sweep_reuses_all_but_the_drift_factor() {
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::DriftPpm(vec![100.0, 110.0, 120.0, 130.0]))
            .solver(SolverChoice::Power)
            .tol(1e-8);
        let sweep = run(&spec).unwrap();
        let stats = &sweep.cache;
        // Cold factors: one miss each for the six non-drift kinds; the
        // drift axis misses once per point.
        assert_eq!(stats.by_kind["acc.nr"].misses, 4);
        for kind in [
            "data.branches",
            "pd.nw",
            "pd.decisions",
            "filter.table",
            "row.skeleton",
            "wrap.skeleton",
        ] {
            assert_eq!(stats.by_kind[kind].misses, 1, "kind {kind}");
            assert_eq!(stats.by_kind[kind].hits, 3, "kind {kind}");
        }
    }

    #[test]
    fn solver_axis_shares_one_plan_stack() {
        // Plans depend on the pattern and partitions only, so the three
        // multigrid variants at one configuration build one plan stack.
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::Solver(vec![
                SolverChoice::Multigrid,
                SolverChoice::MultigridW,
                SolverChoice::MgKrylov,
            ]))
            .tol(1e-10);
        let sweep = run(&spec).unwrap();
        let plan = &sweep.cache.by_kind["mg.plan"];
        assert_eq!((plan.misses, plan.hits), (1, 2));
    }
}
