//! Regression pins for the paper's reference operating point (Fig. 5
//! noise parameters at counter length 8).
//!
//! Performance work must not change a single bit of the solve: the
//! cycle count and the final residual are pinned exactly. Any arithmetic
//! reordering — in the plan replay, the workspace smoothers, or the
//! in-place coarsest solve — shows up here as a changed bit, not as a
//! tolerance drift. Only a change to the solver's schedule (its sweeps
//! or its stall rule) moves these pins.
//!
//! The same family at refinement 32 is the point the repository quotes
//! its answer at; [`reference_answer_is_pinned`] holds every
//! deterministic figure of that answer exactly. The stiff dead-zone chain
//! is the one whose V-cycles stall;
//! [`stiff_chain_switches_to_w_cycles_at_the_stall`] pins that switch.

use std::sync::{Mutex, MutexGuard};

use stochcdr::analysis::DEFAULT_TOL;
use stochcdr::monte_carlo::MonteCarlo;
use stochcdr::{CdrConfig, CdrModel, SolverChoice, StationarySolver};
use stochcdr_bench::{FIG5_DRIFT_DEV, FIG5_DRIFT_MEAN, FIG5_SIGMA};
use stochcdr_linalg::par;
use stochcdr_obs as obs;
use stochcdr_sweep::{SweepAxis, SweepSpec};

/// Counts allocations so the reference answer can pin the main-thread
/// allocation counts of chain build and solve.
#[global_allocator]
static GLOBAL: obs::mem::TrackingAlloc = obs::mem::TrackingAlloc::new();

/// Serializes this file's tests: they set the process-wide worker count,
/// which the allocation pins need held fixed, and a pool worker spawned
/// inside an allocation-count window would be charged to it.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// The guard protects no data, so a test that panicked holding it
/// leaves nothing inconsistent and the others still run.
fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn reference_config(refinement: usize) -> CdrConfig {
    CdrConfig::builder()
        .phases(8)
        .grid_refinement(refinement)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("config")
}

#[test]
fn reference_point_cycle_count_and_residual_are_bit_stable() {
    let _pool = pool_lock();
    let chain = CdrModel::new(reference_config(16))
        .build_chain()
        .expect("chain");
    let analysis = chain.analyze(SolverChoice::Multigrid).expect("analysis");

    assert_eq!(analysis.iterations, 11, "multigrid cycle count drifted");
    assert_eq!(
        analysis.residual, 1.7285216793214047e-13,
        "final residual is no longer bit-identical"
    );
    // The phase accounting must cover the phases the solve actually ran.
    let phases = analysis.mg_phases.expect("multigrid solve records phases");
    assert!(phases.setup_secs > 0.0);
    assert!(phases.cycle_total_secs() > 0.0);
}

/// The convergence telemetry must be as bit-stable as the solve itself:
/// the per-cycle residual trajectory — and everything the
/// [`ConvergenceTrace`](stochcdr_markov::stationary::ConvergenceTrace)
/// derives from it — is identical across worker-thread counts.
#[test]
fn residual_trajectory_is_bit_identical_across_thread_counts() {
    let _pool = pool_lock();
    let run = |threads: usize| {
        par::set_threads(Some(threads));
        let chain = CdrModel::new(reference_config(16))
            .build_chain()
            .expect("chain");
        let solver = chain.multigrid_solver(
            SolverChoice::Multigrid,
            1e-12,
            chain.phase_hierarchy(),
            None,
        );
        let out = solver.solve_with_stats(chain.tpm(), None).expect("solve");
        par::set_threads(None);
        out
    };
    let (r1, s1) = run(1);
    let (r4, s4) = run(4);

    // Trajectory: every cycle's residual, bit for bit.
    assert_eq!(
        s1.residual_history, s4.residual_history,
        "trajectory drifted"
    );
    assert_eq!(r1.report, r4.report, "solve report drifted across threads");
    assert_eq!(
        s1.convergence, s4.convergence,
        "convergence summary drifted"
    );

    // And it is the trajectory the reference pin describes.
    assert_eq!(r1.report.iterations, 11);
    assert_eq!(r1.report.residual, 1.7285216793214047e-13);
    assert_eq!(s1.residual_history.len(), 11);
    // A healthy multigrid solve at the reference point never stalls, and
    // its average contraction is well below the 0.5 stall threshold.
    assert!(!s1.convergence.stalled);
    assert_eq!(s1.convergence.reductions, 10);
    assert!(s1.convergence.ewma_reduction.expect("reductions seen") < 0.5);
}

/// The paper's answer at the reference point, every deterministic
/// figure exact: the plain V-cycle and Krylov-windowed solves, BER, a
/// Monte-Carlo cross-check, the SpMV probe chain, the factor-cache
/// traffic of a short drift sweep, and the main-thread allocation counts
/// of build and solve. All of it is a function of configuration alone,
/// so any drift is a behavior change — at every worker count.
#[test]
fn reference_answer_is_pinned() {
    let _pool = pool_lock();
    assert!(obs::mem::tracking_active());

    // Allocation counts, with obs disabled (its bookkeeping allocates on
    // timing-dependent paths) and the pool spawned before the window.
    // The worker count is pinned: resolving it from the hardware reads
    // the OS on every kernel dispatch, and those reads allocate.
    let config = reference_config(32);
    par::set_threads(Some(par::threads()));
    par::prewarm();
    let mark = obs::mem::thread_mark();
    let chain = CdrModel::new(config.clone()).build_chain().expect("chain");
    let (_, build_allocs) = mark.delta();
    let mark = obs::mem::thread_mark();
    let mg = chain.analyze(SolverChoice::Multigrid).expect("mg");
    let (_, solve_allocs) = mark.delta();
    par::set_threads(None);
    // Release codegen elides five of the build's allocations.
    let expected_build = if cfg!(debug_assertions) { 1238 } else { 1233 };
    assert_eq!(build_allocs, expected_build, "chain build allocations");
    assert_eq!(solve_allocs, 723, "solve allocations");

    assert_eq!((chain.state_count(), chain.nnz()), (8108, 190_589));
    assert_eq!(mg.solver_name, "multigrid-v");
    assert_eq!(mg.iterations, 7);
    assert_eq!(mg.mg_cycle_equivalents, Some(7.0));
    assert_eq!(mg.residual, 5.078162288891241e-13);
    assert_eq!(mg.ber, 1.789626982217282e-13);
    // Its V-cycles never stall, so the solve never leaves them.
    let (_, stats) = chain
        .multigrid_solver(
            SolverChoice::Multigrid,
            DEFAULT_TOL,
            chain.phase_hierarchy(),
            None,
        )
        .solve_with_stats(chain.tpm(), None)
        .expect("mg stats");
    assert!(!stats.convergence.stalled);

    let mgk = chain.analyze(SolverChoice::MgKrylov).expect("mgk");
    assert_eq!(mgk.solver_name, "multigrid-krylov");
    assert_eq!(mgk.iterations, 14);
    assert_eq!(mgk.mg_cycle_equivalents, Some(14.63553181343764));
    assert_eq!(mgk.residual, 9.25531513992184e-13);

    let mc = MonteCarlo::new(config).run(200_000, 0x5eed);
    assert_eq!((mc.ber, mc.cycle_slips), (0.0, 0));

    // The SpMV probe chain clears the parallel nnz cutoff, so its product
    // really runs split across workers at 4 threads.
    let probe = CdrModel::new(reference_config(64))
        .build_chain()
        .expect("probe chain");
    assert_eq!((probe.state_count(), probe.nnz()), (16_149, 544_710));
    let n = probe.state_count();
    let x = vec![1.0 / n as f64; n];
    let step = |threads: usize| {
        par::set_threads(Some(threads));
        let mut y = vec![0.0; n];
        probe.tpm().step_into(&x, &mut y);
        par::set_threads(None);
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(step(1), step(4), "4-thread SpMV differs from 1-thread");

    let sweep = stochcdr_sweep::run(
        &SweepSpec::new(reference_config(8))
            .axis(SweepAxis::DriftPpm(vec![2000.0, 2040.0, 2080.0, 2120.0]))
            .solver(SolverChoice::Multigrid)
            .tol(1e-10),
    )
    .expect("drift sweep");
    let traffic = |kind: &str| {
        let s = &sweep.cache.by_kind[kind];
        (s.hits, s.misses)
    };
    assert_eq!(traffic("mg.level"), (18, 6));
    assert_eq!(traffic("mg.plan"), (3, 1));
}

/// FNV-1a over a vector's f64 bit patterns, as `stochcdr scale` prints
/// it: equal checksums mean equal bits.
fn fnv1a(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The stiff dead-zone chain at refinement 32 (1,040 states; the
/// `stiff128` benchmark workload's model): dead zone UI/4, σ(n_w) 0.01 UI,
/// drift 2e-4 ± 2e-3 UI, counter 8. Its V-cycles stall, and `mg` runs
/// W-cycles from the cycle the stall detector trips. The switch reads
/// only the residual history, so every figure is exact at any worker
/// count: the pool's default (CI runs this file at 2 and 8 threads), 1
/// and 4. The reference solves above never stall, so they never switch.
#[test]
fn stiff_chain_switches_to_w_cycles_at_the_stall() {
    let _pool = pool_lock();
    let config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(32)
        .counter_len(8)
        .white_sigma_ui(0.01)
        .drift(2e-4, 2e-3)
        .dead_zone_bins(64)
        .build()
        .expect("stiff config");
    let chain = CdrModel::new(config).build_chain().expect("chain");
    assert_eq!(chain.state_count(), 1040);
    let solver = chain.multigrid_solver(
        SolverChoice::Multigrid,
        DEFAULT_TOL,
        chain.phase_hierarchy(),
        None,
    );
    assert_eq!(solver.name(), "multigrid-v");
    for threads in [None, Some(1), Some(4)] {
        par::set_threads(threads);
        let (r, stats) = solver.solve_with_stats(chain.tpm(), None).expect("solve");
        par::set_threads(None);
        assert_eq!(r.report.iterations, 41, "cycles at {threads:?} threads");
        assert_eq!(stats.convergence.stalled_at, Some(3), "switch cycle");
        assert_eq!(r.report.residual, 9.439232270993245e-13);
        assert_eq!(stats.cycle_equivalents, 148.93350789494562);
        assert_eq!(fnv1a(&r.distribution), 0x8999_ab52_48e0_4777);
    }
}
