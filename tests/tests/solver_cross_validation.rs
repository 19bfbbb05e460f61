//! Solver cross-validation on CDR chains: every stationary solver must
//! produce the same distribution, and the multigrid hierarchy must respect
//! the aggregation/disaggregation fixed-point property.

use stochcdr::{CdrModel, SolverChoice};
use stochcdr_integration::small_config;
use stochcdr_linalg::vecops;
use stochcdr_markov::lumping::{aggregate, lump_weighted, Partition};
use stochcdr_markov::stationary::{GthSolver, StationarySolver};
use stochcdr_multigrid::GeometricCoarsening;

#[test]
fn all_solvers_produce_the_same_stationary_distribution() {
    let chain = CdrModel::new(small_config()).build_chain().expect("chain");
    let reference = GthSolver::new()
        .solve(chain.tpm(), None)
        .expect("direct")
        .distribution;
    for choice in [
        SolverChoice::Power,
        SolverChoice::Jacobi,
        SolverChoice::GaussSeidel,
        SolverChoice::Multigrid,
        SolverChoice::MultigridW,
    ] {
        let solver = chain.solver_with_tol(choice, 1e-11);
        let result = solver.solve(chain.tpm(), None).expect("solve");
        let d = vecops::dist1(&result.distribution, &reference);
        assert!(d < 1e-7, "{} deviates from GTH by {d:.2e}", solver.name());
    }
}

#[test]
fn multigrid_cycle_counts_beat_one_level_iteration_counts() {
    let chain = CdrModel::new(small_config()).build_chain().expect("chain");
    let mg = chain
        .solver_with_tol(SolverChoice::Multigrid, 1e-10)
        .solve(chain.tpm(), None)
        .expect("mg");
    let pw = chain
        .solver_with_tol(SolverChoice::Power, 1e-10)
        .solve(chain.tpm(), None)
        .expect("power");
    assert!(
        mg.iterations() * 3 < pw.iterations(),
        "multigrid {} cycles vs power {} iterations",
        mg.iterations(),
        pw.iterations()
    );
}

#[test]
fn exact_stationary_is_a_fixed_point_of_aggregation() {
    // The aggregation/disaggregation pair built on the *exact* stationary
    // vector reproduces the aggregated stationary as the coarse stationary
    // — the property that makes the multigrid scheme consistent.
    let chain = CdrModel::new(small_config()).build_chain().expect("chain");
    let eta = GthSolver::new()
        .solve(chain.tpm(), None)
        .expect("direct")
        .distribution;
    let cfg = chain.config();
    let parts = GeometricCoarsening::new(
        vec![cfg.data_model.state_count(), cfg.counter_len, cfg.m_bins()],
        2,
        cfg.m_bins() / 2,
    )
    .levels();
    let part: &Partition = &parts[0];
    let coarse = lump_weighted(chain.tpm(), part, &eta).expect("lump");
    let eta_coarse = GthSolver::new()
        .solve(&coarse, None)
        .expect("coarse solve")
        .distribution;
    let agg = aggregate(part, &eta);
    assert!(
        vecops::dist1(&agg, &eta_coarse) < 1e-8,
        "fixed-point violation: {:.2e}",
        vecops::dist1(&agg, &eta_coarse)
    );
}

#[test]
fn stationary_from_any_start_is_unique() {
    // Irreducible chain: power iteration from wildly different starts
    // converges to the same distribution.
    let chain = CdrModel::new(small_config()).build_chain().expect("chain");
    let n = chain.state_count();
    let solver = chain.solver_with_tol(SolverChoice::GaussSeidel, 1e-11);
    let mut start_a = vec![0.0; n];
    start_a[0] = 1.0;
    let mut start_b = vec![0.0; n];
    start_b[n - 1] = 1.0;
    let a = solver.solve(chain.tpm(), Some(&start_a)).expect("a");
    let b = solver.solve(chain.tpm(), Some(&start_b)).expect("b");
    // Change-based stopping underestimates the error by 1/(1 − rho), so the
    // two runs agree to a looser tolerance than the sweep tolerance; both
    // residuals must still be tiny.
    assert!(a.residual() < 1e-9 && b.residual() < 1e-9);
    assert!(vecops::dist1(&a.distribution, &b.distribution) < 1e-5);
}

#[test]
fn autocorrelation_of_phase_decays() {
    // The recovered-clock phase error decorrelates over the loop time
    // constant; the normalized autocorrelation must decay from 1 toward 0.
    let chain = CdrModel::new(small_config()).build_chain().expect("chain");
    let eta = GthSolver::new()
        .solve(chain.tpm(), None)
        .expect("direct")
        .distribution;
    let phase: Vec<f64> = (0..chain.state_count())
        .map(|s| chain.phase_ui_of(s))
        .collect();
    let rho = stochcdr_markov::functional::autocorrelation(chain.tpm(), &eta, &phase, 200)
        .expect("autocorrelation");
    assert!((rho[0] - 1.0).abs() < 1e-9);
    assert!(
        rho[200].abs() < 0.1,
        "rho(200) = {} should be near 0",
        rho[200]
    );
    // Short-lag correlation is high: the phase moves at most G per symbol.
    assert!(rho[1] > 0.5, "rho(1) = {}", rho[1]);
}

/// The default `analyze` model (8 phases, counter 8) at `refinement`:
/// the Fig-5 noise, or the stiff dead-zone chain (dead zone UI/4,
/// σ(n_w) 0.01 UI, drift 2e-4 ± 2e-3 UI).
fn counter8_config(refinement: usize, stiff: bool) -> stochcdr::CdrConfig {
    let b = stochcdr::CdrConfig::builder()
        .phases(8)
        .grid_refinement(refinement)
        .counter_len(8);
    let b = if stiff {
        b.white_sigma_ui(0.01)
            .drift(2e-4, 2e-3)
            .dead_zone_bins(2 * refinement)
    } else {
        b.white_sigma_ui(0.05).drift(2e-3, 8e-3)
    };
    b.build().expect("valid config")
}

/// The tail oracle. BER and MTBS rest on stationary entries far below the
/// residual tolerance (down to ~1e-116 here), which an L1 residual of
/// 1e-12 says nothing about. The multiplicative cycles keep relative
/// accuracy in the tail: `mg` and `mgw` must match GTH's BER, discrete
/// BER, finite MTBS and the smallest bin of both densities to 1e-6
/// relative, on GTH's support. r8 and r16 stay on V-cycles; stiff r32's
/// V-cycles stall and `mg` finishes on W-cycles.
#[test]
fn multigrid_tail_measures_match_gth() {
    use stochcdr::cycle_slip::mean_time_between_slips;
    use stochcdr::density::PhiDensity;

    fn close(what: &str, got: f64, want: f64) {
        let rel = ((got - want) / want).abs();
        assert!(rel <= 1e-6, "{what}: {got:e} vs GTH {want:e} ({rel:.1e})");
    }
    fn smallest_bin_close(what: &str, got: &PhiDensity, want: &PhiDensity) {
        let offsets = |d: &PhiDensity| d.bins().iter().map(|b| b.0).collect::<Vec<_>>();
        assert_eq!(offsets(got), offsets(want), "{what}: support differs");
        let smallest = (0..want.bins().len())
            .min_by(|&i, &j| want.bins()[i].1.total_cmp(&want.bins()[j].1))
            .expect("non-empty density");
        let (o, w) = want.bins()[smallest];
        close(&format!("{what} bin {o}"), got.bins()[smallest].1, w);
    }

    for (refinement, stiff) in [(8, false), (16, false), (32, true)] {
        let chain = CdrModel::new(counter8_config(refinement, stiff))
            .build_chain()
            .expect("chain");
        let exact = chain.analyze(SolverChoice::Direct).expect("GTH");
        let exact_mtbs = mean_time_between_slips(&chain, &exact.stationary);
        for choice in [SolverChoice::Multigrid, SolverChoice::MultigridW] {
            let a = chain.analyze(choice).expect("multigrid");
            let at = format!("{} at r{refinement} (stiff: {stiff})", a.solver_name);
            close(&format!("{at} BER"), a.ber, exact.ber);
            close(
                &format!("{at} ber_discrete"),
                a.ber_discrete,
                exact.ber_discrete,
            );
            let mtbs = mean_time_between_slips(&chain, &a.stationary);
            match &exact_mtbs {
                Ok(want) => close(&format!("{at} MTBS"), mtbs.expect("finite"), *want),
                Err(_) => assert!(mtbs.is_err(), "{at}: GTH's slip rate is exactly zero"),
            }
            smallest_bin_close(&format!("{at} phi"), &a.phi_density, &exact.phi_density);
            smallest_bin_close(
                &format!("{at} pd input"),
                &a.pd_input_density,
                &exact.pd_input_density,
            );
        }
    }
}
