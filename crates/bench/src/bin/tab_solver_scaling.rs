//! **Solver scaling table** — the in-text performance claims.
//!
//! The paper's numerical-methods section claims a dedicated multigrid
//! method "capable of solving million state problems in less than an hour
//! on a beefed-up workstation", with per-figure annotations reporting the
//! state-space size, iteration counts, matrix-form time, and solve time.
//! This table regenerates those claims on the same model family: the
//! state space grows by refining the phase grid (and widening the data/
//! counter FSMs for the largest rows), and each stationary solver runs at
//! the same tolerance.
//!
//! Each size row is a solver-axis sweep on the `stochcdr-sweep` engine;
//! a factor cache shared across every row reuses the assembly factors
//! (and the multigrid hierarchy) between solver runs on the same chain.
//!
//! Usage: `cargo run --release -p stochcdr-bench --bin tab_solver_scaling
//! [--large] [--check]`. The `--large` flag adds the half-million-state
//! row (several minutes of runtime); `--check` diffs the output against
//! `results/tab_solver_scaling.txt` instead of printing.

use std::fmt::Write as _;
use std::time::Instant;

use stochcdr::{report, CdrConfig, CdrModel, SolverChoice};
use stochcdr_bench::{golden, FIG5_DRIFT_DEV, FIG5_DRIFT_MEAN, FIG5_SIGMA};
use stochcdr_noise::sonet::DataSpec;
use stochcdr_obs as obs;
use stochcdr_sweep::{run_map, FactorCache, SweepAxis, SweepSpec};

/// Counts heap bytes so each implicit row can report its own peak.
#[global_allocator]
static GLOBAL: obs::mem::TrackingAlloc = obs::mem::TrackingAlloc::new();

/// Solvers benchmarked on the smooth scaling family. Adding a solver to
/// either table is one line here — the solve/print plumbing below goes
/// through the `SolverChoice` registry.
const SCALING_SOLVERS: &[SolverChoice] = &[
    SolverChoice::Power,
    SolverChoice::GaussSeidel,
    SolverChoice::Multigrid,
];

/// Solvers benchmarked on the stiff dead-zone family (adds the W-cycle).
const STIFF_SOLVERS: &[SolverChoice] = &[
    SolverChoice::Power,
    SolverChoice::GaussSeidel,
    SolverChoice::Multigrid,
    SolverChoice::MultigridW,
];

/// One table row per solver on `config`, appended to `out` behind a
/// `--- N states ---` banner. Runs as a solver-axis sweep sharing
/// `cache`; solves stay cold so iteration counts match standalone runs.
fn bench_solvers(
    out: &mut String,
    config: CdrConfig,
    choices: &[SolverChoice],
    tol: f64,
    cache: &FactorCache,
    banner_form_time: bool,
) {
    let spec = SweepSpec::new(config)
        .axis(SweepAxis::Solver(choices.to_vec()))
        .tol(tol)
        .warm_start(false);
    let rows = run_map(&spec, cache, &|ctx, chain, analysis| {
        Ok((
            report::solver_row(
                analysis.solver_name,
                chain.state_count(),
                chain.nnz(),
                analysis.iterations,
                analysis.residual,
                ctx.solve_secs,
                analysis.mg_phases.as_ref(),
            ),
            chain.state_count(),
            chain.nnz(),
            ctx.form_secs,
        ))
    })
    .expect("solver sweep");
    let (_, states, nnz, form_secs) = rows[0].clone();
    if banner_form_time {
        let _ = writeln!(
            out,
            "--- {states} states ({nnz} nnz), matrix form time {form_secs:.2}s ---"
        );
    } else {
        let _ = writeln!(out, "--- {states} states ({nnz} nnz) ---");
    }
    for (row, ..) in &rows {
        let _ = writeln!(out, "{row}");
    }
}

/// A byte count in the table's glued `MiB` format — the golden
/// comparator masks this token shape (machine-dependent, like timings).
fn fmt_mib(bytes: u64) -> String {
    format!("{:.1}MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// One row of the implicit Kronecker section: `lanes` replicas of a
/// single-lane chain solved matrix-free on the product-form fine grid.
/// The joint TPM is never materialized — "dense nnz" reports what it
/// *would* store — and the peak heap shows the footprint the implicit
/// path actually pays. Cycles, cycle-equivalents, the Krylov accept
/// ratio, and the residual are deterministic (the implicit path runs
/// V-cycles with always-on Krylov extrapolation); solve time and peak
/// heap are masked in the golden diff. The family grows by widening the lane's loop counter (the
/// refinement is pinned at 8, the coarsest grid the Fig.-5 drift still
/// resolves).
fn bench_implicit(out: &mut String, counter: usize, lanes: usize, tol: f64) {
    // The row's own heap high-water mark: the peak since this reset,
    // less what the earlier sections still hold live.
    obs::mem::reset_peak();
    let base = obs::mem::live_bytes();
    let config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(8)
        .counter_len(counter)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("implicit lane config");
    let lane = CdrModel::new(config).build_chain().expect("lane chain");
    let product = lane.replicate(lanes).expect("product chain");
    let t0 = Instant::now();
    let solve = product.solve_implicit(tol).expect("implicit solve");
    let secs = t0.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "{lanes} x {:<6} {:>12} {:>11} {:>12.3e} {:>7} {:>10.2} {:>5}/{:<2} {:>12.2e} {:>9.2}s {:>10}",
        lane.state_count(),
        product.state_count(),
        product.compact_nnz(),
        product.materialized_nnz() as f64,
        solve.result.iterations(),
        solve.stats.cycle_equivalents,
        solve.stats.krylov_accepts,
        solve.stats.krylov_windows,
        solve.result.residual(),
        secs,
        fmt_mib(obs::mem::peak_bytes().saturating_sub(base)),
    );
}

fn scaled_config(refinement: usize, run_len: usize, counter: usize) -> CdrConfig {
    CdrConfig::builder()
        .phases(8)
        .grid_refinement(refinement)
        .counter_len(counter)
        .data(DataSpec::new(0.5, run_len).expect("data spec"))
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("config")
}

fn render(large: bool) -> String {
    let tol = 1e-10;
    // (refinement, data run, counter) -> states = run * counter * 8 * refinement.
    let mut sizes: Vec<(usize, usize, usize)> =
        vec![(8, 4, 8), (16, 4, 8), (64, 4, 8), (128, 8, 8), (256, 8, 16)];
    if large {
        sizes.push((512, 16, 16));
    }
    let cache = FactorCache::new();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Solver scaling on the CDR model family (tol = {tol:.0e}) ===\n"
    );
    let _ = writeln!(out, "{}", report::solver_header());
    for (refinement, run, counter) in sizes {
        bench_solvers(
            &mut out,
            scaled_config(refinement, run, counter),
            SCALING_SOLVERS,
            tol,
            &cache,
            true,
        );
    }
    // Part 2: a *stiff* operating point — dead-zone phase detector, so the
    // phase diffuses freely (no corrections) across a quarter-UI plateau.
    // This is the regime where one-level methods stall at 1 − O(1/m²) and
    // the paper's multigrid shines.
    let _ = writeln!(
        out,
        "\n=== Stiff (dead-zone) operating point: dead zone = UI/4 ===\n"
    );
    let _ = writeln!(out, "{}", report::solver_header());
    for refinement in [32usize, 64, 128] {
        let config = CdrConfig::builder()
            .phases(8)
            .grid_refinement(refinement)
            .counter_len(8)
            .dead_zone_bins(2 * refinement) // a quarter UI on each side
            .white_sigma_ui(0.01)
            .drift(2e-4, 2e-3)
            .build()
            .expect("stiff config");
        bench_solvers(&mut out, config, STIFF_SOLVERS, tol, &cache, false);
    }

    // Part 3: the implicit Kronecker path — multi-lane product-form
    // chains whose fine grid is never materialized. The interesting
    // columns are the stored-vs-dense nonzero gap and the peak heap: the
    // million-state row's materialized TPM would need gigabytes, while
    // the matrix-free solve completes in well under one.
    let _ = writeln!(
        out,
        "\n=== Implicit Kronecker product scaling (matrix-free fine grid, tol = 1e-8) ===\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>11} {:>12} {:>7} {:>10} {:>8} {:>12} {:>10} {:>10}",
        "lanes",
        "jointstates",
        "stored-nnz",
        "dense-nnz",
        "cycles",
        "cyc-equiv",
        "krylov",
        "residual",
        "solve",
        "peak-heap"
    );
    for counter in [2usize, 3, 5] {
        bench_implicit(&mut out, counter, 2, 1e-8);
    }

    let _ = writeln!(
        out,
        "\npaper claim reproduced in shape: multigrid iteration counts stay flat as the \
         state space grows, while one-level methods scale with the grid — decisively so \
         on the stiff dead-zone chains. The implicit Kronecker rows extend the same \
         solver past the materialization wall: the million-state product solves in a \
         footprint the dense nonzero count says it could never materialize."
    );
    out
}

fn main() {
    let large = std::env::args().any(|a| a == "--large");
    golden::print_or_check("tab_solver_scaling", &render(large));
}
