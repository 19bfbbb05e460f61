//! **Benchmark snapshot** — one JSON file capturing the repository's key
//! performance numbers for regression tracking.
//!
//! Runs the reference operating point (Fig. 5 parameters) end to end —
//! chain build, multigrid stationary solve, and a short Monte-Carlo
//! cross-check — while the `stochcdr-obs` summary sink captures the
//! instrumented internals, then serializes the headline metrics:
//! state count, TPM nonzeros, multigrid cycles and cycle-equivalents
//! (for both the fixed-V reference solve and the adaptive + Krylov
//! accelerated solve), wall times, BER.
//!
//! Usage: `cargo run --release -p stochcdr-bench --bin bench_snapshot --
//! [--out BENCH.json] [--refinement N] [--symbols N] [--spmv-only]`
//! (`scripts/bench_snapshot.sh` wraps this with a dated filename).
//!
//! `--spmv-only` skips everything except the large-operator SpMV probe
//! and writes a mini-snapshot with the `spmv_large_*` fields — the cheap
//! unit `scripts/par_gate.sh` repeats to gate the parallel speedup.

use std::fmt::Write as _;
use std::time::Instant;

use stochcdr::monte_carlo::MonteCarlo;
use stochcdr::{CdrConfig, CdrModel, SolverChoice};
use stochcdr_bench::{FIG5_DRIFT_DEV, FIG5_DRIFT_MEAN, FIG5_SIGMA};
use stochcdr_linalg::par;
use stochcdr_markov::StochasticMatrix;
use stochcdr_obs as obs;
use stochcdr_sweep::{run, SweepAxis, SweepSpec};

/// Route allocations through the accounting wrapper so the snapshot can
/// record allocation counts and heap high-water marks per phase.
#[global_allocator]
static GLOBAL: obs::mem::TrackingAlloc = obs::mem::TrackingAlloc::new();

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Mean seconds per `x·P` product over enough repetitions to fill
/// ~0.3 s of wall clock (calibrated from a single warm rep).
fn time_spmv(p: &StochasticMatrix, x: &[f64], y: &mut [f64]) -> f64 {
    p.step_into(x, y); // warm-up, also the calibration rep
    let t0 = Instant::now();
    p.step_into(x, y);
    let one = t0.elapsed().as_secs_f64();
    let reps = ((0.3 / one.max(1e-9)) as u64).clamp(3, 20_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        p.step_into(x, y);
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Build the refinement-64 probe chain (>500k nonzeros, clears the
/// `linalg::par` nnz gate) and time `x·P` at 1 thread vs `threads`.
/// Returns `(chain, 1t secs, Nt secs)` after asserting bit-identity.
fn spmv_large_probe(threads: usize) -> (stochcdr::CdrChain, f64, f64) {
    let large_config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(64)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("large config");
    let large = CdrModel::new(large_config)
        .build_chain()
        .expect("large chain");
    let ln = large.state_count();
    let lx = vec![1.0 / ln as f64; ln];
    let mut ly1 = vec![0.0; ln];
    let mut lyn = vec![0.0; ln];
    par::set_threads(Some(1));
    let spmv_large_1t_secs = time_spmv(large.tpm(), &lx, &mut ly1);
    par::set_threads(Some(threads));
    let spmv_large_nt_secs = time_spmv(large.tpm(), &lx, &mut lyn);
    assert_eq!(ly1, lyn, "N-thread SpMV must be bit-identical to 1-thread");
    (large, spmv_large_1t_secs, spmv_large_nt_secs)
}

/// `--spmv-only`: run just the large SpMV probe and write a mini-snapshot
/// carrying the `spmv_large_*` fields plus the thread configuration. No
/// solve, no Monte Carlo, no summary sink — this is the unit the CI
/// par-gate repeats best-of-3, so it has to stay cheap.
fn run_spmv_only(out_path: &str) {
    let threads = par::threads();
    par::prewarm(); // pool spawn must not land in the measured windows
    let (large, spmv_large_1t_secs, spmv_large_nt_secs) = spmv_large_probe(threads);
    let spmv_large_speedup = spmv_large_1t_secs / spmv_large_nt_secs;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"stochcdr-bench-snapshot/1\",");
    let _ = writeln!(json, "  \"spmv_only\": true,");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"hw_threads\": {},", par::available());
    let _ = writeln!(json, "  \"spmv_large_states\": {},", large.state_count());
    let _ = writeln!(json, "  \"spmv_large_nnz\": {},", large.nnz());
    let _ = writeln!(json, "  \"spmv_large_1t_secs\": {spmv_large_1t_secs:e},");
    let _ = writeln!(json, "  \"spmv_large_nt_secs\": {spmv_large_nt_secs:e},");
    let _ = writeln!(json, "  \"spmv_large_speedup\": {spmv_large_speedup:.3}");
    json.push_str("}\n");
    obs::json::Json::parse(&json).expect("snapshot serializes to valid JSON");
    std::fs::write(out_path, &json).expect("write snapshot");
    println!(
        "wrote {out_path}: spmv large x{spmv_large_speedup:.2} at {threads} threads \
         ({} hw)",
        par::available()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH.json".to_string());
    if args.iter().any(|a| a == "--spmv-only") {
        run_spmv_only(&out_path);
        return;
    }
    let refinement: usize =
        flag(&args, "--refinement").map_or(16, |v| v.parse().expect("--refinement N"));
    let symbols: u64 =
        flag(&args, "--symbols").map_or(200_000, |v| v.parse().expect("--symbols N"));

    let config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(refinement)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("config");

    // Memory pre-pass, *before* the summary sink is installed: the sink's
    // own bookkeeping (histogram bins, span maps) allocates on timing-
    // dependent paths, so measuring alongside it would make the counts
    // nondeterministic. With obs disabled the main-thread allocation
    // counts of chain build and solve are a pure function of the
    // configuration and thread count, so the gate can compare them
    // exactly; heap high-water marks include worker threads and are
    // advisory. Prewarming the pool first keeps its one-time lazy init
    // (env parse + persistent worker spawn) out of the measured windows.
    par::prewarm();
    obs::mem::reset_peak();
    let mark = obs::mem::thread_mark();
    let mem_chain = CdrModel::new(config.clone()).build_chain().expect("chain");
    let (mem_form_alloc_bytes, mem_form_alloc_count) = mark.delta();
    let mem_form_peak_bytes = obs::mem::peak_bytes();
    obs::mem::reset_peak();
    let mark = obs::mem::thread_mark();
    let _ = mem_chain
        .analyze(SolverChoice::Multigrid)
        .expect("analysis");
    let (mem_solve_alloc_bytes, mem_solve_alloc_count) = mark.delta();
    let mem_solve_peak_bytes = obs::mem::peak_bytes();
    drop(mem_chain);

    obs::install(Box::new(obs::SummarySink::new()));

    let t0 = Instant::now();
    let chain = CdrModel::new(config.clone()).build_chain().expect("chain");
    let form_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let analysis = chain.analyze(SolverChoice::Multigrid).expect("analysis");
    let solve_secs = t0.elapsed().as_secs_f64();

    // Accelerated solve on the same chain: the adaptive V→F→W schedule
    // with the always-on Krylov window (`mgk`). Cycle-equivalents — total
    // fine-grid work in units of one V-cycle — are a pure function of the
    // hierarchy and the controller's decisions, so both solves gate
    // exactly; only the wall times are advisory.
    let t0 = Instant::now();
    let accel = chain
        .analyze(SolverChoice::MgKrylov)
        .expect("accelerated analysis");
    let accel_solve_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mc = MonteCarlo::new(config).run(symbols, 0x5eed);
    let mc_secs = t0.elapsed().as_secs_f64();

    // SpMV microbenchmark: the same `x·P` kernel at 1 thread vs the
    // configured pool. The determinism contract demands bit-identical
    // output either way, which the snapshot asserts before recording the
    // speedup.
    let threads = par::threads();
    obs::gauge("bench.threads", threads as f64);
    let n = chain.state_count();
    let x = vec![1.0 / n as f64; n];
    let mut y1 = vec![0.0; n];
    let mut yn = vec![0.0; n];
    par::set_threads(Some(1));
    let spmv_1t_secs = time_spmv(chain.tpm(), &x, &mut y1);
    par::set_threads(Some(threads));
    let spmv_nt_secs = time_spmv(chain.tpm(), &x, &mut yn);
    assert_eq!(y1, yn, "N-thread SpMV must be bit-identical to 1-thread");
    let spmv_speedup = spmv_1t_secs / spmv_nt_secs;

    // Large-operator SpMV probe. The reference chain above sits *below*
    // the `linalg::par` nnz gate, so its "speedup" only measures that the
    // gate keeps the kernel serial. The refinement-64 probe chain clears
    // the gate: the 1-thread run is the forced-serial (gated) timing and
    // the N-thread run exercises the actual parallel kernel, so the pair
    // records both sides of the dispatch.
    let (large, spmv_large_1t_secs, spmv_large_nt_secs) = spmv_large_probe(threads);
    let ln = large.state_count();
    let spmv_large_speedup = spmv_large_1t_secs / spmv_large_nt_secs;

    // Tiny drift-ppm sweep: exercises the sweep engine's factor cache so
    // the snapshot records how the multigrid hierarchy ("mg.level") and
    // the symbolic lumping plans ("mg.plan") are reused across points.
    // The counts are deterministic (totals do not depend on scheduling),
    // so they gate exactly.
    let sweep_config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(8)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("sweep config");
    let ppm = vec![2000.0, 2040.0, 2080.0, 2120.0];
    let sweep_drift_points = ppm.len();
    let sweep_spec = SweepSpec::new(sweep_config)
        .axis(SweepAxis::DriftPpm(ppm))
        .solver(SolverChoice::Multigrid)
        .tol(1e-10);
    let sweep = run(&sweep_spec).expect("drift sweep");
    let cache_kind = |kind: &str| {
        sweep
            .cache
            .by_kind
            .get(kind)
            .map_or((0, 0), |s| (s.hits, s.misses))
    };
    let (mg_level_hits, mg_level_misses) = cache_kind("mg.level");
    let (mg_plan_hits, mg_plan_misses) = cache_kind("mg.plan");

    // Implicit Kronecker probe: a 2-lane replication solved matrix-free
    // through `ProductChain::solve_implicit`, sized so the joint chain is
    // far larger than anything else in this snapshot while each factor
    // stays tiny. The structural numbers (states, nnz, cycles, residual)
    // are deterministic, but the whole block is recorded as advisory in
    // `bench_gate` — the implicit path is recorded for visibility, not
    // gated, while it is still young.
    // Coarse grid, so the drift is scaled up to stay resolvable (the
    // Fig.-5 drift rounds to zero against a refinement-2 grid step).
    let lane_config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(2)
        .counter_len(4)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(2e-2, 8e-2)
        .build()
        .expect("implicit lane config");
    let lane = CdrModel::new(lane_config)
        .build_chain()
        .expect("implicit lane chain");
    let product = lane.replicate(2).expect("2-lane product");
    let implicit_states = product.state_count();
    let implicit_compact_nnz = product.compact_nnz();
    let implicit_materialized_nnz = product.materialized_nnz();
    let t0 = Instant::now();
    let implicit = product.solve_implicit(1e-10).expect("implicit solve");
    let implicit_solve_secs = t0.elapsed().as_secs_f64();

    // Whole-process memory gauges go into the summary before it detaches.
    obs::mem::publish();
    let summary = obs::uninstall()
        .and_then(|mut s| s.finish())
        .unwrap_or_default();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"stochcdr-bench-snapshot/1\",");
    let _ = writeln!(json, "  \"obs_schema\": \"{}\",", obs::SCHEMA_VERSION);
    let _ = writeln!(json, "  \"refinement\": {refinement},");
    let _ = writeln!(json, "  \"states\": {},", chain.state_count());
    let _ = writeln!(json, "  \"nnz\": {},", chain.nnz());
    let _ = writeln!(json, "  \"solver\": \"{}\",", analysis.solver_name);
    let _ = writeln!(json, "  \"cycles\": {},", analysis.iterations);
    let _ = writeln!(
        json,
        "  \"cycle_equivalents\": {:e},",
        analysis.mg_cycle_equivalents.unwrap_or(f64::NAN)
    );
    let _ = writeln!(json, "  \"residual\": {:e},", analysis.residual);
    let _ = writeln!(json, "  \"accel_solver\": \"{}\",", accel.solver_name);
    let _ = writeln!(json, "  \"accel_cycles\": {},", accel.iterations);
    let _ = writeln!(
        json,
        "  \"accel_cycle_equivalents\": {:e},",
        accel.mg_cycle_equivalents.unwrap_or(f64::NAN)
    );
    let _ = writeln!(json, "  \"accel_residual\": {:e},", accel.residual);
    let _ = writeln!(json, "  \"accel_solve_secs\": {accel_solve_secs:e},");
    let _ = writeln!(json, "  \"ber\": {:e},", analysis.ber);
    let _ = writeln!(json, "  \"mc_symbols\": {symbols},");
    let _ = writeln!(json, "  \"mc_ber\": {:e},", mc.ber);
    let _ = writeln!(json, "  \"mc_cycle_slips\": {},", mc.cycle_slips);
    let _ = writeln!(json, "  \"form_secs\": {form_secs:e},");
    let _ = writeln!(json, "  \"solve_secs\": {solve_secs:e},");
    let _ = writeln!(json, "  \"mc_secs\": {mc_secs:e},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"hw_threads\": {},", par::available());
    let _ = writeln!(json, "  \"spmv_1t_secs\": {spmv_1t_secs:e},");
    let _ = writeln!(json, "  \"spmv_nt_secs\": {spmv_nt_secs:e},");
    let _ = writeln!(json, "  \"spmv_speedup\": {spmv_speedup:.3},");
    let _ = writeln!(json, "  \"spmv_large_states\": {ln},");
    let _ = writeln!(json, "  \"spmv_large_nnz\": {},", large.nnz());
    let _ = writeln!(json, "  \"spmv_large_1t_secs\": {spmv_large_1t_secs:e},");
    let _ = writeln!(json, "  \"spmv_large_nt_secs\": {spmv_large_nt_secs:e},");
    let _ = writeln!(json, "  \"spmv_large_speedup\": {spmv_large_speedup:.3},");
    let phases = analysis.mg_phases.unwrap_or_default();
    let _ = writeln!(json, "  \"solve_setup_secs\": {:e},", phases.setup_secs);
    let _ = writeln!(
        json,
        "  \"solve_aggregate_secs\": {:e},",
        phases.aggregate_secs
    );
    let _ = writeln!(json, "  \"solve_smooth_secs\": {:e},", phases.smooth_secs);
    let _ = writeln!(
        json,
        "  \"solve_coarse_secs\": {:e},",
        phases.coarse_solve_secs
    );
    let _ = writeln!(
        json,
        "  \"solve_disaggregate_secs\": {:e},",
        phases.disaggregate_secs
    );
    let _ = writeln!(json, "  \"mem_form_alloc_count\": {mem_form_alloc_count},");
    let _ = writeln!(json, "  \"mem_form_alloc_bytes\": {mem_form_alloc_bytes},");
    let _ = writeln!(json, "  \"mem_form_peak_bytes\": {mem_form_peak_bytes},");
    let _ = writeln!(
        json,
        "  \"mem_solve_alloc_count\": {mem_solve_alloc_count},"
    );
    let _ = writeln!(
        json,
        "  \"mem_solve_alloc_bytes\": {mem_solve_alloc_bytes},"
    );
    let _ = writeln!(json, "  \"mem_solve_peak_bytes\": {mem_solve_peak_bytes},");
    let _ = writeln!(json, "  \"mem_peak_bytes\": {},", obs::mem::peak_bytes());
    let _ = writeln!(json, "  \"mem_alloc_count\": {},", obs::mem::alloc_count());
    let _ = writeln!(
        json,
        "  \"mem_peak_rss_bytes\": {},",
        obs::mem::peak_rss_bytes()
    );
    let _ = writeln!(json, "  \"sweep_drift_points\": {sweep_drift_points},");
    let _ = writeln!(json, "  \"sweep_mg_level_hits\": {mg_level_hits},");
    let _ = writeln!(json, "  \"sweep_mg_level_misses\": {mg_level_misses},");
    let _ = writeln!(json, "  \"sweep_mg_plan_hits\": {mg_plan_hits},");
    let _ = writeln!(json, "  \"sweep_mg_plan_misses\": {mg_plan_misses},");
    let _ = writeln!(json, "  \"implicit_states\": {implicit_states},");
    let _ = writeln!(json, "  \"implicit_compact_nnz\": {implicit_compact_nnz},");
    let _ = writeln!(
        json,
        "  \"implicit_materialized_nnz\": {implicit_materialized_nnz},"
    );
    let _ = writeln!(
        json,
        "  \"implicit_cycles\": {},",
        implicit.result.iterations()
    );
    let _ = writeln!(
        json,
        "  \"implicit_residual\": {:e},",
        implicit.result.residual()
    );
    let _ = writeln!(
        json,
        "  \"implicit_cycle_equivalents\": {:e},",
        implicit.stats.cycle_equivalents
    );
    let _ = writeln!(json, "  \"implicit_solve_secs\": {implicit_solve_secs:e},");
    json.push_str("  \"obs_summary\": ");
    {
        // Reuse the obs JSON escaper so the embedded table is valid JSON.
        let mut escaped = String::new();
        obs::json::escape_into(&mut escaped, &summary);
        json.push_str(&escaped);
    }
    json.push_str("\n}\n");

    // Self-check: the snapshot must parse back.
    obs::json::Json::parse(&json).expect("snapshot serializes to valid JSON");

    std::fs::write(&out_path, &json).expect("write snapshot");

    println!(
        "wrote {out_path}: {} states, {} cycles (accel {} = {:.2} eq), BER {:.3e}, \
         solve {:.3}s, spmv x{spmv_speedup:.2} (large x{spmv_large_speedup:.2}) at \
         {threads} threads",
        chain.state_count(),
        analysis.iterations,
        accel.iterations,
        accel.mg_cycle_equivalents.unwrap_or(f64::NAN),
        analysis.ber,
        solve_secs
    );
}
