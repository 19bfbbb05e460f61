//! **Parallel-speedup gate** — fails when the worker pool loses to
//! serial on an operator large enough to be split.
//!
//! Builds the Fig.-5 chain at refinement 64 (16,149 states, 544,710
//! nonzeros: above the `linalg::par` nnz cutoff, so the 4-thread product
//! really runs on the pool), times `x·P` at 1 and at 4 worker threads,
//! checks the two products are bit-identical, and keeps the best of
//! three speedups. The floor is tiered by the machine's hardware
//! threads, because a speedup is only measurable where there are cores
//! to run on: at least 4 → ×2.0, 2–3 → ×1.2, 1 → ×0.9 (one core can only
//! show the pool does not lose to serial beyond scheduling noise).
//!
//! Usage: `cargo run --release -p stochcdr-bench --bin par_gate`; exits
//! 1 below the floor.

use std::time::Instant;

use stochcdr::{CdrConfig, CdrModel};
use stochcdr_bench::{FIG5_DRIFT_DEV, FIG5_DRIFT_MEAN, FIG5_SIGMA};
use stochcdr_linalg::par;
use stochcdr_markov::StochasticMatrix;

/// Worker count the parallel side of each pair runs at.
const THREADS: usize = 4;
/// Speedup measurements; the best one is gated.
const REPS: usize = 3;

/// Mean seconds per `x·P` at `threads` workers over enough products to
/// fill ~0.3 s (calibrated from one warm product), plus the product.
fn time_spmv(p: &StochasticMatrix, x: &[f64], threads: usize) -> (f64, Vec<f64>) {
    par::set_threads(Some(threads));
    let mut y = vec![0.0; x.len()];
    p.step_into(x, &mut y); // warm-up
    let t0 = Instant::now();
    p.step_into(x, &mut y);
    let reps = ((0.3 / t0.elapsed().as_secs_f64().max(1e-9)) as u64).clamp(3, 20_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        p.step_into(x, &mut y);
    }
    (t0.elapsed().as_secs_f64() / reps as f64, y)
}

fn main() {
    let config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(64)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("config");
    let chain = CdrModel::new(config).build_chain().expect("chain");
    let n = chain.state_count();
    let x = vec![1.0 / n as f64; n];
    par::set_threads(Some(THREADS));
    par::prewarm(); // the pool spawn must not land in a measured window

    let hw = par::available();
    println!(
        "par gate: x·P on {n} states ({} nnz), 1 vs {THREADS} threads, {hw} hw thread(s)",
        chain.nnz()
    );
    let mut best = f64::NEG_INFINITY;
    for rep in 1..=REPS {
        let (serial, y1) = time_spmv(chain.tpm(), &x, 1);
        let (parallel, yn) = time_spmv(chain.tpm(), &x, THREADS);
        assert!(
            y1.iter().zip(&yn).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{THREADS}-thread product differs from the 1-thread product"
        );
        let speedup = serial / parallel;
        println!("  rep {rep}: 1t {serial:.3e}s  {THREADS}t {parallel:.3e}s  x{speedup:.3}");
        best = best.max(speedup);
    }
    let floor = match hw {
        1 => 0.9,
        2 | 3 => 1.2,
        _ => 2.0,
    };
    if best >= floor {
        println!("par_gate: PASS (best x{best:.3} >= x{floor})");
    } else {
        println!("par_gate: FAIL (best x{best:.3} < required x{floor})");
        std::process::exit(1);
    }
}
