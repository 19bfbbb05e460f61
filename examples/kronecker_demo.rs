//! Kronecker product-form representation — solving a composed chain
//! without materializing its transition matrix.
//!
//! The paper's outlook: "For solving more complex models, we are looking
//! into using hierarchical generalized Kronecker-algebra ...
//! representations." For a system of *independent* components the joint
//! TPM is the Kronecker product of the component TPMs; this example builds
//! a bank of eight independent CDR-like phase processes, represents the
//! 16.7-million-state joint chain as a [`KroneckerOp`] with a few hundred
//! stored entries, and computes joint stationary statistics matrix-free.
//!
//! ```sh
//! cargo run --release -p stochcdr-examples --bin kronecker_demo
//! ```

use stochcdr_fsm::KroneckerOp;
use stochcdr_linalg::{CooMatrix, CsrMatrix};
use stochcdr_markov::stationary::{GthSolver, PowerIteration, StationarySolver};
use stochcdr_markov::StochasticMatrix;

/// A coarse 8-bin phase-wander chain (random walk with recentring drift),
/// the per-lane component of the bank.
fn lane_chain(bias: f64) -> CsrMatrix {
    let m = 8;
    let mut coo = CooMatrix::new(m, m);
    for i in 0..m {
        // Pull toward the center bin with strength `bias`.
        let center = (m / 2) as f64;
        let pull = (center - i as f64) / center * bias;
        let up = (0.3 + pull).clamp(0.05, 0.95);
        let down = (0.3 - pull).clamp(0.05, 0.95);
        let stay = 1.0 - up - down;
        coo.push(i, (i + 1) % m, up);
        coo.push(i, (i + m - 1) % m, down);
        coo.push(i, i, stay);
    }
    coo.to_csr()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lanes = 8usize;
    let factors: Vec<CsrMatrix> = (0..lanes)
        .map(|k| lane_chain(0.1 + 0.02 * k as f64))
        .collect();
    let op = KroneckerOp::new(factors.clone());
    println!(
        "joint chain: {} states; product form stores {} entries vs 8^8 * 3^8 (infeasible) materialized",
        op.dim(),
        op.compact_nnz()
    );

    // Matrix-free stationary solve on the product form would need the full
    // 16.7M-entry vector; demonstrate on the first four lanes (4096 states)
    // and verify against the product of per-lane stationaries.
    // `KroneckerOp` implements `TransitionOp`, so the solver consumes the
    // product form directly — no adapter and no materialization.
    let small = KroneckerOp::new(factors[..4].to_vec());
    let joint = PowerIteration::new(1e-12, 200_000).solve_op(&small, None)?;
    println!(
        "matrix-free power iteration: {} states, {} iterations",
        small.dim(),
        joint.iterations()
    );

    // Independence check: the joint stationary factorizes.
    let mut product = vec![1.0f64; small.dim()];
    let mut stride = small.dim();
    for f in &factors[..4] {
        let eta = GthSolver::new()
            .solve(&StochasticMatrix::new(f.clone())?, None)?
            .distribution;
        stride /= f.rows();
        for (i, p) in product.iter_mut().enumerate() {
            *p *= eta[(i / stride) % f.rows()];
        }
    }
    let err: f64 = joint
        .distribution
        .iter()
        .zip(&product)
        .map(|(a, b)| (a - b).abs())
        .sum();
    println!("L1 deviation from the product of per-lane stationaries: {err:.2e}");
    assert!(err < 1e-8, "product-form result must factorize");
    println!("product-form representation verified.");
    Ok(())
}
