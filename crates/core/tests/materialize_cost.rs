//! The materialized product path's price matches what it holds:
//! `KroneckerOp::materialize_cost_bytes` is the budget `solve_auto` and
//! `scale --path auto` route on, so it must estimate the heap peak of
//! materializing the joint TPM and validating it as a chain — measured
//! here by the workspace's accounting allocator — within ±20 %.

use stochcdr::{CdrConfig, CdrModel, ProductChain};
use stochcdr_linalg::par;
use stochcdr_markov::StochasticMatrix;
use stochcdr_obs::mem;

#[global_allocator]
static GLOBAL: mem::TrackingAlloc = mem::TrackingAlloc::new();

#[test]
fn materialize_cost_tracks_the_measured_peak() {
    assert!(
        mem::tracking_active(),
        "TrackingAlloc must be installed for this check to mean anything"
    );
    par::set_threads(Some(1));
    // The accuracy-lock lane (phases 8, refinement 2, counter 2): 128
    // states, so the two-lane product has 16,384.
    let cfg = CdrConfig::builder()
        .phases(8)
        .grid_refinement(2)
        .counter_len(2)
        .white_sigma_ui(0.05)
        .drift(2e-2, 8e-2)
        .build()
        .unwrap();
    let lane = CdrModel::new(cfg).build_chain().unwrap();
    let p = ProductChain::replicated(&lane, 2).unwrap();
    assert_eq!(p.state_count(), 16_384);
    let estimate = p.materialize_cost_bytes() as f64;

    mem::reset_peak();
    let base = mem::live_bytes();
    let csr = p.operator().try_materialize(None).expect("no budget");
    let tpm = StochasticMatrix::with_tolerance(csr, 1e-6).unwrap();
    let peak = (mem::peak_bytes() - base) as f64;
    assert_eq!(tpm.nnz(), p.materialized_nnz());
    drop(tpm);
    par::set_threads(None);

    let ratio = estimate / peak;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "estimate {estimate} B vs measured peak {peak} B (ratio {ratio:.3})"
    );
}
