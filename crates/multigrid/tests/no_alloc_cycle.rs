//! Proof of the symbolic/numeric split's headline claim: after
//! [`MultigridSolver::prepare`], a cycle performs **zero heap
//! allocations**.
//!
//! Every coarse operator, transpose, scatter map, and scratch vector is
//! owned by the [`MgHierarchy`]; the numeric refresh and the smoothers
//! write into those buffers in place. The workspace's accounting
//! allocator ([`stochcdr_obs::mem::TrackingAlloc`]) tallies allocations
//! across warm cycles and demands none — the same instrument CI's
//! mem-smoke job runs.

use std::sync::{Mutex, MutexGuard, PoisonError};

use stochcdr_fsm::KroneckerOp;
use stochcdr_linalg::{par, CooMatrix};
use stochcdr_markov::lumping::Partition;
use stochcdr_markov::{ImplicitStochastic, StochasticMatrix};
use stochcdr_multigrid::{CycleKind, MultigridSolver, Smoother};
use stochcdr_obs::mem;

#[global_allocator]
static GLOBAL: mem::TrackingAlloc = mem::TrackingAlloc::new();

/// The allocation counter and `par::set_threads` are process-wide, so the
/// proofs must not overlap: each test holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ring chain of `n` states with a small self loop.
fn ring(n: usize) -> StochasticMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, (i + 1) % n, 0.55);
        coo.push(i, (i + n - 1) % n, 0.35);
        coo.push(i, i, 0.1);
    }
    StochasticMatrix::new(coo.to_csr()).unwrap()
}

/// Pairwise partitions halving the state count `levels` times.
fn pair_partitions(mut n: usize, levels: usize) -> Vec<Partition> {
    let mut parts = Vec::new();
    for _ in 0..levels {
        parts.push(Partition::from_labels((0..n).map(|i| i / 2).collect()).unwrap());
        n /= 2;
    }
    parts
}

#[test]
fn warm_cycles_do_not_allocate() {
    let _serial = serial();
    // Obs off and a serial pool: the claim is about the solver's own
    // buffers, not about thread-spawn or sink bookkeeping.
    let _ = stochcdr_obs::uninstall();
    par::set_threads(Some(1));

    let n = 64;
    let p = ring(n);
    assert!(
        mem::tracking_active(),
        "TrackingAlloc must be installed for this proof to mean anything"
    );
    for kind in [CycleKind::V, CycleKind::W] {
        let solver = MultigridSolver::builder(pair_partitions(n, 3))
            .cycle(kind)
            .smoother(Smoother::GaussSeidel)
            .pre_sweeps(1)
            .post_sweeps(2)
            .tol(1e-12)
            .build();
        let mut h = solver.prepare(&p).unwrap();
        let mut x = vec![1.0 / n as f64; n];
        // Warm cycles: touch every code path (refresh, recursion, GTH)
        // once before the measured window.
        for _ in 0..3 {
            solver.cycle(&p, &mut h, &mut x).unwrap();
        }
        let allocated = mem::min_alloc_delta(
            || {
                let res = solver.cycle(&p, &mut h, &mut x).unwrap();
                assert!(res.is_finite());
            },
            5,
        );
        assert_eq!(
            allocated, 0,
            "{kind:?}-cycle allocated {allocated} times after setup"
        );
    }
    par::set_threads(None);
}

/// The claim holds for traced, parallel cycles too: with a sink
/// installed, every pool dispatch profiles its workers (`par.worker`
/// spans, busy counters, a utilization gauge), and none of that may
/// touch the heap once warm. The ring is large enough (98,304 nnz, over
/// `PARALLEL_NNZ_CUTOFF`) that the fine level's kernels dispatch to the
/// pool; two workers are the caller plus one pool thread.
#[test]
fn traced_two_thread_cycles_do_not_allocate() {
    let _serial = serial();
    par::set_threads(Some(2));
    let n = 1 << 15;
    let p = ring(n);
    assert!(p.nnz() > par::PARALLEL_NNZ_CUTOFF);
    assert!(
        mem::tracking_active(),
        "TrackingAlloc must be installed for this proof to mean anything"
    );
    let solver = MultigridSolver::builder(pair_partitions(n, 9))
        .cycle(CycleKind::V)
        .smoother(Smoother::Jacobi { omega: 0.8 })
        .pre_sweeps(1)
        .post_sweeps(2)
        .tol(1e-12)
        .build();
    let _ = stochcdr_obs::install(Box::new(stochcdr_obs::NullSink));
    let mut h = solver.prepare(&p).unwrap();
    let mut x = vec![1.0 / n as f64; n];
    for _ in 0..3 {
        solver.cycle(&p, &mut h, &mut x).unwrap();
    }
    let allocated = mem::min_alloc_delta(
        || {
            let res = solver.cycle(&p, &mut h, &mut x).unwrap();
            assert!(res.is_finite());
        },
        5,
    );
    let _ = stochcdr_obs::uninstall();
    par::set_threads(None);
    assert_eq!(
        allocated, 0,
        "traced two-thread V-cycle allocated {allocated} times after setup"
    );
}

/// The same zero-allocation claim for a matrix-free fine grid: after
/// [`MultigridSolver::prepare`], a warm [`MultigridSolver::cycle`]
/// against a Kronecker product-form operator performs no heap
/// allocations — through the mode products, the factored refreshes and
/// the coarse levels kept in factor form. In particular the Jacobi
/// smoother's per-sweep diagonal comes from `diagonal_into` writing into
/// the hierarchy's hoisted buffer, not a fresh vector. (Jacobi is the
/// smoother a matrix-free chain admits; Gauss–Seidel needs a cached
/// transpose.)
#[test]
fn warm_implicit_cycles_do_not_allocate() {
    let _serial = serial();
    let _ = stochcdr_obs::uninstall();
    par::set_threads(Some(1));

    assert!(
        mem::tracking_active(),
        "TrackingAlloc must be installed for this proof to mean anything"
    );
    // Two ring lanes and three, kept in product form: 64-state joint
    // chains whose fine level is never materialized. Pairwise partitions
    // keep every coarse level in factor form; on the three-lane product
    // the outer mode product spans two lanes, and the third partition
    // pairs lane-1 digits, folding that lane into the inner block.
    for lanes in [vec![8usize, 8], vec![4, 4, 4]] {
        let op = KroneckerOp::new(lanes.iter().map(|&d| ring(d).matrix().clone()).collect());
        let tr = op.transposed(); // cached: built once, outside the window
        let imp = ImplicitStochastic::with_tolerance(&op, tr, 1e-9).unwrap();
        let n = op.dim();
        for kind in [CycleKind::V, CycleKind::W] {
            let solver = MultigridSolver::builder(pair_partitions(n, 3))
                .cycle(kind)
                .smoother(Smoother::Jacobi { omega: 0.8 })
                .pre_sweeps(1)
                .post_sweeps(2)
                .tol(1e-12)
                .build();
            let mut h = solver.prepare(&imp).unwrap();
            let mut x = vec![1.0 / n as f64; n];
            for _ in 0..3 {
                solver.cycle(&imp, &mut h, &mut x).unwrap();
            }
            let allocated = mem::min_alloc_delta(
                || {
                    let res = solver.cycle(&imp, &mut h, &mut x).unwrap();
                    assert!(res.is_finite());
                },
                5,
            );
            assert_eq!(
                allocated, 0,
                "implicit {kind:?}-cycle on lanes {lanes:?} allocated {allocated} times after setup"
            );
        }
    }
    par::set_threads(None);
}

/// Every kernel dispatch resolves the worker count through
/// `par::threads()`, which falls back to `par::available()` when neither
/// `--threads` nor `STOCHCDR_THREADS` is set. Asking the OS allocates
/// (it reads the cgroup CPU quota), so the answer is cached: after the
/// first call, neither function touches the heap.
#[test]
fn thread_count_lookups_do_not_allocate() {
    let _serial = serial();
    let _ = stochcdr_obs::uninstall();
    par::set_threads(None);
    assert!(
        mem::tracking_active(),
        "TrackingAlloc must be installed for this proof to mean anything"
    );
    assert!(par::available() >= 1 && par::threads() >= 1);
    let available = mem::min_alloc_delta(
        || {
            for _ in 0..100 {
                std::hint::black_box(par::available());
            }
        },
        5,
    );
    let threads = mem::min_alloc_delta(
        || {
            for _ in 0..100 {
                std::hint::black_box(par::threads());
            }
        },
        5,
    );
    assert_eq!(available, 0, "par::available() allocated {available} times");
    assert_eq!(threads, 0, "par::threads() allocated {threads} times");
}
