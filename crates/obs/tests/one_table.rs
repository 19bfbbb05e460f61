//! The summary table and the JSONL artifact are one aggregate: a run
//! recorded live by [`SummarySink`] renders byte-for-byte the table that
//! [`Artifact::render`] prints for the same run's JSONL stream (which is
//! what `stochcdr report --in` shows).
//!
//! The recorder is a process-wide singleton, so this binary holds a
//! single test.

use stochcdr_linalg::{par, CooMatrix};
use stochcdr_markov::StochasticMatrix;
use stochcdr_multigrid::{MultigridSolver, PairwiseCoarsening};
use stochcdr_obs::artifact::Artifact;
use stochcdr_obs::{self as obs, JsonLinesSink, MultiSink, SummarySink};

/// Lazy walk on a path with uneven holding probabilities plus a jump
/// along a fixed permutation of the states: it mixes fast, its
/// stationary vector is not the uniform start (so the solve takes
/// several cycles), and it is long enough that the fine grid's kernels
/// go parallel on two workers.
fn uneven_walk(n: usize) -> StochasticMatrix {
    const JUMP: f64 = 0.1;
    let mut coo = CooMatrix::new(n, n);
    for s in 0..n {
        let hold = 0.2 + 0.6 * ((s * 7919) % 1000) as f64 / 1000.0;
        let step = 0.5 * (1.0 - hold - JUMP);
        coo.push(s, s.saturating_sub(1), step);
        coo.push(s, s, hold);
        coo.push(s, (s + 1).min(n - 1), step);
        coo.push(s, (s * 7919 + 1) % n, JUMP);
    }
    StochasticMatrix::new(coo.to_csr()).unwrap()
}

#[test]
fn summary_table_is_the_rendered_jsonl_artifact() {
    let p = uneven_walk(33_000);
    let solver = MultigridSolver::builder(PairwiseCoarsening::until(64).levels(p.n()))
        .tol(1e-6)
        .build();

    let _ = obs::uninstall();
    let (jsonl, buf) = JsonLinesSink::to_shared_buffer();
    obs::install(Box::new(MultiSink::new(vec![
        Box::new(SummarySink::new()),
        Box::new(jsonl),
    ])));
    par::set_threads(Some(2));
    let solved = solver.solve_with_stats(&p, None);
    par::set_threads(None);
    // A non-finite gauge after a finite one streams as null and leaves
    // the finite value in both views.
    obs::gauge("test.gauge", 0.5);
    obs::gauge("test.gauge", f64::NAN);
    obs::mem::publish();
    let table = obs::uninstall()
        .and_then(|mut sink| sink.finish())
        .expect("the summary sink renders a table");
    let (result, _) = solved.expect("the solve converges");
    assert!(result.iterations() > 1, "a one-cycle solve shows little");

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let art = Artifact::load_jsonl(&text).expect("valid artifact");
    assert_eq!(table, art.render());

    // The table is the whole run, not an empty shell.
    for section in [
        "spans (",
        "counters:",
        "gauges (",
        "histograms (",
        "events (",
    ] {
        assert!(table.contains(section), "missing {section}: {table}");
    }
    for name in [
        "mg.setup",
        "multigrid.cycle",
        "par.worker",
        "multigrid.cycle.ns",
    ] {
        assert!(table.contains(name), "missing {name}: {table}");
    }
    assert_eq!(art.gauges["test.gauge"], 0.5);
}
