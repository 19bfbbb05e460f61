//! End-to-end tests for the `diff` subcommand: capture two metrics
//! artifacts, compare them, and check both the green path and a real
//! regression.
//!
//! Lives in its own test binary (like `metrics.rs` / `trace_report.rs`)
//! because the obs recorder is a process-wide singleton; all captures
//! here are sequenced inside one test function.

use stochcdr_cli::run;

/// The tool binaries route allocations through the accounting wrapper;
/// doing the same here lets the captured artifacts carry real per-span
/// memory attribution, exercising the advisory side of the diff.
#[global_allocator]
static GLOBAL: stochcdr_obs::mem::TrackingAlloc = stochcdr_obs::mem::TrackingAlloc::new();

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

const SMALL: &str = "--phases 4 --refinement 2 --counter 4 --sigma-nw 0.08 \
                     --drift-mean 2e-2 --drift-dev 8e-2";

#[test]
fn diff_passes_on_identical_runs_and_fails_on_drift() {
    let dir = std::env::temp_dir();
    let a = dir.join("stochcdr_cli_diff_a.jsonl");
    let b = dir.join("stochcdr_cli_diff_b.jsonl");
    let c = dir.join("stochcdr_cli_diff_c.jsonl");
    let report = dir.join("stochcdr_cli_diff_report.txt");
    // Two identical-configuration captures and one with a different phase
    // detector (a dead zone changes the chain, hence counters and events).
    for (path, extra) in [(&a, ""), (&b, ""), (&c, "--dead-zone 1")] {
        run(&argv(&format!(
            "analyze {SMALL} {extra} --metrics {}",
            path.display()
        )))
        .unwrap();
    }

    let out = run(&argv(&format!(
        "diff --baseline {} --fresh {} --out {}",
        a.display(),
        b.display(),
        report.display()
    )))
    .unwrap();
    assert!(out.contains("result: 0 failure(s)"), "{out}");
    let saved = std::fs::read_to_string(&report).unwrap();
    assert_eq!(saved, out);

    let err = run(&argv(&format!(
        "diff --baseline {} --fresh {}",
        a.display(),
        c.display()
    )))
    .unwrap_err();
    assert!(err.to_string().contains("drifted"), "{err}");

    // Unreadable input, missing flags, and bad tolerances are clean errors.
    assert!(run(&argv(
        "diff --baseline /no/such.jsonl --fresh /no/such.jsonl"
    ))
    .is_err());
    assert!(run(&argv(&format!("diff --baseline {}", a.display()))).is_err());
    assert!(run(&argv(&format!(
        "diff --baseline {} --fresh {} --rel-tol -1",
        a.display(),
        b.display()
    )))
    .is_err());

    for p in [&a, &b, &c, &report] {
        std::fs::remove_file(p).ok();
    }
}
