//! End-to-end tests for `--trace` and the `report` subcommand.
//!
//! Lives in its own integration binary so the process-wide obs recorder
//! never races the `--metrics` tests.

use stochcdr_cli::run;
use stochcdr_obs::artifact;
use stochcdr_obs::json::Json;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn trace_capture_and_report_render() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join("stochcdr_trace_test.json");
    let jsonl_path = dir.join("stochcdr_trace_test_metrics.jsonl");

    let out = run(&argv(&format!(
        "analyze --refinement 8 --threads 2 --trace {} --metrics {}",
        trace_path.display(),
        jsonl_path.display()
    )))
    .expect("analyze with trace + metrics");
    assert!(out.contains("BER"), "analysis output unaffected: {out}");
    assert!(
        !stochcdr_obs::enabled(),
        "recorder must be uninstalled after run()"
    );

    // The trace file is one valid JSON array of Chrome Trace events.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let parsed = Json::parse(&text).expect("trace parses as JSON");
    match &parsed {
        Json::Arr(events) => assert!(events.len() > 20, "substantive trace"),
        other => panic!("trace root must be an array, got {other:?}"),
    }

    // Structural check: balanced begin/end per span name, and the span
    // hierarchy the acceptance criteria name — assembly, multigrid
    // cycles, per-level smoothing — plus worker lanes beyond lane 0.
    let check = artifact::check_trace(&text).expect("trace structure");
    assert!(
        check.unbalanced.is_empty(),
        "unbalanced: {:?}",
        check.unbalanced
    );
    assert_eq!(check.begins, check.ends);
    for name in ["fsm.tpm_build_rows", "cycle", "smooth", "mg.level0"] {
        assert!(
            check.span_counts.keys().any(|k| k.contains(name)),
            "span '{name}' missing from trace: {:?}",
            check.span_counts.keys().collect::<Vec<_>>()
        );
    }
    assert!(
        check.threads >= 1,
        "at least the main lane: {}",
        check.threads
    );

    // Begin events carry parent ids that link cycles under the solve span.
    let mut saw_child = false;
    if let Json::Arr(events) = &parsed {
        for e in events {
            if e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    > 0.0
            {
                saw_child = true;
                break;
            }
        }
    }
    assert!(saw_child, "no nested span recorded a nonzero parent id");

    // `report` renders both artifact flavours.
    let report =
        run(&argv(&format!("report --in {}", trace_path.display()))).expect("report on trace");
    assert!(report.contains("chrome trace"), "{report}");
    assert!(report.contains("balanced"), "{report}");

    let report = run(&argv(&format!("report --in {}", jsonl_path.display())))
        .expect("report on metrics jsonl");
    assert!(report.contains("metrics artifact"), "{report}");
    assert!(report.contains("multigrid.cycle.ns"), "{report}");
    assert!(report.contains("histograms"), "{report}");

    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&jsonl_path).ok();

    // Sequenced in the same test as the capture above: the obs recorder
    // is a process-wide singleton. `sweep` fans warm chunks (8 points
    // each) out through `par::map_tasks`, which has no size cutoff — so
    // nine tiny points make two tasks and exercise the per-thread lanes.
    let trace_path = std::env::temp_dir().join("stochcdr_sweep_trace_test.json");
    run(&argv(&format!(
        "sweep --phases 4 --refinement 2 --counter 4 --sigma-nw 0.08 \
         --drift-mean 2e-2 --drift-dev 8e-2 \
         --axes counter=2,3,4,5,6,7,8,9,10 --threads 2 --trace {}",
        trace_path.display()
    )))
    .expect("sweep with trace");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let check = artifact::check_trace(&text).expect("trace structure");
    assert!(
        check.unbalanced.is_empty(),
        "unbalanced: {:?}",
        check.unbalanced
    );
    assert!(
        check.threads >= 2,
        "expected par worker lanes, saw {} thread(s)",
        check.threads
    );
    assert!(
        check.span_counts.keys().any(|k| k.contains("par.worker")),
        "worker spans missing: {:?}",
        check.span_counts.keys().collect::<Vec<_>>()
    );
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn report_rejects_missing_and_malformed_input() {
    let err = run(&argv("report")).unwrap_err();
    assert!(err.to_string().contains("--in"), "{err}");

    let err = run(&argv("report --in /nonexistent/stochcdr.jsonl")).unwrap_err();
    assert!(err.to_string().contains("cannot read"), "{err}");

    let bad = std::env::temp_dir().join("stochcdr_report_bad.jsonl");
    std::fs::write(&bad, "not json\n").unwrap();
    let err = run(&argv(&format!("report --in {}", bad.display()))).unwrap_err();
    assert!(err.to_string().contains("invalid"), "{err}");
    std::fs::remove_file(&bad).ok();
}
