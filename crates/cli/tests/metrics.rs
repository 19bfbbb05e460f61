//! End-to-end tests for the `--metrics` observability flag.
//!
//! The capture and its rendering run inside one test function: the obs
//! recorder is a process-wide singleton, so sequencing them avoids
//! cross-test interference without any locking.

use std::process::Command;

use stochcdr_cli::run;
use stochcdr_obs::json::Json;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn metrics_capture_jsonl_and_summary() {
    let jsonl_path = std::env::temp_dir().join("stochcdr_metrics_test.jsonl");

    // `--metrics` always streams the JSONL artifact: every line parses,
    // the schema header leads, and the stream carries per-cycle
    // residuals, smoothing counters, and the TPM nnz.
    let out = run(&argv(&format!(
        "analyze --refinement 8 --metrics {}",
        jsonl_path.display()
    )))
    .expect("analyze with metrics");
    assert!(out.contains("BER"), "analysis output unaffected: {out}");
    assert!(
        !stochcdr_obs::enabled(),
        "recorder must be uninstalled after run()"
    );

    let text = std::fs::read_to_string(&jsonl_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "expected a substantive record stream");
    let mut cycle_events = 0;
    let mut tpm_nnz = None;
    let mut sweep_counters = 0;
    for (i, line) in lines.iter().enumerate() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid: {e}\n{line}"));
        let kind = v.get("kind").and_then(Json::as_str).expect("kind field");
        if i == 0 {
            assert_eq!(kind, "meta");
            assert_eq!(
                v.get("schema").and_then(Json::as_str),
                Some(stochcdr_obs::SCHEMA_VERSION)
            );
            continue;
        }
        let name = v.get("name").and_then(Json::as_str).unwrap_or_default();
        if kind == "event" && name == "multigrid.cycle" {
            cycle_events += 1;
            let fields = v.get("fields").expect("event fields");
            assert!(fields.get("residual").and_then(Json::as_f64).unwrap() >= 0.0);
            assert!(fields.get("cycle").and_then(Json::as_f64).unwrap() >= 1.0);
        }
        if kind == "event" && name == "fsm.tpm_assembled" {
            tpm_nnz = v
                .get("fields")
                .and_then(|f| f.get("nnz"))
                .and_then(Json::as_f64);
        }
        if kind == "counter" && name.starts_with("multigrid.smooth_sweeps.level") {
            sweep_counters += 1;
        }
    }
    assert!(cycle_events > 0, "per-cycle residual events missing");
    assert!(tpm_nnz.unwrap_or(0.0) > 0.0, "TPM nnz event missing");
    assert!(sweep_counters > 0, "per-level smoothing counters missing");

    // Summary: `report` renders the artifact as the aggregated table.
    let table = run(&argv(&format!("report --in {}", jsonl_path.display())))
        .expect("report renders the metrics artifact");
    assert!(table.contains(stochcdr_obs::SCHEMA_VERSION), "{table}");
    assert!(table.contains("multigrid.solve"), "{table}");
    assert!(table.contains("multigrid.smooth_sweeps.level0"), "{table}");
    assert!(table.contains("fsm.tpm_assembled"), "{table}");

    std::fs::remove_file(&jsonl_path).ok();
}

/// Runs the `stochcdr` binary and returns its exit code and stderr.
fn exit_and_stderr(args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stochcdr"))
        .args(args.split_whitespace())
        .output()
        .expect("run stochcdr");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_metrics_format_rejected() {
    // There is one metrics format, so the flag that picked one is gone.
    for args in [
        "analyze --metrics /tmp/x --metrics-format yaml",
        "analyze --metrics /tmp/x --metrics-format jsonl",
    ] {
        let (code, stderr) = exit_and_stderr(args);
        assert_eq!(code, Some(2), "{args}: {stderr}");
        assert!(
            stderr.contains("unknown flag '--metrics-format'"),
            "{stderr}"
        );
    }
}

#[test]
fn profiler_flags_are_unknown() {
    for (args, flag) in [
        ("analyze --profile-folded /tmp/p.folded", "--profile-folded"),
        ("analyze --profile-interval 1", "--profile-interval"),
        (
            "report --in /tmp/m.jsonl --check-folded /tmp/p.folded",
            "--check-folded",
        ),
    ] {
        let (code, stderr) = exit_and_stderr(args);
        assert_eq!(code, Some(2), "{args}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
    }
}

/// `/dev/full` opens, then refuses every write: a `--metrics` or `--trace`
/// artifact that cannot be written fails the command and names the path.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_artifact_fails_the_command() {
    for (flag, what) in [("--metrics", "metrics"), ("--trace", "trace")] {
        let args = format!("analyze --refinement 8 {flag} /dev/full");
        let (code, stderr) = exit_and_stderr(&args);
        assert_eq!(code, Some(2), "{args}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot write {what} file '/dev/full'")),
            "{stderr}"
        );
    }
}
