#!/usr/bin/env sh
# Benchmark regression gate: takes a fresh bench_snapshot and compares it
# against the committed baseline (results/BENCH_AFTER_PR10_T4.json by
# default, override with $1). Deterministic metrics — states, nnz, solver cycles,
# residual, BER, Monte-Carlo results, pre-pass allocation counts — must
# be bit-identical; wall-clock and memory-size numbers are advisory (the
# gate prints fresh/baseline ratios but never fails on them). A second
# stage runs the same analyze twice with --metrics and feeds both
# artifacts to `stochcdr diff`, gating on the instrumentation's own
# determinism contract; the rendered report lands in
# target/OBS_DIFF_REPORT.txt for CI to upload.
#
# BENCH_GATE_MODE selects a slice for CI job splitting:
#   deterministic — snapshot + bench_gate + artifact diff: everything
#                   that gates exactly, safe to make a *blocking* job.
#   advisory      — the analyze pair + artifact diff only: timing-heavy,
#                   stays continue-on-error in CI.
#   (unset)       — the full sequence, for local runs.
#
# The worker pool is pinned to the baseline's recorded thread count so the
# advisory timing ratios are as comparable as an unpinned runner allows.
set -eu

cd "$(dirname "$0")/.."
baseline="${1:-results/BENCH_AFTER_PR10_T4.json}"
fresh="target/BENCH_GATE_FRESH.json"
mode="${BENCH_GATE_MODE:-full}"

# Pull the thread count and grid refinement the baseline was recorded at
# (bare integer fields in the snapshot JSON); fall back to 4 threads and
# the snapshot binary's default refinement of 16 if absent. The fresh
# snapshot must reproduce the baseline's configuration, or every
# "deterministic" metric would differ for config reasons, not drift.
threads=$(sed -n 's/^ *"threads": *\([0-9][0-9]*\),*$/\1/p' "$baseline")
threads="${threads:-4}"
refinement=$(sed -n 's/^ *"refinement": *\([0-9][0-9]*\),*$/\1/p' "$baseline")
refinement="${refinement:-16}"
echo "bench gate: mode $mode, pinning STOCHCDR_THREADS=$threads, refinement $refinement (baseline's config)"

cargo build --release --offline -p stochcdr-bench -p stochcdr-cli

if [ "$mode" = "deterministic" ] || [ "$mode" = "full" ]; then
    STOCHCDR_THREADS="$threads" ./target/release/bench_snapshot --out "$fresh" --refinement "$refinement"
    ./target/release/bench_gate "$baseline" "$fresh"

    # Determinism gate on the instrumentation itself: two analyze runs
    # with the same configuration and pinned thread count must produce
    # metrics artifacts whose counters, events, span counts, and
    # histogram bins/counts are identical (timing payloads are advisory).
    echo "bench gate: artifact diff determinism check (2 identical analyze runs)"
    ./target/release/stochcdr analyze --refinement "$refinement" --threads "$threads" \
        --metrics target/BENCH_GATE_METRICS_A.jsonl --metrics-format jsonl >/dev/null
    ./target/release/stochcdr analyze --refinement "$refinement" --threads "$threads" \
        --metrics target/BENCH_GATE_METRICS_B.jsonl --metrics-format jsonl >/dev/null
    ./target/release/stochcdr diff --baseline target/BENCH_GATE_METRICS_A.jsonl \
        --fresh target/BENCH_GATE_METRICS_B.jsonl --out target/OBS_DIFF_REPORT.txt
fi

if [ "$mode" = "advisory" ] || [ "$mode" = "full" ]; then
    # Full regression report via the shared diff engine (counters/events/
    # span counts/histogram bins exact; timings, memory, gauges advisory).
    if [ ! -f target/BENCH_GATE_METRICS_A.jsonl ] || [ "$mode" = "advisory" ]; then
        ./target/release/stochcdr analyze --refinement "$refinement" --threads "$threads" \
            --metrics target/BENCH_GATE_METRICS_A.jsonl --metrics-format jsonl >/dev/null
        ./target/release/stochcdr analyze --refinement "$refinement" --threads "$threads" \
            --metrics target/BENCH_GATE_METRICS_B.jsonl --metrics-format jsonl >/dev/null
    fi
    echo "bench gate: artifact diff regression report"
    ./target/release/stochcdr diff --baseline target/BENCH_GATE_METRICS_A.jsonl \
        --fresh target/BENCH_GATE_METRICS_B.jsonl --out target/OBS_DIFF_REPORT.txt
fi
