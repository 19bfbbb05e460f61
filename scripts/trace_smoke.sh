#!/usr/bin/env sh
# Trace smoke check: runs one instrumented analyze with both `--trace`
# (Chrome Trace Event JSON) and `--metrics` (stochcdr-obs/5 JSONL record
# stream) active, then validates both artifacts through `stochcdr
# report`, which fails on malformed JSON/JSONL or on unbalanced span
# begin/end events.
#
# Artifacts land in target/ so the CI job can upload them for inspection
# in ui.perfetto.dev.
set -eu

cd "$(dirname "$0")/.."
trace="target/ci_trace.json"
metrics="target/ci_metrics.jsonl"

cargo build --release --offline -p stochcdr-cli
./target/release/stochcdr analyze --refinement 8 --threads 2 \
    --trace "$trace" --metrics "$metrics" >/dev/null

echo "trace_smoke: validating $trace"
./target/release/stochcdr report --in "$trace"
echo "trace_smoke: validating $metrics"
./target/release/stochcdr report --in "$metrics"
echo "trace_smoke: PASS"
