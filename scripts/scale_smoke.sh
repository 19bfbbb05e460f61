#!/usr/bin/env sh
# Scale smoke: proves the implicit Kronecker path completes a >=1e6-state
# product-form solve under a 2 GiB soft memory budget that the
# materialized path must refuse. The model is two replicated lanes of the
# phases-8 / refinement-8 / counter-5 reference chain (1270 states per
# lane, 1,612,900 joint states); materializing the joint TPM would cost
# ~2.7 GB, so `--path auto` must pick the matrix-free backend.
#
# Four checks:
#   1. a forced `--path materialized` run refuses with a nonzero exit
#      (the cost message names the byte figure),
#   2. `--path auto` selects the implicit backend and completes, writing
#      an instrumented metrics artifact (target/scale_metrics.jsonl,
#      uploaded by CI),
#   3. the artifact really carries the implicit-path telemetry: the
#      kron.apply spans, the core.product_path selection event, and the
#      mem.peak_rss gauge,
#   4. the implicit path's footprint stays inside the budget it was
#      routed under: the run's tracked heap peak (the largest
#      mem.peak_bytes gauge in the artifact) must not exceed 2 GiB.
set -eu

cd "$(dirname "$0")/.."
budget_bytes=2147483648 # the 2G below
model="--phases 8 --refinement 8 --counter 5 --lanes 2 --mem-budget 2G"

cargo build --release --offline -p stochcdr-cli

echo "scale smoke: forced materialized path must refuse under the budget"
if ./target/release/stochcdr scale $model --path materialized >/dev/null 2>&1; then
    echo "scale smoke: FAIL - materialized path did not refuse" >&2
    exit 1
fi

echo "scale smoke: auto path must pick the implicit backend and complete"
./target/release/stochcdr scale $model --tol 1e-8 \
    --metrics target/scale_metrics.jsonl \
    | tee target/scale_smoke.txt
grep -q 'path .*: implicit' target/scale_smoke.txt
grep -q 'kron.apply' target/scale_metrics.jsonl
grep -q 'core.product_path' target/scale_metrics.jsonl
grep -q 'mem.peak_rss' target/scale_metrics.jsonl

echo "scale smoke: the tracked heap peak must stay within the budget"
peak=$(awk -F'"value":' '/"name":"mem.peak_bytes"/ {
    split($2, v, /[,}]/)
    if (v[1] + 0 > max) max = v[1] + 0
    seen = 1
} END { if (seen) printf "%.0f", max }' target/scale_metrics.jsonl)
if [ -z "$peak" ]; then
    echo "scale smoke: FAIL - no mem.peak_bytes gauge in the artifact" >&2
    exit 1
fi
if ! awk -v p="$peak" -v b="$budget_bytes" 'BEGIN { exit !(p <= b) }'; then
    echo "scale smoke: FAIL - heap peak $peak B exceeds the $budget_bytes B budget" >&2
    exit 1
fi
echo "scale smoke: heap peak $peak B within the $budget_bytes B budget"
echo "scale smoke: PASS"
