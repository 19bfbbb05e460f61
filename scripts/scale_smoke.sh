#!/usr/bin/env sh
# Scale smoke: proves the implicit Kronecker path completes a >=1e6-state
# product-form solve within a 2 GiB tracked heap. The model is two
# replicated lanes of the phases-8 / refinement-8 / counter-5 reference
# chain (1270 states per lane, 1,612,900 joint states); materializing the
# joint TPM would cost ~2.7 GB, and `scale` never does.
#
# Four checks:
#   1. the solve completes, writing an instrumented metrics artifact
#      (target/scale_metrics.jsonl, uploaded by CI),
#   2. the artifact carries the implicit-path telemetry: the kron.apply
#      spans and the mem.peak_rss gauge,
#   3. the run's tracked heap peak (the largest mem.peak_bytes gauge in
#      the artifact) does not exceed 2 GiB,
#   4. the answer is bit-identical to the pinned one: 24 cycles and the
#      stationary vector's FNV-1a checksum. The run covers what the
#      tier-1 pins do not: an 11-level hierarchy, 1,270-state lanes
#      (mode-product batches with a remainder) and a 2,540-state coarsest
#      GTH solve. The checksum holds at any thread count.
set -eu

cd "$(dirname "$0")/.."
heap_limit_bytes=2147483648 # 2 GiB
model="--phases 8 --refinement 8 --counter 5 --lanes 2"
want_cycles=24
want_fnv1a=306a6bdaf07f1e08

cargo build --release --offline -p stochcdr-cli

echo "scale smoke: the implicit solve must complete"
./target/release/stochcdr scale $model --tol 1e-8 \
    --metrics target/scale_metrics.jsonl \
    | tee target/scale_smoke.txt
grep -q 'kron.apply' target/scale_metrics.jsonl
grep -q 'mem.peak_rss' target/scale_metrics.jsonl

echo "scale smoke: the tracked heap peak must stay within 2 GiB"
peak=$(awk -F'"value":' '/"name":"mem.peak_bytes"/ {
    split($2, v, /[,}]/)
    if (v[1] + 0 > max) max = v[1] + 0
    seen = 1
} END { if (seen) printf "%.0f", max }' target/scale_metrics.jsonl)
if [ -z "$peak" ]; then
    echo "scale smoke: FAIL - no mem.peak_bytes gauge in the artifact" >&2
    exit 1
fi
if ! awk -v p="$peak" -v b="$heap_limit_bytes" 'BEGIN { exit !(p <= b) }'; then
    echo "scale smoke: FAIL - heap peak $peak B exceeds the $heap_limit_bytes B limit" >&2
    exit 1
fi
echo "scale smoke: heap peak $peak B within the $heap_limit_bytes B limit"

echo "scale smoke: the answer must keep its bits"
if ! grep -Eq "^cycles +: $want_cycles\$" target/scale_smoke.txt; then
    echo "scale smoke: FAIL - expected $want_cycles cycles" >&2
    exit 1
fi
if ! grep -Eq "^distribution fnv1a +: $want_fnv1a\$" target/scale_smoke.txt; then
    echo "scale smoke: FAIL - expected distribution fnv1a $want_fnv1a" >&2
    exit 1
fi
echo "scale smoke: $want_cycles cycles, distribution fnv1a $want_fnv1a"
echo "scale smoke: PASS"
