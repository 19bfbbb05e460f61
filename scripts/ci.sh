#!/usr/bin/env sh
# Tier-1 verification: formatting, release build, full test suite,
# clippy with warnings denied, and rustdoc with warnings denied on the
# library crates (a broken intra-doc link fails the run). Everything runs
# offline — the workspace resolves its external dev-dependencies
# (rand/proptest) to local shims.
#
# The test suite runs twice, pinned to 1 and 4 worker threads, so the
# determinism contract of the parallel kernels (bit-identical results for
# every pool size) is exercised on every CI pass; the suites most
# sensitive to partition boundaries (operator equivalence, multigrid
# invariance and the implicit product path's pins in `product::`)
# additionally run at 2 and 8 threads. The benchmark harness
# (bench_e2e/, a package of its own that the workspace commands never
# compile) is built and tested against the current library API. A final
# trace smoke (scripts/trace_smoke.sh) captures and validates one
# instrumented run's --trace and --metrics artifacts, the memory smoke
# (scripts/mem_smoke.sh) re-proves the zero-allocation claims under the
# tracking allocator and renders an obs diff regression report. The
# smokes leave their artifacts in target/ for CI to upload.
set -eu

cd "$(dirname "$0")/.."
cargo fmt --all -- --check
cargo build --release --offline
STOCHCDR_THREADS=1 cargo test -q --offline
STOCHCDR_THREADS=4 cargo test -q --offline
# Determinism matrix beyond 1+4: the suites that would catch a
# thread-count-dependent partition boundary, at uneven pool sizes.
for t in 2 8; do
    echo "ci: determinism matrix at STOCHCDR_THREADS=$t"
    STOCHCDR_THREADS=$t cargo test -q --offline -p stochcdr-integration --test operator_equivalence
    STOCHCDR_THREADS=$t cargo test -q --offline -p stochcdr-bench --test mg_invariance
    STOCHCDR_THREADS=$t cargo test -q --offline -p stochcdr --lib product::
done
cargo test -q --offline --manifest-path bench_e2e/Cargo.toml
cargo clippy --offline --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p stochcdr-linalg -p stochcdr-markov -p stochcdr-multigrid -p stochcdr-fsm -p stochcdr -p stochcdr-sweep -p stochcdr-obs -p stochcdr-noise
./scripts/trace_smoke.sh
./scripts/mem_smoke.sh
