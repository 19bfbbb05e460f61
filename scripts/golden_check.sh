#!/usr/bin/env sh
# Golden-result gate: regenerates the committed figure/table artifacts and
# diffs them against results/*.txt. Numeric fields compare at rtol 1e-9;
# wall-clock timings are masked (see crates/bench/src/golden.rs). The
# gated outputs are fully deterministic (bit-identical for any thread
# count), so any drift is a real behavior change.
#
# fig4_noise is quick; the two tables redo real solver work — including
# the scaling table's three implicit Kronecker rows, the long pole — so
# the full gate takes about 2.7 minutes in release mode after the build
# (measured on a shared two-vCPU host: 2 s for the first two artifacts,
# ~160 s for the scaling table, whose million-state row solves in 27 s).
# That cost is deliberate: the implicit rows' cycle counts and residuals
# are the regression gate on the matrix-free path.
set -eu

cd "$(dirname "$0")/.."
cargo build --release --offline -p stochcdr-bench

./target/release/fig4_noise --check
./target/release/tab_grid_convergence --check
./target/release/tab_solver_scaling --check

echo "golden gate: all artifacts match"
