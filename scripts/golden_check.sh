#!/usr/bin/env sh
# Golden-result gate: regenerates the committed figure/table artifacts and
# diffs them against results/*.txt. Numeric fields compare at rtol 1e-9;
# wall-clock timings are masked (see crates/bench/src/golden.rs). The
# gated outputs are fully deterministic (bit-identical for any thread
# count), so any drift is a real behavior change.
#
# fig4_noise, tab_mc_crosscheck (fixed-seed Monte-Carlo) and
# tab_grid_convergence are quick; the scaling table redoes real solver
# work — including its three implicit Kronecker rows, the long pole — so
# the full gate takes about 1.6 minutes in release mode after the build
# (measured on a shared two-vCPU host: under 2 s for the first three
# artifacts, ~100 s for the scaling table, whose million-state row
# solves in 8.5 s).
# That cost is deliberate: the implicit rows' cycle counts and residuals
# are the regression gate on the matrix-free path.
set -eu

cd "$(dirname "$0")/.."
cargo build --release --offline -p stochcdr-bench

./target/release/fig4_noise --check
./target/release/tab_mc_crosscheck --check
./target/release/tab_grid_convergence --check
./target/release/tab_solver_scaling --check

echo "golden gate: all artifacts match"
