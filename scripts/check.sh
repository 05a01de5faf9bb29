#!/usr/bin/env bash
# Full workspace gate: format check (when rustfmt is installed), the
# project's own static-analysis pass, release build, and the test suite
# with and without the runtime numeric sanitizer.
set -euo pipefail
cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "== cargo fmt unavailable; skipping format check"
fi

echo "== gssl-xtask check"
cargo run -q -p gssl-xtask -- check

echo "== gssl-xtask analyze --json"
# Semantic passes (panic-reachability, shape contracts, concurrency, the
# perf pass: hot propagation, complexity contracts, alloc/bounds lints,
# and the determinism pass: float total-order, nondeterministic-source
# and chunk-reduction-order lints with `/// deterministic` contract
# propagation); exits 0 when clean, 1 on any finding not covered by
# crates/xtask/analyze.baseline (including stale entries), 2 on I/O
# errors. JSON goes to the log so CI can archive the machine-readable
# report; any nonzero exit fails the gate.
cargo run -q -p gssl-xtask -- analyze --json || {
    status=$?
    echo "gssl-xtask analyze failed with exit code ${status}" >&2
    exit "${status}"
}

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test --features strict-checks"
cargo test -q --features strict-checks

echo "== serve_demo smoke run"
cargo run --release -q -p gssl-bench --bin serve_demo >/dev/null

echo "== policy_demo smoke run"
# Exercises the SolverPolicy selector end to end; the binary exits
# nonzero when any backend's solve residual exceeds its threshold.
cargo run --release -q -p gssl-bench --bin policy_demo -- --json >/dev/null

echo "== threads_scaling bench (writes BENCH_parallel.json)"
# Times assembly / hard fit / soft fit / predict_batch at 1/2/4/8 workers
# and exits nonzero if any parallel output is not bit-identical to the
# 1-worker run. Timing is recorded, never gated: speedup depends on the
# host's core count (see host_parallelism in the JSON).
cargo run --release -q -p gssl-bench --bin threads_scaling -- --quiet

echo "== scale bench, ci sizes (writes BENCH_scale_ci.json)"
# Assembles kNN graphs through the spatial index and fits the hard
# criterion end to end at CI-sized point counts, then exits nonzero if
# the tree index disagrees with the brute-force oracle on a query
# subsample or the assembled graph differs across worker counts. The
# committed BENCH_scale.json comes from the full run
# (`--bin scale`, no flags: 10^4..10^6 points) and is not touched here.
cargo run --release -q -p gssl-bench --bin scale -- --ci --quiet
rm -f BENCH_scale_ci.json

echo "== solver crossover bench, ci sizes (writes BENCH_solver_ci.json)"
# Sweeps grid-Laplacian systems through every factorization backend
# (dense Cholesky, Jacobi-CG, IC(0) PCG, AMG) and
# exits nonzero if any solve misses its residual gate or IC(0) needs
# more CG iterations than plain Jacobi — deterministic correctness
# properties, never timing. The committed BENCH_solver.json comes from
# the full run (`--bin solver_crossover`, no flags) and is not touched.
cargo run --release -q -p gssl-bench --bin solver_crossover -- --ci --quiet
rm -f BENCH_solver_ci.json

echo "== serve traffic bench, ci sizes (writes BENCH_serve_ci.json)"
# Replays a seeded open-loop Poisson arrival stream through the
# admission-controlled batch queue into the sharded engine and exits
# nonzero if sharded predictions are not bitwise-identical to the
# monolithic engine, any admitted query is lost or double-served, or the
# snapshot/restore roundtrip is not bitwise — agreement properties,
# never timing. The committed BENCH_serve.json comes from the full run
# (`--bin serve_traffic`, no flags) and is not touched here.
cargo run --release -q -p gssl-bench --bin serve_traffic -- --ci --quiet
rm -f BENCH_serve_ci.json

echo "All checks passed."
