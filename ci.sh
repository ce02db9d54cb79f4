#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the tier-1 verify from
# ROADMAP.md. Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
# Also the gate for the root manifest's [workspace.lints] and the
# crate-root lint attributes (unsafe code, debug printing, discarded
# #[must_use] results, truncating casts, panics in serve).
cargo clippy --workspace --all-targets --release -- -D warnings

# Reports this script writes stay in the build tree; the committed
# BENCH_*.json files are refreshed only on purpose.
OUT=target/ci
mkdir -p "$OUT"

echo "==> jouppi-lint: determinism/concurrency invariants clippy cannot check"
cargo build --release -p jouppi-lint
# Any finding fails the gate. --timings keeps the per-analysis cost
# (including the workspace call-graph build) visible, and --budget-ms
# fails the gate outright if the whole analysis blows its wall-time
# budget.
./target/release/jouppi-lint --root . --workspace --json --timings --budget-ms 15000 \
    > "$OUT/jouppi_lint.json" || { cat "$OUT/jouppi_lint.json"; exit 1; }

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> paper claims: repro --check (exits nonzero if any claim fails)"
./target/release/repro --check

echo "==> build examples and benchmark binaries"
cargo build --release --examples
cargo build --release -p jouppi-bench --bin loadgen --bin sweep-bench --bin json-check

echo "==> tier-1: cargo test -q --workspace"
cargo test -q --workspace

echo "==> serve integration tests"
cargo test --release -q -p jouppi-serve --test integration

echo "==> sweep-bench smoke: single-pass engine vs per-cell oracle, fig_3_1 stability"
./target/release/sweep-bench --smoke
echo "    lint status: $(grep -q '"clean":true' "$OUT/jouppi_lint.json" && echo clean || echo DIRTY) (jouppi-lint --workspace --json)"

echo "==> sweep-bench report (timed sweep schedules)"
./target/release/sweep-bench 60000 "$OUT/BENCH_sweep.json"

echo "==> result-cache smoke: repeat request hits, bypass does not"
./target/release/loadgen --cache-smoke

echo "==> loadgen report (smoke run)"
./target/release/loadgen 120 4 "$OUT/BENCH_serve.json"

echo "==> validate benchmark reports and the lint report against the shared JSON model"
./target/release/json-check "$OUT/BENCH_sweep.json" "$OUT/BENCH_serve.json" --lint "$OUT/jouppi_lint.json"

echo "CI OK"
