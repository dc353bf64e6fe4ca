#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Run from the repo root:
#
#   scripts/ci.sh
#
# Every PR must pass all three stages: formatting, lints as errors, and the
# full test suite.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== wire smoke (zero-copy allocation gate + codec microbenches) =="
cargo run --release -p omni-bench --bin wire -- --smoke

echo "== reliability smoke (fault matrix) =="
cargo run --release -p omni-bench --bin reliability -- --smoke

echo "== scale smoke (1000/10k-node tick and allocation budgets, <=5% profiler overhead on the 10k cell) =="
cargo run --release -p omni-bench --bin scale -- --smoke

echo "== trace smoke (flight-recorder completeness + determinism) =="
cargo run --release -p omni-bench --bin trace -- --smoke

echo "== telemetry smoke (fault-window reconstruction from series) =="
cargo run --release -p omni-bench --bin telemetry -- --smoke

echo "== relay smoke (sparse-chain delivery floor, same-seed replay) =="
cargo run --release -p omni-bench --bin relay -- --smoke

echo "== fleet bench (builds fleetbench/ against the crates; traced replay checks live open outcomes) =="
cargo run --release --offline --locked --manifest-path fleetbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 1 --trace 0
cargo run --release --offline --locked --manifest-path fleetbench/Cargo.toml -- \
    --workload context-dense --seed 1 --seconds 1 --trace 1

echo "== bench baseline gate (drift vs committed BENCH_*.json) =="
scripts/bench_baseline.sh --smoke

echo "ci: all green"
