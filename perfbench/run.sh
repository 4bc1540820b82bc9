#!/usr/bin/env bash
# Builds the PowerLens CLI and the benchmark from source, then runs one
# benchmark workload. Arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run files
# go to .bench_work. Both are relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml -p powerlens-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# Recorded with each result; a checkout without git history reports unknown.
PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/perfbench" --cli "$CARGO_TARGET_DIR/release/powerlens-cli" "$@"
