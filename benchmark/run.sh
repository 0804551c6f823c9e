#!/usr/bin/env bash
# Builds the `fulllock` CLI (the daemon the serve workload drives) and the
# benchmark binary from source, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload sat_break --seed 0 --seconds 25 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# .bench_build) so the benchmark finds `fulllock` next to itself.
set -euo pipefail

: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin fulllock
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
