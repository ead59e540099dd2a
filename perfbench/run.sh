#!/usr/bin/env bash
# Builds the dQMA bins and the benchmark from source, then runs the benchmark.
#
#   bash perfbench/run.sh --workload batch|serve|faults|fleet|all \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); traces and the config stamp go to
# $CARGO_TARGET_DIR/perfbench-out.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# The system under test: the server and node bins of the root package.
cargo build --release --offline --quiet --manifest-path Cargo.toml \
  --bin dqma-server --bin dqma-node >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

export DQMA_SERVER_BIN="$CARGO_TARGET_DIR/release/dqma-server"
export DQMA_NODE_BIN="$CARGO_TARGET_DIR/release/dqma-node"
export PERFBENCH_OUT="$CARGO_TARGET_DIR/perfbench-out"
# Only a git repository rooted here counts; never one further up.
PERFBENCH_GIT_REV="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" \
  git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_GIT_REV
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
