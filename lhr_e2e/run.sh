#!/usr/bin/env bash
# Builds the serving binaries and the benchmark from source, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash lhr_e2e/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# `target`), so the benchmark finds `lhr_serve` and `lhr_router` next to
# its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p lhr-serve --bin lhr_serve --bin lhr_router
cargo build --release --offline --quiet --manifest-path lhr_e2e/Cargo.toml
exec "$CARGO_TARGET_DIR/release/lhr_e2e" "$@"
