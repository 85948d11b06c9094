#!/usr/bin/env bash
# The benchmark's one command. Builds the server under test and the
# harness in release mode, then hands every argument to the harness:
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
#   bench/run.sh [--seed N] [--quick]                               every workload, both passes
#   bench/run.sh [--seed N] --repeat K                              variance study -> bench/VARIANCE.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export CARGO_NET_OFFLINE=true
cargo build --release --locked --quiet --manifest-path Cargo.toml -p aims-service --bin aims-serve
cargo build --release --locked --quiet --manifest-path bench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/aims-e2e" "$@"
