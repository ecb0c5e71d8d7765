#!/usr/bin/env bash
# Builds the dmfstream CLI and the benchmark from source (release), then
# runs the benchmark with the given arguments, e.g.
#
#   bash bench_layers/run.sh --workload stream_sim --seed 2014 --seconds 10 --trace 0
#   bash bench_layers/run.sh run --seed 2014 --out runs.json
#   bash bench_layers/run.sh compare parent.json change.json
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the serve workload spawns the dmfstream binary
# built next to the benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" --bin dmfstream
cargo build --release --quiet --manifest-path "$root/bench_layers/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/bench_layers" "$@"
