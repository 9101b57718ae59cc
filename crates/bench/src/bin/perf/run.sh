#!/usr/bin/env bash
# Builds the daemon (in the repository's workspace) and the perf harness
# (its own package) with the repository's release settings, then runs the
# harness from the repository root with the given arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../../../../.."
# One target directory for both builds (this package is its own workspace
# and would otherwise build into its own), so perf finds the daemon
# beside itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --locked --quiet -p archpredict-served
cargo build --release --quiet --manifest-path crates/bench/src/bin/perf/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perf" "$@"
