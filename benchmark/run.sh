#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package once (release,
# into the repo's target directory, or CARGO_TARGET_DIR when set) and hands
# every argument to it; see README.md here for the modes.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

# A workload that outgrows 8 GB of address space fails; it does not take
# the host with it. (Set after the build: rustc reserves more than that.)
ulimit -v 8388608 2>/dev/null || true

exec "$target/release/hpcbench-benchmark" "$@"
