#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives (both binaries of this
# package), then runs one benchmark invocation with the given flags.
# Cargo's output goes to stderr; stdout is the benchmark's alone.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
