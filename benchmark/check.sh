#!/usr/bin/env bash
# Local gate for the benchmark's own workspace. The repository's
# scripts/check.sh and CI build the root workspace only and cannot see
# this one.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --release --all-targets --offline -- -D warnings

echo "==> cargo test (unit + smoke at --check size)"
cargo test --release --offline -q

echo "benchmark checks passed."
