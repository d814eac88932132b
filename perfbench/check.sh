#!/bin/bash
# The benchmark's own checks, all under `cargo test`: unit tests (statistics,
# verdict rule, registry limits) and the registry test, which compares
# BENCHMARK.json on disk with what the registry renders and runs the smoke
# pass (`--smoke`: all four workloads, 5 tiny rounds each, verification on,
# plus one traced run), requiring every run correct and every emitted name
# to be a registry name.
# Release mode: debug builds of the workspace re-price fully on every probe.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --release --manifest-path perfbench/Cargo.toml
echo "perfbench: checks passed"
