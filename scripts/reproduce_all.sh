#!/usr/bin/env bash
# Regenerate every paper artefact and extension study into results/:
# every binary of the fbf-bench crate, in name order.
# Scale with FBF_STRIPES / FBF_ERRORS / FBF_WORKERS (see README).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p fbf-bench
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  echo "== $bin =="
  cargo run --release -q -p fbf-bench --bin "$bin"
done
echo "all artefacts regenerated; CSVs in results/"
