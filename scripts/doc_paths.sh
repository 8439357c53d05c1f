#!/usr/bin/env bash
# Stale-path check for the prose docs: every backticked path in DESIGN.md,
# README.md and EXPERIMENTS.md that contains a `/` and ends in .rs, .sh or
# .py must name a tracked file, either as written or as
# crates/<crate>/src/<rest> (the docs write `core/plan.rs` for
# crates/core/src/plan.rs). Prints every path that names no file and exits
# 1 if there is one.
#
#   scripts/doc_paths.sh             # check the three docs
#   scripts/doc_paths.sh FILE...     # check other markdown files
set -euo pipefail
cd "$(dirname "$0")/.."

docs=("$@")
[ ${#docs[@]} -gt 0 ] || docs=(DESIGN.md README.md EXPERIMENTS.md)

tracked=$(git ls-files)
is_tracked() { grep -qxF "$1" <<<"$tracked"; }

stale=0
checked=0
while IFS= read -r hit; do
  # grep -Hno prints FILE:LINE:`path`.
  where=${hit%%:\`*}
  path=${hit#"$where":}
  path=${path//\`/}
  checked=$((checked + 1))
  if is_tracked "$path" || is_tracked "crates/${path%%/*}/src/${path#*/}"; then
    continue
  fi
  echo "$where: \`$path\` names no tracked file"
  stale=$((stale + 1))
done < <(grep -HnoE '`[^` ]*/[^` ]*\.(rs|sh|py)`' "${docs[@]}")

echo "doc paths: $checked checked, $stale stale"
[ "$stale" -eq 0 ]
