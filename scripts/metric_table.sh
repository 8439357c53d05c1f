#!/usr/bin/env bash
# Metric-catalogue check: every `fbf_…` family named by a string literal in
# crates/core/src/prom.rs (its test module and comment lines aside) must
# have a row in the table under DESIGN.md's "### Prometheus exposition"
# heading, written as `fbf_…` in the row's first cell, and every row must
# name a family the module exposes. Prints each mismatch and exits 1 if
# there is one.
#
#   scripts/metric_table.sh
set -euo pipefail
cd "$(dirname "$0")/.."

exposed=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/prom.rs |
  grep -vE '^\s*//' | grep -oE '"fbf_[a-z0-9_]+"' | tr -d '"' | sort -u)

table=$(awk '/^### Prometheus exposition/ { on = 1; next } /^#/ { on = 0 } on' DESIGN.md |
  grep -oE '^\| `fbf_[a-z0-9_]+` \|' | sed -E 's/^\| `([^`]+)` \|$/\1/' | sort -u)

missing=$(comm -23 <(printf '%s\n' "$exposed") <(printf '%s\n' "$table"))
stale=$(comm -13 <(printf '%s\n' "$exposed") <(printf '%s\n' "$table"))
for family in $missing; do
  echo "DESIGN.md: metric family \`$family\` is exposed but has no row in the metric table"
done
for family in $stale; do
  echo "DESIGN.md: the metric table lists \`$family\`, which crates/core/src/prom.rs does not expose"
done
echo "metric table: $(printf '%s\n' "$exposed" | grep -c .) exposed, $(printf '%s\n' "$table" | grep -c .) listed, $(printf '%s\n%s' "$missing" "$stale" | grep -c . || true) mismatched"
[ -z "$missing$stale" ]
