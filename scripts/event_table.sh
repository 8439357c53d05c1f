#!/usr/bin/env bash
# Event-catalogue check: every literal `cat`/`name` pair passed to
# fbf_obs::span, fbf_obs::instant or fbf_obs::counter in a tracked Rust
# source (the call on one line or spread over several; comment lines
# aside) must have a row in the table under DESIGN.md's "### Event
# taxonomy" heading, written as `cat/name` in the row's first cell.
# Prints every pair the table lacks and exits 1 if there is one.
#
#   scripts/event_table.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One line per emission: the call's source line up to its two literals,
# with the newlines inside the call folded into spaces.
emitted=$(git ls-files -z -- '*.rs' |
  xargs -0 grep -hPzo '[^\n]*fbf_obs::(span|instant|counter)\(\s*"[^"]*",\s*"[^"]*"' |
  tr '\n\0' ' \n' |
  grep -vE '^\s*//' |
  sed -E 's/.*\(\s*"([^"]*)",\s*"([^"]*)"$/\1\/\2/' |
  sort -u)

table=$(awk '/^### Event taxonomy/ { on = 1; next } /^#/ { on = 0 } on' DESIGN.md |
  grep -oE '^\| `[^`]+` \|' | sed -E 's/^\| `([^`]+)` \|$/\1/' | sort -u)

missing=$(comm -23 <(printf '%s\n' "$emitted") <(printf '%s\n' "$table"))
for event in $missing; do
  echo "DESIGN.md: event \`$event\` is emitted but has no row in the event table"
done
echo "event table: $(printf '%s\n' "$emitted" | grep -c .) emitted, $(printf '%s\n' "$table" | grep -c .) listed, $(printf '%s' "$missing" | grep -c . || true) missing"
[ -z "$missing" ]
