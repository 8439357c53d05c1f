#!/usr/bin/env bash
# The two Rust line measures simplicity PRs quote (ROADMAP item 10):
#   whole tree — every .rs under crates src tests examples vendor;
#   non-test   — the lines before the first `#[cfg(test)]` of every .rs
#                under crates src examples vendor, `tests/` dirs excluded.
# Files given as arguments get their own non-test count.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of each file up to (not including) its first `#[cfg(test)]`, summed.
non_test() {
  xargs -r awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }'
}

echo "whole tree: $(find crates src tests examples vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "non-test:   $(find crates src examples vendor -name '*.rs' -not -path '*/tests/*' | non_test)"
for file in "$@"; do
  echo "$(echo "$file" | non_test) $file"
done
