#!/usr/bin/env bash
# The two Rust line measures simplicity PRs quote (ROADMAP item 10):
#   whole tree — every .rs under crates src tests examples vendor;
#   non-test   — the lines before the test module of every .rs under
#                crates src examples vendor, `tests/` dirs excluded.
# Files given as arguments get their own non-test count.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of each file up to (not including) the `#[cfg(test)]` that opens a
# `mod`, summed. A `#[cfg(test)]` on any other item (a test-only field,
# function or seam) and the attributes stacked under it are counted: they
# are part of the non-test file.
non_test() {
  xargs -r awk '
    FNR == 1 { counting = 1; held = 0 }
    !counting { next }
    held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { counting = 0; next }
    held && /^[[:space:]]*#\[/ { held++; next }
    held { n += held; held = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { counting = 0; next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    { n++ }
    END { print n + 0 }'
}

echo "whole tree: $(find crates src tests examples vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "non-test:   $(find crates src examples vendor -name '*.rs' -not -path '*/tests/*' | non_test)"
for file in "$@"; do
  echo "$(echo "$file" | non_test) $file"
done
