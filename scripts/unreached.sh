#!/usr/bin/env bash
# Public items nothing else reaches (ROADMAP item 10).
#
# Lists every `pub fn|struct|enum|trait|const|static|type` declared in the
# non-test part of a `crates/*/src` file (the lines before the
# `#[cfg(test)]` that opens a `mod`, as in scripts/loc.sh) whose name no
# other file under `crates/*/src`, `src/`, `examples/` or `benchmark/src`
# contains as a word outside a `pub use` re-export. One `<file> <name>`
# line per item, sorted. Crude on purpose: a name another file uses for
# something else counts as reached.
#
#   scripts/unreached.sh           print the list
#   scripts/unreached.sh --check   fail when an item is listed that
#                                  scripts/unreached.allow does not name
#
# The allowlist holds `<file> <name>  # reason` lines; `#` starts a comment.
set -euo pipefail
cd "$(dirname "$0")/.."

list() {
  local defs users
  defs=$(find crates/*/src -name '*.rs' | sort)
  users=$(find crates/*/src src examples benchmark/src -name '*.rs' 2>/dev/null | sort)
  # pass=1 files: the public items of each non-test part.
  # pass=2 files: which files name each word.
  # shellcheck disable=SC2086
  awk '
    FNR == 1 { counting = 1; held = 0 }
    pass == 1 {
      if (!counting) next
      if (held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { counting = 0; next }
      if (held && /^[[:space:]]*#\[/) next
      held = 0
      if (/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { counting = 0; next }
      if (/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) { held = 1; next }
      line = $0
      if (!sub(/^[[:space:]]*pub[[:space:]]+/, "", line)) next
      # `const fn`, `unsafe fn`, `extern "C" fn`: the item is the fn.
      sub(/^((const|unsafe|async|extern[[:space:]]+"[^"]*")[[:space:]]+)+fn[[:space:]]/, "fn ", line)
      if (match(line, /^(fn|struct|enum|trait|const|static|type)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
        n = split(substr(line, 1, RLENGTH), parts, /[[:space:]]+/)
        defs[FILENAME, parts[n]] = 1
      }
      next
    }
    pass == 2 {
      # A `pub use` re-export (to its closing `;`) names items without
      # using them.
      if (FNR == 1) reexport = 0
      if (/^[[:space:]]*pub(\([a-z]+\))?[[:space:]]+use[[:space:]]/) reexport = 1
      if (reexport) { if (/;/) reexport = 0; next }
      text = $0
      while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
        word = substr(text, RSTART, RLENGTH)
        text = substr(text, RSTART + RLENGTH)
        if (!((word, FILENAME) in seen)) {
          seen[word, FILENAME] = 1
          users[word] = users[word] SUBSEP FILENAME
        }
      }
    }
    END {
      for (key in defs) {
        split(key, kf, SUBSEP)
        m = split(users[kf[2]], files, SUBSEP)
        reached = 0
        for (i = 1; i <= m; i++) if (files[i] != "" && files[i] != kf[1]) reached = 1
        if (!reached) print kf[1] " " kf[2]
      }
    }
  ' pass=1 $defs pass=2 $users | sort
}

if [ "${1:-}" = "--check" ]; then
  allowed=$(sed -e 's/#.*//' -e '/^[[:space:]]*$/d' scripts/unreached.allow | awk '{ print $1 " " $2 }' | sort -u)
  extra=$(comm -23 <(list) <(echo "$allowed"))
  stale=$(comm -13 <(list) <(echo "$allowed"))
  if [ -n "$stale" ]; then
    echo "reached or gone, and still in scripts/unreached.allow (remove them):"
    echo "$stale" | sed 's/^/  /'
  fi
  if [ -n "$extra" ]; then
    echo "public items nothing else names (delete them, drop \`pub\`, or allow them with a reason):" >&2
    echo "$extra" | sed 's/^/  /' >&2
    exit 1
  fi
  echo "unreached public items: $(echo "$allowed" | grep -c . || true) allowed, none new"
else
  list
fi
