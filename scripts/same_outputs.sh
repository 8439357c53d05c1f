#!/usr/bin/env bash
# Does the working tree print what <rev> prints?
#
#   scripts/same_outputs.sh <rev>
#
# Exports <rev> (`git archive`) to target/same-outputs/src-<sha>/, builds
# its binaries there and the working tree's in place, and runs one fixed
# matrix on both:
#
#   - every fbf-bench binary at three scales: quick (FBF_BENCH_QUICK=1 at
#     256 stripes / 64 errors / 16 workers, CI's smoke scale), the same
#     256/64/16 without quick, and the default scale; each binary's
#     stdout, stderr, exit code and results/*.csv are kept;
#   - every line of tests/cli/script.txt (the working tree's), against a
#     fresh `fbf serve`, as one transcript plus the files it writes;
#   - `fbf run` (text and --json) and `fbf sweep`, clean and faulted, each
#     with --metrics;
#   - a scripted daemon session: repairs on every backend, clean and
#     faulted, a rebuild, status, jobs, stat, metrics and a flight dump.
#
# Host time is masked by the one rule (crates/obs/src/host.rs): the
# number after a `host_` key in JSON and text, and the cells of a `host_`
# column in a CSV or in a `== title ==` text table. Then every output is
# compared with `cmp`, and one line says how it went:
#
#   same_outputs: identical to <rev> (<n> outputs)
#   same_outputs: <k> of <n> outputs differ from <rev>: <paths>
#
# Exit status 0 or 1 (2 for a usage or build error). Raw outputs are kept
# in target/same-outputs/{base,work}/, masked ones in .../masked/.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: scripts/same_outputs.sh <rev>" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
sha=$(git rev-parse --verify "$1^{commit}") || exit 2
work_dir="$root/target/same-outputs"
mkdir -p "$work_dir"
unset FBF_STRIPES FBF_ERRORS FBF_WORKERS FBF_DISKS FBF_BENCH_QUICK FBF_FLIGHT_DIR

build() { # <source dir> <target dir>
  (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release -q --offline --workspace --bins) \
    || { echo "same_outputs: build failed in $1" >&2; exit 2; }
}
src="$work_dir/src-$sha"
if [ ! -d "$src" ]; then
  # Keep one exported revision (and its build) at a time.
  rm -rf "$work_dir"/src-*
  mkdir -p "$src.tmp"
  git archive --format=tar "$sha" | tar -x -C "$src.tmp"
  mv "$src.tmp" "$src"
fi
build "$src" "$src/target"
build "$root" "${CARGO_TARGET_DIR:-$root/target}"

scratch=$(mktemp -d)
daemons=()
cleanup() {
  for pid in "${daemons[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$scratch"
}
trap cleanup EXIT

# Start `fbf serve` on <sock> with the given flags; wait until it listens.
serve() { # <bin dir> <sock> <flags...>
  local bin=$1 sock=$2
  shift 2
  "$bin/fbf" serve --socket "$sock" "$@" > /dev/null &
  daemons+=($!)
  for _ in $(seq 1 300); do [ -S "$sock" ] && return; sleep 0.1; done
  echo "same_outputs: fbf serve never bound $sock" >&2
  exit 2
}

# Run one command; keep its stdout, stderr and exit code under <name>.
keep() { # <name> <command...>
  local name=$1
  shift
  mkdir -p "$(dirname "$name")"
  local rc=0
  "$@" > "$name.stdout" 2> "$name.stderr" || rc=$?
  echo "$rc" > "$name.exit"
}

# Replay tests/cli/script.txt the way tests/cli.rs does, into one file.
cli_transcript() { # <bin dir> <out dir>
  local bin=$1 out=$2 tmp="$scratch/cli"
  rm -rf "$tmp" && mkdir -p "$tmp" "$out"
  serve "$bin" "$tmp/fbfd.sock" --daemon-workers 1 --retain 2 --ring-cap 64
  local line shown command capture rc argv
  while IFS= read -r line || [ -n "$line" ]; do
    line=$(echo "$line" | sed 's/^[[:space:]]*//; s/[[:space:]]*$//')
    case $line in '' | '#'*) continue ;; esac
    shown=${line#code: }
    command=$shown capture=
    if [[ $shown == *" > "* ]]; then
      command=${shown%% > *}
      capture=${shown#* > }
      capture=${capture//\$TMP/$tmp}
    fi
    command=${command//\$SOCK/$tmp/fbfd.sock}
    read -ra argv <<< "${command//\$TMP/$tmp}"
    rc=0
    "$bin/fbf" "${argv[@]}" > "$scratch/stdout" 2> "$scratch/stderr" || rc=$?
    printf '$ fbf %s\nexit %s\n' "$shown" "$rc"
    [ "$shown" != "$line" ] && continue
    if [ -n "$capture" ]; then
      cp "$scratch/stdout" "$capture"
    else
      awk -v tmp="$tmp" '{ gsub(tmp, "$TMP"); print "| " $0 }' "$scratch/stdout"
    fi
    awk -v tmp="$tmp" '{ gsub(tmp, "$TMP"); print "! " $0 }' "$scratch/stderr"
  done < "$root/tests/cli/script.txt" > "$out/transcript"
  wait "${daemons[-1]}" || true
  cp "$tmp"/*.prom "$tmp"/*.trace "$out"/ 2> /dev/null || true
}

# The scripted daemon session.
daemon_session() { # <bin dir> <out dir>
  local bin=$1 out=$2 tmp="$scratch/daemon"
  rm -rf "$tmp" && mkdir -p "$tmp" "$out"
  local sock="$tmp/fbfd.sock"
  serve "$bin" "$sock" --daemon-workers 1 --retain 4 --ring-cap 4096
  local client=("$bin/fbf" client --socket "$sock")
  local repair=(repair --stripes 256 --errors 32 --workers 8 --cache-mb 8 --wait --json)
  local faults=(--seed 4 --media 30 --transient 40 --kill 3@40)
  keep "$out/ping" "${client[@]}" ping --json
  for backend in engine sim file; do
    local dir=()
    [ "$backend" = file ] && dir=(--dir "$tmp/array")
    keep "$out/repair-$backend" "${client[@]}" "${repair[@]}" --backend "$backend" "${dir[@]}"
    [ "$backend" = file ] && dir=(--dir "$tmp/array-faulted")
    keep "$out/repair-$backend-faulted" "${client[@]}" "${repair[@]}" "${faults[@]}" \
      --backend "$backend" "${dir[@]}"
  done
  keep "$out/read" "${client[@]}" read 3 0 0 0 --json
  keep "$out/status" "${client[@]}" status 2 --json
  # Before the rebuild: its waves record from helper threads, in an
  # order the host decides.
  keep "$out/dump" "${client[@]}" dump --out "$out/flight.jsonl"
  keep "$out/rebuild" "${client[@]}" rebuild --disks 24 --stripes 128 --workers 8 \
    --wait --json
  keep "$out/jobs" "${client[@]}" jobs --json
  keep "$out/stat" "${client[@]}" stat
  keep "$out/stat-json" "${client[@]}" stat --json
  keep "$out/metrics" "${client[@]}" metrics
  keep "$out/shutdown" "${client[@]}" shutdown
  wait "${daemons[-1]}" || true
  sed -i "s|$tmp|\$TMP|g" "$out"/*.stdout "$out"/*.stderr
}

run_matrix() { # <bin dir> <out dir>
  local bin=$1 out=$2 name scale
  rm -rf "$out" && mkdir -p "$out"
  for src_file in "$root"/crates/bench/src/bin/*.rs; do
    name=$(basename "$src_file" .rs)
    for scale in quick small default; do
      local env=()
      case $scale in
        quick) env=(FBF_BENCH_QUICK=1 FBF_STRIPES=256 FBF_ERRORS=64 FBF_WORKERS=16) ;;
        small) env=(FBF_STRIPES=256 FBF_ERRORS=64 FBF_WORKERS=16) ;;
      esac
      mkdir -p "$out/bench/$scale/$name"
      (cd "$out/bench/$scale/$name" && keep run env "${env[@]}" "$bin/$name")
    done
  done
  cli_transcript "$bin" "$out/cli"
  local size=(--stripes 256 --errors 64 --workers 16)
  local faults=(--media 15 --transient 40 --kill 3@40)
  for kind in clean faulted; do
    local extra=()
    [ "$kind" = faulted ] && extra=("${faults[@]}")
    keep "$out/run/$kind" "$bin/fbf" run "${size[@]}" "${extra[@]}" \
      --metrics "$out/run/$kind.prom"
    keep "$out/run/$kind-json" "$bin/fbf" --json run "${size[@]}" "${extra[@]}"
    keep "$out/sweep/$kind" "$bin/fbf" sweep "${size[@]}" "${extra[@]}" \
      --metrics "$out/sweep/$kind.prom"
  done
  daemon_session "$bin" "$out/daemon"
  # Outputs that name a file they wrote name it under <out dir>.
  find "$out" -type f -exec sed -i "s|$out/|\$OUT/|g" {} +
}

run_matrix "$src/target/release" "$work_dir/base"
run_matrix "${CARGO_TARGET_DIR:-$root/target}/release" "$work_dir/work"

# The one masking rule, applied to a copy of every output.
mask() { # <file>
  perl -e '
    my $path = shift;
    open my $fh, "<", $path or die "$path: $!";
    my @lines = <$fh>;
    my $csv = $path =~ /\.csv$/;
    my (@host, @spans, $table);
    for my $i (0 .. $#lines) {
      local $_ = $lines[$i];
      if ($csv) {
        chomp;
        my @f = split /,/, $_, -1;
        if ($i == 0) { @host = grep { $f[$_] =~ /^host_/ } 0 .. $#f }
        else { $f[$_] = "*" for grep { $_ < @f } @host }
        $lines[$i] = join(",", @f) . "\n";
        next;
      }
      if (/^== .* ==$/) { $table = 1; next }
      if ($table && $table == 1) {
        # Right-aligned columns joined by two spaces: a column ends where
        # its header does and starts two past the previous one.
        my $start = 0;
        @spans = ();
        while (/(\S+)/g) {
          my ($name, $end) = ($1, $+[1]);
          push @spans, [$start, $end] if $name =~ /^host_/;
          $start = $end + 2;
        }
        $table = @spans ? 2 : 0;
        next;
      }
      if ($table) {
        if (/^\s*$/) { $table = 0; next }
        next if /^-+$/;
        for (@spans) {
          my ($s, $e) = @$_;
          substr($lines[$i], $s, $e - $s) = " " x ($e - $s - 1) . "*"
            if length($lines[$i]) > $e;
        }
        next;
      }
      s/(host_[A-Za-z0-9_]*"?[:=]\s*)[-+0-9.eE]+/$1*/g;
      $lines[$i] = $_;
    }
    print @lines;
  ' "$1"
}

rm -rf "$work_dir/masked"
differ=()
total=0
while IFS= read -r rel; do
  total=$((total + 1))
  for side in base work; do
    mkdir -p "$work_dir/masked/$side/$(dirname "$rel")"
    if [ -f "$work_dir/$side/$rel" ]; then
      mask "$work_dir/$side/$rel" > "$work_dir/masked/$side/$rel"
    fi
  done
  cmp -s "$work_dir/masked/base/$rel" "$work_dir/masked/work/$rel" || differ+=("$rel")
done < <(cd "$work_dir" && { (cd base && find . -type f); (cd work && find . -type f); } \
  | sed 's|^\./||' | sort -u)

if [ ${#differ[@]} -eq 0 ]; then
  echo "same_outputs: identical to $1 ($total outputs)"
else
  echo "same_outputs: ${#differ[@]} of $total outputs differ from $1: ${differ[*]}"
  exit 1
fi
