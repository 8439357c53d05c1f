#!/usr/bin/env bash
# The paired-run protocol every speed claim in this repo is made with
# (ROADMAP "Open items", process fact (b)): N alternating parent/change
# runs of one benchmark workload, a fresh seed per pair, tracing off.
#
#   scripts/pairs.sh [--smoke] <parent-binary> <change-binary> <workload> [pairs=10]
#
# Both binaries are `fbf-benchmark` builds (one per commit, each from its
# own target dir). Pair i runs both at one seed — i for odd pairs, 100 + i
# for even ones, so half the seeds are ones nobody develops against — and
# alternates which side goes first. Each run gets its own --out under
# $TMPDIR. Prints every pair's op_p50_ms / chunks_per_s / peak_rss_mb /
# setup_s, both sides' medians and quartiles, and the win counts of
# op_p50_ms (lower wins) and chunks_per_s (higher wins); exits 1 if any sim_*
# metric differs between the binaries at equal seed (they are exact, so a
# difference is a behaviour change, not noise). --smoke runs the 1/20-scale
# workloads for a fraction of a second: CI uses it, with one binary on both
# sides, to keep this script working.
set -euo pipefail

mode=(--seconds 10)
if [ "${1:-}" = "--smoke" ]; then
  mode=(--smoke)
  shift
fi
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  sed -n '2,7p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10}

out=$(mktemp -d "${TMPDIR:-/tmp}/fbf-pairs.XXXXXX")
trap 'rm -rf "$out"' EXIT

run() { # side binary pair seed
  "$2" run --workload "$workload" --seed "$4" "${mode[@]}" --trace 0 \
    --out "$out/$1-$3" 2>/dev/null | tail -n 1 > "$out/$1-$3.json"
}

for i in $(seq 1 "$pairs"); do
  seed=$(( i % 2 ? i : 100 + i ))
  if (( i % 2 )); then
    run parent "$parent" "$i" "$seed"
    run change "$change" "$i" "$seed"
  else
    run change "$change" "$i" "$seed"
    run parent "$parent" "$i" "$seed"
  fi
  echo "$seed" > "$out/seed-$i"
done

python3 - "$out" "$workload" "$pairs" <<'PY'
import json, statistics, sys

out, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
SHOWN = ("op_p50_ms", "chunks_per_s", "peak_rss_mb", "setup_s")
# The end-to-end rates a pair is won on, and which way is better.
WON_ON = (("op_p50_ms", "lower"), ("chunks_per_s", "higher"))


def load(side, i):
    with open(f"{out}/{side}-{i}.json") as fh:
        doc = json.load(fh)
    return {name: m["value"] for name, m in doc["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return f"median {values[0]:.3f}"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {med:.3f}  quartiles {q1:.3f} .. {q3:.3f}"


print(f"{workload}: {pairs} pair(s), parent | change")
print("seed  first   " + "  ".join(f"{name:>25}" for name in SHOWN))
sides = {"parent": [], "change": []}
moved = []
for i in range(1, pairs + 1):
    with open(f"{out}/seed-{i}") as fh:
        seed = int(fh.read())
    parent, change = load("parent", i), load("change", i)
    sides["parent"].append(parent)
    sides["change"].append(change)
    cells = "  ".join(f"{parent[n]:>12.3f}|{change[n]:<12.3f}" for n in SHOWN)
    print(f"{seed:>4}  {'parent' if i % 2 else 'change':<6}  {cells}")
    for name in sorted(set(parent) | set(change)):
        if name.startswith("sim_") and parent.get(name) != change.get(name):
            moved.append(f"seed {seed}: {name} {parent.get(name)!r} != {change.get(name)!r}")

for name in SHOWN:
    for side in ("parent", "change"):
        print(f"{name:<12} {side}: {spread([run[name] for run in sides[side]])}")
for name, better in WON_ON:
    both = [(p[name], c[name]) for p, c in zip(sides["parent"], sides["change"])]
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in both)
    ties = sum(c == p for p, c in both)
    print(f"{name}: change wins {wins}/{pairs} pairs ({ties} tie(s))")
if moved:
    print("sim_* metrics differ at equal seed:", *moved, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print("every sim_* metric equal at equal seed")
PY
