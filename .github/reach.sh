#!/usr/bin/env bash
# Reach by execution: which functions do product runs execute?
#
#   bash .github/reach.sh [WORKDIR]
#
# Builds gridsim, gridnode and gridtrace with coverage of every package,
# runs the product paths under GOCOVERDIR — the -fast profile of every
# experiment with its host columns, CSV and SVG output, `gridsim run` for
# both applications, every gridnode smoke recipe (.github/smoke.sh), a
# gateway job trace through gridtrace, and examples/quickstart —
# then prints per-package statement coverage and fails on any function at
# 0 % that .github/reach-allow.txt does not name. An allowlist line is a
# file path or path:Function, then a one-line reason; a reason that begins
# "unused" or "test-only" fails too.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=${1:-$(mktemp -d)}
mkdir -p "$WORK"
WORK=$(cd "$WORK" && pwd)
export GOCOVERDIR=$WORK/covdata
rm -rf "$GOCOVERDIR" && mkdir -p "$GOCOVERDIR"

cd "$ROOT"
for cmd in gridsim gridnode gridtrace; do
  go build -cover -coverpkg=./... -o "$WORK/$cmd" "./cmd/$cmd"
done
go run -cover -coverpkg=./... ./examples/quickstart

cd "$WORK"
# Gate-soak's paced-bounded check is a wall-clock ratio that a loaded
# host can fail (ROADMAP item 6); tier-1 tests assert the experiments, so
# a failed check here is reported and the reach count goes on.
if ! ./gridsim -experiment all -fast -quiet -csv csv -svg svg > gridsim-all.txt; then
  echo "::warning::gridsim -experiment all -fast exited non-zero; see gridsim-all.txt"
fi
./gridsim run -app stencil -procs 4 -objects 64 -width 256 -steps 8 -warmup 2 \
  -latency 2ms -lb refine -trace-out run-trace
./gridsim run -app leanmd -procs 8 -cells 3 -atoms 6 -steps 4 -warmup 1 \
  -latency 4ms -trace-out run-trace
GRIDNODE=$WORK/gridnode GRIDTRACE=$WORK/gridtrace \
  bash "$ROOT/.github/smoke.sh" lb taskfarm membership gate telemetry trace
# The telemetry recipe leaves a cross-process job trace behind.
./gridtrace -job trace.json -chrome job.perfetto.json

cd "$ROOT"
echo "== statement coverage per package"
go tool covdata percent -i="$GOCOVERDIR" | sort
go tool covdata textfmt -i="$GOCOVERDIR" -o "$WORK/cover.txt"
go tool cover -func="$WORK/cover.txt" > "$WORK/func.txt"
tail -n 1 "$WORK/func.txt"

# "gridmdo/internal/x/y.go:12:	Name	0.0%" -> "internal/x/y.go Name"
MOD=$(go list -m)
awk -v mod="$MOD/" '$NF == "0.0%" {
  file = $1; sub("^" mod, "", file); sub(/:[0-9]+:$/, "", file); print file, $2
}' "$WORK/func.txt" > "$WORK/zero.txt"
echo "== $(wc -l < "$WORK/zero.txt") functions at 0 %"

ALLOW=$ROOT/.github/reach-allow.txt
if awk '!/^(#|$)/ && NF < 2' "$ALLOW" | grep .; then
  echo "reach-allow.txt: the lines above give no reason" >&2
  exit 1
fi
# Code that runs in no product run and no test substitutes through goes;
# a test that needs it names itself as a "test seam".
if awk '!/^(#|$)/ && $2 ~ /^(unused|test-only)/' "$ALLOW" | grep .; then
  echo "reach-allow.txt: the lines above keep unused or test-only code; delete it, give it a product path, or name the test seam" >&2
  exit 1
fi
awk 'NR == FNR { if (!/^(#|$)/) allow[$1] = 1; next }
  !(($1 in allow) || (($1 ":" $2) in allow)) { print $1 ":" $2 }' \
  "$ALLOW" "$WORK/zero.txt" > "$WORK/unlisted.txt"
# An entry that matches no unreached function is stale — the code it names
# runs now, or is gone — unless it names a timing-dependent path that this
# run happened to take. Stale entries are listed, not failed.
awk 'NR == FNR { used[$1] = 1; used[$1 ":" $2] = 1; next }
  !/^(#|$)/ && !($1 in used) { print $1 }' \
  "$WORK/zero.txt" "$ALLOW" > "$WORK/stale.txt"
if [ -s "$WORK/stale.txt" ]; then
  echo "== allowlist entries that match no function at 0 % in this run:"
  cat "$WORK/stale.txt"
fi
if [ -s "$WORK/unlisted.txt" ]; then
  echo "== functions at 0 % that reach-allow.txt does not name:" >&2
  cat "$WORK/unlisted.txt" >&2
  exit 1
fi
echo "reach: every unreached function is allowlisted"
