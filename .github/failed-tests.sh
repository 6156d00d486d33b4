#!/usr/bin/env bash
# Names every failed test in `go test -json` event files, each followed by
# its own output, so a failure that does not reproduce on a rerun still
# says which test it was and what it printed.
#
#   bash .github/failed-tests.sh race-*.json
#
# A package that failed outside any test (a panic in init, a timeout) is
# named with an empty test and followed by its package-level output.
set -euo pipefail
for f in "$@"; do
  [ -e "$f" ] || continue
  jq -rjs '
    . as $ev
    | [.[] | select(.Action == "fail") | [.Package, (.Test // "")]] | unique[] as $t
    | "=== FAILED \($t[0]) \($t[1])\n",
      ($ev[] | select(.Action == "output" and [.Package, (.Test // "")] == $t) | .Output)
  ' "$f"
done
