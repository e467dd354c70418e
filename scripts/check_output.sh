#!/usr/bin/env bash
# Output gate: runs one bench, croupier-lab sweep or example and checks
# its output bytes against a committed digest manifest. Run as the
# `output` ctests, with tests/golden/outputs.sha256.
#
# Usage: scripts/check_output.sh MANIFEST DIR [--csv] COMMAND [ARG...]
#   MANIFEST  `sha256sum` lines, one per output file
#   DIR       made afresh; COMMAND runs in it, NAME is its last component
#   --csv     COMMAND is a bench or croupier-lab: it also gets
#             $CROUPIER_OUTPUT_FLAGS and --csv=NAME.csv
#
# Stdout, stderr and the CSV are kept in DIR as NAME.stdout, NAME.stderr
# and NAME.csv. The check fails if COMMAND exits nonzero, or if
# NAME.stdout (and with --csv, NAME.csv) does not hash to its line. A
# failure prints the expected and the actual line; `diff` against another
# build's kept files finds the first differing line. There is no write
# mode: a named output change pastes the actual line over the expected.
#
# CROUPIER_OUTPUT_FLAGS picks the configuration. Unset, a bench runs at
# its defaults (--jobs is the core count); CI also sets "--jobs=1" and
# "--jobs=4 --world-jobs=4", and every configuration must hit the same
# line. The flags go right after the binary, so a test's own flags win.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 MANIFEST DIR [--csv] COMMAND [ARG...]" >&2; exit 2; }
manifest=$(realpath "$1") dir=$2
shift 2
name=$(basename "$dir")
files=("$name.stdout")
flags=()
if [ "$1" = --csv ]; then
  shift
  files+=("$name.csv")
  read -ra flags <<<"${CROUPIER_OUTPUT_FLAGS:-}"
  flags+=("--csv=$name.csv")
fi
bin=$1
shift

rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"
status=0
"$bin" "${flags[@]}" "$@" >"$name.stdout" 2>"$name.stderr" || status=$?
if [ "$status" != 0 ]; then
  echo "FAIL $name: exit status $status; stderr ends:"
  tail -n 5 "$name.stderr"
  exit 1
fi

fail=0
for file in "${files[@]}"; do
  expected=$(awk -v file="$file" '$2 == file' "$manifest")
  actual=$(sha256sum "$file") || actual="<no $file written>"
  if [ "$expected" != "$actual" ]; then
    echo "FAIL $PWD/$file"
    echo "  expected: ${expected:-<no line in $manifest>}"
    echo "  actual:   $actual"
    fail=1
  fi
done
exit "$fail"
