#!/usr/bin/env bash
# Determinism lint: the static half of the byte-identity contract (same
# spec + seed => same output bytes). Run as the `determinism_lint` ctest.
#
# Usage: scripts/determinism_lint.sh NM ARCHIVE OBJECT_LIST
#   NM           the nm binary (${CMAKE_NM})
#   ARCHIVE      libcroupier_core.a: references no clock and no entropy
#                symbol
#   OBJECT_LIST  a file naming one object file per line, which CMake
#                writes as <build>/determinism_lint_objects.txt: the
#                objects of every bench/, tools/, examples/ and tests/
#                target, which reference no entropy symbol
#
# It reads object files, not executables: a statically linked gtest or
# Google Benchmark reads the clock on its own account. Clock reads in
# executables are legal (stderr timing); an `output` ctest's digest
# check fails if one reaches stdout or CSV. Prints one
# `path: [rule] symbol-or-line` line per finding and exits 1 on any
# finding, on an nm failure and on an archive or list with nothing to
# check, so a wrong path never passes.
set -uo pipefail
[ $# -eq 3 ] || { echo "usage: $0 NM ARCHIVE OBJECT_LIST" >&2; exit 2; }
nm_bin=$1 archive=$2 object_list=$3

entropy='rand|srand|rand_r|[a-z]*rand48(_r)?|arc4random.*|getrandom|getentropy|std::random_device::.*'
wallclock='time|clock|clock_gettime|gettimeofday|localtime(_r)?|gmtime(_r)?|mktime|std::chrono::.*_clock::now[(][)]'
failed=0

# check_symbols "RULE REGEX..." FILE...: one finding per undefined symbol
# of the FILEs that a REGEX matches in full.
check_symbols() {
  local rules=$1 syms
  shift
  syms=$("$nm_bin" -A -C --undefined-only "$@") || {
    echo "$1: nm failed" >&2; return 1; }
  [ -n "$syms" ] || { echo "$1: no undefined symbols" >&2; return 1; }
  awk -v rules="$rules" '{
    path = $0; sub(/: +[A-Za-z] .*$/, "", path)
    sym = $0; sub(/^.*: +[A-Za-z] /, "", sym)
    n = split(rules, r, " ")
    for (i = 1; i < n; i += 2)
      if (sym ~ ("^(" r[i + 1] ")$")) { print path ": [" r[i] "] " sym; bad = 1 }
  } END { exit bad }' <<< "$syms"
}

check_symbols "entropy $entropy wallclock $wallclock" "$archive" || failed=1
mapfile -t objects < <(grep -v '^$' "$object_list")
if [ "${#objects[@]}" -eq 0 ]; then
  echo "$object_list: no object files" >&2
  failed=1
else
  check_symbols "entropy $entropy" "${objects[@]}" || failed=1
fi

# grep_rule RULE ERE PATH...: source rules with no compiled form.
cd "$(dirname "$0")/.."
grep_rule() {
  local rule=$1 re=$2 hits
  shift 2
  hits=$(grep -rnE --include='*.[ch]pp' "$re" "$@")
  case $? in
    0) sed -E "s/^([^:]*:[0-9]+): */\1: [$rule] /" <<< "$hits"; failed=1 ;;
    1) ;;
    *) failed=1 ;;
  esac
}
grep_rule unordered-iter 'std::unordered_' \
  --exclude=hash_index.hpp --exclude=traffic.hpp src bench tools examples
grep_rule ptr-key 'std::(unordered_)?(multi)?(map|set)<[^,>]*\*' \
  src bench tools examples tests
grep_rule raw-shuffle 'std::(ranges::)?(shuffle|sample|random_shuffle) *\(' \
  src bench tools examples tests
grep_rule rng-lineage '(static|thread_local)( +const)? +(sim::)?RngStream ' \
  src bench tools examples
# fork() hashes (lineage, tag) only: one receiver forked twice with the
# same literal tag yields one stream twice.
forks=$(grep -rnoE --include='*.[ch]pp' \
  '[A-Za-z_][A-Za-z0-9_]*(\.|->)fork\((0[xX][0-9A-Fa-f]+|[0-9]+)[uUlL]*\)' \
  src bench tools examples)
[ $? -le 1 ] || failed=1
awk -F: 'NF {
  key = $1 ":" $3
  if (key in seen) {
    print $1 ":" $2 ": [rng-lineage] " $3 " (also at line " seen[key] ")"
    bad = 1
  } else seen[key] = $2
} END { exit bad }' <<< "$forks" || failed=1

[ "$failed" = 0 ] && echo "determinism lint: clean"
exit "$failed"
