#!/usr/bin/env bash
# Lint gate: the determinism lint (scripts/determinism_lint.sh) over the
# library and croupier-lab, then clang-tidy (config: .clang-tidy) when it
# is installed. CI's `lint` job runs exactly this; locally it is the fast
# pre-commit check. The full build's ctest runs the determinism lint over
# every target as `determinism_lint`.
#
# Every leg runs even when an earlier one fails; the exit code is the
# aggregate, so one run reports the findings of every leg.
#
# Usage: scripts/run_lint.sh [--no-tidy]
#   BUILD_DIR=...    build directory for the library and croupier-lab
#                    (default build-lint; reusing an existing build dir is
#                    fine)
#   TIDY_DIR=...     clang-tidy build directory (default build-tidy)
#   REQUIRE_TIDY=1   missing clang-tidy is a failure instead of a skip
#                    (CI sets this: the tidy leg must actually execute)
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-lint}
TIDY_DIR=${TIDY_DIR:-build-tidy}
REQUIRE_TIDY=${REQUIRE_TIDY:-0}
NO_TIDY=0
if [ "${1:-}" = "--no-tidy" ]; then
  NO_TIDY=1
fi

failed=0

echo "== determinism lint =="
if cmake -B "$BUILD_DIR" -S . -DCROUPIER_BUILD_TESTS=OFF \
     -DCROUPIER_BUILD_BENCHES=OFF -DCROUPIER_BUILD_EXAMPLES=OFF >/dev/null \
   && cmake --build "$BUILD_DIR" -j "$(nproc)" \
        --target croupier_core croupier_lab >/dev/null
then
  scripts/determinism_lint.sh nm "$BUILD_DIR/src/libcroupier_core.a" \
    "$BUILD_DIR" || failed=1
else
  echo "determinism lint: failed to build" >&2
  failed=1
fi

if [ "$NO_TIDY" = 1 ]; then
  exit "$failed"
fi
if ! command -v clang-tidy >/dev/null 2>&1; then
  if [ "$REQUIRE_TIDY" = 1 ]; then
    echo "clang-tidy required (REQUIRE_TIDY=1) but not installed" >&2
    exit 1
  fi
  echo "clang-tidy not installed; skipping (lint exit: $failed)" >&2
  exit "$failed"
fi

echo "== clang-tidy ($(clang-tidy --version | sed -n 2p | tr -s ' ')) =="
# A full compile with CMAKE_CXX_CLANG_TIDY checks every TU; warnings
# print, and the checks listed in WarningsAsErrors fail the build.
if ! cmake -B "$TIDY_DIR" -S . -DCROUPIER_CLANG_TIDY=ON \
       -DCROUPIER_BUILD_TESTS=OFF -DCROUPIER_BUILD_BENCHES=OFF \
       -DCROUPIER_BUILD_EXAMPLES=OFF >/dev/null \
   || ! cmake --build "$TIDY_DIR" -j "$(nproc)"; then
  failed=1
fi

if [ "$failed" = 0 ]; then
  echo "lint: clean"
else
  echo "lint: FAILED (see legs above)" >&2
fi
exit "$failed"
