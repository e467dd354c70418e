#!/usr/bin/env bash
# Determinism gate for both parallelism axes of the harness:
#
#  - trial-level (--jobs): the TrialPool contract — results are folded in
#    submission order, so worker count can never show up in the output;
#  - world-level (--world-jobs): the round-synchronous parallel engine
#    contract — events are sharded by node and their effects merged in
#    (time, seq) order, so the engine is byte-identical to the sequential
#    one.
#
# Every figure bench must produce byte-identical stdout AND --csv output
# for (--jobs=1 --world-jobs=1), (--jobs=4 --world-jobs=1) and
# (--jobs=4 --world-jobs=4). croupier-lab additionally must reproduce
# fig1's series rows byte for byte (the PR-3 API-redesign acceptance).
#
# With REFERENCE_BUILD_DIR set to a build of another tree (say, the
# parent commit, for a change that must not move an output byte), every
# figure bench's and every croupier-lab sweep's --jobs=1 stdout and CSV,
# and every example's stdout, must also match that build's runs byte for
# byte.
#
# A failing comparison also prints, for the stdout and for the CSV (an
# example's stdout alone), the first line at which the two runs differ,
# from each side.
#
# Usage: scripts/check_determinism.sh [--fast]
#   BUILD_DIR=...            bench build directory (default build)
#   REFERENCE_BUILD_DIR=...  optional build to compare outputs against
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
REF_DIR=${REFERENCE_BUILD_DIR:-}
MODE=${1:---fast}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0
run_config() {  # binary tag extra-flags...
  local bin=$1 tag=$2
  shift 2
  "$bin" "$@" --csv="$TMP/$tag.csv" >"$TMP/$tag.txt" 2>/dev/null
}

# Prints the first line at which two runs' files differ, from both
# sides, since $TMP is gone once the script exits. Prints nothing when
# the files are equal.
first_diff() {  # label extension base other
  local kind=$1 ext=$2 base=$3 other=$4
  cmp -s "$TMP/$base.$ext" "$TMP/$other.$ext" && return 0
  awk -v kind="$kind" -v base="$base" -v other="$other" \
    -v a="$TMP/$base.$ext" -v b="$TMP/$other.$ext" 'BEGIN {
      for (n = 1; ; ++n) {
        ra = (getline la < a) > 0
        rb = (getline lb < b) > 0
        if (!ra && !rb) exit
        if (ra == rb && la == lb) continue
        printf "       %s line %d differs first:\n", kind, n
        printf "         %s: %s\n", base, ra ? la : "<end of file>"
        printf "         %s: %s\n", other, rb ? lb : "<end of file>"
        exit
      }
    }'
}

check_same() {  # name base other
  local name=$1 base=$2 other=$3
  if cmp -s "$TMP/$base.txt" "$TMP/$other.txt" &&
     cmp -s "$TMP/$base.csv" "$TMP/$other.csv"; then
    return 0
  fi
  echo "FAIL $name ($base vs $other output differs)"
  first_diff stdout txt "$base" "$other"
  first_diff CSV csv "$base" "$other"
  fail=1
  return 1
}

for bench in "$BUILD_DIR"/bench/fig* "$BUILD_DIR"/bench/ablation_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  run_config "$bench" "$name.j1" "$MODE" --runs=2 --jobs=1 --world-jobs=1
  run_config "$bench" "$name.j4" "$MODE" --runs=2 --jobs=4 --world-jobs=1
  run_config "$bench" "$name.w4" "$MODE" --runs=2 --jobs=4 --world-jobs=4
  ok=1
  check_same "$name" "$name.j1" "$name.j4" || ok=0
  check_same "$name" "$name.j1" "$name.w4" || ok=0
  [ "$ok" = 1 ] && echo "ok   $name (jobs 1/4, world-jobs 1/4)"
  if [ -n "$REF_DIR" ]; then
    if [ -x "$REF_DIR/bench/$name" ]; then
      run_config "$REF_DIR/bench/$name" "$name.ref" "$MODE" --runs=2 \
        --jobs=1 --world-jobs=1
      check_same "$name" "$name.j1" "$name.ref" &&
        echo "ok   $name == reference build (jobs 1)"
    else
      echo "FAIL $name missing from reference build $REF_DIR"
      fail=1
    fi
  fi
done

# Examples print to stdout only; with a reference build, each must print
# exactly what the reference's copy prints.
if [ -n "$REF_DIR" ]; then
  for example in "$BUILD_DIR"/examples/*; do
    [ -f "$example" ] && [ -x "$example" ] || continue
    name=$(basename "$example")
    if [ ! -x "$REF_DIR/examples/$name" ]; then
      echo "FAIL example $name missing from reference build $REF_DIR"
      fail=1
      continue
    fi
    "$example" >"$TMP/ex.$name.txt" 2>/dev/null
    "$REF_DIR/examples/$name" >"$TMP/ex.$name.ref.txt" 2>/dev/null
    if cmp -s "$TMP/ex.$name.txt" "$TMP/ex.$name.ref.txt"; then
      echo "ok   example $name == reference build"
    else
      echo "FAIL example $name (output differs from reference build)"
      first_diff stdout txt "ex.$name" "ex.$name.ref"
      fail=1
    fi
  done
fi

# croupier-lab: same determinism contracts on both axes, plus the
# API-redesign acceptance check — a lab sweep of fig1's three
# (alpha,gamma) specs must reproduce the dedicated bench's series rows
# byte for byte at the same seed (the sweep points share fig1's
# trial-seed grid coordinates).
LAB="$BUILD_DIR/tools/croupier-lab"
lab_check() {  # tag label lab-flags...
  local tag=$1 label=$2 ok=1
  shift 2
  run_config "$LAB" "$tag.j1" "$@" --jobs=1 --world-jobs=1
  run_config "$LAB" "$tag.j4" "$@" --jobs=4 --world-jobs=1
  run_config "$LAB" "$tag.w4" "$@" --jobs=4 --world-jobs=4
  check_same "$label" "$tag.j1" "$tag.j4" || ok=0
  check_same "$label" "$tag.j1" "$tag.w4" || ok=0
  if [ "$ok" = 1 ]; then
    echo "ok   $label (jobs 1/4, world-jobs 1/4)"
  fi
  [ -n "$REF_DIR" ] || return 0
  if [ ! -x "$REF_DIR/tools/croupier-lab" ]; then
    echo "FAIL $label: croupier-lab missing from reference build $REF_DIR"
    fail=1
    return 0
  fi
  run_config "$REF_DIR/tools/croupier-lab" "$tag.ref" "$@" --jobs=1 \
    --world-jobs=1
  if check_same "$label" "$tag.j1" "$tag.ref"; then
    echo "ok   $label == reference build (jobs 1)"
  fi
}

if [ -x "$LAB" ]; then
  lab_check lab "croupier-lab" \
    --protocol=croupier:alpha=10,gamma=25 \
    --protocol=croupier:alpha=25,gamma=50 \
    --protocol=croupier:alpha=100,gamma=250 \
    --nodes=500 --ratio=0.2 --duration=120 --runs=2

  "$BUILD_DIR/bench/fig1_stable_ratio" --fast --runs=2 --jobs=4 \
    2>/dev/null | grep -E '^[0-9]' >"$TMP/fig1.rows"
  grep -E '^[0-9]' "$TMP/lab.w4.txt" >"$TMP/lab.rows"
  if cmp -s "$TMP/fig1.rows" "$TMP/lab.rows"; then
    echo "ok   croupier-lab == fig1_stable_ratio (series rows)"
  else
    echo "FAIL croupier-lab vs fig1_stable_ratio (series rows differ)"
    fail=1
  fi

  # The PR-5 scenario families — flash crowd, correlated failure,
  # structured time-varying loss — must honour the same determinism
  # contracts on both parallelism axes. So must worlds whose timers undercut
  # the network latency (a 20 ms round, a private round scaled to 10 ms,
  # the 3 s reassembly GC under a 4 s latency): each of those delays
  # bounds the world engine's lookahead. The NAT-ID spec under churn runs
  # the one guarded event that goes stale in real runs: an identification
  # timeout firing as a no-op after a ForwardResp decided.
  lab_check scen \
    "croupier-lab scenarios flash/failure/loss/short-timers/natid" \
    --spec="protocol=croupier nodes=300 ratio=0.2 flash=at:30,publics:120,privates:30,over:5 duration=70" \
    --spec="protocol=croupier nodes=300 ratio=0.2 failure=at:40,frac:0.3,corr:region duration=70" \
    --spec="protocol=croupier nodes=300 ratio=0.2 loss=pub-pub:0.05,priv-any:0.2,after:30 duration=70" \
    --spec="protocol=croupier nodes=200 join=instant latency=constant latency-ms=50 round-ms=20 duration=5" \
    --spec="protocol=croupier nodes=300 ratio=0.3 join=instant private-round-scale=0.01 latency=constant latency-ms=30 duration=5" \
    --spec="protocol=croupier nodes=1000 join=instant latency=constant latency-ms=4000 round-ms=5000 mtu=64 duration=60 record-every=5" \
    --spec="protocol=croupier nodes=300 ratio=0.2 natid=1 churn=0.01 churn-at=20 duration=60" \
    --runs=2

  # The PR-8 packet layer — fragmentation at mtu=64, FEC repair under
  # per-fragment loss, token-bucket bandwidth caps — must honour the same
  # determinism contracts on both parallelism axes. The last spec adds
  # churn and NAT flapping, so nodes holding reassembly entries are
  # detached and reclassified while fragments are in flight.
  lab_check pkt "croupier-lab packet mtu/fec/bandwidth/churn-natflap" \
    --spec="protocol=croupier nodes=300 ratio=0.2 mtu=64 duration=70" \
    --spec="protocol=croupier nodes=300 ratio=0.2 mtu=64 fec=2 loss=0.1 duration=70" \
    --spec="protocol=croupier nodes=300 ratio=0.2 mtu=128 bandwidth=rate:20000,burst:4000 duration=70" \
    --spec="protocol=croupier nodes=300 ratio=0.2 mtu=64 fec=2 loss=0.1 churn=0.01 churn-at=20 natflap=frac:0.1,at:20,period:10 duration=70" \
    --runs=2

  # The PR-9 randomness audit + adversarial processes — eclipse respawn,
  # NAT flapping through World::reclassify, the hub adversary shim — all
  # recorded through the randomness auditor, must honour the same
  # determinism contracts on both parallelism axes. So must Nylon under
  # churn (the suite's churn-relay shape, shortened), whose RVP and route
  # tables run full and whose private NAT boxes are written from worker
  # shards.
  lab_check rand \
    "croupier-lab randomness eclipse/natflap/adversary/nylon-churn" \
    --spec="protocol=croupier nodes=250 ratio=0.2 eclipse=target:1,at:20,period:2 record=randomness duration=60" \
    --spec="protocol=nylon nodes=250 ratio=0.2 natflap=frac:0.1,at:20,period:10 record=randomness duration=60" \
    --spec="protocol=gozar nodes=250 ratio=0.2 adversary=hubs:2 record=randomness duration=60" \
    --spec="protocol=nylon nodes=400 ratio=0.2 churn=0.01 record=randomness duration=60" \
    --runs=2
else
  echo "FAIL croupier-lab binary missing at $LAB"
  fail=1
fi
exit "$fail"
