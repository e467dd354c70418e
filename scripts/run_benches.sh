#!/usr/bin/env bash
# Bench harness: builds Release, runs the micro-benchmarks plus every
# figure-regeneration bench in --fast mode, and writes BENCH_micro.json —
# the machine-readable baseline PRs regress against.
#
# Usage: scripts/run_benches.sh [output.json]
#   BUILD_DIR=...   override the Release build directory
#                   (default build-release)
#   JOBS=N          worker threads per fig bench (default: nproc); trials
#                   fan out through exp::parallel_map, output is
#                   byte-identical for every N
#   RUNS=N          seeds averaged per fig-bench point (default 5 — the
#                   paper's averaging; trials run in parallel so the
#                   extra runs cost little wall clock on multi-core)
#   CSV_DIR=...     also write each fig bench's --csv mirror there
#
# BENCH_micro.json layout:
#   protocols.<Name>.rounds_per_sec   end-to-end gossip-round throughput
#                                     (BM_ProtocolRounds, 128-node world)
#   components.<BM_Name>              wall ns/op (items_per_sec when the
#                                     bench reports it)
#   fig_benches.<name>.wall_seconds   --fast --runs=$RUNS wall clock per
#                                     bench
#   fig_benches.<name>.peak_rss_bytes bench-process peak resident set
#                                     (ru_maxrss of the child)
set -euo pipefail

# Resolve the output path against the caller's cwd before cd-ing away.
OUT=$(realpath -m "${1:-BENCH_micro.json}")
cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)
if [ $# -eq 0 ]; then
  OUT="$REPO_ROOT/BENCH_micro.json"
fi
BUILD_DIR=${BUILD_DIR:-"$REPO_ROOT/build-release"}
JOBS=${JOBS:-$(nproc)}
RUNS=${RUNS:-5}
CSV_DIR=${CSV_DIR:-}
if [ -n "$CSV_DIR" ]; then
  mkdir -p "$CSV_DIR"
fi

# Benches only: skip the test suites and examples so the Release build
# doesn't recompile the whole tree (CI already builds those once).
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DCROUPIER_BUILD_TESTS=OFF -DCROUPIER_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Never record a baseline from a sanitized build: a cached CMAKE_CXX_FLAGS
# with -fsanitize (e.g. BUILD_DIR pointed at an ASan tree) survives the
# re-configure above, and instrumented timings are 2-20x off. Every bench
# binary reports its provenance via --build-info.
for bench in "$BUILD_DIR"/bench/fig* "$BUILD_DIR"/bench/ablation_*; do
  [ -x "$bench" ] || continue
  if "$bench" --build-info | grep -q '^sanitized=yes'; then
    echo "error: $bench was built with a sanitizer;" \
         "refusing to write $OUT" >&2
    exit 2
  fi
  break  # one binary speaks for the build directory
done

RAW=$(mktemp)
FIG=$(mktemp)
trap 'rm -f "$RAW" "$FIG"' EXIT

echo "== micro benchmarks =="
"$BUILD_DIR/bench/micro" \
  --benchmark_format=json --benchmark_out="$RAW" \
  --benchmark_out_format=json >/dev/null

echo "== figure benches (--fast --runs=$RUNS --jobs=$JOBS) =="
for bench in "$BUILD_DIR"/bench/fig* "$BUILD_DIR"/bench/ablation_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  csv_flag=()
  if [ -n "$CSV_DIR" ]; then
    csv_flag=(--csv="$CSV_DIR/$name.csv")
  fi
  # Wall clock and peak RSS in one measurement: the wrapper waits on the
  # bench and reads RUSAGE_CHILDREN afterwards (each bench is the only
  # child, so ru_maxrss is its high-water mark).
  python3 - "$name" "$bench" --fast --runs="$RUNS" --jobs="$JOBS" \
    "${csv_flag[@]}" <<'PY' | tee -a "$FIG"
import resource
import subprocess
import sys
import time

name = sys.argv[1]
start = time.monotonic()
subprocess.run(sys.argv[2:], check=True, stdout=subprocess.DEVNULL)
wall = time.monotonic() - start
peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{name} {wall:.3f} {peak_kib * 1024}")
PY
done

python3 - "$RAW" "$FIG" "$OUT" <<'PY'
import json
import sys

raw_path, fig_path, out_path = sys.argv[1:4]
with open(raw_path) as f:
    raw = json.load(f)

protocols = {}
components = {}
for b in raw["benchmarks"]:
    name = b["name"]
    if name.startswith("BM_ProtocolRounds/"):
        protocols[name.split("/", 1)[1]] = {
            "rounds_per_sec": round(b["items_per_second"], 1),
        }
    else:
        entry = {"real_ns_per_op": round(b["real_time"], 2)}
        if "items_per_second" in b:
            entry["items_per_sec"] = round(b["items_per_second"], 1)
        components[name] = entry

fig_benches = {}
with open(fig_path) as f:
    for line in f:
        name, secs, rss = line.split()
        fig_benches[name] = {
            "wall_seconds": float(secs),
            "peak_rss_bytes": int(rss),
        }

out = {
    "schema": "croupier-bench-v1",
    "generated_by": "scripts/run_benches.sh",
    "build_type": "Release",
    "context": {
        "host": raw["context"].get("host_name", ""),
        "num_cpus": raw["context"].get("num_cpus", 0),
        "mhz_per_cpu": raw["context"].get("mhz_per_cpu", 0),
    },
    "protocols": protocols,
    "components": components,
    "fig_benches": fig_benches,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
PY

echo "== protocol throughput (gossip rounds / wall-clock second) =="
python3 - "$OUT" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    for name, entry in sorted(json.load(f)["protocols"].items()):
        print(f"{name}\t{entry['rounds_per_sec']}")
PY
