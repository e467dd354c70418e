#!/usr/bin/env python3
"""Compares two benchmark-suite results files.

    python3 bench/suite/compare.py BASE.json NEW.json

BASE and NEW are results files written by run.py, or baseline.json, whose
sets are pooled. Prints one row per (end-to-end metric, workload) with both
medians and quartiles, the change of the median and a verdict against the
metric's bound in BENCHMARK.json (for setup_s, the bound or 0.05 s,
whichever is larger):

  worse       the median got worse by more than the bound
  better      the median improved by more than the bound and by more than
              BASE's own quartile spread
  unresolved  either side's quartile spread is wider than the bound (and
              NEW does not beat BASE on every run), or a side has no runs
  unchanged   otherwise

failed_frac (failed runs / attempted runs) is compared with a bound of 0,
and digests are compared for every seed both files ran. Exits 1 when any
row is worse.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# Set-up on a Poisson-join workload is some 20 us of building an empty
# World, too short for any relative bound to resolve, so set-up counts as
# changed only beyond the larger of its bound and this many seconds.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def pooled(path):
    """workload -> {"values": {metric: [...]}, "attempted", "failed",
    "digests": {seed: digest}} over every set in the file."""
    data = json.loads(Path(path).read_text())
    out = {}
    for results in data.get("sets", [data]):
        for name, r in results["workloads"].items():
            w = out.setdefault(name, {"values": {}, "attempted": 0,
                                      "failed": 0, "digests": {}})
            w["attempted"] += r["attempted"]
            w["failed"] += r["failed"]
            w["digests"].setdefault(results["seed"], set()).add(r["digest"])
            for metric, s in r["end_to_end"].items():
                w["values"].setdefault(metric, []).extend(s["values"])
    return out


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def verdict(base, new, better, bound, floor):
    """(verdict, relative change of the median) for one metric. A change
    counts only beyond the larger of bound x median and floor."""
    if not base or not new:
        return "unresolved", None
    bm, bq1, bq3 = stats(base)
    nm, nq1, nq3 = stats(new)
    change = (nm - bm) / bm
    worse_by = nm - bm if better == "lower" else bm - nm
    tolerance = max(bound * bm, floor)
    if (bq3 - bq1 > tolerance
            or nq3 - nq1 > max(bound * nm, floor)):
        beats = (max(new) < min(base) if better == "lower"
                 else min(new) > max(base))
        return ("better" if beats else "unresolved"), change
    if worse_by > tolerance:
        return "worse", change
    if -worse_by > tolerance and abs(nm - bm) > bq3 - bq1:
        return "better", change
    return "unchanged", change


def fmt_side(values):
    if not values:
        return "-"
    med, q1, q3 = stats(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = pooled(argv[1]), pooled(argv[2])
    workloads = [w["name"] for w in bench["workloads"]
                 if w["name"] in base or w["name"] in new]
    empty = {"values": {}, "attempted": 0, "failed": 0, "digests": {}}

    rows = []
    for m in bench["end_to_end"]:
        for w in workloads:
            b = base.get(w, empty)["values"].get(m["name"], [])
            n = new.get(w, empty)["values"].get(m["name"], [])
            floor = ABSOLUTE_FLOOR.get(m["name"], 0.0)
            v, change = verdict(b, n, m["better"], m["bound"], floor)
            rows.append((m["name"], w, fmt_side(b), fmt_side(n),
                         "-" if change is None else f"{change:+.2%}",
                         f"{m['bound']:.0%}"
                         + (f" or {floor:g} {m['unit']}" if floor else ""),
                         v))
    for w in workloads:
        b, n = base.get(w, empty), new.get(w, empty)
        bf = b["failed"] / b["attempted"] if b["attempted"] else 0.0
        nf = n["failed"] / n["attempted"] if n["attempted"] else 0.0
        v = "worse" if nf > bf else "better" if nf < bf else "unchanged"
        rows.append(("failed_frac", w, f"{bf:.3g} of {b['attempted']}",
                     f"{nf:.3g} of {n['attempted']}", f"{nf - bf:+.3g}",
                     "0", v))

    header = ("metric", "workload", "base median [q1, q3]",
              "new median [q1, q3]", "change", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(r)))

    for w in workloads:
        bd = base.get(w, empty)["digests"]
        nd = new.get(w, empty)["digests"]
        for seed in sorted(set(bd) & set(nd)):
            same = bd[seed] == nd[seed] and len(bd[seed]) == 1
            state = ("same" if same else
                     f"CHANGED {sorted(bd[seed])} -> {sorted(nd[seed])}")
            print(f"digest {w} seed {seed}: {state}")

    worse = sum(1 for r in rows if r[-1] == "worse")
    print(f"{len(rows)} rows: " + ", ".join(
        f"{sum(1 for r in rows if r[-1] == v)} {v}"
        for v in ("unchanged", "better", "worse", "unresolved")))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
