"""Compare two sets of benchmark reports written by run.py.

    python3 perfbench/compare.py --base perfbench/results/A/*.json --new perfbench/results/B/*.json

For every workload and metric it prints each side's median and
quartiles and the change of the medians as a share of the base median,
and marks a change worse than the bound in BENCHMARK.json.  Reports
from different kernel backends, run lengths or trace modes measure
different things: such a comparison is reported as not comparable and
exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(paths: list[str]) -> list[dict]:
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    identity = {
        "backend": lambda r: r["env"]["backend"],
        "seconds": lambda r: r["seconds"],
        "trace": lambda r: r["trace"],
    }
    for key, get in identity.items():
        seen = {get(r) for r in base + new}
        if len(seen) > 1:
            print(f"not comparable: runs differ in {key}: {sorted(map(str, seen))}")
            return 2

    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(f"{workload}: {sum(r['workload'] == workload for r in base)} base runs, "
              f"{sum(r['workload'] == workload for r in new)} new runs")
        for name in base[0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            n = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            better, bound = bounds.get(name, ("lower", None))
            regress = change if better == "lower" else -change
            flag = ""
            if bound is not None and regress > bound:
                flag = "  WORSE than bound"
                worse += 1
            print(f"  {name:32s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  change {change:+.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
