"""Median and quartiles of the end-to-end metrics over recorded runs.

    python3 bench/summarize.py [--trace 0|1] [workload ...]

Reads the run records run.py leaves in bench/out/ and prints, per workload
and metric, the median, the quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median and the seeds, as JSON.  The seed-commit figures
in baseline.json were made this way.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

BENCH = os.path.dirname(os.path.abspath(__file__))


def summarize(workload: str, trace: int) -> dict:
    runs = []
    for path in sorted(glob.glob(os.path.join(
            BENCH, "out", f"run-{workload}-seed*-trace{trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        return {}
    out = {"seeds": [r["record"]["seed"] for r in runs],
           "correct": all(not r["problems"] for r in runs)}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name][0] for r in runs]
        med = statistics.median(values)
        entry = {"median": med, "unit": runs[0]["metrics"][name][1]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / med if med else 0.0)
        out[name] = entry
    solved = [op[3] for r in runs for op in r["ops"] if op[4] is None]
    out["slowest_solved_op_s"] = max(solved, default=0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("workloads", nargs="*",
                    default=["j-count", "wp-count", "verify-tools"])
    args = ap.parse_args(argv)
    print(json.dumps({w: summarize(w, args.trace) for w in args.workloads},
                     indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
