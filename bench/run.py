"""The mzl benchmark: one workload, one seed, every metric, checked outputs.

    python3 bench/run.py --workload j-count --seed 0 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

- ``j-count``: one op is one ``count_zeros_j`` call.
- ``wp-count``: one op is one ``count_zeros_wp`` call.
- ``verify-tools``: one op is one non-counting ``mzl verify`` suite.

The inputs come from ``--seed`` (see workloads.py); the library sees only
them.  Ops run closed-loop on one thread, one op in flight at a time, in
a fresh worker process (worker.py), with OMP/OpenBLAS/MKL pinned to one
thread.  A failed op is charged its own time plus the fixed
``fail_charge_s`` of its workload from baseline.json, which is above the
slowest solved op at the seed commit, so turning a failure into a success
never reads as a latency regression.

With ``--trace 0`` the last line of output carries the end-to-end
metrics: ``setup_s`` (median of several fresh processes), ``op_p50_s``,
``op_tail_s`` (the highest percentile with at least ten ops beyond it),
``corpus_s`` (charged time of one corpus pass, median over passes),
``ok_frac`` (solved ops over attempted) and ``peak_rss_mb``.
``failed_frac`` is printed above it.  With ``--trace 1`` one untraced
and one traced pass give the per-layer metrics (tracer.py) and the
tracing overhead.

The times are in seconds at a fixed reference speed.  A shared host can
change the speed it gives this process by half again within seconds and
keep a speed for minutes (seen on the 2-vCPU Xeon host the baseline was
measured on), so wall-clock medians of runs a few minutes apart differ by
more than the bounds in BENCHMARK.json.  The worker times a fixed
reference kernel before every op and after the last
(worker.reference_s); an op's time is scaled by ``REFERENCE_NOMINAL_S``
over the mean of the kernel times on either side of it, and a set-up
time by the same ratio taken in its own process.  There Python and numpy
code slowed down together, so the scaled times keep the program's own
cost and lose most of the drift.  The wall-clock figures are printed as
``#`` lines and kept in bench/out/.

Every op is checked (workloads.run_op).  A failure that baseline.json
does not record for the op's stratum (it records no wrong count), or an
output that differs between passes or between the traced and untraced
pass, makes the run incorrect: the result says ``"correct": false`` and
the exit code is 1.  The run record (git SHA, Python, numpy, nproc, CPU
model, thread pins, seed, corpus size) is printed as ``#`` lines and
kept with every op's time in bench/out/.  Seeds listed under
``tuning_seeds`` in baseline.json were used to build the baseline; any
other seed is held out.
"""
from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("j-count", "wp-count", "verify-tools")
SETUP_PROBES = 7
# median reference kernel time on the 2-vCPU Xeon host the baseline was
# measured on; any constant would do, this one keeps the figures near
# that host's wall-clock seconds
REFERENCE_NOMINAL_S = 0.0052
DEADLINE_S = 170.0
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; killed if it outlives deadline."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py")] + args,
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[float, int]:
    """(value, p) for the highest integer percentile p with at least ten
    values above its nearest-rank position; the median below 20 values."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p
    return statistics.median(xs), 50


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref[5:]:
                    return sha
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(workload: str, seed: int, corpus_size: int,
               numpy_version: str) -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "threads": THREAD_PINS,
            "workload": workload, "seed": seed, "corpus_size": corpus_size}


def _check(raw: dict, known: dict) -> list[str]:
    """Problems that make the run incorrect.

    known maps stratum patterns (fnmatch) to the failures the baseline
    records for the strata they match."""
    problems = [f"op {i} output differs in pass {p}"
                for p, i in raw["mismatched"]]
    for p, i, stratum, _, failure in raw["ops"]:
        if failure is not None and not any(
                fnmatch.fnmatchcase(stratum, pattern) and failure in reasons
                for pattern, reasons in known.items()):
            problems.append(f"op {i} (stratum {stratum}) failed with "
                            f"{failure}, which the baseline does not record")
    return problems


def end_to_end(raw: dict, setups: list[dict],
               charge: float) -> tuple[dict, dict]:
    """(end-to-end metrics as (value, unit), extra figures) of one run.

    setups holds the set-up records of the fresh processes."""
    refs = raw["ref_s"]
    wall = [dt for _, _, _, dt, _ in raw["ops"]]
    scaled = [dt * 2.0 * REFERENCE_NOMINAL_S / (refs[k] + refs[k + 1])
              for k, dt in enumerate(wall)]
    failed_ops = [op[4] is not None for op in raw["ops"]]

    def charged(times):
        return [t + (charge if f else 0.0)
                for t, f in zip(times, failed_ops)]

    def per_pass(times):
        out = [0.0] * raw["passes"]
        for op, t in zip(raw["ops"], times):
            out[op[0]] += t
        return statistics.median(out)

    cost = charged(scaled)
    failed = sum(failed_ops)
    tail, pct = tail_percentile(cost)
    setup_s = [s["setup_s"] * REFERENCE_NOMINAL_S / s["reference_s"]
               for s in setups]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_s": (statistics.median(cost), "s"),
        "op_tail_s": (tail, "s"),
        "corpus_s": (per_pass(cost), "s"),
        "ok_frac": (1.0 - failed / len(cost), "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }, {"op_tail_percentile": pct, "ops_timed": len(cost),
        "passes": raw["passes"], "failed": failed,
        "failed_frac": failed / len(cost),
        "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_op_p50_s": statistics.median(charged(wall)),
        "wall_op_tail_s": tail_percentile(charged(wall))[0],
        "wall_corpus_s": per_pass(charged(wall)),
        "reference_s_min_median_max": [min(refs), statistics.median(refs),
                                       max(refs)]}


def per_layer(raw: dict) -> dict:
    """The traced run's per-layer metrics, by name, as (value, unit)."""
    layers = {k: tuple(v) for k, v in raw["layers"].items()}
    layers["qseries.standard_series.cold_s"] = (
        raw["standard_series_cold_s"], "s")
    layers["elliptic.lattice.cold_s"] = (raw["lattice_cold_s"], "s")
    layers["trace.overhead_s"] = (raw["traced_s"] - raw["untraced_s"], "s")
    layers["trace.spans"] = (raw["spans"], "count")
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mzl", "__init__.py")):
        sys.stderr.write(f"no mzl sources under {ROOT}/src\n")
        return 2
    os.environ.update(THREAD_PINS)
    with open(os.path.join(BENCH, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S

    setups = [_worker(["setup", "--workload", args.workload], deadline)
              for _ in range(SETUP_PROBES - 1)]
    raw = _worker(["run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], deadline)
    setups.append(raw)

    metrics, extra = end_to_end(raw, setups,
                                baseline["fail_charge_s"][args.workload])
    reported = per_layer(raw) if args.trace else metrics
    record = run_record(args.workload, args.seed, raw["corpus_size"],
                        raw["numpy"])
    problems = _check(raw, baseline["known_failures"][args.workload])
    failures = Counter(f"{stratum}: {failure}"
                       for _, _, stratum, _, failure in raw["ops"]
                       if failure is not None)

    for k, v in list(record.items()) + list(extra.items()):
        print(f"# {k}: {v}")
    for k, n in sorted(failures.items()):
        print(f"# failed {k} x{n}")
    shown = dict(metrics, failed_frac=(extra["failed_frac"], "ratio"))
    if args.trace:
        shown.update(sorted(reported.items()))
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": shown, "extra": extra,
                   "failures": failures, "problems": problems,
                   "setup_samples": [{k: s[k] for k in ("setup_s",
                                                         "reference_s")}
                                     for s in setups],
                   "ops": raw["ops"], "ref_s": raw["ref_s"]}, fh,
                  indent=1)

    print(json.dumps({
        "correct": not problems, "attempted": extra["ops_timed"],
        "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
