"""One fresh process of the benchmark: set-up, then timed ops.

    python3 bench/worker.py setup --workload NAME
    python3 bench/worker.py run --workload NAME --seed N --seconds S \
        --trace 0|1

``setup`` times a cold ``import mzl`` plus the first-use tables and
prints it.  ``run`` does the same set-up, one untimed warm-up op, then
closed-loop corpus passes on one thread, one op in flight at a time,
until another pass would end after S seconds (at least one pass).  With
``--trace 1`` it makes one untraced pass, then one traced pass, and
writes the spans to bench/out/.  Every op's output is compared with its
output in the first pass.  The last line of standard output is one JSON
object with the raw per-op records.

Both modes also time a fixed reference kernel (``reference_s``): after
set-up, and before every timed op and once after the last.  The kernel
does the same kind of work as the library (complex numpy arithmetic on a
small array, and a plain Python loop) and nothing in it depends on mzl,
so its time tracks only the speed the host gives this process.  run.py
uses it to take the host's speed drift out of the op times.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

def _reference_kernel() -> complex:
    # numpy is imported here, not at the top, so that set-up's timed
    # ``import mzl`` stays cold
    import numpy as np
    z = 0.7 * np.exp(2j * np.pi * np.arange(256) / 256)
    acc = 0j
    for _ in range(180):
        w = ((z * 1.5 - 0.3j) * z + 0.25) * z - 1.0
        acc += complex(np.sum(w / (1.0 + np.abs(w))))
        z = z * np.exp(0.01j)
    for i in range(18000):
        acc += (i * i) % 7
    return acc


def reference_s() -> float:
    """Median of three timings of the reference kernel (about 5 ms)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def setup(workload: str) -> dict:
    """Cold import plus first-use tables; the bench's own import is not
    timed."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import mzl
    t1 = time.perf_counter()
    if os.path.dirname(os.path.abspath(mzl.__file__)) != os.path.join(
            SRC, "mzl"):
        raise SystemExit(f"mzl imported from {mzl.__file__}, not {SRC}")
    sys.path.insert(0, BENCH)
    from workloads import SETUP_TAUS
    t2 = time.perf_counter()
    mzl.qseries.standard_series()
    t3 = time.perf_counter()
    for tau in SETUP_TAUS[workload]:
        mzl.elliptic.lattice(tau)
    t4 = time.perf_counter()
    _reference_kernel()  # warm-up
    return {"setup_s": (t1 - t0) + (t4 - t2), "reference_s": reference_s(),
            "standard_series_cold_s": t3 - t2, "lattice_cold_s": t4 - t3,
            "numpy": sys.modules["numpy"].__version__}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = setup(workload)
    import workloads
    corpus = workloads.build_corpus(workload, seed)
    workloads.run_op(corpus[0])  # warm-up: lazy numpy paths, page cache

    ops, refs, digests = [], [], {}
    mismatched = []
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for i, op in enumerate(corpus):
            refs.append(reference_s())
            t0 = time.perf_counter()
            res = workloads.run_op(op)
            dt = time.perf_counter() - t0
            ops.append([passes, i, op.stratum, dt, res.failure])
            if digests.setdefault(i, res.digest) != res.digest:
                mismatched.append([passes, i])
        passes += 1
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t_pass
        if trace or elapsed + last > seconds:
            break
    refs.append(reference_s())
    out.update(ops=ops, ref_s=refs, passes=passes, corpus_size=len(corpus),
               mismatched=mismatched,
               untraced_s=sum(op[3] for op in ops if op[0] == 0))

    if trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        traced_s = 0.0
        with tracer:
            for i, op in enumerate(corpus):
                t0 = time.perf_counter()
                res = tracer.run_op(i, workloads.run_op, op)
                traced_s += time.perf_counter() - t0
                if digests[i] != res.digest:
                    mismatched.append(["traced", i])
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            out_dir, f"spans-{workload}-seed{seed}.csv"))
        out["layers"] = {k: list(v) for k, v in layer_metrics(tracer).items()}
        out["traced_s"] = traced_s
        out["spans"] = len(tracer.spans)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.workload)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
