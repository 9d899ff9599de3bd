"""Checks on the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import mzl.domains  # noqa: E402
import mzl.special  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _same_op(a, b) -> bool:
    return (a.stratum == b.stratum and a.expected == b.expected
            and a.suite_seed == b.suite_seed
            and (a.coeffs is None or np.array_equal(a.coeffs, b.coeffs)))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_depends_only_on_seed(workload):
    a = workloads.build_corpus(workload, 7)
    b = workloads.build_corpus(workload, 7)
    c = workloads.build_corpus(workload, 8)
    assert len(a) == len(b) == len(c)
    assert all(_same_op(x, y) for x, y in zip(a, b))
    assert not all(_same_op(x, y) for x, y in zip(a, c))


def test_tail_percentile_leaves_ten_values_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90.0,
                                                                      90)
    assert run.tail_percentile([float(i) for i in range(1, 41)]) == (30.0,
                                                                     75)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50)


def test_failure_outside_the_baseline_is_a_problem():
    raw = {"mismatched": [[1, 0]],
           "ops": [[0, 0, "Y-c", 0.1, None],
                   [0, 1, "dx0-dy3", 0.1, "NonconvergenceError"],
                   [0, 2, "Y-c", 0.1, "pinned-count-mismatch"],
                   [0, 3, "Y-c", 0.1, "NonconvergenceError"],
                   [0, 4, "dx1-dy2", 0.1, "ZeroOnContourError"]]}
    known = {"dx*-dy*": ["NonconvergenceError"]}
    problems = run._check(raw, known)
    assert len(problems) == 4
    assert "differs" in problems[0]
    assert all("op 1 " not in p for p in problems)


def test_op_times_are_scaled_to_the_reference_speed():
    nominal = run.REFERENCE_NOMINAL_S
    raw = {"ops": [[0, 0, "Y-c", 0.2, None], [0, 1, "Y-c", 0.2, None],
                   [0, 2, "dx0-dy3", 0.1, "NonconvergenceError"]],
           "ref_s": [nominal, nominal, 2 * nominal, 2 * nominal],
           "passes": 1, "peak_rss_mb": 40.0}
    setups = [{"setup_s": 0.3, "reference_s": 3 * nominal}]
    metrics, extra = run.end_to_end(raw, setups, 1.0)
    # op 1 ran between a nominal and a half-speed reading: 0.2 / 1.5
    assert metrics["corpus_s"][0] == pytest.approx(0.2 + 0.2 / 1.5 + 1.05)
    assert metrics["op_p50_s"][0] == pytest.approx(0.2)
    assert metrics["setup_s"][0] == pytest.approx(0.1)
    assert extra["wall_corpus_s"] == pytest.approx(1.5)


def _sample(workload: str) -> list:
    """A few cheap ops of the workload, failing ones included."""
    corpus = workloads.build_corpus(workload, 3)
    wanted = {"j-count": ("Y-c", "dx1-dy1", "dx0-dy3"),
              "wp-count": ("t1-b0-d1", "t0.3-b0.37-d3"),
              "verify-tools": ("suite-special_values", "suite-bounds",
                               "suite-line_counts")}[workload]
    return [next(op for op in corpus if op.stratum == s) for s in wanted]


def _traced(ops):
    tracer = Tracer()
    with tracer:
        outcomes = [tracer.run_op(i, workloads.run_op, op)
                    for i, op in enumerate(ops)]
    counts = {k: v for k, (v, unit) in layer_metrics(tracer).items()
              if unit != "s"}
    return outcomes, counts


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_and_outputs_are_unchanged(workload):
    ops = _sample(workload)
    plain = [workloads.run_op(op) for op in ops]
    first, counts1 = _traced(ops)
    second, counts2 = _traced(ops)
    assert counts1 == counts2
    assert [o.digest for o in first] == [o.digest for o in plain]
    assert [o.digest for o in second] == [o.digest for o in plain]
    assert any(v for v in counts1.values())
    assert not hasattr(mzl.special.klein_j, "__wrapped__")
    assert not hasattr(mzl.domains.klein_j, "__wrapped__")


def test_tracer_sees_names_imported_into_other_modules():
    op = _sample("j-count")[0]
    _, counts = _traced([op])
    # domains calls klein_j through its own imported name
    assert counts["domains.count.calls"] == 1
    assert counts["special.klein_j.calls"] > 0
    assert counts["contour.localize_zeros.calls"] == 1


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "j-count", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    raw = {"ops": [[0, 0, "Y-c", 0.1, None]], "passes": 1,
           "ref_s": [0.005, 0.005],
           "peak_rss_mb": 40.0, "layers": layer_metrics(Tracer()),
           "standard_series_cold_s": 0.01, "lattice_cold_s": 0.0,
           "traced_s": 0.2, "untraced_s": 0.1, "spans": 3}
    metrics, _ = run.end_to_end(
        raw, [{"setup_s": 0.1, "reference_s": 0.005}], 1.0)
    for names, spec_key in ((metrics, "end_to_end"),
                            (run.per_layer(raw), "per_layer")):
        assert {k: u for k, (_, u) in names.items()} == {
            m["name"]: m["unit"] for m in spec[spec_key]}
