"""Checks too slow or too wide for Tier-1: the verify suites at seeds and
sizes that neither Tier-1 nor a bench workload runs, the line-count and
stacked 2F1 oracles over 40 more seeds, counts from cold and then warm
memos, and the j corpus ops that retry.

Tier-1 does not collect this module (pyproject's testpaths holds only
tests/).  From a checkout, run it with

    PYTHONPATH=src python -m pytest -q ci

pyproject's filterwarnings turns every warning into an error here, and
every CLI run below passes -W error to its interpreter too.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mzl
from mzl import contour, domains
from mzl.domains import (_J_ETAS, WpDomainSpec, count_zeros_wp,
                         line_im_zero_count, random_polynomial)
from mzl.poly import BivariatePolynomial
from mzl.special import _hyp_series
from mzl.verify import line_count_suite, zero_count_suite

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tests/ for the oracles; bench/ for its corpora, which are only read
sys.path[:0] = [os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "bench")]
import oracles  # noqa: E402
import workloads  # noqa: E402

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(mzl.__file__)))
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))))


@pytest.mark.parametrize("argv", [
    # every suite at the default 50 trials
    "verify --seed 0",
    # the seed the bench holds out
    "verify line_counts robustness --seed 14",
    "verify zero_counts --seed 14",
    # its deg_x = 0 trials include a zero next to both edges
    "verify zero_counts --seed 2",
    "verify line_counts --seed 1 --trials 400",
    # a stopped row's lane of a stacked 2F1 loop must not warn
    *(f"verify identities chains --seed {s}" for s in (0, 1, 2, 3, 4, 14)),
    # j_inverse from 1728 up to 1e271
    "eval jinv 1728 2000 1e5 1e6 2e6 1e271",
    # 2F1 at a real and an imaginary z
    "eval 2f1 0.3 0.5i --a 0.3 --b 1.2 --c 0.8"])
def test_cli_exits_0(argv):
    run = subprocess.run([sys.executable, "-W", "error", "-m", "mzl",
                          *argv.split()], capture_output=True, text=True,
                         env=_ENV, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr


def _line_counts():
    return [line_count_suite(np.random.default_rng(s)) for s in range(5)]


def _zero_counts():
    return [zero_count_suite(np.random.default_rng(s)) for s in range(3)]


def _wp_counts():
    # each lattice's one pair callable keys the first rounds
    return [count_zeros_wp(BivariatePolynomial([[-c, 1.0]]),
                           WpDomainSpec(tau, beta)).to_dict()
            for tau in (0.3, 1.0, 8.0) for beta in (0.0, 0.37)
            for c in (2.5 + 1.5j, -40.0 + 7.0j)]


@pytest.mark.parametrize("run, memos", [
    (_line_counts, (domains._line_grid,)),
    (_zero_counts, (contour._start_grid, domains._first_round)),
    (_wp_counts, (contour._start_grid, domains._first_round))],
    ids=["line_grid", "zero_counts", "wp_counts"])
def test_warm_memos_change_nothing(run, memos):
    # a stale or written-to memo entry would change the second pass
    for memo in memos:
        memo.cache_clear()
    cold = json.dumps(run(), sort_keys=True)
    assert memos[-1].cache_info().currsize > 0
    warm = json.dumps(run(), sort_keys=True)
    assert memos[-1].cache_info().hits > 0
    assert warm == cold


def test_line_counts_match_the_complex_oracle():
    # line_count_suite's draws at seeds 20-59, 2000 past the 1000 that
    # Tier-1 checks
    for seed in range(20, 60):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            dx = int(rng.integers(0, 4))
            dy = int(rng.integers(1, 4))
            P = random_polynomial(rng, dx, dy, real=True)
            tau = float(rng.choice([1.0, 1.5]))
            line = "horizontal" if rng.integers(2) else "vertical"
            got = line_im_zero_count(P, tau, line, "Re")
            want = oracles.line_count_complex(P, tau, line, "Re")
            assert got == want, (seed, tau, line, got, want)


def test_stacked_hyp_series_matches_one_term_loops():
    # every row of the identity sweeps' stacked loop, bit for bit
    for seed in range(20, 60):
        rng = np.random.default_rng(seed)
        a, b, c, z = rng.uniform([0.1, 0.1, 0.4, 0.05], [1.5, 1.5, 2.0, 0.9],
                                 size=(100, 4)).T
        rows = [(a, b, c, 1.0), (a + 1.0, b + 1.0, c + 1.0, 1.0),
                (a + 1.0, b + 1.0, c, 2.0), (a, b, c + 1.0, 1.0)]
        for row, (value, bound) in zip(rows, _hyp_series(rows, z)):
            want, want_bound = oracles.hyp_series_term_loop(*row, z)
            assert value.tobytes() == want.tobytes(), (seed, row)
            assert bound == want_bound, (seed, row)


@pytest.mark.parametrize("seed, i, count", [
    (0, 52, 3), (1, 123, 3), (2, 119, 3), (6, 57, 3), (7, 41, 2)])
def test_j_corpus_op_retries(seed, i, count):
    # the offset composite has zeros next to rho on the bottom edge of the
    # first attempts' localization box: the count holds, the op does not
    # fail, and the report's eta is the one its failed attempts reach
    out = workloads.run_op(workloads.build_corpus("j-count", seed)[i])
    assert out.failure is None, out.digest
    rep = json.loads(out.digest)
    assert rep["count"] == count
    assert rep["retries"] > 0
    assert float(rep["domain"]["eta"]) == _J_ETAS[rep["retries"]]
