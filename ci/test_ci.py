"""Checks too slow or too wide for Tier-1: the verify suites at seeds and
sizes that neither Tier-1 nor a bench workload runs, the line-count and
stacked 2F1 oracles over 40 more seeds, counts from cold and then warm
memos, the j corpus ops that retry, and a scan for public functions
that nothing in the library or the bench calls.

Tier-1 does not collect this module (pyproject's testpaths holds only
tests/).  From a checkout, run it with

    PYTHONPATH=src python -m pytest -q ci

pyproject's filterwarnings turns every warning into an error here, and
every CLI run below passes -W error to its interpreter too.
"""
from __future__ import annotations

import ast
import glob
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


def _count_corpora():
    # every op of the count workloads at the seed the bench holds out
    return [(out.digest, out.failure)
            for workload in ("j-count", "wp-count")
            for out in map(workloads.run_op,
                           workloads.build_corpus(workload, 14))]


# every memo a count reads
_COUNT_MEMOS = (contour._start_grid, domains._first_round,
                domains._j_geometry, domains._wp_rectangle)


@pytest.mark.parametrize("run, memos", [
    (_line_counts, (domains._line_grid,)),
    (_zero_counts, (contour._start_grid, domains._first_round)),
    (_wp_counts, (contour._start_grid, domains._first_round)),
    (_count_corpora, _COUNT_MEMOS)],
    ids=["line_grid", "zero_counts", "wp_counts", "count_corpora"])
def test_warm_memos_change_nothing(run, memos):
    # a stale or written-to memo entry would change the second pass
    for memo in memos:
        memo.cache_clear()
    cold = json.dumps(run(), sort_keys=True)
    assert all(memo.cache_info().currsize > 0 for memo in memos)
    warm = json.dumps(run(), sort_keys=True)
    assert all(memo.cache_info().hits > 0 for memo in memos)
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


# Public names that nothing in src/mzl or bench/ refers to, and why each
# stays
_UNCALLED = {
    # candidates for the per-count proof trace (ROADMAP item 12), which
    # either calls or deletes them
    "dominant_term_bound", "crossing_bound_check",
    "PfaffianFunction.zero_bound",
    # the e_k that wp_inverse will need (ROADMAP item 16)
    "LatticeParams.half_period_values",
    # README's writer of the polynomial file format
    "polynomial_to_json",
    # uniform probe points on a contour, for its users; the library's
    # own passes start from contour._start_grid
    "Contour.sample",
    # the disk contour, for its users (winding_number or
    # log_derivative_integral over a disk); the quadtree's Newton disks
    # go to the phase pass as segment tables (contour._circle_table)
    "circle_contour",
}


def _public_definitions() -> set:
    """Every public module-level function and class of src/mzl, and
    every public method of such a class, as name or Class.method."""
    out = set()
    for path in glob.glob(os.path.join(_SRC, "mzl", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.add(node.name)
                if isinstance(node, ast.ClassDef):
                    out.update(f"{node.name}.{item.name}"
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
    return out


def _referenced_names() -> set:
    """The names of src/mzl outside __init__.py and of bench/*.py: every
    ast.Name and ast.Attribute, and in bench every string constant too,
    since the tracer names the functions it wraps by string."""
    paths = [(p, False) for p in glob.glob(os.path.join(_SRC, "mzl", "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += [(p, True) for p in glob.glob(os.path.join(_ROOT, "bench",
                                                        "*.py"))]
    out = set()
    for path, strings in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                out.add(node.value)
    return out


def test_every_public_function_has_a_caller():
    # an entry point that only tests call is dead API; a method counts
    # as called when any attribute of that name is read
    defined, referenced = _public_definitions(), _referenced_names()
    uncalled = {name for name in defined
                if name.rsplit(".", 1)[-1] not in referenced}
    dead = sorted(uncalled - _UNCALLED)
    assert not dead, f"no caller in src/mzl or bench: {dead}"
    # an allowed name that is gone, or has gained a caller, leaves the list
    stale = sorted(_UNCALLED - uncalled)
    assert not stale, f"allowed but called or gone: {stale}"
