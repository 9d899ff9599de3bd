"""Seeded corpora for the benchmark workloads, and the checks on each op.

A workload is a list of strata.  A stratum is a named class of inputs with
a generator and a number of ops per corpus; the corpus for a seed draws
every input from ``numpy.random.default_rng(seed)``, so the same seed gives
the same inputs.  The library sees only the generated inputs.

Every op returns an ``Outcome``: a canonical JSON digest of what the
library returned (or raised), and the reason the op failed, if it did.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from mzl import domains, verify
from mzl.config import RunConfig
from mzl.poly import BivariatePolynomial

# Lattice parameters each workload evaluates wp on; set-up builds them.
WP_TAUS = (0.3, 1.0, 8.0)
VERIFY_TAUS = (1.0, 1.5)
SETUP_TAUS = {"j-count": (), "wp-count": WP_TAUS, "verify-tools": VERIFY_TAUS}

# A Y-root c of a deg_x = 0 input is generic when |Im c| >= GENERIC_ARG *
# |c| and |c| lies in the range below.  j is real on the whole boundary
# of its fundamental domain and wp (beta = 0) on the whole boundary of
# its period cell, so a generic root puts every zero at least 0.019 (j)
# or 0.05 (wp, every tau here) inside, by Newton solves of j(z) = c and
# wp(z) = c at the edge of each range.  There the count does not depend
# on the boundary convention: deg_y for j and 2 deg_y for wp.  Small j
# roots put zeros next to the corner rho, large wp roots next to a pole.
GENERIC_ARG = 0.3
J_GENERIC_ABS = (200.0, np.inf)
WP_GENERIC_ABS = (0.0, 10.0)

# Suites per round of verify-tools ops.  identities is listed twice: its
# cost depends on the suite seed (by a quarter between seeds), and with
# two of them per round the median op is the middle identities call, over
# twice the samples, since as many ops are cheaper (bounds,
# special_values) as dearer (line_counts, chains).
VERIFY_SUITES = ("identities", "identities", "special_values", "chains",
                 "bounds", "line_counts")


@dataclass(frozen=True)
class Op:
    """One call into the library: its stratum, inputs and pinned count."""

    stratum: str
    kind: str
    coeffs: np.ndarray | None = None
    tau: float = 0.0
    beta: float = 0.0
    suite: str = ""
    suite_seed: int = 0
    expected: int | None = None


@dataclass(frozen=True)
class Outcome:
    digest: str
    failure: str | None


def _random_coeffs(rng, deg_x: int, deg_y: int) -> np.ndarray:
    return (rng.standard_normal((deg_x + 1, deg_y + 1))
            + 1j * rng.standard_normal((deg_x + 1, deg_y + 1)))


def _generic_roots(coeffs: np.ndarray, abs_range: tuple) -> bool:
    """True when every Y-root of a deg_x = 0 input is generic."""
    roots = np.roots(coeffs[0, ::-1])
    mods = np.abs(roots)
    return bool(np.all(np.abs(roots.imag) >= GENERIC_ARG * mods)
                and np.all((abs_range[0] <= mods) & (mods <= abs_range[1])))


def _off_axis_cells(re_max: float, im_min: float, im_max: float,
                    n_re: int, n_im: int) -> list:
    """Makers of c, one uniform draw in each cell of an n_re x n_im grid
    over re in [-re_max, re_max], |im| in [im_min, im_max], both signs of
    im.

    Together the cells cover the box evenly, as uniform draws would, but
    every corpus has the same share of c in each part of it.  How long a
    count takes depends on where c lies (for j, about twice as long for
    re > 150, |im| < 350), so i.i.d. draws would move the median op from
    seed to seed.  Every draw is generic: im_min >= GENERIC_ARG * |c| at
    the largest |c|."""
    re_edges = np.linspace(-re_max, re_max, n_re + 1)
    im_edges = np.linspace(im_min, im_max, n_im + 1)

    def cell(a: int, b: int, sign: float):
        def draw(rng) -> complex:
            return complex(rng.uniform(re_edges[a], re_edges[a + 1]),
                           sign * rng.uniform(im_edges[b], im_edges[b + 1]))
        return draw
    return [cell(a, b, sign) for a in range(n_re) for b in range(n_im)
            for sign in (1.0, -1.0)]


def _j_canonical(draw):
    def make(rng) -> Op:
        c = draw(rng)
        return Op("Y-c", "j", coeffs=np.array([[-c, 1.0]]), expected=1)
    return make


def _wp_canonical(tau: float, draw):
    def make(rng) -> Op:
        c = draw(rng)
        return Op(f"t{tau:g}-Y-c", "wp", coeffs=np.array([[-c, 1.0]]),
                  tau=tau, expected=2)
    return make


def _j_random(deg_x: int, deg_y: int):
    def make(rng) -> Op:
        c = _random_coeffs(rng, deg_x, deg_y)
        pinned = deg_x == 0 and _generic_roots(c, J_GENERIC_ABS)
        return Op(f"dx{deg_x}-dy{deg_y}", "j", coeffs=c,
                  expected=deg_y if pinned else None)
    return make


def _wp_random(tau: float, beta: float, deg: int):
    def make(rng) -> Op:
        deg_x = int(rng.integers(0, min(2, deg) + 1))
        c = _random_coeffs(rng, deg_x, deg)
        # off the period-cell lines only beta = 0 makes wp real on the
        # whole boundary, so only there do generic roots pin the count
        pinned = (deg_x == 0 and beta == 0.0
                  and _generic_roots(c, WP_GENERIC_ABS))
        return Op(f"t{tau:g}-b{beta:g}-d{deg}", "wp", coeffs=c, tau=tau,
                  beta=beta, expected=2 * deg if pinned else None)
    return make


# (generator, ops per corpus) for the counting workloads.  The canonical
# Y - c inputs are the bulk of the traffic, so the median op is a
# canonical count and stays put from seed to seed; the failing classes
# are numerous enough that the tail percentile is one of them.  Failed
# ops are charged above every solved one, so on j-count the median op
# sits at the 0.65 quantile of the canonical counts, in their bulk; with
# fewer canonical inputs it would sit on the slow-c cells' edge.
def _strata(workload: str):
    if workload == "j-count":
        out = [(_j_canonical(draw), 1)
               for draw in _off_axis_cells(400.0, 200.0, 500.0, 10, 6)]
        for dx in range(3):
            out += [(_j_random(dx, 1), 6), (_j_random(dx, 2), 6),
                    (_j_random(dx, 3), 3), (_j_random(dx, 4), 3)]
        return out
    out = []
    for tau in WP_TAUS:
        out += [(_wp_canonical(tau, draw), 1)
                for draw in _off_axis_cells(4.0, 1.8, 4.0, 5, 1)]
        out += [(_wp_random(tau, 0.0, 1), 2),
                (_wp_random(tau, 0.0, 2), 2), (_wp_random(tau, 0.0, 3), 2),
                (_wp_random(tau, 0.0, 4), 1), (_wp_random(tau, 0.0, 5), 1)]
        out += [(_wp_random(tau, 0.37, deg), 2 if deg == 3 else 1)
                for deg in range(1, 6)]
    return out


# Rounds per verify-tools corpus: 78 ops, about 27 s on a 2-vCPU host.
# With more than ten chains calls the tail percentile is a chains call,
# whose work does not depend on the seed.
VERIFY_ROUNDS_PER_CORPUS = 13


def build_corpus(workload: str, seed: int) -> list[Op]:
    """The ops of one corpus pass, in a seeded shuffled order."""
    rng = np.random.default_rng(seed)
    if workload == "verify-tools":
        ops = [Op(f"suite-{name}", "verify", suite=name,
                  suite_seed=int(rng.integers(0, 2**31)))
               for _ in range(VERIFY_ROUNDS_PER_CORPUS)
               for name in VERIFY_SUITES]
    else:
        ops = [make(rng) for make, n in _strata(workload) for _ in range(n)]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def run_op(op: Op) -> Outcome:
    """Call the library once and check what it returns."""
    try:
        if op.kind == "verify":
            rep = verify.run_suites(RunConfig(seed=op.suite_seed),
                                    [op.suite])
            return Outcome(json.dumps(rep, sort_keys=True),
                           None if rep["pass"] else "suite-fail")
        P = BivariatePolynomial(op.coeffs)
        if op.kind == "j":
            rep = domains.count_zeros_j(P)
        else:
            spec = domains.WpDomainSpec(tau=op.tau, beta=op.beta)
            rep = domains.count_zeros_wp(P, spec)
    except Exception as exc:  # any exception fails the op; keep going
        return Outcome(json.dumps({"error": type(exc).__name__,
                                   "message": str(exc)}),
                       type(exc).__name__)
    digest = json.dumps(rep.to_dict(), sort_keys=True)
    if rep.count != rep.winding:
        return Outcome(digest, "count-winding-mismatch")
    if not rep.bound_holds:
        return Outcome(digest, "bound-violated")
    if op.expected is not None and rep.count != op.expected:
        return Outcome(digest, "pinned-count-mismatch")
    return Outcome(digest, None)
