"""End-to-end verification suites behind `mzl verify` and `mzl selftest`.

Every suite returns a dict with a boolean "pass" and numeric evidence;
floats are serialized as repr strings so a fixed seed yields a
byte-identical report.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import partial

import numpy as np

from .config import RunConfig
from .domains import (JDomainSpec, WpDomainSpec, count_zeros_j,
                      count_zeros_wp, line_im_zero_count, proposition_bound,
                      random_polynomial, theorem2_bound,
                      verify_bound_inequalities)
from .elliptic import lattice, wp_pair
from .errors import InvalidSpecError
from .pfaffian import (PfaffianChain, _member_stencils, _stencil_residual,
                       build_hypergeometric_chain, build_ratio_chain,
                       chain_residual, khovanskii_zero_bound,
                       ratio_pfaffian_function)
from .poly import BivariatePolynomial
from .special import (gauss_relation_residuals, j_inverse, klein_j,
                      ramanujan_inversion_residual)

SCHEMA = "mzl/1"


def _f(x) -> str:
    return repr(float(x))


def identity_suite(rng: np.random.Generator) -> dict:
    """Contiguous-relation, differential-equation, and nome-inversion
    residuals on random sweeps."""
    # one row (a, b, c, z) per point, drawn row by row in one call: the
    # same doubles as drawing each in turn; the sweep is one batch
    draws = rng.uniform([0.1, 0.1, 0.4, 0.05], [1.5, 1.5, 2.0, 0.9],
                        size=(100, 4))
    r1, r2 = gauss_relation_residuals(*draws.T)
    worst_gauss = float(max(r1.max(), r2.max()))

    worst_ode = 0.0
    for tau in (1.0, 1.5):
        L = lattice(tau)
        n = 500
        x = rng.uniform(0.12, 0.88, n)
        y = rng.uniform(0.12 * tau, 0.88 * tau, n)
        z = x + 1j * y
        p, dp = wp_pair(z, L)
        lhs = dp * dp
        rhs = 4.0 * p**3 - L.g2 * p - L.g3
        scale = 1.0 + np.abs(lhs) + np.abs(4.0 * p**3)
        worst_ode = max(worst_ode, float((np.abs(lhs - rhs) / scale).max()))

    worst_ram = float(
        ramanujan_inversion_residual(np.linspace(0.05, 0.95, 20)).max())

    ok = worst_gauss < 1e-9 and worst_ode < 1e-8 and worst_ram < 1e-8
    return {"name": "identities", "pass": bool(ok),
            "max_gauss_residual": _f(worst_gauss),
            "max_wp_ode_residual": _f(worst_ode),
            "max_ramanujan_residual": _f(worst_ram)}


_RHO = complex(-0.5, math.sqrt(3.0) / 2.0)


def special_value_suite() -> dict:
    """Pinned values of j and inversion roundtrips."""
    e_i = abs(klein_j(1j) - 1728.0)
    e_2i = abs(klein_j(2j) - 287496.0)
    e_rho = abs(klein_j(_RHO))
    inv_exact = j_inverse(1728.0) == 1.0
    worst_rt = 0.0
    for x in (2000.0, 1e4, 1e5):
        t = j_inverse(x)
        worst_rt = max(worst_rt, abs(klein_j(1j * t) - x) / x)
    ok = (e_i < 1e-6 and e_2i < 1e-3 and e_rho < 1e-6 and inv_exact
          and worst_rt < 1e-7)
    return {"name": "special_values", "pass": bool(ok),
            "err_j_at_i": _f(e_i), "err_j_at_2i": _f(e_2i),
            "err_j_at_rho": _f(e_rho),
            "inverse_at_1728_exact": bool(inv_exact),
            "max_roundtrip_rel_err": _f(worst_rt)}


def _corrupted(chain: PfaffianChain) -> PfaffianChain:
    """chain with one coefficient of its first right-hand side bumped;
    its members are chain's."""
    first = chain.rhs[0]
    rhs = [first.bumped(next(iter(first.terms)), 0.1)] + chain.rhs[1:]
    return replace(chain, rhs=rhs, label=chain.label + "-corrupted")


def chain_suite() -> dict:
    """Both chains close under differentiation; a corrupted chain fails."""
    hyp = build_hypergeometric_chain(0.3, 1.2, 0.8)
    ratio = build_ratio_chain()
    # the corrupted chain has hyp's members, so it reuses their one pass
    stencils = _member_stencils(hyp, 200)
    res_hyp = _stencil_residual(hyp, *stencils)
    res_ratio = chain_residual(ratio, 200)
    res_bad = _stencil_residual(_corrupted(hyp), *stencils)
    pf = ratio_pfaffian_function()
    ys = (0.2, 0.5, 0.8)
    worst_ratio_id = max(abs(complex(lhs) - j_inverse(1728.0 / (1.0 - y * y)))
                         for y, lhs in zip(ys, pf.eval(np.array(ys))))
    ok = (res_hyp < 1e-7 and res_ratio < 1e-7 and res_bad > 1e-4
          and worst_ratio_id < 1e-8
          and hyp.order == 6 and ratio.order == 9 and ratio.alpha == 2
          and pf.beta == 1)
    return {"name": "chains", "pass": bool(ok),
            "hyp_order": hyp.order, "hyp_alpha": hyp.alpha,
            "hyp_residual": _f(res_hyp),
            "ratio_order": ratio.order, "ratio_alpha": ratio.alpha,
            "ratio_residual": _f(res_ratio),
            "corrupted_residual": _f(res_bad),
            "max_ratio_vs_inverse": _f(worst_ratio_id)}


def bound_suite() -> dict:
    """Exact-arithmetic inequalities linking the chain data to the
    headline constants, plus pinned small-degree values."""
    inequalities = verify_bound_inequalities(100)
    ok = (inequalities
          and theorem2_bound(2) == 65
          and proposition_bound(3) == 55
          and khovanskii_zero_bound(9, 2, 1) == 2**36 * 3**9)
    return {"name": "bounds", "pass": bool(ok),
            "inequalities_d1_100": bool(inequalities),
            "theorem2_at_2": theorem2_bound(2),
            "proposition_at_3": proposition_bound(3)}


def _generic_j_values(rng: np.random.Generator, n: int):
    re = rng.uniform(-400.0, 400.0, n)
    im = np.sign(rng.standard_normal(n)) * rng.uniform(120.0, 500.0, n)
    return re + 1j * im


def _generic_wp_values(rng: np.random.Generator, n: int):
    re = rng.uniform(-4.0, 4.0, n)
    im = np.sign(rng.standard_normal(n)) * rng.uniform(0.6, 4.0, n)
    return re + 1j * im


def _count_trials(rng: np.random.Generator, trials: int, count,
                  max_x: int, min_y: int, max_y: int, per_root: int) -> int:
    """How many of `trials` random P, deg_x drawn from [0, max_x) and
    then deg_y from [min_y, max_y), give a count(P) report within its
    bound and equal to its winding, and for deg_x = 0, a product of
    Y - c over generic c, to per_root (1 for j, 2 for wp) times deg_y."""
    ok = 0
    for _ in range(trials):
        deg_x = int(rng.integers(0, max_x))
        deg_y = int(rng.integers(min_y, max_y))
        rep = count(random_polynomial(rng, deg_x, deg_y))
        ok += int(rep.bound_holds and rep.count == rep.winding
                  and (deg_x > 0 or rep.count == per_root * deg_y))
    return ok


def zero_count_suite(rng: np.random.Generator, trials: int = 50) -> dict:
    """Canonical counts plus randomized count-vs-bound trials: j, wp on
    the square cell, wp at tau 0.3 and 8 with beta 0.37, and j at
    deg_y 3-5."""
    canonical_j = all(
        count_zeros_j(BivariatePolynomial([[-c, 1.0]])).count == 1
        for c in _generic_j_values(rng, 10))
    elliptic_double = count_zeros_j(
        BivariatePolynomial([[-1728.0, 1.0]])).count == 2
    spec1 = WpDomainSpec(tau=1.0)
    canonical_wp = all(
        count_zeros_wp(BivariatePolynomial([[-c, 1.0]]), spec1).count == 2
        for c in _generic_wp_values(rng, 10))

    j_ok = _count_trials(rng, trials, count_zeros_j, 3, 1, 3, 1)
    wp_ok = _count_trials(rng, trials, partial(count_zeros_wp, spec=spec1),
                          4, 1, 4, 2)
    # extreme cells, drawn from a child generator so that the draws of
    # every other trial and suite stay as they were
    child = np.random.default_rng(rng.bit_generator.seed_seq.spawn(1)[0])
    extreme_ok = sum(
        _count_trials(child, trials, partial(count_zeros_wp,
                                             spec=WpDomainSpec(tau, 0.37)),
                      4, 1, 4, 2)
        for tau in (0.3, 8.0))
    # j at deg_y 3-5, from a second child generator for the same reason
    child = np.random.default_rng(rng.bit_generator.seed_seq.spawn(1)[0])
    j_high_ok = _count_trials(child, trials, count_zeros_j, 3, 3, 6, 1)

    ok = (canonical_j and elliptic_double and canonical_wp
          and j_ok == trials and wp_ok == trials
          and extreme_ok == 2 * trials and j_high_ok == trials)
    return {"name": "zero_counts", "pass": bool(ok),
            "canonical_j": bool(canonical_j),
            "elliptic_double": bool(elliptic_double),
            "canonical_wp": bool(canonical_wp),
            "j_trials_ok": j_ok, "wp_trials_ok": wp_ok,
            "wp_extreme_tau_trials_ok": extreme_ok,
            "j_high_degree_trials_ok": j_high_ok,
            "trials": trials}


def line_count_suite(rng: np.random.Generator, trials: int = 50) -> dict:
    """Sign-change counts along lattice lines stay under the line bound."""
    ok = 0
    worst = 0
    for _ in range(trials):
        dx = int(rng.integers(0, 4))
        dy = int(rng.integers(1, 4))
        P = random_polynomial(rng, dx, dy, real=True)
        tau = float(rng.choice([1.0, 1.5]))
        line = "horizontal" if rng.integers(2) else "vertical"
        n = line_im_zero_count(P, tau, line=line, component="Re")
        d = max(1, max(dx, dy))
        worst = max(worst, n)
        if n <= proposition_bound(d):
            ok += 1
    return {"name": "line_counts", "pass": bool(ok == trials),
            "trials_ok": ok, "trials": trials, "max_count_seen": worst}


def _shifted_by_one(P: BivariatePolynomial) -> BivariatePolynomial:
    """P(X - 1, Y), from (X - 1)^i = sum_k C(i, k) (-1)^(i - k) X^k."""
    c = np.zeros_like(P.coeffs)
    for i, row in enumerate(P.coeffs):
        for k in range(i + 1):
            c[k] += math.comb(i, k) * (-1) ** (i - k) * row
    return BivariatePolynomial(c)


def robustness_suite(rng: np.random.Generator) -> dict:
    """Counts must be invariant under a shift by the period 1 and a
    higher top line, and reports must be byte-identical run to run.  The
    zeros of P(X - 1, Y) in the cell at beta = 1 are those of P(X, Y) at
    beta = 0 moved by 1, and its lattice point 1 takes the pole order of
    the shifted columns."""
    P = random_polynomial(rng, 1, 2)
    r1 = count_zeros_wp(P, WpDomainSpec(tau=1.0))
    r2 = count_zeros_wp(_shifted_by_one(P), WpDomainSpec(tau=1.0, beta=1.0))
    period_invariant = r1.count == r2.count

    Q = random_polynomial(rng, 2, 1)
    y1 = count_zeros_j(Q, JDomainSpec(Y=2.5))
    y2 = count_zeros_j(Q, JDomainSpec(Y=3.5))
    y_invariant = y1.count == y2.count

    a = json.dumps(count_zeros_j(Q).to_dict(), sort_keys=True)
    b = json.dumps(count_zeros_j(Q).to_dict(), sort_keys=True)
    deterministic = a == b

    ok = period_invariant and y_invariant and deterministic
    return {"name": "robustness", "pass": bool(ok),
            "period_shift_invariant": bool(period_invariant),
            "top_line_invariant": bool(y_invariant),
            "report_deterministic": bool(deterministic)}


_SUITES = ("identities", "special_values", "chains", "bounds",
           "zero_counts", "line_counts", "robustness")


def run_suites(cfg: RunConfig, names=None) -> dict:
    names = list(_SUITES) if names is None else list(names)
    rng = np.random.default_rng(cfg.seed)
    out = []
    for name in names:
        if name == "identities":
            out.append(identity_suite(rng))
        elif name == "special_values":
            out.append(special_value_suite())
        elif name == "chains":
            out.append(chain_suite())
        elif name == "bounds":
            out.append(bound_suite())
        elif name == "zero_counts":
            out.append(zero_count_suite(rng, cfg.trials))
        elif name == "line_counts":
            out.append(line_count_suite(rng, cfg.trials))
        elif name == "robustness":
            out.append(robustness_suite(rng))
        else:
            raise InvalidSpecError(f"unknown suite {name!r}")
    # no timing fields: a fixed seed must give a byte-identical report
    return {"schema": SCHEMA, "seed": cfg.seed, "trials": cfg.trials,
            "pass": bool(all(s["pass"] for s in out)),
            "suites": out}


def run_selftest() -> dict:
    """A fast smoke pass: fewer trials, same structure."""
    cfg = RunConfig(trials=3)
    return run_suites(cfg, ["identities", "special_values", "chains",
                            "bounds", "zero_counts"])
