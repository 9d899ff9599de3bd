"""End-to-end acceptance: identities, values, chains, bounds, counts.

Each test is self-contained (own seed, own draws) so a failure pins the
behavior it names rather than an upstream fixture.
"""
from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from mzl.config import RunConfig
from mzl.contour import (circle_contour, crossing_bound_check,
                         dominant_term_bound, log_derivative_integral,
                         ArcSegment, Contour)
from mzl.domains import (JDomainSpec, WpDomainSpec, count_zeros_j,
                         count_zeros_wp, line_im_zero_count,
                         proposition_bound, random_polynomial,
                         theorem2_bound)
from mzl.elliptic import lattice, wp_pair
from mzl.pfaffian import (PfaffianChain, build_hypergeometric_chain,
                          build_ratio_chain, chain_residual,
                          khovanskii_zero_bound)
from mzl.poly import BivariatePolynomial
from mzl.special import (SEXTIC_A, SEXTIC_B, gauss_relation_residuals,
                         j_inverse, klein_j, ramanujan_inversion_residual)
from mzl.verify import identity_suite, run_suites

SEED = 20260815
# the ranges of the (a, b, c, z) rows of the identity suite's sweep
_SWEEP_LOW, _SWEEP_HIGH = [0.1, 0.1, 0.4, 0.05], [1.5, 1.5, 2.0, 0.9]


def test_identity_suite_runtime_and_residuals():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)

    # (a, b, c, z) rows, drawn as the verify suite draws them, in one batch
    draws = rng.uniform(_SWEEP_LOW, _SWEEP_HIGH, size=(100, 4))
    r1, r2 = gauss_relation_residuals(*draws.T)
    assert max(r1.max(), r2.max()) < 1e-9

    # 10^3 points across two lattices, kept a margin away from the poles
    for tau in (1.0, 1.5):
        L = lattice(tau)
        x = rng.uniform(0.12, 0.88, 500)
        y = rng.uniform(0.12, 0.88, 500)
        p, dp = wp_pair(x + 1j * tau * y, L)
        resid = np.abs(dp * dp - (4.0 * p**3 - L.g2 * p - L.g3))
        assert float(resid.max()) < 1e-8

    worst_ram = ramanujan_inversion_residual(np.linspace(0.05, 0.95, 20))
    assert worst_ram.max() < 1e-8
    assert time.monotonic() - t0 < 30.0


@pytest.mark.parametrize("seed", [0, 14, SEED])
def test_identity_sweep_is_drawn_as_value_by_value_draws(seed):
    # identity_suite draws its 100 (a, b, c, z) rows in one call: the same
    # doubles, and the same generator state after them, as drawing the 400
    # values one at a time, row by row, so every report stays as it was
    one, each = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = one.uniform(_SWEEP_LOW, _SWEEP_HIGH, size=(100, 4))
    ref = np.array([[each.uniform(lo, hi)
                     for lo, hi in zip(_SWEEP_LOW, _SWEEP_HIGH)]
                    for _ in range(100)])
    assert np.array_equal(rows, ref)
    assert one.uniform() == each.uniform()
    r1, r2 = gauss_relation_residuals(*ref.T)
    report = identity_suite(np.random.default_rng(seed))
    assert report["max_gauss_residual"] == repr(float(max(r1.max(),
                                                          r2.max())))


def test_special_values_and_inverse_roundtrip():
    assert abs(klein_j(1j) - 1728.0) < 1e-6
    assert abs(klein_j(2j) - 287496.0) < 1e-3
    rho = -0.5 + 1j * np.sin(np.pi / 3.0)
    assert abs(klein_j(rho)) < 1e-6
    assert j_inverse(1728.0) == 1.0
    for x in (2000.0, 1e4, 1e5):
        t = j_inverse(x)
        assert abs(klein_j(1j * t) - x) / x < 1e-7


def test_chain_residuals_and_inversion_identity():
    hyp = build_hypergeometric_chain(SEXTIC_A, SEXTIC_B, 1.0)
    assert chain_residual(hyp) < 1e-7
    ratio = build_ratio_chain()
    assert chain_residual(ratio) < 1e-7

    # the last member inverts the modular level 1728/(1-y^2)
    for y in (0.2, 0.5, 0.8):
        want = complex(j_inverse(1728.0 / (1.0 - y * y)))
        assert abs(complex(ratio.member_values(y)[-1]) - want) < 1e-8

    # negative control: a corrupted right-hand side must be caught
    bad_rhs = [hyp.rhs[0].bumped((0, 2), 1.0)] + list(hyp.rhs[1:])
    bad = PfaffianChain(bad_rhs, hyp.domain, hyp.member_values,
                        sample_offset=hyp.sample_offset, label="corrupted")
    assert chain_residual(bad) > 1e-4


def test_bound_arithmetic_is_exact_through_d_100():
    for d in range(1, 101):
        assert khovanskii_zero_bound(9, 3, 4 * d) <= 2**64 * d**10
        # 0.2 as an exact fraction keeps the whole chain in integers
        assert 8 * 2**64 * d**10 + 10 * d + Fraction(1, 5) <= 2**68 * d**10
    assert theorem2_bound(2) == 65
    assert proposition_bound(3) == 55


def test_zero_count_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)

    re = rng.uniform(-400.0, 400.0, 10)
    im = np.sign(rng.standard_normal(10)) * rng.uniform(120.0, 500.0, 10)
    for c in re + 1j * im:
        assert count_zeros_j(BivariatePolynomial([[-c, 1.0]])).count == 1

    rep = count_zeros_j(BivariatePolynomial([[-1728.0, 1.0]]))
    assert rep.count == 2
    assert all(abs(z.center - 1j) < 0.05 for z in rep.zeros)

    spec1 = WpDomainSpec(tau=1.0)
    re = rng.uniform(-4.0, 4.0, 10)
    im = np.sign(rng.standard_normal(10)) * rng.uniform(0.6, 4.0, 10)
    for c in re + 1j * im:
        assert count_zeros_wp(BivariatePolynomial([[-c, 1.0]]),
                              spec1).count == 2

    for _ in range(50):
        P = random_polynomial(rng, int(rng.integers(0, 3)),
                              int(rng.integers(1, 3)))
        rep = count_zeros_j(P)
        assert rep.bound_holds
        assert rep.count == rep.winding
        assert rep.count == sum(z.multiplicity for z in rep.zeros)

    for _ in range(50):
        P = random_polynomial(rng, int(rng.integers(0, 4)),
                              int(rng.integers(1, 4)))
        rep = count_zeros_wp(P, spec1)
        assert rep.bound_holds
        assert rep.count == rep.winding
        assert rep.count == sum(z.multiplicity for z in rep.zeros)

    assert time.monotonic() - t0 < 300.0


def test_dominance_and_crossing_lemmas():
    rng = np.random.default_rng(SEED)
    contour = circle_contour(0.0, 1.0)
    samples = contour.point(np.linspace(0.0, 1.0, 512)
                            * len(contour.segments))

    # dominated pairs: f = c (z-a)^m with a interior, g scaled so that
    # 2|g| < 0.9|f| everywhere on the contour
    for _ in range(50):
        m = int(rng.integers(1, 4))
        a = rng.uniform(-0.35, 0.35) + 1j * rng.uniform(-0.35, 0.35)
        c = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        f = lambda z, c=c, a=a, m=m: (c * (z - a) ** m,
                                      c * m * (z - a) ** (m - 1))
        gco = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fmin = float(np.abs(f(samples)[0]).min())
        gmax = float(np.abs(np.polyval(gco, samples)).max())
        gco = gco * (0.45 * fmin / gmax)
        g = lambda z, gc=gco: (np.polyval(gc, z),
                               np.polyval(np.polyder(gc), z))
        bound = dominant_term_bound(f, g, contour, 2.0)

        def total(z):
            (fv, dfv), (gv, dgv) = f(z), g(z)
            return fv + gv, dfv + dgv

        direct = abs(log_derivative_integral(total, contour))
        assert bound >= direct - 1e-9

    for _ in range(50):
        n = int(rng.integers(1, 5))
        roots = rng.uniform(-1.6, 1.6, n) + 1j * rng.uniform(-1.6, 1.6, n)
        if np.any(np.abs(np.abs(roots) - 1.3) < 0.05):
            roots = roots * 0.9
        co = np.poly(roots)
        dco = np.polyder(co)
        rep = crossing_bound_check(
            lambda z, co=co, dco=dco: (np.polyval(co, z), np.polyval(dco, z)),
            circle_contour(0.0, 1.3))
        assert rep.lemma2_holds

    # quarter circle shrinking onto a pole of order |k|: the winding
    # contribution settles at |k|/4, never above |k|/4 + 0.1
    a0, p = 1.7 - 0.4j, 0.3 + 0.2j
    g = lambda z: (0.9 + 0.35 * (z - p) ** 2, 0.7 * (z - p))
    for k in (-2, -4, -6):
        f = lambda z, k=k: (a0 * (z - p) ** k, a0 * k * (z - p) ** (k - 1))
        for delta in (0.2, 0.1, 0.05):
            arc = Contour([ArcSegment(p, delta, 0.55, 0.55 + np.pi / 2)])
            over_2pi = dominant_term_bound(f, g, arc, 2.0) / (2.0 * np.pi)
            assert over_2pi <= abs(k) / 4.0 + 0.1


def test_line_counts_stay_under_bound():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        dx = int(rng.integers(0, 4))
        dy = int(rng.integers(1, 4))
        P = random_polynomial(rng, dx, dy, real=True)
        tau = float(rng.choice([1.0, 1.5]))
        line = "horizontal" if rng.integers(2) else "vertical"
        n = line_im_zero_count(P, tau, line=line, component="Re")
        assert n <= proposition_bound(max(1, max(dx, dy)))


def test_robustness_invariances_and_determinism():
    P = BivariatePolynomial([[-(2.5 + 1.5j), 1.0]])
    a = count_zeros_wp(P, WpDomainSpec(tau=1.0, delta=1.0 / 16.0))
    b = count_zeros_wp(P, WpDomainSpec(tau=1.0, delta=1.0 / 32.0))
    assert a.count == b.count == 2

    Q = BivariatePolynomial([[-2000j, 1.0]])
    assert (count_zeros_j(Q, JDomainSpec(Y=2.5)).count
            == count_zeros_j(Q, JDomainSpec(Y=3.5)).count == 1)

    runs = [json.dumps(run_suites(RunConfig(trials=2, seed=5),
                                  ["zero_counts"]), sort_keys=True)
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_line_count_and_robustness_suites_run_deterministically():
    runs = [run_suites(RunConfig(trials=3, seed=0),
                       ["line_counts", "robustness"]) for _ in range(2)]
    rep = runs[0]
    assert rep["pass"] is True
    assert set(rep) == {"schema", "seed", "trials", "pass", "suites"}
    lines, robust = rep["suites"]
    assert set(lines) == {"name", "pass", "trials_ok", "trials",
                          "max_count_seen"}
    assert lines["name"] == "line_counts" and lines["trials_ok"] == 3
    assert set(robust) == {"name", "pass", "delta_halving_invariant",
                           "top_line_invariant", "report_deterministic"}
    assert robust["name"] == "robustness" and robust["pass"] is True
    texts = [json.dumps(r, sort_keys=True) for r in runs]
    assert texts[0] == texts[1]
