"""Pfaffian chains, the Khovanskii bound, and real zero counting."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from mzl.errors import AmbiguityError, InvalidSpecError
from mzl.pfaffian import (MultiPoly, PfaffianChain, PfaffianFunction,
                          build_hypergeometric_chain, build_ratio_chain,
                          chain_residual, khovanskii_zero_bound,
                          ratio_pfaffian_function, real_zero_count,
                          real_zero_count_detailed)
from mzl.special import j_inverse, klein_j


# ---------------------------------------------------------------------------
# bound arithmetic


def test_khovanskii_bound_values():
    assert khovanskii_zero_bound(1, 2, 1) == 3
    assert khovanskii_zero_bound(9, 2, 1) == 2**36 * 3**9
    assert khovanskii_zero_bound(9, 2, 1) == 1352605460594688
    assert khovanskii_zero_bound(9, 3, 4) == 2**36 * 4 * 7**9
    assert khovanskii_zero_bound(9, 3, 4) < 2**64
    assert khovanskii_zero_bound(5, 7, 0) == 0


def test_khovanskii_bound_validation():
    for bad in ((0, 2, 1), (3, 0, 1), (3, 2, -1)):
        with pytest.raises(InvalidSpecError):
            khovanskii_zero_bound(*bad)


def test_khovanskii_bound_is_exact_integer():
    b = khovanskii_zero_bound(12, 9, 11)
    assert isinstance(b, int)
    assert b == 2**66 * 11 * 20**12


# ---------------------------------------------------------------------------
# the hypergeometric chain


def test_hyp_chain_shape():
    chain = build_hypergeometric_chain(1.0 / 6.0, 5.0 / 6.0, 1.0)
    assert chain.order == 6
    assert chain.alpha == 4
    for i, p in enumerate(chain.rhs):
        assert p.nvars == i + 2  # triangular: f_i' uses only x, f_1..f_i


def test_hyp_chain_residual():
    chain = build_hypergeometric_chain(1.0 / 6.0, 5.0 / 6.0, 1.0)
    assert chain_residual(chain, n_samples=200) < 1e-8


def test_hyp_chain_members_are_consistent(rng):
    chain = build_hypergeometric_chain(1.0 / 6.0, 5.0 / 6.0, 1.0)
    x = rng.uniform(0.1, 0.9, 30)
    f1, f2, f3, f4, f5, f6 = chain.member_values(x)
    assert np.abs(f1 - 1.0 / x).max() < 1e-14
    assert np.abs(f2 - 1.0 / (1.0 - x)).max() < 1e-14
    assert np.abs(f5 * f6 - 1.0).max() < 1e-12
    assert np.abs(f3 - f5 / f4).max() < 1e-10 * float(np.abs(f3).max())


def test_hyp_chain_raised_parameter_slope():
    # F(a,b;c+1;x) = 1 + ab/(c+1) x + O(x^2); the chain's f4 member must
    # reproduce the 5/72 slope for the sextic parameters
    chain = build_hypergeometric_chain(1.0 / 6.0, 5.0 / 6.0, 1.0)
    eps = 1e-3
    f4 = chain.member_values(np.array([eps]))[3]
    slope = (float(np.real(f4[0])) - 1.0) / eps
    assert abs(slope - 5.0 / 72.0) < 1e-4


def test_corrupted_chain_fails_residual_check():
    chain = build_hypergeometric_chain(1.0 / 6.0, 5.0 / 6.0, 1.0)
    rhs_bad = list(chain.rhs)
    rhs_bad[0] = chain.rhs[0].bumped((0, 2), 1.0)
    bad = PfaffianChain(rhs_bad, chain.domain, chain.member_evaluators,
                        chain.sample_offset, "corrupted")
    assert chain_residual(bad, n_samples=50) > 1e-2


# ---------------------------------------------------------------------------
# the period-ratio chain


def test_ratio_chain_shape():
    chain = build_ratio_chain()
    assert chain.order == 9
    assert chain.alpha == 2
    rf = ratio_pfaffian_function()
    assert rf.beta == 1
    assert rf.zero_bound == khovanskii_zero_bound(9, 2, 1)


def test_ratio_chain_residual():
    assert chain_residual(build_ratio_chain(), n_samples=200) < 1e-7


def test_ratio_member_at_small_argument():
    rf = ratio_pfaffian_function()
    v = complex(rf.eval(np.array([1e-8]))[0])
    assert abs(v - 1.0) < 1e-6


def test_ratio_member_inverts_j():
    # F(w+)/F(w-) at y equals the aspect ratio t with j(it) = 1728/(1-y^2)
    rf = ratio_pfaffian_function()
    for y in (0.2, 0.5, 0.8):
        t = float(np.real(rf.eval(np.array([y]))[0]))
        want = j_inverse(1728.0 / (1.0 - y * y))
        assert abs(t - want) < 1e-8 * (1.0 + abs(want))


def test_manual_reciprocal_chain():
    chain = PfaffianChain([MultiPoly({(0, 2): -1.0}, 2)], (0.1, 1.0),
                          [lambda x: 1.0 / np.asarray(x, dtype=complex)],
                          label="1/x")
    assert chain.order == 1
    assert chain.alpha == 2
    assert chain_residual(chain, n_samples=100) < 1e-7


def test_chain_residual_evaluates_each_member_once():
    chain = build_ratio_chain()
    calls = [0] * chain.order

    def counting(i, ev):
        def counted(x):
            calls[i] += 1
            return ev(x)
        return counted

    counted = PfaffianChain(
        chain.rhs, chain.domain,
        [counting(i, ev) for i, ev in enumerate(chain.member_evaluators)],
        chain.sample_offset, chain.label)
    assert chain_residual(counted, n_samples=20) < 1e-7
    assert calls == [1] * chain.order


def test_chain_residual_rejects_an_empty_grid():
    with pytest.raises(InvalidSpecError):
        chain_residual(build_ratio_chain(), n_samples=0)


def test_chain_validation_errors():
    good = MultiPoly({(0, 2): -1.0}, 2)
    with pytest.raises(InvalidSpecError):
        PfaffianChain([good, good], (0.0, 1.0), [lambda x: x, lambda x: x])
    with pytest.raises(InvalidSpecError):
        PfaffianChain([good], (1.0, 0.0), [lambda x: x])
    with pytest.raises(InvalidSpecError):
        PfaffianFunction(build_ratio_chain(), MultiPoly({(1,): 1.0}, 1))


def test_multipoly_validation():
    with pytest.raises(InvalidSpecError):
        MultiPoly({(1, 2): 1.0}, 3)
    with pytest.raises(InvalidSpecError):
        MultiPoly({(-1, 2): 1.0}, 2)
    p = MultiPoly({(1, 0): 1.0, (0, 3): 0.0}, 2)
    assert p.total_degree == 1  # zero coefficients are dropped


# ---------------------------------------------------------------------------
# real zero counting


def test_zero_count_sine():
    f = lambda x: np.sin(2.0 * np.pi * np.asarray(x))
    assert real_zero_count(f, (0.1, 2.9)) == 5


def test_zero_count_j_level_set():
    f = lambda t: np.real(klein_j(1j * np.asarray(t))) - 2000.0
    detail = real_zero_count_detailed(f, (1.0, 3.0), n_initial=1024)
    assert detail.count == 1
    root = detail.roots[0]
    ref = oracles.bisect_root(lambda t: np.real(klein_j(1j * t)) - 2000.0,
                              1.0, 3.0)
    assert abs(root - ref) < 1e-8
    assert abs(root - j_inverse(2000.0)) < 1e-7


def test_zero_count_plateau_is_ambiguous():
    f = lambda x: np.minimum(np.asarray(x) - 0.5, 0.0)
    with pytest.raises(AmbiguityError):
        real_zero_count(f, (0.0, 1.0))


def test_zero_count_tangential_touch():
    f = lambda x: (np.asarray(x) - 0.49737) ** 2
    detail = real_zero_count_detailed(f, (0.0, 1.0))
    assert detail.count == 0
    assert len(detail.tangential) >= 1
    assert min(abs(t - 0.49737) for t in detail.tangential) < 1e-3


def test_pfaffian_eval_calls_only_the_members_outer_uses():
    base = build_ratio_chain()
    calls = [0] * base.order

    def counted(i, ev):
        def f(y):
            calls[i] += 1
            return ev(y)
        return f

    chain = PfaffianChain(base.rhs, base.domain,
                          [counted(i, ev) for i, ev
                           in enumerate(base.member_evaluators)],
                          base.sample_offset, base.label)
    y = np.linspace(0.05, 0.95, 7)
    ratio_only = {(0,) * 9 + (k,): 1.0 + k for k in range(3)}
    mixed = {(1, 0, 0, 2) + (0,) * 5 + (1,): -0.5, (0, 1) + (0,) * 8: 2.0}
    for terms, used in ((ratio_only, {8}), (mixed, {0, 2, 8})):
        calls[:] = [0] * base.order
        pf = PfaffianFunction(chain, MultiPoly(terms, 10))
        got = pf.eval(y)
        assert {i for i, n in enumerate(calls) if n} == used
        assert all(calls[i] == 1 for i in used)
        want = pf.outer.eval(y, base.member_values(y))
        assert np.array_equal(got, want)


def test_zero_count_respects_khovanskii_bound(rng):
    # univariate polynomials in the (strictly monotone) ratio member: the
    # observed count can never exceed the polynomial degree, let alone the
    # Khovanskii bound
    chain = build_ratio_chain()
    for _ in range(50):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1)
        terms = {(0,) * 9 + (k,): float(c) for k, c in enumerate(coeffs)}
        pf = PfaffianFunction(chain, MultiPoly(terms, 10))
        f = lambda y: np.real(pf.eval(np.asarray(y)))
        n = real_zero_count(f, (0.02, 0.98), n_initial=512, refine_rounds=2)
        assert n <= deg
        assert n <= pf.zero_bound
