"""Pfaffian chains, the Khovanskii bound, and real zero counting."""
from __future__ import annotations

import numpy as np
import pytest

import mzl.pfaffian as pfaffian_module
import oracles
from mzl.errors import (AmbiguityError, DomainError, InvalidSpecError,
                        MzlError)
from mzl.pfaffian import (MultiPoly, PfaffianChain, PfaffianFunction,
                          build_hypergeometric_chain, build_ratio_chain,
                          chain_residual, khovanskii_zero_bound,
                          ratio_pfaffian_function, real_zero_count)
from mzl.special import _sextic_pairs, hyp2f1, j_inverse, klein_j


def counted(calls, key, fn):
    """fn, with each call appended to calls as key."""
    def wrapped(*args):
        calls.append(key)
        return fn(*args)
    return wrapped


def counted_chain(chain, calls):
    """chain, with each member_values pass appended to calls."""
    return PfaffianChain(chain.rhs, chain.domain,
                         counted(calls, "pass", chain.member_values),
                         chain.sample_offset, chain.label)


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
    bad = PfaffianChain(rhs_bad, chain.domain, chain.member_values,
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


def test_ratio_members_need_y_in_zero_to_one():
    # w- = (1 - y)/2 must lie in (0, 1/2]: y = 0 gives the ratio 1 up to
    # rounding, and a y in (-1, 0) or at 1 is outside the chain's domain
    chain = build_ratio_chain()
    assert abs(chain.member_values(np.array([0.0]))[8][0] - 1.0) < 1e-15
    for y in (-0.5, -1e-3, 1.0):
        with pytest.raises(DomainError):
            chain.member_values(np.array([0.2, y]))


def test_ratio_member_inverts_j():
    # F(w+)/F(w-) at y equals the aspect ratio t with j(it) = 1728/(1-y^2)
    rf = ratio_pfaffian_function()
    for y in (0.2, 0.5, 0.8):
        t = float(np.real(rf.eval(np.array([y]))[0]))
        want = j_inverse(1728.0 / (1.0 - y * y))
        assert abs(t - want) < 1e-8 * (1.0 + abs(want))


def test_manual_reciprocal_chain():
    chain = PfaffianChain([MultiPoly({(0, 2): -1.0}, 2)], (0.1, 1.0),
                          lambda x: [1.0 / np.asarray(x, dtype=complex)],
                          label="1/x")
    assert chain.order == 1
    assert chain.alpha == 2
    assert chain_residual(chain, n_samples=100) < 1e-7


def test_chain_residual_evaluates_each_member_once(monkeypatch):
    # one member pass over the stacked stencil grids, which sums F and
    # F(c+) once each: at w+ and w- together, and with one two-row Gauss
    # loop, for the ratio chain, and in one two-row series loop for the
    # hyp chain
    calls = []
    for name in ("_sextic_pairs", "_gauss_series"):
        monkeypatch.setattr(pfaffian_module, name, counted(
            calls, name, getattr(pfaffian_module, name)))
    for chain, series in ((build_ratio_chain(), ["_sextic_pairs"]),
                          (build_hypergeometric_chain(0.3, 1.2, 0.8),
                           ["_gauss_series"])):
        calls.clear()
        assert chain_residual(counted_chain(chain, calls), 20) < 1e-7
        assert calls == ["pass"] + series


def test_chain_suite_evaluates_the_hyp_members_once(monkeypatch):
    # the corrupted negative control shares the hyp chain's members, so
    # their one pass is reused, and both residuals stay those of
    # chain_residual bit for bit
    from mzl import verify
    passes, sextic = [], []
    build = verify.build_hypergeometric_chain
    monkeypatch.setattr(verify, "build_hypergeometric_chain",
                        lambda *args: counted_chain(build(*args), passes))
    # pfaffian's own sextic sums, c = 1 and 2 in one call: one in the
    # ratio residual, one in the one ratio evaluation over three points
    # (j_inverse sums its own)
    monkeypatch.setattr(pfaffian_module, "_sextic_pairs", counted(
        sextic, "sextic", pfaffian_module._sextic_pairs))
    rep = verify.chain_suite()
    assert rep["pass"]
    assert passes == ["pass"]
    assert len(sextic) == 2
    hyp = build(0.3, 1.2, 0.8)
    assert rep["hyp_residual"] == repr(chain_residual(hyp, 200))
    assert rep["corrupted_residual"] == repr(
        chain_residual(verify._corrupted(hyp), 200))


def test_chain_residual_rejects_an_empty_grid():
    with pytest.raises(InvalidSpecError):
        chain_residual(build_ratio_chain(), n_samples=0)


def test_chain_validation_errors():
    good = MultiPoly({(0, 2): -1.0}, 2)
    with pytest.raises(InvalidSpecError):
        PfaffianChain([good], (1.0, 0.0), lambda x: [x])
    with pytest.raises(InvalidSpecError):
        PfaffianChain([good, good], (0.0, 1.0), lambda x: [x])
    with pytest.raises(InvalidSpecError):
        PfaffianFunction(build_ratio_chain(), MultiPoly({(1,): 1.0}, 1))


def test_member_count_is_checked_where_the_values_come_back():
    two = [MultiPoly({(0, 2): -1.0}, 2), MultiPoly({(0, 0, 2): 1.0}, 3)]
    for values in (lambda x: [x], lambda x: [x, x, x]):
        chain = PfaffianChain(two, (0.1, 1.0), values, label="short")
        with pytest.raises(InvalidSpecError, match="returned"):
            chain_residual(chain, 10)
        pf = PfaffianFunction(chain, MultiPoly({(0, 1, 0): 1.0}, 3))
        with pytest.raises(InvalidSpecError):
            pf.eval(np.array([0.5]))


def test_a_failing_member_pass_names_the_chain():
    def broken(x):
        raise ZeroDivisionError("no members here")

    chain = PfaffianChain([MultiPoly({(0, 2): -1.0}, 2)], (0.1, 1.0),
                          broken, label="broken")
    with pytest.raises(MzlError, match="chain 'broken' failed on"):
        chain_residual(chain, 10)


def test_members_equal_their_closed_forms():
    # each member, bit for bit, from its own hyp2f1 or one-c _sextic_pairs
    # call
    # on the points alone: one pass changes no value
    x = np.linspace(0.05, 0.95, 41)
    a, b, c = 0.3, 1.2, 0.8
    F, Fp = hyp2f1(a, b, c, x), hyp2f1(a, b, c + 1.0, x)
    xc = x.astype(complex)
    want = [1.0 / xc, 1.0 / (1.0 - xc), F / Fp, Fp, F, 1.0 / F]
    got = build_hypergeometric_chain(a, b, c).member_values(x)
    assert len(got) == 6
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    y = np.linspace(0.02, 0.98, 41)
    wm = (1.0 - y) / 2.0
    Fwm, Fwp = _sextic_pairs((1.0,), wm)[0][:2]
    Cwm, Cwp = _sextic_pairs((2.0,), wm)[0][:2]
    yc = y.astype(complex)
    want = [1.0 / (1.0 - yc), 1.0 / (1.0 + yc), Cwp / ((1.0 - y) * Fwp),
            Fwp, Cwm / ((1.0 + y) * Fwm), Fwm, Cwp, Cwm, Fwp / Fwm]
    got = build_ratio_chain().member_values(y)
    assert len(got) == 9
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_multipoly_validation():
    with pytest.raises(InvalidSpecError):
        MultiPoly({(1, 2): 1.0}, 3)
    with pytest.raises(InvalidSpecError):
        MultiPoly({(-1, 2): 1.0}, 2)
    p = MultiPoly({(1, 0): 1.0, (0, 3): 0.0}, 2)
    assert p.total_degree == 1  # zero coefficients are dropped


# ---------------------------------------------------------------------------
# real zero counting


def _count(f, a, b, n=4096):
    # the count on the n-point grid over [a, b], with f's values on it
    t = np.linspace(a, b, n)
    return real_zero_count(f, t, f(t))


def test_zero_count_sine():
    f = lambda x: np.sin(2.0 * np.pi * np.asarray(x))
    assert _count(f, 0.1, 2.9) == 5


def test_zero_count_calls_f_once_per_round(monkeypatch):
    # a count needs the grid and its refinements only: no call locates a root
    calls = [0]

    def f(x):
        calls[0] += 1
        return np.sin(2.0 * np.pi * np.asarray(x))

    # a shared grid and its values are read-only: the count writes neither
    t = np.linspace(0.1, 2.9, 4096)
    v = f(t)
    t.setflags(write=False)
    v.setflags(write=False)
    for rounds in (0, 1, 3):
        calls[0] = 0
        monkeypatch.setattr(pfaffian_module, "_REFINE_ROUNDS", rounds)
        assert real_zero_count(f, t, v) == 5
        assert calls[0] <= rounds


def test_zero_count_grid_validation():
    f = lambda x: np.sin(2.0 * np.pi * np.asarray(x))
    t = np.linspace(0.1, 2.9, 64)
    for grid, values in ((t[::-1], f(t[::-1])), (t[:1], f(t[:1])),
                         (np.array([0.5, 0.5]), np.zeros(2)),
                         (t, f(t)[:-1])):
        with pytest.raises(InvalidSpecError):
            real_zero_count(f, grid, values)


def test_zero_count_j_level_set():
    # j(it) rises through 2000 once on (1, 3), at t0; |f(t0 +- 1e-7)| is
    # about 5e-4, far above the error of klein_j
    f = lambda t: np.real(klein_j(1j * np.asarray(t))) - 2000.0
    t0 = j_inverse(2000.0)
    assert _count(f, 1.0, 3.0, 1024) == 1
    assert _count(f, 1.0, t0 - 1e-7, 1024) == 0
    assert _count(f, t0 + 1e-7, 3.0, 1024) == 0


def test_zero_count_plateau_is_ambiguous():
    f = lambda x: np.minimum(np.asarray(x) - 0.5, 0.0)
    with pytest.raises(AmbiguityError):
        _count(f, 0.0, 1.0)


def test_zero_count_tangential_touch():
    f = lambda x: (np.asarray(x) - 0.49737) ** 2
    assert _count(f, 0.0, 1.0) == 0


@pytest.mark.parametrize("n", [1, 40, 64, 65, 128, 129, 1000, 4096])
def test_local_scale_equals_the_rolled_version(rng, n):
    # 1, 2 and many blocks of 64; slices instead of np.roll, same bits
    for _ in range(5):
        mods = np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 8, n)
        got = pfaffian_module._local_scale(mods)
        want = oracles.local_scale_roll(mods)
        assert got.shape == want.shape == (n,)
        assert np.all(got == want)


def test_pfaffian_eval_is_outer_on_one_member_pass():
    base = build_ratio_chain()
    calls = []
    chain = counted_chain(base, calls)
    y = np.linspace(0.05, 0.95, 7)
    ratio_only = {(0,) * 9 + (k,): 1.0 + k for k in range(3)}
    mixed = {(1, 0, 0, 2) + (0,) * 5 + (1,): -0.5, (0, 1) + (0,) * 8: 2.0}
    for terms in (ratio_only, mixed):
        calls.clear()
        pf = PfaffianFunction(chain, MultiPoly(terms, 10))
        got = pf.eval(y)
        assert calls == ["pass"]
        want = pf.outer.eval(y, base.member_values(y))
        assert np.array_equal(got, want)


def test_zero_count_respects_khovanskii_bound(rng, monkeypatch):
    # univariate polynomials in the (strictly monotone) ratio member: the
    # observed count can never exceed the polynomial degree, let alone the
    # Khovanskii bound
    chain = build_ratio_chain()
    monkeypatch.setattr(pfaffian_module, "_REFINE_ROUNDS", 2)
    for _ in range(50):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1)
        terms = {(0,) * 9 + (k,): float(c) for k, c in enumerate(coeffs)}
        pf = PfaffianFunction(chain, MultiPoly(terms, 10))
        f = lambda y: np.real(pf.eval(np.asarray(y)))
        n = _count(f, 0.02, 0.98, 512)
        assert n <= deg
        assert n <= pf.zero_bound
