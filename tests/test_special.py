"""Hypergeometric, Eisenstein, and Klein-j evaluation."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import mzl.special as special_module
import oracles
from mzl.errors import DomainError, PrecisionLossError
from mzl.pfaffian import _member_stencils, build_ratio_chain
from mzl.qseries import standard_series
from mzl.special import (gauss_relation_residuals, hyp2f1,
                         hyp2f1_with_bound, j_inverse, klein_j,
                         klein_j_derivative, klein_j_error_bound,
                         klein_j_pair, ramanujan_inversion_residual)


# ---------------------------------------------------------------------------
# 2F1


def _hyp2f1_derivative(a, b, c, z):
    """d/dz 2F1(a, b, c; z) = (a b / c) 2F1(a + 1, b + 1, c + 1; z)."""
    return (a * b / c) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)


def test_hyp2f1_at_zero_is_one():
    assert hyp2f1(0.3, 1.7, 0.9, 0.0) == 1.0


def test_hyp2f1_log_closed_form():
    # 2F1(1, 1, 2, z) = -log(1 - z)/z
    got = hyp2f1(1.0, 1.0, 2.0, 0.5)
    assert abs(got - 2.0 * math.log(2.0)) < 1e-12


def test_hyp2f1_parameter_symmetry(rng):
    for _ in range(25):
        a, b = rng.uniform(0.1, 2.0, 2)
        c = rng.uniform(0.3, 2.5)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5))
        assert abs(hyp2f1(a, b, c, z) - hyp2f1(b, a, c, z)) < 1e-13


def test_hyp2f1_rejects_bad_c_and_edge_z():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, -2.0, 0.3)
    with pytest.raises(PrecisionLossError) as exc:
        hyp2f1(0.5, 0.5, 1.0, 0.9999)
    assert exc.value.achieved > 0.0


@pytest.mark.parametrize("z", [1.5, -3.0 + 2.0j, complex("nan"), np.inf])
def test_hyp2f1_outside_the_disk_fails_before_the_series(monkeypatch, z):
    # a z outside the disk, nan included, fails before any term is
    # summed, with achieved inf as its evidence
    def no_series(rows, z, *rest):
        raise AssertionError("series summed outside the disk")

    monkeypatch.setattr(special_module, "_hyp_series", no_series)
    for fn in (hyp2f1, hyp2f1_with_bound, _hyp2f1_derivative):
        with pytest.raises(PrecisionLossError) as exc:
            fn(0.3, 1.2, 0.8, z)
        assert exc.value.achieved == math.inf


def test_hyp2f1_bound_is_honest(rng):
    for _ in range(20):
        a, b = rng.uniform(0.1, 1.5, 2)
        c = rng.uniform(0.4, 2.0)
        z = rng.uniform(-0.8, 0.8)
        v, bound = hyp2f1_with_bound(a, b, c, z)
        [(tight, _)] = special_module._hyp_series([(a, b, c, 1.0)], z, 1e-16)
        assert abs(v - tight) <= bound + 1e-15


def test_hyp2f1_prime_matches_central_difference(rng):
    for _ in range(15):
        a, b = rng.uniform(0.2, 1.4, 2)
        c = rng.uniform(0.5, 1.8)
        z = rng.uniform(0.1, 0.7)
        fd = oracles.central_difference(lambda t: hyp2f1(a, b, c, t), z)
        got = _hyp2f1_derivative(a, b, c, z)
        assert abs(got - fd) < 5e-8 * (1.0 + abs(fd))


# ---------------------------------------------------------------------------
# Gauss contiguous relations


def test_gauss_residuals_sextic_point():
    r1, r2 = gauss_relation_residuals(1.0 / 6.0, 5.0 / 6.0, 1.0, 0.3)
    assert r1 < 1e-10 and r2 < 1e-10


def test_gauss_residuals_vanish_toward_zero():
    r1, r2 = gauss_relation_residuals(0.4, 1.1, 0.9, 1e-8)
    assert r1 < 1e-12 and r2 < 1e-12


def test_gauss_residual_sweep(rng):
    # the absolute residual stays tiny where F is moderate, and under
    # 1e-7 even with c down at 0.1 where F(c-1) is nearly singular; each
    # sweep keeps its per-triple draws and is one batched call
    safe = []
    for _ in range(100):
        a, b = rng.uniform(0.1, 1.5, 2)
        c = rng.uniform(0.4, 2.0)
        z = rng.uniform(0.05, 0.9)
        safe.append((a, b, c, z))
    r1, r2 = gauss_relation_residuals(*np.transpose(safe))
    assert max(r1.max(), r2.max()) < 1e-9
    full = []
    for _ in range(200):
        a, b, c = rng.uniform(0.1, 2.0, 3)
        z = rng.uniform(0.05, 0.95)
        full.append((a, b, c, z))
    r1, r2 = gauss_relation_residuals(*np.transpose(full))
    assert max(r1.max(), r2.max()) < 1e-7


def test_array_parameters_agree_with_scalar_calls(rng):
    # positive parameters and |z| <= 0.9 keep every sum well conditioned,
    # so an element of a batch differs from its own scalar call by at most
    # that call's tail bound and rounding
    n = 60
    a, b = rng.uniform(0.1, 1.5, (2, n))
    c = rng.uniform(0.4, 2.0, n)
    z = rng.uniform(0.05, 0.9, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    vals, _ = hyp2f1_with_bound(a, b, c, z)
    primes = _hyp2f1_derivative(a, b, c, z)
    assert vals.shape == primes.shape == (n,)
    for i in range(n):
        v, bound = hyp2f1_with_bound(a[i], b[i], c[i], z[i])
        assert abs(vals[i] - v) <= bound + 4.0 * np.spacing(abs(v))
        p = _hyp2f1_derivative(a[i], b[i], c[i], z[i])
        _, pb = hyp2f1_with_bound(a[i] + 1.0, b[i] + 1.0, c[i] + 1.0, z[i])
        assert (abs(primes[i] - p)
                <= abs(a[i] * b[i] / c[i]) * pb + 4.0 * np.spacing(abs(p)))
    assert hyp2f1_with_bound(a[:0], 0.5, 1.0, 0.3)[0].shape == (0,)
    # parameters broadcast against z and against each other
    grid = hyp2f1(0.5, b[:, None], 1.0, np.array([0.2, -0.4j]))
    assert grid.shape == (n, 2)
    assert grid[7, 1] == hyp2f1(0.5, b[7], 1.0, np.array([0.2, -0.4j]))[1]

    # each residual moves by at most the tail bounds of its four sums,
    # each under rtol = 1e-14 of the terms it enters
    zr = rng.uniform(0.05, 0.9, n)
    r1, r2 = gauss_relation_residuals(a, b, c, zr)
    for i in range(n):
        ai, bi, ci, zi = a[i], b[i], c[i], zr[i]
        F = abs(hyp2f1(ai, bi, ci, zi))
        scale = (zi * abs(_hyp2f1_derivative(ai, bi, ci, zi))
                 + abs(ci - 1.0) * F
                 + zi * (abs((ci - ai) * (ci - bi)
                             * hyp2f1(ai, bi, ci + 1.0, zi))
                         + abs(ci * (ai + bi - ci)) * F) / (ci * (1.0 - zi)))
        s1, s2 = gauss_relation_residuals(ai, bi, ci, zi)
        assert abs(r1[i] - s1) <= 5e-14 * scale
        assert abs(r2[i] - s2) <= 5e-14 * scale


def test_scalar_calls_run_the_scalar_loop():
    # scalar parameters with c >= 0 run, bit for bit, the loop they always
    # ran: at the sextic values j_inverse sums, a chain member's grid and
    # generic points
    loop = oracles.hyp_series_scalar_loop
    pinned = [(1.0 / 6.0, 5.0 / 6.0, 1.0, 0.9956611745940971),
              (1.0 / 6.0, 5.0 / 6.0, 1.0, 0.004338825405902913),
              (0.3, 1.2, 0.8, np.linspace(0.01, 0.95002, 1000)),
              (0.3, 1.7, 0.9, 0.5 + 0.3j), (1.0, 1.0, 2.0, 0.5)]
    for a, b, c, z in pinned:
        v, bound = hyp2f1_with_bound(a, b, c, z)
        ref, ref_bound = loop(a, b, c, 1.0, z)
        assert np.array_equal(v, ref) and bound == ref_bound
        prime = _hyp2f1_derivative(a, b, c, z)
        dref, _ = loop(a + 1.0, b + 1.0, c + 1.0, 1.0, z)
        assert np.array_equal(prime, (a * b / c) * dref)
    a, b, c, z = 0.4, 1.1, 0.9, 0.3
    F = complex(loop(a, b, c, 1.0, z)[0])
    lhs = z * complex((a * b / c) * loop(a + 1.0, b + 1.0, c + 1.0, 1.0, z)[0])
    cm1 = (c - 1.0) + a * b * np.asarray(z, dtype=complex) * loop(
        a + 1.0, b + 1.0, c, 2.0, z)[0]
    Fcp = complex(loop(a, b, c + 1.0, 1.0, z)[0])
    rhs2 = (z * ((c - a) * (c - b) * Fcp + c * (a + b - c) * F)
            / (c * (1.0 - z)))
    assert gauss_relation_residuals(a, b, c, z) == (
        abs(lhs - complex(cm1 - (c - 1.0) * F)), abs(lhs - rhs2))


@pytest.mark.parametrize("a, b, c, z", [
    (1.0, 1.0, -1.5, 0.5), (1.3, 0.7, -3.5, 0.8), (2.0, 2.0, -5.5, 0.9),
    # batches, whose one bound must cover the element that the largest
    # |a| and |b|, or the most negative c, make slowest
    ([0.1, 6.0, 0.5], [0.2, 4.0, 1.0], [1.5, 0.7, -2.5], [0.5, 0.9, 0.5]),
    ([0.5, 2.0], [0.5, 2.0], [1.0, -5.5], [0.3, 0.9])])
def test_hyp2f1_bound_covers_the_truncation_tail(a, b, c, z, monkeypatch):
    # |c + k| < k for c < 0, so the majorant divides by (n + c) n there
    mpmath = pytest.importorskip("mpmath")
    _, bound = hyp2f1_with_bound(a, b, c, z)
    # the terms summed: the least term cap that still converges
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(special_module, "_HYP_MAX_TERMS", mid)
        try:
            hyp2f1_with_bound(a, b, c, z)
            hi = mid
        except PrecisionLossError:
            lo = mid + 1
    elements = zip(*np.broadcast_arrays(*map(np.atleast_1d, (a, b, c, z))))
    with mpmath.workdps(60):
        for A, B, C, Z in ([mpmath.mpf(float(v)) for v in p]
                           for p in elements):
            w = partial = mpmath.mpf(1)
            for m in range(lo):
                w *= Z * (A + m) * (B + m) / ((C + m) * (1 + m))
                partial += w
            assert abs(mpmath.hyp2f1(A, B, C, Z) - partial) <= bound


def test_array_calls_check_every_element(monkeypatch):
    cs = np.array([0.7, -2.0, 1.3])
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, cs, 0.3)
    with pytest.raises(DomainError):
        _hyp2f1_derivative(0.5, 0.5, cs, 0.3)
    with pytest.raises(DomainError):
        gauss_relation_residuals(0.5, 0.5, cs, np.array([0.3, 0.4, 0.5]))
    for zs in ([0.3, 1.0, 0.4], [0.3, 0.0, 0.4], [0.3, -0.2, 0.4]):
        with pytest.raises(DomainError):
            gauss_relation_residuals(np.full(3, 0.5), 0.5, 0.8, np.array(zs))
    with pytest.raises(DomainError):
        ramanujan_inversion_residual(np.array([0.2, 0.9995]))
    edge = np.array([0.3, 0.9999])
    for call in (hyp2f1, _hyp2f1_derivative, gauss_relation_residuals):
        with pytest.raises(PrecisionLossError) as exc:
            call(np.array([0.5, 0.7]), 0.5, 1.0, edge)
        assert exc.value.achieved > 0.0
    # a batch that runs out of terms reports the tail it reached
    monkeypatch.setattr(special_module, "_HYP_MAX_TERMS", 50)
    with pytest.raises(PrecisionLossError) as exc:
        hyp2f1(np.array([0.5, 6.0]), 0.5, 1.0, 0.9)
    assert exc.value.achieved > 1e-14


@pytest.mark.parametrize("name", ["a", "b", "c"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_fail_before_the_series(monkeypatch, name,
                                                      bad):
    def no_series(rows, z, *rest):
        raise AssertionError("series summed with a non-finite parameter")

    monkeypatch.setattr(special_module, "_hyp_series", no_series)
    for value in (bad, np.array([0.5, bad])):
        params = {"a": 0.3, "b": 1.2, "c": 0.8, name: value}
        for fn in (hyp2f1, hyp2f1_with_bound, _hyp2f1_derivative,
                   gauss_relation_residuals):
            with pytest.raises(DomainError, match=f"^{name}=.* not finite"):
                fn(params["a"], params["b"], params["c"], 0.3)


@pytest.mark.parametrize("a, c, z, term", [
    # the terms reach inf by the second: the block ends, the sum is not
    # finite; alternating signs and complex z also make NaN
    (1e300, 1.0, 0.3, special_module._TERM_BLOCK),
    (1e300, 1.0, np.array([0.3, -0.5]), special_module._TERM_BLOCK),
    (1e300, 1.0, 0.3 + 0.1j, special_module._TERM_BLOCK),
    # the first ratio is inf, and the majorant would accept the sum
    (0.5, 1e-310, 0.3, 1)])
def test_a_sum_that_is_not_finite_stops_where_it_is_seen(a, c, z, term):
    with pytest.raises(PrecisionLossError,
                       match=f"not finite by term {term} ") as exc:
        hyp2f1(a, 0.5, c, z)
    assert exc.value.achieved == math.inf


# ---------------------------------------------------------------------------
# the blocked loops return, bit for bit, what the one-term loops returned


def _hyp_cases():
    """Stacks (rows, z) of series over one z."""
    rng = np.random.default_rng(3)
    n = 100
    a, b = rng.uniform(0.1, 1.5, (2, n))
    c = rng.uniform(0.4, 2.0, n)
    z = rng.uniform(0.05, 0.9, n)
    zc = z * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    grid = np.linspace(0.01, 0.95002, 1000)
    # the four sums of an identity-suite sweep; d = 2 is the series behind
    # (c-1) F(c-)
    identity = [(a, b, c, 1.0), (a + 1.0, b + 1.0, c + 1.0, 1.0),
                (a + 1.0, b + 1.0, c, 2.0), (a, b, c + 1.0, 1.0)]
    return [
        (identity, z),
        # a hypergeometric chain's grid, F and F(c+)
        ([(0.3, 1.2, 0.8, 1.0), (0.3, 1.2, 1.8, 1.0)], grid),
        # rows of scalar and of array parameters, and a row that mixes
        # them, over one z
        ([(0.3, 1.2, 0.8, 1.0), (a, b, c, 1.0), (a, 0.5, 1.1, 2.0)], z),
        # complex z, and a real z held as complex with imaginary parts -0
        (identity, zc), ([(0.3, 1.7, 0.9, 1.0)], 0.5 + 0.3j),
        ([(0.3, 1.7, 0.9, 1.0), (0.4, 1.1, 1.9, 1.0)],
         np.array([complex(0.4, -0.0), -0.6])),
        # negative non-integer c, alone and in a batch
        ([(1.3, 0.7, -3.5, 1.0), (1.3, 0.7, 0.5, 1.0)], 0.8),
        ([([0.1, 6.0, 0.5], [0.2, 4.0, 1.0], [1.5, 0.7, -2.5], 1.0),
          (0.5, 0.5, 1.0, 1.0)], [0.5, 0.9, 0.5]),
        # a terminating series, z = 0 in the batch
        ([(-3.0, 0.5, 1.5, 1.0), (0.3, 1.2, 0.8, 1.0)],
         np.array([0.3, -0.7, 0.0])),
        # a = 0: the row stops on its first testable term, n = 5 at
        # |z| = 0.9, while the others run on
        ([(0.3, 1.2, 0.8, 1.0), (0.0, 0.5, 1.5, 1.0), (a, b, c, 2.0)], z),
        # parameters broadcast against z and each other
        ([(0.5, np.array([[0.2], [0.4]]), 1.0, 1.0),
          (np.array([[0.7], [0.9]]), 0.3, 1.4, 1.0)], np.array([0.2, -0.4j])),
        # 0-d and empty z
        ([(0.4, 1.1, 0.9, 1.0), (1.4, 2.1, 1.9, 2.0)], 0.3),
        ([(0.4, 1.1, 0.9, 1.0), (1.4, 2.1, 1.9, 2.0)], np.array([]))]


def _same_bits(got, want):
    return (got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
            and got[0].tobytes() == want[0].tobytes() and got[1] == want[1])


@pytest.mark.parametrize("rtol", [1e-14, 1e-16])
def test_hyp_series_matches_the_one_term_loop(rtol):
    # every row of a stacked call has the bits of its own one-term loop
    for rows, z in _hyp_cases():
        got = special_module._hyp_series(rows, z, rtol)
        assert len(got) == len(rows)
        for row, value in zip(rows, got):
            assert _same_bits(value,
                              oracles.hyp_series_term_loop(*row, z, rtol))


@pytest.mark.parametrize("max_terms", [50, 77])
def test_hyp_series_runs_out_of_terms_where_the_one_term_loop_did(
        monkeypatch, max_terms):
    # the cap is not a multiple of the block, so the last block is short;
    # the second sum never gets a majorant below 1
    monkeypatch.setattr(special_module, "_HYP_MAX_TERMS", max_terms)
    for case in [(np.array([0.5, 6.0]), 0.5, 1.0, 1.0, 0.9),
                 (0.5, 0.5, 1.0, 1.0, np.array([0.999, 0.5j]))]:
        with pytest.raises(PrecisionLossError) as got:
            special_module._hyp_series([case[:4]], case[4])
        with pytest.raises(PrecisionLossError) as want:
            oracles.hyp_series_term_loop(*case, max_terms=max_terms)
        assert got.value.achieved == want.value.achieved
    # a stack reports the first row in row order that is left: here the
    # second, after the a = 0 row has stopped, and then the first of two
    stacks = [([(0.0, 0.5, 1.0, 1.0), (np.array([0.5, 6.0]), 0.5, 1.0, 1.0)],
               0.9, 1),
              ([(0.5, 0.5, 1.0, 1.0), (0.5, 1.5, 1.0, 1.0)],
               np.array([0.999, 0.5j]), 0),
              ([(np.array([0.5, 6.0]), 0.5, 1.0, 1.0), (0.5, 0.5, 1.0, 1.0)],
               0.9, 0)]
    for rows, z, first in stacks:
        with pytest.raises(PrecisionLossError) as got:
            special_module._hyp_series(rows, z)
        with pytest.raises(PrecisionLossError) as want:
            oracles.hyp_series_term_loop(*rows[first], z, max_terms=max_terms)
        assert got.value.achieved == want.value.achieved


@pytest.mark.parametrize("z", [0.3, np.array([0.3, -0.5]), 0.3 + 0.1j])
def test_a_stacked_row_that_is_not_finite_raises_what_it_raises_alone(z):
    # the 1e300 row overflows in its first block, while the row before it
    # is still summing (it needs more than one block) and the row after
    # it has stopped (on its first term)
    rows = [(5.0, 1.1, 0.9, 1.0), (1e300, 0.5, 1.0, 1.0),
            (0.0, 0.5, 1.0, 1.0)]
    with pytest.raises(PrecisionLossError, match="did not converge"):
        oracles.hyp_series_term_loop(*rows[0], z, max_terms=32)
    oracles.hyp_series_term_loop(*rows[2], z, max_terms=1)
    with pytest.raises(PrecisionLossError) as alone:
        special_module._hyp_series(rows[1:2], z)
    with pytest.raises(PrecisionLossError) as stacked:
        special_module._hyp_series(rows, z)
    assert str(stacked.value) == str(alone.value)
    assert f"by term {special_module._TERM_BLOCK} " in str(stacked.value)
    assert stacked.value.achieved == alone.value.achieved == math.inf


def test_identity_suite_and_hyp_chain_sum_one_loop_each(monkeypatch):
    # the identity sweep's four series are one loop and the Ramanujan
    # residual's sextic values another, where they were five; a hyp
    # chain's F and F(c+) are one loop, where they were two
    from mzl import verify
    from mzl.pfaffian import build_hypergeometric_chain
    calls = []
    series = special_module._hyp_series

    def counted(rows, z, *rest):
        calls.append(len(rows))
        return series(rows, z, *rest)

    monkeypatch.setattr(special_module, "_hyp_series", counted)
    verify.identity_suite(np.random.default_rng(0))
    assert calls == [4, 1]
    calls.clear()
    build_hypergeometric_chain(0.3, 1.2, 0.8).member_values(
        np.linspace(0.05, 0.95, 11))
    assert calls == [2]


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_sextic_connection_matches_the_one_term_loop(c):
    rng = np.random.default_rng(4)
    for x in (np.linspace(1e-12, 0.5 - 1e-12, 1000)[::-1],
              rng.uniform(1e-12, 0.5, 37), np.array([0.004338825405902913]),
              np.array([0.5 - 1e-12, 1e-9])):
        assert _same_bits(special_module._sextic_connection(c, x),
                          oracles.sextic_connection_term_loop(c, x))


# ---------------------------------------------------------------------------
# the sextic pair F(s), F(1 - s)


# s = 1 - w for w from just above 1/2 to 1 - 1e-9, the edge s = 1/2, and 0.3
_SEXTIC_SS = [1.0 - w for w in (0.5 + 1e-12, 0.6, 0.9, 0.99,
                                0.9956611745940971, 1.0 - 1e-9)] + [0.5, 0.3]


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_sextic_pair_matches_mpmath(c):
    # F(s) and F(1 - s), 1 - s taken exactly, are each within the largest
    # tail bound plus a rounding allowance of 16 u |F|: every summand
    # carries a few roundings from its recurrences, and the summands of
    # both series fall at least like s^n <= 2^-n
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    a, b = mpmath.mpf(1) / 6, mpmath.mpf(5) / 6
    [(near_batch, far_batch, batch_bound)] = special_module._sextic_pairs(
        (c,), np.array(_SEXTIC_SS))
    with mpmath.workdps(40):
        for i, s in enumerate(_SEXTIC_SS):
            [(near, far, bound)] = special_module._sextic_pairs((c,), s)
            assert isinstance(near, float) and isinstance(far, float)
            for v, batch, w in ((near, near_batch[i], mpmath.mpf(s)),
                                (far, far_batch[i], 1 - mpmath.mpf(s))):
                want = mpmath.hyp2f1(a, b, int(c), w)
                assert abs(v - want) <= bound + 16 * u * abs(want)
                assert abs(batch - want) <= batch_bound + 16 * u * abs(want)
    for s in (0.0, 0.6, math.nan):
        with pytest.raises(DomainError):
            special_module._sextic_pairs((c,), s)
        with pytest.raises(DomainError):
            special_module._sextic_pairs((c,), np.array([0.3, s]))


def test_sextic_values_above_one_half_skip_the_gauss_series(monkeypatch):
    # j_inverse, the Ramanujan residual and the ratio chain sum the Gauss
    # series only for w <= 1/2; above it they use the connection series
    series = special_module._hyp_series

    def inner_series(rows, z, *rest):
        if np.any(np.abs(z) > 0.5):
            raise AssertionError("Gauss series summed at |z| > 1/2")
        return series(rows, z, *rest)

    monkeypatch.setattr(special_module, "_hyp_series", inner_series)
    assert abs(j_inverse(1e5) - 1.831147273297785) < 1e-12
    assert ramanujan_inversion_residual(0.95) < 1e-12
    xs, stencils = _member_stencils(build_ratio_chain(), 200)
    assert len(stencils) == 9 and np.all(np.isfinite(stencils))


# ---------------------------------------------------------------------------
# Eisenstein series and the discriminant


def test_eisenstein_constant_terms():
    s = standard_series()
    assert s["Q"].eval(0.0) == 1.0
    assert s["R"].eval(0.0) == 1.0


def test_discriminant_matches_eta_product():
    # (Q^3 - R^2)/1728 = q prod (1 - q^n)^24, eta-product oracle
    s = standard_series()
    q = math.exp(-2.0 * math.pi)
    lhs = (s["Q"].eval(q) ** 3 - s["R"].eval(q) ** 2) / 1728.0
    eta24 = oracles.eisenstein_eval(oracles.delta_product_over_q(80), q)
    assert abs(lhs - q * eta24) < 1e-10 * abs(q * eta24)


def test_R_vanishes_at_q_exp_minus_2pi():
    # weight-6 series has a zero forced by j(i) = 1728
    assert abs(standard_series()["R"].eval(math.exp(-2.0 * math.pi))) < 1e-10


# ---------------------------------------------------------------------------
# Klein j


def test_klein_j_special_values():
    assert abs(klein_j(1j) - 1728.0) < 1e-6
    assert abs(klein_j(2j) - 287496.0) < 1e-3
    rho = complex(-0.5, math.sqrt(3.0) / 2.0)
    assert abs(klein_j(rho)) < 1e-6


def test_klein_j_matches_eta_oracle(rng):
    for _ in range(10):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
        ref = oracles.j_eval_eta(tau)
        assert abs(klein_j(tau) - ref) < 1e-9 * (1.0 + abs(ref))


def test_klein_j_requires_upper_strip():
    with pytest.raises(DomainError):
        klein_j(0.1 + 0.3j)


def test_j_real_on_imaginary_axis():
    t = np.linspace(1.0, 4.0, 40)
    vals = klein_j(1j * t)
    assert np.abs(vals.imag).max() < 1e-9


def test_J_strictly_increasing():
    t = np.linspace(1.0, 4.0, 100)
    vals = klein_j(1j * t).real
    assert np.all(np.diff(vals) > 0)


def test_klein_j_derivative_critical_points():
    assert abs(klein_j_derivative(1j)) < 1e-4
    rho = complex(-0.5, math.sqrt(3.0) / 2.0)
    assert abs(klein_j_derivative(rho)) < 1e-4


def test_klein_j_derivative_central_difference(rng):
    for _ in range(12):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 2.0))
        fd = oracles.central_difference(klein_j, tau)
        got = klein_j_derivative(tau)
        assert abs(got - fd) < 1e-6 * (1.0 + abs(got))


def test_klein_j_derivative_vanishes_to_rounding_at_i_and_rho():
    # j' = -2 pi i Q^2 R / Delta with R(i) = 0 and Q(rho) = 0: at i the
    # rounding of R is scaled by 2 pi |Q^2/Delta| (about 7.5e3), at rho
    # the rounding of Q enters squared
    assert abs(klein_j_derivative(1j)) < 1e-10
    rho = complex(-0.5, math.sqrt(3.0) / 2.0)
    assert abs(klein_j_derivative(rho)) < 1e-20
    assert abs(klein_j_derivative(rho + 1.0)) < 1e-20


def test_klein_j_pair_matches_mpmath(rng):
    mpmath = pytest.importorskip("mpmath")
    rho = complex(-0.5, math.sqrt(3.0) / 2.0)
    taus = np.concatenate([[1j, rho], _domain_points(rng, 38)])
    vals, ders = klein_j_pair(taus)

    def j(t):
        return 1728 * mpmath.kleinj(t)

    # at rho, j and j' are rounding-level, and so are the floors
    with mpmath.workdps(30):
        for tau, v, d in zip(taus, vals, ders):
            t = mpmath.mpc(tau.real, tau.imag)
            ref, dref = complex(j(t)), complex(mpmath.diff(j, t))
            assert abs(v - ref) <= 1e-13 * abs(ref) + 1e-30
            assert abs(d - dref) <= 1e-13 * (abs(dref) + 2.0 * math.pi
                                             * abs(ref)) + 1e-20


def _domain_points(rng, n, im_max=3.0):
    """n points of the fundamental domain |Re tau| <= 1/2, |tau| >= 1,
    with Im tau <= im_max."""
    out = []
    while len(out) < n:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, im_max))
        if abs(tau) >= 1.0:
            out.append(tau)
    return np.array(out)


@pytest.mark.parametrize("im", [0.5, 0.6, math.sqrt(3.0) / 2.0, 1.0, 2.5,
                                6.0])
def test_klein_j_matches_fixed_order_horner(im):
    taus = np.linspace(-0.5, 0.5, 21) + 1j * im
    ref, scale = oracles.j_horner_fixed_order(taus)
    assert np.all(np.abs(klein_j(taus) - ref) <= 1e-13 * scale)
    for tau, r, sc in zip(taus, ref, scale):
        assert abs(klein_j(tau) - r) <= 1e-13 * sc


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1025])
def test_klein_j_batch_matches_per_point(rng, n):
    taus = _domain_points(rng, n)
    _, scale = oracles.j_horner_fixed_order(taus)
    single = np.array([klein_j(t) for t in taus])
    assert np.all(np.abs(klein_j(taus) - single) <= 1e-14 * scale)


def test_klein_j_matches_mpmath_kleinj(rng):
    mpmath = pytest.importorskip("mpmath")
    rho = complex(-0.5, math.sqrt(3.0) / 2.0)
    taus = [t for t in _domain_points(rng, 60, im_max=4.0)
            if min(abs(t - rho), abs(t - rho - 1.0)) > 0.1]
    with mpmath.workdps(30):
        for tau in taus:
            ref = complex(1728 * mpmath.kleinj(mpmath.mpc(tau.real,
                                                           tau.imag)))
            assert abs(klein_j(tau) - ref) <= 1e-12 * abs(ref)


def test_klein_j_bound_covers_the_error(rng):
    # klein_j_error_bound, from |j| and tau alone, covers the error of j
    # on a batch and on each point alone, as mzl eval j calls it
    taus = np.concatenate([[1j, 2j], _domain_points(rng, 20),
                           _domain_points(rng, 20, im_max=4.0)])
    vals, _ = klein_j_pair(taus)
    bounds = klein_j_error_bound(taus, vals)
    assert np.all(bounds > 0.0)
    for tau, v, b in zip(taus, vals, bounds):
        ref = oracles.j_eval_eta(tau)
        assert abs(v - ref) <= b
        v1 = klein_j_pair(tau)[0]
        b1 = klein_j_error_bound(tau, v1)
        assert v1 == klein_j(tau)
        assert 0.0 < b1 and abs(v1 - ref) <= b1
    assert abs(vals[0] - 1728.0) <= bounds[0]
    assert abs(vals[1] - 287496.0) <= bounds[1]


def test_klein_j_bound_covers_the_error_next_to_rho(rng):
    # where Q vanishes the bound falls to 1e-18 and below, under the
    # eta oracle's own rounding (1e-13), so mpmath at 80 digits checks it
    mpmath = pytest.importorskip("mpmath")
    rho = complex(-0.5, math.sqrt(3.0) / 2.0)
    taus = np.concatenate([[rho, rho + 1e-9j],
                           rho + 1e-4 * np.exp(1j * rng.uniform(0.0, 3.0,
                                                                10))])
    vals, _ = klein_j_pair(taus)
    bounds = klein_j_error_bound(taus, vals)
    with mpmath.workdps(80):
        for tau, v, b in zip(taus, vals, bounds):
            ref = 1728 * mpmath.kleinj(mpmath.mpc(tau.real, tau.imag))
            v1 = klein_j_pair(tau)[0]
            for value, bound in ((v, b), (v1, klein_j_error_bound(tau, v1))):
                err = abs(mpmath.mpc(value.real, value.imag) - ref)
                assert 0.0 < bound and err <= bound


# ---------------------------------------------------------------------------
# inverse of J(t) = j(it)


def test_j_inverse_fixed_point_exact():
    assert j_inverse(1728.0) == 1.0


def test_j_inverse_at_j_of_2i():
    assert abs(j_inverse(287496.0) - 2.0) < 1e-6


def test_j_inverse_roundtrip():
    for x in (2000.0, 1e4, 1e5):
        t = j_inverse(x)
        assert abs(klein_j(1j * t) - x) < 1e-7 * x


def test_j_inverse_domain_error():
    for x in (1500.0, math.nan, -math.inf):
        with pytest.raises(DomainError) as err:
            j_inverse(x)
        assert str(err.value) == f"j_inverse requires x >= 1728, got {x}"


def test_j_inverse_large_x_takes_the_same_route():
    # above 1e6 the sextic ratio still holds its digits: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = j_inverse(1e7)
    assert abs(klein_j(1j * t) - 1e7) < 1e-6 * 1e7


def test_j_inverse_above_j_of_100i():
    # J(100) = j(100 i) is the largest x whose inverse lies where j is
    # evaluated; the ratio there, 2 ulps above 100, is clamped to 100, and
    # above it the error names x and that limit
    top = klein_j(100j).real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(j_inverse(1e271) - 99.31277364816246) < 1e-12
        assert j_inverse(top) == 100.0
        for x in (1e300, math.inf):
            with pytest.raises(DomainError) as err:
                j_inverse(x)
            assert str(err.value) == (f"j_inverse requires x <= {top!r} = "
                                      f"j(100i), got {x}")


def test_j_inverse_matches_mpmath():
    # within 8 ulps of t on a log-uniform grid over [1729, J(100)], and
    # with no warning; the reference is the root of log J(t) = log x,
    # which, unlike 1 - 1728/x at a fixed precision, keeps its digits at
    # every x
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    top = klein_j(100j).real
    xs = np.exp(rng.uniform(math.log(1729.0), math.log(top), 40))
    with warnings.catch_warnings(), mpmath.workdps(40):
        warnings.simplefilter("error")
        for x in [1729.0, 1e6, 2e6, 1e7, 1e271, *xs]:
            lx = mpmath.log(x)
            want = float(mpmath.findroot(
                lambda t: mpmath.log(1728 * mpmath.re(mpmath.kleinj(1j * t)))
                - lx, lx / (2 * mpmath.pi)))
            assert abs(j_inverse(x) - want) <= 8 * math.ulp(want), x


# ---------------------------------------------------------------------------
# Ramanujan inversion


def test_ramanujan_residual_at_half():
    assert ramanujan_inversion_residual(0.5) < 1e-9
    # at x = 1/2 the hypergeometric ratio is 1, so q = e^{-2 pi}
    F = hyp2f1(1.0 / 6.0, 5.0 / 6.0, 1.0, 0.5)
    q = math.exp(-2.0 * math.pi * (F / F).real)
    assert abs(q - math.exp(-2.0 * math.pi)) < 1e-15


def test_ramanujan_residual_generic_points():
    assert ramanujan_inversion_residual(0.1) < 1e-8
    for x in (0.2, 0.35, 0.65):
        assert abs(ramanujan_inversion_residual(x)
                   - ramanujan_inversion_residual(1.0 - x)) < 1e-9
    xs = np.linspace(0.05, 0.95, 20)
    batch = ramanujan_inversion_residual(xs)
    assert batch.shape == xs.shape and batch.max() < 1e-8
    assert np.allclose(batch, [ramanujan_inversion_residual(x) for x in xs],
                       rtol=0.0, atol=1e-14)
