"""Integer q-expansion tables and their tail bounds.

The oracle rebuilds everything by a different route: trial-division
divisor sums, the pentagonal-number eta product for the discriminant,
and series division against that product.  Table agreement is exact
integer equality, not approximate.
"""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from mzl.qseries import (DEFAULT_ORDER, integer_tables, power_basis_product,
                         series_inverse, series_mul, standard_series)


def test_tables_match_eta_route_oracle():
    q_c, r_c, d_c, j_c = integer_tables(DEFAULT_ORDER)
    qo, ro = oracles.eisenstein_tables(DEFAULT_ORDER)
    assert q_c == qo
    assert r_c == ro
    # Delta from (Q^3 - R^2)/1728 vs Delta from the eta product: identical
    assert d_c == oracles.delta_product_over_q(DEFAULT_ORDER)
    # j at higher oracle truncation agrees on every shared coefficient
    assert j_c == oracles.j_table_eta(90)[: DEFAULT_ORDER + 1]


def test_known_leading_coefficients():
    q_c, r_c, d_c, j_c = integer_tables(8)
    assert q_c[:4] == [1, 240, 2160, 6720]
    assert r_c[:4] == [1, -504, -16632, -122976]
    assert d_c[:3] == [1, -24, 252]
    assert j_c[:4] == [1, 744, 196884, 21493760]


def test_series_mul_and_inverse_roundtrip(rng):
    a = [1] + [int(v) for v in rng.integers(-9, 10, 12)]
    inv = series_inverse(a, 12)
    assert series_mul(a, inv, 12) == [1] + [0] * 12


def test_series_inverse_requires_unit_lead():
    with pytest.raises(ValueError):
        series_inverse([2, 1], 4)


def test_tail_bounds_are_honest(rng):
    lo = standard_series(36)
    hi = standard_series(72)
    for name in ("Q", "R", "delta_over_q", "j"):
        s_lo, s_hi = lo[name], hi[name]
        for _ in range(25):
            r = 0.9 * s_lo.radius * rng.uniform(0.1, 1.0)
            q = r * np.exp(2j * np.pi * rng.uniform())
            v_lo = s_lo.eval(q)
            bound = s_lo.tail_bound(r, s_lo.order(r))
            v_hi = s_hi.eval(q)
            # bound covers the mathematical tail; allow summation roundoff
            assert abs(v_lo - v_hi) <= bound + 1e-13 * (1.0 + abs(v_hi))


def test_qseries_eval_matches_direct_sum():
    s = standard_series(24)["Q"]
    q = 0.01 + 0.003j
    direct = sum(c * q**n for n, c in enumerate(s.coefficients))
    assert abs(s.eval(q) - direct) < 1e-12 * abs(direct)


def test_j_series_negative_leading_power():
    s = standard_series(24)["j"]
    assert s.n0 == -1
    q = 1e-5
    lead = 1.0 / q
    assert abs(s.eval(q) - lead - 744.0) < 2.5  # next term is 196884 q


def test_majorants_cover_every_coefficient():
    for name, s in standard_series(DEFAULT_ORDER).items():
        majorant, growth = np.array(s.majorant), np.array(s.growth)
        assert np.all(np.abs(s.coefficients[1:]) <= majorant[1:-1]), name
        # the growth bound at k covers every later consecutive ratio
        ratio = majorant[2:] / majorant[1:-1]
        later = np.maximum.accumulate(ratio[::-1])[::-1]
        assert np.all(later <= growth[1:-1] * (1.0 + 1e-15)), name


def test_truncation_order_follows_the_tail_bound():
    s = standard_series()
    orders = {}
    for im in (0.5, np.sqrt(3.0) / 2.0, 2.0):
        x = float(np.exp(-2.0 * np.pi * im))
        orders[im] = max(s["Q"].order(x), s["delta_over_q"].order(x))
        for series in (s["Q"], s["delta_over_q"]):
            N = series.order(x)
            scale = 2.0**-53 * np.cumsum(np.abs(series.coefficients)
                                         * x ** np.arange(DEFAULT_ORDER + 1))
            assert series.tail_bound(x, N) <= scale[N]
            if N > 0:  # the smallest such order
                assert series.tail_bound(x, N - 1) > scale[N - 1]
    assert list(orders.values()) == [17, 9, 3]
    assert s["Q"].order(0.9) == DEFAULT_ORDER  # no order is enough


@pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 600])
def test_power_basis_product_matches_horner(rng, n):
    x = 0.3 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    for K in (1, 2, 9, 64, 73):
        C = rng.normal(size=(K, 3))
        got = power_basis_product(x, C)
        assert got.shape == (3, n)
        for i in range(3):
            want = np.polynomial.polynomial.polyval(x, C[:, i])
            scale = np.polynomial.polynomial.polyval(np.abs(x),
                                                     np.abs(C[:, i]))
            assert np.all(np.abs(got[i] - want) <= 1e-14 * scale)
