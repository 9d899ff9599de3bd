"""Winding numbers, zero localization, and boundary-integral bounds."""
from __future__ import annotations

import numpy as np
import pytest

from mzl.contour import (ArcSegment, Contour, LineSegment, circle_contour,
                         crossing_bound_check, dominant_term_bound,
                         localize_zeros, log_derivative_integral,
                         rectangle_contour, trace_table, winding_number)
from mzl.errors import DominanceError, InvalidSpecError, ZeroOnContourError
from mzl.poly import AnalyticFunction
from mzl.special import klein_j, klein_j_derivative

ZERO_FN = AnalyticFunction(lambda z: (np.zeros(np.shape(z), dtype=complex),
                                      np.zeros(np.shape(z), dtype=complex)))


# ---------------------------------------------------------------------------
# contour construction


def test_segment_validation():
    with pytest.raises(InvalidSpecError):
        LineSegment(1.0 + 1j, 1.0 + 1j)
    with pytest.raises(InvalidSpecError):
        ArcSegment(0.0, -1.0, 0.0, 1.0)
    with pytest.raises(InvalidSpecError):
        ArcSegment(0.0, 1.0, 0.7, 0.7)


def test_contour_requires_matching_endpoints():
    with pytest.raises(InvalidSpecError):
        Contour([LineSegment(0.0, 1.0), LineSegment(2.0, 3.0)])


def test_contour_closed_flag_and_length():
    box = rectangle_contour(0.0, 2.0, 0.0, 1.0)
    assert box.closed
    assert box.length == pytest.approx(6.0)
    circ = circle_contour(1j, 0.5)
    assert circ.closed
    assert circ.length == pytest.approx(np.pi)
    open_path = Contour([LineSegment(0.0, 1.0), LineSegment(1.0, 1.0 + 1j)])
    assert not open_path.closed


def test_arc_orientation_sign():
    fwd = ArcSegment(0.0, 1.0, 0.0, np.pi)
    assert fwd.start == pytest.approx(1.0)
    assert fwd.end == pytest.approx(-1.0)
    assert fwd.length == pytest.approx(np.pi)


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_simple_zero():
    res = winding_number(lambda z: z, circle_contour(0.0, 1.0))
    assert res.winding == 1
    assert res.min_modulus == pytest.approx(1.0, rel=1e-9)
    assert res.total_variation == pytest.approx(2.0 * np.pi, rel=1e-6)


def test_winding_with_multiplicity():
    f = lambda z: (z - 0.2) ** 2 * (z + 0.4)
    assert winding_number(f, circle_contour(0.0, 1.0)).winding == 3
    assert winding_number(f, rectangle_contour(-1, 1, -1, 1)).winding == 3


def test_winding_zero_free():
    assert winding_number(np.exp, rectangle_contour(-1, 1, -1, 1)).winding == 0


def test_winding_requires_closed_contour():
    with pytest.raises(InvalidSpecError):
        winding_number(lambda z: z, Contour([LineSegment(0.0, 1.0)]))


def test_winding_zero_on_contour():
    with pytest.raises(ZeroOnContourError):
        winding_number(lambda z: z - 1j, rectangle_contour(-1, 1, -1, 1))


def test_winding_additive_over_quadrants():
    roots = [0.3 + 0.4j, -0.5 + 0.2j, 0.6 - 0.35j]
    f = lambda z: np.prod([z - r for r in roots], axis=0)
    total = winding_number(f, rectangle_contour(-1, 1, -1, 1)).winding
    parts = sum(winding_number(f, rectangle_contour(*q)).winding
                for q in [(-1, 0, -1, 0), (0, 1, -1, 0),
                          (-1, 0, 0, 1), (0, 1, 0, 1)])
    assert total == 3
    assert parts == total


def test_winding_parameterization_invariance():
    f = lambda z: (z - 0.1j) * (z + 0.3)
    one_arc = circle_contour(0.0, 0.8)
    two_arcs = Contour([ArcSegment(0.0, 0.8, 0.0, np.pi),
                        ArcSegment(0.0, 0.8, np.pi, 2.0 * np.pi)])
    assert winding_number(f, one_arc).winding == 2
    assert winding_number(f, two_arcs).winding == 2


def test_log_derivative_integral_matches_winding():
    f = lambda z: (z - 0.4) * (z + 0.1 + 0.2j)
    v = log_derivative_integral(f, circle_contour(0.0, 1.0))
    assert abs(v.real) < 1e-6          # closed contour: |f| returns to start
    assert v.imag == pytest.approx(4.0 * np.pi, rel=1e-6)


# ---------------------------------------------------------------------------
# zero localization


def test_localize_two_simple_zeros():
    zeros = localize_zeros(lambda z: z * z - 1.0, (-2.0, 2.0, -2.0, 2.0))
    assert len(zeros) == 2
    assert all(z.multiplicity == 1 and z.resolved for z in zeros)
    centers = sorted(z.center.real for z in zeros)
    assert abs(centers[0] + 1.0) < 1e-7
    assert abs(centers[1] - 1.0) < 1e-7
    assert all(abs(z.center.imag) < 1e-7 for z in zeros)


def test_localize_double_zero_keeps_multiplicity():
    f = lambda z: (z - 0.25 - 0.25j) ** 2
    zeros = localize_zeros(f, (-1.0, 1.0, -1.0, 1.0))
    assert len(zeros) == 1
    assert zeros[0].multiplicity == 2
    assert abs(zeros[0].center - (0.25 + 0.25j)) < 1e-7


def test_localize_j_critical_point():
    f = lambda z: klein_j(z) - 1728.0
    zeros = localize_zeros(f, (-0.2, 0.2, 0.8, 1.2), target_radius=1e-7)
    assert len(zeros) == 1
    assert zeros[0].multiplicity == 2  # j - 1728 has a double zero at i
    assert abs(zeros[0].center - 1j) < 1e-6
    small = winding_number(f, circle_contour(1j, 0.05))
    assert small.winding == 2


def test_localize_empty_box():
    assert localize_zeros(lambda z: z - 5.0, (-1.0, 1.0, -1.0, 1.0)) == []


def test_localize_pair_hugging_edge():
    # two zeros 1e-3 and 5e-3 from the left edge, spaced so their combined
    # 2 pi of phase falls between adjacent coarse samples; a phase step
    # test alone misses the pair entirely
    z1 = 0.001 + 0.031j
    z2 = 0.005 + 0.041j
    f = lambda z: (z - z1) * (z - z2)
    box = (0.0, 1.0, -0.5, 0.5)
    dense = winding_number(f, rectangle_contour(*box), n_initial=257)
    assert dense.winding == 2
    zeros = localize_zeros(f, box, target_radius=1e-6)
    assert sum(z.multiplicity for z in zeros) == 2
    got = sorted((z.center for z in zeros), key=lambda c: c.imag)
    assert abs(got[0] - z1) < 1e-5
    assert abs(got[1] - z2) < 1e-5


def test_winding_sees_zeros_hugging_an_edge():
    # default sampling: the |dz| |f'/f| step bound refines next to zeros
    # that a phase step test alone lets turn a full 2 pi between samples
    z1 = 0.001 + 0.031j
    z2 = 0.005 + 0.041j
    pair = lambda z: (z - z1) * (z - z2)
    assert winding_number(pair, rectangle_contour(0, 1, -0.5, 0.5)).winding \
        == 2
    a, b, c = 0.3 + 5e-4j, 0.31 + 7e-4j, 0.62 - 4e-4j
    triple = lambda z: (z - a) * (z - b) * (z - c)
    assert winding_number(triple, rectangle_contour(0, 1, 0, 1)).winding == 2


def test_pair_callable_is_called_once_per_round_at_the_samples(monkeypatch):
    # an f that returns (f, f') is evaluated only at the points the
    # refinement asks for: one call per round, no z +- h
    asked, got = [], []
    point = Contour.point

    def recording_point(self, t):
        z = point(self, t)
        asked.append(z)
        return z

    monkeypatch.setattr(Contour, "point", recording_point)
    co = np.poly([0.001 + 0.031j, 0.005 + 0.041j, 0.4 - 0.3j])
    dco = np.polyder(co)

    def pair(z):
        got.append(np.array(z))
        return np.polyval(co, z), np.polyval(dco, z)

    res = winding_number(pair, rectangle_contour(0, 1, -0.5, 0.5))
    assert res.winding == 3
    assert len(got) == len(asked) > 1
    assert all(np.array_equal(a, g) for a, g in zip(asked, got))
    assert sum(g.size for g in got) == res.samples_used
    asked.clear()
    got.clear()
    zeros = localize_zeros(pair, (0.0, 1.0, -0.5, 0.5), target_radius=1e-3)
    assert sum(z.multiplicity for z in zeros) == 3
    assert len(got) == len(asked) > 4
    assert all(np.array_equal(a, g) for a, g in zip(asked, got))


def test_localize_random_polynomials(rng):
    box = (-1.0, 1.0, -1.0, 1.0)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        roots = (rng.uniform(-1.6, 1.6, n) + 1j * rng.uniform(-1.6, 1.6, n))
        # keep roots away from the boundary and the first quadtree cuts
        roots = roots[(np.abs(np.abs(roots.real) - 1.0) > 0.05)
                      & (np.abs(np.abs(roots.imag) - 1.0) > 0.05)
                      & (np.abs(roots.real) > 0.02)
                      & (np.abs(roots.imag) > 0.02)]
        if roots.size == 0:
            continue
        coeffs = np.poly(roots)
        f = lambda z: np.polyval(coeffs, z)
        inside = int(np.sum((np.abs(roots.real) < 1.0)
                            & (np.abs(roots.imag) < 1.0)))
        zeros = localize_zeros(f, box, target_radius=1e-6)
        assert sum(z.multiplicity for z in zeros) == inside
        got = sorted((z.center for z in zeros if z.resolved),
                     key=lambda c: (c.real, c.imag))
        want = sorted((r for r in roots
                       if abs(r.real) < 1.0 and abs(r.imag) < 1.0),
                      key=lambda c: (c.real, c.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-5


# ---------------------------------------------------------------------------
# dominance bound


def _exp_pair(l):
    f = AnalyticFunction(lambda z: (
        np.exp(-2j * np.pi * l * z),
        -2j * np.pi * l * np.exp(-2j * np.pi * l * z)))
    g = AnalyticFunction(lambda z: (
        klein_j(z) ** l - np.exp(-2j * np.pi * l * z),
        l * klein_j(z) ** (l - 1) * klein_j_derivative(z)
        + 2j * np.pi * l * np.exp(-2j * np.pi * l * z)))
    return f, g


def test_dominant_term_bound_zero_remainder():
    f = AnalyticFunction(lambda z: (z, np.ones(np.shape(z))))
    contour = circle_contour(0.0, 1.0)
    bound = dominant_term_bound(f, ZERO_FN, contour, 2.0)
    direct = abs(log_derivative_integral(f, contour))
    assert bound == pytest.approx(direct, rel=1e-12)


def test_dominance_precondition_enforced():
    f = AnalyticFunction(lambda z: (z, np.ones(np.shape(z))))
    g = AnalyticFunction(lambda z: (np.ones(np.shape(z), dtype=complex),
                                    np.zeros(np.shape(z), dtype=complex)))
    with pytest.raises(DominanceError):
        dominant_term_bound(f, g, circle_contour(0.0, 0.5), 2.0)
    with pytest.raises(InvalidSpecError):
        dominant_term_bound(f, g, circle_contour(0.0, 0.5), 1.0)


def test_dominant_term_bound_on_top_line():
    # along Im z = 3 the leading exponential of j^l dominates the rest of
    # the expansion, so the boundary integral stays within 0.01 of 2 pi l
    top = Contour([LineSegment(0.5 + 3j, -0.5 + 3j)])
    expected = {1: 6.28324619, 2: 12.56673594, 3: 18.85046923}
    for l in (1, 2, 3):
        f, g = _exp_pair(l)
        bound = dominant_term_bound(f, g, top, 2.0)
        assert bound <= 2.0 * np.pi * l + 0.01
        assert bound == pytest.approx(expected[l], abs=1e-5)


def test_dominant_term_bound_open_arc_pole_ladder():
    # quarter circle around a pole of order |k|: bound/2pi falls to |k|/4
    a0, p = 1.7 - 0.4j, 0.3 + 0.2j
    g = AnalyticFunction(lambda z: (0.9 + 0.35 * (z - p) ** 2,
                                    0.7 * (z - p)))
    for k in (-2, -4, -6):
        f = AnalyticFunction(lambda z, k=k: (a0 * (z - p) ** k,
                                             a0 * k * (z - p) ** (k - 1)))
        prev = np.inf
        for delta in (0.2, 0.1, 0.05, 0.025):
            arc = Contour([ArcSegment(p, delta, 0.55, 0.55 + np.pi / 2)])
            over_2pi = dominant_term_bound(f, g, arc, 2.0) / (2.0 * np.pi)
            assert over_2pi <= abs(k) / 4.0 + 0.1
            assert over_2pi <= prev
            prev = over_2pi
        assert prev - abs(k) / 4.0 < 5e-4


# ---------------------------------------------------------------------------
# crossing counts


def test_crossing_counts_for_powers():
    for k in (1, 2, 3):
        rep = crossing_bound_check(lambda z, k=k: z ** k,
                                   circle_contour(0.0, 1.0))
        assert rep.im_crossings == 2 * k
        assert rep.re_crossings == 2 * k
        assert rep.winding_abs_over_2pi == pytest.approx(k, abs=1e-6)
        assert rep.lemma2_holds


def test_crossing_counts_constant():
    rep = crossing_bound_check(lambda z: np.full(np.shape(z), 2.0 + 1j),
                               circle_contour(0.0, 1.0))
    assert rep.im_crossings == 0
    assert rep.re_crossings == 0
    assert rep.winding_abs_over_2pi == pytest.approx(0.0, abs=1e-9)
    assert rep.lemma2_holds


def test_crossing_counts_random_polynomials(rng):
    for _ in range(5):
        n = int(rng.integers(1, 4))
        roots = rng.uniform(-1.6, 1.6, n) + 1j * rng.uniform(-1.6, 1.6, n)
        f = lambda z: np.polyval(np.poly(roots), z)
        rep = crossing_bound_check(f, circle_contour(0.0, 1.3))
        assert rep.lemma2_holds


def test_crossing_check_open_contour():
    rep = crossing_bound_check(lambda z: z - (0.5 + 0.2j),
                               Contour([LineSegment(0.0, 1.0)]))
    assert rep.im_crossings == 0   # Im f = -0.2 along the whole segment
    assert rep.re_crossings == 1


# ---------------------------------------------------------------------------
# tracing


def test_trace_table_shapes():
    t, z, v, arg = trace_table(lambda z: z, circle_contour(0.0, 1.0),
                               n_per_segment=128)
    assert t.shape == z.shape == v.shape == arg.shape == (129,)
    assert np.all(np.diff(t) > 0)
    assert arg[-1] - arg[0] == pytest.approx(2.0 * np.pi, abs=1e-3)
    assert np.allclose(np.abs(z), 1.0)
