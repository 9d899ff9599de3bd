"""Winding numbers, zero localization, and boundary-integral bounds."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import mzl.contour as contour_module
import oracles
from mzl.contour import (ArcSegment, Contour, LineSegment, circle_contour,
                         crossing_bound_check, dominant_term_bound,
                         localize_zeros, log_derivative_integral,
                         rectangle_contour, trace_table, winding_number)
from mzl.domains import (JDomainSpec, WpDomainSpec, build_j_contour,
                         build_wp_contour)
from mzl.elliptic import lattice, wp_analytic
from mzl.errors import (DominanceError, InvalidSpecError, MzlError,
                        NonconvergenceError, ZeroOnContourError)
from mzl.special import klein_j, klein_j_derivative, klein_j_pair

ZERO_FN = lambda z: (np.zeros(np.shape(z), dtype=complex),
                     np.zeros(np.shape(z), dtype=complex))


def identity(z):
    return z, np.ones(np.shape(z), dtype=complex)


def poly_pair(co):
    """The pair callable of the polynomial with coefficients co
    (highest first)."""
    dco = np.polyder(co)
    return lambda z: (np.polyval(co, z), np.polyval(dco, z))


def roots_pair(roots):
    """The pair callable of prod (z - r) over roots, in product form, so
    that a multiple root stays exact."""
    def pair(z):
        factors = [np.asarray(z, dtype=complex) - r for r in roots]
        one = np.ones_like(factors[0])
        deriv = sum(np.prod([one] + factors[:k] + factors[k + 1:], axis=0)
                    for k in range(len(factors)))
        return np.prod(factors, axis=0), deriv
    return pair


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


@pytest.mark.parametrize("contour", [
    build_j_contour(JDomainSpec()),
    build_j_contour(JDomainSpec(), eta=1e-3),
    build_wp_contour(WpDomainSpec(1.0)),
    build_wp_contour(WpDomainSpec(8.0, beta=0.37)),
    rectangle_contour(-0.3, 1.2, 0.1, 0.7),
    circle_contour(0.2 - 0.1j, 0.8),
], ids=["j", "j-eta", "wp-t1", "wp-t8-b0.37", "rectangle", "circle"])
def test_contour_point_matches_the_segments_bitwise(contour):
    nseg = len(contour.segments)
    rng = np.random.default_rng(7)
    t = np.concatenate([rng.uniform(0.0, nseg, 500),
                        np.arange(nseg + 1, dtype=float)])
    rng.shuffle(t)
    idx = np.clip(t.astype(int), 0, nseg - 1)
    want = np.empty(t.shape, dtype=complex)
    for i, seg in enumerate(contour.segments):
        want[idx == i] = seg.point(t[idx == i] - i)
    got = contour.point(t)
    assert got.dtype == complex and got.shape == t.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_simple_zero():
    res = winding_number(identity, circle_contour(0.0, 1.0))
    assert res.winding == 1
    assert res.min_modulus == pytest.approx(1.0, rel=1e-9)
    assert res.total_variation == pytest.approx(2.0 * np.pi, rel=1e-6)


def test_winding_with_multiplicity():
    f = roots_pair([0.2, 0.2, -0.4])
    assert winding_number(f, circle_contour(0.0, 1.0)).winding == 3
    assert winding_number(f, rectangle_contour(-1, 1, -1, 1)).winding == 3


def test_winding_zero_free():
    exp_pair = lambda z: (np.exp(z), np.exp(z))
    assert winding_number(exp_pair,
                          rectangle_contour(-1, 1, -1, 1)).winding == 0


def test_winding_requires_closed_contour():
    with pytest.raises(InvalidSpecError):
        winding_number(identity, Contour([LineSegment(0.0, 1.0)]))


def test_winding_zero_on_contour():
    with pytest.raises(ZeroOnContourError):
        winding_number(roots_pair([1j]), rectangle_contour(-1, 1, -1, 1))


def test_winding_rejects_a_plain_callable():
    # a round of two points would unpack a plain f's array of two values
    # as (f, f') without the type check
    with pytest.raises(TypeError):
        winding_number(lambda z: z, circle_contour(0.0, 1.0))
    with pytest.raises(TypeError):
        contour_module._pair(lambda z: z, np.array([0.5, 1.0j]))
    with pytest.raises(TypeError):
        localize_zeros(lambda z: z * z - 1.0, (-2.0, 2.0, -2.0, 2.0))


def test_winding_additive_over_quadrants():
    roots = [0.3 + 0.4j, -0.5 + 0.2j, 0.6 - 0.35j]
    f = roots_pair(roots)
    total = winding_number(f, rectangle_contour(-1, 1, -1, 1)).winding
    parts = sum(winding_number(f, rectangle_contour(*q)).winding
                for q in [(-1, 0, -1, 0), (0, 1, -1, 0),
                          (-1, 0, 0, 1), (0, 1, 0, 1)])
    assert total == 3
    assert parts == total


def test_winding_parameterization_invariance():
    f = roots_pair([0.1j, -0.3])
    one_arc = circle_contour(0.0, 0.8)
    two_arcs = Contour([ArcSegment(0.0, 0.8, 0.0, np.pi),
                        ArcSegment(0.0, 0.8, np.pi, 2.0 * np.pi)])
    assert winding_number(f, one_arc).winding == 2
    assert winding_number(f, two_arcs).winding == 2


def test_log_derivative_integral_matches_winding():
    f = roots_pair([0.4, -0.1 - 0.2j])
    v = log_derivative_integral(f, circle_contour(0.0, 1.0))
    assert abs(v.real) < 1e-6          # closed contour: |f| returns to start
    assert v.imag == pytest.approx(4.0 * np.pi, rel=1e-6)


# ---------------------------------------------------------------------------
# zero localization


def test_localize_two_simple_zeros():
    zeros = localize_zeros(lambda z: (z * z - 1.0, 2.0 * z),
                           (-2.0, 2.0, -2.0, 2.0))
    assert len(zeros) == 2
    assert all(z.multiplicity == 1 and z.resolved for z in zeros)
    assert all(z.box is None for z in zeros)   # Newton roots
    centers = sorted(z.center.real for z in zeros)
    assert abs(centers[0] + 1.0) < 1e-7
    assert abs(centers[1] - 1.0) < 1e-7
    assert all(abs(z.center.imag) < 1e-7 for z in zeros)


def test_localize_double_zero_keeps_multiplicity():
    f = roots_pair([0.25 + 0.25j, 0.25 + 0.25j])
    zeros = localize_zeros(f, (-1.0, 1.0, -1.0, 1.0))
    assert len(zeros) == 1
    assert zeros[0].multiplicity == 2
    assert abs(zeros[0].center - (0.25 + 0.25j)) < 1e-7


def test_localize_j_critical_point():
    def f(z):
        v, dv = klein_j_pair(z)
        return v - 1728.0, dv

    zeros = localize_zeros(f, (-0.2, 0.2, 0.8, 1.2), target_radius=1e-7)
    assert len(zeros) == 1
    assert zeros[0].multiplicity == 2  # j - 1728 has a double zero at i
    assert abs(zeros[0].center - 1j) < 1e-6
    small = winding_number(f, circle_contour(1j, 0.05))
    assert small.winding == 2


def test_localize_double_zero_of_j_within_its_newton_budget():
    # Newton converges only linearly to the double zero at i, so at each
    # level of the quadtree it runs until its step falls to 2^-10 of
    # target_radius; the report is the same box of multiplicity 2 as when
    # Newton ran to 4 ulps, in 62 f calls instead of 132
    calls = [0]

    def f(z):
        calls[0] += 1
        v, dv = klein_j_pair(z)
        return v - 1728.0, dv

    zeros = localize_zeros(f, (-0.2, 0.2, 0.8, 1.2), target_radius=1e-4)
    assert [(z.center, z.radius, z.multiplicity, z.resolved, z.box)
            for z in zeros] == [(
                complex(float.fromhex("0x1.b71758e219ad8p-18"),
                        float.fromhex("0x1.00006dc5d6388p+0")),
                float.fromhex("0x1.33968ad18f8afp-14"), 2, True,
                (-4.531249999999902e-05, 5.839843750000098e-05,
                 0.9999546874999999, 1.0000583984375))]
    assert calls[0] <= 70


def test_localize_j_triple_zero_at_rho():
    # the Newton runs from the moment seeds of a box around the triple
    # zero never give three distinct roots, so it is bisected down to
    # target_radius and keeps its multiplicity
    rho = complex(-0.5, np.sqrt(3.0) / 2.0)
    box = (rho.real - 0.2, rho.real + 0.2, rho.imag - 0.2, rho.imag + 0.2)
    zeros = localize_zeros(klein_j_pair, box, target_radius=1e-7)
    assert len(zeros) == 1
    assert zeros[0].multiplicity == 3
    assert abs(zeros[0].center - rho) < 1e-6
    # a box report carries its box, whose center and half-diagonal it is
    x0, x1, y0, y1 = zeros[0].box
    assert zeros[0].center == complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    assert zeros[0].radius == 0.5 * float(np.hypot(x1 - x0, y1 - y0))


def test_localize_empty_box():
    assert localize_zeros(roots_pair([5.0]), (-1.0, 1.0, -1.0, 1.0)) == []


def test_localize_raises_the_top_box_error():
    # a zero on the right edge of one box and a pole inside another fail
    # the top winding, before any quadrant is cut
    a, p = 1.0 - 0.5j, -0.5 + 0.5j

    def f(z):
        z = np.asarray(z, dtype=complex)
        return (z - a) / (z - p), (a - p) / (z - p) ** 2

    with pytest.raises(ZeroOnContourError):
        localize_zeros(f, (0.0, 1.0, -1.0, 0.0), target_radius=1e-6)
    with pytest.raises(MzlError, match="negative winding") as err:
        localize_zeros(f, (-1.0, 0.0, 0.0, 1.0), target_radius=1e-6)
    assert type(err.value) is MzlError


def test_localize_pair_hugging_edge(monkeypatch):
    # two zeros 1e-3 and 5e-3 from the left edge, spaced so their combined
    # 2 pi of phase falls between adjacent coarse samples; a phase step
    # test alone misses the pair entirely
    z1 = 0.001 + 0.031j
    z2 = 0.005 + 0.041j
    f = roots_pair([z1, z2])
    box = (0.0, 1.0, -0.5, 0.5)
    with monkeypatch.context() as m:
        m.setattr(contour_module, "_N_INITIAL", 257)
        dense = winding_number(f, rectangle_contour(*box))
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
    pair = roots_pair([z1, z2])
    assert winding_number(pair, rectangle_contour(0, 1, -0.5, 0.5)).winding \
        == 2
    a, b, c = 0.3 + 5e-4j, 0.31 + 7e-4j, 0.62 - 4e-4j
    triple = roots_pair([a, b, c])
    assert winding_number(triple, rectangle_contour(0, 1, 0, 1)).winding == 2


def test_refined_samples_meet_the_acceptance_rule(rng):
    # whatever pieces a round splits an interval into, every pair of
    # consecutive samples it returns passes the acceptance rule: random
    # polynomials with one to three zeros within 1e-3 of an edge of the
    # unit square or of the circle, both refined in one batch
    square, circle = rectangle_contour(0, 1, 0, 1), circle_contour(0.5, 0.3)
    # per edge, its point at s in (0, 1) and its unit normal there
    edges = [lambda s: (s, 1j), lambda s: (1 + 1j * s, 1),
             lambda s: (s + 1j, 1j), lambda s: (1j * s, 1),
             lambda s: (0.5 + 0.3 * np.exp(2j * np.pi * s),
                        np.exp(2j * np.pi * s))]
    for _ in range(40):
        n = int(rng.integers(1, 4))
        at = [edges[e](s) for e, s in zip(rng.integers(0, 5, n),
                                          rng.uniform(0.05, 0.95, n))]
        near = [p + d * u
                for (p, u), d in zip(at, rng.uniform(-1e-3, 1e-3, n))]
        far = rng.uniform(-0.5, 1.5, 2) + 1j * rng.uniform(-0.5, 1.5, 2)
        roots = np.concatenate([near, far[:int(rng.integers(0, 3))]])
        res = contour_module._contour_phases(
            roots_pair(roots),
            np.concatenate([square._table, circle._table], axis=1), (4, 1),
            0.0)
        inside = [np.count_nonzero((0 < roots.real) & (roots.real < 1)
                                   & (0 < roots.imag) & (roots.imag < 1)),
                  np.count_nonzero(np.abs(roots - 0.5) < 0.3)]
        for r, want in zip(res, inside):
            total, _, _, used, _, z, v, dv = r[:8]
            assert used == z.size
            rate = np.abs(dv / v)
            step = np.abs(np.diff(z)) * np.maximum(rate[1:], rate[:-1])
            assert np.abs(np.angle(v[1:] / v[:-1])).max() < np.pi / 2
            assert step.max() < np.pi / 2
            assert round(total / (2.0 * np.pi)) == want


def test_zero_next_to_an_edge_winds_in_three_rounds(monkeypatch):
    # a zero 1e-3 above the bottom edge needs intervals there about 1e-3
    # long; bisecting the starting grid towards it takes six refinement
    # rounds, splitting each failing interval into the pieces its step
    # bound asks for, up to _MAX_PIECES = 16, takes two (three at 5)
    rounds = [0]
    sample = contour_module._sample

    def counted(*args):
        rounds[0] += 1
        return sample(*args)

    monkeypatch.setattr(contour_module, "_sample", counted)
    c = 0.5 + 1e-3j
    res = winding_number(lambda z: (z - c, np.ones_like(z)),
                         rectangle_contour(0, 1, 0, 1))
    assert res.winding == 1
    assert rounds[0] == 3
    assert res.samples_used == 99


def test_pair_callable_is_called_once_per_round_at_the_samples(monkeypatch):
    # an f that returns (f, f') is evaluated only at the points the
    # refinement asks for, one call per round, or at Newton iterates:
    # never at z +- h
    asked, got, seeds = [], [], []
    point = contour_module._table_point
    moment_seeds = contour_module._moment_seeds

    def recording_point(table, t):
        z = point(table, t)
        asked.append((t, z))
        return z

    def recording_seeds(*args):
        before = len(got)
        s = moment_seeds(*args)
        assert len(got) == before  # the seeds cost no f call
        seeds.append(s)
        return s

    monkeypatch.setattr(contour_module, "_table_point", recording_point)
    monkeypatch.setattr(contour_module, "_moment_seeds", recording_seeds)
    co = np.poly([0.001 + 0.031j, 0.005 + 0.041j, 0.4 - 0.3j])
    dco = np.polyder(co)

    def pair(z):
        got.append((np.array(z), len(asked)))
        return np.polyval(co, z), np.polyval(dco, z)

    res = winding_number(pair, rectangle_contour(0, 1, -0.5, 0.5))
    assert res.winding == 3
    assert len(got) == len(asked) > 1
    assert all(np.array_equal(a[1], g[0]) for a, g in zip(asked, got))
    assert sum(g[0].size for g in got) == res.samples_used
    asked.clear()
    got.clear()
    # the box is the winding's rectangle, whose starting grid, and its
    # point call, the grid memo now holds; from a cold memo the top batch
    # makes its own
    contour_module._start_grid.cache_clear()
    zeros = localize_zeros(pair, (0.0, 1.0, -0.5, 0.5), target_radius=1e-3)
    assert sum(z.multiplicity for z in zeros) == 3
    # each call is either the batch of the one point call made since the
    # call before it, or a Newton batch: the first of a run at moment
    # seeds, which come from the samples alone, every later one at the
    # iterates z - f/f' of the call before it
    used, newton, prev = 0, 0, None
    for z, n_asked in got:
        if n_asked == used + 1:
            assert np.array_equal(asked[used][1], z)
            used, prev = n_asked, None
            continue
        assert n_asked == used
        if prev is None:
            assert np.isin(z, np.concatenate(seeds)).all()
        else:
            zp, vp, dvp = prev
            assert np.isin(z, zp - vp / dvp).all()
        newton += 1
        prev = (z, np.polyval(co, z), np.polyval(dco, z))
    assert used == len(asked)
    assert newton > 1


def test_coarse_level_is_one_f_call_per_refinement_round(monkeypatch):
    # the top box's moment seeds fail on the two double zeros, whose
    # Newton iterates converge together, and so do those of the two
    # quadrants that hold them: the next level has two live boxes, whose
    # eight quadrant windings share every refinement round, as many
    # rounds as the slowest one alone.  Two zeros just outside the box
    # make the edges next to them refine
    a, b = 0.31 + 0.22j, -0.41 - 0.27j
    f = roots_pair([a, a, b, b, 1.003 + 0.3j, -0.7 - 1.004j])
    # each point call by the bits of its contour's segment table
    calls, tables = [], {}
    point = contour_module._table_point

    def recording_point(table, t):
        calls.append(table.tobytes())
        tables[calls[-1]] = table
        return point(table, t)

    monkeypatch.setattr(contour_module, "_table_point", recording_point)
    zeros = localize_zeros(f, (-1.0, 1.0, -1.0, 1.0), target_radius=1e-4)
    assert sorted(z.multiplicity for z in zeros) == [2, 2]
    batches = [c for c in dict.fromkeys(calls) if tables[c].shape[1] == 32]
    assert batches
    slowest = []
    for batch in batches:
        rounds = calls.count(batch)
        alone = []
        for k in range(0, 32, 4):
            # z0 of the quadrant's bottom and top edges
            lo, hi = tables[batch][0, k], tables[batch][0, k + 2]
            before = len(calls)
            winding_number(f, rectangle_contour(lo.real, hi.real,
                                                lo.imag, hi.imag))
            alone.append(len(calls) - before)
        assert rounds == max(alone) < sum(alone)
        slowest.append(rounds)
    assert max(slowest) > 2


def test_localize_newton_roots_are_exact(rng):
    # isolated simple zeros of random polynomials, in expanded form, come
    # back from Newton to rounding accuracy, each with its certified disk
    # of radius target_radius
    box = (-1.0, 1.0, -1.0, 1.0)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        roots = rng.uniform(-0.95, 0.95, n) + 1j * rng.uniform(-0.95, 0.95, n)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)
        if gaps.min() < 0.1:
            continue
        zeros = localize_zeros(poly_pair(np.poly(roots)), box)
        assert len(zeros) == n
        for z in zeros:
            assert z.multiplicity == 1 and z.resolved
            assert z.radius == 1e-8
            assert np.abs(roots - z.center).min() < 1e-12


def test_newton_stops_once_rounding_keeps_its_step_from_shrinking():
    # f = z - a plus a 2e-15 term that jumps with the last bits of z, as
    # rounding error does: next to a the Newton step stays near 2e-15,
    # above 4 ulps of |z|, and stops shrinking there.  Newton stops at
    # that step instead of running to its step cap
    a = 0.6 + 0.4j
    sizes = []

    def f(z):
        z = np.asarray(z, dtype=complex)
        sizes.append(z.size)
        return z - a + 2e-15 * np.exp(1e17j * z.real), np.ones_like(z)

    zeros = localize_zeros(f, (0.0, 1.0, 0.0, 1.0))
    assert len(zeros) == 1 and zeros[0].resolved
    assert abs(zeros[0].center - a) < 1e-14
    # one top winding, the Newton steps of the one seed, one disk
    assert sizes.count(1) < 10


def test_localize_high_degree_roots_to_1e_10(rng, monkeypatch):
    # degree 6-10 in expanded form: the top box's power sums give
    # ill-conditioned seeds, and boxes whose seeds fail are bisected;
    # every root still comes back from Newton to 1e-10
    splits = []
    split = contour_module._split

    def recording_split(f, parents, zero_atol):
        splits.append(len(parents))
        return split(f, parents, zero_atol)

    monkeypatch.setattr(contour_module, "_split", recording_split)
    box = (-1.0, 1.0, -1.0, 1.0)
    trials = 0
    while trials < 20:
        n = int(rng.integers(6, 11))
        roots = rng.uniform(-0.95, 0.95, n) + 1j * rng.uniform(-0.95, 0.95, n)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)
        if gaps.min() < 0.05:
            continue
        trials += 1
        zeros = localize_zeros(poly_pair(np.poly(roots)), box)
        assert len(zeros) == n
        for z in zeros:
            assert z.multiplicity == 1 and z.resolved and z.radius == 1e-8
        got = np.array([z.center for z in zeros])
        assert np.abs(roots[:, None] - got[None, :]).min(axis=1).max() < 1e-10
    assert max(splits) > 0


@pytest.mark.parametrize("roots", [[0.3 + 0.4j, -0.5 + 0.2j],
                                   [0.3 + 0.4j, -0.5 + 0.2j, 0.6 - 0.35j]],
                         ids=["w2", "w3"])
def test_localize_resolves_a_box_from_its_power_sums(roots, monkeypatch):
    # the top box of winding 2 or 3 is resolved from its moment seeds in
    # one Newton batch: no quadrant is ever split
    calls, seeds, batches = [], [], []
    moment_seeds = contour_module._moment_seeds
    monkeypatch.setattr(contour_module, "_split",
                        lambda f, parents, zero_atol: calls.append(parents)
                        or [])
    monkeypatch.setattr(contour_module, "_moment_seeds",
                        lambda *args: seeds.append(moment_seeds(*args))
                        or seeds[-1])
    pair = roots_pair(roots)

    def recording(z):
        batches.append(np.array(z))
        return pair(z)

    zeros = localize_zeros(recording, (-1.0, 1.0, -1.0, 1.0))
    assert calls == [[]]
    assert len(seeds) == 1 and len(seeds[0]) == len(roots)
    # the first Newton step evaluates all the seeds at once
    assert any(np.array_equal(z, seeds[0]) for z in batches)
    assert len(zeros) == len(roots)
    for z in zeros:
        assert z.multiplicity == 1 and z.radius == 1e-8
        assert np.abs(np.array(roots) - z.center).min() < 1e-12


def test_localize_disk_winding_equals_multiplicity(rng):
    box = (-1.0, 1.0, -1.0, 1.0)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        roots = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)
        if gaps.min() < 0.1:
            continue
        # the first root doubled goes through the fallback bisection
        f = roots_pair(np.concatenate([roots, roots[:1]]))
        zeros = localize_zeros(f, box, target_radius=1e-6)
        assert sum(z.multiplicity for z in zeros) == n + 1
        for z in zeros:
            assert z.resolved
            disk = circle_contour(z.center, z.radius)
            assert winding_number(f, disk).winding == z.multiplicity


def test_localize_falls_back_when_newton_leaves_the_box(monkeypatch):
    # f = (z - a)(z - b)/(z - p) winds once over the box, so its one
    # moment seed is a + b - p; with a - p = omega (b - p), omega a cube
    # root of unity, that seed is a critical point of f, and the first
    # Newton step from it leaves the box.  The box is bisected: b and p
    # share a quadrant of winding 0, and a's quadrant resolves a
    p = 0.1 + 0.5j
    b = p + 0.3
    a = p + 0.3 * np.exp(2j * np.pi / 3)

    def f(z):
        v = (z - a) * (z - b) / (z - p)
        return v, (2.0 * z - a - b - v) / (z - p)

    box = (-1.0, 1.0, -1.0, 1.0)
    top = contour_module._contour_phase(f, rectangle_contour(*box), 0.0)
    seed = contour_module._moment_seeds(box, 1, *top[5:])
    assert abs(seed[0] - (a + b - p)) < 1e-6
    v, dv = f(seed)
    assert abs(v / dv)[0] > 2.0
    splits = []
    split = contour_module._split

    def recording_split(f, parents, zero_atol):
        splits.append(len(parents))
        return split(f, parents, zero_atol)

    monkeypatch.setattr(contour_module, "_split", recording_split)
    zeros = localize_zeros(f, box, target_radius=1e-6)
    assert splits[0] == 1
    assert len(zeros) == 1
    z = zeros[0]
    assert z.multiplicity == 1 and z.resolved
    assert abs(z.center - a) < 1e-12


def test_localize_never_evaluates_a_seed_outside_its_box():
    # f = (z - a)(z - b)/(z - p) winds once over the box, and its moment
    # seed a + b - p lies outside it: f is never asked for there.  b and
    # p share a quadrant of winding 0, and a's quadrant resolves a
    p, b, a = 0.2 + 0.2j, 0.9 + 0.9j, 0.5 - 0.5j
    asked = []

    def f(z):
        asked.append(np.array(z))
        v = (z - a) * (z - b) / (z - p)
        return v, (2.0 * z - a - b - v) / (z - p)

    box = (-1.0, 1.0, -1.0, 1.0)
    top = contour_module._contour_phase(f, rectangle_contour(*box), 0.0)
    seed = contour_module._moment_seeds(box, 1, *top[5:])
    assert abs(seed[0] - (a + b - p)) < 1e-3 and seed[0].real > 1.0
    asked.clear()
    zeros = localize_zeros(f, box, target_radius=1e-6)
    assert len(zeros) == 1 and abs(zeros[0].center - a) < 1e-12
    z = np.concatenate(asked)
    assert (np.abs(z.real) <= 1.0).all() and (np.abs(z.imag) <= 1.0).all()


def test_localize_certifies_no_disk_that_holds_two_zeros():
    # two zeros 4e-4 apart, on either side of the first vertical cut: the
    # quadrant on each side takes Newton to its own zero, but the disk of
    # radius target_radius = 1e-3 around it holds both, winds twice and
    # fails; no reported disk of that radius holds more than its zero
    z1, z2 = -2e-4 + 0.3j, 2e-4 + 0.3j
    f = roots_pair([z1, z2])
    zeros = localize_zeros(f, (-1.0, 1.0, -1.0, 1.0), target_radius=1e-3)
    assert sum(z.multiplicity for z in zeros) == 2
    for z in zeros:
        assert min(abs(z.center - z1), abs(z.center - z2)) <= z.radius
        if z.radius == 1e-3:
            disk = circle_contour(z.center, z.radius)
            assert winding_number(f, disk).winding == z.multiplicity


def test_phase_refinement_stops_at_float_resolution(monkeypatch):
    # in expanded form the double zero is rounding noise within ~3e-9 of
    # c, so the windings of 1e-8 boxes see a random phase there; no
    # interval shorter than a few ulps is split, so the localization
    # ends in a few dozen rounds instead of tens of thousands
    rounds = [0]
    sample = contour_module._sample

    def counted(*args):
        rounds[0] += 1
        return sample(*args)

    monkeypatch.setattr(contour_module, "_sample", counted)
    c = 0.25 + 0.25j
    with pytest.raises(NonconvergenceError, match="float resolution at z="):
        localize_zeros(poly_pair(np.poly([c, c])), (-1.0, 1.0, -1.0, 1.0),
                       target_radius=1e-8)
    assert rounds[0] < 500


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
        f = poly_pair(np.poly(roots))
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
    f = lambda z: (np.exp(-2j * np.pi * l * z),
                   -2j * np.pi * l * np.exp(-2j * np.pi * l * z))
    g = lambda z: (klein_j(z) ** l - np.exp(-2j * np.pi * l * z),
                   l * klein_j(z) ** (l - 1) * klein_j_derivative(z)
                   + 2j * np.pi * l * np.exp(-2j * np.pi * l * z))
    return f, g


def test_dominant_term_bound_zero_remainder():
    f = identity
    contour = circle_contour(0.0, 1.0)
    bound = dominant_term_bound(f, ZERO_FN, contour, 2.0)
    direct = abs(log_derivative_integral(f, contour))
    assert bound == pytest.approx(direct, rel=1e-12)


def test_dominance_precondition_enforced():
    f = identity
    g = lambda z: (np.ones(np.shape(z), dtype=complex),
                   np.zeros(np.shape(z), dtype=complex))
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
    g = lambda z: (0.9 + 0.35 * (z - p) ** 2, 0.7 * (z - p))
    for k in (-2, -4, -6):
        f = lambda z, k=k: (a0 * (z - p) ** k, a0 * k * (z - p) ** (k - 1))
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
        sizes = []

        def f(z, k=k):
            sizes.append(np.size(z))
            return z ** k, k * z ** (k - 1)

        rep = crossing_bound_check(f, circle_contour(0.0, 1.0))
        # Im and Re are counted from one evaluation on the 4096-point grid
        assert sizes.count(4096) == 1
        assert rep.im_crossings == 2 * k
        assert rep.re_crossings == 2 * k
        assert rep.winding_abs_over_2pi == pytest.approx(k, abs=1e-6)
        assert rep.lemma2_holds


def test_crossing_counts_constant():
    rep = crossing_bound_check(
        lambda z: (np.full(np.shape(z), 2.0 + 1j),
                   np.zeros(np.shape(z), dtype=complex)),
        circle_contour(0.0, 1.0))
    assert rep.im_crossings == 0
    assert rep.re_crossings == 0
    assert rep.winding_abs_over_2pi == pytest.approx(0.0, abs=1e-9)
    assert rep.lemma2_holds


def test_crossing_counts_random_polynomials(rng):
    for _ in range(5):
        n = int(rng.integers(1, 4))
        roots = rng.uniform(-1.6, 1.6, n) + 1j * rng.uniform(-1.6, 1.6, n)
        rep = crossing_bound_check(poly_pair(np.poly(roots)),
                                   circle_contour(0.0, 1.3))
        assert rep.lemma2_holds


def test_crossing_check_open_contour():
    rep = crossing_bound_check(roots_pair([0.5 + 0.2j]),
                               Contour([LineSegment(0.0, 1.0)]))
    assert rep.im_crossings == 0   # Im f = -0.2 along the whole segment
    assert rep.re_crossings == 1


# ---------------------------------------------------------------------------
# tracing


def test_trace_table_shapes():
    t, z, v, arg = trace_table(identity, circle_contour(0.0, 1.0),
                               n_per_segment=128)
    assert t.shape == z.shape == v.shape == arg.shape == (129,)
    assert np.all(np.diff(t) > 0)
    assert arg[-1] - arg[0] == pytest.approx(2.0 * np.pi, abs=1e-3)
    assert np.allclose(np.abs(z), 1.0)


# ---------------------------------------------------------------------------
# the starting-grid memo


def _grid_memo() -> tuple:
    """(hits, misses, entries) of the starting-grid memo."""
    info = contour_module._start_grid.cache_info()
    return info.hits, info.misses, info.currsize


def test_start_grid_is_read_only_and_found_by_its_bits():
    # a second winding over an equal contour, another object, calls f on
    # the very same read-only array
    seen = []

    def pair(z):
        seen.append(z)
        return identity(z)

    for _ in range(2):
        winding_number(pair, rectangle_contour(-1, 1, -1, 1))
    assert seen[0] is seen[1]
    assert _grid_memo() == (1, 1, 1)
    box = rectangle_contour(-1, 1, -1, 1)
    t, cid, z = contour_module._start_grid(17, (4,), box._table.tobytes())
    assert z is seen[0]
    assert z.tobytes() == box.point(t).tobytes()
    for a in (t, cid, z):
        with pytest.raises(ValueError):
            a[0] = a[1]
    # a contour that differs in one bit misses
    winding_number(pair, rectangle_contour(-1, 1, -1, np.nextafter(1, 2)))
    assert _grid_memo() == (2, 2, 2)
    assert seen[-1] is not seen[0]


def test_start_grid_keeps_n_initial_in_its_key(monkeypatch):
    # a grid built at another _N_INITIAL is never reused at 17
    box = rectangle_contour(-1, 1, -1, 1)
    with monkeypatch.context() as m:
        m.setattr(contour_module, "_N_INITIAL", 33)
        wide = winding_number(identity, box)
    res = winding_number(identity, box)
    assert _grid_memo() == (0, 2, 2)
    sizes = [contour_module._start_grid(n, (4,), box._table.tobytes())[2].size
             for n in (17, 33)]
    assert sizes == [4 * 16 + 1, 4 * 32 + 1]
    assert _grid_memo() == (2, 2, 2)
    contour_module._start_grid.cache_clear()
    assert winding_number(identity, box) == res != wide


def test_start_grid_memo_is_bounded_least_recently_used():
    size = contour_module._START_GRIDS
    circles = [circle_contour(0.0, 1.0 + k) for k in range(size + 1)]
    for c in circles[:size]:
        winding_number(identity, c)
    # a hit makes circle 0 the most recently used, so circle 1 goes first
    winding_number(identity, circles[0])
    winding_number(identity, circles[size])
    assert _grid_memo() == (1, size + 1, size)
    for c in [circles[0]] + circles[2:]:
        winding_number(identity, c)
    assert _grid_memo() == (size + 1, size + 1, size)
    winding_number(identity, circles[1])
    assert _grid_memo() == (size + 1, size + 2, size)


def test_repeated_localization_starts_every_pass_from_the_memo(monkeypatch):
    # quadrant splits and Newton disks start from the memo as well: a
    # second localization adds no grid and calls f on the memoized arrays
    f = roots_pair([0.2 + 0.3j, 0.2 + 0.3j, -0.6 - 0.1j])
    box = (-1.0, 1.0, -1.0, 1.0)
    grids = []
    start_grid = contour_module._start_grid

    def recording(*key):
        grid = start_grid(*key)
        grids.append(grid[2])
        return grid
    first = localize_zeros(f, box, target_radius=1e-3)
    _, misses, entries = _grid_memo()
    # Newton cannot resolve the double zero, so its boxes split
    assert misses == entries > 2
    monkeypatch.setattr(contour_module, "_start_grid", recording)
    seen = []
    again = localize_zeros(lambda z: seen.append(z) or f(z), box,
                           target_radius=1e-3)
    assert again == first
    monkeypatch.undo()
    assert _grid_memo() == (len(grids), misses, entries)
    assert {id(z) for z in grids} <= {id(z) for z in seen}


def test_moment_seed_of_one_zero_is_the_companion_root(rng):
    # for w = 1 the seed is c + r s_1 itself, with the bits np.roots gives
    # for the monic u - s_1 of Newton's identities
    for _ in range(50):
        x0, y0 = rng.uniform(-1.0, 1.0, 2)
        box = (x0, x0 + rng.uniform(0.01, 2.0), y0, y0 + rng.uniform(0.01, 2.0))
        roots = rng.uniform(-2.0, 2.0, 3) + 1j * rng.uniform(-2.0, 2.0, 3)
        top = contour_module._contour_phases(
            roots_pair(roots), rectangle_contour(*box)._table, (4,), 0.0)[0]
        s = contour_module._power_sums(box, 1, *top[5:])
        a = [1.0 + 0j]
        a.append(-np.dot(s[:1], a[::-1]) / 1)
        c, r = contour_module._center(box), contour_module._radius(box)
        assert np.array_equal(contour_module._moment_seeds(box, 1, *top[5:]),
                              c + r * np.roots(a))


@pytest.mark.parametrize("w", [1, 3])
def test_power_sums_match_the_formula_on_the_samples(rng, w):
    # from the pass's own |f| and phase steps, and for w = 1 without the
    # power column u^0, the sums keep the bits of the formula that takes
    # them from the samples, on boxes whose boundaries refine next to a
    # zero and on boxes that keep their starting grid
    for _ in range(40):
        x0, y0 = rng.uniform(-1.0, 1.0, 2)
        x1, y1 = rng.uniform(0.01, 2.0, 2) + (x0, y0)
        box = (x0, x1, y0, y1)
        roots = rng.uniform(-2.0, 2.0, 4) + 1j * rng.uniform(-2.0, 2.0, 4)
        roots[0] = box[0] + rng.uniform(0.0, box[1] - box[0]) + 1j * (
            box[2] + 10.0 ** -rng.uniform(1.0, 5.0))
        top = contour_module._contour_phases(
            roots_pair(roots), rectangle_contour(*box)._table, (4,), 0.0)[0]
        got = contour_module._power_sums(box, w, *top[5:])
        assert got.tobytes() == oracles.power_sums(box, w, *top[5:8]).tobytes()


def test_segment_tables_are_the_contours_tables(rng):
    # boxes and circles given by their numbers build the segment tables
    # of rectangle_contour and circle_contour, bit for bit, side by side
    for _ in range(50):
        n = int(rng.integers(1, 9))
        x0, y0 = rng.uniform(-3.0, 3.0, (2, n))
        boxes = np.stack([x0, x0 + rng.uniform(1e-9, 2.0, n), y0,
                          y0 + rng.uniform(1e-9, 2.0, n)], axis=1)
        boxes[rng.uniform(size=n) < 0.2, 0] = -0.0
        want = np.concatenate([rectangle_contour(*b)._table for b in boxes],
                              axis=1)
        assert (contour_module._rectangle_table(boxes).tobytes()
                == want.tobytes())
        centers = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        radius = 10.0 ** -rng.uniform(0.0, 10.0)
        want = np.concatenate([circle_contour(c, radius)._table
                               for c in centers], axis=1)
        assert (contour_module._circle_table(centers, radius).tobytes()
                == want.tobytes())


def test_localization_passes_the_tables_of_its_boxes_and_disks(monkeypatch):
    # every phase batch of a localization, the top box, each level's
    # quadrants with their shifted cuts and the Newton disks, has the
    # bits of the contours' own tables joined
    phases = contour_module._contour_phases
    seen = []

    def recording(f, table, nsegs, zero_atol):
        seen.append((table, nsegs))
        return phases(f, table, nsegs, zero_atol)

    monkeypatch.setattr(contour_module, "_contour_phases", recording)
    # a double zero on the first cut line moves the cuts, and the two
    # double zeros split the boxes for a few levels
    f = roots_pair([0.0, 0.0, 0.31 + 0.22j, 0.31 + 0.22j, -0.4 - 0.3j])
    zeros = localize_zeros(f, (-1.0, 1.0, -1.0, 1.0), target_radius=1e-4)
    assert sum(z.multiplicity for z in zeros) == 5
    kinds = set()
    for table, nsegs in seen:
        kinds.add(nsegs[0])
        if nsegs[0] == 4:
            lo, hi = table[0, 0::4], table[0, 2::4]
            want = [rectangle_contour(a.real, b.real, a.imag, b.imag)
                    for a, b in zip(lo, hi)]
        else:
            want = [circle_contour(c, table[3, 0].real) for c in table[2]]
        assert nsegs == tuple(len(c.segments) for c in want)
        assert table.tobytes() == np.concatenate(
            [c._table for c in want], axis=1).tobytes()
    assert kinds == {1, 4} and max(len(n) for _, n in seen) > 4


# ---------------------------------------------------------------------------
# the phase pass against the masked pass it replaced


def _both_passes(f, contours, zero_atol) -> list:
    """The phase pass over contours, after checking that it calls f on
    the same points and gives the same outputs, to the bit, as the
    masked pass it replaced, and that the |f| and phase steps it hands on
    are np.abs and np.angle of its own samples."""
    def run(phases, *args):
        calls = []

        def recording(z):
            calls.append(np.asarray(z).tobytes())
            return f(z)
        return calls, phases(recording, *args, zero_atol)

    table = np.concatenate([c._table for c in contours], axis=1)
    nsegs = tuple(len(c.segments) for c in contours)
    calls, new = run(contour_module._contour_phases, table, nsegs)
    old_calls, old = run(oracles.contour_phases_masked, contours)
    assert calls == old_calls
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert type(a) is type(b)
        if isinstance(b, Exception):
            assert str(a) == str(b)
            if isinstance(b, ZeroOnContourError):
                assert (a.location, a.modulus) == (b.location, b.modulus)
            continue
        assert a[:5] == b[:5]
        assert len(a) == 10 and len(b) == 8
        for x, y in zip(a[5:8], b[5:]):
            assert x.tobytes() == y.tobytes()
        v = a[6]
        assert a[8].tobytes() == np.abs(v).tobytes()
        assert a[9].tobytes() == np.angle(v[1:] / v[:-1]).tobytes()
    return new


def _shifted(pair, c):
    """The pair callable of f - c."""
    def g(z):
        v, dv = pair(z)
        return v - c, dv
    return g


def _random_batch(rng):
    """A pair callable and a batch of rectangles and circles, with zeros
    inside them and 10^-1 to 10^-6 from their boundaries, so that the
    contours refine for different numbers of rounds."""
    roots, contours = [], []
    for _ in range(3):
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        x1, y1 = x0 + rng.uniform(0.2, 1.0), y0 + rng.uniform(0.2, 1.0)
        contours.append(rectangle_contour(x0, x1, y0, y1))
        d = 10.0 ** -rng.uniform(1.0, 6.0) * rng.choice([-1.0, 1.0])
        roots.append(complex(rng.uniform(x0, x1), y0 + d))
    for _ in range(2):
        c = complex(*rng.uniform(-1.0, 1.0, 2))
        r = rng.uniform(0.05, 0.5)
        contours.append(circle_contour(c, r))
        d = 10.0 ** -rng.uniform(1.0, 6.0) * rng.choice([-1.0, 1.0])
        roots.append(c + (r + d) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return roots_pair(roots), contours


_ZERO_ATOLS = pytest.mark.parametrize("zero_atol", [0.0, math.ulp(0.0), 1.0],
                                      ids=["none", "ulp", "one"])


@_ZERO_ATOLS
def test_phase_pass_is_bit_identical_to_the_masked_pass(rng, zero_atol):
    for _ in range(6):
        _both_passes(*_random_batch(rng), zero_atol)
    # a zero 1e-14 off a starting sample of a steep f: |f| = 10 there is
    # below 1e-12 of the segment maximum but not below a positive floor
    steep = lambda z: (1e15 * (z - (0.5 + 1e-14j)),
                       np.full(np.shape(z), 1e15 + 0j))
    _both_passes(steep, [rectangle_contour(0.0, 1.0, 0.0, 1.0),
                         circle_contour(0.5, 0.25)], zero_atol)
    # the j and wp domain contours, whose arcs and edges refine next to
    # the poles and the corners
    j_contours = [build_j_contour(JDomainSpec()),
                  build_j_contour(JDomainSpec(), eta=1e-3)]
    for c in rng.uniform(-2000.0, 2000.0, (3, 2)) @ [1.0, 1j]:
        _both_passes(_shifted(klein_j_pair, c), j_contours, zero_atol)
    for tau, beta in ((1.0, 0.0), (8.0, 0.37)):
        wp = [build_wp_contour(WpDomainSpec(tau, beta=beta))]
        for c in rng.uniform(-50.0, 50.0, (2, 2)) @ [1.0, 1j]:
            _both_passes(_shifted(wp_analytic(lattice(tau)), c), wp,
                         zero_atol)


@_ZERO_ATOLS
def test_phase_pass_is_bit_identical_where_contours_stop(monkeypatch,
                                                         zero_atol):
    # the first square holds a zero at one of its starting samples and
    # stops on ZeroOnContourError in the first round; with _MAX_POINTS low
    # the second square, 1e-5 from a zero inside, stops on
    # NonconvergenceError in the fifth, while the first circle and the
    # smaller rectangle refine on for three more rounds, to the point
    # counts they reach uncapped; so both passes run their dead-contour
    # masks
    monkeypatch.setattr(contour_module, "_MAX_POINTS", 150)
    roots = [0.5, 0.37 + 1e-3j, 0.71 + 1e-5j,
             2.0 + 0.5j + 0.3 * (1.0 + 1e-4) * np.exp(0.4j)]
    f = roots_pair(roots)
    contours = [rectangle_contour(0.0, 1.0, 0.0, 1.0),
                rectangle_contour(0.0, 1.0, 1e-6, 1.0),
                circle_contour(2.0 + 0.5j, 0.3),
                rectangle_contour(0.1, 0.9, 2e-3, 0.5),
                circle_contour(5.0, 1.0)]
    kinds = [type(r).__name__ if isinstance(r, Exception) else r[3]
             for r in _both_passes(f, contours, zero_atol)]
    assert kinds == ["ZeroOnContourError", "NonconvergenceError", 69, 117, 17]


@pytest.mark.parametrize("contour", [
    build_j_contour(JDomainSpec()),
    build_wp_contour(WpDomainSpec(8.0, beta=0.37)),
    rectangle_contour(-0.3, 1.2, 0.1, 0.7),
    circle_contour(0.2 - 0.1j, 0.8),
], ids=["j", "wp-t8-b0.37", "rectangle", "circle"])
def test_table_point_is_bit_identical_to_the_clipped_point(contour):
    nseg = len(contour.segments)
    rng = np.random.default_rng(11)
    t = np.concatenate([rng.uniform(0.0, nseg, 500),
                        np.arange(nseg + 1, dtype=float)])
    table = contour._table
    assert (contour_module._table_point(table, t).tobytes()
            == oracles.table_point_clip(table, t).tobytes())


# ---------------------------------------------------------------------------
# warnings from f


def _warning_pair(z):
    """identity, after a RuntimeWarning raised inside f itself."""
    np.log(np.zeros(1))
    return identity(z)


def test_a_warning_from_f_is_never_silenced():
    # the phase and Newton arithmetic run under np.errstate, f never:
    # the divide-by-zero inside f stays a RuntimeWarning, an error under
    # filterwarnings = error, through a winding and a Newton step alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            winding_number(_warning_pair, rectangle_contour(-1, 1, -1, 1))
        calls = [0]

        def newton_warns(z):
            # the top winding is one call; the next is the first Newton
            # step, at the moment seed
            calls[0] += 1
            if calls[0] == 2:
                assert np.shape(z) == (1,)
                return _warning_pair(z)
            return identity(z)

        with pytest.raises(RuntimeWarning):
            localize_zeros(newton_warns, (-0.5, 1.0, -0.5, 1.0))
        assert calls[0] == 2
