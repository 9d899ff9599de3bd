"""Counting domains, the zero-count pipelines, and the degree bounds."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

import oracles
from mzl.contour import ArcSegment, LineSegment, winding_number
from mzl.domains import (JDomainSpec, WpDomainSpec, _boundary_scan,
                         bezout_step_bound, build_j_contour,
                         build_wp_contour, count_zeros_j, count_zeros_wp,
                         line_im_zero_count, proposition_bound,
                         random_polynomial, theorem1_bound, theorem2_bound,
                         theorem2_proof_bound, verify_bound_inequalities)
from mzl.elliptic import lattice, wp_analytic, wp_pair
from mzl.errors import AmbiguityError, InvalidSpecError
from mzl.poly import BivariatePolynomial, PerturbedComposite, perturb
from mzl.special import klein_j, klein_j_pair


def poly_y_minus(c) -> BivariatePolynomial:
    return BivariatePolynomial([[-c, 1.0]])


def poly_x_minus(c) -> BivariatePolynomial:
    return BivariatePolynomial([[-c], [1.0]])


# ---------------------------------------------------------------------------
# bound arithmetic


def test_bound_values():
    assert theorem1_bound(1) == 2**68
    assert theorem2_bound(2) == 65
    assert theorem2_proof_bound(2) == 67
    assert proposition_bound(1) == 11
    assert proposition_bound(3) == 55
    assert bezout_step_bound(2) == 14


def test_bound_closed_forms_sampled():
    for d in (1, 2, 7, 33, 100):
        assert theorem1_bound(d) == 2**68 * d**10
        assert theorem2_bound(d) == 8 * d * d + 14 * d + 5
        assert theorem2_proof_bound(d) == 8 * d * d + 14 * d + 7
        assert proposition_bound(d) == 4 * d * d + 6 * d + 1
        assert bezout_step_bound(d) == 2 * d * d + 3 * d


def test_bounds_reject_bad_degree():
    for fn in (theorem1_bound, theorem2_bound, theorem2_proof_bound,
               proposition_bound, bezout_step_bound):
        with pytest.raises(InvalidSpecError):
            fn(0)
        with pytest.raises(InvalidSpecError):
            fn(-3)


def test_bound_inequalities_hold():
    assert verify_bound_inequalities(100)


# ---------------------------------------------------------------------------
# domain geometry


def test_j_domain_spec_validation():
    with pytest.raises(InvalidSpecError):
        JDomainSpec(Y=1.0)
    with pytest.raises(InvalidSpecError):
        JDomainSpec(Y=3.0, inset=0.2)
    with pytest.raises(InvalidSpecError):
        JDomainSpec(Y=3.0, inset=-0.01)
    assert JDomainSpec(3.0).theta_star == pytest.approx(math.pi / 3.0)


def test_j_contour_geometry():
    contour = build_j_contour(JDomainSpec(Y=3.0))
    assert contour.closed
    # arc pi/3 long, two verticals of 3 - sin(pi/3), top edge of 1
    want = math.pi / 3.0 + 2.0 * (3.0 - math.sin(math.pi / 3.0) * 1.0) + 1.0
    assert contour.length == pytest.approx(want, abs=1e-9)
    assert contour.length == pytest.approx(6.315146743627721, abs=1e-9)
    kinds = [type(s) for s in contour.segments]
    assert kinds == [ArcSegment, LineSegment, LineSegment, LineSegment]


def test_j_real_on_arc_and_verticals():
    contour = build_j_contour(JDomainSpec(Y=3.0))
    ts = np.linspace(0.02, 0.98, 40)
    for seg in (contour.segments[0], contour.segments[1],
                contour.segments[3]):
        v = klein_j(seg.point(ts))
        assert float(np.abs(v.imag).max()) \
            < 1e-8 * (1.0 + float(np.abs(v).max()))


def test_wp_domain_spec_validation():
    spec = WpDomainSpec(1.0)
    assert spec.delta == pytest.approx(1.0 / 16.0)
    assert WpDomainSpec(0.5).delta == pytest.approx(0.5 / 16.0)
    with pytest.raises(InvalidSpecError):
        WpDomainSpec(0.05)
    with pytest.raises(InvalidSpecError):
        WpDomainSpec(1.0, delta=0.3)
    assert spec.with_delta(0.01).delta == 0.01


def test_wp_contour_corner_notches():
    spec = WpDomainSpec(1.0)
    contour = build_wp_contour(spec)
    assert contour.closed
    d = spec.delta
    assert contour.length == pytest.approx(4.0 * (1.0 - 2.0 * d)
                                           + 2.0 * math.pi * d, abs=1e-12)
    assert contour.length == pytest.approx(3.8926990816987246, abs=1e-12)


def test_wp_contour_shifted_cell():
    spec = WpDomainSpec(1.0, beta=0.3)
    contour = build_wp_contour(spec)
    assert contour.closed
    d = spec.delta
    want = 2.0 * (1.0 - 2.0 * d) + 2.0 * 1.0 + 2.0 * math.pi * d
    assert contour.length == pytest.approx(want, abs=1e-12)
    # interior lattice point too close to a corner
    with pytest.raises(InvalidSpecError):
        build_wp_contour(WpDomainSpec(1.0, beta=0.98))


def test_wp_real_on_straight_pieces(lat1):
    contour = build_wp_contour(WpDomainSpec(1.0))
    ts = np.linspace(0.05, 0.95, 30)
    for seg in contour.segments:
        if isinstance(seg, LineSegment):
            v = wp_pair(seg.point(ts), lat1)[0]
            assert float(np.abs(v.imag).max()) \
                < 1e-8 * (1.0 + float(np.abs(v).max()))


# ---------------------------------------------------------------------------
# modular-domain counting


def test_count_zeros_j_level_2000i():
    rep = count_zeros_j(poly_y_minus(2000j))
    assert rep.count == 1
    assert rep.winding == 1
    assert rep.bound_holds
    assert rep.degree == 1
    assert rep.bound == theorem1_bound(1)
    # the reported zero solves the offset equation j(z) = c - eps e^{i theta}
    z = rep.zeros[0].center
    off = rep.epsilon * np.exp(1j * rep.theta)
    assert abs(klein_j(z) - (2000j - off)) < 10.0
    assert abs(klein_j(z) - 2000j) < 1.5 * rep.epsilon + 10.0


def test_count_zeros_j_critical_value():
    # j - 1728 vanishes doubly at z = i, a point of the classical
    # boundary arc: the inset ladder pulls it inside and counts 2
    rep = count_zeros_j(poly_y_minus(1728.0))
    assert rep.count == 2
    assert sum(z.multiplicity for z in rep.zeros) == 2
    for z in rep.zeros:
        assert abs(z.center - 1j) < 0.05


def test_count_zeros_j_plain_z():
    target = 0.1 + 1.5j
    rep = count_zeros_j(poly_x_minus(target))
    assert rep.count == 1
    # composite is z - target, so the perturbed zero is target - offset
    off = rep.epsilon * np.exp(1j * rep.theta)
    assert abs(rep.zeros[0].center - (target - off)) < 1e-3
    assert abs(rep.zeros[0].center - target) <= rep.epsilon + 1e-3


def test_count_zeros_j_small_targets_cluster_at_corner():
    # both roots of the quadratic have small modulus, so their preimages
    # crowd the corner -1/2 + i sqrt(3)/2 where the modular function has
    # a triple zero; two land inside, milli-units from the left edge,
    # and their translates sit just outside the right edge.  a phase
    # step test alone aliases there; the |dz| |f'/f| bound refines it
    P = BivariatePolynomial([[0.77567288 + 0.27193386j,
                              1.96917228 + 1.18376586j,
                              0.70651487 + 1.01910866j]])
    rep = count_zeros_j(P)
    assert rep.count == 2
    assert rep.winding == 2
    assert rep.bound_holds
    corner = -0.5 + 1j * np.sin(np.pi / 3.0)
    for z in rep.zeros:
        assert z.multiplicity == 1
        assert abs(z.center - corner) < 0.06


def test_count_zeros_j_rejects_zero_polynomial():
    with pytest.raises(InvalidSpecError):
        count_zeros_j(BivariatePolynomial([[0.0]]))


@pytest.mark.parametrize("n_samples", [0, -5])
def test_count_zeros_rejects_samples_below_one(n_samples):
    with pytest.raises(InvalidSpecError, match="samples"):
        count_zeros_j(poly_y_minus(2000j), n_samples=n_samples)
    with pytest.raises(InvalidSpecError, match="samples"):
        count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0),
                       n_samples=n_samples)


def test_count_zeros_j_y_invariance():
    base = count_zeros_j(poly_y_minus(2000j), JDomainSpec(Y=2.5))
    high = count_zeros_j(poly_y_minus(2000j), JDomainSpec(Y=3.5))
    assert base.count == high.count == 1


def test_count_zeros_j_high_y_degree():
    # |P| grows like |j|^deg_y away from the triple zero of j at rho, many
    # decades within a few boundary samples; none of that is a zero
    rng = np.random.default_rng(31)
    for deg_x, deg_y in ((0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4),
                         (0, 5), (1, 5), (2, 5)):
        rep = count_zeros_j(random_polynomial(rng, deg_x, deg_y))
        assert rep.count == rep.winding
        assert rep.count == sum(z.multiplicity for z in rep.zeros)
        assert rep.bound_holds


# ---------------------------------------------------------------------------
# period-cell counting


def test_count_zeros_wp_generic_value():
    rep = count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0))
    assert rep.count == 2
    assert rep.winding == 2
    assert rep.bound == theorem2_bound(1) == 27
    assert rep.bound_holds
    # wp is even: the two preimages are z and -z mod the lattice
    total = sum(z.center for z in rep.zeros)
    assert abs(total - (1.0 + 1.0j)) < 1e-2


def test_count_zeros_wp_half_period_value(lat1):
    # wp - e1 has a double zero at z = 1/2 on the cell edge; the offset
    # splits it into one zero near the bottom edge and one near the top
    e1 = lat1.half_period_values[0]
    rep = count_zeros_wp(poly_y_minus(e1), WpDomainSpec(1.0))
    assert rep.count == 2
    ims = sorted(z.center.imag for z in rep.zeros)
    assert abs(rep.zeros[0].center.real - 0.5) < 0.05
    assert abs(rep.zeros[1].center.real - 0.5) < 0.05
    assert ims[0] < 0.05
    assert ims[1] > 0.95


def test_count_zeros_wp_plain_z():
    target = 0.37 + 0.41j
    rep = count_zeros_wp(poly_x_minus(target), WpDomainSpec(1.0))
    assert rep.count == 1
    off = rep.epsilon * np.exp(1j * rep.theta)
    assert abs(rep.zeros[0].center - (target - off)) < 5e-3
    assert abs(rep.zeros[0].center - target) <= rep.epsilon + 5e-3


def test_count_zeros_wp_shifted_cell():
    rep = count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0, beta=0.3))
    assert rep.count == 2
    assert rep.bound_holds


def test_count_zeros_wp_notch_hides_large_values():
    # preimages of a large value sit within delta of the poles, inside
    # the notches: the notched cell legitimately contains no zeros
    rep = count_zeros_wp(poly_y_minus(250.0 + 170.0j), WpDomainSpec(1.0))
    assert rep.count == 0


@pytest.mark.parametrize("tau", [0.3, 1.0, 8.0])
def test_count_zeros_wp_shifted_cell_products(tau):
    # generic values (|Im c| >= 0.3 |c|, |c| <= 4) have two simple
    # preimages per cell, away from the real-valued edges and the notches
    roots = [2.1 + 1.3j, -1.4 + 2.2j, 0.6 - 1.9j]
    for deg in (2, 3):
        P = BivariatePolynomial([np.poly(roots[:deg])[::-1]])  # prod Y - c
        rep = count_zeros_wp(P, WpDomainSpec(tau, beta=0.37))
        assert rep.count == rep.winding == 2 * deg


@pytest.mark.parametrize("tau, beta, seed", [(1.0, 0.37, 0), (8.0, 0.0, 1)])
def test_count_zeros_wp_degree_5_has_no_negative_quadrant(tau, beta, seed):
    # with a phase step test alone, a full turn of phase hid between two
    # samples of a quadtree box here, and a quadrant of a pole-free tile
    # read a negative winding ("negative winding in a quadrant")
    P = random_polynomial(np.random.default_rng(seed), 2, 5)
    rep = count_zeros_wp(P, WpDomainSpec(tau, beta=beta))
    region = WpDomainSpec(tau, beta, rep.domain["delta"])
    inner = wp_analytic(lattice(tau))
    dense = winding_number(PerturbedComposite(P, inner, 0.0, 0.0).pair,
                           build_wp_contour(region), n_initial=8193)
    assert rep.count == rep.winding == dense.winding
    assert rep.bound_holds


def test_winding_does_not_depend_on_the_callable(lat1):
    # f and f' come from the one call of f, never from attributes of the
    # callable, so a plain wrapper around f gives the identical result
    cases = ((poly_y_minus(2000j), klein_j_pair,
              build_j_contour(JDomainSpec())),
             (poly_y_minus(2.5 + 1.5j), wp_analytic(lat1),
              build_wp_contour(WpDomainSpec(1.0))))
    for P, inner, contour in cases:
        pert = perturb(P, inner, contour.sample(512))
        direct = winding_number(pert.pair, contour)
        wrapped = winding_number(lambda z: pert.pair(z), contour)
        assert direct == wrapped


# ---------------------------------------------------------------------------
# near-zero rule


def test_boundary_scan_flags_zeros_on_the_contour(lat1):
    # j - 1728 vanishes at z = i on the arc, wp - e1 at z = 1/2 on the
    # bottom edge; both points are boundary samples
    samples = build_j_contour(JDomainSpec()).sample(512)
    _, near_zero = _boundary_scan(poly_y_minus(1728.0), klein_j_pair,
                                  samples)
    assert near_zero.any()
    e1 = lat1.half_period_values[0]
    samples = build_wp_contour(WpDomainSpec(1.0)).sample(512)
    _, near_zero = _boundary_scan(poly_y_minus(e1), wp_analytic(lat1),
                                  samples)
    assert near_zero.any()


def test_boundary_scan_ignores_growth_near_rho():
    P = random_polynomial(np.random.default_rng(5), 0, 4)
    samples = build_j_contour(JDomainSpec()).sample(512)
    rho = complex(-0.5, math.sqrt(3.0) / 2.0)
    near = samples[np.abs(samples - rho) < 0.25]
    vals, near_zero = _boundary_scan(P, klein_j_pair, near)
    mods = np.abs(vals)
    assert float(mods.max()) > 1e9 * float(mods.min())
    assert not near_zero.any()


# ---------------------------------------------------------------------------
# line restrictions


def test_line_count_horizontal_levels(lat1):
    e1 = lat1.half_period_values[0]
    assert line_im_zero_count(poly_y_minus(e1 + 5.0), 1.0,
                              component="Re") == 2
    assert line_im_zero_count(poly_y_minus(e1 - 5.0), 1.0,
                              component="Re") == 0


def test_line_count_vertical_levels(lat1):
    e3 = lat1.half_period_values[2]
    assert line_im_zero_count(poly_y_minus(e3 - 5.0), 1.0, line="vertical",
                              component="Re") == 2
    assert line_im_zero_count(poly_y_minus(e3 + 5.0), 1.0, line="vertical",
                              component="Re") == 0


def test_line_count_imaginary_component(lat1):
    # Im(i (wp - c)) = Re(wp) - c for real c, so the counts transfer
    e1 = lat1.half_period_values[0]
    P = BivariatePolynomial([[-1j * (e1 + 5.0), 1j]])
    assert line_im_zero_count(P, 1.0, component="Im") == 2


def test_line_count_constant_polynomial():
    assert line_im_zero_count(BivariatePolynomial([[1j]]), 1.0,
                              component="Im") == 0
    with pytest.raises(AmbiguityError):
        line_im_zero_count(BivariatePolynomial([[1j]]), 1.0, component="Re")


def test_line_count_validation():
    P = poly_y_minus(1.0)
    with pytest.raises(InvalidSpecError):
        line_im_zero_count(P, 1.0, line="diagonal")
    with pytest.raises(InvalidSpecError):
        line_im_zero_count(P, 1.0, component="Abs")
    with pytest.raises(InvalidSpecError):
        line_im_zero_count(P, 1.0, offset=0.5)


def test_line_count_against_proposition_bound(rng):
    for _ in range(6):
        P = random_polynomial(rng, int(rng.integers(0, 3)),
                              int(rng.integers(0, 3)), real=True)
        if P.is_zero():
            continue
        d = max(1, P.degree)
        n = line_im_zero_count(P, 1.0, component="Re")
        assert n <= proposition_bound(d)


# ---------------------------------------------------------------------------
# line-restriction algebra


def test_imaginary_axis_reduction_table(rng, jfun):
    # on the imaginary axis j is real, so Im P(it, j(it)) reduces to a
    # real bivariate table in (t, j); the evaluations must agree
    for _ in range(8):
        P = random_polynomial(rng, int(rng.integers(0, 4)),
                              int(rng.integers(0, 4)))
        table = oracles.imag_line_reduction(P.coeffs)
        t = rng.uniform(1.05, 2.5, 25)
        jt = klein_j(1j * t)
        direct = np.imag(P.evaluate(1j * t, jt.real))
        via_table = oracles.naive_poly_eval(table, t, jt.real).real
        scale = 1.0 + float(np.abs(direct).max())
        assert float(np.abs(direct - via_table).max()) < 1e-9 * scale


# ---------------------------------------------------------------------------
# report plumbing


def test_zero_count_report_is_deterministic():
    a = count_zeros_j(poly_y_minus(2000j)).to_dict()
    b = count_zeros_j(poly_y_minus(2000j)).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_zero_count_report_fields():
    rep = count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0))
    d = rep.to_dict()
    assert d["kind"] == "wp"
    assert d["count"] == 2
    assert set(d["domain"]) == {"tau", "beta", "delta"}
    assert rep.min_modulus > 0.0
    assert rep.contour_length > 0.0
    assert rep.retries >= 0
    assert rep.epsilon > 0.0
