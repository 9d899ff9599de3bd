"""Counting domains, the zero-count pipelines, and the degree bounds."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import mzl.contour as contour_module
import mzl.domains as domains_module
import mzl.elliptic as elliptic_module
import mzl.verify as verify_module
import oracles
from mzl.contour import (ArcSegment, Contour, LineSegment, LocalizedZero,
                         winding_number)
from mzl.domains import (_J_ETAS, _WP_ETAS, JDomainSpec, WpDomainSpec,
                         _in_j_region, _top_line_dominates, _zero_floor,
                         bezout_step_bound,
                         build_j_contour, build_wp_contour, count_zeros_j,
                         count_zeros_wp, line_im_zero_count,
                         proposition_bound,
                         random_polynomial, theorem1_bound, theorem2_bound,
                         theorem2_proof_bound, verify_bound_inequalities)
from mzl.elliptic import lattice, wp_analytic, wp_pair
from mzl.errors import (AmbiguityError, DominanceError, InvalidSpecError,
                        MzlError, NonconvergenceError, PrecisionLossError,
                        ZeroOnContourError)
from mzl.poly import BivariatePolynomial, PerturbedComposite, perturb
from mzl.special import klein_j, klein_j_error_bound, klein_j_pair


def poly_y_minus(c) -> BivariatePolynomial:
    return BivariatePolynomial([[-c, 1.0]])


def poly_x_minus(c) -> BivariatePolynomial:
    return BivariatePolynomial([[-c], [1.0]])


RHO = complex(-0.5, math.sqrt(3.0) / 2.0)


def classical_j_boundary(Y: float) -> Contour:
    """The classical boundary of the domain truncated at Y,
    counterclockwise: the arc from rho to rho + 1, the right edge, the
    top line and the left edge."""
    return Contour([
        ArcSegment(0.0, 1.0, 2.0 * math.pi / 3.0, math.pi / 3.0),
        LineSegment(RHO + 1.0, complex(0.5, Y)),
        LineSegment(complex(0.5, Y), complex(-0.5, Y)),
        LineSegment(complex(-0.5, Y), RHO),
    ])


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
    # j is evaluated up to Im z = 100, so Y lies in (1, 100]
    for Y in (1.0, math.nan, math.inf, 100.5, 105.0, 1000.0):
        with pytest.raises(InvalidSpecError, match="^Y must lie in"):
            JDomainSpec(Y=Y)
    assert JDomainSpec(Y=100.0).Y == 100.0
    # the domain is the half-open one: no field widens it
    assert [f.name for f in dataclasses.fields(JDomainSpec)] == ["Y"]
    with pytest.raises(TypeError):
        JDomainSpec(Y=3.0, inset=0.01)


def test_j_contour_geometry():
    classical = classical_j_boundary(3.0)
    assert classical.closed
    # arc pi/3 long, two verticals of 3 - sin(pi/3), top edge of 1
    want = math.pi / 3.0 + 2.0 * (3.0 - math.sin(math.pi / 3.0) * 1.0) + 1.0
    assert classical.length == pytest.approx(want, abs=1e-9)
    assert classical.length == pytest.approx(6.315146743627721, abs=1e-9)
    for eta, dip in ((1e-6, 1e-3), (1e-4, 1e-3), (1e-3, 1e-2)):
        contour = build_j_contour(JDomainSpec(Y=3.0), eta)
        assert contour.closed
        kinds = [type(s) for s in contour.segments]
        assert kinds == [ArcSegment] * 3 + [LineSegment] * 3
        left, middle, right, redge, top, ledge = contour.segments
        # the arc half and edge that are in move out, the others in
        assert (left.center, left.radius) == (0.0, 1.0 - eta)
        assert (right.center, right.radius) == (0.0, 1.0 + eta)
        assert redge.z0.real == redge.z1.real == 0.5 - eta
        assert ledge.z0.real == ledge.z1.real == -0.5 - eta
        assert top.z0.imag == top.z1.imag == 3.0
        # the dip runs counterclockwise about i, through i - i dip
        assert (middle.center, middle.radius) == (1j, dip)
        assert middle.ang0 < -math.pi / 2.0 < middle.ang1
        assert abs(left.start - RHO) < 3.0 * eta
        assert abs(right.end - (RHO + 1.0)) < 3.0 * eta
        # the dip's half circle replaces about 2 dip of the arc
        assert contour.length == pytest.approx(
            classical.length + (math.pi - 2.0) * dip, abs=10.0 * eta)


@pytest.mark.parametrize("eta", [1e-6, 1e-3])
def test_j_region_is_inside_the_contour(eta):
    # _in_j_region keeps the localized zeros that the contour encloses:
    # z - c winds once about the contour exactly where it holds c
    Y = 3.0
    contour = build_j_contour(JDomainSpec(Y), eta)
    d = 1e-2 if eta == 1e-3 else 1e-3
    rng = np.random.default_rng(3)
    points = list(rng.uniform(-0.6, 0.6, 200)
                  + 1j * rng.uniform(0.75, 1.15, 200))
    # the classical boundary, by the half-open rule, and next to the dip
    points += [1j, RHO, RHO + 1.0, -0.5 + 1.2j, 0.5 + 1.2j,
               np.exp(0.6j * np.pi), np.exp(0.4j * np.pi),
               1j - 0.5j * d, 1j + 0.9 * d, 1j - 0.9 * d + 0.1j * d]
    for c in points:
        w = winding_number(lambda z, c=c: (z - c, np.ones_like(z)), contour)
        assert (w.winding == 1) == _in_j_region(c, Y, eta), c
    for c in (1j, RHO, -0.5 + 1.2j, np.exp(0.6j * np.pi)):
        assert _in_j_region(c, Y, eta)
    for c in (RHO + 1.0, 0.5 + 1.2j, np.exp(0.4j * np.pi)):
        assert not _in_j_region(c, Y, eta)


def test_distance_to_the_j_contour():
    # against the nearest of 20000 samples per segment, for points next
    # to the arcs, the dip, the edges and the corners
    contour = build_j_contour(JDomainSpec(Y=3.0), 1e-3)
    dense = contour.sample(20000)
    rng = np.random.default_rng(11)
    points = list(rng.uniform(-0.7, 0.7, 60)
                  + 1j * rng.uniform(0.7, 3.2, 60))
    points += [1j, 1j - 5e-3j, RHO, RHO + 1.0, 0.5 + 3.1j, -0.6 + 0.5j]
    for c in points:
        gap = np.abs(dense - c).min() - domains_module._distance(contour, c)
        assert -1e-12 <= gap < 1e-4, c


def test_off_contour_refines_only_the_boxes_across_the_contour(monkeypatch):
    # zeros 1e-6 above and below the bottom edge: the box report across
    # the edge is localized again in its box alone; a Newton root (no box)
    # and a box report clear of the contour are kept as they are
    contour = contour_module.rectangle_contour(0.0, 1.0, 0.0, 1.0)
    a, b = 0.5 + 1e-6j, 0.5 - 1e-6j

    def f(z):
        return (z - a) * (z - b), 2.0 * z - a - b

    across = LocalizedZero(0.5, math.sqrt(2.0) * 1e-4, 2, True,
                           (0.5 - 1e-4, 0.5 + 1e-4, -1e-4, 1e-4))
    root = LocalizedZero(0.3, 1e-4, 1, True)
    clear = LocalizedZero(0.5 + 0.5j, 1e-4, 1, True,
                          (0.5 - 1e-4, 0.5 + 1e-4, 0.5 - 1e-4, 0.5 + 1e-4))
    calls = []

    def localize(g, box, **kw):
        calls.append(box)
        return contour_module.localize_zeros(g, box, **kw)
    monkeypatch.setattr(domains_module, "localize_zeros", localize)
    out = domains_module._off_contour(f, [root, across, clear], contour,
                                      0.0)
    assert root in out and clear in out
    refined = [z for z in out if z not in (root, clear)]
    assert calls[0] == across.box
    assert sum(z.multiplicity for z in refined) == 2
    assert sorted(np.sign(z.center.imag) for z in refined) == [-1.0, 1.0]
    for z in refined:
        assert (z.box is None
                or domains_module._distance(contour, z.center) >= z.radius)


def test_j_real_on_arc_and_verticals():
    contour = classical_j_boundary(3.0)
    ts = np.linspace(0.02, 0.98, 40)
    for seg in (contour.segments[0], contour.segments[1],
                contour.segments[3]):
        v = klein_j(seg.point(ts))
        assert float(np.abs(v.imag).max()) \
            < 1e-8 * (1.0 + float(np.abs(v).max()))


def test_wp_domain_spec_validation():
    # the cell is all there is to the domain: no field cuts it down
    assert [f.name for f in dataclasses.fields(WpDomainSpec)] == ["tau",
                                                                   "beta"]
    with pytest.raises(TypeError):
        WpDomainSpec(1.0, 0.0, 1.0 / 16.0)
    for tau in (0.05, 10.5, math.nan):
        with pytest.raises(InvalidSpecError):
            WpDomainSpec(tau)
    # beyond |beta| = 1e6 the floats near beta lose the offsets by eta
    for beta in (math.nan, math.inf, -math.inf, 1e300, 1.000001e6):
        with pytest.raises(InvalidSpecError, match="beta"):
            WpDomainSpec(1.0, beta)
    for beta in (-1e6, 1e6):
        contour = build_wp_contour(WpDomainSpec(1.0, beta))
        assert contour.closed
        assert contour.segments[0].z0 == complex(beta - 1e-6, -1e-6)


def test_wp_contour_is_a_rectangle():
    # four edges, eta = 1e-6 off the classical cell, with no notch at the
    # lattice points
    contour = build_wp_contour(WpDomainSpec(1.0))
    assert contour.closed
    assert [type(s) for s in contour.segments] == [LineSegment] * 4
    assert [s.z0 for s in contour.segments] == [
        complex(-1e-6, -1e-6), complex(1.0 - 1e-6, -1e-6),
        complex(1.0 - 1e-6, 1.0 - 1e-6), complex(-1e-6, 1.0 - 1e-6)]
    assert contour.length == pytest.approx(4.0, abs=1e-12)


def test_wp_contour_shifted_cell():
    for beta in (0.3, 0.02, 0.98):
        contour = build_wp_contour(WpDomainSpec(2.0, beta=beta))
        assert contour.closed
        assert contour.length == pytest.approx(2.0 * 1.0 + 2.0 * 2.0,
                                               abs=1e-12)
        assert contour.segments[0].z0 == complex(beta - 1e-6, -1e-6)


def test_wp_contour_is_the_half_open_cell():
    # the whole cell moves by -eta (1 + i): the bottom and left edges,
    # which are in, move out, and the top and right edges move in
    eta = 1e-4
    for beta in (0.0, 0.37):
        spec = WpDomainSpec(1.0, beta)
        classical = build_wp_contour(spec, 0.0)
        contour = build_wp_contour(spec, eta)
        assert contour.length == pytest.approx(classical.length, abs=1e-12)
        for a, b in zip(classical.segments, contour.segments):
            assert abs(b.start - (a.start - eta * (1 + 1j))) < 1e-12
            assert abs(b.end - (a.end - eta * (1 + 1j))) < 1e-12
        # the cell's one lattice point, ceil(beta), is in, and the
        # lattice points next to it are out
        omega = math.ceil(beta)
        for c, inside in ((complex(beta + 0.3, 0.0), True),
                          (complex(beta, 0.4), True),
                          (complex(beta + 0.3, 1.0), False),
                          (complex(beta + 1.0, 0.4), False),
                          (complex(omega, 0.0), True),
                          (complex(omega - 1, 0.0), False),
                          (complex(omega + 1, 0.0), False),
                          (complex(omega, 1.0), False),
                          (complex(omega + 1, 1.0), False)):
            w = winding_number(lambda z: (z - c, np.ones_like(z)), contour)
            assert w.winding == int(inside), c


def test_wp_real_on_straight_pieces(lat1):
    # on the classical cell boundary, eta = 0
    contour = build_wp_contour(WpDomainSpec(1.0), 0.0)
    ts = np.linspace(0.05, 0.95, 30)
    for seg in contour.segments:
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
    # boundary arc: the contour's dip runs below it, and it counts 2
    rep = count_zeros_j(poly_y_minus(1728.0))
    assert rep.count == 2
    assert sum(z.multiplicity for z in rep.zeros) == 2
    for z in rep.zeros:
        assert abs(z.center - 1j) < 0.05


# The domain is half-open (Serre, A Course in Arithmetic, VII.1.2): the
# left edge and the left half of the arc are in, i and rho too, the right
# edge and the right half of the arc are out.  j takes real values below 0
# on the edges, in [0, 1728] on the arc and above 1728 on the imaginary
# axis, so each real c below 1728 has a preimage on both halves of the
# boundary, of which one counts.  The double zero of j - 1728 at i counts
# 2 and the triple zero of j at rho counts 3, not 6 with rho + 1
@pytest.mark.parametrize("c, count", [
    (-100.0, 1), (1e-3, 1), (1000.0, 1), (1727.0, 1), (5000.0, 1),
    (0.0, 3), (1728.0, 2)])
def test_count_zeros_j_level_sets_on_the_boundary(c, count):
    rep = count_zeros_j(poly_y_minus(c))
    assert rep.count == rep.winding == count
    assert rep.retries == 0
    assert rep.domain["eta"] == 1e-6


def test_count_zeros_j_failed_localization_takes_the_next_eta(monkeypatch):
    # a count's one retry move is the next eta, whatever failed: after a
    # failed localization the count winds again on the contour of the
    # next eta, and counts the same
    windings, localizations = [], []
    winding, localize = (domains_module._unperturbed_winding,
                         domains_module.localize_zeros)

    def counted_winding(*args):
        windings.append(args)
        return winding(*args)

    def failing_once(*args, **kwargs):
        localizations.append(args)
        if len(localizations) == 1:
            raise NonconvergenceError("forced retry")
        return localize(*args, **kwargs)

    monkeypatch.setattr(domains_module, "_unperturbed_winding",
                        counted_winding)
    monkeypatch.setattr(domains_module, "localize_zeros", failing_once)
    rep = count_zeros_j(poly_y_minus(1000.0))
    assert rep.count == rep.winding == 1
    assert (rep.retries, rep.domain["eta"]) == (1, 1e-5)
    assert len(windings) == 2


# the coefficients of a j count whose offset composite has zeros within
# about 1e-4 of the line Im z = Im rho, below the arc: the box's bottom
# edge meets them at eta = 1e-6 and 1e-5, and the count takes eta = 1e-4
_J_BOX_EDGE_COEFFS = np.array([
    [-0.0695940279619468 - 0.5200586652550714j,
     -0.23866056477176292 + 1.4903082290762408j,
     0.5323742791050526 - 1.9518603992765322j,
     0.708121821703462 - 0.6701416954837595j],
    [-1.1137688591720734 - 0.5291569660279176j,
     -0.20715878280324507 + 0.66353962317159j,
     0.9182758409347652 + 0.606275476109527j,
     0.26983762907210557 + 1.3951942602387315j],
    [0.12195404350177193 - 1.5740328423373253j,
     1.5540176686087332 + 0.7504750090304797j,
     -0.6777727596396438 - 0.29327986428830616j,
     0.08274589510763317 - 0.6656252372581756j]])


def test_count_zeros_j_box_edge_zeros_take_the_next_eta():
    rep = count_zeros_j(BivariatePolynomial(_J_BOX_EDGE_COEFFS))
    assert rep.count == rep.winding == 2
    assert rep.retries > 0
    assert rep.domain["eta"] == _J_ETAS[rep.retries]


@pytest.mark.parametrize("c, count", [
    (1000.0, 2), (-100.0, 2), (0.0, 6), (1728.0, 4)])
def test_count_zeros_j_squares_count_their_boundary_zeros_once(c, count):
    # a double zero of (Y - c)^2 on the boundary lies eta = 1e-6 inside
    # the contour, or outside it for its translate on the excluded half,
    # and no contour sample is numerically zero; the offset splits it into
    # a pair closer than the target radius, whose box report is refined
    # until it lies on one side of the contour
    rep = count_zeros_j(BivariatePolynomial([[c * c, -2.0 * c, 1.0]]))
    assert rep.count == rep.winding == count
    assert rep.retries == 0
    assert rep.domain["eta"] == 1e-6


@pytest.mark.parametrize("x, count", [(-0.5, 1), (0.5, 0)])
def test_count_zeros_j_zero_on_an_edge(x, count):
    # z - (x + 1.2i) vanishes on the left edge, which is in, or on the
    # right edge, which is out
    rep = count_zeros_j(poly_x_minus(complex(x, 1.2)))
    assert rep.count == rep.winding == count


def test_count_zeros_j_translates_on_both_edges_count_once():
    # a deg_x = 0, deg_y = 4 trial of `mzl verify --seed 2`: four generic
    # roots, so four zeros.  One lies 1.8e-4 inside the right edge, at
    # 0.49982 + 0.89935i, and its translate by -1 lies 1.8e-4 outside the
    # left edge; a domain widened by 1e-3 holds both
    rep = count_zeros_j(BivariatePolynomial([[
        1.9451214671724453 - 0.8122803052222975j,
        -2.0862286839131476 - 2.0904493280827405j,
        0.5141526933124381 - 0.26556954139097577j,
        -1.0904051260868457 + 0.19462635169916115j,
        -1.6982982593076594 - 0.10067433398788521j]]))
    assert rep.count == rep.winding == 4


def test_count_zeros_j_plain_z():
    target = 0.1 + 1.5j
    rep = count_zeros_j(poly_x_minus(target))
    assert rep.count == 1
    # composite is z - target, so the perturbed zero is target - offset
    off = rep.epsilon * np.exp(1j * rep.theta)
    assert abs(rep.zeros[0].center - (target - off)) < 1e-3
    assert abs(rep.zeros[0].center - target) <= rep.epsilon + 1e-3


def test_count_zeros_j_plain_z_newton_root():
    # the perturbed composite z - target + offset is linear, so Newton
    # lands on its zero to rounding, certified in a disk of the target
    # radius
    target = 0.1 + 1.5j
    rep = count_zeros_j(poly_x_minus(target))
    off = rep.epsilon * np.exp(1j * rep.theta)
    assert abs(rep.zeros[0].center - (target - off)) < 1e-10
    assert rep.zeros[0].radius == 1e-4


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


def test_count_zeros_j_y_invariance():
    base = count_zeros_j(poly_y_minus(2000j), JDomainSpec(Y=2.5))
    high = count_zeros_j(poly_y_minus(2000j), JDomainSpec(Y=3.5))
    assert base.count == high.count == 1
    # the highest top line j is evaluated on
    assert count_zeros_j(poly_y_minus(2000.0), JDomainSpec(Y=100.0)).count == 1


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


# Inputs of the seeded j-count corpus whose last zero lies above the
# default top line Y = 2.5: the sampled lines Y, Y + 1/2, Y + 1, Y + 2
# missed it, and each count came back one short.
HIDDEN_ZEROS = [
    ([[0.6221252216057821 - 0.8794597147043167j,
       -1.5290928749284465 + 1.4748226520869099j],
      [2.0267790952431928 - 0.049755760296968106j,
       -0.39500987549879313 - 0.3674025993780988j]],
     2, -0.2136 + 3.9323j),
    ([[-1.387413231554587 - 1.3075789066569106j,
       -1.0775204968476604 - 0.6121063779878204j,
       -1.2008631075528253 + 1.6731149700340762j,
       1.1103678017586875 - 1.2907543993826185j],
      [-0.8880848611591907 - 0.8316549603684383j,
       0.6686564129642129 - 0.1622465227803788j,
       0.5875101525212513 + 0.808990072037372j,
       0.25967041104814037 + 0.251639190604869j]],
     4, 0.2790 + 4.7004j),
    ([[0.20311235434987712 + 0.8911118179263711j,
       -3.330916459012456 - 0.9005152822669764j],
      [-0.5255213745274884 - 0.36247650658910213j,
       0.705581031455687 + 0.659132379969098j],
      [-0.1511497178205969 - 0.5431911479927756j,
       -0.7597670404767642 + 0.14134872622320707j]],
     2, -0.0064 + 2.5720j),
]


@pytest.mark.parametrize("coeffs,count,zero", HIDDEN_ZEROS)
def test_count_zeros_j_finds_zeros_above_the_default_top_line(coeffs, count,
                                                              zero):
    rep = count_zeros_j(BivariatePolynomial(coeffs))
    assert rep.count == rep.winding == count
    assert rep.domain["Y"] > zero.imag
    assert min(abs(z.center - zero) for z in rep.zeros) < 1e-3


@pytest.mark.parametrize("z0", [0.3 + 2.6j, 0.1 + 12j])
def test_count_zeros_j_zero_next_to_a_root_of_the_leading_column(z0):
    # P = (X - z0) Y - 1 vanishes where j(z) = 1/(z - z0): once next to
    # z0, where j is huge, and once more near the corner rho.  0.3 + 2.6i
    # lies between the lines a sampled check would look at; 0.1 + 12i is
    # 9.5 above the default top line, out of reach of its half-steps
    rep = count_zeros_j(BivariatePolynomial([[-1.0, -z0], [0.0, 1.0]]))
    assert rep.count == rep.winding == 2
    assert min(abs(z.center - z0) for z in rep.zeros) < 1e-6


@pytest.mark.parametrize("P, count", [
    (poly_x_minus(0.1 + 2.49999j), 1),
    (BivariatePolynomial([[-1.0, -(0.1 + 2.49999j)], [0.0, 1.0]]), 2)])
def test_count_zeros_j_root_just_under_the_top_line(P, count):
    # the root of the leading column sits 1e-5 under the default top line,
    # between boundary samples; the top line starts 1 above it instead
    rep = count_zeros_j(P)
    assert rep.count == rep.winding == count
    assert rep.retries == 0
    assert rep.domain["Y"] == pytest.approx(3.49999)


# ops 65, 166, 105 and 147 of the seed-1, 3, 5 and 6 j-count bench
# corpora: |P| dips to 0.084, 0.058, 0.0037 and 0.013 within 0.04 of rho
# or rho + 1, between the points of a fixed scan of 512 per segment.  An
# eps sized from such a scan lies above the dip, and its offset moves a
# zero across the contour (counts 4, 1, 2 and 2)
_J_NEAR_RHO = [
    ([[(1.1970542790702832+0.12799295347351022j),
       (0.9911074476835425+1.218221469811786j),
       (0.020177928521369855-1.1292338850667993j),
       (0.9836313946445512-0.5591398781846658j),
       (-0.9661328199695761-0.7686730083877418j)],
      [(0.7510146370030524-1.4956459404457607j),
       (-0.08724841948114659+0.9612682752696962j),
       (1.1309056978794503+1.310997302986027j),
       (0.4660105512578667+0.8000432070570264j),
       (-1.0898797857123523+0.24257031543727606j)]], 3),
    ([[(0.9914056580780776+0.8306663583748539j),
       (1.287076554368245+0.724292751580105j),
       (-0.033750607022160345-0.6983180131877972j)],
      [(-0.15680255183864147-0.08319466924015172j),
       (0.8527729960275634-0.11925099258087192j),
       (-0.394411679840583+1.7333403801281198j)]], 2),
    ([[(1.7589710766812527+0.7543686438915898j),
       (0.5406502875557727-0.7651259000530994j),
       (0.059491529994791854-0.6796276894565825j)],
      [(0.0656800558330705-2.061922492127639j),
       (0.7307927491415821-0.793378841071178j),
       (0.9212337664614076+1.6069652687673104j)],
      [(-1.3168137745000827-0.06952390178003978j),
       (0.18547932372329412-0.8550109597366835j),
       (1.715647072880231-0.5761205222847363j)]], 3),
    ([[(-0.006799676321550907+0.7924921877248152j),
       (-1.8901992886658578+0.4243669072986624j),
       (-0.8647224014288574+0.9355729787601016j)],
      [(-1.173025949802626-1.0139329772836085j),
       (-0.6971823624708005-0.8045815247920635j),
       (-0.9477648689222273-0.3223399235763279j)]], 3),
]


@pytest.mark.parametrize("coeffs, count", _J_NEAR_RHO,
                         ids=["s1-op65", "s3-op166", "s5-op105", "s6-op147"])
def test_count_zeros_j_eps_below_a_dip_near_rho(coeffs, count):
    # the true counts: the winding of the unperturbed composite over the
    # reported contour, 65536 samples per segment, refined until every
    # phase step is below pi/4
    rep = count_zeros_j(BivariatePolynomial(coeffs))
    assert rep.count == rep.winding == count


@pytest.fixture
def j_call_sizes(monkeypatch):
    """The sizes of the z arrays count_zeros_j evaluates j on, through
    klein_j or klein_j_pair."""
    sizes = []

    def recording(f):
        def g(z):
            sizes.append(np.size(z))
            return f(z)
        return g

    for name in ("klein_j", "klein_j_pair"):
        monkeypatch.setattr(domains_module, name,
                            recording(getattr(domains_module, name)))
    return sizes


def test_count_zeros_j_sizes_eps_without_a_boundary_scan(j_call_sizes):
    # eps comes from the samples of the unperturbed winding: no call
    # evaluates j on a fixed grid of 512 points on each of the 4 segments
    rep = count_zeros_j(poly_y_minus(2000j))
    assert rep.count == rep.winding == 1
    assert j_call_sizes and 4 * 512 not in j_call_sizes


def dominates(P: BivariatePolynomial, Y: float) -> bool:
    lead = P.leading_y_term()
    return _top_line_dominates(P, Y, lead, np.roots(lead[1][::-1]))


def test_top_line_dominance_without_j_dependence():
    assert dominates(poly_x_minus(0.1 + 12j), 2.5)


def test_top_line_dominance_rejects_a_top_line_beyond_float_range():
    P = BivariatePolynomial(np.ones((1, 6)))
    assert dominates(P, 21.9)
    with pytest.raises(DominanceError):
        dominates(P, 22.0)


def test_top_line_dominance_fails_over_a_root_of_the_leading_column():
    P = BivariatePolynomial([[-1.0, -(0.4 + 3.0j)], [0.0, 1.0]])
    assert not dominates(P, 2.5)
    assert dominates(P, 2.5 + 1.0)
    # the strip is |Re z| <= 1/2 + 1e-3: a root just outside it does not
    # stop the top line, one inside it, right of the right edge, does
    P = BivariatePolynomial([[-1.0, -(0.6 + 3.0j)], [0.0, 1.0]])
    assert dominates(P, 2.5)
    P = BivariatePolynomial([[-1.0, -(0.5005 + 3.0j)], [0.0, 1.0]])
    assert not dominates(P, 2.5)


def test_count_zeros_j_factors_the_leading_column_once(monkeypatch):
    # the top line rises in half-steps here, and every step reuses the
    # roots of the leading column (localization factors other
    # polynomials, its moment seeds)
    calls = []
    roots = np.roots

    def counted(p):
        calls.append(np.array(p))
        return roots(p)

    monkeypatch.setattr(np, "roots", counted)
    P = BivariatePolynomial([[-1.0, -(0.4 + 3.0j)], [0.0, 1.0]])
    rep = count_zeros_j(P)
    assert rep.domain["Y"] > 3.0
    lead = P.leading_y_term()[1][::-1]
    assert sum(np.array_equal(c, lead) for c in calls) == 1


def test_top_line_dominance_implies_sampled_dominance():
    # whenever the derived check accepts (P, Y), the leading term
    # dominates at every sample of the lines Y, Y + 1/2, ..., Y + 6.
    # Half the inputs move a root of the leading column near the strip,
    # where the check has to reject some heights
    rng = np.random.default_rng(14)
    lines = 0.5 * np.arange(13)
    accepted = rejected = 0
    for _ in range(60):
        P = random_polynomial(rng, int(rng.integers(0, 3)),
                              int(rng.integers(1, 6)))
        root = complex(rng.uniform(-0.7, 0.7), rng.uniform(1.0, 5.0))
        lead = np.zeros(P.deg_x + 2, dtype=complex)
        lead[:2] = (-root, 1.0)
        planted = np.zeros((P.deg_x + 2, P.deg_y + 1), dtype=complex)
        planted[:-1] = P.coeffs
        planted[:, -1] = lead * P.coeffs[0, -1]
        for Q in (P, BivariatePolynomial(planted)):
            for Y in (2.5, 3.0, 4.0):
                if not dominates(Q, Y):
                    rejected += 1
                    continue
                accepted += 1
                assert oracles.sampled_top_line_dominates(
                    Q.coeffs, Y + lines, domains_module._J_STRIP), \
                    (Q.coeffs, Y)
    assert accepted > 200 and rejected > 10


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


def _inside(contour: Contour, c: complex) -> bool:
    return winding_number(lambda z: (z - c, np.ones_like(z)),
                          contour).winding == 1


def _wound(P: BivariatePolynomial, spec: WpDomainSpec, eta: float):
    """The pair callable of G = F P(z, wp(z)) that count_zeros_wp winds
    over build_wp_contour(spec, eta)."""
    _, _, factor, _ = domains_module._wp_geometry(P, spec, eta)
    return PerturbedComposite(P, wp_analytic(lattice(spec.tau)), 0.0, 0.0,
                              factor).pair


def test_count_zeros_wp_half_period_value(lat1):
    # wp - e1 has a double zero at z = 1/2 on the bottom edge, which is
    # in, and its copy at 1/2 + i on the top edge, which is out: the zeros
    # of the offset composite lie next to 1/2, inside the contour, and
    # none next to 1/2 + i
    e1 = lat1.half_period_values[0]
    rep = count_zeros_wp(poly_y_minus(e1), WpDomainSpec(1.0))
    assert rep.count == rep.winding == 2
    contour = build_wp_contour(WpDomainSpec(1.0), rep.domain["eta"])
    for z in rep.zeros:
        assert abs(z.center - 0.5) < 0.05
        assert _inside(contour, z.center)
    assert min(abs(z.center - (0.5 + 1j)) for z in rep.zeros) > 0.9


@pytest.fixture
def wp_call_points(monkeypatch):
    """The z arrays the wp inner function of count_zeros_wp is called on."""
    points = []

    def recording(L):
        f = wp_analytic(L)

        def inner(z):
            points.append(np.atleast_1d(z))
            return f(z)
        return inner

    monkeypatch.setattr(domains_module, "wp_analytic", recording)
    return points


# wp - e_k vanishes doubly at a half-period: on the bottom edge for e1,
# inside the cell for e2 and on the left edge for e3.  No contour sample
# of the half-open cell is numerically zero, but for wp - e3 at tau = 8:
# wp'' (4i) = 3.8e-8 there, so |P| eta from 4i is 1.9e-8 eta^2, below
# the rounding of wp (about 1e-14) until eta = 1e-2
_HALF_PERIOD_ETAS = {(0.3, 0): 1e-6, (0.3, 1): 1e-6, (0.3, 2): 1e-6,
                     (1.0, 0): 1e-6, (1.0, 1): 1e-6, (1.0, 2): 1e-6,
                     (8.0, 0): 1e-6, (8.0, 1): 1e-6, (8.0, 2): 1e-2}


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("tau", [0.3, 1.0, 8.0])
def test_count_zeros_wp_half_period_values(tau, k):
    L = lattice(tau)
    half_period = (0.5, 0.5 + 0.5j * tau, 0.5j * tau)[k]
    P = poly_y_minus(L.half_period_values[k])
    rep = count_zeros_wp(P, WpDomainSpec(tau))
    assert rep.count == rep.winding == 2
    eta = rep.domain["eta"]
    assert eta == _HALF_PERIOD_ETAS[tau, k]
    assert rep.retries == _WP_ETAS.index(eta)
    contour = build_wp_contour(WpDomainSpec(tau), eta)
    for z in rep.zeros:
        assert _inside(contour, z.center)
        if k != 1:
            assert abs(z.center - half_period) < 0.05
    # eps is half the minimum over the samples of the unperturbed winding,
    # and below |G| = |F P| on a dense grid of the contour
    assert rep.epsilon == 0.5 * rep.min_modulus
    z = contour.sample(4096)
    assert np.abs(_wound(P, WpDomainSpec(tau), eta)(z)[0]).min() \
        >= rep.epsilon


def test_count_zeros_wp_bottom_edge_value(lat1):
    # wp - wp(0.3) vanishes at 0.3 and 0.7 on the bottom edge, which is
    # in, between contour samples eta below it
    P = poly_y_minus(wp_pair(0.3, lat1)[0])
    rep = count_zeros_wp(P, WpDomainSpec(1.0))
    assert rep.count == rep.winding == 2
    assert (rep.retries, rep.domain["eta"]) == (0, 1e-6)
    contour = build_wp_contour(WpDomainSpec(1.0), rep.domain["eta"])
    for z, want in zip(rep.zeros, (0.3, 0.7)):
        assert abs(z.center - want) < 1e-3
        assert _inside(contour, z.center)


@pytest.mark.parametrize("beta", [0.0, 0.37])
@pytest.mark.parametrize("edge, count", [
    ("bottom", 1), ("left", 1), ("top", 0), ("right", 0)])
def test_count_zeros_wp_zero_on_an_edge(beta, edge, count):
    # z - c vanishes on the edge: the bottom and left ones are in the
    # half-open cell, the top and right ones are out
    c = {"bottom": complex(beta + 0.3, 0.0), "left": complex(beta, 0.4),
         "top": complex(beta + 0.3, 1.0),
         "right": complex(beta + 1.0, 0.4)}[edge]
    rep = count_zeros_wp(poly_x_minus(c), WpDomainSpec(1.0, beta))
    assert rep.count == rep.winding == count
    assert rep.retries == 0


@pytest.mark.parametrize("c, count", [
    (0.37, 1), (1.37, 0), (1.37 + 1j, 0), (0.37 + 1j, 0)])
def test_count_zeros_wp_zero_at_a_corner(c, count):
    # with beta = 0.37 the corners are no lattice points: only the bottom
    # left one is in the half-open cell
    rep = count_zeros_wp(poly_x_minus(c), WpDomainSpec(1.0, 0.37))
    assert rep.count == rep.winding == count
    assert rep.retries == 0


# the radius of the corner notches that the wp contour once cut out of
# the cell at tau = 1
_D = 1.0 / 16.0


@pytest.mark.parametrize("c, count, retries", [
    (_D * np.exp(0.25j * np.pi), 1, 0),
    (1.0 + _D * np.exp(0.75j * np.pi), 1, 0),
    (1.0 + 1j + _D * np.exp(-0.75j * np.pi), 1, 0),
    (1j + _D * np.exp(-0.25j * np.pi), 1, 0)])
def test_count_zeros_wp_zero_on_a_notch(c, count, retries):
    # z - c vanishes 1/16 from a corner of the cell, inside it: the
    # rectangle holds it, with no retry
    rep = count_zeros_wp(poly_x_minus(c), WpDomainSpec(1.0))
    assert rep.count == rep.winding == count
    assert rep.retries == retries
    # the zero of the offset composite z - c + eps e^{i theta}
    off = rep.epsilon * np.exp(1j * rep.theta)
    assert abs(rep.zeros[0].center - (c - off)) < 1e-3


def test_count_zeros_wp_notch_zero_with_wp_zeros():
    # (z - c)(wp - 5) with c in the old top-right notch: c and the two
    # zeros of wp - 5
    c = 1.0 + 1j + _D * np.exp(-0.75j * np.pi)
    P = BivariatePolynomial(np.outer([-c, 1.0], [-5.0, 1.0]))
    rep = count_zeros_wp(P, WpDomainSpec(1.0))
    assert rep.count == rep.winding == 3
    assert rep.retries == 0
    assert min(abs(z.center - c) for z in rep.zeros) < 0.05


# op 11 of the seed-9 wp-count bench corpus (stratum t1-b0.37-d5): one of
# its 11 zeros lies 0.046 from the lattice point 1, within the 1/16 that
# a notch once cut out there
_WP_NEAR_POLE = [
    [(-0.20989851720283073-0.31641561030265536j),
     (-0.9620535511310718-0.36418406936700654j),
     (0.6506275580760367-0.6977353101751619j),
     (0.822476750673023-0.798638912963253j),
     (-0.34015874885018743-0.5668169433244012j),
     (1.126002164891761+0.5750296109609638j)],
    [(-1.6964392455054735-0.47593980450868306j),
     (-0.4869969098261485-1.3610429841149938j),
     (-0.9335783226800657-1.5941662642482448j),
     (-0.5995886565197912+0.13101492426199624j),
     (-1.6466565757931355-1.7381041588301942j),
     (0.9447460750281186+0.6899758393955985j)],
    [(-0.9647141271194453-0.5086551086446398j),
     (-0.14433198499473895-0.5174748600658043j),
     (1.171954969702038+0.2189444204581622j),
     (1.5974644091816506-0.3707374844137465j),
     (1.1703947713773957+0.701656889606069j),
     (-2.2457260892010726-1.2962683519054874j)]]


def test_count_zeros_wp_zero_next_to_a_lattice_point():
    rep = count_zeros_wp(BivariatePolynomial(_WP_NEAR_POLE),
                         WpDomainSpec(1.0, 0.37))
    assert rep.count == rep.winding == 11
    assert rep.retries == 0
    near = 0.955919 + 0.014541j
    assert any(abs(z.center - near) <= z.radius for z in rep.zeros)


@pytest.mark.parametrize("coeffs, beta", [
    ([[0.0, 0.0], [0.0, 1.0]], 0.0),              # X Y
    ([[0.0, -1.0], [0.0, 1.0]], 1.0),             # (X - 1) Y
    ([[0.0, -1.0], [0.0, 1.0]], 1.0 + 5e-7),
    ([[0.0, 1.0], [0.0, 1.0]], -1.0)])            # (X + 1) Y
def test_count_zeros_wp_pole_order_below_2_deg_y(coeffs, beta):
    # the leading column vanishes at the rectangle's lattice point, where
    # P(z, wp(z)) has a simple pole, not a double one: the count is that
    # of wp's two zeros.  With beta 5e-7 above 1 the rectangle, 1e-6 off
    # the cell, holds the lattice point 1, not the cell's 2
    P = BivariatePolynomial(coeffs)
    omega = math.ceil(beta - _WP_ETAS[0])
    assert domains_module._pole_order(P, omega) == 1
    rep = count_zeros_wp(P, WpDomainSpec(1.0, beta))
    assert rep.count == rep.winding == 2
    assert rep.retries == 0


def test_count_zeros_wp_negative_beta_is_a_period_shift():
    # the zeros of P in the cell at beta = -1 are those of P(X - 1, Y) at
    # beta = 0 moved by -1
    P = random_polynomial(np.random.default_rng(1), 1, 2)
    rep = count_zeros_wp(P, WpDomainSpec(0.7, -1.0))
    shifted = count_zeros_wp(verify_module._shifted_by_one(P),
                             WpDomainSpec(0.7, 0.0))
    assert rep.count == shifted.count == 5


def test_pole_order_walks_the_laurent_coefficients():
    # generic: 2 deg_y from the leading column, exact at any integer
    P = random_polynomial(np.random.default_rng(4), 2, 3)
    for omega in (-3, 0, 1, 10**6):
        assert domains_module._pole_order(P, omega) == 6
    # X^2 Y: u^2 wp(u) has no pole at 0; X^3 Y^2 + X Y leaves u^-1
    assert domains_module._pole_order(
        BivariatePolynomial([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), 0) == 0
    assert domains_module._pole_order(BivariatePolynomial(
        [[0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]]), 0) == 1
    # with no Y there is no pole
    assert domains_module._pole_order(poly_x_minus(0.3), 0) == 0


def test_count_zeros_wp_cancelling_laurent_coefficient_is_ambiguous():
    # X^2 Y^2 - Y: the order -2 coefficient is 1 - 1, and whether P has a
    # pole at 0 depends on the u^4 term of u^2 wp; it has none, and a
    # double zero at 0 instead
    P = BivariatePolynomial([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
    with pytest.raises(AmbiguityError, match="order -2 at the lattice "
                                             "point 0") as info:
        count_zeros_wp(P, WpDomainSpec(1.0))
    assert info.value.interval == (0.0, 0.0)


def test_count_zeros_wp_overflow_takes_the_next_eta():
    # |wp| is about 1/(2 eta^2) = 5e11 at the corners next to the lattice
    # points, where P of deg_y 28 overflows at eta = 1e-6: the count
    # retries at eta = 1e-5, where it does not
    rng = np.random.default_rng(28)
    P = random_polynomial(rng, int(rng.integers(0, 3)), 28)
    rep = count_zeros_wp(P, WpDomainSpec(1.0))
    assert rep.count == rep.winding == 56
    assert (rep.retries, rep.domain["eta"]) == (1, 1e-5)
    assert rep.domain["eta"] == _WP_ETAS[rep.retries]


@pytest.mark.parametrize("beta", [0.02, 0.999, -0.63, -1.0, -2.5])
def test_count_zeros_wp_lattice_point_next_to_a_corner(beta):
    # the cell's lattice point lies 0.02 or 0.001 from a corner; at
    # negative beta it is ceil(beta - eta) <= 0, which the pole order
    # raises to powers
    rep = count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0, beta))
    assert rep.count == rep.winding == 2


class _PassDone(Exception):
    pass


def test_unperturbed_pass_evaluates_each_point_once(
        monkeypatch, wp_call_points):
    # the pass calls the inner function once per sample, and no other
    # call evaluates it on the pass's starting grid first.  The grid
    # closes the contour at its first point, which it evaluates again
    points = wp_call_points

    def recording(f):
        def g(z):
            points.append(np.atleast_1d(z))
            return f(z)
        return g

    for name in ("klein_j", "klein_j_pair"):
        monkeypatch.setattr(domains_module, name,
                            recording(getattr(domains_module, name)))

    def stop(*args):
        raise _PassDone

    monkeypatch.setattr(domains_module, "perturb_from_values", stop)
    for count in (lambda: count_zeros_j(poly_y_minus(2000j)),
                  lambda: count_zeros_wp(poly_y_minus(2.5 + 1.5j),
                                         WpDomainSpec(1.0))):
        points.clear()
        with pytest.raises(_PassDone):
            count()
        assert np.abs(points[0][-1] - points[0][0]) < 1e-15
        z = np.concatenate([points[0][:-1]] + points[1:])
        assert np.unique(z).size == z.size
    # the starting grid of the wp rectangle: 16 points per edge and the
    # closing one
    assert points[0].size == 65


# op 57 of the seed-8 wp-count bench corpus (stratum t8-b0-d5, tau = 8):
# |P| dips to 91.1 near z = 0.3759i on the left edge, between the points
# of the fixed scan, which read a minimum of 545.9 (eps 272.97)
_WP_STEEP_EDGE = [
    [(1.0958158184845588+0.7682654100283441j),
     (0.23265429419996583-0.34877129355504644j),
     (0.8052873236132189-1.0580937671561363j),
     (-0.3945046192222055-1.9339701116813734j),
     (-0.4247748842381474-1.9043972649962706j),
     (-0.737142668608095-0.16302333062426594j)],
    [(-1.9241280283631934-1.2126497105957184j),
     (-0.4742523016564395-1.218423766469989j),
     (-0.6128571585521315-0.5895909645665949j),
     (1.560513913775564-0.07720280129943148j),
     (-1.9220071220497779-0.566559986364636j),
     (0.0030023169201341036-1.2274507037973599j)],
    [(-0.21344540641074353-0.7198516737955624j),
     (-0.11847500375215371-0.26789451790268737j),
     (-0.1971306511457009-1.139807383085538j),
     (0.1671822330732233+0.8141037875290403j),
     (0.7973518582959713+1.18148488509045j),
     (-1.7093943772358013+1.2072910800402712j)]]


def test_count_zeros_wp_eps_below_a_dip_between_scan_points():
    P = BivariatePolynomial(_WP_STEEP_EDGE)
    L = lattice(8.0)
    rep = count_zeros_wp(P, WpDomainSpec(8.0))
    assert rep.count == rep.winding == 11
    assert rep.retries == 0
    contour = build_wp_contour(WpDomainSpec(8.0), rep.domain["eta"])
    G = _wound(P, WpDomainSpec(8.0), rep.domain["eta"])
    z = contour.sample(16384)
    left = z[np.abs(z.real - z[0].real) < 1e-12]
    assert np.abs(P.evaluate(left, wp_pair(left, L)[0])).min() < 92.0
    assert rep.epsilon < np.abs(G(z)[0]).min()
    # brute force: every phase step of G on a 65536-per-segment grid is
    # below pi/2, and they sum to 11 turns
    z = contour.sample(65536)
    v = G(z)[0]
    steps = np.angle(np.roll(v, -1) / v)
    assert np.abs(steps).max() < np.pi / 2.0
    assert steps.sum() / (2.0 * np.pi) == pytest.approx(11.0, abs=1e-6)
    # |P| spans 91 to 1.5e14 on the left edge: without the derived zero
    # floor the relative rule of the contour layer stops the winding
    with pytest.raises(ZeroOnContourError):
        winding_number(G, contour)


def test_count_zeros_wp_eps_below_the_dense_minimum():
    # Rouche needs |P| > eps on the whole contour, not only at the
    # samples eps was sized from: check it 16384 points per segment (wp)
    # and 4096 (j, on inputs of low degree in z, whose zeros often lie
    # near rho; a scan of 512 per segment misses 5 of these 60 dips)
    rng = np.random.default_rng(16)
    for tau, beta in ((0.3, 0.0), (1.0, 0.0), (1.0, 0.37), (8.0, 0.0),
                      (8.0, 0.37)):
        P = random_polynomial(rng, int(rng.integers(0, 3)),
                              int(rng.integers(1, 4)))
        spec = WpDomainSpec(tau, beta)
        rep = count_zeros_wp(P, spec)
        assert rep.count == rep.winding
        z = build_wp_contour(spec, rep.domain["eta"]).sample(16384)
        mods = np.abs(_wound(P, spec, rep.domain["eta"])(z)[0])
        assert mods.min() >= rep.epsilon
    rng = np.random.default_rng(2021)
    for _ in range(20):
        for deg_x, deg_y in ((1, 2), (2, 2), (1, 4)):
            P = random_polynomial(rng, deg_x, deg_y)
            rep = count_zeros_j(P)
            assert rep.count == rep.winding
            z = build_j_contour(JDomainSpec(rep.domain["Y"]),
                                rep.domain["eta"]).sample(4096)
            assert np.abs(P.evaluate(z, klein_j(z))).min() >= rep.epsilon


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


def test_count_zeros_wp_shifted_cell_corner_is_no_pole(lat1):
    # for non-integer beta the cell corners are not lattice points: a
    # zero 0.07 from the corner 1.37 is counted with no retry
    c = wp_pair(1.32 + 0.05j, lat1)[0]
    rep = count_zeros_wp(poly_y_minus(c), WpDomainSpec(1.0, beta=0.37))
    assert rep.count == rep.winding == 2
    assert rep.retries == 0


def test_count_zeros_f_calls(monkeypatch):
    # pair counts the calls of the inner function, one per round of the
    # unperturbed winding and one per round of the localization, where
    # Newton stops a root once its step is 2^-10 of the target radius.
    # The wp rectangle is also the localization's top box, so the top
    # winding's first round is the unperturbed winding's, from the memo
    calls = {"pair": 0, "phases": 0}
    phases = contour_module._contour_phases

    def counted(f):
        def g(*args):
            calls["pair"] += 1
            return f(*args)
        return g

    def counted_phases(*args, **kwargs):
        calls["phases"] += 1
        return phases(*args, **kwargs)

    monkeypatch.setattr(elliptic_module, "wp_pair",
                        counted(elliptic_module.wp_pair))
    monkeypatch.setattr(domains_module, "klein_j_pair",
                        counted(domains_module.klein_j_pair))
    monkeypatch.setattr(contour_module, "_contour_phases", counted_phases)
    count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0))
    assert calls == {"pair": 3, "phases": 3}
    calls.update(pair=0, phases=0)
    count_zeros_j(poly_y_minus(2000j))
    assert calls == {"pair": 4, "phases": 3}
    # at tau 8 the edges are 8 long, and the windings refine along them;
    # each round splits an interval into as many pieces as its step bound
    # asks for, up to _MAX_PIECES = 16
    calls.update(pair=0, phases=0)
    count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(8.0))
    assert calls == {"pair": 6, "phases": 3}


def _inner_calls(monkeypatch, module, name) -> list:
    """The z of every call of module.name from now on, as bytes."""
    calls = []
    fn = getattr(module, name)

    def recording(z, *args):
        calls.append(np.asarray(z).tobytes())
        return fn(z, *args)
    monkeypatch.setattr(module, name, recording)
    return calls


# the first-round memo itself, whichever wrapper a test installs
_FIRST_ROUND = domains_module._first_round


def _first_rounds() -> tuple:
    """(hits, misses, entries) of the first-round memo."""
    info = _FIRST_ROUND.cache_info()
    return info.hits, info.misses, info.currsize


def _first_round_keys(monkeypatch) -> list:
    """The (pair, z bytes) of every _first_round call from now on: the
    keys of the memo while it holds fewer than _FIRST_ROUNDS."""
    keys = []

    def recording(pair, z):
        keys.append((pair, z))
        return _FIRST_ROUND(pair, z)
    monkeypatch.setattr(domains_module, "_first_round", recording)
    return keys


def _on_first_rounds(calls, keys) -> list:
    """Per call of _inner_calls, whether its z is that of a memoized
    first round."""
    grids = {z for _, z in keys}
    return [z in grids for z in calls]


def _clear_memos(keys) -> None:
    _FIRST_ROUND.cache_clear()
    contour_module._start_grid.cache_clear()
    keys.clear()


def test_repeated_counts_reuse_the_starting_grids(monkeypatch):
    # a count on a domain that a count has run on before makes no inner
    # call on its two starting grids, the contour's and the top box's,
    # and reports what a count from a cold memo does
    keys = _first_round_keys(monkeypatch)
    j_calls = _inner_calls(monkeypatch, domains_module, "klein_j_pair")
    P, Q = poly_y_minus(2000j), BivariatePolynomial(
        [np.poly([300.0 + 400.0j, -500.0 + 300.0j])[::-1]])
    first = count_zeros_j(P)
    assert first.retries == 0
    assert _on_first_rounds(j_calls, keys).count(True) == 2
    j_calls.clear()
    other = count_zeros_j(Q)
    again = count_zeros_j(P)
    assert other.domain == first.domain and other.retries == 0
    assert j_calls and not any(_on_first_rounds(j_calls, keys))
    assert _first_rounds() == (4, 2, 2)
    assert again.to_dict() == first.to_dict()
    _clear_memos(keys)
    assert count_zeros_j(Q).to_dict() == other.to_dict()

    # wp keys its values by its pair callable, one per lattice, so a
    # wrapper installed around elliptic.wp_pair after the first count, as
    # bench/tracer.py does, finds them.  The wp rectangle is the
    # localization's top box, so both passes start from one grid: the
    # first count's localization already hits
    _clear_memos(keys)
    P, Q = poly_y_minus(2.5 + 1.5j), poly_y_minus(-1.0 - 3.0j)
    first = count_zeros_wp(P, WpDomainSpec(1.0))
    wp_calls = _inner_calls(monkeypatch, elliptic_module, "wp_pair")
    other = count_zeros_wp(Q, WpDomainSpec(1.0))
    again = count_zeros_wp(P, WpDomainSpec(1.0))
    assert first.retries == other.retries == 0
    assert wp_calls and not any(_on_first_rounds(wp_calls, keys))
    assert _first_rounds() == (5, 1, 1)
    assert again.to_dict() == first.to_dict()
    _clear_memos(keys)
    wp_calls.clear()
    assert count_zeros_wp(Q, WpDomainSpec(1.0)).to_dict() == other.to_dict()
    assert _on_first_rounds(wp_calls, keys).count(True) == 1


def test_first_round_memo_is_keyed_by_the_bits_of_z():
    # an equal copy of a pass's z hits, a z that differs in one bit misses
    calls = []

    def pair(z):
        calls.append(z)
        return klein_j_pair(z)
    z = np.array([0.1 + 1.2j, -0.3 + 1.5j])
    out = _FIRST_ROUND(pair, z.tobytes())
    assert _FIRST_ROUND(pair, z.copy().tobytes()) is out
    assert len(calls) == 1
    nudged = z.copy()
    nudged[1] = np.nextafter(nudged[1].real, 1.0) + 1j * nudged[1].imag
    assert _FIRST_ROUND(pair, nudged.tobytes()) is not out
    assert len(calls) == 2
    # another pair misses on the same z
    _FIRST_ROUND(lambda z: pair(z), z.tobytes())
    assert len(calls) == 3
    assert _first_rounds() == (1, 3, 3)
    # the memo holds the pair's values only, with the bits of a fresh call
    assert [a.tobytes() for a in out] == [a.tobytes()
                                          for a in klein_j_pair(z)]


def test_stored_inner_values_are_read_only(monkeypatch):
    keys = _first_round_keys(monkeypatch)
    count_zeros_j(poly_y_minus(2000j))
    count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0))
    # the wp winding and localization share their first round
    assert len(keys) == 4 and _first_rounds()[2] == 3
    assert ({pair for pair, _ in keys}
            == {klein_j_pair, wp_analytic(lattice(1.0))})
    for key in keys:
        values = _FIRST_ROUND(*key)
        assert len(values) == 2
        for a in values:
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_first_round_memo_is_bounded_least_recently_used():
    size = domains_module._FIRST_ROUNDS
    zs = [np.array([complex(0.01 * k, 1.5)]).tobytes()
          for k in range(size + 1)]
    for z in zs[:size]:
        _FIRST_ROUND(klein_j_pair, z)
    # a hit makes z 0 the most recently used, so z 1 goes first
    _FIRST_ROUND(klein_j_pair, zs[0])
    _FIRST_ROUND(klein_j_pair, zs[size])
    assert _first_rounds() == (1, size + 1, size)
    for z in [zs[0]] + zs[2:]:
        _FIRST_ROUND(klein_j_pair, z)
    assert _first_rounds() == (size + 1, size + 1, size)
    _FIRST_ROUND(klein_j_pair, zs[1])
    assert _first_rounds() == (size + 1, size + 2, size)


def test_a_count_adds_at_most_two_first_rounds_per_attempt(monkeypatch):
    # the unperturbed winding and the localization's top box add one
    # first round each; a box report refined across the contour
    # (_off_contour), as for the triple zero of j at rho, adds none
    attempts, localizations = [], []
    winding = domains_module._unperturbed_winding

    def recording_winding(*args):
        attempts.append(args)
        return winding(*args)

    def recording_localize(f, box, **kwargs):
        localizations.append(box)
        return contour_module.localize_zeros(f, box, **kwargs)
    monkeypatch.setattr(domains_module, "_unperturbed_winding",
                        recording_winding)
    monkeypatch.setattr(domains_module, "localize_zeros", recording_localize)
    rep = count_zeros_j(poly_y_minus(0.0))
    assert rep.count == 3 and rep.retries == 0
    assert len(attempts) == 1 and len(localizations) > 1
    assert _first_rounds()[2] == 2
    rep = count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(8.0))
    assert len(attempts) == rep.retries + 2
    assert _first_rounds()[2] <= 2 * len(attempts)


def test_count_zeros_raises_the_last_attempts_error(monkeypatch):
    # every attempt fails in the localization: both counts make one
    # attempt per eta, each with the box of its eta, and raise the error
    # of the last attempt
    boxes = []

    def failing_localize(f, box, **kwargs):
        boxes.append(box)
        raise NonconvergenceError(f"attempt {len(boxes)}")

    monkeypatch.setattr(domains_module, "localize_zeros", failing_localize)
    with pytest.raises(NonconvergenceError, match="^attempt 4$"):
        count_zeros_j(poly_y_minus(2000j))
    # the j box runs from the contour's left corner, its lowest point, to
    # the top line
    assert boxes == [(-0.5 - eta, 0.5 - eta, build_j_contour(
        JDomainSpec(), eta).segments[0].start.imag, 2.5)
        for eta in _J_ETAS]

    boxes.clear()
    with pytest.raises(NonconvergenceError, match="^attempt 5$"):
        count_zeros_wp(poly_y_minus(2.5 + 1.5j), WpDomainSpec(1.0))
    # the one top box is the rectangle eta off the cell
    assert boxes == [(-eta, 1.0 - eta, -eta, 1.0 - eta) for eta in _WP_ETAS]


def test_count_zeros_wp_notch_hides_large_values():
    # the two preimages of a large value sit next to the cell's lattice
    # point, about |c|^-1/2 from it, where a notch once hid them; wp takes
    # every value twice per cell
    for tau in (0.3, 1.0, 8.0):
        for beta in (0.0, 0.37):
            for c in (250.0 + 170.0j, -6000.0 + 8000.0j):
                rep = count_zeros_wp(poly_y_minus(c), WpDomainSpec(tau, beta))
                assert rep.count == rep.winding == 2, (tau, beta, c)
                for z in rep.zeros:
                    assert min(abs(z.center - complex(m, n * tau))
                               for m in (0, 1, 2) for n in (0, 1)) < 0.1


@pytest.mark.parametrize("tau", [0.3, 1.0, 8.0])
def test_count_zeros_wp_shifted_cell_products(tau):
    # generic values (|Im c| >= 0.3 |c|, |c| <= 4) have two simple
    # preimages per cell, away from the real-valued edges and the poles
    roots = [2.1 + 1.3j, -1.4 + 2.2j, 0.6 - 1.9j]
    for deg in (2, 3):
        P = BivariatePolynomial([np.poly(roots[:deg])[::-1]])  # prod Y - c
        rep = count_zeros_wp(P, WpDomainSpec(tau, beta=0.37))
        assert rep.count == rep.winding == 2 * deg


@pytest.mark.parametrize("tau, beta, seed", [(1.0, 0.37, 0), (8.0, 0.0, 1)])
def test_count_zeros_wp_degree_5_has_no_negative_quadrant(tau, beta, seed,
                                                          monkeypatch):
    # with a phase step test alone, a full turn of phase hid between two
    # samples of a quadtree box here, and a quadrant of a pole-free box
    # read a negative winding ("negative winding in a quadrant")
    P = random_polynomial(np.random.default_rng(seed), 2, 5)
    rep = count_zeros_wp(P, WpDomainSpec(tau, beta=beta))
    spec = WpDomainSpec(tau, beta)
    monkeypatch.setattr(contour_module, "_N_INITIAL", 8193)
    dense = winding_number(_wound(P, spec, rep.domain["eta"]),
                           build_wp_contour(spec, rep.domain["eta"]))
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


def _flags(P, z, w, dw, w_error):
    v, _, py = P.evaluate_partials(z, w)
    return np.abs(v) <= _zero_floor(P, z, w, py, w_error)


def test_zero_floor_flags_zeros_on_the_contour(lat1):
    # j - 1728 vanishes at z = i on the classical arc, wp - e1 at z = 1/2
    # on the bottom edge; both points are samples of the classical
    # boundary, and no other sample is numerically zero
    samples = classical_j_boundary(2.5).sample(512)
    assert np.abs(samples - 1j).min() < 1e-15
    j, dj = klein_j_pair(samples)
    flags = _flags(poly_y_minus(1728.0), samples, j, dj,
                   klein_j_error_bound(samples, j))
    assert np.array_equal(np.flatnonzero(flags),
                          [np.argmin(np.abs(samples - 1j))])
    e1 = lat1.half_period_values[0]
    # the classical cell's edges without their ends, the lattice points
    samples = np.concatenate([
        s.point(np.arange(1, 512) / 512.0)
        for s in build_wp_contour(WpDomainSpec(1.0), 0.0).segments])
    p, dp = wp_pair(samples, lat1)
    flags = _flags(poly_y_minus(e1), samples, p, dp,
                   elliptic_module.wp_error_bound(samples, p, dp, lat1))
    assert np.array_equal(np.flatnonzero(flags),
                          [np.argmin(np.abs(samples - c)) for c in (0.5,
                                                                    0.5 + 1j)])


def test_zero_floor_ignores_growth_near_rho():
    P = random_polynomial(np.random.default_rng(5), 0, 4)
    samples = build_j_contour(JDomainSpec()).sample(512)
    near = samples[np.abs(samples - RHO) < 0.25]
    j, dj = klein_j_pair(near)
    mods = np.abs(P.evaluate(near, j))
    assert float(mods.max()) > 1e9 * float(mods.min())
    assert not _flags(P, near, j, dj, klein_j_error_bound(near, j)).any()


def test_zero_floor_covers_the_error_of_the_composite():
    # |P(z, w) - P(z, j(z))| against the floor at samples of the j
    # contour, with j(z) from mpmath
    mpmath = pytest.importorskip("mpmath")
    P = random_polynomial(np.random.default_rng(7), 2, 3)
    z = build_j_contour(JDomainSpec()).sample(8)
    j, dj = klein_j_pair(z)
    with mpmath.workdps(40):
        exact = []
        for zi, ji in zip(z, j):
            x = mpmath.mpc(zi.real, zi.imag)
            jr = 1728 * mpmath.kleinj(x)
            v = sum(mpmath.mpc(complex(P.coeffs[a, b])) * x**a * jr**b
                    for a in range(P.deg_x + 1) for b in range(P.deg_y + 1))
            exact.append(complex(v))
    v, _, py = P.evaluate_partials(z, j)
    floor = _zero_floor(P, z, j, py, klein_j_error_bound(z, j))
    assert np.all(np.abs(v - np.array(exact)) <= floor)


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


@pytest.mark.parametrize("tau, line", [(1.0, "horizontal"),
                                       (0.3, "vertical"),
                                       (0.3, "horizontal"),
                                       (1.0, "vertical")])
def test_line_count_identically_zero_component_is_ambiguous(tau, line):
    # wp is real on both lines, so Im of a real P(wp) vanishes exactly
    # there; it must not count the rounding noise of a complex wp
    with pytest.raises(AmbiguityError):
        line_im_zero_count(poly_y_minus(5.0), tau, line=line,
                           component="Im")


def test_line_count_makes_no_wp_pair_call(monkeypatch):
    def no_pair(*args):
        raise AssertionError("wp_pair called")

    # the half-period values come from wp_pair, so before the patch
    levels = {tau: lattice(tau).half_period_values for tau in (0.3, 1.0)}
    monkeypatch.setattr(elliptic_module, "wp_pair", no_pair)
    for tau, (e1, _, e3) in levels.items():
        assert line_im_zero_count(poly_y_minus(e1 + 5.0), tau,
                                  component="Re") == 2
        assert line_im_zero_count(poly_y_minus(e3 - 5.0), tau,
                                  line="vertical", component="Re") == 2


def test_line_count_validation():
    P = poly_y_minus(1.0)
    with pytest.raises(InvalidSpecError):
        line_im_zero_count(P, 1.0, line="diagonal")
    with pytest.raises(InvalidSpecError):
        line_im_zero_count(P, 1.0, component="Abs")


def test_line_count_against_proposition_bound(rng):
    for _ in range(6):
        P = random_polynomial(rng, int(rng.integers(0, 3)),
                              int(rng.integers(0, 3)), real=True)
        if P.is_zero():
            continue
        d = max(1, P.degree)
        n = line_im_zero_count(P, 1.0, component="Re")
        assert n <= proposition_bound(d)


@pytest.mark.parametrize("tau", [0.3, 1.0, 1.5, 8.0])
def test_line_values_equal_the_complex_horner_pass(tau):
    # the real-arithmetic values have the bits of the complex pass (==
    # treats -0.0 and 0.0 alike); some polynomials have all-zero rows
    rng = np.random.default_rng(int(tau * 10))
    polys = []
    for dx in range(4):
        for dy in range(4):
            for real in (True, False):
                polys.append(random_polynomial(rng, dx, dy, real=real))
                sparse = random_polynomial(rng, dx, dy, real=real).coeffs
                polys.append(BivariatePolynomial(
                    sparse * (rng.random(sparse.shape) < 0.5)))
    for line, direction in (("horizontal", 1.0), ("vertical", 1j)):
        t, w = domains_module._line_grid(tau, line)
        for P in polys:
            full = P.evaluate(direction * t, w)
            for component, take in (("Re", np.real), ("Im", np.imag)):
                got = domains_module._line_values(P, t, w, line, component)
                assert got.shape == t.shape
                assert np.array_equal(got, take(full))


def test_line_count_equals_the_complex_oracle():
    # line_count_suite's draws at seeds 0-19: 1000 trials
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            dx = int(rng.integers(0, 4))
            dy = int(rng.integers(1, 4))
            P = random_polynomial(rng, dx, dy, real=True)
            tau = float(rng.choice([1.0, 1.5]))
            line = "horizontal" if rng.integers(2) else "vertical"
            assert (line_im_zero_count(P, tau, line=line, component="Re")
                    == oracles.line_count_complex(P, tau, line, "Re"))


def test_line_grid_is_shared_and_read_only(monkeypatch):
    sizes = []
    wp_on_line = domains_module.wp_on_line

    def recorded(t, L, line):
        sizes.append(np.size(t))
        return wp_on_line(t, L, line)

    monkeypatch.setattr(domains_module, "wp_on_line", recorded)
    domains_module._line_grid.cache_clear()
    P = BivariatePolynomial([[-3.0, 0.5, 1.0], [2.0, 0.0, -1.0]])
    first = line_im_zero_count(P, 1.0, line="vertical")
    assert 4096 in sizes
    sizes.clear()
    assert line_im_zero_count(P, 1.0, line="vertical") == first
    assert 4096 not in sizes

    t, w = domains_module._line_grid(1.0, "vertical")
    for a in (t, w):
        with pytest.raises(ValueError):
            a[0] = 0.0

    # tau < 1: wp_on_line works on the swapped lattice, the grid spans
    # the vertical line of this one
    tau = 0.3
    t, w = domains_module._line_grid(tau, "vertical")
    assert t.size == 4096 and t[0] == 1e-4 and t[-1] == tau - 1e-4
    swapped = -wp_on_line(t / tau, lattice(1.0 / tau), "horizontal") / tau**2
    scale = np.abs(swapped) + math.sqrt(abs(lattice(tau).g2))
    assert np.all(np.abs(w - swapped) <= 1e-12 * scale)


def test_line_count_close_pair_next_to_a_pole():
    # ((X - 5e-4)^2 - (2e-5)^2) Y has zeros at 4.8e-4 and 5.2e-4, inside
    # one cell of the base grid next to the pole at 0; an unweighted scale
    # there is the pole's growth and never flags that cell
    a, b = 5e-4, 2e-5
    P = BivariatePolynomial([[0.0, a * a - b * b], [0.0, -2.0 * a],
                             [0.0, 1.0]])
    assert line_im_zero_count(P, 1.0, component="Re") == 2


@pytest.mark.parametrize("tau", [0.3, 1.0, 1.5, 8.0])
def test_weighted_line_values_keep_every_sign(tau):
    # line_count_suite's draws at seeds 0-4, and deg_y up to 6
    polys = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            dx = int(rng.integers(0, 4))
            dy = int(rng.integers(1, 4))
            polys.append(random_polynomial(rng, dx, dy, real=True))
            rng.choice([1.0, 1.5])
            rng.integers(2)
    rng = np.random.default_rng(int(tau * 10))
    polys += [random_polynomial(rng, dx, dy, real=real)
              for dx in range(3) for dy in range(7) for real in (True, False)]
    for line in ("horizontal", "vertical"):
        t, w = domains_module._line_grid(tau, line)
        for P in polys:
            for component in ("Re", "Im"):
                got = domains_module._weighted_line_values(P, t, w, line,
                                                           component)
                plain = domains_module._line_values(P, t, w, line, component)
                assert np.array_equal(np.sign(got), np.sign(plain))


def test_weighted_line_values_guard_overflow():
    # |wp| reaches 1e8 at the line ends: (1 + wp^2)^19 is finite there and
    # (1 + wp^2)^19.5 is not
    def y_power_plus_one(d):
        coeffs = np.zeros((1, d + 1))
        coeffs[0, [0, d]] = 1.0
        return BivariatePolynomial(coeffs)

    assert line_im_zero_count(y_power_plus_one(38), 1.0, line="vertical") == 0
    with pytest.raises(PrecisionLossError, match="deg_y = 39"):
        line_im_zero_count(y_power_plus_one(39), 1.0, line="vertical")


def test_weighted_line_values_guard_underflow():
    # X (X - 1/4) Y^38 + 1e-30 at t = 1/4 and wp = 2^26: the Y^38 terms
    # cancel exactly, Re P = 1e-30 while its degree in wp is 38, and the
    # weight, about 2^988, would take the quotient to a false zero
    coeffs = np.zeros((3, 39), dtype=complex)
    coeffs[0, 0], coeffs[1, -1], coeffs[2, -1] = 1e-30, -0.25, 1.0
    P = BivariatePolynomial(coeffs)
    t, w = np.array([0.25]), np.array([2.0**26])
    assert domains_module._line_values(P, t, w, "horizontal", "Re") == 1e-30
    with pytest.raises(PrecisionLossError, match="underflows"):
        domains_module._weighted_line_values(P, t, w, "horizontal", "Re")


@pytest.mark.parametrize("line, component, degree", [
    ("horizontal", "Re", 2), ("horizontal", "Im", 6),
    ("vertical", "Re", 3), ("vertical", "Im", 6)])
def test_component_degree_reads_the_component_own_columns(line, component,
                                                          degree):
    # 1 + 2 Y^2 + i Y^6 + 3i X Y^3: on the vertical line the X row's real
    # and imaginary parts swap components
    coeffs = np.zeros((2, 7), dtype=complex)
    coeffs[0, [0, 2, 6]] = 1.0, 2.0, 1j
    coeffs[1, 3] = 3j
    assert domains_module._component_degree(
        BivariatePolynomial(coeffs), line, component) == degree


def _refined_sizes(monkeypatch):
    """The sizes of every wp_on_line call from here on; the grid's wp
    comes from the cache, so each one is a refinement round."""
    sizes = []
    wp_on_line = domains_module.wp_on_line

    def recorded(t, L, line):
        sizes.append(np.size(t))
        return wp_on_line(t, L, line)

    for line in ("horizontal", "vertical"):
        domains_module._line_grid(1.0, line)
    monkeypatch.setattr(domains_module, "wp_on_line", recorded)
    return sizes


def test_line_count_weighs_by_the_component_degree(monkeypatch):
    # Re of 1 + i Y^6 and of 1e-30 + i Y^38 are constants: weighted by
    # deg_y they decayed next to the poles, so the first was refined on
    # 4879 extra points and the second underflowed; weighted by their own
    # degree 0 they need no refinement
    sizes = _refined_sizes(monkeypatch)
    for top in (6, 38):
        coeffs = np.zeros((1, top + 1), dtype=complex)
        coeffs[0, 0], coeffs[0, -1] = 1.0 if top == 6 else 1e-30, 1j
        assert line_im_zero_count(BivariatePolynomial(coeffs), 1.0,
                                  component="Re") == 0
    # 1 + X Y^6 on the vertical line: Re is 1, Im is t wp^6
    P = BivariatePolynomial([[1.0] + [0.0] * 6, [0.0] * 6 + [1.0]])
    assert line_im_zero_count(P, 1.0, "vertical", "Re") == 0
    assert sizes == []


def test_line_count_equals_the_complex_oracle_on_sparse_draws():
    # sparse complex P, half with a purely imaginary top column, so a
    # component's degree in wp is often below deg_y: the same count, or
    # the same exception
    def outcome(count, *args):
        try:
            return count(*args)
        except MzlError as exc:
            return type(exc).__name__

    rng = np.random.default_rng(33)
    for _ in range(60):
        dx, dy = int(rng.integers(0, 3)), int(rng.integers(1, 7))
        c = rng.standard_normal((dx + 1, dy + 1)) + 1j * rng.standard_normal(
            (dx + 1, dy + 1))
        c *= rng.random((dx + 1, dy + 1)) < 0.5
        c[0, 0] += 1.0
        c[:, -1] = 1j * rng.standard_normal(dx + 1) if rng.integers(2) \
            else c[:, -1] + 1.0
        args = (BivariatePolynomial(c),
                float(rng.choice([0.3, 1.0, 1.5, 8.0])),
                "horizontal" if rng.integers(2) else "vertical",
                "Re" if rng.integers(2) else "Im")
        assert (outcome(line_im_zero_count, *args)
                == outcome(oracles.line_count_complex, *args))


def test_line_count_refines_no_cell_without_a_sign_change(monkeypatch):
    # with the weight these counts need no refinement round
    sizes = _refined_sizes(monkeypatch)
    for P in (BivariatePolynomial([[-3.0, 0.5, 1.0], [2.0, 0.0, -1.0]]),
              poly_y_minus(5.0)):
        for line in ("horizontal", "vertical"):
            line_im_zero_count(P, 1.0, line=line)
    assert sizes == []


def test_line_count_equals_the_complex_oracle_on_wider_draws():
    # deg_x <= 4, deg_y <= 6, real and complex P, four lattices, both
    # lines and both components: the same count, or the same exception
    def outcome(count, *args):
        try:
            return count(*args)
        except MzlError as exc:
            return type(exc).__name__

    rng = np.random.default_rng(2024)
    for _ in range(200):
        P = random_polynomial(rng, int(rng.integers(0, 5)),
                              int(rng.integers(0, 7)),
                              real=bool(rng.integers(2)))
        args = (P, float(rng.choice([0.3, 1.0, 1.5, 8.0])),
                "horizontal" if rng.integers(2) else "vertical",
                "Re" if rng.integers(2) else "Im")
        assert (outcome(line_im_zero_count, *args)
                == outcome(oracles.line_count_complex, *args))


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
    assert set(d["domain"]) == {"tau", "beta", "eta"}
    assert d["domain"]["eta"] == "1e-06"
    assert rep.min_modulus > 0.0
    assert rep.contour_length > 0.0
    assert rep.retries >= 0
    assert rep.epsilon > 0.0
