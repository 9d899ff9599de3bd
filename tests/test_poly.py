"""Bivariate polynomials, composition, and the Rouche perturbation."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from mzl.contour import circle_contour, winding_number
from mzl.domains import JDomainSpec, build_j_contour, random_polynomial
from mzl.elliptic import wp_pair
from mzl.errors import CannotPerturbError
from mzl.poly import (BivariatePolynomial, PerturbedComposite, eval_composed,
                      perturb, polynomial_from_json, polynomial_to_json)

IDENTITY = lambda z: (z, np.ones_like(z))


def _poly(rows):
    return BivariatePolynomial(np.array(rows, dtype=complex))


def test_eval_composed_projection():
    P = _poly([[0.0], [1.0]])  # P = X
    got = eval_composed(P, IDENTITY, 3 + 4j)
    assert got == 3 + 4j


def test_eval_composed_cancellation(rng):
    P = _poly([[0.0, 1.0], [-1.0, 0.0]])  # P = Y - X
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        assert eval_composed(P, IDENTITY, z) == 0


def test_eval_composed_j_at_i(jfun):
    # oracle: eta-product j series at higher truncation than the library's
    P = _poly([[0.0, 1.0]])  # P = Y
    expected = oracles.j_eval_eta(1j)
    assert abs(expected - 1728) < 1e-9
    assert abs(eval_composed(P, jfun, 1j) - 1728) < 1e-6


def test_horner_matches_naive(rng):
    for _ in range(40):
        dx, dy = rng.integers(0, 7), rng.integers(0, 7)
        c = rng.normal(size=(dx + 1, dy + 1)) \
            + 1j * rng.normal(size=(dx + 1, dy + 1))
        P = BivariatePolynomial(c)
        x = complex(*rng.uniform(-2, 2, 2))
        y = complex(*rng.uniform(-2, 2, 2))
        ref = oracles.naive_poly_eval(P.coeffs, x, y)
        assert abs(P.evaluate(x, y) - ref) <= 1e-12 * (1.0 + abs(ref))


@pytest.mark.parametrize("dx, dy", [(0, 0), (0, 1), (0, 4), (1, 0), (3, 0),
                                    (1, 1), (2, 3), (4, 2)])
def test_evaluate_pair_matches_the_partials(rng, dx, dy):
    c = rng.normal(size=(dx + 1, dy + 1)) \
        + 1j * rng.normal(size=(dx + 1, dy + 1))
    P = BivariatePolynomial(c)
    z, w, dw = (rng.uniform(-2, 2, (3, 33)) + 1j * rng.uniform(-2, 2, (3, 33)))
    v, dv = P.evaluate_pair(z, w, dw)
    ref = P.partial_x().evaluate(z, w) + P.partial_y().evaluate(z, w) * dw
    scale = BivariatePolynomial(np.abs(c)).evaluate(np.abs(z), np.abs(w))
    assert v.shape == dv.shape == z.shape
    assert np.all(np.abs(v - P.evaluate(z, w)) <= 1e-14 * scale.real)
    assert np.all(np.abs(dv - ref)
                  <= 1e-13 * (1.0 + np.abs(dw)) * (1.0 + np.abs(z)
                                                   + np.abs(w)) * scale.real)


def _derivative(P, f, z):
    """d/dz P(z, f(z)) from the unperturbed composite."""
    return PerturbedComposite(P, f, 0.0, 0.0).pair(z)[1]


def test_derivative_composed_chain_rule(lat1):
    P = _poly([[0.0, 1.0]])  # P = Y, so d/dz P(z, wp(z)) = wp'(z)
    wp = lambda z: wp_pair(z, lat1)
    z = 0.31 + 0.42j
    assert abs(_derivative(P, wp, z) - wp_pair(z, lat1)[1]) < 1e-12


def test_derivative_composed_product_rule():
    P = _poly([[0.0, 0.0], [0.0, 1.0]])  # P = X*Y
    a, b, z0 = 2.5 - 1j, 0.75 + 0.25j, 1.2 + 0.3j
    f = lambda z: (a, b)
    assert abs(_derivative(P, f, z0) - (a + z0 * b)) < 1e-12


def test_derivative_composed_central_difference(rng, lat1, jfun):
    wp = lambda z: wp_pair(z, lat1)
    for _ in range(15):
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        P = BivariatePolynomial(c)
        z = complex(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
        fd = oracles.central_difference(lambda w: eval_composed(P, wp, w), z)
        got = _derivative(P, wp, z)
        assert abs(got - fd) < 1e-6 * (1.0 + abs(got))
        zj = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.8))
        fd = oracles.central_difference(lambda w: eval_composed(P, jfun, w),
                                        zj)
        got = _derivative(P, jfun, zj)
        assert abs(got - fd) < 1e-6 * (1.0 + abs(got))


def test_perturb_epsilon_is_half_min():
    P = _poly([[0.0, 1.0]])  # P = Y
    two = lambda z: (np.full_like(np.asarray(z, dtype=complex), 2.0),
                     np.zeros_like(np.asarray(z, dtype=complex)))
    pert = perturb(P, two, [0.0, 1.0, 1j])
    assert pert.epsilon == pytest.approx(1.0)


def test_perturb_zero_epsilon_reproduces_composite(jfun):
    P = _poly([[-100.0, 1.0]])
    pert = PerturbedComposite(P, jfun, 0.0, 0.0)
    z = 0.2 + 1.1j
    assert pert.value(z) == eval_composed(P, jfun, z)
    assert pert.pair(z)[1] == P.evaluate_pair(z, *jfun(z))[1]


def test_perturb_identically_zero_rejected(jfun):
    P = BivariatePolynomial(np.zeros((1, 1), dtype=complex))
    with pytest.raises(CannotPerturbError):
        perturb(P, jfun, [1j, 2j])


def test_perturb_margin_on_fresh_samples(rng, jfun):
    # spec margin: |P_eps| > eps/4 at dense fresh boundary samples
    contour = build_j_contour(JDomainSpec(Y=2.5))
    coarse = contour.sample(128)
    fine = contour.sample(2500)
    for _ in range(5):
        P = random_polynomial(rng, 2, 2)
        pert = perturb(P, jfun, coarse)
        vals = np.abs(pert.value(fine))
        assert vals.min() > pert.epsilon / 4.0


def test_rouche_winding_invariance(rng, jfun):
    # perturbation must not change the winding when the unperturbed
    # composite is nonzero on the contour
    contour = circle_contour(0.1 + 1.2j, 0.25)
    samples = contour.sample(256)
    for _ in range(8):
        P = random_polynomial(rng, 1, 1)
        base = lambda z, P=P: (eval_composed(P, jfun, z),
                               _derivative(P, jfun, z))
        w0 = winding_number(base, contour).winding
        pert = perturb(P, jfun, samples)
        assert winding_number(pert.pair, contour).winding == w0


def test_polynomial_json_roundtrip(rng):
    P = random_polynomial(rng, 3, 2)
    Q = polynomial_from_json(polynomial_to_json(P))
    assert np.array_equal(P.coeffs, Q.coeffs)
    assert Q.deg_x == 3 and Q.deg_y == 2 and Q.degree == 3


def test_partials_and_leading_term():
    # P = 2 X^2 Y + 3 Y^2 - 5
    P = _poly([[-5.0, 0.0, 3.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    x, y = 1.3 - 0.2j, 0.7 + 0.4j
    assert abs(P.partial_x().evaluate(x, y) - 4 * x * y) < 1e-12
    assert abs(P.partial_y().evaluate(x, y) - (2 * x**2 + 6 * y)) < 1e-12
    l, col = P.leading_y_term()
    assert l == 2
    assert np.array_equal(col, np.array([3.0, 0.0, 0.0], dtype=complex))
