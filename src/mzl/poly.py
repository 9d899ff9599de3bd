"""Bivariate complex polynomials and their composition with analytic functions.

A polynomial P(X, Y) is stored densely; the composite P(z, f(z)) and its
z-derivative are what the contour machinery consumes.  The inner f is a
pair callable, f(z) -> (f(z), f'(z)).  The Rouche perturbation
P + eps*e^{i theta} lives here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CannotPerturbError, InvalidSpecError

# angles of the theta scan of the Rouche perturbation
_PERTURB_ANGLES = 64
# the most (angle, sample) pairs one array op of the scan holds
_SCAN_BLOCK = 8192


class BivariatePolynomial:
    """P(X, Y) with complex coefficients, indexed coeffs[i, j] for X^i Y^j.

    Trailing all-zero rows and columns are trimmed so deg_x/deg_y reflect
    the true degrees.  Evaluation is Horner in Y inside Horner in X.
    """

    def __init__(self, coeffs):
        c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 2:
            raise ValueError("coeffs must be a 2-D array")
        # trim trailing zero rows/columns; keep a 1x1 zero for the zero poly
        while c.shape[0] > 1 and not c[-1].any():
            c = c[:-1]
        while c.shape[1] > 1 and not c[:, -1].any():
            c = c[:, :-1]
        self.coeffs = c
        self.coeffs.setflags(write=False)

    @property
    def deg_x(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg_y(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def degree(self) -> int:
        """Max degree in either variable (the d of the zero bounds)."""
        return max(self.deg_x, self.deg_y)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def evaluate(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        acc = np.zeros(np.broadcast(z, w).shape, dtype=complex)
        for row in self.coeffs[::-1]:
            inner = np.zeros_like(acc)
            for c in row[::-1]:
                inner = inner * w + c
            acc = acc * z + inner
        return acc

    def evaluate_pair(self, z, w, dw):
        """P(z, w) and P_X(z, w) + P_Y(z, w) dw: with w = f(z), dw = f'(z),
        P(z, f(z)) and its z-derivative (see evaluate_partials)."""
        p, px, py = self.evaluate_partials(z, w)
        return p, px + py * dw

    def evaluate_partials(self, z, w):
        """P(z, w), P_X(z, w) and P_Y(z, w) in one Horner pass in which
        each sum starts from its leading coefficient, not from zero."""
        p = px = py = 0.0
        for i, row in enumerate(self.coeffs[::-1]):
            a, da = row[-1], 0.0
            for k, c in enumerate(row[-2::-1]):
                da = da * w + a if k else a
                a = a * w + c
            px = px * z + p if i > 1 else p
            py = py * z + da if i else da
            p = p * z + a if i else a
        if np.ndim(p) == 0:  # P is a constant
            p = np.full(np.broadcast(z, w).shape, p, dtype=complex)
        return p, px, py

    def partial_x(self) -> "BivariatePolynomial":
        if self.deg_x == 0:
            return BivariatePolynomial([[0.0]])
        i = np.arange(1, self.deg_x + 1)
        return BivariatePolynomial(self.coeffs[1:] * i[:, None])

    def partial_y(self) -> "BivariatePolynomial":
        if self.deg_y == 0:
            return BivariatePolynomial([[0.0]])
        j = np.arange(1, self.deg_y + 1)
        return BivariatePolynomial(self.coeffs[:, 1:] * j[None, :])

    def leading_y_term(self) -> tuple[int, np.ndarray]:
        """The largest l with a nonzero Y^l coefficient, and that
        coefficient as a 1-D polynomial in X (ascending)."""
        for j in range(self.deg_y, -1, -1):
            col = self.coeffs[:, j]
            if col.any():
                return j, np.array(col)
        return 0, np.array(self.coeffs[:, 0])

    def __repr__(self) -> str:
        return f"BivariatePolynomial(deg_x={self.deg_x}, deg_y={self.deg_y})"


def polynomial_to_json(P: BivariatePolynomial) -> dict:
    return {
        "deg_x": P.deg_x,
        "deg_y": P.deg_y,
        "coeffs": [[[float(c.real), float(c.imag)] for c in row]
                   for row in P.coeffs],
    }


def polynomial_from_json(obj: dict) -> BivariatePolynomial:
    """The inverse of polynomial_to_json; InvalidSpecError unless obj has
    a nonempty rectangular array of finite [re, im] pairs under "coeffs"
    and degrees, if declared, that match it."""
    try:
        c = np.array([[complex(re, im) for re, im in row]
                      for row in obj["coeffs"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpecError(f"malformed polynomial: {exc!r}") from None
    if c.ndim != 2 or c.size == 0:
        raise InvalidSpecError("coeffs must be a nonempty array of rows")
    if not np.all(np.isfinite(c)):
        raise InvalidSpecError("coeffs must be finite")
    P = BivariatePolynomial(c)
    degrees = (P.deg_x, P.deg_y)
    if (obj.get("deg_x", P.deg_x), obj.get("deg_y", P.deg_y)) != degrees:
        raise InvalidSpecError(
            "declared degrees do not match the coefficient array")
    return P


def eval_composed(P: BivariatePolynomial, f, z):
    """P(z, f(z)) for the pair callable f; failures of f (poles) propagate."""
    return P.evaluate(z, f(z)[0])


@dataclass(frozen=True)
class PerturbedComposite:
    """P(z, f(z)) + eps*e^{i theta} with its z-derivative.

    eps = 0 reproduces the unperturbed composite exactly.
    """

    base: BivariatePolynomial
    inner: Callable
    epsilon: float
    theta: float

    @cached_property
    def offset(self) -> complex:
        return self.epsilon * np.exp(1j * self.theta)

    def pair(self, z):
        """(value, derivative) at z from one call of the inner pair."""
        v, dv = self.base.evaluate_pair(z, *self.inner(z))
        return v + self.offset, dv

    def value(self, z):
        return self.pair(z)[0]


def perturb(P: BivariatePolynomial, f, boundary_samples) -> PerturbedComposite:
    """Rouche perturbation sized from P(z, f(z)) at the boundary samples;
    see perturb_from_values."""
    zs = np.asarray(boundary_samples, dtype=complex)
    if zs.size == 0:
        raise ValueError("boundary_samples must be nonempty")
    return perturb_from_values(P, f, eval_composed(P, f, zs))


def perturb_from_values(P: BivariatePolynomial, f, vals) -> PerturbedComposite:
    """Rouche perturbation sized from vals = P(z, f(z)) at the boundary
    samples.

    eps is half the minimum of |P(z, f(z))| over vals, and theta the one
    of _PERTURB_ANGLES scanned angles with the largest min |v + eps
    e^{i theta}|.  Every sample keeps |v + eps e^{i theta}| >= |v| - eps
    >= eps at any theta, and the offset changes no winding while
    |P(z, f(z))| > eps on the contour.  The caller passes no sample
    where the composite is numerically zero; with every value zero there
    is nothing to size eps from (CannotPerturbError).
    """
    vals = np.asarray(vals, dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("composite not finite at a boundary sample")
    mods = np.abs(vals)
    if not mods.any():
        raise CannotPerturbError("P(z, f(z)) vanishes at every boundary sample")
    eps = 0.5 * float(mods.min())

    # every angle's minimum is at most min |v| + eps = 3 eps, and
    # |v + eps e^{i theta}| >= |v| - eps, so no sample above 4 eps can
    # attain a minimum (the margin covers rounding); dropping them leaves
    # every minimum exact
    near = vals[mods <= 4.0 * eps * (1.0 + 1e-9)]
    rows = max(1, _SCAN_BLOCK // near.size)
    thetas = np.linspace(0.0, 2.0 * np.pi, _PERTURB_ANGLES, endpoint=False)
    offsets = eps * np.exp(1j * thetas)[:, None]
    scores = np.concatenate([np.abs(near + offsets[i:i + rows]).min(axis=1)
                             for i in range(0, thetas.size, rows)])
    return PerturbedComposite(P, f, eps, float(thetas[int(np.argmax(scores))]))
