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

from .errors import CannotPerturbError

# theta scan of the Rouche perturbation: angles on the first pass, and
# the most rounds of local refinement around the best angle
_PERTURB_ANGLES = 64
_PERTURB_REFINE_DEPTH = 6


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
        P(z, f(z)) and its z-derivative, in one Horner pass in which each
        sum starts from its leading coefficient, not from zero."""
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
        return p, px + py * dw

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
    rows = obj["coeffs"]
    c = np.array([[complex(re, im) for re, im in row] for row in rows])
    P = BivariatePolynomial(c)
    if "deg_x" in obj and (P.deg_x, P.deg_y) != (obj["deg_x"], obj["deg_y"]):
        raise ValueError("declared degrees do not match the coefficient array")
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


def perturb_from_values(P: BivariatePolynomial, f, vals,
                        eps: float | None = None) -> PerturbedComposite:
    """Rouche perturbation sized from vals = P(z, f(z)) at the boundary
    samples.

    eps defaults to half the minimum of |P(z, f(z))| over the samples,
    which keeps the interior count unchanged; a caller may pass eps
    explicitly when the composite vanishes on the boundary itself and
    the offset is meant to push that zero to a definite side.  theta is
    scanned over _PERTURB_ANGLES angles (refined locally if needed) so
    the perturbed modulus stays above eps/4 on every sample.
    """
    vals = np.asarray(vals, dtype=complex)
    if vals.size == 0:
        raise ValueError("boundary values must be nonempty")
    if not np.all(np.isfinite(vals)):
        raise ValueError("composite not finite at a boundary sample")
    mods = np.abs(vals)
    if float(mods.max()) == 0.0:
        raise CannotPerturbError("P(z, f(z)) vanishes at every boundary sample")
    if eps is None:
        eps = 0.5 * float(mods.min())
    elif not 0.0 <= eps < np.inf:
        raise ValueError("explicit eps must be finite and nonnegative")

    def score(theta):
        return float(np.abs(vals + eps * np.exp(1j * theta)).min())

    thetas = np.linspace(0.0, 2.0 * np.pi, _PERTURB_ANGLES, endpoint=False)
    scores = [score(t) for t in thetas]
    best = int(np.argmax(scores))
    theta, best_score = float(thetas[best]), scores[best]
    spacing = 2.0 * np.pi / _PERTURB_ANGLES
    depth = 0
    while (best_score <= eps / 4.0 and depth < _PERTURB_REFINE_DEPTH
           and eps > 0.0):
        local = theta + np.linspace(-spacing, spacing, 17)
        scores = [score(t) for t in local]
        best = int(np.argmax(scores))
        theta, best_score = float(local[best]), scores[best]
        spacing /= 8.0
        depth += 1
    if eps > 0.0 and best_score <= eps / 4.0:
        raise CannotPerturbError("no angle kept |P_eps| above eps/4 on the samples")
    return PerturbedComposite(P, f, eps, theta % (2.0 * np.pi))
