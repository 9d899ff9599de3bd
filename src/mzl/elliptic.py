"""Weierstrass p-function machinery for lattices <1, i tau> with tau real.

The invariants g2 = 60 G4 and g3 = 140 G6 are lattice sums taken row by
row: each horizontal row m + i n tau collapses to a closed hyperbolic
form of the cotangent-derivative identity, so the double sum becomes a
single geometrically convergent sum over n.  Evaluation of p and p' uses
reduction to the unit cell, the Laurent series near the pole, and
elliptic-curve point duplication for the annulus the series cannot reach.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleProximityError
from .poly import AnalyticFunction
from .qseries import power_basis_product

LAURENT_TERMS = 64
ZETA4 = math.pi**4 / 90.0
ZETA6 = math.pi**6 / 945.0


def _laurent_coefficients(g2: float, g3: float, K: int = LAURENT_TERMS) -> np.ndarray:
    """c_1..c_K of p(z) = z^-2 + sum c_k z^{2k}."""
    c = np.zeros(K + 1)
    c[1] = g2 / 20.0
    c[2] = g3 / 28.0
    for k in range(3, K + 1):
        s = 0.0
        for m in range(1, k - 1):
            s += c[m] * c[k - 1 - m]
        c[k] = 3.0 * s / ((2 * k + 3) * (k - 2))
    return c[1:]


@dataclass(frozen=True)
class LatticeParams:
    """Invariants of the lattice <1, i tau>, plus cached series data."""

    tau: float
    g2: float
    g3: float
    laurent: np.ndarray

    @property
    def min_period(self) -> float:
        return min(1.0, self.tau)

    @property
    def half_period_values(self) -> tuple[float, float, float]:
        """(e1, e2, e3), descending real roots of 4t^3 - g2 t - g3."""
        roots = np.roots([4.0, 0.0, -self.g2, -self.g3])
        if np.abs(roots.imag).max() > 1e-8 * (1.0 + np.abs(roots.real).max()):
            raise DomainError("half-period values came out non-real")
        vals = np.sort(roots.real)[::-1]
        return float(vals[0]), float(vals[1]), float(vals[2])


def _row_sums(tau: float, rtol: float, max_rows: int) -> tuple[float, float]:
    """(sum_n S4(n), sum_n S6(n)) over n >= 1, where S_k(n) is the full
    horizontal lattice row sum_m (m + i n tau)^-k in closed form."""
    rows4: list[float] = []
    rows6: list[float] = []
    acc4 = acc6 = 0.0
    for n in range(1, max_rows + 1):
        x = math.pi * n * tau
        if x > 300.0:
            break
        ch, sh = math.cosh(x), math.sinh(x)
        ch2 = ch * ch
        r4 = math.pi**4 * (1.0 + 2.0 * ch2) / (3.0 * sh**4)
        r6 = -math.pi**6 * (2.0 + 11.0 * ch2 + 2.0 * ch2 * ch2) / (15.0 * sh**6)
        rows4.append(r4)
        rows6.append(r6)
        acc4 += r4
        acc6 += r6
        if n >= 2 and abs(r4) < rtol * abs(acc4) and abs(r6) < rtol * abs(acc6):
            break
    return math.fsum(rows4), math.fsum(rows6)


def wp_invariants(tau: float, tau_min: float = 0.1, tau_max: float = 10.0,
                  rtol: float = 1e-16, max_rows: int = 4000) -> LatticeParams:
    """LatticeParams for <1, i tau>; g2, g3 are real by construction."""
    tau = float(tau)
    if not tau_min <= tau <= tau_max:
        raise DomainError(f"tau={tau} outside [{tau_min}, {tau_max}]")
    s4, s6 = _row_sums(tau, rtol, max_rows)
    g2 = 60.0 * (2.0 * ZETA4 + 2.0 * s4)
    g3 = 140.0 * (2.0 * ZETA6 + 2.0 * s6)
    return LatticeParams(tau, g2, g3, _laurent_coefficients(g2, g3))


@lru_cache(maxsize=64)
def lattice(tau: float) -> LatticeParams:
    return wp_invariants(tau)


def reduce_to_cell(z, tau: float):
    """Translate z by the lattice into the cell centered on a lattice point."""
    z = np.asarray(z, dtype=complex)
    return z - np.round(z.real) - 1j * tau * np.round(z.imag / tau)


def _laurent_pair(w, L: LatticeParams):
    """p and p' from the Laurent series in u = w^2, as the two columns of
    one power-basis product: p = 1/u + u sum c_{k+1} u^k and
    p' = -2/(u w) + w sum 2 (k+1) c_{k+1} u^k."""
    u = w * w
    c = L.laurent
    C = np.column_stack([c, c * (2.0 * np.arange(1, c.size + 1))])
    s, ds = power_basis_product(u, C)
    return 1.0 / u + u * s, -2.0 / (u * w) + w * ds


def wp_pair(z, L: LatticeParams, pole_tol: float = 1e-8):
    """(p(z), p'(z)), vectorized; z must stay pole_tol away from the lattice."""
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    z0 = reduce_to_cell(np.atleast_1d(zs), L.tau)
    dist = np.abs(z0)
    if np.any(dist < pole_tol):
        raise PoleProximityError("z too close to a lattice point",
                                 float(dist.min()))
    r = 0.45 * L.min_period
    k = np.zeros(z0.shape, dtype=int)
    big = dist > r
    if np.any(big):
        k[big] = np.ceil(np.log2(dist[big] / r)).astype(int)
    w = z0 / (2.0**k)
    p, dp = _laurent_pair(w, L)
    for i in range(int(k.max()) if k.size else 0):
        mask = k > i
        pm, dpm = p[mask], dp[mask]
        slope = (12.0 * pm * pm - L.g2) / (2.0 * dpm)
        p2 = slope * slope / 4.0 - 2.0 * pm
        dp2 = -(dpm + slope * (p2 - pm))
        p[mask] = p2
        dp[mask] = dp2
    if scalar:
        return complex(p[0]), complex(dp[0])
    return p, dp


def wp_eval(z, L: LatticeParams, pole_tol: float = 1e-8):
    return wp_pair(z, L, pole_tol)[0]


def wp_prime(z, L: LatticeParams, pole_tol: float = 1e-8):
    return wp_pair(z, L, pole_tol)[1]


def wp_analytic(L: LatticeParams) -> AnalyticFunction:
    return AnalyticFunction(lambda z: wp_eval(z, L),
                            lambda z: wp_prime(z, L), name="wp")
