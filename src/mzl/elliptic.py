"""Weierstrass p-function on lattices <1, i tau> with tau real, from q-series.

With u = e^{2 pi i z} and q = e^{-2 pi tau}, the row sums of DLMF 23.8
give

    p(z) = (2 pi i)^2 [1/12 + u/(1-u)^2 + sum_{m>=1} (q^m u/(1-q^m u)^2
           + q^m u^-1/(1-q^m u^-1)^2 - 2 q^m/(1-q^m)^2)],

and p' term by term.  z is first reduced to the cell centered on 0, so
|q^m u^{+-1}| <= |q|^{m-1/2}.  For tau < 1 the swapped lattice <1, i/tau>
is used instead, p(z; tau) = -tau^-2 p(-iz/tau; 1/tau), so |q| <= e^{-2 pi}
always.  The term count is fixed per lattice from a geometric tail bound,
and 1 - u is taken as -expm1(2 pi i z), so nothing cancels next to the
pole.  g2 and g3 are the Eisenstein series Q and R on the same nome.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleProximityError
from .qseries import UNIT_ROUNDOFF, standard_series

TAU_RANGE = (0.1, 10.0)
TWO_PI = 2.0 * math.pi
_POLE_TOL = 1e-8


def _tail_bound(t: float, M: int) -> float:
    """Bound on what the rows m > M add to the bracket of p, or to that
    of p', on the lattice <1, i t> with t >= 1.  With s = e^{-pi t}, a
    reduced z has |q^m u^{+-1}| <= s^{2m-1} and |q^m| = s^{2m}, so row m
    adds at most 4 s^{2m-1} / (1-s)^3 to either bracket, and the rows
    past M at most 4 s^{2M+1} / ((1-s)^3 (1-s^2))."""
    s = math.exp(-math.pi * t)
    return 4.0 * s ** (2 * M + 1) / ((1.0 - s) ** 3 * (1.0 - s * s))


def _term_count(t: float) -> int:
    """The smallest M whose tail bound is below the rounding of the
    constant term 1/12 of the bracket."""
    M = 0
    while _tail_bound(t, M) > UNIT_ROUNDOFF / 12.0:
        M += 1
    return M


@dataclass(frozen=True)
class LatticeParams:
    """Invariants of the lattice <1, i tau>, and the number of q-series
    rows wp_pair sums for it."""

    tau: float
    g2: float
    g3: float
    terms: int

    @property
    def half_period_values(self) -> tuple[float, float, float]:
        """(e1, e2, e3), descending real roots of 4t^3 - g2 t - g3."""
        roots = np.roots([4.0, 0.0, -self.g2, -self.g3])
        if np.abs(roots.imag).max() > 1e-8 * (1.0 + np.abs(roots.real).max()):
            raise DomainError("half-period values came out non-real")
        vals = np.sort(roots.real)[::-1]
        return float(vals[0]), float(vals[1]), float(vals[2])


def wp_invariants(tau: float) -> LatticeParams:
    """LatticeParams for <1, i tau>: g2 = (4 pi^4/3) Q(q) and
    g3 = (8 pi^6/27) R(q) with q = e^{-2 pi t}, t = max(tau, 1/tau); on
    the swapped lattice g2 scales by tau^-4 and g3 by -tau^-6."""
    tau = float(tau)
    lo, hi = TAU_RANGE
    if not lo <= tau <= hi:
        raise DomainError(f"tau={tau} outside [{lo}, {hi}]")
    t = max(tau, 1.0 / tau)
    s = standard_series()
    q = math.exp(-TWO_PI * t)
    g2 = 4.0 * math.pi**4 / 3.0 * complex(s["Q"].eval(q)).real
    g3 = 8.0 * math.pi**6 / 27.0 * complex(s["R"].eval(q)).real
    if tau < 1.0:
        g2, g3 = g2 / tau**4, -g3 / tau**6
    return LatticeParams(tau, g2, g3, _term_count(t))


@lru_cache(maxsize=64)
def lattice(tau: float) -> LatticeParams:
    return wp_invariants(tau)


def reduce_to_cell(z, tau: float):
    """Translate z by the lattice into the cell centered on a lattice point."""
    z = np.asarray(z, dtype=complex)
    return z - np.round(z.real) - 1j * tau * np.round(z.imag / tau)


# Points per block of the (2M, n) row arrays.  M <= 6 (t = 1 needs the
# most rows), so a block's arrays stay under 100 kB.  At 4096 points and
# tau 1 or 1.5, blocks of 512 took about half the time of one block and
# 0.55-0.65 of the time of blocks of 128.
_BLOCK = 512


def _brackets(w, qm):
    """The brackets of p and p' at reduced points w, as a (2, n) array;
    qm is the column q^1..q^M."""
    em1 = np.expm1((2j * math.pi) * w)          # u - 1
    u = em1 + 1.0
    v = np.concatenate([qm * u, qm * (1.0 / u)])  # q^m u, then q^m / u
    iv = 1.0 / (1.0 - v)
    r = v * iv * iv
    dr = r * (1.0 + v) * iv
    M = qm.shape[0]
    ie = 1.0 / em1
    r0 = u * ie * ie
    const = 1.0 / 12.0 - 2.0 * float((qm / (1.0 - qm) ** 2).sum())
    return np.array([r0 + r.sum(axis=0) + const,
                     -r0 * (1.0 + u) * ie + dr[:M].sum(axis=0)
                     - dr[M:].sum(axis=0)])


def wp_pair(z, L: LatticeParams):
    """(p(z), p'(z)), vectorized; z must stay _POLE_TOL off the lattice."""
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    z0 = reduce_to_cell(np.atleast_1d(zs), L.tau)
    dist = np.abs(z0)
    if np.any(dist < _POLE_TOL):
        raise PoleProximityError("z too close to a lattice point",
                                 float(dist.min()))
    if L.tau < 1.0:
        # p(z; tau) = -tau^-2 p(w; 1/tau), p'(z; tau) = i tau^-3 p'(w; 1/tau)
        t, w = 1.0 / L.tau, -1j * z0 / L.tau
        cp, cd = 4.0 * math.pi**2 / L.tau**2, 8.0 * math.pi**3 / L.tau**3
    else:
        t, w = L.tau, z0
        cp, cd = -4.0 * math.pi**2, -8j * math.pi**3   # (2 pi i)^2, ^3
    qm = np.exp(-TWO_PI * t * np.arange(1, L.terms + 1))[:, None]
    w = w.ravel()
    p, dp = np.concatenate([_brackets(w[i:i + _BLOCK], qm)
                            for i in range(0, max(w.size, 1), _BLOCK)],
                           axis=1)
    p, dp = (cp * p).reshape(z0.shape), (cd * dp).reshape(z0.shape)
    if scalar:
        return complex(p[0]), complex(dp[0])
    return p, dp


def wp_analytic(L: LatticeParams):
    # the pair callable of wp on L; wp_pair by name, so a wrapper on the
    # module attribute sees each call
    return lambda z: wp_pair(z, L)
