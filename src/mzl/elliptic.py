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

On the lattice lines through 0, p is real, and wp_on_line sums the same
rows in real arithmetic, values only.  On the real axis, u = e^{2 pi i x}
gives u/(1-u)^2 = -1/(4 sin^2 pi x), and row m pairs into one real term:
with a = q^m and c = cos 2 pi x,

    q^m u/(1-q^m u)^2 + q^m u^-1/(1-q^m u^-1)^2
        = 2a (c (1+a^2) - 2a) / (1 - 2ac + a^2)^2.

On the imaginary axis, z = iy, u = e^{-2 pi y} is real, and so is every
row.  For tau < 1 the swap w = -iz/tau maps each line to the other one:
the real axis of <1, i tau> to the imaginary axis of <1, i/tau>, and its
imaginary axis to the real one.  The point is reduced by its own line's
period (1 or tau) before the swap, as in wp_pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InvalidSpecError, PoleProximityError
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
        """(e1, e2, e3) = p at 1/2, 1/2 + i tau/2 and i tau/2, from wp_pair;
        on a rectangular lattice they are real and descend in this order."""
        p = wp_pair(np.array([0.5, 0.5 + 0.5j * self.tau, 0.5j * self.tau]),
                    self)[0].real
        return float(p[0]), float(p[1]), float(p[2])

    @cached_property
    def _rows(self):
        """(qm, const) of the lattice <1, i t>, t = max(tau, 1/tau), that
        wp_pair sums on: the column q^1..q^M and the constant
        1/12 - 2 sum q^m/(1-q^m)^2 of the bracket of p."""
        t = 1.0 / self.tau if self.tau < 1.0 else self.tau
        qm = np.exp(-TWO_PI * t * np.arange(1, self.terms + 1))[:, None]
        qm.flags.writeable = False
        return qm, 1.0 / 12.0 - 2.0 * float((qm / (1.0 - qm) ** 2).sum())

    @cached_property
    def _error_terms(self) -> tuple[float, float]:
        """(k u, A) of wp_error_bound: k = 2M + 14 units of rounding per
        unit of |p| + A, and A = |c| (2 R + 2 |const| + 1), with c the
        factor wp_pair multiplies the bracket by and R = 2 s / ((1-s)^2
        (1-s^2)) a bound on sum_m |q^m u/(1-q^m u)^2| + |q^m u^-1/(1-q^m
        u^-1)^2| at reduced z, s = e^{-pi t}."""
        t = 1.0 / self.tau if self.tau < 1.0 else self.tau
        c = 4.0 * math.pi**2 / min(self.tau, 1.0) ** 2
        s = math.exp(-math.pi * t)
        R = 2.0 * s / ((1.0 - s) ** 2 * (1.0 - s * s))
        return ((2 * self.terms + 14) * UNIT_ROUNDOFF,
                c * (2.0 * R + 2.0 * abs(self._rows[1]) + 1.0))


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


def _brackets(w, qm, const):
    """The brackets of p and p' at reduced points w, as a (2, n) array;
    qm and const are LatticeParams._rows."""
    em1 = np.expm1((2j * math.pi) * w)          # u - 1
    u = em1 + 1.0
    v = np.concatenate([qm * u, qm * (1.0 / u)])  # q^m u, then q^m / u
    iv = 1.0 / (1.0 - v)
    r = v * iv * iv
    dr = r * (1.0 + v) * iv
    M = qm.shape[0]
    ie = 1.0 / em1
    r0 = u * ie * ie
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
        w = -1j * z0 / L.tau
        cp, cd = 4.0 * math.pi**2 / L.tau**2, 8.0 * math.pi**3 / L.tau**3
    else:
        w = z0
        cp, cd = -4.0 * math.pi**2, -8j * math.pi**3   # (2 pi i)^2, ^3
    w = w.ravel()
    p, dp = np.concatenate([_brackets(w[i:i + _BLOCK], *L._rows)
                            for i in range(0, max(w.size, 1), _BLOCK)],
                           axis=1)
    p, dp = (cp * p).reshape(z0.shape), (cd * dp).reshape(z0.shape)
    if scalar:
        return complex(p[0]), complex(dp[0])
    return p, dp


def wp_error_bound(z, p, dp, L: LatticeParams):
    """A bound on |p - wp(z)| for p, dp = wp_pair(z, L), from |p|, |dp|,
    |z| and constants of L alone, so that it costs no second sum.

    wp_pair gives c B, with B the bracket r_0 + sum_m r_m + const over the
    2M + 2 terms of the module docstring.  Its error has two parts.
    - Rounding, about a dozen units per term for forming it and one per
      term for the sum (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., 4.2), on sum |terms| <= |B| + 2 R + 2 |const|;
      plus the tail, below 1/12 unit, and the few units of absolute error
      that u = expm1 + 1 carries where |u| is small: k u (|p| + A) with
      (k u, A) = L._error_terms.
    - The rounding of the reduced point and of 2 pi i z: at most
      u (|z| + tau + 1) in the argument of p, that is 2 u |p'| (|z| + tau
      + 1) with a factor 2 to spare.
    """
    ku, A = L._error_terms
    return (ku * (np.abs(p) + A)
            + 2.0 * UNIT_ROUNDOFF * np.abs(dp) * (np.abs(z) + L.tau + 1.0))


def _real_axis_bracket(x, qm, const):
    """The bracket of p at real reduced x: -1/(4 sin^2 pi x), the paired
    rows 2a (c (1+a^2) - 2a) / (1 - 2ac + a^2)^2 and const."""
    s2 = np.sin(math.pi * x) ** 2
    c = 1.0 - 2.0 * s2                          # cos 2 pi x
    a2, b = 2.0 * qm, 1.0 + qm * qm
    den = b - a2 * c
    rows = a2 * (b * c - a2) / (den * den)
    return rows.sum(axis=0) + const - 0.25 / s2


def _imaginary_axis_bracket(y, qm, const):
    """The bracket of p at z = iy, y real and reduced: u = e^{-2 pi y}."""
    em1 = np.expm1(-TWO_PI * y)                 # u - 1
    u = em1 + 1.0
    v = np.concatenate([qm * u, qm / u])
    iv = 1.0 / (1.0 - v)
    return (v * iv * iv).sum(axis=0) + const + u / (em1 * em1)


def wp_on_line(t, L: LatticeParams, line: str):
    """p(t) on the horizontal line or p(it) on the vertical line, for real
    t, as a float array (float for scalar t); values only, in real
    arithmetic.  t must stay _POLE_TOL off the lattice."""
    if line not in ("horizontal", "vertical"):
        raise InvalidSpecError("line must be horizontal or vertical")
    ts = np.asarray(t, dtype=float)
    horizontal = line == "horizontal"
    period = 1.0 if horizontal else L.tau
    r = np.atleast_1d(ts - period * np.round(ts / period)).ravel()
    dist = np.abs(r)
    if np.any(dist < _POLE_TOL):
        raise PoleProximityError("z too close to a lattice point",
                                 float(dist.min()))
    if L.tau < 1.0:
        # p(z; tau) = -tau^-2 p(-iz/tau; 1/tau); p is even, so the real
        # axis maps to i r/tau and the imaginary axis to r/tau
        r, horizontal = r / L.tau, not horizontal
        scale = 4.0 * math.pi**2 / L.tau**2
    else:
        scale = -4.0 * math.pi**2                   # (2 pi i)^2
    bracket = _real_axis_bracket if horizontal else _imaginary_axis_bracket
    out = np.empty(r.size)
    step = 2 * _BLOCK      # real rows: the bytes of a complex _BLOCK
    for i in range(0, r.size, step):
        out[i:i + step] = bracket(r[i:i + step], *L._rows)
    out *= scale
    if ts.ndim == 0:
        return float(out[0])
    return out.reshape(ts.shape)


@lru_cache(maxsize=64)
def wp_analytic(L: LatticeParams):
    # the one pair callable of wp on L, so it can key a memo; wp_pair by
    # name, so a wrapper on the module attribute sees each call
    return lambda z: wp_pair(z, L)


@lru_cache(maxsize=64)
def wp_error_analytic(L: LatticeParams):
    # the one bound callable (z, p, dp) -> wp_error_bound(z, p, dp, L) on
    # L, so it can key a memo, as wp_analytic does
    return lambda z, p, dp: wp_error_bound(z, p, dp, L)
