"""Gauss hypergeometric series, Klein's j and its inverse.

Everything is evaluated from truncated series with computed tail bounds.
j is assembled as Q(q)^3 / Delta(q) from the exact-integer coefficient
tables in qseries, and its tau-derivative as -2 pi i Q^2 R / Delta from
the same sums.  The inverse of J(t) = j(it) on x >= 1728 is the ratio of
two sextic hypergeometric values.
"""
from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import AsymptoticFallbackWarning, DomainError, PrecisionLossError
from .qseries import (UNIT_ROUNDOFF, max_abs, power_basis_product,
                      standard_series)

TWO_PI = 2.0 * math.pi
SEXTIC_A, SEXTIC_B = 1.0 / 6.0, 5.0 / 6.0


def _is_nonpositive_integer(c: float) -> bool:
    return c <= 0 and abs(c - round(c)) < 1e-12


def _hyp_series(a: float, b: float, c: float, d: float, z,
                rtol: float = 1e-14, max_terms: int = 200000):
    """sum_m w_m with w_0 = 1 and w_{m+1}/w_m = z (a+m)(b+m)/((c+m)(d+m)).

    Requires c, d > 0.  Returns (value, max absolute tail bound); the tail
    bound comes from the geometric majorant ratio
    |z| (n+|a|)(n+|b|)/n^2 >= |w_{k+1}/w_k| for all k >= n.
    """
    z = np.asarray(z, dtype=complex)
    amax = float(np.abs(z).max()) if z.size else 0.0
    term = np.ones_like(z)
    acc = np.ones_like(z)
    aa, ab = abs(a), abs(b)
    n = 0
    tail = np.inf
    while n < max_terms:
        term = term * (z * ((a + n) * (b + n) / ((c + n) * (d + n))))
        acc = acc + term
        n += 1
        r = amax * (n + aa) * (n + ab) / (n * n)
        if r < 1.0:
            tail = np.abs(term) * (r / (1.0 - r))
            if np.all(tail <= rtol * (np.abs(acc) + 1e-290)):
                return acc, float(np.max(tail))
    achieved = float(np.max(tail / (np.abs(acc) + 1e-290)))
    raise PrecisionLossError("hypergeometric series did not converge", achieved)


def hyp2f1(a: float, b: float, c: float, z, rtol: float = 1e-14,
           delta: float = 1e-3, max_terms: int = 200000):
    """2F1(a, b, c; z) for |z| <= 1 - delta, c not a non-positive integer."""
    val, _ = hyp2f1_with_bound(a, b, c, z, rtol, delta, max_terms)
    return val


def hyp2f1_with_bound(a: float, b: float, c: float, z, rtol: float = 1e-14,
                      delta: float = 1e-3, max_terms: int = 200000):
    if _is_nonpositive_integer(c):
        raise DomainError(f"c={c} is a non-positive integer")
    zs = np.asarray(z, dtype=complex)
    amax = float(np.abs(zs).max()) if zs.size else 0.0
    if amax > 1.0 - delta:
        raise PrecisionLossError(
            f"|z|={amax:.6f} exceeds 1-delta={1.0 - delta:.6f}",
            amax**max_terms / max(1.0 - amax, 1e-300))
    val, bound = _hyp_series(a, b, c, 1.0, zs, rtol, max_terms)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(val), bound
    return val, bound


def hyp2f1_prime(a: float, b: float, c: float, z, rtol: float = 1e-14,
                 delta: float = 1e-3, max_terms: int = 200000):
    """d/dz 2F1(a, b, c; z) by term-wise differentiation of the series."""
    if _is_nonpositive_integer(c):
        raise DomainError(f"c={c} is a non-positive integer")
    zs = np.asarray(z, dtype=complex)
    amax = float(np.abs(zs).max()) if zs.size else 0.0
    if amax > 1.0 - delta:
        raise PrecisionLossError(
            f"|z|={amax:.6f} exceeds 1-delta={1.0 - delta:.6f}", np.inf)
    val, _ = _hyp_series(a + 1.0, b + 1.0, c + 1.0, 1.0, zs, rtol, max_terms)
    out = (a * b / c) * val
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def _cm1_times_F_cminus(a: float, b: float, c: float, z):
    """(c - 1) * 2F1(a, b, c - 1; z), as one series that is smooth in c.

    (c-1)_n = (c-1) (c)_{n-1} turns the pole of F(c-) at c = 1 into the
    finite series (c-1) + a b z * sum_m (a+1)_m (b+1)_m z^m/((c)_m (2)_m).
    """
    val, _ = _hyp_series(a + 1.0, b + 1.0, c, 2.0, z)
    return (c - 1.0) + a * b * np.asarray(z, dtype=complex) * val


def gauss_relation_residuals(a: float, b: float, c: float, z: float):
    """Absolute residuals of the two contiguous relations for z dF/dz.

    First: z F' = (c-1)(F(c-) - F).  Second:
    z F' = z [(c-a)(c-b) F(c+) + c(a+b-c) F] / (c(1-z)).
    The first is evaluated through (c-1) F(c-) as a single series, so
    c = 1 needs no special casing.
    """
    if not 0.0 < z < 1.0:
        raise DomainError(f"z={z} outside (0, 1)")
    F = hyp2f1(a, b, c, z)
    lhs = z * hyp2f1_prime(a, b, c, z)
    rhs1 = _cm1_times_F_cminus(a, b, c, z) - (c - 1.0) * F
    Fcp = hyp2f1(a, b, c + 1.0, z)
    rhs2 = z * ((c - a) * (c - b) * Fcp + c * (a + b - c) * F) / (c * (1.0 - z))
    return abs(lhs - complex(rhs1)), abs(lhs - rhs2)


_MIN_IM_TAU = 0.5 - 1e-12
# above it |Delta| ~ |q| = e^{-2 pi Im tau} falls below 1e-272
_MAX_IM_TAU = 100.0
_U = UNIT_ROUNDOFF
_J_SERIES = ("Q", "delta_over_q", "R")


@lru_cache(maxsize=1)
def _j_columns() -> np.ndarray:
    s = standard_series()
    return np.column_stack([s[k].coefficients for k in _J_SERIES])


@lru_cache(maxsize=4096)
def _j_order(y: float) -> int:
    """The order all _J_SERIES need at Im tau >= y; cached, as the sample
    batches of one winding often share their lowest point."""
    s, x = standard_series(), math.exp(-2.0 * math.pi * y)
    return max(s[k].order(x) for k in _J_SERIES)


def _j_sums(tau):
    """(q, N, Q, Delta/q, R) at q = e^{2 pi i tau}, all summed to the
    order N they need at the lowest tau, in one power-basis product."""
    taus = np.asarray(tau, dtype=complex)
    lo, hi = (taus.imag.min(), taus.imag.max()) if taus.size else (1.0, 1.0)
    if not _MIN_IM_TAU <= lo <= hi <= _MAX_IM_TAU:
        raise DomainError("j needs 0.5 <= Im tau <= 100")
    q = np.exp(2j * math.pi * taus)
    N = _j_order(lo)
    sums = power_basis_product(q, _j_columns()[:N + 1])
    return (q, N) + tuple(sums.reshape((3,) + q.shape))


def _as_output(tau, out):
    if np.ndim(tau) == 0:
        return complex(out)
    return out


def klein_j_pair(tau):
    """(j(tau), dj/dtau) for Im tau >= 1/2, with q = e^{2 pi i tau}.

    j = Q(q)^3 / Delta(q), and q dj/dq = -R j/Q gives dj/dtau =
    -2 pi i Q^2 R / Delta, which stays finite at rho, where Q vanishes.
    Delta is evaluated from its own exact-integer series, so the
    cancellation in Q^3 - R^2 never happens in floating point.
    """
    q, _, Qv, dq, Rv = _j_sums(tau)
    delta = q * dq
    return (_as_output(tau, Qv**3 / delta),
            _as_output(tau, (-2j * math.pi) * Qv**2 * Rv / delta))


def klein_j(tau):
    """j(tau); see klein_j_pair."""
    return klein_j_pair(tau)[0]


def klein_j_with_bound(tau):
    """klein_j(tau) and a bound on |klein_j(tau) - j(tau)| at each point.

    The errors of Q and Delta/q each collect the tail bound at the order
    summed, the rounding of the power-basis sum ((K+1) u S, with K terms
    and S = sum |a_k| |q|^k the Horner scale) and the relative error of
    each computed power q^k (k (sqrt5 u + eta) |a_k| |q|^k, where sqrt5 u
    bounds one complex product and eta the error of q = e^{2 pi i tau}).
    They are carried through Q^3/Delta by
    |Q^3/D - Q'^3/D'| <= |Q^3 - Q'^3|/|D| + |Q'|^3 |D - D'|/(|D| |D'|),
    plus 10 u |j| for the cube and the division.  Every first-order
    coefficient is raised by 1% to cover the second-order terms.
    """
    q, N, Qv, dq, _ = _j_sums(tau)
    taus = np.asarray(tau, dtype=complex)
    s = standard_series()
    aq = np.abs(q)
    x = max_abs(q)
    K = N + 1
    C = np.abs(_j_columns()[:K, :2])
    k = np.arange(K, dtype=float)[:, None]
    S_Q, S_D, S1_Q, S1_D = power_basis_product(
        aq, np.hstack([C, k * C])).real.reshape((4,) + q.shape)
    eta = _U * (4.0 * math.pi * np.abs(taus) + 4.0)
    per_power = 1.01 * (math.sqrt(5.0) * _U + eta)
    rnd = 1.01 * (K + 1) * _U
    eQ = s["Q"].tail_bound(x, N) + rnd * S_Q + per_power * S1_Q
    edq = s["delta_over_q"].tail_bound(x, N) + rnd * S_D + per_power * S1_D
    delta = q * dq
    A, D = np.abs(Qv), np.abs(delta)
    eD = 1.01 * aq * (edq + (eta + math.sqrt(5.0) * _U) * np.abs(dq))
    val = Qv**3 / delta
    with np.errstate(divide="ignore"):
        lower = np.where(D > eD, D - eD, 0.0)
        bound = (eQ * (3.0 * A * A + 3.0 * A * eQ + eQ * eQ) / lower
                 + A**3 * eD / (D * lower) + 10.0 * _U * np.abs(val))
    return _as_output(tau, val), (float(bound) if np.ndim(tau) == 0
                                  else bound)


def klein_j_derivative(tau):
    """dj/dtau; see klein_j_pair."""
    return klein_j_pair(tau)[1]


_J_INVERSE_LARGE = 1e6


def j_inverse(x: float) -> float:
    """J^{-1}(x) for x >= 1728, where J(t) = j(it) on t >= 1.

    Uses the hypergeometric ratio
    2F1(1/6,5/6,1, 1/2 + y/2) / 2F1(1/6,5/6,1, 1/2 - y/2) with
    y = sqrt(1 - 1728/x).  Beyond _J_INVERSE_LARGE the argument crowds
    the unit circle, so the value is instead found by Newton iteration on the
    q-expansion of j; that route is flagged with a warning.
    """
    x = float(x)
    if x < 1728.0:
        raise DomainError(f"j_inverse requires x >= 1728, got {x}")
    if x == 1728.0:
        return 1.0
    if x > _J_INVERSE_LARGE:
        warnings.warn(
            "j_inverse falling back to q-expansion Newton iteration for "
            f"x={x:.3e} > {_J_INVERSE_LARGE:.3e}", AsymptoticFallbackWarning)
        t = math.log(x - 744.0) / TWO_PI
        for _ in range(6):
            Jt, dJt = klein_j_pair(1j * t)
            step = (Jt.real - x) / (1j * dJt).real
            t -= step
            if abs(step) < 1e-14 * t:
                break
        return t
    y = math.sqrt(1.0 - 1728.0 / x)
    num = hyp2f1(SEXTIC_A, SEXTIC_B, 1.0, 0.5 + 0.5 * y,
                 delta=2.5e-4, max_terms=400000)
    den = hyp2f1(SEXTIC_A, SEXTIC_B, 1.0, 0.5 - 0.5 * y,
                 delta=2.5e-4, max_terms=400000)
    return num.real / den.real


def ramanujan_inversion_residual(x: float) -> float:
    """|x(1-x) - (Q(q)^3 - R(q)^2)/(4 Q(q)^3)| for the sextic nome
    q = exp(-2 pi F(1-x)/F(x)), F = 2F1(1/6, 5/6, 1; .)."""
    x = float(x)
    if not 1e-3 <= x <= 1.0 - 1e-3:
        raise DomainError(f"x={x} outside [1e-3, 1 - 1e-3]")
    Fx = hyp2f1(SEXTIC_A, SEXTIC_B, 1.0, x).real
    F1mx = hyp2f1(SEXTIC_A, SEXTIC_B, 1.0, 1.0 - x).real
    q = math.exp(-TWO_PI * F1mx / Fx)
    s = standard_series()
    Qv = complex(s["Q"].eval(q)).real
    Rv = complex(s["R"].eval(q)).real
    return abs(x * (1.0 - x) - (Qv**3 - Rv**2) / (4.0 * Qv**3))
