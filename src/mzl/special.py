"""Gauss hypergeometric series, Klein's j and its inverse.

Everything is evaluated from truncated series with computed tail bounds.
j is assembled as Q(q)^3 / Delta(q) from the exact-integer coefficient
tables in qseries, and its tau-derivative as -2 pi i Q^2 R / Delta from
the same sums.  The inverse of J(t) = j(it) on x >= 1728 is the ratio
F(1 - s)/F(s) of sextic hypergeometric values F(1/6, 5/6; 1; .), s in
(0, 1/2], both summed from s itself (_sextic_pair): F(s) by the Gauss
series and F(1 - s) by the z -> 1 - z connection series in s.

One loop (_hyp_series) sums the Gauss series of several parameter rows
over one z: the term ratios of a block of terms, for every row, are one
array op, and each term then costs two in-place ops for all rows
together.  Every row tests its own tail after every term and stops on
its own term, with the bits it has alone; so an identity sweep's four
sums, or a chain's F and F(c+), run one loop.  The connection series
loop (_sextic_connection) builds its block of recurrence rows the same
way and spends three in-place ops per term.  Both stop on the same term,
with the same bits, as a loop that takes one term at a time.  A real
argument is summed in float64.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionLossError
from .qseries import (UNIT_ROUNDOFF, max_abs, power_basis_product,
                      standard_series)

TWO_PI = 2.0 * math.pi
SEXTIC_A, SEXTIC_B = 1.0 / 6.0, 5.0 / 6.0


def _params(*ps):
    """The series parameters as they go into the loop: Python floats when
    all are scalars, float arrays, which z is broadcast against, when any
    is an array."""
    if all(np.ndim(p) == 0 for p in ps):
        return tuple(float(p) for p in ps)
    return tuple(np.asarray(p, dtype=float) for p in ps)


def _check_c(c) -> None:
    cs = np.asarray(c, dtype=float)
    bad = (cs <= 0) & (np.abs(cs - np.round(cs)) < 1e-12)
    if np.any(bad):
        raise DomainError(f"c={cs[bad].flat[0]} is a non-positive integer")


def _check_params(a, b, c) -> None:
    """DomainError for a NaN or infinite a, b or c, which no series sum
    survives, or a c that _check_c rejects."""
    for name, p in (("a", a), ("b", b), ("c", c)):
        ps = np.asarray(p, dtype=float)
        bad = ~np.isfinite(ps)
        if np.any(bad):
            raise DomainError(f"{name}={ps[bad].flat[0]} is not finite")
    _check_c(c)


# the relative tail tolerance of a 2F1 sum, the disk |z| <= 1 - _HYP_DELTA
# hyp2f1 accepts, and the most terms any series sum takes
_HYP_RTOL = 1e-14
_HYP_DELTA = 1e-3
_HYP_MAX_TERMS = 200000
# the terms a series loop takes per block: their ratios, or their
# recurrence rows, are then one (block, batch) array op each
_TERM_BLOCK = 32


# a term or partial sum that overflows or turns NaN is reported by the
# loop itself, as PrecisionLossError, for every row still summing; a
# stopped row's lane is multiplied on unseen, and a majorant whose
# n + c- is 0 is never used
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _hyp_series(rows, z, rtol: float = _HYP_RTOL):
    """For each row (a, b, c, d): sum_m w_m with w_0 = 1 and
    w_{m+1}/w_m = z (a+m)(b+m)/((c+m)(d+m)), every row over the one z.

    a, b, c and d are scalars or arrays that broadcast against z; no c
    is a non-positive integer and every d > 0.  Returns a list with one
    (complex value, max absolute tail bound) per row; every value has the
    broadcast shape of z and all the parameters.  Per row, with
    c- = min(c, 0) over its elements and n + c- > 0, |c+k| >= k + c- and
    d+k >= k, so the majorant ratio
    r = max|z| (n+max|a|)(n+max|b|)/((n+c-) n)
    is at least |w_{k+1}/w_k| for every k >= n and element, and the tail
    after w_n is at most |w_n| r/(1-r).  A row stops on the first term
    where every element meets rtol; for c >= 0 its majorant is
    max|z| (n+|a|)(n+|b|)/n^2.

    The term ratios of _TERM_BLOCK consecutive n for every row are one
    (block, row, batch) array, and each term then costs two in-place
    array ops for all rows together; the elementwise products and sums
    do not depend on the stack.  After every term each row that is still
    summing runs its tail test: one watched element is tested first, in
    the arithmetic of the full test with a 1.0001 margin, and while it
    clearly fails, so would the full test, which is then skipped; a
    failed full test watches the element furthest from passing.  So each
    row stops on the same term, with the same bits, as it does alone and
    as a loop that takes one term at a time; a stopped row is copied out
    and not tested again.  A real z is summed in float64, whose products
    and sums are those of the complex loop with every imaginary part 0,
    and each value is cast to complex once.

    PrecisionLossError: a row that is still summing and not finite at
    the end of a block, or at its stop, raises what it raises alone; if
    rows are left after _HYP_MAX_TERMS terms, the first of them in row
    order gives the achieved tail.  Where two rows would fail, the one
    that fails first in term order is reported, which separate calls in
    row order need not do.
    """
    params = [_params(*row) for row in rows]
    # _params gives Python floats or arrays
    pshape = np.broadcast_shapes(*{p.shape for ps in params for p in ps
                                   if isinstance(p, np.ndarray)})
    z = np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(z.shape, pshape)
    if shape != z.shape:
        z = np.broadcast_to(z, shape)
    if not z.size:
        return [(np.ones(shape, dtype=complex), 0.0) for _ in params]
    if not z.imag.any():
        z = z.real.copy()
    k = len(params)
    # a, b, c and d of every row over the parameters' own broadcast
    # shape, left-padded to z's rank: a row of scalars costs one element
    # per term, not a batch
    abcd = np.empty((4, k) + (1,) * (len(shape) - len(pshape)) + pshape)
    for j, ps in enumerate(params):
        for i, p in enumerate(ps):
            abcd[i, j] = p
    A, B, C, D = abcd
    amax = float(np.abs(z).max())
    aa, ab = np.abs(abcd[:2].reshape(2, k, -1)).max(axis=2)
    cneg = np.minimum(C.reshape(k, -1).min(axis=1), 0.0)
    term = np.ones((k,) + shape, dtype=z.dtype)
    acc = np.ones_like(term)
    lane_t, lane_a = term.reshape(k, -1), acc.reshape(k, -1)
    # per row: the element furthest from passing at its last full test
    watch = [0] * k
    last_ratio = [None] * k
    out = [None] * k
    live = list(range(k))
    # one buffer for every block: a fresh array per block this large
    # would be mapped and faulted in again each time
    buf = np.empty((_TERM_BLOCK, k) + shape, dtype=z.dtype)
    n = 0
    while n < _HYP_MAX_TERMS:
        m = np.arange(n, min(n + _TERM_BLOCK, _HYP_MAX_TERMS), dtype=float)
        mm = m.reshape((-1, 1) + (1,) * z.ndim)
        qs = np.multiply(z, (A + mm) * (B + mm) / ((C + mm) * (D + mm)),
                         out=buf[:len(m)])
        # the majorant r after each term of the block, per row; the tail
        # is tested where r < 1 and n + c- > 0
        s = (m + 1.0)[:, None]
        den = (s + cneg) * s
        r = amax * (s + aa) * (s + ab) / den
        for i, (q, dens, rs) in enumerate(zip(qs, den.tolist(), r.tolist())):
            term *= q
            acc += term
            for j in tuple(live):
                if not (dens[j] > 0 and rs[j] < 1.0):
                    continue
                last_ratio[j] = ratio = rs[j] / (1.0 - rs[j])
                w = watch[j]
                if (abs(lane_t[j, w]) * ratio
                        > 1.0001 * rtol * (abs(lane_a[j, w]) + 1e-290)):
                    continue
                tail = np.abs(term[j]) * ratio
                met = tail <= rtol * (np.abs(acc[j]) + 1e-290)
                if np.all(met):
                    out[j] = (_finite(acc[j, ...], n + i + 1).astype(complex),
                              float(np.max(tail)))
                    live.remove(j)
                else:
                    watch[j] = int(np.argmax(tail / (np.abs(acc[j]) + 1e-290)))
            if not live:
                return out
        n += len(m)
        _finite(acc[live], n)
    j = live[0]
    tail = (np.inf if last_ratio[j] is None
            else np.abs(term[j]) * last_ratio[j])
    achieved = float(np.max(tail / (np.abs(acc[j]) + 1e-290)))
    raise PrecisionLossError("hypergeometric series did not converge", achieved)


def _finite(acc, n: int):
    """acc, or PrecisionLossError if a partial sum has overflowed or
    turned NaN."""
    if not np.all(np.isfinite(acc)):
        raise PrecisionLossError(
            f"hypergeometric series not finite by term {n}", math.inf)
    return acc


def _as_value(out):
    return complex(out) if np.ndim(out) == 0 else out


def hyp2f1(a, b, c, z):
    """2F1(a, b, c; z) for |z| <= 1 - _HYP_DELTA, finite a, b and c, c
    not a non-positive integer.

    a, b and c may be arrays that broadcast against z; the whole batch is
    one series sum.  A scalar result is a Python complex."""
    val, _ = hyp2f1_with_bound(a, b, c, z)
    return val


def _gauss_series(rows, z):
    """[(value, tail bound)] of the series rows (a, b, c, d) of
    _hyp_series over one z, all in one loop, after hyp2f1's checks: the
    parameters of every row, then |z| <= 1 - _HYP_DELTA.  A scalar value
    is a Python complex."""
    for a, b, c, _ in rows:
        _check_params(a, b, c)
    zs = np.asarray(z, dtype=complex)
    amax = float(np.abs(zs).max()) if zs.size else 0.0
    if not amax <= 1.0 - _HYP_DELTA:
        raise PrecisionLossError(
            f"|z|={amax:.6f} exceeds 1-delta={1.0 - _HYP_DELTA:.6f}", np.inf)
    return [(_as_value(val), bound) for val, bound in _hyp_series(rows, zs)]


def hyp2f1_with_bound(a, b, c, z):
    """hyp2f1 and the largest tail bound over the batch (see _hyp_series)."""
    return _gauss_series([(a, b, c, 1.0)], z)[0]


def hyp2f1_prime(a, b, c, z):
    """d/dz 2F1(a, b, c; z) = (a b / c) 2F1(a + 1, b + 1, c + 1; z), the
    term-wise derivative of the series; array parameters as in hyp2f1."""
    _check_params(a, b, c)
    a, b, c = _params(a, b, c)
    val, _ = hyp2f1_with_bound(a + 1.0, b + 1.0, c + 1.0, z)
    return _as_value((a * b / c) * val)


def gauss_relation_residuals(a, b, c, z):
    """Absolute residuals of the two contiguous relations for z dF/dz.

    First: z F' = (c-1)(F(c-) - F).  Second:
    z F' = z [(c-a)(c-b) F(c+) + c(a+b-c) F] / (c(1-z)).
    (c-1)_n = (c-1) (c)_{n-1} turns (c-1) F(c-), whose F(c-) has a pole
    at c = 1, into the finite (c-1) + a b z G with
    G = sum_m (a+1)_m (b+1)_m z^m/((c)_m (2)_m), so c = 1 needs no special
    casing.  F, the derivative series (a+1, b+1, c+1), G and F(c+) are
    the four rows of one _hyp_series loop over the batch.  a, b, c and z
    may be arrays that broadcast together, and both residuals then come
    back as arrays.  Every z must lie in (0, 1).
    """
    a, b, c = _params(a, b, c)
    zs = np.asarray(z, dtype=float)
    inside = (0.0 < zs) & (zs < 1.0)
    if not np.all(inside):
        raise DomainError(f"z={zs[~inside].flat[0]} outside (0, 1)")
    z = float(zs) if zs.ndim == 0 else zs
    (F, _), (dF, _), (G, _), (Fcp, _) = _gauss_series(
        [(a, b, c, 1.0), (a + 1.0, b + 1.0, c + 1.0, 1.0),
         (a + 1.0, b + 1.0, c, 2.0), (a, b, c + 1.0, 1.0)], z)
    lhs = z * ((a * b / c) * dF)
    cm1 = (c - 1.0) + a * b * np.asarray(z, dtype=complex) * G
    rhs1 = cm1 - (c - 1.0) * F
    rhs2 = z * ((c - a) * (c - b) * Fcp + c * (a + b - c) * F) / (c * (1.0 - z))
    if np.ndim(lhs) == 0:
        return abs(lhs - complex(rhs1)), abs(lhs - rhs2)
    return np.abs(lhs - rhs1), np.abs(lhs - rhs2)


# a = 1/6, b = 5/6: Gamma(a) Gamma(b) = pi / sin(pi/6) = 2 pi, and Gauss's
# digamma theorem gives 2 psi(1) - psi(a) - psi(b) = ln 432
_SEXTIC_AB = SEXTIC_A * SEXTIC_B
_LN_432 = math.log(432.0)
# c: (alpha, beta, gamma, k_0, P) of _sextic_connection
_SEXTIC_CONNECTION = {
    1.0: (SEXTIC_A, SEXTIC_B, 1.0, _LN_432, 0.0),
    2.0: (SEXTIC_A + 1.0, SEXTIC_B + 1.0, 2.0,
          _LN_432 + 1.0 - 1.0 / SEXTIC_A - 1.0 / SEXTIC_B,
          1.0 / (TWO_PI * _SEXTIC_AB)),
}
# below the unit roundoff, so the truncation error of a sextic value
# sits under its rounding error
_SEXTIC_RTOL = 1e-16


def _sextic_connection(c: float, x: np.ndarray):
    """F(1/6, 5/6; c; 1 - x) for c in {1, 2} and a 1-d x in (0, 1/2], from
    the z -> 1 - z connection formulas A&S 15.3.10 (c = 1 = a + b) and
    15.3.11 with m = 1 (c = 2).  With the constants above both read

        F = P + Q sum_n u_n (k_n - ln x),   u_0 = 1,
        u_{n+1} / u_n = x (n + alpha)(n + beta) / ((n + 1)(n + gamma)),
        k_{n+1} - k_n = 1/(n+1) + 1/(n+gamma) - 1/(n+alpha) - 1/(n+beta),

    c = 1: (alpha, beta, gamma) = (a, b, 1), k_0 = ln 432, P = 0,
    Q = 1/(2 pi); c = 2: (a + 1, b + 1, 2), k_0 = ln 432 + 1 - 1/a - 1/b,
    P = 1/(2 pi a b), Q = -x/(2 pi).  Every summand is positive.

    Tail after term N.  c = 1: the u ratio is x (n^2 + n + ab)/(n + 1)^2
    < x and k_n falls to 0, so each summand is below x times the last and
    the tail is at most |Q| u_N (k_N - ln x) x/(1 - x).  c = 2: the u ratio
    is x (1 + ab/((n + 1)(n + 2))), falling to x, so at most
    r = x (1 + ab/((N + 1)(N + 2))) beyond N; k_n rises to 0 from
    k_0 = -0.13 > ln x, so 0 < k_n - ln x < -ln x and the tail is at most
    |Q| u_N (-ln x) r/(1 - r).  Returns (values, largest tail bound); the
    loop stops once every tail is at most _SEXTIC_RTOL times its value.

    The k_n - ln x and u ratios of _TERM_BLOCK consecutive n are one
    (block, batch) array each, so each term costs three in-place array
    ops.  The tail test after every term runs on one watched element, in
    the same arithmetic as the full test, and the full test runs only
    where the watched element passes; a failing full test watches the
    element furthest from passing.
    """
    if not x.size:
        return x.copy(), 0.0
    al, be, ga, k, P = _SEXTIC_CONNECTION[c]
    lnx = np.log(x)
    Q = 1.0 / TWO_PI if c == 1.0 else -x / TWO_PI
    aQ = np.abs(Q)
    u = np.ones_like(x)
    acc = k - lnx
    summand = np.empty_like(x)
    # row i holds term n + i: k_{n+i} - ln x and u_{n+i+1}/u_{n+i}, KL
    # one row more for the step out of the block; one buffer each for
    # every block, as fresh rows per block would be faulted in each time
    KL, X = np.empty((2, _TERM_BLOCK + 1, x.size))

    def test(i, j):
        """(value, tail, tail met) of term n + i at the elements j."""
        if c == 1.0:
            q, aq, r, factor = Q, aQ, x[j], KL[i, j]
        else:
            q, aq, r, factor = Q[j], aQ[j], x[j] * s[i], -lnx[j]
        value = P + q * acc[j]
        tail = aq * u[j] * factor * r / (1.0 - r)
        return value, tail, tail <= _SEXTIC_RTOL * np.abs(value)

    # the element furthest from passing at the last full test: the full
    # test cannot pass on a term where it fails
    watch = 0
    n = 0
    while True:
        m = np.arange(n, n + _TERM_BLOCK + 1, dtype=float)
        dk = 1.0 / (m + 1) + 1.0 / (m + ga) - 1.0 / (m + al) - 1.0 / (m + be)
        ks = np.cumsum(np.concatenate(([k], dk[:-1])))
        np.subtract(ks[:, None], lnx, out=KL)
        np.multiply(x, ((m + al) * (m + be) / ((m + 1) * (m + ga)))[:, None],
                    out=X)
        # the c = 2 ratio factor of term n + i
        s = 1.0 + _SEXTIC_AB / ((m + 1) * (m + 2))
        for i in range(_TERM_BLOCK):
            if test(i, watch)[2]:
                value, tail, met = test(i, slice(None))
                if met.all():
                    return value, float(np.max(tail))
                watch = int(np.argmax(tail / np.abs(value)))
            np.multiply(u, X[i], u)
            np.multiply(u, KL[i + 1], summand)
            acc += summand
        n += _TERM_BLOCK
        k = ks[-1]


def _sextic_pair(c: float, s):
    """(F(s), F(1 - s), largest tail bound) with F = F(1/6, 5/6; c; .),
    for c in {1, 2} and real s in (0, 1/2].

    F(s) is the Gauss series and F(1 - s) _sextic_connection, both in s,
    so no caller forms 1 - s and a small s keeps its digits; near 1 the
    Gauss series would fall only like w^n/n, since c - a - b is 0 or 1.
    A scalar s gives float values."""
    ss = np.asarray(s, dtype=float)
    inside = (0.0 < ss) & (ss <= 0.5)
    if not np.all(inside):
        raise DomainError(f"s={ss[~inside].flat[0]} outside (0, 1/2]")
    flat = ss.ravel()
    [(near, nb)] = _hyp_series([(SEXTIC_A, SEXTIC_B, c, 1.0)], flat,
                               _SEXTIC_RTOL)
    far, fb = _sextic_connection(c, flat)
    if ss.ndim == 0:
        return float(near[0].real), float(far[0]), max(nb, fb)
    return near.real.reshape(ss.shape), far.reshape(ss.shape), max(nb, fb)


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


@lru_cache(maxsize=4096)
def _j_error_terms(y: float):
    """(tail and rounding of Q, S1_Q, the same two of Delta/q, lower
    bound on |Delta/q|) at Im tau >= y for klein_j_error_bound; cached
    like _j_order."""
    x = math.exp(-TWO_PI * y)
    N = _j_order(y)
    K = N + 1
    C = np.abs(_j_columns()[:K, :2])
    k = np.arange(K, dtype=float)[:, None]
    S_Q, S_D, S1_Q, S1_D = np.hstack([C, k * C]).T @ x ** k[:, 0]
    s = standard_series()
    rnd = 1.01 * (K + 1) * _U
    return (s["Q"].tail_bound(x, N) + rnd * S_Q, float(S1_Q),
            s["delta_over_q"].tail_bound(x, N) + rnd * S_D, float(S1_D),
            0.99 * math.exp(-24.0 * x / (1.0 - x) ** 2))


def klein_j_error_bound(tau, j):
    """A bound on |j - j(tau)| at each point of the batch tau, for j =
    klein_j_pair(tau)[0] on that same batch, from |j| and Im tau alone:
    it covers klein_j_with_bound and costs no second sum.

    It is klein_j_with_bound with every per-point sum replaced by its
    value at the batch's largest |q|, x = e^{-2 pi min Im tau}, which the
    sums of |coefficients| times powers of |q| never fall below, and with
    |Delta| >= D = 0.99 |q| e^{-24 x/(1-x)^2}, from prod (1 - x^n)^24 and
    log(1 - t) >= -t/(1-t).  With A = (|j| D)^{1/3} in place of |Q|, the
    term eQ (3 A^2 + 3 A eQ + eQ^2) / D = 3 eQ A (A + eQ) / D + eQ^3 / D
    falls as D grows, so the lower D bounds it.
    """
    taus = np.asarray(tau, dtype=complex)
    eQ, S1_Q, edq, S1_D, lower_dq = _j_error_terms(float(taus.imag.min()))
    eta = _U * (4.0 * math.pi * float(np.abs(taus).max()) + 4.0)
    per_power = 1.01 * (math.sqrt(5.0) * _U + eta)
    eQ += per_power * S1_Q
    edq += per_power * S1_D
    rel = 1.01 * (edq / lower_dq + eta + math.sqrt(5.0) * _U) + 10.0 * _U
    D = lower_dq * np.exp(-TWO_PI * taus.imag)
    aj = np.abs(j)
    A = np.cbrt(aj * D)
    return (3.03 * eQ * A * (A + eQ) + 1.01 * eQ ** 3) / D + 1.01 * rel * aj


def klein_j_derivative(tau):
    """dj/dtau; see klein_j_pair."""
    return klein_j_pair(tau)[1]


@lru_cache(maxsize=1)
def _j_inverse_max() -> float:
    """J(100) = j(100 i), the largest x whose J^{-1} lies where j is
    evaluated (Im tau <= _MAX_IM_TAU)."""
    return klein_j(1j * _MAX_IM_TAU).real


def j_inverse(x: float) -> float:
    """J^{-1}(x) for 1728 <= x <= J(100), where J(t) = j(it) on t >= 1.

    The ratio F(w+) / F(w-) with F = 2F1(1/6, 5/6; 1; .),
    w+- = (1 +- y)/2 and y = sqrt(1 - 1728/x), both values from one
    _sextic_pair at s = w- = 864/(x (1 + y)), which is (1 - y)/2 without
    the cancellation in 1 - y; so one route serves the whole range.  J is
    increasing, so x <= J(100) puts J^{-1}(x) <= 100, and the ratio, 2 ulps
    above 100 at J(100), is clamped to _MAX_IM_TAU.  A NaN x raises
    DomainError, as an x below 1728 or above J(100) does.
    """
    x = float(x)
    if not x >= 1728.0:
        raise DomainError(f"j_inverse requires x >= 1728, got {x}")
    if x == 1728.0:
        return 1.0
    if x > _j_inverse_max():
        raise DomainError(f"j_inverse requires x <= {_j_inverse_max()!r}"
                          f" = j(100i), got {x}")
    y = math.sqrt(1.0 - 1728.0 / x)
    den, num, _ = _sextic_pair(1.0, 864.0 / (x * (1.0 + y)))
    return min(num / den, _MAX_IM_TAU)


def ramanujan_inversion_residual(x):
    """|x(1-x) - (Q(q)^3 - R(q)^2)/(4 Q(q)^3)| for the sextic nome
    q = exp(-2 pi F(1-x)/F(x)), F = 2F1(1/6, 5/6, 1; .).

    F(x) and F(1-x) are one _sextic_pair at s = min(x, 1 - x), swapped
    back where x > 1/2.  x may be an array: the pair is then one batch,
    and Q and R one series call each, over every nome."""
    xs = np.asarray(x, dtype=float)
    inside = (1e-3 <= xs) & (xs <= 1.0 - 1e-3)
    if not np.all(inside):
        raise DomainError(
            f"x={xs[~inside].flat[0]} outside [1e-3, 1 - 1e-3]")
    near, far, _ = _sextic_pair(1.0, np.minimum(xs, 1.0 - xs))
    low = xs <= 0.5
    Fx, F1mx = np.where(low, near, far), np.where(low, far, near)
    q = np.exp(-TWO_PI * F1mx / Fx)
    s = standard_series()
    Qv = s["Q"].eval(q).real
    Rv = s["R"].eval(q).real
    res = np.abs(xs * (1.0 - xs) - (Qv**3 - Rv**2) / (4.0 * Qv**3))
    return float(res) if xs.ndim == 0 else res
