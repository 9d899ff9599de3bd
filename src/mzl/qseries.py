"""Truncated q-expansions with computed tail bounds.

The integer coefficient tables for the weight-4 series Q = 1 + 240*sum
sigma_3(n) q^n, the weight-6 series R = 1 - 504*sum sigma_5(n) q^n, the
discriminant series Delta = (Q^3 - R^2)/1728 and the series for
j = Q^3/Delta (starting at q^-1) are all derived here by exact integer
arithmetic: a divisor-power sieve, integer convolution, and exact series
division.  No coefficient is taken on trust; the test suite rebuilds the
tables independently at higher truncation and compares.

Each series also carries a majorant for its coefficients that holds at
every order, so a call sums only as many terms as max |q| needs; every
sum runs through power_basis_product.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import exp, pi, sqrt

import numpy as np

DEFAULT_ORDER = 72


def sigma_powers(N: int, k: int) -> list[int]:
    """[sigma_k(1), ..., sigma_k(N)] by sieving divisors."""
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        dk = d**k
        for m in range(d, N + 1, d):
            out[m] += dk
    return out[1:]


def series_mul(a: list[int], b: list[int], N: int) -> list[int]:
    out = [0] * (N + 1)
    for i, ai in enumerate(a[: N + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: N + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_inverse(a: list[int], N: int) -> list[int]:
    """Inverse of a series with a[0] == 1, exact integers."""
    if a[0] != 1:
        raise ValueError("series_inverse requires unit leading coefficient")
    inv = [1] + [0] * N
    for n in range(1, N + 1):
        acc = 0
        for k in range(1, min(n, len(a) - 1) + 1):
            acc += a[k] * inv[n - k]
        inv[n] = -acc
    return inv


@lru_cache(maxsize=8)
def integer_tables(N: int = DEFAULT_ORDER):
    """(Q, R, Delta/q, j) coefficient lists through order N, exact ints.

    Q and R are ascending in q from q^0; Delta/q from q^0 (leading 1);
    j from q^-1 (leading 1, then 744, 196884, ...).
    """
    M = N + 2
    s3 = sigma_powers(M, 3)
    s5 = sigma_powers(M, 5)
    q_c = [1] + [240 * v for v in s3]
    r_c = [1] + [-504 * v for v in s5]
    q3 = series_mul(series_mul(q_c, q_c, M), q_c, M)
    r2 = series_mul(r_c, r_c, M)
    diff = [x - y for x, y in zip(q3, r2)]
    if diff[0] != 0 or any(v % 1728 for v in diff):
        raise AssertionError("Q^3 - R^2 must be divisible by 1728*q")
    delta_over_q = [v // 1728 for v in diff[1:]]
    if delta_over_q[0] != 1:
        raise AssertionError("Delta/q must have leading coefficient 1")
    j_c = series_mul(q3, series_inverse(delta_over_q, M), M)
    return (q_c[: N + 1], r_c[: N + 1], delta_over_q[: N + 1], j_c[: N + 1])


UNIT_ROUNDOFF = 2.0**-53
_BLOCK = 256


def power_basis_product(x, C: np.ndarray) -> np.ndarray:
    """C^T [x^0, ..., x^{K-1}] at every point of the batch x.

    x holds n complex points and C is a real (K, m) matrix; the result is
    (m, n), row i being sum_k C[k, i] x^k.  The powers sit in a (K, block)
    array, one contiguous row per power, filled by doubling (rows h..2h-1
    are rows 0..h-1 times x^h), so a block costs ceil(log2 K) vectorised
    multiplies and one real matrix product.  Blocks of at most 256 points
    keep the workspace at O(256 K).
    """
    x = np.asarray(x, dtype=complex).ravel()
    if x.size > _BLOCK:
        return np.concatenate([power_basis_product(x[s:s + _BLOCK], C)
                               for s in range(0, x.size, _BLOCK)], axis=1)
    K = C.shape[0]
    pw = np.empty((K, x.size), dtype=complex)
    pw[0] = 1.0
    if K > 1:
        pw[1] = x
    h = 2
    while h < K:
        n = min(h, K - h)
        np.multiply(pw[:n], pw[h // 2] * pw[h // 2], out=pw[h:h + n])
        h *= 2
    return (C.T @ pw.view(float)).view(complex)


def max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


def _power_majorant(const: float, shift: int, power: int, T: int):
    """|a_k| <= const (k + shift)^power; the consecutive ratio of the
    majorant, ((k + shift + 1)/(k + shift))^power, falls with k."""
    k = [float(max(i + shift, 1)) for i in range(T + 2)]
    return (tuple(const * v**power for v in k),
            tuple(((v + 1.0) / v) ** power for v in k))


def _root_majorant(rate: float, T: int):
    """|a_k| <= e^{rate sqrt(k)}; the consecutive ratio
    e^{rate (sqrt(k+1) - sqrt(k))} <= e^{rate / (2 sqrt(k))} falls with k."""
    k = [float(max(i, 1)) for i in range(T + 2)]
    return (tuple(exp(rate * sqrt(v)) for v in k),
            tuple(exp(rate / (2.0 * sqrt(v))) for v in k))


@dataclass(frozen=True)
class QSeries:
    """A truncated power series in q with a majorant for its coefficients.

    coefficients a_0..a_T multiply q^n0..q^{n0+T}.  For every k >= 1,
    |a_k| <= majorant[k], and majorant[k'+1]/majorant[k'] <= growth[k] for
    every k' >= k; both arrays run over k = 0..T+1 (entry 0 unused).  So
    the tail left by keeping a_0..a_N is at most
    |q|^n0 majorant[N+1] |q|^{N+1} / (1 - |q| growth[N+1]) for every N.
    radius is the |q| up to which the series is meant to be used.
    """

    n0: int
    coefficients: np.ndarray
    majorant: tuple[float, ...]
    growth: tuple[float, ...]
    radius: float
    _abs_coefficients: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_abs_coefficients",
                           tuple(abs(float(a)) for a in self.coefficients))

    def order(self, x: float) -> int:
        """The smallest N whose tail bound at |q| <= x is no larger than
        the rounding error the sum over a_0..a_N already carries,
        2^-53 sum_{k<=N} |a_k| x^k; T when no order up to T is."""
        partial, xk = 0.0, 1.0
        for N, a in enumerate(self._abs_coefficients):
            partial += a * xk
            xk *= x
            ratio = x * self.growth[N + 1]
            if (ratio < 1.0 and self.majorant[N + 1] * xk / (1.0 - ratio)
                    <= UNIT_ROUNDOFF * partial):
                return N
        return N

    def tail_bound(self, x: float, N: int) -> float:
        """Bound on |full series - sum over a_0..a_N| at |q| <= x."""
        ratio = x * self.growth[N + 1]
        if ratio >= 1.0:
            return float("inf")
        tail = self.majorant[N + 1] * x ** (N + 1) / (1.0 - ratio)
        if self.n0 != 0 and tail != 0.0:
            tail *= x**self.n0
        return tail

    def _sum(self, q: np.ndarray, N: int):
        val = power_basis_product(q, self.coefficients[:N + 1, None])[0]
        val = val.reshape(q.shape)
        if self.n0 != 0:
            val = val * q**self.n0
        return val

    def eval(self, q):
        """Values at the order chosen from max |q|."""
        q = np.asarray(q, dtype=complex)
        return self._sum(q, self.order(max_abs(q)))


@lru_cache(maxsize=8)
def standard_series(N: int = DEFAULT_ORDER) -> dict[str, QSeries]:
    """QSeries bundle: Q, R, Delta/q and j.

    Every majorant holds for all k >= 1, so the truncation order can be
    chosen per call from |q| alone.
    """
    q_c, r_c, t_c, j_c = integer_tables(N)
    asf = lambda xs: np.array([float(v) for v in xs])
    out = {
        # sigma_k(n) <= zeta(k) n^k, with zeta(3) < 1.2021, zeta(5) < 1.0370
        "Q": QSeries(0, asf(q_c), *_power_majorant(240 * 1.2021, 0, 3, N),
                     0.95),
        "R": QSeries(0, asf(r_c), *_power_majorant(504 * 1.0370, 0, 5, N),
                     0.95),
        # a_k = tau(k+1), and Deligne's |tau(n)| <= d(n) n^{11/2} with
        # d(n) <= 2 sqrt(n) gives |a_k| <= 2 (k+1)^6 for every k
        "delta_over_q": QSeries(0, asf(t_c), *_power_majorant(2.0, 1, 6, N),
                                0.5),
        # a_k = c_{k-1}; c_n <= e^{4 pi sqrt n} for n >= 1 (Brisebarre and
        # Philibert 2005) and c_0 = 744 <= e^{4 pi}, so |a_k| <= e^{4 pi sqrt k}
        "j": QSeries(-1, asf(j_c), *_root_majorant(4.0 * pi, N), exp(-pi)),
    }
    return out
