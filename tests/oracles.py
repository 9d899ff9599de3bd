"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately built by a different route than the
library: the discriminant comes from the eta product instead of the
Eisenstein combination, the j series is divided against that product,
divisor sums are computed by trial division instead of a sieve, and the
elliptic function comes from trigonometric row sums instead of Laurent
series plus duplication.  Agreement between the two routes is the whole
point of the comparisons.  The exceptions are the 2F1 loops and the
rolled local scale below, kept as the library once ran them: the
library must still return exactly what they return.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from mzl.elliptic import lattice, wp_on_line
from mzl.errors import PrecisionLossError
from mzl.pfaffian import real_zero_count

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# integer q-series by the eta-product route


def sigma_by_division(n: int, k: int) -> int:
    """sigma_k(n) by trial division (the library sieves instead)."""
    total = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


def euler_product(N: int) -> list[int]:
    """prod_{n>=1} (1 - q^n) through q^N via the pentagonal number theorem."""
    out = [0] * (N + 1)
    k = 0
    while True:
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e > N:
                continue
            out[e] += (-1) ** (kk % 2)
        k += 1
        if k * (3 * k - 1) // 2 > N and k * (3 * k + 1) // 2 > N:
            break
    return out


def _mul(a: list[int], b: list[int], N: int) -> list[int]:
    out = [0] * (N + 1)
    for i, ai in enumerate(a[: N + 1]):
        if ai:
            for j, bj in enumerate(b[: N + 1 - i]):
                out[i + j] += ai * bj
    return out


@lru_cache(maxsize=4)
def delta_product_over_q(N: int) -> list[int]:
    """Coefficients of Delta/q = prod (1-q^n)^24, exact integers."""
    f = euler_product(N)
    out = [1] + [0] * N
    for _ in range(24):
        out = _mul(out, f, N)
    return out


@lru_cache(maxsize=4)
def eisenstein_tables(N: int) -> tuple[list[int], list[int]]:
    """(Q, R) coefficient lists via per-n trial division."""
    q_c = [1] + [240 * sigma_by_division(n, 3) for n in range(1, N + 1)]
    r_c = [1] + [-504 * sigma_by_division(n, 5) for n in range(1, N + 1)]
    return q_c, r_c


@lru_cache(maxsize=4)
def j_table_eta(N: int) -> list[int]:
    """j coefficients from q^-1 via j = Q^3 / (q prod (1-q^n)^24)."""
    q_c, _ = eisenstein_tables(N)
    q3 = _mul(_mul(q_c, q_c, N), q_c, N)
    den = delta_product_over_q(N)
    out = [0] * (N + 1)
    for n in range(N + 1):
        acc = q3[n]
        for k in range(1, n + 1):
            acc -= den[k] * out[n - k]
        if acc % den[0]:
            raise AssertionError("eta-route j division must stay integral")
        out[n] = acc // den[0]
    return out


def j_eval_eta(tau: complex, N: int = 90) -> complex:
    table = j_table_eta(N)
    q = cmath.exp(2j * math.pi * tau)
    return sum(c * q ** (n - 1) for n, c in enumerate(table))


def eisenstein_eval(coeffs: list[int], q: complex) -> complex:
    return sum(c * q**n for n, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# Weierstrass data by trigonometric row sums and closed forms


def wp_rowsum(z: complex, tau: float, rows: int = 40) -> complex:
    """p(z) for <1, i tau> from pi^2/sin^2 row identities."""
    pi = math.pi
    val = (pi / cmath.sin(pi * z)) ** 2 - pi**2 / 3.0
    for n in range(1, rows + 1):
        for s in (n, -n):
            w = 1j * s * tau
            val += (pi / cmath.sin(pi * (z - w))) ** 2 \
                - (pi / cmath.sin(pi * w)) ** 2
    return val


def wp_prime_rowsum(z: complex, tau: float, rows: int = 40) -> complex:
    pi = math.pi
    total = 0.0 + 0.0j
    for n in range(-rows, rows + 1):
        u = pi * (z - 1j * n * tau)
        total += -2.0 * pi**3 * cmath.cos(u) / cmath.sin(u) ** 3
    return total


def g2_square_lattice() -> float:
    """g2 of <1, i> in closed form, Gamma(1/4)^8 / (16 pi^2)."""
    return math.gamma(0.25) ** 8 / (16.0 * math.pi**2)


def cubic_real_roots(g2: float, g3: float) -> np.ndarray:
    """Descending real roots of 4 t^3 - g2 t - g3."""
    r = np.roots([4.0, 0.0, -g2, -g3])
    assert np.abs(r.imag).max() < 1e-9 * (1.0 + np.abs(r.real).max())
    return np.sort(r.real)[::-1]


# ---------------------------------------------------------------------------
# generic numeric helpers


def central_difference(f, z, h: float = 1e-5):
    return (f(z + h) - f(z - h)) / (2.0 * h)


def naive_poly_eval(coeffs: np.ndarray, x: complex, y: complex) -> complex:
    total = 0.0 + 0.0j
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            total += coeffs[i, j] * x**i * y**j
    return total


def imag_line_reduction(coeffs: np.ndarray) -> np.ndarray:
    """Real table q[k, l] with Im P(i t, y) = sum q[k, l] t^k y^l."""
    out = np.zeros(coeffs.shape)
    for k in range(coeffs.shape[0]):
        for l in range(coeffs.shape[1]):
            out[k, l] = (coeffs[k, l] * 1j**k).imag
    return out


def j_horner_fixed_order(tau, N: int = 72):
    """(j, term scale) with Q and Delta/q from the eta-route tables, each
    summed by Horner to the fixed order N.  The term scale is
    (sum |a_k| |q|^k of Q)^3 / |Delta|, the size of the terms that form
    Q^3/Delta, against which rounding is judged."""
    q_c, _ = eisenstein_tables(N)
    d_c = delta_product_over_q(N)
    q = np.exp(2j * math.pi * np.asarray(tau, dtype=complex))
    qa = np.array(q_c, dtype=float)
    polyval = np.polynomial.polynomial.polyval
    Q = polyval(q, qa)
    delta = q * polyval(q, np.array(d_c, dtype=float))
    scale = polyval(np.abs(q), np.abs(qa)) ** 3 / np.abs(delta)
    return Q**3 / delta, scale


def hyp_series_scalar_loop(a: float, b: float, c: float, d: float, z,
                           rtol: float = 1e-14, max_terms: int = 200000):
    """The one-parameter-set hypergeometric loop as the library ran it
    before it took parameter arrays: Python-float parameters and the
    majorant ratio |z| (n+|a|)(n+|b|)/n^2, valid for c >= 0 and d > 0.
    A scalar-parameter call of the library must return exactly this."""
    z = np.asarray(z, dtype=complex)
    amax = float(np.abs(z).max()) if z.size else 0.0
    term = np.ones_like(z)
    acc = np.ones_like(z)
    aa, ab = abs(a), abs(b)
    n = 0
    while n < max_terms:
        term = term * (z * ((a + n) * (b + n) / ((c + n) * (d + n))))
        acc = acc + term
        n += 1
        r = amax * (n + aa) * (n + ab) / (n * n)
        if r < 1.0:
            tail = np.abs(term) * (r / (1.0 - r))
            if np.all(tail <= rtol * (np.abs(acc) + 1e-290)):
                return acc, float(np.max(tail))
    raise ArithmeticError("no convergence")


# ---------------------------------------------------------------------------
# the 2F1 loops as the library summed them one term at a time, in complex
# arithmetic: the library sums a block of terms at a time, in real
# arithmetic for real z, and must return exactly what these return


def _loop_params(*ps):
    if all(np.ndim(p) == 0 for p in ps):
        return tuple(float(p) for p in ps)
    return tuple(np.asarray(p, dtype=float) for p in ps)


def hyp_series_term_loop(a, b, c, d, z, rtol: float = 1e-14,
                         max_terms: int = 200000):
    """sum_m w_m with w_0 = 1 and w_{m+1}/w_m = z (a+m)(b+m)/((c+m)(d+m)),
    one term per pass: array parameters, the majorant
    max|z| (n+max|a|)(n+max|b|)/((n+c-) n) with c- = min(c, 0), and the
    full tail test skipped while one watched element clearly fails.
    Returns (value, max absolute tail bound); more than max_terms terms
    raise PrecisionLossError."""
    a, b, c, d = _loop_params(a, b, c, d)
    z = np.asarray(z, dtype=complex)
    if isinstance(a, np.ndarray):
        z = np.broadcast_to(z, np.broadcast_shapes(
            z.shape, a.shape, b.shape, c.shape, d.shape))
    if not z.size:
        return np.ones_like(z), 0.0
    amax = float(np.abs(z).max())
    term = np.ones_like(z)
    acc = np.ones_like(z)
    # an element that failed the last full tail test: while it clearly
    # still fails, so would the full test, which is then skipped
    watch = 0
    aa, ab = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    cneg = min(float(np.min(c)), 0.0)
    n = 0
    ratio = None
    while n < max_terms:
        term *= z * ((a + n) * (b + n) / ((c + n) * (d + n)))
        acc += term
        n += 1
        den = (n + cneg) * n
        if den > 0:
            r = amax * (n + aa) * (n + ab) / den
            if r < 1.0:
                ratio = r / (1.0 - r)
                if (abs(term.flat[watch]) * ratio
                        > 1.0001 * rtol * (abs(acc.flat[watch]) + 1e-290)):
                    continue
                tail = np.abs(term) * ratio
                met = tail <= rtol * (np.abs(acc) + 1e-290)
                if np.all(met):
                    return acc, float(np.max(tail))
                watch = int(np.argmin(met))
    tail = np.inf if ratio is None else np.abs(term) * ratio
    achieved = float(np.max(tail / (np.abs(acc) + 1e-290)))
    raise PrecisionLossError("hypergeometric series did not converge", achieved)


_SEXTIC_A, _SEXTIC_B = 1.0 / 6.0, 5.0 / 6.0
_SEXTIC_AB = _SEXTIC_A * _SEXTIC_B
_LN_432 = math.log(432.0)
_SEXTIC_CONNECTION = {
    1.0: (_SEXTIC_A, _SEXTIC_B, 1.0, _LN_432, 0.0),
    2.0: (_SEXTIC_A + 1.0, _SEXTIC_B + 1.0, 2.0,
          _LN_432 + 1.0 - 1.0 / _SEXTIC_A - 1.0 / _SEXTIC_B,
          1.0 / (TWO_PI * _SEXTIC_AB)),
}


def sextic_connection_term_loop(c: float, x: np.ndarray):
    """F(1/6, 5/6; c; 1 - x), c in {1, 2}, x in (0, 1/2), from the
    z -> 1 - z connection series F = P + Q sum_n u_n (k_n - ln x), one
    term per pass, with the full tail test after every term.  Returns
    (values, largest tail bound)."""
    al, be, ga, k, P = _SEXTIC_CONNECTION[c]
    lnx = np.log(x)
    Q = 1.0 / TWO_PI if c == 1.0 else -x / TWO_PI
    aQ = np.abs(Q)
    u = np.ones_like(x)
    acc = k - lnx
    n = 0
    while True:
        if c == 1.0:
            r, factor = x, k - lnx
        else:
            r, factor = x * (1.0 + _SEXTIC_AB / ((n + 1) * (n + 2))), -lnx
        value = P + Q * acc
        tail = aQ * u * factor * r / (1.0 - r)
        if np.all(tail <= 1e-16 * np.abs(value)):
            return value, float(np.max(tail))
        u = u * (x * ((n + al) * (n + be) / ((n + 1) * (n + ga))))
        k += 1.0 / (n + 1) + 1.0 / (n + ga) - 1.0 / (n + al) - 1.0 / (n + be)
        n += 1
        acc = acc + u * (k - lnx)


# ---------------------------------------------------------------------------
# real_zero_count's local scale, with np.roll


def local_scale_roll(mods: np.ndarray, window: int = 64) -> np.ndarray:
    """Blockwise running maximum of |f|, coarse but cheap."""
    n = mods.size
    nb = max(1, (n + window - 1) // window)
    pad = np.full(nb * window, 0.0)
    pad[:n] = mods
    blocks = pad.reshape(nb, window).max(axis=1)
    wide = np.maximum(blocks,
                      np.maximum(np.roll(blocks, 1), np.roll(blocks, -1)))
    if nb > 1:
        wide[0] = max(blocks[0], blocks[1])
        wide[-1] = max(blocks[-1], blocks[-2])
    return np.repeat(wide, window)[:n]


# ---------------------------------------------------------------------------
# line counts in complex arithmetic on a fresh grid


def line_count_complex(P, tau: float, line: str = "horizontal",
                       component: str = "Re") -> int:
    """The sign-change count of Re or Im of P(z, wp(z)) on a lattice line
    as line_im_zero_count once made it: a fresh 4096-point grid on
    (1e-4, end - 1e-4), wp evaluated on it at every call, and P by the
    complex Horner pass of BivariatePolynomial.evaluate."""
    L = lattice(tau)
    take = np.real if component == "Re" else np.imag
    direction = 1.0 if line == "horizontal" else 1j

    def f(t):
        return take(P.evaluate(direction * t, wp_on_line(t, L, line)))

    end = 1.0 if line == "horizontal" else tau
    t = np.linspace(1e-4, end - 1e-4, 4096)
    return real_zero_count(f, t, f(t))


# ---------------------------------------------------------------------------
# top-line dominance by sampling


def sampled_top_line_dominates(coeffs: np.ndarray, ys,
                               half_width: float) -> bool:
    """True when the leading term h_l(z) e^{-2 pi i l z} of
    P(z, j(z)) = sum_k h_k(z) j(z)^k exceeds 2.2x the rest at 512 evenly
    spaced points of every line Im z = y, |Re z| <= half_width, for y
    in ys.

    The library derives its check from the j series instead: samples
    prove nothing between them.  j comes from the eta-route tables to
    order 12, which leaves a relative error below 1e-60 at Im z >= 2.5."""
    coeffs = np.asarray(coeffs, dtype=complex)
    l = max(k for k in range(coeffs.shape[1]) if coeffs[:, k].any())
    x = np.linspace(-half_width, half_width, 512)
    z = x[None, :] + 1j * np.asarray(ys, dtype=float)[:, None]
    j = j_horner_fixed_order(z, N=12)[0]
    polyval = np.polynomial.polynomial.polyval
    lead = polyval(z, coeffs[:, l]) * np.exp(-2j * math.pi * l * z)
    total = sum(polyval(z, coeffs[:, k]) * j**k for k in range(l + 1))
    return bool(np.all(np.abs(lead) > 2.2 * np.abs(total - lead)))


# ---------------------------------------------------------------------------
# the phase pass as it ran before its round dropped redundant numpy calls


def table_point_clip(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Contour.point of the contour whose _table is table."""
    idx = np.clip(t.astype(int), 0, table.shape[1] - 1)
    loc = t - idx
    z0, dz, center, radius, ang0, dang = table[:, idx]
    z = z0 + dz * loc
    arc = radius.real > 0.0
    if arc.any():
        ang = ang0.real + dang.real * loc
        z = np.where(arc, center + radius.real * np.exp(1j * ang), z)
    return z


def sample_pair(f, z):
    """f(z) and f'(z), checked finite, from one call of the pair callable
    f: one refinement round."""
    from mzl import contour as C
    from mzl.errors import MzlError

    v, dv = C._pair(f, z)
    finite = np.isfinite(v) & np.isfinite(dv)
    if not finite.all():
        raise MzlError(f"non-finite value at z={z[np.argmin(finite)]!r}")
    return v, dv


def contour_phases_masked(f, contours, zero_atol: float) -> list:
    """contour._contour_phases as it ran before: the segment maximum and
    the alive masks on every round, np.angle, np.diff and np.flatnonzero,
    and one masked merge per array.  The library's helpers and constants
    are read at call time, so a test that monkeypatches one patches both
    passes; z comes from table_point_clip, not the library's point, and
    f(z), f'(z) from sample_pair, not the library's _sample."""
    from mzl import contour as C
    from mzl.errors import NonconvergenceError, ZeroOnContourError

    joined = C._joined(contours)
    nsegs = tuple(len(c.segments) for c in contours)
    t, cid, _ = C._start_grid(C._N_INITIAL, nsegs, joined._table.tobytes())
    z = table_point_clip(joined._table, t)
    nseg = len(joined.segments)
    errors: dict = {}
    alive = np.ones(len(contours), dtype=bool)

    def stop(k, error):
        errors[k] = error
        alive[k] = False

    v, dv = sample_pair(f, z)
    while True:
        mods = np.abs(v)
        seg = np.minimum(t.astype(int), nseg - 1)
        seg_max = np.maximum.reduceat(mods, np.searchsorted(seg,
                                                            np.arange(nseg)))
        hit = mods < C._ZERO_RTOL * seg_max[seg]
        if zero_atol > 0.0:
            hit &= mods < zero_atol
        hit &= alive[cid]
        if hit.any():
            for k in np.flatnonzero(np.bincount(cid[hit],
                                                minlength=len(contours))):
                idx = np.flatnonzero(hit & (cid == k))
                i = idx[np.argmin(mods[idx])]
                stop(k, ZeroOnContourError("|f| below tolerance on contour",
                                           complex(z[i]), float(mods[i])))
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.angle(v[1:] / v[:-1])
            rate = np.abs(dv) / mods
            dz = np.abs(np.diff(z))
            step = dz * np.maximum(rate[1:], rate[:-1])
        left = cid[:-1]
        bad = ((cid[1:] == left) & alive[left]
               & ((np.abs(dphi) >= np.pi / 2.0) | (step >= np.pi / 2.0)))
        split = np.flatnonzero(bad)
        if not split.size:
            break
        t0, t1 = t[split], t[split + 1]
        k = np.fmax(np.fmin(np.ceil(np.fmax(np.abs(dphi[split]), step[split])
                                    / (np.pi / 2.0)), C._MAX_PIECES), 2.0)
        floor = C._SPLIT_ULPS * np.spacing(np.maximum(np.abs(z[split]),
                                                      np.abs(z[split + 1])))
        k[(dz[split] < k * floor)
          | (t1 - t0 < k * C._SPLIT_ULPS * np.spacing(t1))] = 2.0
        n = k.astype(int) - 1
        first = np.cumsum(n) - n
        owner = np.repeat(np.arange(split.size), n)
        tm = t0[owner] + (t1 - t0)[owner] * (
            (np.arange(owner.size) - first[owner] + 1) / k[owner])
        tiny = ((dz[split] < floor) | (tm[first] <= t0)
                | (tm[first + n - 1] >= t1))
        for i in split[tiny]:
            if alive[left[i]]:
                stop(left[i], NonconvergenceError(
                    f"phase refinement reached float resolution at "
                    f"z={complex(z[i])!r}"))
        if t.size > C._MAX_POINTS:
            for c in np.flatnonzero(np.bincount(left[split],
                                                minlength=len(contours))):
                if alive[c] and np.count_nonzero(cid == c) > C._MAX_POINTS:
                    stop(c, NonconvergenceError(
                        f"phase refinement exceeded {C._MAX_POINTS} points"))
        after = split[owner]
        keep = alive[left[after]]
        if not keep.all():
            after, tm = after[keep], tm[keep]
            if not after.size:
                break
        zm = table_point_clip(joined._table, tm)
        vm, dvm = sample_pair(f, zm)
        at = after + np.arange(1, after.size + 1)
        old = np.ones(t.size + at.size, dtype=bool)
        old[at] = False
        merged = []
        for a, b in ((t, tm), (cid, left[after]), (z, zm), (v, vm),
                     (dv, dvm)):
            m = np.empty(old.size, dtype=a.dtype)
            m[old], m[at] = a, b
            merged.append(m)
        t, cid, z, v, dv = merged
    bounds = np.searchsorted(cid, np.arange(len(contours) + 1))
    out = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if k in errors:
            out.append(errors[k])
            continue
        d = dphi[lo:hi - 1]
        out.append((float(d.sum()), float(np.abs(d).sum()),
                    float(mods[lo:hi].min()), int(hi - lo),
                    float(np.log(mods[hi - 1]) - np.log(mods[lo])),
                    z[lo:hi], v[lo:hi], dv[lo:hi]))
    return out
