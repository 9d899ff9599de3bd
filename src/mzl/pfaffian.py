"""Pfaffian chains with explicit polynomial right-hand sides.

A chain of order r on an interval is a list of functions f_1..f_r where
f_i' = R_i(x, f_1, ..., f_i) for polynomials R_i.  The chain degree alpha
is the maximum total degree of the R_i.  Zero counts of polynomial
combinations of chain members obey the classical fewnomial-style bound
2^(r(r-1)/2) * beta * (alpha + beta)^r.

Two concrete chains are built here: one for the Gauss hypergeometric
function F(a,b;c;x) together with 1/x, 1/(1-x), its contiguous ratio,
F(a,b;c+1;x), and 1/F; and one of order nine for the ratio
F(1/2 + y/2) / F(1/2 - y/2) with the sextic parameters (1/6, 5/6, 1).
Both right-hand sides follow from the contiguous relations

    x F' = (c-1) (F(c-) - F)
    x F' = x [ (c-a)(c-b) F(c+) + c (a+b-c) F ] / (c (1-x))

applied through quotient and product rules.  A chain evaluates all its
members in one pass, so each chain sums F and F(c+) once per batch of
points (the ratio chain at w+ and w- together) and builds every member
from those values.

real_zero_count checks such bounds numerically: it is a sign-change
count on a refined grid; roots are not located.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AmbiguityError, InvalidSpecError, MzlError
from .special import (SEXTIC_A, SEXTIC_B, _check_c, _gauss_series,
                      _sextic_pair)


class MultiPoly:
    """Sparse polynomial in variables (x, f_1, ..., f_k).

    terms maps exponent tuples of length nvars to complex coefficients.
    """

    def __init__(self, terms: dict, nvars: int):
        if nvars < 1:
            raise InvalidSpecError("MultiPoly needs at least one variable")
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise InvalidSpecError(
                    f"exponent tuple {exps} does not have {nvars} entries")
            if any(e < 0 for e in exps):
                raise InvalidSpecError("negative exponent")
            if c != 0:
                clean[tuple(int(e) for e in exps)] = complex(c)
        self.terms = clean
        self.nvars = nvars

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def eval(self, x, members: Sequence):
        """Evaluate at x with members = values of (f_1, ..., f_{nvars-1})."""
        if len(members) != self.nvars - 1:
            raise InvalidSpecError(
                f"expected {self.nvars - 1} member arrays, got {len(members)}")
        x = np.asarray(x)
        acc = np.zeros(np.broadcast_shapes(x.shape,
                                           *(np.shape(m) for m in members)),
                       dtype=complex)
        for exps, c in self.terms.items():
            term = np.full(acc.shape, c, dtype=complex)
            if exps[0]:
                term = term * x ** exps[0]
            for m, e in zip(members, exps[1:]):
                if e:
                    term = term * np.asarray(m) ** e
            acc += term
        return acc

    def bumped(self, exps: tuple, delta: complex) -> "MultiPoly":
        """Copy with one coefficient shifted; used for negative controls."""
        t = dict(self.terms)
        t[exps] = t.get(exps, 0.0) + delta
        return MultiPoly(t, self.nvars)


@dataclass
class PfaffianChain:
    """rhs[i] is the polynomial for f_{i+1}' in variables (x, f_1..f_{i+1}).

    member_values(x) returns [f_1(x), ..., f_r(x)] from one pass over x,
    so values that several members share are computed once; it must
    return exactly r arrays (checked where the values are used).
    """

    rhs: list
    domain: tuple
    member_values: Callable
    sample_offset: float = 1e-3
    label: str = ""

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise InvalidSpecError("empty chain domain")
        for i, p in enumerate(self.rhs):
            if p.nvars != i + 2:
                raise InvalidSpecError(
                    f"rhs[{i}] must use variables (x, f_1..f_{i + 1}); "
                    f"got nvars={p.nvars}")

    @property
    def order(self) -> int:
        return len(self.rhs)

    @property
    def alpha(self) -> int:
        return max(1, max(p.total_degree for p in self.rhs))


@dataclass
class PfaffianFunction:
    """outer(x, f_1..f_r) for a chain of order r."""

    chain: PfaffianChain
    outer: MultiPoly

    def __post_init__(self):
        if self.outer.nvars != self.chain.order + 1:
            raise InvalidSpecError("outer polynomial arity mismatch")

    @property
    def beta(self) -> int:
        return max(1, self.outer.total_degree)

    @property
    def zero_bound(self) -> int:
        return khovanskii_zero_bound(self.chain.order, self.chain.alpha,
                                     self.beta)

    def eval(self, x):
        """outer at x, from one pass over the chain's members."""
        return self.outer.eval(x, self.chain.member_values(x))


def khovanskii_zero_bound(r: int, alpha: int, beta: int) -> int:
    """2^(r(r-1)/2) * beta * (alpha + beta)^r, exactly, as a Python int."""
    if r < 1 or alpha < 1 or beta < 0:
        raise InvalidSpecError("need r >= 1, alpha >= 1, beta >= 0")
    if beta == 0:
        return 0
    return 2 ** (r * (r - 1) // 2) * beta * (alpha + beta) ** r


def build_hypergeometric_chain(a: float, b: float, c: float) -> PfaffianChain:
    """Order-6 chain on (0, 1): 1/x, 1/(1-x), F/F(c+), F(c+), F, 1/F.

    F = F(a,b;c;x).  The ratio member satisfies a Riccati equation whose
    coefficients come from the two contiguous relations; the final member
    uses F' = (A f2 f4 + (a+b-c) f2 f5) with A = (c-a)(c-b)/c, rewritten
    through f5 f6 = 1 so only allowed variables appear.  A c or c + 1
    that is a non-positive integer raises DomainError here.
    """
    _check_c((c, c + 1.0))
    A = (c - a) * (c - b) / c
    s = a + b - c
    rhs = [
        MultiPoly({(0, 2): -1.0}, 2),
        MultiPoly({(0, 0, 2): 1.0}, 3),
        MultiPoly({(0, 0, 1, 0): A, (0, 0, 1, 1): s,
                   (0, 1, 0, 1): c, (0, 1, 0, 2): -c}, 4),
        MultiPoly({(0, 1, 0, 1, 1): c, (0, 1, 0, 0, 1): -c}, 5),
        MultiPoly({(0, 0, 1, 0, 1, 0): A, (0, 0, 1, 0, 0, 1): s}, 6),
        MultiPoly({(0, 0, 1, 0, 1, 0, 2): -A,
                   (0, 0, 1, 0, 0, 0, 1): -s}, 7),
    ]

    def member_values(x):
        # F and F(c+) are the two rows of one series loop
        x = np.asarray(x, dtype=float)
        (F, _), (Fp, _) = _gauss_series([(a, b, c, 1.0), (a, b, c + 1.0, 1.0)],
                                        x)
        xc = x.astype(complex)
        return [1.0 / xc, 1.0 / (1.0 - xc), F / Fp, Fp, F, 1.0 / F]

    return PfaffianChain(rhs, (0.0, 1.0), member_values, sample_offset=0.05,
                         label=f"hyp2f1({a},{b},{c})")


def build_ratio_chain() -> PfaffianChain:
    """Order-9, degree-2 chain on (0, 1) containing ratio(y) = F(w+)/F(w-)
    where F = F(1/6, 5/6; 1; .), w+ = (1+y)/2, w- = (1-y)/2.

    Members: 1/(1-y), 1/(1+y), w1*F(c+)(w+)/F(w+), F(w+),
    w2*F(c+)(w-)/F(w-), F(w-), F(c+)(w+), F(c+)(w-), ratio.
    kappa = (c-a)(c-b)/c = 5/36 for the sextic parameters.
    """
    aa, bb = SEXTIC_A, SEXTIC_B
    kappa = (1.0 - aa) * (1.0 - bb)
    rhs = [
        MultiPoly({(0, 2): 1.0}, 2),
        MultiPoly({(0, 0, 2): -1.0}, 3),
        MultiPoly({(0, 1, 0, 1): 1.0, (0, 1, 1, 0): 1.0,
                   (0, 0, 1, 1): -1.0, (0, 0, 0, 2): -kappa}, 4),
        MultiPoly({(0, 0, 0, 1, 1): kappa}, 5),
        MultiPoly({(0, 0, 1, 0, 0, 1): -1.0, (0, 1, 1, 0, 0, 0): -1.0,
                   (0, 1, 0, 0, 0, 1): 1.0, (0, 0, 0, 0, 0, 2): kappa}, 6),
        MultiPoly({(0, 0, 0, 0, 0, 1, 1): -kappa}, 7),
        MultiPoly({(0, 0, 1, 0, 1, 0, 0, 0): 1.0,
                   (0, 0, 1, 0, 0, 0, 0, 1): -1.0}, 8),
        MultiPoly({(0, 1, 0, 0, 0, 0, 1, 0, 0): -1.0,
                   (0, 1, 0, 0, 0, 0, 0, 0, 1): 1.0}, 9),
        MultiPoly({(0, 0, 0, 1, 0, 0, 0, 0, 0, 1): kappa,
                   (0, 0, 0, 0, 0, 1, 0, 0, 0, 1): kappa}, 10),
    ]

    def member_values(y):
        # F and F(c+) at w- and w+ = 1 - w- are one pair each: y in [0, 1)
        y = np.asarray(y, dtype=float)
        wm = (1.0 - y) / 2.0
        Fm, Fp, _ = _sextic_pair(1.0, wm)
        Fcm, Fcp, _ = _sextic_pair(2.0, wm)
        yc = y.astype(complex)
        return [1.0 / (1.0 - yc), 1.0 / (1.0 + yc),
                Fcp / ((1.0 - y) * Fp), Fp, Fcm / ((1.0 + y) * Fm), Fm,
                Fcp, Fcm, Fp / Fm]

    return PfaffianChain(rhs, (0.0, 1.0), member_values, sample_offset=0.02,
                         label="sextic-ratio")


def ratio_pfaffian_function() -> PfaffianFunction:
    """The period ratio as a Pfaffian function: order 9, degree (2, 1)."""
    chain = build_ratio_chain()
    outer = MultiPoly({(0,) * 9 + (1,): 1.0}, 10)
    return PfaffianFunction(chain, outer)


_STENCIL_H = 1e-5


def chain_residual(chain: PfaffianChain, n_samples: int = 200) -> float:
    """max |f_i'(x) - R_i(x, f_1..f_i)| over a sample grid.

    Derivatives use the five-point central stencil
    (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / (12h), whose truncation
    error ~ h^4 f^(5)/30 sits below 1e-8 for these members at h = 1e-5.
    The members come from one member_values pass over the grid and its
    four shifts stacked.  The grid is inset from the domain ends by the
    chain's sample_offset so x +- 2h stays interior.
    """
    return _stencil_residual(chain, *_member_stencils(chain, n_samples))


def _member_stencils(chain: PfaffianChain, n_samples: int):
    """The grid xs of chain_residual, and per member its values on xs,
    xs + 2h, xs + h, xs - h and xs - 2h as the rows of one array, all
    from one member_values call.  A chain that differs only in its
    right-hand sides shares them."""
    if n_samples < 1:
        raise InvalidSpecError(f"samples must be at least 1, got {n_samples}")
    a, b = chain.domain
    off = chain.sample_offset
    if not (a + off < b - off):
        raise InvalidSpecError("offset swallows the whole domain")
    h = _STENCIL_H
    xs = np.linspace(a + off, b - off, n_samples)
    stacked = np.concatenate([xs, xs + 2 * h, xs + h, xs - h, xs - 2 * h])
    try:
        stencils = [np.asarray(v, dtype=complex).reshape(5, n_samples)
                    for v in chain.member_values(stacked)]
    except Exception as exc:
        raise MzlError(f"chain {chain.label!r} failed on "
                       f"[{xs[0]:.6g}, {xs[-1]:.6g}]: {exc}") from exc
    if len(stencils) != chain.order:
        raise InvalidSpecError(
            f"chain {chain.label!r} of order {chain.order} returned "
            f"{len(stencils)} member arrays")
    return xs, stencils


def _stencil_residual(chain: PfaffianChain, xs, stencils) -> float:
    """chain_residual from the member stencils of _member_stencils."""
    values = [s[0] for s in stencils]
    worst = 0.0
    for i, (_, *shifted) in enumerate(stencils):
        deriv = (-shifted[0] + 8.0 * shifted[1]
                 - 8.0 * shifted[2] + shifted[3]) / (12.0 * _STENCIL_H)
        rhs_val = chain.rhs[i].eval(xs, values[:i + 1])
        worst = max(worst, float(np.abs(deriv - rhs_val).max()))
    return worst


# points per block of _local_scale
_SCALE_WINDOW = 64


def _local_scale(mods: np.ndarray) -> np.ndarray:
    """Blockwise running maximum of |f|, coarse but cheap."""
    n = mods.size
    nb = max(1, (n + _SCALE_WINDOW - 1) // _SCALE_WINDOW)
    pad = np.full(nb * _SCALE_WINDOW, 0.0)
    pad[:n] = mods
    blocks = pad.reshape(nb, _SCALE_WINDOW).max(axis=1)
    wide = blocks.copy()          # each block and its two neighbours
    np.maximum(wide[1:], blocks[:-1], out=wide[1:])
    np.maximum(wide[:-1], blocks[1:], out=wide[:-1])
    return np.repeat(wide, _SCALE_WINDOW)[:n]


_REFINE_ROUNDS = 3
_REFINE_FACTOR = 8
_REFINE_MAX_POINTS = 2_000_000
_PLATEAU_RTOL = 1e-13


def real_zero_count(f, t, v) -> int:
    """Zero count of a real function on [t[0], t[-1]]: the sign-change
    count on a refined grid; roots are not located.

    t is the starting grid, strictly increasing, and v the values of f
    on it; the caller builds both, so a grid shared by many counts is
    built once.  f must accept ndarray input.  Each refinement round
    subdivides the grid cells where |f| is small relative to a local
    scale, so f is called at most _REFINE_ROUNDS times, at the new points
    only; t and v are never written.  A grid point where f is exactly
    zero counts as one zero; a tangential touch that never changes sign
    is not counted.  A function that vanishes on the whole grid, or a
    flat stretch at plateau level, raises AmbiguityError.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
        raise InvalidSpecError("t must be a grid of at least 2 points and "
                               "v the values on it")
    if not np.all(t[1:] > t[:-1]):
        raise InvalidSpecError("the grid must increase strictly")
    a, b = float(t[0]), float(t[-1])
    # a grid where f vanishes refines nothing (its local scale is 0), and
    # refining only adds points, so the check after the loop sees it
    for _ in range(_REFINE_ROUNDS):
        mods = np.abs(v)
        loc = _local_scale(mods)
        small = np.minimum(mods[:-1], mods[1:]) < 1e-3 * loc[:-1]
        if not small.any() or t.size > _REFINE_MAX_POINTS:
            break
        idx = np.flatnonzero(small)
        frac = np.arange(1, _REFINE_FACTOR) / _REFINE_FACTOR
        tn = (t[idx][:, None] * (1 - frac) + t[idx + 1][:, None] * frac).ravel()
        vn = np.asarray(f(tn), dtype=float)
        # the new points of a cell lie between its ends, in order, so they
        # go right after its left end and t stays sorted without a sort
        at = np.repeat(idx, _REFINE_FACTOR - 1) + np.arange(1, tn.size + 1)
        old = np.ones(t.size + tn.size, dtype=bool)
        old[at] = False
        tt, vv = np.empty(old.size), np.empty(old.size)
        tt[old], tt[at] = t, tn
        vv[old], vv[at] = v, vn
        t, v = tt, vv

    mods = np.abs(v)
    scale = float(mods.max())
    if scale == 0.0:
        raise AmbiguityError("function vanishes identically on the grid",
                             (a, b))
    # plateau detection compares against a local scale: with poles near
    # the interval ends the global maximum is meaningless
    loc = _local_scale(mods)
    flat = mods < _PLATEAU_RTOL * loc
    if flat.any():
        # a long flat run means the sign is numerically undecidable there
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate(
            [[0], flat.astype(int), [0]]))))[::2]
        if runs.size and int(runs.max()) >= 8:
            i0 = int(np.flatnonzero(flat)[0])
            raise AmbiguityError("plateau at zero level",
                                 (float(t[i0]), float(t[min(i0 + int(runs.max()),
                                                            t.size - 1)])))

    sign = np.sign(v)
    return int(np.count_nonzero(sign == 0.0)
               + np.count_nonzero(sign[:-1] * sign[1:] < 0.0))
