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

applied through quotient and product rules.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbiguityError, InvalidSpecError, MzlError
from .special import SEXTIC_A, SEXTIC_B, hyp2f1


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
    """rhs[i] is the polynomial for f_{i+1}' in variables (x, f_1..f_{i+1})."""

    rhs: list
    domain: tuple
    member_evaluators: list
    sample_offset: float = 1e-3
    label: str = ""

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise InvalidSpecError("empty chain domain")
        if len(self.rhs) != len(self.member_evaluators):
            raise InvalidSpecError("rhs/evaluator count mismatch")
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

    def member_values(self, x) -> list:
        return [ev(x) for ev in self.member_evaluators]


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
        """outer at x.  Only the members with a nonzero exponent in some
        term of outer are evaluated; a scalar 0 stands in for the rest."""
        used = {i for exps in self.outer.terms
                for i, e in enumerate(exps[1:]) if e}
        members = [ev(x) if i in used else 0.0
                   for i, ev in enumerate(self.chain.member_evaluators)]
        return self.outer.eval(x, members)


def khovanskii_zero_bound(r: int, alpha: int, beta: int) -> int:
    """2^(r(r-1)/2) * beta * (alpha + beta)^r, exactly, as a Python int."""
    if r < 1 or alpha < 1 or beta < 0:
        raise InvalidSpecError("need r >= 1, alpha >= 1, beta >= 0")
    if beta == 0:
        return 0
    return 2 ** (r * (r - 1) // 2) * beta * (alpha + beta) ** r


def build_hypergeometric_chain(a: float, b: float, c: float,
                               domain: tuple = (0.0, 1.0)) -> PfaffianChain:
    """Order-6 chain: 1/x, 1/(1-x), F/F(c+), F(c+), F, 1/F.

    F = F(a,b;c;x).  The ratio member satisfies a Riccati equation whose
    coefficients come from the two contiguous relations; the final member
    uses F' = (A f2 f4 + (a+b-c) f2 f5) with A = (c-a)(c-b)/c, rewritten
    through f5 f6 = 1 so only allowed variables appear.
    """
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

    def F(x):
        return hyp2f1(a, b, c, np.asarray(x, dtype=float))

    def Fp(x):
        return hyp2f1(a, b, c + 1.0, np.asarray(x, dtype=float))

    evaluators = [
        lambda x: 1.0 / np.asarray(x, dtype=complex),
        lambda x: 1.0 / (1.0 - np.asarray(x, dtype=complex)),
        lambda x: F(x) / Fp(x),
        Fp,
        F,
        lambda x: 1.0 / F(x),
    ]
    return PfaffianChain(rhs, domain, evaluators, sample_offset=0.05,
                         label=f"hyp2f1({a},{b},{c})")


def build_ratio_chain(domain: tuple = (0.0, 1.0)) -> PfaffianChain:
    """Order-9, degree-2 chain containing ratio(y) = F(w+)/F(w-) where
    F = F(1/6, 5/6; 1; .), w+ = (1+y)/2, w- = (1-y)/2.

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

    def F(w):
        return hyp2f1(aa, bb, 1.0, np.asarray(w, dtype=float))

    def Fc(w):
        return hyp2f1(aa, bb, 2.0, np.asarray(w, dtype=float))

    def wp(y):
        return (1.0 + np.asarray(y, dtype=float)) / 2.0

    def wm(y):
        return (1.0 - np.asarray(y, dtype=float)) / 2.0

    evaluators = [
        lambda y: 1.0 / (1.0 - np.asarray(y, dtype=complex)),
        lambda y: 1.0 / (1.0 + np.asarray(y, dtype=complex)),
        lambda y: Fc(wp(y)) / ((1.0 - y) * F(wp(y))),
        lambda y: F(wp(y)),
        lambda y: Fc(wm(y)) / ((1.0 + y) * F(wm(y))),
        lambda y: F(wm(y)),
        lambda y: Fc(wp(y)),
        lambda y: Fc(wm(y)),
        lambda y: F(wp(y)) / F(wm(y)),
    ]
    return PfaffianChain(rhs, domain, evaluators, sample_offset=0.02,
                         label="sextic-ratio")


def ratio_pfaffian_function() -> PfaffianFunction:
    """The period ratio as a Pfaffian function: order 9, degree (2, 1)."""
    chain = build_ratio_chain()
    outer = MultiPoly({(0,) * 9 + (1,): 1.0}, 10)
    return PfaffianFunction(chain, outer)


def chain_residual(chain: PfaffianChain, n_samples: int = 200) -> float:
    """max |f_i'(x) - R_i(x, f_1..f_i)| over a sample grid.

    Derivatives use the five-point central stencil
    (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / (12h), whose truncation
    error ~ h^4 f^(5)/30 sits below 1e-8 for these members at h = 1e-5.
    Each member is evaluated once, on the grid and its four shifts
    stacked.  The grid is inset from the domain ends by the chain's
    sample_offset so x +- 2h stays interior.
    """
    if n_samples < 1:
        raise InvalidSpecError(f"samples must be at least 1, got {n_samples}")
    a, b = chain.domain
    off = chain.sample_offset
    if not (a + off < b - off):
        raise InvalidSpecError("offset swallows the whole domain")
    h = 1e-5
    xs = np.linspace(a + off, b - off, n_samples)
    stacked = np.concatenate([xs, xs + 2 * h, xs + h, xs - h, xs - 2 * h])
    worst = 0.0
    values = []
    for i, ev in enumerate(chain.member_evaluators):
        try:
            vals, *shifted = np.asarray(ev(stacked), dtype=complex).reshape(
                5, n_samples)
        except Exception as exc:
            raise MzlError(
                f"member {i + 1} of chain {chain.label!r} failed on "
                f"[{xs[0]:.6g}, {xs[-1]:.6g}]: {exc}") from exc
        values.append(vals)
        deriv = (-shifted[0] + 8.0 * shifted[1]
                 - 8.0 * shifted[2] + shifted[3]) / (12.0 * h)
        rhs_val = chain.rhs[i].eval(xs, values)
        worst = max(worst, float(np.abs(deriv - rhs_val).max()))
    return worst


@dataclass(frozen=True)
class RealZeroDetail:
    count: int
    roots: tuple
    tangential: tuple


def _local_scale(mods: np.ndarray, window: int = 64) -> np.ndarray:
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


_REFINE_FACTOR = 8
_REFINE_MAX_POINTS = 2_000_000
_BISECT_TOL = 1e-10
_TANGENTIAL_ATOL = 1e-9
_PLATEAU_RTOL = 1e-13


def real_zero_count_detailed(f, interval: tuple, n_initial: int = 4096,
                             refine_rounds: int = 3) -> RealZeroDetail:
    """Sign-change zero count of a real function on an interval.

    f must accept ndarray input.  Grid refinement concentrates samples
    where |f| is small relative to a local scale; crossings are bisected
    to _BISECT_TOL.  Points where |f| dips below _TANGENTIAL_ATOL
    without a sign change are reported as tangential touches, not counted.
    A flat stretch at plateau level raises AmbiguityError.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InvalidSpecError("empty interval")
    t = np.linspace(a, b, n_initial)
    v = np.asarray(f(t), dtype=float)
    for _ in range(refine_rounds):
        mods = np.abs(v)
        scale = float(mods.max())
        if scale == 0.0:
            raise AmbiguityError("function vanishes identically on the grid",
                                 (a, b))
        loc = _local_scale(mods)
        small = np.minimum(mods[:-1], mods[1:]) < 1e-3 * loc[:-1]
        if not small.any() or t.size > _REFINE_MAX_POINTS:
            break
        idx = np.flatnonzero(small)
        frac = np.arange(1, _REFINE_FACTOR)[:, None] / _REFINE_FACTOR
        tn = (t[idx][None, :] * (1 - frac) + t[idx + 1][None, :] * frac).ravel()
        vn = np.asarray(f(tn), dtype=float)
        t = np.concatenate([t, tn])
        order = np.argsort(t, kind="stable")
        t = t[order]
        v = np.concatenate([v, vn])[order]

    mods = np.abs(v)
    scale = float(mods.max())
    if scale == 0.0:
        raise AmbiguityError("function vanishes identically on the grid",
                             (a, b))
    # plateau and touch detection compare against a local scale: with
    # poles near the interval ends the global maximum is meaningless
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
    exact = np.flatnonzero(sign == 0.0)
    roots = [float(t[i]) for i in exact]
    cross = np.flatnonzero((sign[:-1] * sign[1:]) < 0.0)
    if cross.size:
        lo = t[cross].copy()
        hi = t[cross + 1].copy()
        flo = v[cross].copy()
        while float((hi - lo).max()) > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            fm = np.asarray(f(mid), dtype=float)
            left = flo * fm <= 0.0
            hi = np.where(left, mid, hi)
            keep = ~left
            lo = np.where(keep, mid, lo)
            flo = np.where(keep, fm, flo)
        roots.extend(float(r) for r in 0.5 * (lo + hi))

    tang = []
    interior = np.arange(1, t.size - 1)
    is_min = (mods[interior] <= mods[interior - 1]) \
        & (mods[interior] <= mods[interior + 1]) \
        & (mods[interior] < _TANGENTIAL_ATOL) \
        & (sign[interior - 1] == sign[interior + 1]) \
        & (sign[interior] != 0.0)
    for i in interior[is_min]:
        tang.append(float(t[i]))

    return RealZeroDetail(len(roots), tuple(sorted(roots)), tuple(tang))


def real_zero_count(f, interval: tuple, n_initial: int = 4096,
                    refine_rounds: int = 3) -> int:
    return real_zero_count_detailed(f, interval, n_initial,
                                    refine_rounds).count
