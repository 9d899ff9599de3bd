"""Zero counting inside fundamental domains.

count_zeros_j counts zeros of P(z, j(z)) in the half-open fundamental
domain of the modular group truncated at height Y; count_zeros_wp counts
zeros of P(z, wp(z)) in the half-open period cell [beta, beta + 1) x
[0, tau) of the lattice spanned by 1 and i*tau.  Both follow Serre (A
Course in Arithmetic, VII.1.2): each winds a contour eta off the
classical boundary, outside it along the pieces that are in and inside
it along the pieces that are out, so a zero on the classical boundary
lies inside the contour exactly if the domain has it.  The wp contour
is the plain rectangle, and the wp count winds F(z) P(z, wp(z)), whose
factor F = prod_k (z - omega_k)^e_k cancels the poles at the lattice
points next to the rectangle (_lattice_factor, _pole_order).

Both counts run one loop (_count).  Every attempt first winds the
unperturbed composite G = P(z, f(z)), or F P(z, wp(z)) for wp, over the
contour (_unperturbed_winding), then offsets G by eps e^{i theta}, with
eps half the minimum |G| over that pass's adaptive samples, localizes
the zeros of the offset G and checks that their multiplicities sum to
the unperturbed winding, so a zero the offset would push across the
contour is caught.  The samples keep |G + eps e^{i theta}| >= eps, and
by Rouche the offset changes no count while |G| > eps on the contour;
the pass's step rule refines wherever a zero hugs the contour, so |G|
between its samples stays above eps.

One rule says when a sample is numerically zero (_zero_floor): |P(z, w)|
is at most a bound on its own error, the Horner running error
gamma sum |c_ij| |z|^i |w|^j (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1) plus |P_Y(z, w)| times a bound on
the error of w = f(z) (special.klein_j_error_bound,
elliptic.wp_error_bound).  F vanishes nowhere on the wp contour, so G
is numerically zero exactly where P is.  The unperturbed winding raises
ZeroOnContourError at the first such sample.  Any failed attempt takes
the next, larger eta, the one retry move of both counts; the domain
stays as it is.

Counts on one domain repeat two phase passes: the unperturbed winding
over the contour and the localization's top boxes (for wp the same
rectangle, so both start from one memoized first round).  The first
round of each, w and w' on the pass's starting grid, is memoized
read-only under
(pair callable, the bytes of the grid) for the last _FIRST_ROUNDS such
rounds (_first_round), so a repeated count's first rounds cost only P's
Horner and the error bound of w; every later round, and every count's
results, are as from a cold memo.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as npoly

from .contour import (ArcSegment, Contour, LineSegment, localize_zeros,
                      rectangle_contour, winding_number)
from .elliptic import lattice, wp_analytic, wp_error_bound, wp_on_line
from .errors import (AmbiguityError, CannotPerturbError, DominanceError,
                     InvalidSpecError, NonconvergenceError,
                     PrecisionLossError, ZeroOnContourError)
from .pfaffian import khovanskii_zero_bound, real_zero_count
from .poly import BivariatePolynomial, perturb_from_values
from .qseries import UNIT_ROUNDOFF, standard_series
# klein_j is not called here; bench/test_bench.py reads it from this
# module to check that the tracer restored it
from .special import klein_j, klein_j_error_bound, klein_j_pair  # noqa: F401


# ----------------------------------------------------------------- bounds

def _check_degree(d) -> int:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidSpecError("degree must be a positive integer")
    return int(d)


def theorem1_bound(d) -> int:
    """Zero bound for P(z, j(z)) of degree d in the truncated domain."""
    d = _check_degree(d)
    return 2 ** 68 * d ** 10


def theorem2_bound(d) -> int:
    """Zero bound for P(z, wp(z)) of degree d in a period cell."""
    d = _check_degree(d)
    return 8 * d * d + 14 * d + 5


def theorem2_proof_bound(d) -> int:
    """The slightly larger constant the counting argument itself yields."""
    d = _check_degree(d)
    return 8 * d * d + 14 * d + 7


def proposition_bound(d) -> int:
    """Zero bound along a single lattice line for the wp case."""
    d = _check_degree(d)
    return 4 * d * d + 6 * d + 1


def bezout_step_bound(d) -> int:
    """Bezout count for the squared polynomial system behind the
    proposition: deg 2d x deg (2d+3) minus the multiplicity-d root at
    infinity, i.e. 2d^2 + 3d."""
    d = _check_degree(d)
    return 2 * d * d + 3 * d


def verify_bound_inequalities(d_max: int = 100) -> bool:
    """Exact-arithmetic checks linking the Pfaffian bound to the headline
    constant: khovanskii(9, 3, 4d) <= 2^64 d^10 and
    8 * 2^64 d^10 + 10 d + 1/5 <= 2^68 d^10, for d = 1..d_max."""
    for d in range(1, d_max + 1):
        if khovanskii_zero_bound(9, 3, 4 * d) > 2 ** 64 * d ** 10:
            return False
        lhs = 8 * Fraction(2 ** 64) * d ** 10 + 10 * d + Fraction(1, 5)
        if lhs > 2 ** 68 * d ** 10:
            return False
    return True


def random_polynomial(rng: np.random.Generator, deg_x: int, deg_y: int,
                      real: bool = False) -> BivariatePolynomial:
    c = rng.standard_normal((deg_x + 1, deg_y + 1))
    if not real:
        c = c + 1j * rng.standard_normal((deg_x + 1, deg_y + 1))
    return BivariatePolynomial(c)


# ---------------------------------------------------------------- domains

@dataclass(frozen=True)
class JDomainSpec:
    """The standard fundamental domain truncated at height Y, half-open
    (Serre, A Course in Arithmetic, VII.1.2): -1/2 <= Re z < 1/2,
    Im z <= Y, |z| >= 1 and |z| > 1 where Re z > 0; so its left edge and
    arc half are in, i and rho too, and the right ones are out."""

    Y: float = 2.5

    def __post_init__(self):
        if not self.Y > 1.0:
            raise InvalidSpecError("Y must exceed 1")


# the j contour's distances eta from the classical boundary, in turn
_J_ETAS = (1e-6, 1e-5, 1e-4, 1e-3)


def _dip_radius(eta: float) -> float:
    """Radius of the j contour's dip below i."""
    return max(1e-3, 10.0 * eta)


def build_j_contour(spec: JDomainSpec, eta: float = _J_ETAS[0]) -> Contour:
    """Counterclockwise boundary of the half-open domain: the left arc half
    at radius 1 - eta, a dip of radius _dip_radius(eta) about i below it,
    the right arc half at radius 1 + eta, the right edge at 1/2 - eta, the
    top line and the left edge at -1/2 - eta.  The pieces that are in lie
    outside the classical boundary and the others inside it, so a zero on
    it, i and rho too, lies inside the contour exactly if the domain has
    it."""
    r, xl, xr = _dip_radius(eta), -0.5 - eta, 0.5 - eta
    rl, rr = 1.0 - eta, 1.0 + eta
    # each arc half, radius R, meets the dip circle |z - i| = r at height
    # R - h, h = (r^2 - eta^2) / 2, and R^2 - (R - h)^2 = h (2 R - h)
    h = 0.5 * (r * r - eta * eta)
    pl = complex(-math.sqrt(h * (2.0 * rl - h)), rl - h)
    pr = complex(math.sqrt(h * (2.0 * rr - h)), rr - h)
    cl = complex(xl, math.sqrt(rl * rl - xl * xl))
    cr = complex(xr, math.sqrt(rr * rr - xr * xr))
    return Contour([
        ArcSegment(0.0, rl, cmath.phase(cl), cmath.phase(pl)),
        ArcSegment(1j, r, cmath.phase(pl - 1j), cmath.phase(pr - 1j)),
        ArcSegment(0.0, rr, cmath.phase(pr), cmath.phase(cr)),
        LineSegment(cr, complex(xr, spec.Y)),
        LineSegment(complex(xr, spec.Y), complex(xl, spec.Y)),
        LineSegment(complex(xl, spec.Y), cl),
    ])


# the wp contour's distances eta from the classical cell boundary, in turn
_WP_ETAS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
# the largest |beta|: up to it the floats near beta are at most 2^-33
# apart, 1.2e-4 of the smallest eta, so the contour keeps its offsets
_MAX_BETA = 1e6


@dataclass(frozen=True)
class WpDomainSpec:
    """Half-open period cell [beta, beta+1) x [0, tau) of the lattice
    <1, i tau>, with beta finite and |beta| <= _MAX_BETA."""

    tau: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0.1 <= self.tau <= 10.0:
            raise InvalidSpecError("tau must lie in [0.1, 10]")
        if not abs(self.beta) <= _MAX_BETA:
            raise InvalidSpecError("beta must be finite, with |beta| <= 1e6")


def _wp_box(spec: WpDomainSpec, eta: float) -> tuple:
    """(x0, x1, y0, y1) of the cell translated by -eta (1 + i)."""
    return (spec.beta - eta, spec.beta + 1.0 - eta, -eta, spec.tau - eta)


def build_wp_contour(spec: WpDomainSpec, eta: float = _WP_ETAS[0]) -> Contour:
    """Counterclockwise boundary of the cell translated by -eta (1 + i).
    The bottom and left edges, which are in, move out by eta, and the top
    and right edges, which are out, move in, so a zero on the classical
    boundary lies inside the contour exactly if the half-open cell has
    it.  One lattice point lies inside, ceil(beta - eta): the cell's own
    ceil(beta) unless beta lies within eta above an integer."""
    return rectangle_contour(*_wp_box(spec, eta))


def _pole_order(P: BivariatePolynomial, omega: int) -> int:
    """The order of the pole of P(z, wp(z)) at the lattice point omega,
    an integer; 0 if it has none.

    With a_j(omega + u) = sum_k t_jk u^k the Taylor expansions of the
    Y-columns of P and u^2 wp(omega + u) = 1 + (g2/20) u^4 + (g3/28) u^6
    + ... (DLMF 23.9.2-3), P(omega + u, wp(omega + u)) is the sum of the
    products t_jk u^(k - 2j) (u^2 wp)^j.  The walk takes the Laurent
    coefficients at orders -2 deg_y ... -1 in turn.  A coefficient that
    is not zero sets the order, and the walk stops.  One whose t_jk are
    all zero counts as zero, and the walk goes on.  One whose t_jk cancel
    raises AmbiguityError: whether the walk should go on then depends on
    the u^4 and later terms, whose g2 and g3 are rounded.

    Each t_jk meets the walk first at order k - 2j, times the constant
    term 1, and its products with the later terms come at later orders,
    which the walk reaches only if t_jk = 0.  So at every order -m the
    walk reaches, the coefficient is sum_j t_(j, 2j - m), and g2 and g3
    never enter.  The stored coefficients are binary fractions and omega
    an integer, so the t_jk = sum_i C(i, k) omega^(i - k) c_ij and their
    sums are exact in rational arithmetic, with no rounding to bound.
    """
    c = [[(Fraction(v.real), Fraction(v.imag)) for v in row]
         for row in P.coeffs]

    def taylor(j: int, k: int) -> tuple:
        w = [(math.comb(i, k) * omega ** (i - k), c[i][j])
             for i in range(k, P.deg_x + 1)]
        return (sum(a * v[0] for a, v in w), sum(a * v[1] for a, v in w))

    for m in range(2 * P.deg_y, 0, -1):
        terms = [taylor(j, 2 * j - m) for j in range((m + 1) // 2,
                                                     P.deg_y + 1)]
        if any(map(sum, zip(*terms))):
            return m
        if any(map(any, terms)):
            top = max(abs(complex(*t)) for t in terms)
            raise AmbiguityError(
                f"the Laurent coefficient of P(z, wp(z)) of order -{m} at "
                f"the lattice point {omega} cancels exactly (its terms "
                f"reach {top:.3e})", (float(omega), float(omega)))
    return 0


def _lattice_factor(P: BivariatePolynomial, spec: WpDomainSpec,
                    box: tuple):
    """The pair callable of F(z) = prod_k (z - omega_k)^e_k over the
    lattice points omega_k within min(1, tau)/4 of the box (x0, x1, y0,
    y1) of build_wp_contour, or None if every e_k is 0.  At omega =
    ceil(x0), the one lattice point in the box, e_k is the order of the
    pole of P(z, wp(z)) there (_pole_order), and at the others 2 deg_y,
    the highest pole order.  F P(z, wp(z)) is then holomorphic and
    nonzero at omega and holomorphic at the others, so the contour and
    the localization's boxes meet no pole.  Those lattice points lie on
    the lines Im z = 0 and Im z = tau, so there are at most four."""
    x0, x1, y0, y1 = box
    omega = math.ceil(x0)
    p = _pole_order(P, omega)
    r = min(1.0, spec.tau) / 4.0
    points, exps = [], []
    for m in range(math.floor(x0 - r), math.floor(x1 + r) + 1):
        for n in (0, 1):
            y = n * spec.tau
            gap = math.hypot(max(x0 - m, 0.0, m - x1),
                             max(y0 - y, 0.0, y - y1))
            e = p if (m, n) == (omega, 0) else 2 * P.deg_y
            if gap <= r and e:
                points.append(complex(m, y))
                exps.append(float(e))
    if not points:
        return None
    om, e = np.array(points), np.array(exps)

    def factor(z):
        d = np.subtract.outer(z, om)
        f = np.prod(d ** e, axis=-1)
        return f, f * (e / d).sum(axis=-1)
    return factor


# ------------------------------------------------ count attempt and report

def _fstr(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class ZeroCountReport:
    kind: str
    count: int
    winding: int
    zeros: tuple
    epsilon: float
    theta: float
    domain: dict
    degree: int
    bound: int
    bound_holds: bool
    min_modulus: float
    total_variation: float
    contour_length: float
    retries: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": int(self.count),
            "winding": int(self.winding),
            "zeros": [
                {"re": _fstr(z.center.real), "im": _fstr(z.center.imag),
                 "radius": _fstr(z.radius),
                 "multiplicity": int(z.multiplicity),
                 "resolved": bool(z.resolved)}
                for z in self.zeros
            ],
            "epsilon": _fstr(self.epsilon),
            "theta": _fstr(self.theta),
            "domain": {k: _fstr(v) for k, v in sorted(self.domain.items())},
            "degree": int(self.degree),
            "bound": int(self.bound),
            "bound_holds": bool(self.bound_holds),
            "min_modulus": _fstr(self.min_modulus),
            "total_variation": _fstr(self.total_variation),
            "contour_length": _fstr(self.contour_length),
            "retries": int(self.retries),
        }


# half-width at which localize_zeros stops splitting a box
_J_TARGET_RADIUS = 1e-4
_WP_TARGET_RADIUS = 1e-3
# the smallest half-width to which _off_contour refines a box report that
# meets the contour
_MIN_TARGET_RADIUS = 1e-11


def _zero_floor(P: BivariatePolynomial, z, w, py, w_error) -> np.ndarray:
    """The bound on the error of the computed P(z, w), at the samples z
    with w = f(z) their inner values, P_Y(z, w) = py and |w - f(z)| <=
    w_error.  A sample is numerically zero when |P(z, w)| is at most this
    floor: then it says nothing about the sign or phase of P(z, f(z)).

    The Horner sum with nested steps v w + c, a complex product and a sum
    each, loses at most 4 units of rounding per step on every term, and a
    term of P passes through at most deg_x + deg_y steps (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 5.1); two more steps
    cover the second-order terms.  The error of w adds |P_Y| w_error to
    first order.  Both follow the terms themselves, so the growth of |j|
    towards the top line and of |wp| towards the lattice points never
    makes a healthy value look small.
    """
    gamma = 4.0 * (P.deg_x + P.deg_y + 2) * UNIT_ROUNDOFF
    k = np.arange(max(P.deg_x, P.deg_y) + 1)[:, None]
    scale = ((np.abs(z) ** k[:P.deg_x + 1])
             * (np.abs(P.coeffs) @ np.abs(w) ** k[:P.deg_y + 1])).sum(axis=0)
    return gamma * scale + np.abs(py) * w_error


# the most first rounds _first_round keeps
_FIRST_ROUNDS = 64


@lru_cache(maxsize=_FIRST_ROUNDS)
def _first_round(pair, z: bytes) -> tuple:
    """The read-only (w, w') = pair(z) at the starting grid of a phase
    pass, z given as its bytes: the values of exactly the batch the first
    round evaluates, so they have the bits of a fresh call (klein_j_pair
    picks its order from the whole batch)."""
    out = tuple(np.asarray(a) for a in pair(np.frombuffer(z, dtype=complex)))
    for a in out:
        a.setflags(write=False)
    return out


def _first_from_memo(pair):
    """pair, with its first call taken from _first_round."""
    first = True

    def f(z):
        nonlocal first
        if first:
            first = False
            return _first_round(pair, z.tobytes())
        return pair(z)
    return f


def _unperturbed_winding(P: BivariatePolynomial, pair, w_error,
                         contour: Contour, factor=None):
    """(vals, w) for _count from one winding pass of the unperturbed
    G(z) = F(z) P(z, f(z)) over the contour, for the pair callable pair
    of f, the bound w_error(z, w, dw) on the error of its values and the
    pair callable factor of F (None for F = 1): G's values at the pass's
    adaptive samples and the pass's WindingResult.

    The pass's first round takes f from _first_round, every later one
    calls pair once per sample, and every sample of P is checked by
    _zero_floor as the pass takes it; the first round that meets a
    numerically zero one raises ZeroOnContourError.  F vanishes nowhere
    on the contour, so G is numerically zero exactly where P is.  The
    contour layer's own zero test, relative to the largest |f| on a
    segment, misfires on edges where |P| spans many decades, so the pass
    gives it the smallest positive float as its floor: every value it
    sees lies above the rule's floor already.
    """
    f = _first_from_memo(pair)
    seen = []

    def composite(z):
        w, dw = f(z)
        v, px, py = P.evaluate_partials(z, w)
        mods = np.abs(v)
        excess = mods - _zero_floor(P, z, w, py, w_error(z, w, dw))
        if (excess <= 0.0).any():
            i = int(np.argmin(excess))
            raise ZeroOnContourError(
                "composite numerically zero on the boundary",
                complex(z[i]), float(mods[i]))
        dv = px + py * dw
        if factor is not None:
            g, dg = factor(z)
            v, dv = g * v, dg * v + g * dv
        seen.append(v)
        return v, dv

    w = winding_number(composite, contour, zero_atol=math.ulp(0.0))
    return np.concatenate(seen), w


def _distance(contour: Contour, z: complex) -> float:
    """The distance from z to the contour."""
    out = math.inf
    for s in contour.segments:
        if isinstance(s, LineSegment):
            d = s.z1 - s.z0
            t = min(max(((z - s.z0) * d.conjugate()).real / abs(d) ** 2,
                        0.0), 1.0)
            out = min(out, abs(z - s.z0 - t * d))
            continue
        a = cmath.phase(z - s.center)
        lo, hi = sorted((s.ang0, s.ang1))
        if any(lo <= a + k * 2.0 * math.pi <= hi for k in (-1, 0, 1)):
            out = min(out, abs(abs(z - s.center) - s.radius))
        else:
            out = min(out, abs(z - s.start), abs(z - s.end))
    return out


def _off_contour(f, zeros, contour: Contour, atol: float) -> list:
    """zeros with each box report whose disk meets the contour, which
    could hold zeros on either side, replaced by the zeros localize_zeros
    finds in its box at a sixteenth of its radius, until no report's disk
    does.  That ends: on the contour the offset composite f has modulus
    at least eps, so its zeros lie about eps / |f'| off it."""
    out, todo = [], list(zeros)
    while todo:
        z = todo.pop()
        if z.box is None or _distance(contour, z.center) >= z.radius:
            out.append(z)
            continue
        if z.radius / 16.0 < _MIN_TARGET_RADIUS:
            raise NonconvergenceError(
                "a localized box stays across the contour")
        todo += localize_zeros(f, z.box, target_radius=z.radius / 16.0,
                               zero_atol=atol)
    return out


def _count(kind: str, P: BivariatePolynomial, pair, w_error, etas,
           geometry, target_radius: float, bound_fn,
           domain: dict) -> ZeroCountReport:
    """The count of either pipeline, for the pair callable pair of f and
    the bound w_error on its error, as in _unperturbed_winding.

    Each attempt takes the next eta of etas and geometry(eta) = (contour,
    box, factor, keep): the contour to wind, the one top box of the
    localization, the pair callable of F (None for F = 1) and the
    predicate a zero's center must pass to count (None: every zero in the
    box counts).  It winds the unperturbed G = F P(z, f(z)) over the
    contour, offsets G by eps e^{i theta} sized from that pass's samples
    and localizes the offset G's zeros in the box (zero_atol 0.1 eps); the
    localization's first call, its top batch, takes f from _first_round.
    With keep, the box reports are first moved off the contour
    (_off_contour), and only the zeros whose centers pass keep are kept.
    Their multiplicities must sum to the winding.

    One retry move, which changes no count: any failed attempt, as at a
    multiple zero on the classical boundary eta away, takes the next eta;
    after the last, its error is raised.  The report's domain holds the
    fields of domain and eta, and its retries is the number of failed
    attempts, so its eta is etas[retries].
    """
    for retries, eta in enumerate(etas):
        contour, box, factor, keep = geometry(eta)
        try:
            vals, w = _unperturbed_winding(P, pair, w_error, contour, factor)
            pert = perturb_from_values(P, _first_from_memo(pair), vals,
                                       factor)
            atol = 0.1 * pert.epsilon
            zeros = localize_zeros(pert.pair, box,
                                   target_radius=target_radius,
                                   zero_atol=atol)
            if keep is not None:
                zeros = [z for z in _off_contour(pert.pair, zeros, contour,
                                                 atol) if keep(z.center)]
            count = sum(z.multiplicity for z in zeros)
            if count != w.winding:
                raise NonconvergenceError(
                    f"{count} localized zeros against winding {w.winding}")
        except (ZeroOnContourError, CannotPerturbError, NonconvergenceError,
                PrecisionLossError):
            if retries + 1 == len(etas):
                raise
            continue
        d = max(1, P.degree)
        bound = bound_fn(d)
        return ZeroCountReport(
            kind=kind, count=count, winding=w.winding,
            zeros=tuple(sorted(zeros, key=lambda z: (z.center.real,
                                                     z.center.imag))),
            epsilon=pert.epsilon, theta=pert.theta,
            domain={**domain, "eta": eta}, degree=d, bound=bound,
            bound_holds=count <= bound, min_modulus=w.min_modulus,
            total_variation=w.total_variation, contour_length=contour.length,
            retries=retries)


# ------------------------------------------------------------- j pipeline

_DOMINANCE_C = 2.0
_DOMINANCE_HEADROOM = 1.1
# half-width of the strip the top line is proved on; it holds every
# j contour's edges
_J_STRIP = 0.5 + _J_ETAS[-1]


def _top_line_dominates(P: BivariatePolynomial, Y: float,
                        roots: np.ndarray) -> bool:
    """True when the leading term h_l(z) q^{-l}, q = e^{2 pi i z}, of
    P(z, j(z)) = sum_k h_k(z) j(z)^k exceeds 2.2x the remainder on the
    whole half-strip H = {|Re z| <= _J_STRIP, Im z >= Y}, so that no
    zero lies above the top line; roots are those of h_l.

    On H, |q| <= s = e^{-2 pi Y} and |j - q^{-1}| <= B = 744 + the tail
    of the j majorant past q^0 at s, so j = q^{-1} (1 + d) with |d| <= Bs.
    With m <= |h_l| on H (the leading coefficient times the distance
    from each root of h_l to H) and R = |_J_STRIP + iY|, the remainder
    over the leading term is at most

        (1 + Bs)^l - 1 + sum_{k<l} (sum_i |c_ik| R^i / m) s^{l-k} (1 + Bs)^k.

    Each term |z|^i e^{-2 pi (l-k) Im z} decreases up the strip once
    Im z >= i / (2 pi (l - k)), which holds for every i <= deg_x once
    Y >= deg_x / (2 pi); there a bound that holds at Y holds on all of H.
    Below that height the check returns False and the caller raises Y.
    """
    l, hcol = P.leading_y_term()
    if l == 0:
        return True
    if 2.0 * math.pi * l * Y > 690.0:
        raise DominanceError(
            "top line too high for float arithmetic at this degree",
            complex(0.0, Y), math.inf)
    if P.deg_x > 2.0 * math.pi * Y:
        return False
    m = abs(hcol[np.flatnonzero(hcol)[-1]])
    for r in roots:
        m *= math.hypot(max(abs(r.real) - _J_STRIP, 0.0),
                        max(Y - r.imag, 0.0))
    if m == 0.0:
        return False
    s = math.exp(-2.0 * math.pi * Y)
    growth = 1.0 + (744.0 + standard_series()["j"].tail_bound(s, 1)) * s
    # sum_i |c_ik| R^i for every k < l
    h_bound = npoly.polyval(math.hypot(_J_STRIP, Y), np.abs(P.coeffs[:, :l]))
    rest = growth**l - 1.0 + sum(h_bound[k] / m * s ** (l - k) * growth**k
                                 for k in range(l))
    return 1.0 > _DOMINANCE_C * _DOMINANCE_HEADROOM * rest


def _min_y_for_polynomial_roots(roots: np.ndarray, Y: float) -> float:
    """Lift the top line to 1 above every root of the leading column h_l
    with |Re| <= _J_STRIP that lies above Y - 1.  A zero of P(z, j(z))
    sits next to each such root (with no j dependence, the root
    itself), so the lift keeps it off the top line and out of the
    half-strip H of _top_line_dominates, where the leading term vanishes
    at the root and cannot dominate."""
    return max([Y] + [float(r.imag) + 1.0 for r in roots
                      if abs(r.real) <= _J_STRIP])


def _in_j_region(z: complex, Y: float, eta: float) -> bool:
    """Whether z lies inside build_j_contour's contour for Y and eta."""
    bottom = 1.0 - eta if z.real < 0.0 else 1.0 + eta
    return (-0.5 - eta <= z.real <= 0.5 - eta and z.imag <= Y
            and (abs(z) >= bottom or abs(z - 1j) <= _dip_radius(eta)))


def _j_geometry(Y: float, eta: float) -> tuple:
    """(contour, box, factor, keep) of a j count for _count: the contour
    of build_j_contour, the box from its left corner, its lowest point,
    to the top line, no factor, and _in_j_region for Y and eta."""
    contour = build_j_contour(JDomainSpec(Y), eta)
    box = (-0.5 - eta, 0.5 - eta, contour.segments[0].start.imag, Y)
    return contour, box, None, partial(_in_j_region, Y=Y, eta=eta)


def count_zeros_j(P: BivariatePolynomial,
                  spec: JDomainSpec | None = None) -> ZeroCountReport:
    """Count zeros of P(z, j(z)), each with its multiplicity, in the
    half-open domain of JDomainSpec, with Y first raised until no zero
    can lie above it (_min_y_for_polynomial_roots, _top_line_dominates).

    The zeros are localized in one box around build_j_contour's contour
    and kept by _in_j_region, once no box report meets the contour
    (_off_contour refines those).  A failed attempt, as at a multiple
    zero on the classical boundary eta away, takes the next eta of
    _J_ETAS, which changes no count (_count); after the last, its error
    is raised.  The report's domain holds Y and eta, and its retries is
    the number of failed attempts.
    """
    spec = JDomainSpec() if spec is None else spec
    if P.is_zero():
        raise InvalidSpecError("zero polynomial")
    roots = np.roots(P.leading_y_term()[1][::-1])
    Y = _min_y_for_polynomial_roots(roots, spec.Y)
    while not _top_line_dominates(P, Y, roots):
        Y += 0.5
        if Y > spec.Y + 8.0:
            raise DominanceError("leading term never dominated the top line",
                                 complex(0.0, Y), math.nan)
    return _count("j", P, klein_j_pair,
                  lambda z, w, dw: klein_j_error_bound(z, w), _J_ETAS,
                  partial(_j_geometry, Y), _J_TARGET_RADIUS, theorem1_bound,
                  {"Y": Y})


# ------------------------------------------------------------ wp pipeline

def _wp_geometry(P: BivariatePolynomial, spec: WpDomainSpec,
                 eta: float) -> tuple:
    """(contour, box, factor, keep) of a wp count for _count: the
    rectangle of build_wp_contour, which is also the box, the factor of
    _lattice_factor, and no keep."""
    box = _wp_box(spec, eta)
    return (build_wp_contour(spec, eta), box, _lattice_factor(P, spec, box),
            None)


def count_zeros_wp(P: BivariatePolynomial,
                   spec: WpDomainSpec) -> ZeroCountReport:
    """Count zeros of P(z, wp(z)), each with its multiplicity, in the
    half-open period cell of WpDomainSpec.

    Each attempt winds G = F P(z, wp(z)) over the rectangle of
    build_wp_contour, eta off the classical boundary
    (_unperturbed_winding), with F from _lattice_factor.  G is
    holomorphic inside and nonzero at the rectangle's lattice point, so
    its winding is the count of the half-open cell.  Its adaptive samples
    size eps and theta, and the multiplicities of the offset G localized
    in the rectangle, the one top box of the localize_zeros quadtree,
    must sum to its winding.

    A failed attempt takes the next eta of _WP_ETAS (_count); after the
    last, its error is raised.  An attempt fails too where P overflows
    (PrecisionLossError): |wp| is about 1/(2 eta^2) at the corners next
    to the lattice points, so at eta = 1e-6 a P of deg_y 26 or more
    overflows there, and each step of eta divides |wp| there by 100.  The
    report's domain holds the spec's fields and eta, and its retries is
    the number of failed attempts.
    """
    if P.is_zero():
        raise InvalidSpecError("zero polynomial")
    L = lattice(spec.tau)
    with np.errstate(over="ignore", invalid="ignore"):
        return _count("wp", P, wp_analytic(L), partial(wp_error_bound, L=L),
                      _WP_ETAS, partial(_wp_geometry, P, spec),
                      _WP_TARGET_RADIUS, theorem2_bound, asdict(spec))


# ------------------------------------------------------------ line counts

_LINE_OFFSET = 1e-4
# points of the grid a line count starts from
_LINE_GRID = 4096


@lru_cache(maxsize=8)
def _line_grid(tau: float, line: str):
    """The starting grid t of a line count on (tau, line) and wp on it,
    both read-only.  They depend on nothing else, so every count on the
    same line shares them."""
    end = 1.0 if line == "horizontal" else tau
    t = np.linspace(_LINE_OFFSET, end - _LINE_OFFSET, _LINE_GRID)
    w = wp_on_line(t, lattice(tau), line)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _horner(coeffs, w):
    """The polynomial with real ascending coeffs at w, by Horner from the
    leading coefficient; 0.0 when every coefficient is zero."""
    if not coeffs.any():
        return 0.0
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * w + c
    return acc


def _line_values(P: BivariatePolynomial, t, w, line: str, component: str):
    """Re or Im of P(z(t), w) for real t and real w, in real arithmetic.

    On the horizontal line (z = t) the real and imaginary parts never
    mix, so one real column of the coefficients gives the component.  On
    the vertical line (z = it) the real and imaginary columns follow the
    complex multiply's operations in its order,
    (a_r + i a_i) it + (b_r + i b_i) = (b_r - a_i t) + i (a_r t + b_i).
    Each value has the bits of Re or Im of P.evaluate(z(t), w) apart
    from the sign of zero, so an identically zero component still
    vanishes exactly.
    """
    c = P.coeffs
    if line == "horizontal":
        col = c.real if component == "Re" else c.imag
        acc = _horner(col[-1], w)
        for row in col[-2::-1]:
            acc = acc * t + _horner(row, w)
    else:
        ar, ai = _horner(c[-1].real, w), _horner(c[-1].imag, w)
        for row in c[-2::-1]:
            br, bi = _horner(row.real, w), _horner(row.imag, w)
            ar, ai = br - ai * t, ar * t + bi
        acc = ar if component == "Re" else ai
    return acc if np.ndim(acc) else np.full(np.shape(t), acc)


def _component_degree(P: BivariatePolynomial, line: str,
                      component: str) -> int:
    """The degree in wp of Re or Im of P(z(t), wp) on the line: the
    highest column of that component's real coefficients that is not all
    zero, or 0 if there is none.

    On the horizontal line Re takes the real parts of the coefficients
    and Im the imaginary parts.  On the vertical line (it)^i is real for
    even i and imaginary for odd i, so there the two swap on odd X
    powers.
    """
    c = P.coeffs
    even, odd = (c.real, c.imag) if component == "Re" else (c.imag, c.real)
    if line == "horizontal":
        odd = even
    k = P.deg_y
    while k > 0 and not (even[::2, k].any() or odd[1::2, k].any()):
        k -= 1
    return k


def _weighted_line_values(P: BivariatePolynomial, t, w, line: str,
                          component: str):
    """_line_values divided by the weight (1 + w^2)^(k / 2), with k the
    component's own degree in wp (_component_degree).

    The weight is positive and finite, so every sign and every exact
    zero is the component's own.  Next to the double poles at the line
    ends the component grows like w^k and the weighted values stay
    bounded.  A weight that overflows, or a nonzero value that the
    division takes to zero, raises PrecisionLossError rather than give a
    false zero; with |w| <= 1e8 on the line that needs k > 38.
    """
    k = _component_degree(P, line, component)
    with np.errstate(over="ignore"):
        weight = np.power(1.0 + w * w, 0.5 * k)
    if not np.isfinite(weight).all():
        raise PrecisionLossError(
            f"(1 + wp^2)^(k/2) overflows at the {component} degree k = {k}"
            f" (deg_y = {P.deg_y})", math.inf)
    v = _line_values(P, t, w, line, component)
    out = v / weight
    if np.count_nonzero(out) != np.count_nonzero(v):
        raise PrecisionLossError(
            f"P / (1 + wp^2)^(k/2) underflows at the {component} degree"
            f" k = {k} (deg_y = {P.deg_y})", math.inf)
    return out


def line_im_zero_count(P: BivariatePolynomial, tau: float,
                       line: str = "horizontal", component: str = "Re") -> int:
    """Sign-change count of Re or Im of P(z, wp(z)) along one lattice
    line of the cell, trimmed by _LINE_OFFSET at the pole endpoints.

    horizontal: z(t) = t,     t in (_LINE_OFFSET, 1 - _LINE_OFFSET)
    vertical:   z(t) = i * t, t in (_LINE_OFFSET, tau - _LINE_OFFSET)

    The count starts from the _LINE_GRID-point grid of _line_grid, with
    wp on it computed once per (tau, line) and shared by every count
    there; only the refinements evaluate wp again.  wp is real on both
    lines and is taken real (elliptic.wp_on_line), and P is evaluated in
    real arithmetic (_line_values), so a component that is identically
    zero there, such as Im P for real P on the horizontal line, vanishes
    exactly and raises AmbiguityError.

    real_zero_count counts the signs of _weighted_line_values, which are
    the component's own.  Its refinement flags cells where the values are
    small against a local scale; the weight keeps the pole's growth out of
    that scale, so only cells where P can change sign are refined.
    """
    if line not in ("horizontal", "vertical"):
        raise InvalidSpecError("line must be horizontal or vertical")
    if component not in ("Re", "Im"):
        raise InvalidSpecError("component must be Re or Im")
    L = lattice(tau)

    def f(t):
        return _weighted_line_values(P, t, wp_on_line(t, L, line), line,
                                     component)

    t, w = _line_grid(tau, line)
    return real_zero_count(f, t, _weighted_line_values(P, t, w, line,
                                                       component))
