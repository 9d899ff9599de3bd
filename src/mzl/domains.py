"""Zero counting inside fundamental domains.

count_zeros_j counts zeros of P(z, j(z)) in the half-open fundamental
domain of the modular group truncated at height Y; count_zeros_wp counts
zeros of P(z, wp(z)) in the half-open period cell [beta, beta + 1) x
[0, tau) of the lattice spanned by 1 and i*tau, with notches excising the
lattice poles on its boundary.  Both follow Serre (A Course in
Arithmetic, VII.1.2): each winds a contour eta off the classical
boundary, outside it along the pieces that are in and inside it along
the pieces that are out, so a zero on the classical boundary lies inside
the contour exactly if the domain has it.

Every attempt first winds the unperturbed composite P(z, f(z)) over the
contour (_unperturbed_winding).  _attempt then offsets the composite by
eps e^{i theta}, with eps half the minimum |P(z, f(z))| over that pass's
adaptive samples, localizes the zeros of the offset composite and checks
that their multiplicities sum to the unperturbed winding, so a zero the
offset would push across the contour is caught.  The samples keep
|P + eps e^{i theta}| >= eps, and by Rouche the offset changes no count
while |P| > eps on the contour; the pass's step rule refines wherever a
zero hugs the contour, so |P| between its samples stays above eps.

One rule says when a sample is numerically zero (_zero_floor): |P(z, w)|
is at most a bound on its own error, the Horner running error
gamma sum |c_ij| |z|^i |w|^j (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1) plus |P_Y(z, w)| times a bound on
the error of w = f(z) (special.klein_j_error_bound,
elliptic.wp_error_bound).  The unperturbed winding raises
ZeroOnContourError at the first such sample, and both counts then take a
larger eta; the domain stays as it is.

Counts on one domain repeat two phase passes: the unperturbed winding
over the contour and the localization's top boxes.  The first round of
each, w and w' on the pass's starting grid, is memoized read-only under
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

from .contour import (ArcSegment, Contour, LineSegment, WindingResult,
                      localize_zeros, winding_number)
from .elliptic import lattice, wp_analytic, wp_error_bound, wp_on_line
from .errors import (CannotPerturbError, DominanceError, InvalidSpecError,
                     NonconvergenceError, PrecisionLossError,
                     ZeroOnContourError)
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
# the smallest notch radius per unit of eta: the notch centres move by
# eta sqrt 2 off the poles, which stay well inside
_NOTCH_PER_ETA = 4.0
_MIN_DELTA = _NOTCH_PER_ETA * _WP_ETAS[0]


@dataclass(frozen=True)
class WpDomainSpec:
    """Half-open period cell [beta, beta+1) x [0, tau), with the lattice
    points on its boundary excised by notches of radius delta; delta is
    at least _MIN_DELTA, so the notches hold the poles at the contour's
    smallest eta."""

    tau: float
    beta: float = 0.0
    delta: float | None = None

    def __post_init__(self):
        if not 0.1 <= self.tau <= 10.0:
            raise InvalidSpecError("tau must lie in [0.1, 10]")
        if self.delta is None:
            object.__setattr__(self, "delta", min(1.0, self.tau) / 16.0)
        if not _MIN_DELTA <= self.delta < min(1.0, self.tau) / 4.0:
            raise InvalidSpecError("delta must lie in [4e-6, min(1, tau)/4)")

    def with_delta(self, delta: float) -> "WpDomainSpec":
        return WpDomainSpec(self.tau, self.beta, delta)


def _wp_cell(spec: WpDomainSpec, eta: float):
    """(contour, tiles, poles) of the cell translated by -eta (1 + i): its
    counterclockwise boundary with notches, five tiles partitioning the
    cell minus squares of side delta around the notch centres (shared
    cuts, no overlap), and those centres.  The bottom and left edges,
    which are in, move out by eta, and the top and right edges, which are
    out, move in, so a zero on the classical boundary lies inside the
    contour exactly if the half-open cell has it.  With integer beta the
    poles are the four corners, each with a quarter-circle notch;
    otherwise one lies inside the bottom edge and one inside the top
    edge, each with a semicircular notch."""
    b, t, d = spec.beta, spec.tau, spec.delta
    if d < _NOTCH_PER_ETA * eta:
        raise InvalidSpecError("delta must be at least 4 eta")
    x0, x1, y0, y1 = b - eta, b + 1.0 - eta, -eta, t - eta
    c0, c1 = complex(x0, y0), complex(x1, y0)
    c2, c3 = complex(x1, y1), complex(x0, y1)
    if b == math.floor(b):
        a0, a1 = x0 + d, x1 - d
        contour = Contour([
            LineSegment(c0 + d, c1 - d),
            ArcSegment(c1, d, math.pi, math.pi / 2),
            LineSegment(c1 + 1j * d, c2 - 1j * d),
            ArcSegment(c2, d, -math.pi / 2, -math.pi),
            LineSegment(c2 - d, c3 + d),
            ArcSegment(c3, d, 0.0, -math.pi / 2),
            LineSegment(c3 - 1j * d, c0 + 1j * d),
            ArcSegment(c0, d, math.pi / 2, 0.0),
        ])
        tiles = [
            (a0, a1, y0, y0 + d),          # bottom strip
            (a0, a1, y1 - d, y1),          # top strip
            (x0, a0, y0 + d, y1 - d),      # left strip
            (a1, x1, y0 + d, y1 - d),      # right strip
            (a0, a1, y0 + d, y1 - d),      # center
        ]
        return contour, tiles, [c0, c1, c3, c2]
    k = math.ceil(b)
    if min(k - b, b + 1.0 - k) <= 2.0 * d:
        raise InvalidSpecError(
            "interior lattice point too close to a cell corner; "
            "shrink delta or shift beta")
    k -= eta
    contour = Contour([
        LineSegment(c0, complex(k - d, y0)),
        ArcSegment(complex(k, y0), d, math.pi, 0.0),
        LineSegment(complex(k + d, y0), c1),
        LineSegment(c1, c2),
        LineSegment(c2, complex(k + d, y1)),
        ArcSegment(complex(k, y1), d, 0.0, -math.pi),
        LineSegment(complex(k - d, y1), c3),
        LineSegment(c3, c0),
    ])
    tiles = [
        (x0, k - d, y0, y0 + d),       # bottom edge, left of the pole
        (k + d, x1, y0, y0 + d),       # bottom edge, right of the pole
        (x0, k - d, y1 - d, y1),       # top edge, left of the pole
        (k + d, x1, y1 - d, y1),       # top edge, right of the pole
        (x0, x1, y0 + d, y1 - d),      # middle band
    ]
    return contour, tiles, [complex(k, y0), complex(k, y1)]


def build_wp_contour(spec: WpDomainSpec, eta: float = _WP_ETAS[0]) -> Contour:
    """Counterclockwise boundary of the half-open cell, eta off the
    classical one, with pole notches (see _wp_cell)."""
    return _wp_cell(spec, eta)[0]


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
    towards the top line and of |wp| into the notches never makes a
    healthy value look small.
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
                         contour: Contour):
    """(vals, w) for _attempt from one winding pass of the unperturbed
    P(z, f(z)) over the contour, for the pair callable pair of f and the
    bound w_error(z, w, dw) on the error of its values: the composite's
    values at the pass's adaptive samples and the pass's WindingResult.

    The pass's first round takes f from _first_round, every later one
    calls pair once per sample, and every sample is checked by
    _zero_floor as the pass takes it; the first round that meets a
    numerically zero one raises ZeroOnContourError.  The contour layer's
    own zero test, relative to the largest |f| on a segment, misfires on
    edges where |P| spans many decades, so the pass gives it the smallest
    positive float as its floor: every value it sees lies above the rule's
    floor already.
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
        seen.append(v)
        return v, px + py * dw

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


def _attempt(P: BivariatePolynomial, pair, vals: np.ndarray,
             w: WindingResult, boxes, target_radius: float, region=None):
    """One count attempt of either pipeline: offset P(z, f(z)) with eps
    sized from vals and localize its zeros in the boxes (zero_atol
    0.1 eps), for the pair callable pair of f; the localization's first
    call, its top batch, takes f from _first_round.  The j count passes
    region = (contour, keep): its box reports are first moved off the
    contour (_off_contour), and only the zeros whose centers pass keep
    are kept.  Returns (offset composite, kept zeros); raises
    NonconvergenceError unless their multiplicities sum to w, the
    winding of the unperturbed composite over the contour."""
    pert = perturb_from_values(P, _first_from_memo(pair), vals)
    atol = 0.1 * pert.epsilon
    zeros = localize_zeros(pert.pair, *boxes, target_radius=target_radius,
                           zero_atol=atol)
    if region is not None:
        contour, keep = region
        zeros = [z for z in _off_contour(pert.pair, zeros, contour, atol)
                 if keep(z.center)]
    count = sum(z.multiplicity for z in zeros)
    if count != w.winding:
        raise NonconvergenceError(
            f"{count} localized zeros against winding {w.winding}")
    return pert, zeros


def _report(kind, P, bound_fn, pert, w, zeros, domain, contour,
            retries) -> ZeroCountReport:
    d = max(1, P.degree)
    bound = bound_fn(d)
    count = sum(z.multiplicity for z in zeros)
    return ZeroCountReport(
        kind=kind, count=count, winding=w.winding,
        zeros=tuple(sorted(zeros, key=lambda z: (z.center.real,
                                                 z.center.imag))),
        epsilon=pert.epsilon, theta=pert.theta, domain=domain, degree=d,
        bound=bound, bound_holds=count <= bound, min_modulus=w.min_modulus,
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


def count_zeros_j(P: BivariatePolynomial,
                  spec: JDomainSpec | None = None) -> ZeroCountReport:
    """Count zeros of P(z, j(z)), each with its multiplicity, in the
    half-open domain of JDomainSpec, with Y first raised until no zero
    can lie above it (_min_y_for_polynomial_roots, _top_line_dominates).

    The zeros are localized in one box around build_j_contour's contour
    and kept by _in_j_region, once no box report meets the contour
    (_off_contour refines those).  Neither retry move changes which zeros
    count: a failed unperturbed winding, as at a multiple zero on the
    classical boundary eta away, takes the next eta of _J_ETAS (after
    the last, its error is raised), and any other failure lowers the
    box's bottom edge, below the domain, by 1e-3, and keeps the winding,
    whose contour has not moved.  The report's retries is the number of
    failed attempts.
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
    k, drop = 0, 0.0
    last_error: Exception | None = None

    pair, w_error = klein_j_pair, lambda z, w, dw: klein_j_error_bound(z, w)

    # eta only moves on a failed winding, so a winding that succeeded
    # holds for every later retry, which moves only the box's bottom edge
    wound = None
    for retries in range(8):
        eta = _J_ETAS[k]
        contour = build_j_contour(JDomainSpec(Y), eta)
        if wound is None:
            try:
                wound = _unperturbed_winding(P, pair, w_error, contour)
            except (ZeroOnContourError, NonconvergenceError) as exc:
                if k + 1 == len(_J_ETAS):
                    raise
                last_error, k = exc, k + 1
                continue
        vals, w = wound
        # the box's bottom edge starts at the contour's left corner, its
        # lowest point
        y0 = contour.segments[0].start.imag - drop
        box = (-0.5 - eta, 0.5 - eta, y0, Y)
        try:
            pert, zeros = _attempt(
                P, pair, vals, w, [box], _J_TARGET_RADIUS,
                (contour, lambda c: _in_j_region(c, Y, eta)))
        except (ZeroOnContourError, NonconvergenceError) as exc:
            last_error, drop = exc, drop + 1e-3
            continue
        return _report("j", P, theorem1_bound, pert, w, zeros,
                       {"Y": Y, "eta": eta}, contour, retries)
    raise last_error


# ------------------------------------------------------------ wp pipeline

def count_zeros_wp(P: BivariatePolynomial,
                   spec: WpDomainSpec) -> ZeroCountReport:
    """Count zeros of P(z, wp(z)), each with its multiplicity, in the
    half-open period cell of WpDomainSpec.

    Each attempt winds the unperturbed composite over the contour of
    _wp_cell, eta off the classical boundary (_unperturbed_winding).  Its
    adaptive samples size eps and theta, and the multiplicities of the
    offset composite localized in the five tiles of _wp_cell, the top
    boxes of one localize_zeros quadtree, must sum to its winding.

    Two retry moves; neither changes which zeros count.  A numerically
    zero sample in the unperturbed winding, as at a multiple zero on the
    classical boundary eta away, takes the next eta of _WP_ETAS (after
    the last, or once delta is below 4 times the next eta, its error is
    raised).  Every other failure halves the notch radius:
    CannotPerturbError or NonconvergenceError from the perturbation, the
    winding or the localization, a localized count that differs from the
    winding, and a zero within 2 delta of a notch centre, where zeros may
    hide in the notch.  The report's domain holds the spec's fields and
    eta, and its retries is the number of failed attempts.
    """
    if P.is_zero():
        raise InvalidSpecError("zero polynomial")
    L = lattice(spec.tau)
    pair, w_error = wp_analytic(L), partial(wp_error_bound, L=L)

    current, k = spec, 0
    last_error: Exception | None = None
    for retries in range(8):
        eta = _WP_ETAS[k]
        if current.delta < max(1e-5, _NOTCH_PER_ETA * eta):
            raise NonconvergenceError("notch radius collapsed without a "
                                      "stable count")
        contour, tiles, poles = _wp_cell(current, eta)
        try:
            vals, w = _unperturbed_winding(P, pair, w_error, contour)
        except ZeroOnContourError as exc:
            if (k + 1 == len(_WP_ETAS)
                    or current.delta < _NOTCH_PER_ETA * _WP_ETAS[k + 1]):
                raise
            last_error, k = exc, k + 1
            continue
        except NonconvergenceError as exc:
            last_error = exc
            current = current.with_delta(current.delta / 2.0)
            continue
        try:
            pert, zeros = _attempt(P, pair, vals, w, tiles,
                                   _WP_TARGET_RADIUS)
            if any(abs(z.center - p) < 2.0 * current.delta
                   for z in zeros for p in poles):
                raise NonconvergenceError(
                    "a localized zero lies within 2 delta of a pole")
        except (ZeroOnContourError, CannotPerturbError,
                NonconvergenceError) as exc:
            last_error = exc
            current = current.with_delta(current.delta / 2.0)
            continue
        return _report("wp", P, theorem2_bound, pert, w, zeros,
                       {**asdict(current), "eta": eta}, contour, retries)
    raise last_error


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
