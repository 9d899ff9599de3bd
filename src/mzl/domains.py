"""Zero counting inside fundamental domains.

count_zeros_j counts zeros of P(z, j(z)) in the standard fundamental
domain of the modular group truncated at height Y; count_zeros_wp counts
zeros of P(z, wp(z)) in a period cell of the lattice spanned by 1 and
i*tau, with quarter-circle notches excising the lattice poles.  Both
perturb the composite by a small constant (Rouche-safe: the offset stays
below the minimum boundary modulus) so the winding integrand never
vanishes on the contour, then cross-check the winding against localized
zero multiplicities.

Both pipelines judge "numerically zero on the boundary" by one rule
(_boundary_scan): |P(z, f(z))| below _BOUNDARY_FLOOR times the Horner
running-error scale of the sum.  Each runs one retry loop in which every
kind of failure has exactly one move; see count_zeros_j and
count_zeros_wp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .contour import (ArcSegment, Contour, LineSegment, LocalizedZero,
                      localize_zeros, winding_number)
from .elliptic import lattice, wp_analytic
from .errors import (CannotPerturbError, DominanceError, InvalidSpecError,
                     NonconvergenceError, ZeroOnContourError)
from .pfaffian import khovanskii_zero_bound, real_zero_count
from .poly import BivariatePolynomial, eval_composed, perturb_from_values
from .special import klein_j, klein_j_pair


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
    """Truncated fundamental domain: |Re z| <= 1/2 + inset,
    |z| >= 1 - inset, Im z <= Y.  Positive inset expands the region
    outward so zeros sitting exactly on the classical boundary fall
    strictly inside."""

    Y: float = 2.5
    inset: float = 0.0

    def __post_init__(self):
        if not self.Y > 1.0:
            raise InvalidSpecError("Y must exceed 1")
        if not 0.0 <= self.inset < 0.2:
            raise InvalidSpecError("inset must be in [0, 0.2)")

    @property
    def theta_star(self) -> float:
        return math.acos((0.5 + self.inset) / (1.0 - self.inset))


def build_j_contour(spec: JDomainSpec) -> Contour:
    """Counterclockwise boundary: lower circular arc (left to right),
    right vertical edge, top line (right to left), left vertical edge."""
    ts = spec.theta_star
    r = 1.0 - spec.inset
    xr = 0.5 + spec.inset
    y_arc = r * math.sin(ts)
    return Contour([
        ArcSegment(0.0, r, math.pi - ts, ts),
        LineSegment(complex(xr, y_arc), complex(xr, spec.Y)),
        LineSegment(complex(xr, spec.Y), complex(-xr, spec.Y)),
        LineSegment(complex(-xr, spec.Y), complex(-xr, y_arc)),
    ])


@dataclass(frozen=True)
class WpDomainSpec:
    """Period cell [beta, beta+1] x [0, tau] with quarter-circle notches
    of radius delta around the lattice points on its boundary."""

    tau: float
    beta: float = 0.0
    delta: float | None = None

    def __post_init__(self):
        if not 0.1 <= self.tau <= 10.0:
            raise InvalidSpecError("tau must lie in [0.1, 10]")
        if self.delta is None:
            object.__setattr__(self, "delta", min(1.0, self.tau) / 16.0)
        if not 0.0 < self.delta < min(1.0, self.tau) / 4.0:
            raise InvalidSpecError("delta must lie in (0, min(1, tau)/4)")

    def with_delta(self, delta: float) -> "WpDomainSpec":
        return WpDomainSpec(self.tau, self.beta, delta)


def build_wp_contour(spec: WpDomainSpec) -> Contour:
    """Counterclockwise cell boundary with pole notches.

    With beta = 0 the poles sit at the four corners and each gets a
    quarter-circle notch.  For non-integer beta the corners are pole
    free but one lattice point lies inside the bottom and top edges;
    those get semicircular notches instead."""
    b, t, d = spec.beta, spec.tau, spec.delta
    frac = b - math.floor(b)
    segs: list = []
    if frac == 0.0:
        # poles at all four corners
        c0, c1 = complex(b, 0.0), complex(b + 1.0, 0.0)
        c2, c3 = complex(b + 1.0, t), complex(b, t)
        segs.append(LineSegment(c0 + d, c1 - d))
        segs.append(ArcSegment(c1, d, math.pi, math.pi / 2))
        segs.append(LineSegment(c1 + 1j * d, c2 - 1j * d))
        segs.append(ArcSegment(c2, d, -math.pi / 2, -math.pi))
        segs.append(LineSegment(c2 - d, c3 + d))
        segs.append(ArcSegment(c3, d, 0.0, -math.pi / 2))
        segs.append(LineSegment(c3 - 1j * d, c0 + 1j * d))
        segs.append(ArcSegment(c0, d, math.pi / 2, 0.0))
        return Contour(segs)
    k = math.ceil(b)
    if min(k - b, b + 1.0 - k) <= 2.0 * d:
        raise InvalidSpecError(
            "interior lattice point too close to a cell corner; "
            "shrink delta or shift beta")
    c0, c1 = complex(b, 0.0), complex(b + 1.0, 0.0)
    c2, c3 = complex(b + 1.0, t), complex(b, t)
    segs.append(LineSegment(c0, k - d))
    segs.append(ArcSegment(complex(k, 0.0), d, math.pi, 0.0))
    segs.append(LineSegment(k + d, c1))
    segs.append(LineSegment(c1, c2))
    segs.append(LineSegment(c2, complex(k + d, t)))
    segs.append(ArcSegment(complex(k, t), d, 0.0, -math.pi))
    segs.append(LineSegment(complex(k - d, t), c3))
    segs.append(LineSegment(c3, c0))
    return Contour(segs)


# ----------------------------------------------------------------- report

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


def _sorted_zeros(zeros) -> tuple:
    return tuple(sorted(zeros,
                        key=lambda z: (z.center.real, z.center.imag)))


# ------------------------------------------------------------- j pipeline

_DOMINANCE_C = 2.0
_DOMINANCE_HEADROOM = 1.1
_TOP_LINE_SAMPLES = 512
_BOUNDARY_FLOOR = 1e-9


def _boundary_scan(P: BivariatePolynomial, inner, z: np.ndarray):
    """P(z, f(z)) at the samples z, for the pair callable f = inner, and
    the mask of the samples where it is numerically zero.

    A value is numerically zero when it falls below _BOUNDARY_FLOOR times
    sum |c_ij| |z|^i |f(z)|^j, the running-error scale of the Horner sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    5.1): the rounding error of the sum, and the error of f(z) carried
    through it, are small multiples of that scale.  It follows the terms
    themselves, so the growth of |j| towards the top line and of |wp|
    into the notches never makes a healthy value look small.
    """
    w = inner(z)[0]
    vals = P.evaluate(z, w)
    scale = BivariatePolynomial(np.abs(P.coeffs)).evaluate(np.abs(z),
                                                           np.abs(w))
    return vals, np.abs(vals) < _BOUNDARY_FLOOR * scale.real


def _top_line_dominates(P: BivariatePolynomial, Y: float,
                        inset: float) -> bool:
    """True when the leading term h(z) e^{-2 pi i l z} exceeds 2.2x the
    remainder of P(z, j(z)) on the top line and a few lines above it."""
    l, hcol = P.leading_y_term()
    if l == 0:
        return True
    for dh in (0.0, 0.5, 1.0, 2.0):
        y = Y + dh
        if 2.0 * math.pi * l * y > 690.0:
            raise DominanceError(
                "top line too high for float arithmetic at this degree",
                complex(0.0, y), math.inf)
        x = np.linspace(-(0.5 + inset), 0.5 + inset, _TOP_LINE_SAMPLES)
        z = x + 1j * y
        f = npoly.polyval(z, hcol) * np.exp(-2j * np.pi * l * z)
        g = P.evaluate(z, klein_j(z)) - f
        if not np.all(np.abs(f) > _DOMINANCE_C * _DOMINANCE_HEADROOM
                      * np.abs(g)):
            return False
    return True


def _min_y_for_polynomial_roots(P: BivariatePolynomial, Y: float) -> float:
    """With no j dependence the count is over a plain polynomial in z;
    push the top line above all of its roots."""
    if P.deg_y > 0 or P.deg_x == 0:
        return Y
    roots = np.roots(P.coeffs[::-1, 0])
    top = max((r.imag for r in roots), default=0.0)
    return max(Y, top + 1.0)


def _in_j_region(z: complex, Y: float, inset: float) -> bool:
    return (abs(z.real) <= 0.5 + inset and abs(z) >= 1.0 - inset
            and z.imag <= Y)


def count_zeros_j(P: BivariatePolynomial, spec: JDomainSpec | None = None,
                  n_samples: int = 512,
                  target_radius: float = 1e-4) -> ZeroCountReport:
    """Count zeros of P(z, j(z)) in the truncated fundamental domain.

    The top line rises in half-steps until the leading term dominates
    there, so no zeros hide above.  The composite is then offset by
    epsilon e^{i theta} with epsilon half the minimum boundary modulus,
    which preserves the interior count.  One loop retries over the state
    (Y, inset), and each kind of failure has one move:

    - boundary trouble widens the region by 1e-3 of inset (capped at
      0.19): a boundary sample that is numerically zero (_boundary_scan),
      ZeroOnContourError, CannotPerturbError, NonconvergenceError from
      the winding or the localization, or a localized count that differs
      from the winding;
    - a zero within 0.5 of the top line raises Y by 1.

    The report's retries is the number of failed attempts.
    """
    if spec is None:
        spec = JDomainSpec()
    if P.is_zero():
        raise InvalidSpecError("zero polynomial")
    inner = klein_j_pair
    Y = _min_y_for_polynomial_roots(P, spec.Y)
    inset = spec.inset
    last_error: Exception | None = None
    for retries in range(8):
        while not _top_line_dominates(P, Y, inset):
            Y += 0.5
            if Y > spec.Y + 8.0:
                raise DominanceError(
                    "leading term never dominated the top line",
                    complex(0.0, Y), math.nan)
        region = JDomainSpec(Y, inset)
        contour = build_j_contour(region)
        samples = contour.sample(n_samples)
        y0 = (1.0 - inset) * math.sin(region.theta_star)
        box = (-(0.5 + inset), 0.5 + inset, y0, Y)
        try:
            vals, near_zero = _boundary_scan(P, inner, samples)
            if near_zero.any():
                i = int(np.argmax(near_zero))
                raise ZeroOnContourError(
                    "composite numerically zero on the boundary",
                    complex(samples[i]), float(abs(vals[i])))
            pert = perturb_from_values(P, inner, vals)
            atol = 0.1 * pert.epsilon
            w = winding_number(pert.pair, contour, zero_atol=atol)
            zeros = localize_zeros(pert.pair, box,
                                   target_radius=target_radius,
                                   zero_atol=atol)
            kept = [z for z in zeros if _in_j_region(z.center, Y, inset)]
            count = sum(z.multiplicity for z in kept)
            if count != w.winding:
                # a zero straddled the region test near the boundary
                raise NonconvergenceError(
                    f"{count} localized zeros against winding {w.winding}")
        except (ZeroOnContourError, CannotPerturbError,
                NonconvergenceError) as exc:
            last_error = exc
            inset = min(inset + 1e-3, 0.19)
            continue
        if any(z.center.imag > Y - 0.5 for z in kept):
            Y += 1.0
            continue
        d = max(1, P.degree)
        bound = theorem1_bound(d)
        return ZeroCountReport(
            kind="j", count=count, winding=w.winding,
            zeros=_sorted_zeros(kept), epsilon=pert.epsilon,
            theta=pert.theta, domain={"Y": Y, "inset": inset},
            degree=d, bound=bound, bound_holds=count <= bound,
            min_modulus=w.min_modulus, total_variation=w.total_variation,
            contour_length=contour.length, retries=retries)
    if last_error is not None:
        raise last_error
    raise NonconvergenceError("zero count did not stabilize for the "
                              "modular domain")


# ------------------------------------------------------------ wp pipeline

def _wp_tiles(spec: WpDomainSpec):
    """Partition of the cell minus squares of side delta around its
    boundary poles.  Shared cuts, no overlap.  Integer beta puts the
    poles at the four corners; otherwise one pole sits inside the bottom
    edge and one inside the top edge."""
    b, t, d = spec.beta, spec.tau, spec.delta
    frac = b - math.floor(b)
    if frac == 0.0:
        a0, a1 = b + d, b + 1.0 - d
        c0, c1 = d, t - d
        return [
            (a0, a1, 0.0, c0),      # bottom strip
            (a0, a1, c1, t),        # top strip
            (b, a0, c0, c1),        # left strip
            (a1, b + 1.0, c0, c1),  # right strip
            (a0, a1, c0, c1),       # center
        ]
    k = float(math.ceil(b))
    return [
        (b, k - d, 0.0, d),          # bottom edge, left of the pole
        (k + d, b + 1.0, 0.0, d),    # bottom edge, right of the pole
        (b, k - d, t - d, t),        # top edge, left of the pole
        (k + d, b + 1.0, t - d, t),  # top edge, right of the pole
        (b, b + 1.0, d, t - d),      # middle band
    ]


def count_zeros_wp(P: BivariatePolynomial, spec: WpDomainSpec,
                   n_samples: int = 512,
                   target_radius: float = 1e-3) -> ZeroCountReport:
    """Count zeros of P(z, wp(z)) in one period cell of <1, i tau>.

    The winding over the notched cell boundary is cross-checked against
    the multiplicities localized in a five-tile partition of the cell
    minus squares around its boundary poles.  A boundary sample that is
    numerically zero (_boundary_scan) means the composite vanishes on
    the cell edge itself, e.g. at a half-period: no Rouche-safe epsilon
    exists, so the offset is set explicitly from the boundary median,
    which pushes the edge zero to a definite side of the contour.

    One loop retries, and every failure has the same move, halving the
    notch radius: ZeroOnContourError, CannotPerturbError or
    NonconvergenceError from the perturbation, the winding or the
    localization, a localized count that differs from the winding, and a
    zero within 2 delta of a pole (zeros may hide in the notches).  The
    report's retries is the number of failed attempts.
    """
    if P.is_zero():
        raise InvalidSpecError("zero polynomial")
    inner = wp_analytic(lattice(spec.tau))
    current = spec
    last_error: Exception | None = None
    for retries in range(5):
        if current.delta < 1e-5:
            raise NonconvergenceError("notch radius collapsed without a "
                                      "stable count")
        contour = build_wp_contour(current)
        samples = contour.sample(n_samples)
        vals, near_zero = _boundary_scan(P, inner, samples)
        eps = (1e-6 * float(np.median(np.abs(vals))) if near_zero.any()
               else None)
        b, t = current.beta, current.tau
        poles = [complex(b, 0.0), complex(b + 1.0, 0.0), complex(b, t),
                 complex(b + 1.0, t), complex(math.ceil(b), 0.0),
                 complex(math.ceil(b), t)]
        try:
            pert = perturb_from_values(P, inner, vals, eps=eps)
            atol = 0.1 * pert.epsilon
            w = winding_number(pert.pair, contour, zero_atol=atol)
            zeros: list[LocalizedZero] = []
            for tile in _wp_tiles(current):
                zeros.extend(localize_zeros(pert.pair, tile,
                                            target_radius=target_radius,
                                            zero_atol=atol))
            count = sum(z.multiplicity for z in zeros)
            if count != w.winding:
                raise NonconvergenceError(
                    f"{count} localized zeros against winding {w.winding}")
            if any(abs(z.center - p) < 2.0 * current.delta
                   for z in zeros for p in poles):
                raise NonconvergenceError(
                    "a localized zero lies within 2 delta of a pole")
        except (ZeroOnContourError, CannotPerturbError,
                NonconvergenceError) as exc:
            last_error = exc
            current = current.with_delta(current.delta / 2.0)
            continue
        d = max(1, P.degree)
        bound = theorem2_bound(d)
        return ZeroCountReport(
            kind="wp", count=count, winding=w.winding,
            zeros=_sorted_zeros(zeros), epsilon=pert.epsilon,
            theta=pert.theta,
            domain={"tau": current.tau, "beta": current.beta,
                    "delta": current.delta},
            degree=d, bound=bound, bound_holds=count <= bound,
            min_modulus=w.min_modulus, total_variation=w.total_variation,
            contour_length=contour.length, retries=retries)
    if last_error is not None:
        raise last_error
    raise NonconvergenceError("zero count did not stabilize for the "
                              "period cell")


# ------------------------------------------------------------ line counts

def line_im_zero_count(P: BivariatePolynomial, tau: float,
                       line: str = "horizontal", component: str = "Re",
                       offset: float = 1e-4,
                       n_initial: int = 4096) -> int:
    """Sign-change count of Re or Im of P(z, wp(z)) along one lattice
    line of the cell, trimmed by `offset` at the pole endpoints.

    horizontal: z(t) = t,     t in (offset, 1 - offset)
    vertical:   z(t) = i * t, t in (offset, tau - offset)
    """
    if line not in ("horizontal", "vertical"):
        raise InvalidSpecError("line must be horizontal or vertical")
    if component not in ("Re", "Im"):
        raise InvalidSpecError("component must be Re or Im")
    if not 0.0 < offset < 0.1:
        raise InvalidSpecError("offset must be in (0, 0.1)")
    L = lattice(tau)
    inner = wp_analytic(L)
    take = np.real if component == "Re" else np.imag

    if line == "horizontal":
        def f(t):
            return take(eval_composed(P, inner,
                                      np.asarray(t, dtype=complex)))
        interval = (offset, 1.0 - offset)
    else:
        def f(t):
            return take(eval_composed(P, inner, 1j * np.asarray(t)))
        interval = (offset, tau - offset)
    return real_zero_count(f, interval, n_initial=n_initial)
