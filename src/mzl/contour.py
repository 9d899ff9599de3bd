"""Oriented piecewise contours and argument-principle machinery.

The winding number is accumulated from phase increments between adaptive
samples on the whole contour.  One rule refines it: an interval is
accepted only once its phase step is below pi/2 and |dz| times the larger
|f'/f| at its two ends is below pi/2 as well (after Ying & Katz, Numer.
Math. 53, 1988).  The phase test keeps the unwrapped argument exact at
the sampled resolution; the step bound stops a cluster of zeros hugging
the contour from turning the phase by a full 2 pi k between adjacent
samples, where it would read as a small step.  f' comes from the same
call when f returns the pair (f, f'), else from a central difference.
The log-derivative integral telescopes to the change of log|f| plus i
times the accumulated phase, so no quadrature of f'/f is ever performed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DominanceError, InvalidSpecError, MzlError,
                     NonconvergenceError, ZeroOnContourError)
from .pfaffian import real_zero_count

_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class LineSegment:
    z0: complex
    z1: complex

    def __post_init__(self):
        if abs(self.z1 - self.z0) == 0.0:
            raise InvalidSpecError("zero-length line segment")

    @property
    def start(self) -> complex:
        return self.z0

    @property
    def end(self) -> complex:
        return self.z1

    @property
    def length(self) -> float:
        return abs(self.z1 - self.z0)

    def point(self, t):
        return self.z0 + (self.z1 - self.z0) * np.asarray(t)


@dataclass(frozen=True)
class ArcSegment:
    """Circular arc from angle ang0 to ang1 (radians); the sign of
    ang1 - ang0 is the orientation."""

    center: complex
    radius: float
    ang0: float
    ang1: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise InvalidSpecError("arc radius must be positive")
        if self.ang0 == self.ang1:
            raise InvalidSpecError("zero-length arc")

    @property
    def start(self) -> complex:
        return self.center + self.radius * np.exp(1j * self.ang0)

    @property
    def end(self) -> complex:
        return self.center + self.radius * np.exp(1j * self.ang1)

    @property
    def length(self) -> float:
        return self.radius * abs(self.ang1 - self.ang0)

    def point(self, t):
        ang = self.ang0 + (self.ang1 - self.ang0) * np.asarray(t)
        return self.center + self.radius * np.exp(1j * ang)


class Contour:
    """An ordered chain of segments; consecutive endpoints must coincide."""

    def __init__(self, segments: Sequence):
        segments = list(segments)
        if not segments:
            raise InvalidSpecError("contour needs at least one segment")
        for sa, sb in zip(segments, segments[1:]):
            if abs(sa.end - sb.start) > _ENDPOINT_TOL:
                raise InvalidSpecError(
                    f"segment endpoints mismatch: {sa.end!r} vs {sb.start!r}")
        self.segments = segments
        self.closed = abs(segments[-1].end - segments[0].start) <= _ENDPOINT_TOL

    @property
    def length(self) -> float:
        return float(sum(s.length for s in self.segments))

    def point(self, t):
        """Global parameterization on [0, len(segments)]."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(t.astype(int), 0, len(self.segments) - 1)
        loc = t - idx
        out = np.empty(t.shape, dtype=complex)
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                out[m] = seg.point(loc[m])
        return out

    def sample(self, n_per_segment: int) -> np.ndarray:
        ts = np.linspace(0.0, 1.0, n_per_segment, endpoint=False)
        return np.concatenate([seg.point(ts) for seg in self.segments])


@dataclass(frozen=True)
class WindingResult:
    winding: int
    total_variation: float
    min_modulus: float
    samples_used: int


def _sample(f, contour: Contour, t: np.ndarray):
    """z(t), f(z) and |f'(z)/f(z)| at the contour parameters t, from one
    call of f at z.  A tuple f returns is (f, f'); a plain f gets f' from
    a central difference, by a second call at z + h and z - h."""
    z = contour.point(t)
    v = f(z)
    if isinstance(v, tuple):
        v, dv = v
    else:
        h = 1e-6 * np.maximum(1.0, np.abs(z))
        vh = np.asarray(f(np.concatenate([z + h, z - h])), dtype=complex)
        dv = (vh[:z.size] - vh[z.size:]) / (2.0 * h)
    v, dv = np.asarray(v, dtype=complex), np.asarray(dv, dtype=complex)
    finite = np.isfinite(v) & np.isfinite(dv)
    if not finite.all():
        raise MzlError(f"non-finite value at z={z[np.argmin(finite)]!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.abs(dv) / np.abs(v)
    return z, v, rate


def _contour_phase(f, contour: Contour, zero_rtol: float, zero_atol: float,
                   max_points: int, n_initial: int = 17):
    """Adaptive phase accumulation over the whole contour, on its global
    parameter t in [0, len(segments)].

    An interval is accepted once its phase step and |dz| max |f'/f| at
    its two ends are both below pi/2; every refinement round evaluates f
    once for all intervals it splits.  Returns (sum of phase steps, sum
    of |steps|, min |f|, points used, log|f(end)| - log|f(start)|).
    Raises ZeroOnContourError if |f| drops below zero_atol + zero_rtol *
    (max |f| seen on the same segment).
    """
    nseg = len(contour.segments)
    t = np.linspace(0.0, float(nseg), nseg * (n_initial - 1) + 1)
    z, v, rate = _sample(f, contour, t)
    while True:
        mods = np.abs(v)
        # when both tolerances are active a point must violate both: the
        # absolute floor alone misfires next to a legitimate interior
        # zero, the relative one alone misfires on segments spanning many
        # decades of |f|
        if zero_atol > 0.0 or zero_rtol > 0.0:
            hit = np.ones(t.size, dtype=bool)
            if zero_atol > 0.0:
                hit &= mods < zero_atol
            if zero_rtol > 0.0:
                seg = np.minimum(t.astype(int), nseg - 1)
                seg_max = np.zeros(nseg)
                np.maximum.at(seg_max, seg, mods)
                hit &= mods < zero_rtol * seg_max[seg]
            if hit.any():
                i = int(np.argmin(np.where(hit, mods, np.inf)))
                raise ZeroOnContourError("|f| below tolerance on contour",
                                         complex(z[i]), float(mods[i]))
        dphi = np.angle(v[1:] / v[:-1])
        # the phase step alone cannot see a whole 2 pi k turn between two
        # samples; near a zero at distance d, |f'/f| ~ 1/d, so the step
        # bound refines exactly where such a turn could hide
        step = np.abs(np.diff(z)) * np.maximum(rate[1:], rate[:-1])
        bad = (np.abs(dphi) >= np.pi / 2.0) | (step >= np.pi / 2.0)
        if not bad.any():
            return (float(dphi.sum()), float(np.abs(dphi).sum()),
                    float(mods.min()), t.size,
                    float(np.log(mods[-1]) - np.log(mods[0])))
        if t.size > max_points:
            raise NonconvergenceError(
                f"phase refinement exceeded {max_points} points")
        tm = 0.5 * (t[:-1][bad] + t[1:][bad])
        zm, vm, rm = _sample(f, contour, tm)
        t = np.concatenate([t, tm])
        order = np.argsort(t, kind="stable")
        t = t[order]
        z = np.concatenate([z, zm])[order]
        v = np.concatenate([v, vm])[order]
        rate = np.concatenate([rate, rm])[order]


def winding_number(f, contour: Contour, zero_rtol: float = 1e-12,
                   zero_atol: float = 0.0, max_points: int = 400000,
                   margin: float = 0.01, n_initial: int = 17) -> WindingResult:
    """Winding of f over a closed contour, from adaptive phase increments.

    n_initial sets the uniform sampling each segment starts from.  It is
    not needed for correctness: the |dz| |f'/f| step bound refines next
    to zeros that hug the contour whatever the starting grid.
    """
    if not contour.closed:
        raise InvalidSpecError("winding_number requires a closed contour")
    total, tv, min_mod, used, _ = _contour_phase(
        f, contour, zero_rtol, zero_atol, max_points, n_initial=n_initial)
    w = total / (2.0 * np.pi)
    wi = int(np.round(w))
    if abs(w - wi) >= margin:
        raise NonconvergenceError(
            f"winding {w:.6f} is not within {margin} of an integer")
    return WindingResult(wi, tv, min_mod, used)


def log_derivative_integral(f, contour: Contour, zero_rtol: float = 1e-12,
                            zero_atol: float = 0.0,
                            max_points: int = 400000) -> complex:
    """integral of f'/f over the contour, via d log f = d log|f| + i d arg f."""
    d, _, _, _, dlog = _contour_phase(f, contour, zero_rtol, zero_atol,
                                      max_points)
    return complex(dlog, d)


def dominant_term_bound(f, g, contour: Contour, C: float,
                        n_check: int = 256) -> float:
    """Upper bound for |int (f+g)'/(f+g)| when |f| > C|g| on the contour:
    |int f'/f| + C/(C-1) * length * sup(|f'||g|/|f|^2 + |g'|/|f|), for
    AnalyticFunctions f and g.

    The dominance precondition is checked on a sample grid, and the bound
    is verified to dominate the directly computed integral.
    """
    if C <= 1.0:
        raise InvalidSpecError("dominance constant C must exceed 1")
    sup_term = 0.0
    for seg in contour.segments:
        zs = seg.point(np.linspace(0.0, 1.0, n_check))
        fv, fpv = (np.asarray(a, dtype=complex) for a in f.pair(zs))
        gv, gpv = (np.asarray(a, dtype=complex) for a in g.pair(zs))
        ratio = np.abs(fv) - C * np.abs(gv)
        if float(ratio.min()) <= 0.0:
            i = int(np.argmin(ratio))
            fz, gz = abs(fv[i]), abs(gv[i])
            raise DominanceError("|f| > C|g| fails", complex(zs[i]),
                                 fz / gz if gz > 0 else np.inf)
        local = np.abs(fpv) * np.abs(gv) / np.abs(fv) ** 2 \
            + np.abs(gpv) / np.abs(fv)
        sup_term = max(sup_term, float(local.max()))
    bound = abs(log_derivative_integral(f, contour)) \
        + C / (C - 1.0) * contour.length * sup_term
    direct = abs(log_derivative_integral(lambda z: f(z) + g(z), contour))
    if bound < direct - 1e-9 * (1.0 + direct):
        raise MzlError(f"estimated bound {bound} fails against direct "
                       f"integral {direct}")
    return float(bound)


@dataclass(frozen=True)
class CrossingReport:
    winding_abs_over_2pi: float
    im_crossings: int
    re_crossings: int
    lemma2_holds: bool


def crossing_bound_check(f, contour: Contour,
                         n_grid: int = 4096) -> CrossingReport:
    """Compare |int f'/f|/2pi against crossing counts of Im f and Re f."""
    integral = log_derivative_integral(f, contour)
    w = abs(integral) / (2.0 * np.pi)
    n = float(len(contour.segments))
    # closed contours are counted on a shifted periodic parameterization so
    # a crossing at the seam is interior; the shift is generic (golden ratio)
    shift = n * 0.3819660112501051 if contour.closed else 0.0

    def at(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(f(contour.point((t + shift) % n if contour.closed
                                          else t)), dtype=complex)

    imc = real_zero_count(lambda t: at(t).imag, (0.0, n), n_initial=n_grid)
    rec = real_zero_count(lambda t: at(t).real, (0.0, n), n_initial=n_grid)
    holds = (w <= imc / 2.0 + 1.0 + 1e-9) and (w <= rec / 2.0 + 1.0 + 1e-9)
    return CrossingReport(w, imc, rec, holds)


def rectangle_contour(x0: float, x1: float, y0: float, y1: float) -> Contour:
    a, b, c, d = complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)
    return Contour([LineSegment(a, b), LineSegment(b, c),
                    LineSegment(c, d), LineSegment(d, a)])


def circle_contour(center: complex, radius: float) -> Contour:
    return Contour([ArcSegment(center, radius, 0.0, 2.0 * np.pi)])


@dataclass(frozen=True)
class LocalizedZero:
    center: complex
    radius: float
    multiplicity: int
    resolved: bool


_CUT_SHIFTS = [0.0, 0.031, -0.057, 0.083, -0.113, 0.137]


def localize_zeros(f, box, max_depth: int = 40, target_radius: float = 1e-8,
                   zero_rtol: float = 1e-12,
                   zero_atol: float = 0.0) -> list[LocalizedZero]:
    """Quadtree localization of the zeros of f inside an axis-aligned box.

    box = (x0, x1, y0, y1).  Returns disks whose multiplicities sum to the
    winding of f over the box boundary.  Boxes that still hold winding > 1
    at max_depth come back with resolved=False (cluster reports).  A zero
    on the box boundary raises ZeroOnContourError; moving the box is the
    caller's move.
    """
    w = winding_number(f, rectangle_contour(*box), zero_rtol=zero_rtol,
                       zero_atol=zero_atol).winding
    if w < 0:
        raise MzlError("negative winding: a pole lies inside the box")
    if w == 0:
        return []
    return _subdivide(f, box, w, 0, max_depth, target_radius, zero_rtol,
                      zero_atol)


def _subdivide(f, box, w, depth, max_depth, target_radius,
               zero_rtol, zero_atol) -> list[LocalizedZero]:
    x0, x1, y0, y1 = box
    center = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    radius = 0.5 * float(np.hypot(x1 - x0, y1 - y0))
    if radius <= target_radius:
        return [LocalizedZero(center, radius, w, True)]
    if depth >= max_depth:
        return [LocalizedZero(center, radius, w, False)]
    # the parent boundary is already clear of zeros, so a hit comes from
    # a cut line; shifting the cut by a fraction of the box always
    # escapes the |f| < tol neighborhood of a zero, unlike a fixed-size
    # nudge
    for shift in _CUT_SHIFTS:
        xm = 0.5 * (x0 + x1) + shift * (x1 - x0)
        ym = 0.5 * (y0 + y1) + shift * (y1 - y0)
        quads = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                 (xm, x1, ym, y1), (x0, xm, ym, y1)]
        try:
            windings = [winding_number(f, rectangle_contour(*q),
                                       zero_rtol=zero_rtol,
                                       zero_atol=zero_atol).winding
                        for q in quads]
            break
        except ZeroOnContourError as exc:
            last_error = exc
    else:
        raise last_error
    if sum(windings) != w:
        raise NonconvergenceError(
            f"quadrant windings {windings} do not sum to the parent's {w}")
    if min(windings) < 0:
        raise MzlError("negative winding in a quadrant")
    out: list[LocalizedZero] = []
    for wq, bq in zip(windings, quads):
        if wq > 0:
            out.extend(_subdivide(f, bq, wq, depth + 1, max_depth,
                                  target_radius, zero_rtol, zero_atol))
    return out


def trace_table(f, contour: Contour, n_per_segment: int = 256):
    """(t, z, f(z), unwrapped arg f) along the contour, for CSV export."""
    nseg = len(contour.segments)
    t = np.linspace(0.0, float(nseg), n_per_segment * nseg + 1)
    t[-1] = min(t[-1], nseg - 1e-12) if contour.closed else t[-1]
    z = contour.point(np.clip(t, 0.0, nseg - 1e-12))
    v = np.asarray(f(z), dtype=complex)
    arg = np.unwrap(np.angle(v))
    return t, z, v, arg
