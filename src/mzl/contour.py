"""Oriented piecewise contours and argument-principle machinery.

The winding number is accumulated from phase increments between adaptive
samples: an interval is accepted only once the phase step is below pi/2,
which keeps the unwrapped argument exact at the sampled resolution.  A
cluster of zeros hugging the contour can still turn the phase by a full
2 pi k between adjacent samples and read as a small step, so the quadtree
localizer cross-checks every subdivision against its parent and escalates
the initial sampling density whenever the sums disagree.  The
log-derivative integral over a segment telescopes to the change of log|f|
plus i times the accumulated phase, so no quadrature of f'/f is ever
performed.
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

    def tangent(self, t):
        return np.full(np.shape(t), self.z1 - self.z0, dtype=complex)


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

    def tangent(self, t):
        return 1j * (self.ang1 - self.ang0) * (self.point(t) - self.center)


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


def _segment_phase(f, seg, zero_rtol: float, zero_atol: float,
                   max_points: int, n_initial: int = 17):
    """Adaptive phase accumulation over one segment.

    Returns (sum of phase steps, sum of |steps|, min |f|, points used,
    log|f(end)| - log|f(start)|).  Raises ZeroOnContourError if |f| drops
    below zero_atol + zero_rtol * (max |f| seen).
    """
    t = np.linspace(0.0, 1.0, n_initial)
    v = np.asarray(f(seg.point(t)), dtype=complex)
    while True:
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise MzlError(f"non-finite value at z={seg.point(t[bad])!r}")
        mods = np.abs(v)
        # when both tolerances are active a point must violate both: the
        # absolute floor alone misfires next to a legitimate interior
        # zero, the relative one alone misfires on segments spanning many
        # decades of |f|
        lo = float(mods.min())
        hit = zero_atol > 0.0 or zero_rtol > 0.0
        if zero_atol > 0.0:
            hit = hit and lo < zero_atol
        if zero_rtol > 0.0:
            hit = hit and lo < zero_rtol * float(mods.max())
        if hit:
            i = int(np.argmin(mods))
            raise ZeroOnContourError("|f| below tolerance on contour",
                                     complex(seg.point(t[i])), float(mods[i]))
        dphi = np.angle(v[1:] / v[:-1])
        bad = np.abs(dphi) >= np.pi / 2.0
        if not bad.any():
            return (float(dphi.sum()), float(np.abs(dphi).sum()),
                    float(mods.min()), t.size,
                    float(np.log(mods[-1]) - np.log(mods[0])))
        if t.size > max_points:
            raise NonconvergenceError(
                f"phase refinement exceeded {max_points} points per segment")
        tm = 0.5 * (t[:-1][bad] + t[1:][bad])
        vm = np.asarray(f(seg.point(tm)), dtype=complex)
        t = np.concatenate([t, tm])
        order = np.argsort(t, kind="stable")
        t = t[order]
        v = np.concatenate([v, vm])[order]


def winding_number(f, contour: Contour, zero_rtol: float = 1e-12,
                   zero_atol: float = 0.0, max_points: int = 400000,
                   margin: float = 0.01, n_initial: int = 17) -> WindingResult:
    """Winding of f over a closed contour, from adaptive phase increments.

    n_initial sets the uniform sampling each segment starts from; raise it
    when zeros may sit within a fraction of the default spacing of the
    contour, where a whole 2 pi k of phase can hide inside one interval.
    """
    if not contour.closed:
        raise InvalidSpecError("winding_number requires a closed contour")
    total = 0.0
    tv = 0.0
    min_mod = np.inf
    used = 0
    for seg in contour.segments:
        d, a, m, n, _ = _segment_phase(f, seg, zero_rtol, zero_atol,
                                       max_points, n_initial=n_initial)
        total += d
        tv += a
        min_mod = min(min_mod, m)
        used += n
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
    re = 0.0
    im = 0.0
    for seg in contour.segments:
        d, _, _, _, dlog = _segment_phase(f, seg, zero_rtol, zero_atol,
                                          max_points)
        re += dlog
        im += d
    return complex(re, im)


def dominant_term_bound(f, g, contour: Contour, C: float,
                        n_check: int = 256) -> float:
    """Upper bound for |int (f+g)'/(f+g)| when |f| > C|g| on the contour:
    |int f'/f| + C/(C-1) * length * sup(|f'||g|/|f|^2 + |g'|/|f|).

    The dominance precondition is checked on a sample grid, and the bound
    is verified to dominate the directly computed integral.
    """
    if C <= 1.0:
        raise InvalidSpecError("dominance constant C must exceed 1")
    sup_term = 0.0
    for seg in contour.segments:
        zs = seg.point(np.linspace(0.0, 1.0, n_check))
        fv = np.asarray(f(zs), dtype=complex)
        gv = np.asarray(g(zs), dtype=complex)
        ratio = np.abs(fv) - C * np.abs(gv)
        if float(ratio.min()) <= 0.0:
            i = int(np.argmin(ratio))
            fz, gz = abs(fv[i]), abs(gv[i])
            raise DominanceError("|f| > C|g| fails", complex(zs[i]),
                                 fz / gz if gz > 0 else np.inf)
        fpv = np.asarray(f.derivative(zs), dtype=complex)
        gpv = np.asarray(g.derivative(zs), dtype=complex)
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


_JIGGLE_STEPS = [(0.25, 0.25), (-0.25, 0.5), (0.5, -0.25), (-0.5, -0.5),
                 (0.75, 0.25), (-0.75, 0.75), (1.0, -0.5), (-1.0, 1.0)]

_CUT_SHIFTS = [0.0, 0.031, -0.057, 0.083, -0.113, 0.137]

# initial per-segment sampling densities tried when windings disagree
_REFINE_LADDER = (17, 65, 257, 1025)


def _box_winding(f, box, jiggle: float, zero_rtol: float, zero_atol: float,
                 n_initial: int = 17):
    """Winding over a rectangle, growing it slightly when a zero sits on
    the boundary.  Returns (winding, possibly adjusted box)."""
    x0, x1, y0, y1 = box
    for attempt in range(len(_JIGGLE_STEPS) + 1):
        try:
            w = winding_number(f, rectangle_contour(x0, x1, y0, y1),
                               zero_rtol=zero_rtol, zero_atol=zero_atol,
                               n_initial=n_initial)
            return w.winding, (x0, x1, y0, y1)
        except ZeroOnContourError:
            if attempt == len(_JIGGLE_STEPS):
                raise
            mx, my = _JIGGLE_STEPS[attempt]
            dx, dy = jiggle * mx, jiggle * my
            x0, x1 = box[0] - dx, box[1] + dx
            y0, y1 = box[2] - dy, box[3] + dy
    raise NonconvergenceError("unreachable")


def localize_zeros(f, box, max_depth: int = 40, target_radius: float = 1e-8,
                   jiggle: float = 1e-6, zero_rtol: float = 1e-12,
                   zero_atol: float = 0.0) -> list[LocalizedZero]:
    """Quadtree localization of the zeros of f inside an axis-aligned box.

    box = (x0, x1, y0, y1).  Returns disks whose multiplicities sum to the
    winding of f over the box boundary.  Boxes that still hold winding > 1
    at max_depth come back with resolved=False (cluster reports).
    """
    w, box = _box_winding(f, box, jiggle, zero_rtol, zero_atol)
    if w == 0:
        # an empty reading is only trusted once a denser pass agrees: a
        # zero pair hugging the boundary can rotate the phase by 2 pi k
        # between adjacent samples and read as no zeros at all
        w, box = _box_winding(f, box, jiggle, zero_rtol, zero_atol,
                              n_initial=_REFINE_LADDER[1])
    if w < 0:
        raise MzlError("negative winding: a pole lies inside the box")
    if w == 0:
        return []
    return _subdivide(f, box, w, 0, max_depth, target_radius, jiggle,
                      zero_rtol, zero_atol)


def _subdivide(f, box, w, depth, max_depth, target_radius, jiggle,
               zero_rtol, zero_atol) -> list[LocalizedZero]:
    x0, x1, y0, y1 = box
    center = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    radius = 0.5 * float(np.hypot(x1 - x0, y1 - y0))
    if radius <= target_radius:
        return [LocalizedZero(center, radius, w, True)]
    if depth >= max_depth:
        return [LocalizedZero(center, radius, w, False)]
    # the parent boundary is already clear of zeros, so any hit comes
    # from a cut line; shifting the cut by a fraction of the box always
    # escapes the |f| < tol neighborhood of a zero, unlike a fixed-size
    # nudge.  a sum mismatch at every shift means some winding was
    # aliased: a zero cluster hugging an edge can rotate the phase by a
    # full 2 pi k between adjacent samples, a step the pi/2 criterion
    # cannot see.  denser initial sampling makes the swing visible, so
    # walk the ladder and recheck the inherited parent winding itself at
    # each stage before concluding the partition is at fault
    for stage, n_init in enumerate(_REFINE_LADDER):
        for shift in _CUT_SHIFTS:
            xm = 0.5 * (x0 + x1) + shift * (x1 - x0)
            ym = 0.5 * (y0 + y1) + shift * (y1 - y0)
            quads = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                     (xm, x1, ym, y1), (x0, xm, ym, y1)]
            try:
                results = []
                for q in quads:
                    res = winding_number(f, rectangle_contour(*q),
                                         zero_rtol=zero_rtol,
                                         zero_atol=zero_atol,
                                         n_initial=n_init)
                    results.append((res.winding, q))
            except (ZeroOnContourError, NonconvergenceError):
                continue
            if sum(r[0] for r in results) == w:
                out: list[LocalizedZero] = []
                for wq, bq in results:
                    if wq > 0:
                        out.extend(_subdivide(f, bq, wq, depth + 1,
                                              max_depth, target_radius,
                                              jiggle, zero_rtol, zero_atol))
                    elif wq < 0:
                        raise MzlError("negative winding in a quadrant")
                return out
        if stage + 1 < len(_REFINE_LADDER):
            res = winding_number(f, rectangle_contour(x0, x1, y0, y1),
                                 zero_rtol=zero_rtol, zero_atol=zero_atol,
                                 n_initial=_REFINE_LADDER[stage + 1])
            if res.winding != w:
                w = res.winding
                if w == 0:
                    return []
                if w < 0:
                    raise MzlError(
                        "negative winding: a pole lies inside the box")
    raise NonconvergenceError("quadrant windings never matched the parent")


def trace_table(f, contour: Contour, n_per_segment: int = 256):
    """(t, z, f(z), unwrapped arg f) along the contour, for CSV export."""
    nseg = len(contour.segments)
    t = np.linspace(0.0, float(nseg), n_per_segment * nseg + 1)
    t[-1] = min(t[-1], nseg - 1e-12) if contour.closed else t[-1]
    z = contour.point(np.clip(t, 0.0, nseg - 1e-12))
    v = np.asarray(f(z), dtype=complex)
    arg = np.unwrap(np.angle(v))
    return t, z, v, arg
