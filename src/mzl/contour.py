"""Oriented piecewise contours and argument-principle machinery.

The winding number is accumulated from phase increments between adaptive
samples on the whole contour.  One rule refines it: an interval is
accepted only once its phase step is below pi/2 and |dz| times the larger
|f'/f| at its two ends is below pi/2 as well (after Ying & Katz, Numer.
Math. 53, 1988).  The phase test keeps the unwrapped argument exact at
the sampled resolution; the step bound stops a cluster of zeros hugging
the contour from turning the phase by a full 2 pi k between adjacent
samples, where it would read as a small step.  An interval that fails is
split in one round into k equal pieces in parameter, k = the larger of
|phase step| and the step bound over pi/2, rounded up and clipped to
[2, _MAX_PIECES]: the bound already says how many pieces it needs, so a
zero near the contour costs fewer rounds, and so fewer f calls, than
bisection.  Over the j and wp bench corpora at seeds 0-9 and 14 (2706
counts, the wp ones on the plain period rectangle) caps from 6 to 64
change no count and no failure, and _MAX_PIECES = 16 takes 95 % of the
fall in phase rounds that 64 gives: wp 3967, 3915 and 3912 rounds and
j 11172, 11031 and 11023 at caps 6, 16 and 64.  Every f this module takes is
a pair callable, f(z) -> (f(z), f'(z)), so f' comes from the same call
as f.  The log-derivative integral telescopes to the change of log|f|
plus i times the accumulated phase, so no quadrature of f'/f is ever
performed.  Several contours can be refined together, one f call per
round for all of them, each refined as it would be alone.

Every phase pass starts from a uniform grid that depends on its geometry
alone, and _start_grid memoizes the last _START_GRIDS of those grids
(functools.lru_cache), read-only and keyed by their geometry's bits, so
a pass over a contour met before starts from the same arrays; the grid's
parameters depend on the segment counts alone and have their own memo.

Zeros are localized by one breadth-first quadtree over one top box;
every box first tries Newton from its moment seeds (Delves & Lyness,
Math. Comp. 21, 1967), and the boxes of a level share every f call.
Newton stops a root once its step is at most 2^-10 of the target
radius, well inside the disk of that radius that certifies it.  The
quadtree builds no Contour: its boxes, a level's quadrants in one array
op, and its Newton disks go to the phase pass as segment tables with the
bits of Contour._table (_rectangle_table, _circle_table).  A phase
result hands on the |f| and phase steps the pass computed, and the
moment seeds take them from there.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (DominanceError, InvalidSpecError, MzlError,
                     PrecisionLossError,
                     NonconvergenceError, ZeroOnContourError)
from .pfaffian import real_zero_count

_ENDPOINT_TOL = 1e-12
_ZERO_RTOL = 1e-12
_WINDING_MARGIN = 0.01
_MAX_POINTS = 400000
_MAX_DEPTH = 40
# an interval shorter than this many ulps of |z| is never split
_SPLIT_ULPS = 16.0
# the most pieces one refinement round splits an interval into
_MAX_PIECES = 16
# points per segment of the uniform grid a phase pass starts from
_N_INITIAL = 17
# the most starting grids _start_grid keeps
_START_GRIDS = 64
_DOMINANCE_SAMPLES = 256
_CROSSING_GRID = 4096


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

    @cached_property
    def _table(self) -> np.ndarray:
        """Per segment (z0, z1 - z0, center, radius, ang0, ang1 - ang0)."""
        return np.array([
            (s.z0, s.z1 - s.z0, 0, 0, 0, 0) if isinstance(s, LineSegment)
            else (0, 0, s.center, s.radius, s.ang0, s.ang1 - s.ang0)
            for s in self.segments], dtype=complex).T

    def point(self, t):
        """Global parameterization on [0, len(segments)], t in any order:
        per point the expression of LineSegment.point or ArcSegment.point."""
        return _table_point(self._table, np.asarray(t, dtype=float))

    def sample(self, n_per_segment: int) -> np.ndarray:
        if n_per_segment < 1:
            raise InvalidSpecError("samples must be at least 1")
        ts = np.linspace(0.0, 1.0, n_per_segment, endpoint=False)
        return np.concatenate([seg.point(ts) for seg in self.segments])


@dataclass(frozen=True)
class WindingResult:
    winding: int
    total_variation: float
    min_modulus: float
    samples_used: int


def _table_point(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Contour.point of the contour whose _table is table, at t >= 0."""
    idx = np.minimum(t.astype(int), table.shape[1] - 1)
    loc = t - idx
    z0, dz, center, radius, ang0, dang = table[:, idx]
    z = z0 + dz * loc
    arc = radius.real > 0.0
    if arc.any():
        ang = ang0.real + dang.real * loc
        z = np.where(arc, center + radius.real * np.exp(1j * ang), z)
    return z


def _pair(f, z):
    """(f(z), f'(z)) as complex arrays, from one call of the pair
    callable f."""
    out = f(z)
    # a plain f returning an array of two values would unpack silently
    if not (isinstance(out, tuple) and len(out) == 2):
        raise TypeError("f must return the pair (f(z), f'(z))")
    return tuple(np.asarray(a, dtype=complex) for a in out)


def _sample(f, z):
    """The rows z, f(z), f'(z) of one complex array, f and f' checked
    finite (else PrecisionLossError), from one call of the pair callable
    f: one refinement round."""
    s = np.empty((3, z.size), dtype=complex)
    s[0] = z
    s[1], s[2] = _pair(f, z)
    if not np.isfinite(s[1:]).all():
        finite = np.isfinite(s[1:]).all(axis=0)
        raise PrecisionLossError(
            f"non-finite value at z={z[np.argmin(finite)]!r}", np.inf)
    return s


# the box numbers (x0, x1, y0, y1) that are the real and imaginary parts
# of a rectangle's corners (x0, y0), (x1, y0), (x1, y1), (x0, y1), and
# the parts of its edge vectors that are not +0.0, with the box numbers
# each is the difference of
_CORNERS = np.array([0, 2, 1, 2, 1, 3, 0, 3])
_EDGE_PARTS = np.array([0, 3, 4, 7])
_EDGE_ENDS = (np.array([1, 3, 0, 2]), np.array([0, 2, 1, 3]))


def _rectangle_table(boxes) -> np.ndarray:
    """The segment table of rectangle_contour(*b) for each row b = (x0,
    x1, y0, y1) of boxes, side by side, with the bits of Contour._table:
    the corners, the edge vectors x1 - x0, i (y1 - y0), x0 - x1 and
    i (y0 - y1), and +0.0 for their other parts, as x - x is."""
    b = np.asarray(boxes, dtype=float).reshape(-1, 4)
    table = np.zeros((6, b.shape[0], 4), dtype=complex)
    parts = table.view(float)
    parts[0] = b[:, _CORNERS]
    parts[1][:, _EDGE_PARTS] = b[:, _EDGE_ENDS[0]] - b[:, _EDGE_ENDS[1]]
    return table.reshape(6, -1)


def _circle_table(centers: np.ndarray, radius: float) -> np.ndarray:
    """The segment table of circle_contour(c, radius) for each c of
    centers, side by side, with the bits of Contour._table."""
    table = np.zeros((6, centers.size), dtype=complex)
    table[2], table[3], table[5] = centers, radius, 2.0 * np.pi
    return table


@lru_cache(maxsize=_START_GRIDS)
def _start_params(n_initial: int, nsegs: tuple) -> tuple:
    """(t, cid) of _start_grid, which depend on the segment counts
    alone, read-only."""
    nsegs = np.array(nsegs)
    offsets = np.concatenate([[0], np.cumsum(nsegs)])
    # per contour the points of np.linspace(0, n, n (n_initial - 1) + 1),
    # shifted by its offset
    sizes = nsegs * (n_initial - 1) + 1
    cid = np.repeat(np.arange(nsegs.size), sizes)
    ends = np.cumsum(sizes) - 1
    t = (np.arange(ends[-1] + 1) - np.repeat(ends - sizes + 1, sizes)) \
        * (1.0 / (n_initial - 1)) + offsets[cid]
    t[ends] = offsets[1:]
    t[ends[:-1]] = np.nextafter(t[ends[:-1]], -np.inf)
    for a in (t, cid):
        a.setflags(write=False)
    return t, cid


@lru_cache(maxsize=_START_GRIDS)
def _start_grid(n_initial: int, nsegs: tuple, table: bytes) -> tuple:
    """(t, cid, z) for a phase pass over contours of nsegs segments each,
    whose segment tables side by side have the bits table: the global
    parameters t of n_initial uniform points per segment, the contour id
    cid of each and z = _table_point(table, t).  Contour k runs over
    [o_k, o_k + n_k] of the global parameter of all the segments, n_k its
    segment count; its end point, but for the last contour's, sits one
    ulp below o_k + n_k, inside its own last segment.

    t, cid and z are read-only, memoized under all they depend on for the
    last _START_GRIDS keys; t and cid, which Newton disks and quadrant
    splits share though their z differ, under (n_initial, nsegs)."""
    t, cid = _start_params(n_initial, nsegs)
    z = _table_point(np.frombuffer(table, dtype=complex).reshape(6, -1), t)
    z.setflags(write=False)
    return t, cid, z


def _contour_phases(f, table: np.ndarray, nsegs: tuple,
                    zero_atol: float) -> list:
    """Adaptive phase accumulation over several contours at once, each
    segment starting from _N_INITIAL uniform points (_start_grid).  The
    contours come as one segment table, theirs side by side in the
    layout of Contour._table, and nsegs, the segment count of each.

    An interval is accepted once its phase step and |dz| max |f'/f| at
    its two ends are both below pi/2.  One that fails is split into k
    equal pieces in parameter, k = ceil(max(|phase step|, |dz| max
    |f'/f|) / (pi/2)) clipped to [2, _MAX_PIECES] (16; see the module
    docstring), or bisected where a piece would span fewer than
    _SPLIT_ULPS ulps of |z| or of its parameter.  Every refinement round
    evaluates f once, for all the new points of all the contours it
    splits.  Each contour is refined as it would be alone, up to the
    last bits of an f whose rounding depends on the batch (klein_j_pair
    picks its truncation order from the largest |q|).

    A round makes few numpy calls, since on arrays of some tens of points
    their overhead is most of its time: the samples z, f(z),
    f'(z) are the rows of one array, merged with one masked write; the
    segment maximum of the relative zero test is taken only where the
    absolute floor zero_atol finds a sample (or when there is none); and
    the masks that leave out stopped contours run only once one has
    stopped.

    Returns, per contour, the tuple (sum of phase steps, sum of |steps|,
    min |f|, points used, log|f(end)| - log|f(start)|, the samples z,
    f(z), f'(z), and the pass's own |f(z)| and phase steps arg f(z_(i+1))
    / f(z_i), with the bits of np.abs(f(z)) and np.angle of the ratios)
    or the error that stopped it: ZeroOnContourError if
    |f| drops below _ZERO_RTOL * (max |f| seen on the same segment) and,
    when zero_atol is positive, below zero_atol as well;
    NonconvergenceError if the contour needs more than _MAX_POINTS
    samples, or an interval to split is shorter than _SPLIT_ULPS ulps of
    |z|, below which the samples no longer resolve the phase.
    """
    t, cid, z = _start_grid(_N_INITIAL, nsegs, table.tobytes())
    nseg = table.shape[1]
    errors: dict = {}
    alive = np.ones(len(nsegs), dtype=bool)

    def stop(k, error):
        errors[k] = error
        alive[k] = False

    zvd = _sample(f, z)
    while True:
        z, v, dv = zvd
        mods = np.abs(v)
        # with an absolute floor a point must fall below both: the floor
        # alone misfires next to a legitimate interior zero, the relative
        # test alone on segments spanning many decades of |f|.  The floor
        # is tested first, since it rarely finds a sample and the segment
        # maximum is needed only where it does.  t is sorted and every
        # segment holds samples, so each segment is one run of seg
        if zero_atol <= 0.0 or (mods < zero_atol).any():
            seg = np.minimum(t.astype(int), nseg - 1)
            seg_max = np.maximum.reduceat(
                mods, np.searchsorted(seg, np.arange(nseg)))
            hit = mods < _ZERO_RTOL * seg_max[seg]
            if zero_atol > 0.0:
                hit &= mods < zero_atol
            if errors:
                hit &= alive[cid]
            if hit.any():
                for k in np.bincount(cid[hit],
                                     minlength=len(nsegs)).nonzero()[0]:
                    idx = (hit & (cid == k)).nonzero()[0]
                    i = idx[np.argmin(mods[idx])]
                    stop(k, ZeroOnContourError(
                        "|f| below tolerance on contour", complex(z[i]),
                        float(mods[i])))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = v[1:] / v[:-1]
            dphi = np.arctan2(r.imag, r.real)
            # the phase step alone cannot see a whole 2 pi k turn between
            # two samples; near a zero at distance d, |f'/f| ~ 1/d, so the
            # step bound refines exactly where such a turn could hide
            rate = np.abs(dv) / mods
            dz = np.abs(z[1:] - z[:-1])
            step = dz * np.maximum(rate[1:], rate[:-1])
        adphi = np.abs(dphi)
        # the intervals of a stopped contour are split too, but their new
        # points are dropped below, before f is called
        left = cid[:-1]
        split = ((cid[1:] == left) & ((adphi >= np.pi / 2.0)
                                      | (step >= np.pi / 2.0))).nonzero()[0]
        if not split.size:
            break
        right = split + 1
        t0, t1, dzs = t[split], t[right], dz[split]
        dt = t1 - t0
        # the step bound says how many pieces of step below pi/2 the
        # interval needs; fmax and fmin let a NaN term (0/0) defer to
        # the other
        k = np.fmax(np.fmin(np.ceil(np.fmax(adphi[split], step[split])
                                    / (np.pi / 2.0)), _MAX_PIECES), 2.0)
        # below a few ulps of |z| the samples no longer resolve the phase
        # (nor, at the last bits of t, do the new points fall between);
        # where a piece would be that short, bisect instead
        floor = _SPLIT_ULPS * np.spacing(np.maximum(np.abs(z[split]),
                                                    np.abs(z[right])))
        k[(dzs < k * floor) | (dt < k * _SPLIT_ULPS * np.spacing(t1))] = 2.0
        # the k - 1 new points of each interval, in order, and for each
        # the interval it splits
        n = k.astype(int) - 1
        first = n.cumsum() - n
        owner = np.arange(split.size).repeat(n)
        tm = t0[owner] + dt[owner] * (
            (np.arange(owner.size) - first[owner] + 1) / k[owner])
        tiny = (dzs < floor) | (tm[first] <= t0) | (tm[first + n - 1] >= t1)
        for i in split[tiny]:
            if alive[left[i]]:
                stop(left[i], NonconvergenceError(
                    f"phase refinement reached float resolution at "
                    f"z={complex(z[i])!r}"))
        if t.size > _MAX_POINTS:
            for c in np.flatnonzero(np.bincount(left[split],
                                                minlength=len(nsegs))):
                if alive[c] and np.count_nonzero(cid == c) > _MAX_POINTS:
                    stop(c, NonconvergenceError(
                        f"phase refinement exceeded {_MAX_POINTS} points"))
        after = split[owner]
        if errors:
            keep = alive[left[after]]
            after, tm = after[keep], tm[keep]
            if not after.size:
                break
        zm = _table_point(table, tm)
        new = _sample(f, zm)
        # the new points of an interval lie strictly between its two
        # ends, in order, so they go right after its left one and t
        # stays sorted
        at = after + np.arange(1, after.size + 1)
        old = np.ones(t.size + at.size, dtype=bool)
        old[at] = False
        merged = []
        for a, b in ((t, tm), (cid, left[after]), (zvd, new)):
            m = np.empty(a.shape[:-1] + old.shape, dtype=a.dtype)
            m[..., old], m[..., at] = a, b
            merged.append(m)
        t, cid, zvd = merged
    bounds = np.searchsorted(cid, np.arange(len(nsegs) + 1))
    out = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if k in errors:
            out.append(errors[k])
            continue
        out.append((float(dphi[lo:hi - 1].sum()),
                    float(adphi[lo:hi - 1].sum()),
                    float(mods[lo:hi].min()), int(hi - lo),
                    float(np.log(mods[hi - 1]) - np.log(mods[lo])),
                    z[lo:hi], v[lo:hi], dv[lo:hi], mods[lo:hi],
                    dphi[lo:hi - 1]))
    return out


def _contour_phase(f, contour: Contour, zero_atol: float):
    """_contour_phases for one contour; its error is raised."""
    res = _contour_phases(f, contour._table, (len(contour.segments),),
                          zero_atol)[0]
    if isinstance(res, Exception):
        raise res
    return res


def _integer_winding(total: float) -> int:
    """The winding of an accumulated phase total; NonconvergenceError
    unless it is within _WINDING_MARGIN of an integer."""
    w = total / (2.0 * np.pi)
    wi = int(np.round(w))
    if abs(w - wi) >= _WINDING_MARGIN:
        raise NonconvergenceError(
            f"winding {w:.6f} is not within {_WINDING_MARGIN} of an integer")
    return wi


def winding_number(f, contour: Contour,
                   zero_atol: float = 0.0) -> WindingResult:
    """Winding of f over a closed contour, from adaptive phase increments.

    Each segment starts from _N_INITIAL uniform points (_start_grid);
    the |dz| |f'/f| step bound refines next to zeros that hug the contour
    whatever the starting grid.
    """
    if not contour.closed:
        raise InvalidSpecError("winding_number requires a closed contour")
    total, tv, min_mod, used = _contour_phase(f, contour, zero_atol)[:4]
    return WindingResult(_integer_winding(total), tv, min_mod, used)


def log_derivative_integral(f, contour: Contour) -> complex:
    """integral of f'/f over the contour, via d log f = d log|f| + i d arg f."""
    res = _contour_phase(f, contour, 0.0)
    return complex(res[4], res[0])


def dominant_term_bound(f, g, contour: Contour, C: float) -> float:
    """Upper bound for |int (f+g)'/(f+g)| when |f| > C|g| on the contour:
    |int f'/f| + C/(C-1) * length * sup(|f'||g|/|f|^2 + |g'|/|f|), for
    pair callables f and g.

    The dominance precondition is checked on a sample grid, and the bound
    is verified to dominate the directly computed integral.
    """
    if C <= 1.0:
        raise InvalidSpecError("dominance constant C must exceed 1")
    sup_term = 0.0
    for seg in contour.segments:
        zs = seg.point(np.linspace(0.0, 1.0, _DOMINANCE_SAMPLES))
        fv, fpv = (np.asarray(a, dtype=complex) for a in f(zs))
        gv, gpv = (np.asarray(a, dtype=complex) for a in g(zs))
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
    direct = abs(log_derivative_integral(
        lambda z: tuple(a + b for a, b in zip(f(z), g(z))), contour))
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


def crossing_bound_check(f, contour: Contour) -> CrossingReport:
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
                                          else t))[0], dtype=complex)

    # one evaluation of f on the starting grid serves both components
    t = np.linspace(0.0, n, _CROSSING_GRID)
    v = at(t)
    imc = real_zero_count(lambda t: at(t).imag, t, v.imag)
    rec = real_zero_count(lambda t: at(t).real, t, v.real)
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
    # the quadtree box (x0, x1, y0, y1) of a box report; None for a Newton
    # root
    box: tuple | None = None


_CUT_SHIFTS = np.array([0.0, 0.031, -0.057, 0.083, -0.113, 0.137])
_NEWTON_ULPS = 4.0
# Newton stops at a step of at most this fraction of target_radius
_NEWTON_STOP = 2.0 ** -10
_NEWTON_STEPS = 40


def _center(box) -> complex:
    x0, x1, y0, y1 = box
    return complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))


def _radius(box) -> float:
    x0, x1, y0, y1 = box
    return 0.5 * float(np.hypot(x1 - x0, y1 - y0))


def localize_zeros(f, box, target_radius: float = 1e-8,
                   zero_atol: float = 0.0) -> list[LocalizedZero]:
    """Localization of the zeros of f inside the axis-aligned box (x0,
    x1, y0, y1), by one breadth-first quadtree.

    Every box of winding w, the top box or a quadrant, is done if Newton
    from its w moment seeds gives w roots in it whose disks of radius
    target_radius are disjoint and each wind exactly once; any other box
    is bisected.  The boxes of a level share every f call.

    Returns disks whose multiplicities sum to the winding of f over the
    box boundary: a Newton root with radius target_radius, or the center
    and half-diagonal of a box of radius <= target_radius, which carries
    the box.  Boxes that still hold winding > 1 at depth _MAX_DEPTH come
    back with resolved=False (cluster reports).  A zero on a box boundary
    raises ZeroOnContourError; moving the box is the caller's move.
    """
    [top] = _contour_phases(f, _rectangle_table(box), (4,), zero_atol)
    if isinstance(top, Exception):
        raise top
    w = _integer_winding(top[0])
    if w < 0:
        raise MzlError("negative winding: a pole lies inside the box")
    live = [(box, w, 0, top)] if w else []
    out: list[LocalizedZero] = []
    while live:
        trying = []
        for node in live:
            b, wb, depth, _ = node
            if _radius(b) > target_radius and depth < _MAX_DEPTH:
                trying.append(node)
            else:
                out.append(LocalizedZero(_center(b), _radius(b), wb,
                                         _radius(b) <= target_radius, b))
        parents = []
        for node, roots in zip(trying, _newton_roots(f, trying, target_radius,
                                                     zero_atol)):
            if roots is None:
                parents.append(node)
            else:
                out.extend(LocalizedZero(r, target_radius, 1, True)
                           for r in roots)
        live = [(q, wq, depth + 1, rq)
                for (_, _, depth, _), quads in zip(
                    parents, _split(f, parents, zero_atol))
                for q, wq, rq in quads if wq > 0]
    return out


def _split(f, parents, zero_atol) -> list:
    """The quadrants of each parent (box, winding, ...) with their
    windings and phase results, from one phase batch over all of them
    per round of cuts.

    The parent boundary is already clear of zeros, so a hit comes from a
    cut line; that parent alone moves its cuts to the next _CUT_SHIFTS
    entry.  Shifting the cut by a fraction of the box always escapes the
    |f| < tol neighborhood of a zero, unlike a fixed-size nudge.
    """
    shifts = [0] * len(parents)
    out: list = [None] * len(parents)
    pending = list(range(len(parents)))
    while pending:
        # per pending parent its four quadrants, as rows (x0, x1, y0, y1)
        x0, x1, y0, y1 = np.array([parents[i][0] for i in pending],
                                  dtype=float).T
        cut = _CUT_SHIFTS[[shifts[i] for i in pending]]
        xm = 0.5 * (x0 + x1) + cut * (x1 - x0)
        ym = 0.5 * (y0 + y1) + cut * (y1 - y0)
        boxes = np.array([(x0, xm, y0, ym), (xm, x1, y0, ym),
                          (xm, x1, ym, y1), (x0, xm, ym, y1)]
                         ).transpose(2, 0, 1)
        res = _contour_phases(f, _rectangle_table(boxes),
                              (4,) * (4 * len(pending)), zero_atol)
        quads = [list(map(tuple, qs)) for qs in boxes.tolist()]
        retry = []
        for i, qs, rs in zip(pending, quads, zip(*[iter(res)] * 4)):
            windings = []
            for r in rs:
                if (isinstance(r, ZeroOnContourError)
                        and shifts[i] + 1 < len(_CUT_SHIFTS)):
                    shifts[i] += 1
                    retry.append(i)
                    break
                if isinstance(r, Exception):
                    raise r
                windings.append(_integer_winding(r[0]))
            else:
                if sum(windings) != parents[i][1]:
                    raise NonconvergenceError(
                        f"quadrant windings {windings} do not sum to the "
                        f"parent's {parents[i][1]}")
                if min(windings) < 0:
                    raise MzlError("negative winding in a quadrant")
                out[i] = list(zip(qs, windings, rs))
        pending = retry
    return out


def _inside(z, boxes: np.ndarray) -> np.ndarray:
    """Per point, whether it lies in the box (x0, x1, y0, y1), or in its
    own box of the rows of boxes; NaN lies in none."""
    x0, x1, y0, y1 = boxes.T
    return (x0 <= z.real) & (z.real <= x1) & (y0 <= z.imag) & (z.imag <= y1)


def _power_sums(box, w: int, z, v, dv, mods, dphi) -> np.ndarray:
    """The power sums s_1..s_w of the zeros of f in the box, in u = (z -
    c) / r (box center c, half-diagonal r), from the samples z, v = f(z),
    dv = f'(z) of its winding, once around it, and that pass's |v| and
    phase steps (Delves & Lyness, Math. Comp. 21, 1967).

    They are s_k = w u0^k - (k / 2 pi i) closed integral u^(k-1) log f
    du, by parts against the unwrapped log f, here by the trapezoid rule
    with its endpoint-derivative correction on each interval.  For w = 1
    the power u^0 = 1 is left out, which changes no bit."""
    c, r = _center(box), _radius(box)
    u = (z - c) / r
    logf = np.log(mods) + 1j * np.concatenate(
        [[np.angle(v[0])], dphi]).cumsum()
    du = np.diff(u)
    if w == 1:
        dg = r * dv / v
        integral = (0.5 * du * (logf[1:] + logf[:-1])
                    + du ** 2 / 12.0 * (dg[:-1] - dg[1:])).sum(keepdims=True)
        return u[:1] - integral / (2j * np.pi)
    k = np.arange(1, w + 1)
    p = u[:, None] ** (k - 1)
    g = p * logf[:, None]
    dg = p * ((k - 1) * (logf / u)[:, None] + (r * dv / v)[:, None])
    du = du[:, None]
    integral = (0.5 * du * (g[1:] + g[:-1])
                + du ** 2 / 12.0 * (dg[:-1] - dg[1:])).sum(axis=0)
    return w * u[0] ** k - k * integral / (2j * np.pi)


def _moment_seeds(box, w: int, z, v, dv, mods, dphi) -> np.ndarray:
    """The w roots of the monic polynomial sum a_n u^(w-n) whose power
    sums are _power_sums, from Newton's identities n a_n = -(s_1 a_(n-1)
    + ... + s_n a_0), mapped back to z = c + r u.  For w = 1 that root is
    s_1 itself, which np.roots would find as the one eigenvalue of the
    1x1 companion matrix of u - s_1."""
    c, r = _center(box), _radius(box)
    s = _power_sums(box, w, z, v, dv, mods, dphi)
    if w == 1:
        return c + r * s
    a = [1.0 + 0j]
    for n in range(1, w + 1):
        a.append(-np.dot(s[:n], a[::-1]) / n)
    return c + r * np.roots(a)


def _newton_roots(f, nodes, target_radius, zero_atol) -> list:
    """Per node (box, w, depth, phase result of its winding), the w zeros
    of f in the box from Newton z <- z - f/f' started at its moment
    seeds, or None.  Newton stops a root, after the update, once its step
    is at most _NEWTON_STOP = 2^-10 of target_radius: the disk of radius
    target_radius about the updated iterate certifies the root as any
    later one would, and quadratic convergence leaves that iterate within
    about |f''/2f'| 2^-20 target_radius^2 of the zero, so a further step
    would only cost one more f call.  It also stops at a step below
    _NEWTON_ULPS ulps of |z| (the first stop to fire where target_radius
    is below about 1e-12 |z|), at a step inside target_radius that is no
    smaller than the one before (there only rounding keeps the iterate
    moving), or after _NEWTON_STEPS steps.  A box fails if one of its
    seeds (then never evaluated) or iterates falls outside it."""
    z = np.array([c for b, w, _, phase in nodes
                  for c in _moment_seeds(b, w, *phase[5:])], dtype=complex)
    ws = [node[1] for node in nodes]
    owner = np.repeat(np.arange(len(nodes)), ws)
    own = np.array([nodes[n][0] for n in owner], dtype=float).reshape(-1, 4)
    failed = np.zeros(len(nodes), dtype=bool)
    failed[owner[~_inside(z, own)]] = True
    running = ~failed[owner]
    last = np.full(z.size, np.inf)
    for _ in range(_NEWTON_STEPS):
        idx = running.nonzero()[0]
        if idx.size == 0:
            break
        zi = z[idx]
        v, dv = _pair(f, zi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = v / dv
            zn = zi - step
        inside = _inside(zn, own[idx])
        z[idx] = np.where(inside, zn, np.nan)
        size = np.abs(step)
        done = (~inside | (size <= _NEWTON_STOP * target_radius)
                | (size <= _NEWTON_ULPS * np.spacing(np.abs(zn)))
                | ((size >= last[idx]) & (size < target_radius)))
        last[idx] = size
        running[idx[done]] = False
    lost = np.isnan(z)
    # two roots of one box closer than 2 target_radius: only a box of
    # w >= 2 has two
    if any(w > 1 for w in ws):
        lost |= ((owner[:, None] == owner) & ~np.eye(z.size, dtype=bool)
                 & (np.abs(z[:, None] - z) <= 2.0 * target_radius)).any(axis=1)
    # a box fails with any of its roots; the others get their disks
    failed[owner[lost]] = True
    good = ~failed[owner]
    disks = _contour_phases(f, _circle_table(z[good], target_radius),
                            (1,) * int(good.sum()), zero_atol) \
        if good.any() else []
    good[good] = [not isinstance(r, Exception)
                  and abs(r[0] / (2.0 * np.pi) - 1.0) < _WINDING_MARGIN
                  for r in disks]
    failed[owner[~good]] = True
    return [None if failed[n] else [complex(c) for c in z[owner == n]]
            for n in range(len(nodes))]


def trace_table(f, contour: Contour, n_per_segment: int = 256):
    """(t, z, f(z), unwrapped arg f) along the contour, for CSV export."""
    if n_per_segment < 1:
        raise InvalidSpecError("samples per segment must be at least 1")
    nseg = len(contour.segments)
    t = np.linspace(0.0, float(nseg), n_per_segment * nseg + 1)
    t[-1] = min(t[-1], nseg - 1e-12) if contour.closed else t[-1]
    z = contour.point(np.clip(t, 0.0, nseg - 1e-12))
    v = np.asarray(f(z)[0], dtype=complex)
    arg = np.unwrap(np.angle(v))
    return t, z, v, arg
