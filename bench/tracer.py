"""Spans around the public functions of each library layer.

``Tracer.install`` wraps every function named in ``LAYERS`` and patches
the wrapper into every loaded ``mzl`` module that holds the function, so
a name imported with ``from .special import klein_j`` is traced as well
as the original.  Spans (name, start, end, parent span, op id) are kept in
memory and written out by ``write_spans``; counts are recorded at the same
boundaries.  A span's self time is its duration minus the time its child
spans cover; on one thread children never overlap, so that is the sum of
their durations.  The wrappers pass arguments and results through
unchanged, so tracing cannot alter what the library returns.
"""
from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mzl.contour
import mzl.domains
import mzl.elliptic
import mzl.pfaffian
import mzl.poly
import mzl.qseries
import mzl.special


@dataclass(frozen=True)
class Layer:
    """One traced function.

    points_args: arguments whose broadcast size is the number of points
    evaluated.  fn_arg: a callable argument whose evaluation points are
    counted instead.  on_result: records counts taken from the result.
    """

    name: str
    owner: object
    attr: str
    points_args: tuple = ()
    fn_arg: int | None = None
    on_result: Callable | None = None


def _retries(counts, name, result):
    counts[name + ".retries"] += int(result.retries)


def _zeros(counts, name, result):
    counts[name + ".zeros"] += len(result)


LAYERS = (
    Layer("qseries.eval", mzl.qseries.QSeries, "eval", (1,)),
    Layer("special.klein_j", mzl.special, "klein_j", (0,)),
    Layer("special.klein_j_derivative", mzl.special, "klein_j_derivative",
          (0,)),
    Layer("elliptic.wp_pair", mzl.elliptic, "wp_pair", (0,)),
    Layer("special.hyp2f1", mzl.special, "hyp2f1", (3,)),
    Layer("special.j_inverse", mzl.special, "j_inverse"),
    Layer("pfaffian.chain_residual", mzl.pfaffian, "chain_residual"),
    Layer("pfaffian.real_zero_count", mzl.pfaffian, "real_zero_count",
          fn_arg=0),
    Layer("poly.evaluate", mzl.poly.BivariatePolynomial, "evaluate", (1, 2)),
    Layer("poly.perturb", mzl.poly, "perturb"),
    # P(z, f(z)) is evaluated through both of these
    Layer("poly.composite", mzl.poly, "eval_composed", (2,)),
    Layer("poly.composite", mzl.poly.PerturbedComposite, "value", (1,)),
    Layer("contour.winding_number", mzl.contour, "winding_number", fn_arg=0),
    Layer("contour.localize_zeros", mzl.contour, "localize_zeros",
          on_result=_zeros),
    Layer("domains.count", mzl.domains, "count_zeros_j", on_result=_retries),
    Layer("domains.count", mzl.domains, "count_zeros_wp",
          on_result=_retries),
)

# error types of a failed count reported one by one; the rest are "other"
COUNT_ERRORS = ("NonconvergenceError", "MzlError", "ZeroOnContourError",
                "CannotPerturbError")


def _mzl_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mzl" or n.startswith("mzl."))]


class Tracer:
    """Records spans and counts while installed; see the module doc."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list = []

    def install(self) -> None:
        for layer in LAYERS:
            original = getattr(layer.owner, layer.attr)
            wrapper = self._wrap(layer, original)
            if isinstance(layer.owner, type):
                targets = [(layer.owner, layer.attr)]
            else:
                targets = [(m, k) for m in _mzl_modules()
                           for k, v in vars(m).items() if v is original]
            for owner, attr in targets:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _counting(self, fn, name):
        counts = self.counts

        def counted(x, *args, **kwargs):
            counts[name + ".points"] += int(np.size(x))
            return fn(x, *args, **kwargs)
        return counted

    def _wrap(self, layer: Layer, fn):
        counts, name = self.counts, layer.name

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            if layer.points_args:
                counts[name + ".points"] += int(np.broadcast(
                    *(args[i] for i in layer.points_args)).size)
            if layer.fn_arg is not None:
                i = layer.fn_arg
                args = (args[:i] + (self._counting(args[i], name),)
                        + args[i + 1:])
            return self._span(name, fn, args, kwargs, layer.on_result)
        traced.__wrapped__ = fn
        return traced

    def _span(self, name, fn, args, kwargs, on_result=None):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.counts[name + ".failed"] += 1
            self.counts[name + ".failed." + type(exc).__name__] += 1
            raise
        finally:
            spans[index] = (name, start, time.perf_counter_ns(), parent,
                            self.op_id)
            stack.pop()
        if on_result is not None:
            on_result(self.counts, name, result)
        return result

    def run_op(self, op_id: int, fn, *args):
        """fn(*args) under a root span named "op"."""
        self.op_id = op_id
        return self._span("op", fn, args, {})

    def self_seconds(self) -> dict:
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += (end - start - c) * 1e-9
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start_ns", "end_ns", "parent",
                        "op"))
            for i, span in enumerate(self.spans):
                w.writerow((i,) + span)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    c, s = tracer.counts, tracer.self_seconds()
    out = {}

    def put(layer, *quantities):
        for q in quantities:
            if q == "self_s":
                out[f"{layer}.self_s"] = (s.get(layer, 0.0), "s")
            else:
                out[f"{layer}.{q}"] = (c[f"{layer}.{q}"], "count")

    put("qseries.eval", "calls", "points", "self_s")
    put("special.klein_j", "calls", "points", "self_s")
    put("special.klein_j_derivative", "calls", "points", "self_s")
    put("elliptic.wp_pair", "calls", "points", "self_s")
    put("special.hyp2f1", "calls", "points", "self_s")
    put("special.j_inverse", "calls", "self_s")
    put("pfaffian.chain_residual", "calls", "self_s")
    put("pfaffian.real_zero_count", "calls", "points", "self_s")
    put("poly.evaluate", "calls", "points", "self_s")
    put("poly.perturb", "calls", "self_s")
    put("poly.composite", "points")
    put("contour.winding_number", "calls", "points", "self_s", "failed")
    put("contour.localize_zeros", "calls", "zeros", "self_s")
    put("domains.count", "calls", "self_s", "retries")
    for layer in ("special.klein_j", "elliptic.wp_pair"):
        out[f"{layer}.points_per_call"] = (
            _ratio(c[f"{layer}.points"], c[f"{layer}.calls"]), "points/call")
    out["elliptic.wp_pair.points_per_composite_point"] = (
        _ratio(c["elliptic.wp_pair.points"], c["poly.composite.points"]),
        "ratio")
    calls = c["contour.winding_number.calls"]
    out["contour.winding_number.ok_frac"] = (
        _ratio(calls - c["contour.winding_number.failed"], calls), "ratio")
    out["contour.windings_per_zero"] = (
        _ratio(calls, c["contour.localize_zeros.zeros"]), "ratio")
    other = c["domains.count.failed"]
    for err in COUNT_ERRORS:
        n = c[f"domains.count.failed.{err}"]
        out[f"domains.count.failed.{err}"] = (n, "count")
        other -= n
    out["domains.count.failed.other"] = (other, "count")
    return out
