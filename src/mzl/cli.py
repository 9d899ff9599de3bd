"""Command-line interface.

Exit codes: 0 success, 1 a verification or bound check failed, 2 bad
usage or a domain error.  All JSON output uses sorted keys and repr'd
floats so identical inputs give byte-identical bytes.
"""
from __future__ import annotations

import argparse
import cmath
import json
import sys

from .config import RunConfig, load_config
from .contour import trace_table
from .domains import (_J_ETAS, _WP_ETAS, JDomainSpec, WpDomainSpec,
                      _j_geometry, _wp_geometry, bezout_step_bound,
                      count_zeros_j, count_zeros_wp, proposition_bound,
                      theorem1_bound, theorem2_bound, theorem2_proof_bound)
from .elliptic import lattice, wp_analytic, wp_error_bound, wp_pair
from .errors import MzlError
from .pfaffian import (build_hypergeometric_chain, build_ratio_chain,
                       chain_residual, khovanskii_zero_bound)
from .poly import PerturbedComposite, polynomial_from_json
from .special import (SEXTIC_A, SEXTIC_B, hyp2f1_with_bound, j_inverse,
                      klein_j_pair, klein_j_with_bound)
from .verify import SCHEMA, run_selftest, run_suites, _SUITES

_RESIDUAL_PASS = 1e-7


def _parse_complex(s: str) -> complex:
    # only a trailing i is the imaginary unit: "inf" keeps its own i
    t = s.replace(" ", "")
    try:
        z = complex(t[:-1] + "j" if t.endswith("i") else t)
    except ValueError:
        raise MzlError(f"cannot parse complex number from {s!r}")
    if not cmath.isfinite(z):
        raise MzlError(f"input {s!r} is not a finite complex number")
    return z


def _parse_real(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise MzlError(f"cannot parse real number from {s!r}")


def _load_poly(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise MzlError(f"{path}: not a polynomial JSON file: {exc}")
    return polynomial_from_json(obj)


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _gather_inputs(args) -> list[str]:
    items = list(args.inputs)
    if args.points is not None:
        fh = sys.stdin if args.points == "-" else open(args.points, "r",
                                                       encoding="utf-8")
        try:
            items += [ln.strip() for ln in fh if ln.strip()]
        finally:
            if args.points != "-":
                fh.close()
    if not items:
        items = [ln.strip() for ln in sys.stdin if ln.strip()]
    if not items:
        raise MzlError("no input points given")
    return items


def _cmd_eval(args, cfg: RunConfig) -> int:
    args.inputs = _gather_inputs(args)
    rows = []
    if args.function == "j":
        for s in args.inputs:
            z = _parse_complex(s)
            rows.append((s, *klein_j_with_bound(z)))
    elif args.function == "jinv":
        for s in args.inputs:
            v = complex(j_inverse(_parse_real(s)))
            rows.append((s, v, ""))
    elif args.function in ("wp", "wpprime"):
        L = lattice(args.tau)
        for s in args.inputs:
            z = _parse_complex(s)
            p, dp = wp_pair(z, L)
            if args.function == "wp":
                rows.append((s, p, wp_error_bound(z, p, dp, L)))
            else:
                rows.append((s, dp, ""))
    elif args.function == "2f1":
        for s in args.inputs:
            z = _parse_complex(s)
            v, bound = hyp2f1_with_bound(args.a, args.b, args.c, z)
            rows.append((s, v, bound))
    sys.stdout.write("input,re,im,error_bound\n")
    for s, v, bound in rows:
        b = repr(float(bound)) if bound != "" else ""
        sys.stdout.write(f"{s},{repr(v.real)},{repr(v.imag)},{b}\n")
    return 0


def _cmd_verify_chain(args, cfg: RunConfig) -> int:
    if args.chain == "hyp":
        chain = build_hypergeometric_chain(args.a, args.b, args.c)
    else:
        chain = build_ratio_chain()
    res = chain_residual(chain, args.samples)
    ok = res < _RESIDUAL_PASS
    _emit_json({"schema": SCHEMA, "chain": args.chain,
                "order": chain.order, "alpha": chain.alpha,
                "max_residual": repr(res), "pass": bool(ok)}, args.report)
    return 0 if ok else 1


def _domain_spec(args, cfg: RunConfig):
    """The domain that count-zeros and trace name, with Y and tau
    falling back to the run configuration."""
    if args.domain == "j":
        return JDomainSpec(Y=args.Y if args.Y is not None else cfg.y_top)
    return WpDomainSpec(tau=args.tau if args.tau is not None else cfg.tau,
                        beta=args.beta)


def _cmd_count_zeros(args, cfg: RunConfig) -> int:
    P = _load_poly(args.poly)
    spec = _domain_spec(args, cfg)
    if args.domain == "j":
        rep = count_zeros_j(P, spec)
    else:
        rep = count_zeros_wp(P, spec)
    payload = {"schema": SCHEMA, "report": rep.to_dict()}
    if args.report is not None:
        _emit_json(payload, args.report)
    if args.json:
        _emit_json(payload, None)
    else:
        sys.stdout.write(
            f"count={rep.count} winding={rep.winding} degree={rep.degree} "
            f"bound={rep.bound} bound_holds={rep.bound_holds} "
            f"retries={rep.retries}\n")
        for z in rep.zeros:
            sys.stdout.write(
                f"  zero re={repr(z.center.real)} im={repr(z.center.imag)} "
                f"multiplicity={z.multiplicity} radius={repr(z.radius)} "
                f"resolved={z.resolved}\n")
    return 0 if rep.bound_holds else 1


def _cmd_bound(args, cfg: RunConfig) -> int:
    if args.which == "khov":
        if args.r is None or args.alpha is None or args.beta is None:
            raise MzlError("khov needs --r, --alpha and --beta")
        val = khovanskii_zero_bound(args.r, args.alpha, args.beta)
    else:
        if args.d is None:
            raise MzlError(f"{args.which} needs --d")
        fn = {"t1": theorem1_bound, "t2": theorem2_bound,
              "t2proof": theorem2_proof_bound, "prop": proposition_bound,
              "bezout": bezout_step_bound}[args.which]
        val = fn(args.d)
    sys.stdout.write(f"{val}\n")
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    names = None if "all" in args.suites else args.suites
    rep = run_suites(cfg, names)
    if args.report is not None:
        _emit_json(rep, args.report)
    if args.json:
        _emit_json(rep, None)
    else:
        for s in rep["suites"]:
            sys.stdout.write(
                f"{s['name']}: {'PASS' if s['pass'] else 'FAIL'}\n")
        sys.stdout.write(
            f"overall: {'PASS' if rep['pass'] else 'FAIL'}\n")
    return 0 if rep["pass"] else 1


def _cmd_trace(args, cfg: RunConfig) -> int:
    P = _load_poly(args.poly)
    spec = _domain_spec(args, cfg)
    # the contour and factor of a count's first attempt
    if args.domain == "j":
        contour, _, factor, _ = _j_geometry(spec.Y, _J_ETAS[0])
        inner = klein_j_pair
    else:
        contour, _, factor, _ = _wp_geometry(P, spec, _WP_ETAS[0])
        inner = wp_analytic(lattice(spec.tau))
    pert = PerturbedComposite(P, inner, 0.0, 0.0, factor)
    t, z, v, arg = trace_table(pert.pair, contour, args.per_segment)
    out = sys.stdout if args.out is None else open(args.out, "w",
                                                   encoding="utf-8")
    try:
        out.write("t,z_re,z_im,f_re,f_im,arg_unwrapped\n")
        for i in range(t.size):
            out.write(f"{repr(float(t[i]))},{repr(float(z[i].real))},"
                      f"{repr(float(z[i].imag))},{repr(float(v[i].real))},"
                      f"{repr(float(v[i].imag))},{repr(float(arg[i]))}\n")
    finally:
        if args.out is not None:
            out.close()
    return 0


def _cmd_selftest(args, cfg: RunConfig) -> int:
    rep = run_selftest()
    for s in rep["suites"]:
        sys.stdout.write(f"{s['name']}: {'PASS' if s['pass'] else 'FAIL'}\n")
    sys.stdout.write(f"overall: {'PASS' if rep['pass'] else 'FAIL'}\n")
    return 0 if rep["pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mzl",
        description="Zero counting for polynomials in z and j(z) or wp(z), "
                    "with chain and bound verification tools.")
    p.add_argument("--config", default=None, help="key=value config file")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a special function")
    pe.add_argument("function", choices=["j", "jinv", "wp", "wpprime", "2f1"])
    pe.add_argument("inputs", nargs="*")
    pe.add_argument("--points", default=None,
                    help="file of points, one per line (- for stdin); "
                         "stdin is also read when no points are given")
    pe.add_argument("--tau", type=float, default=1.0)
    pe.add_argument("--a", type=float, default=SEXTIC_A)
    pe.add_argument("--b", type=float, default=SEXTIC_B)
    pe.add_argument("--c", type=float, default=1.0)
    pe.set_defaults(fn=_cmd_eval)

    pc = sub.add_parser("verify-chain", help="differentiate a chain "
                        "numerically and compare with its right-hand sides")
    pc.add_argument("--chain", choices=["hyp", "ratio"], required=True)
    pc.add_argument("--a", type=float, default=0.3)
    pc.add_argument("--b", type=float, default=1.2)
    pc.add_argument("--c", type=float, default=0.8)
    pc.add_argument("--samples", type=int, default=200)
    pc.add_argument("--report", default=None)
    pc.set_defaults(fn=_cmd_verify_chain)

    # the polynomial and domain arguments of count-zeros and trace
    domain = argparse.ArgumentParser(add_help=False)
    domain.add_argument("domain", choices=["j", "wp"])
    domain.add_argument("--poly", required=True, help="polynomial JSON file")
    domain.add_argument("--Y", type=float, default=None)
    domain.add_argument("--tau", type=float, default=None)
    domain.add_argument("--beta", type=float, default=0.0)

    pz = sub.add_parser("count-zeros", parents=[domain], help="count zeros "
                        "in a fundamental domain via the argument principle")
    pz.add_argument("--report", default=None)
    pz.add_argument("--json", action="store_true")
    pz.set_defaults(fn=_cmd_count_zeros)

    pb = sub.add_parser("bound", help="print an exact zero bound")
    pb.add_argument("which", choices=["t1", "t2", "t2proof", "prop",
                                      "bezout", "khov"])
    pb.add_argument("--d", type=int, default=None)
    pb.add_argument("--r", type=int, default=None)
    pb.add_argument("--alpha", type=int, default=None)
    pb.add_argument("--beta", type=int, default=None)
    pb.set_defaults(fn=_cmd_bound)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suites", nargs="*", default=["all"],
                    help="all or a list of: " + ", ".join(_SUITES))
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--report", default=None)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("trace", parents=[domain], help="dump the composite "
                        "along a domain contour as CSV")
    pt.add_argument("--per-segment", type=int, default=256)
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=_cmd_trace)

    ps = sub.add_parser("selftest", help="fast smoke verification")
    ps.set_defaults(fn=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        flags = {k: getattr(args, k) for k in ("trials", "seed")
                 if getattr(args, k, None) is not None}
        cfg = load_config(args.config).merged(flags, "command line")
        return args.fn(args, cfg)
    except MzlError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
