"""Command-line surface: plot-ready CSV/JSON for every major operation.

Subcommands
    betas    endpoint pair for a given A
    contour  traced Gamma_r polyline as CSV
    zeros    certified zeros of L_n^{(alpha)}(nz) as CSV
    verify   full comparison report as JSON
    asymp    asymptotic predictions vs exact evaluation as CSV

alpha and A are accepted only as exact decimal strings; parsing them
through binary floating point would wreck the near-integer regimes the
experiments are about. Every command is deterministic: identical flags
produce byte-identical output. Exit codes: 2 domain violation, 3 tracer
failure (Newton stalled, or the loop underflows float64; nth_root traces
none), 4 root-finder non-convergence, 5 asymptotic-domain violation.

The working precision (bits), rootfinder.start_precision's by default,
sizes only the root finder of zeros and verify (whose valid says every
printed zero is proven to the last bit); betas, contour and asymp take no
--precision: the landscape and asymp's exact values are rounded at
landscape.LANDSCAPE_BITS. LAGZERO_PRECISION overrides the default where
--precision is not given; either must be at least 64, for every subcommand.
"""

from __future__ import annotations

import argparse
import cmath
import math
import json
import os
import sys
from typing import List, Optional, Tuple

from mpmath import mp

from . import asymptotics, contour, harness, laguerre
from .errors import (
    BracketError,
    ClosureError,
    DomainError,
    NonConvergence,
    QuadratureError,
)
from .landscape import LANDSCAPE_BITS, g_eval, make_context

ENV_PRECISION = "LAGZERO_PRECISION"

EXIT_DOMAIN = 2
EXIT_CLOSURE = 3
EXIT_NONCONVERGENCE = 4
EXIT_ASYMP_DOMAIN = 5


def _precision_from(args) -> Optional[int]:
    bits, env = getattr(args, "precision", None), os.environ.get(ENV_PRECISION)
    if bits is None and env:
        try:
            bits = int(env)
        except ValueError as exc:
            raise DomainError(f"{ENV_PRECISION}={env!r} is not an integer") from exc
    if bits is not None and bits < 64:
        raise DomainError(f"precision must be at least 64 bits, got {bits}")
    return bits


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_r(raw: str) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        r = float(raw)
    except ValueError as exc:
        raise DomainError(f"cannot parse r {raw!r}") from exc
    if not r >= 0:
        raise DomainError(f"r must be nonnegative, got {r}")
    return r


def cmd_betas(args) -> int:
    ctx = make_context(laguerre.parse_alpha(args.A))
    doc = {"A": args.A, "beta1": float(ctx.beta1), "beta2": float(ctx.beta2)}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_contour(args) -> int:
    ctx = make_context(laguerre.parse_alpha(args.A))
    r = _parse_r(args.r)
    if math.isinf(r):
        raise DomainError("Gamma_inf degenerates to the origin; no polyline")
    gamma = contour.trace_gamma(ctx, r, max_step=args.step)
    _emit(contour.polyline_csv(gamma), args.out)
    return 0


def cmd_zeros(args) -> int:
    zset = harness.compute_zeros(args.n, args.alpha, precision_bits=args.precision)
    lines = ["re,im,residual"]
    for _ in range(zset.origin_multiplicity):
        lines.append("0.0,0.0,0.0")
    for z, res in zip(zset.zeros, zset.residuals):
        zc = complex(z)
        lines.append(f"{zc.real!r},{zc.imag!r},{float(res)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    # only the flags given: RunOptions owns the defaults
    given = {"precision_bits": args.precision}
    if args.classify_tol is not None:
        given["classify_tol"] = args.classify_tol
    if args.sweep:
        try:
            given["sweep"] = tuple(float(t) for t in args.sweep.split(","))
        except ValueError as exc:
            raise DomainError(f"--sweep wants a comma list of numbers, got {args.sweep!r}") from exc
    rep = harness.run_comparison(args.n, args.alpha, harness.RunOptions(**given))
    _emit(harness.report_json(rep) + "\n", args.out)
    return 0


def _parse_points(args, parse) -> List[Tuple[str, object]]:
    # (token, parse(token)) pairs; the token is echoed in the output
    if args.points:
        tokens = [tok.strip() for tok in args.points.split(",") if tok.strip()]
    elif args.grid:
        try:
            start, stop, count = args.grid.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise DomainError(f"--grid wants start:stop:count, got {args.grid!r}") from exc
        if count < 2:
            raise DomainError("--grid needs at least 2 points")
        tokens = [repr(start + (stop - start) * k / (count - 1)) for k in range(count)]
    else:
        raise DomainError("asymp needs --points or --grid")
    pairs = []
    for tok in tokens:
        try:
            point = parse(tok)
        except ValueError as exc:
            raise DomainError(f"cannot parse point {tok!r}") from exc
        if not cmath.isfinite(point):
            raise DomainError(f"point {tok!r} is not finite")
        pairs.append((tok, point))
    return pairs


def cmd_asymp(args) -> int:
    complex_point = lambda tok: complex(tok.replace(" ", ""))
    points = _parse_points(args, float if args.regime == "oscillatory" else complex_point)
    n = args.n
    alpha_f = laguerre.parse_alpha(args.alpha)
    ctx = make_context(laguerre.theorem_ratio(n, alpha_f))
    lines = ["point,exact,predicted,rel_error"]
    with mp.workprec(LANDSCAPE_BITS):
        values = laguerre.evaluate(laguerre.monic_rescaled(n, alpha_f), [z for _, z in points])
        if args.regime == "oscillatory":
            # L_n^(alpha)(n x) = (-n)^n/n! P_n(x)
            scale = mp.power(-n, n) / mp.factorial(n)
            for (tok, x), p in zip(points, values):
                pred = asymptotics.oscillatory_value(ctx, n, x)
                exact = scale * p
                rel = float(abs(pred / exact - 1)) if exact != 0 else math.inf
                lines.append(f"{tok},{float(exact)!r},{float(pred)!r},{rel!r}")
        elif args.regime == "outer":
            for (tok, z), p in zip(points, values):
                pred = asymptotics.outer_ratio(ctx, z)
                exact = p * mp.exp(-n * g_eval(ctx, mp.mpc(z)))
                rel = float(abs(complex(pred) / complex(exact) - 1))
                lines.append(f"{tok},{complex(exact)!r},{complex(pred)!r},{rel!r}")
        else:
            r = _parse_r(args.r)
            for (tok, z), p in zip(points, values):
                emp, pred = asymptotics.nth_root_exponent(ctx, r, n, z, p)
                rel = abs(emp / pred - 1) if pred != 0 else math.inf
                lines.append(f"{tok},{emp!r},{pred!r},{rel!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lagzero",
        description="zeros of scaled Laguerre polynomials with negative "
                    "varying parameters: contours, measures, asymptotics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betas", help="endpoints beta1, beta2 for a given A")
    p.add_argument("--A", required=True, help="A in (0,1], exact decimal string")
    p.add_argument("--out")
    p.set_defaults(func=cmd_betas)

    p = sub.add_parser("contour", help="trace Gamma_r as CSV re,im,arclength")
    p.add_argument("--A", required=True)
    p.add_argument("--r", required=True, help="level parameter, >= 0")
    p.add_argument("--step", type=float, default=None,
                   help="sets the angle each chord may subtend, step/(beta2-beta1) "
                        "radians, at most 1/4 (default (beta2-beta1)/400)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("zeros", help="zeros of L_n^(alpha)(nz) as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True,
                   help="exact decimal string, e.g. -31.999999")
    p.add_argument("--precision", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="comparison report as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--classify-tol", dest="classify_tol", type=float)
    p.add_argument("--sweep", default=None, help="comma list of deltas")
    p.add_argument("--precision", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymp", help="asymptotic prediction vs exact, CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--regime", required=True,
                   choices=["outer", "oscillatory", "nth_root"])
    p.add_argument("--points", default=None,
                   help="comma list of evaluation points")
    p.add_argument("--grid", default=None, help="start:stop:count")
    p.add_argument("--r", default="0", help="measure parameter for nth_root")
    p.add_argument("--out")
    p.set_defaults(func=cmd_asymp)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a bad precision is a usage error (exit 2), for asymp too
        args.precision = _precision_from(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        return args.func(args)
    except DomainError as exc:
        code = EXIT_ASYMP_DOMAIN if args.command == "asymp" else EXIT_DOMAIN
        print(f"error: {exc}", file=sys.stderr)
        return code
    except (ClosureError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLOSURE
    except (NonConvergence, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
