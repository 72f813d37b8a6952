"""Output checks against closed forms that do not depend on lagzero's code.

`check(argv, out, schema)` returns the list of problems found in the
text a `lagzero` command printed; an empty list means the output passed.

zeros   n rows (origin rows included); sum z = n + alpha and
        sum z^2 = (n+alpha)^2 - (n-1)(n+alpha)(n+alpha-1)/n to 1e-10
        relative; n - floor(-alpha) positive real zeros.
verify  schema-valid JSON for the same n and alpha; loop + interval +
        outlier + origin_multiplicity = n, also for every sweep row;
        origin_multiplicity = -alpha for integer alpha and 0 otherwise;
        valid is true. The report carries no zero list, so the moment
        checks apply to `zeros` only.
betas   beta1 beta2 = A^2 and beta1 + beta2 = 2(2 - A).
contour closed polyline, nondecreasing arclength from 0, `# winding,-1`.
asymp   one row per point, every rel_error finite.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, Sequence

import jsonschema

MOMENT_RTOL = 1e-10
BETAS_RTOL = 1e-12


def _flags(argv: Sequence[str]) -> dict:
    """{"--flag": value} from "--flag value" and "--flag=value" tokens."""
    out, tokens = {}, iter(argv[1:])
    for tok in tokens:
        key, eq, value = tok.partition("=")
        out[key] = value if eq else next(tokens)
    return out


def _close(got, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1.0)


def check_zeros(argv, out: str) -> List[str]:
    f = _flags(argv)
    n, alpha = int(f["--n"]), Fraction(f["--alpha"])
    lines = out.splitlines()
    if not lines or lines[0] != "re,im,residual":
        return ["zeros: missing header re,im,residual"]
    rows = lines[1:]
    if len(rows) != n:
        return [f"zeros: {len(rows)} rows, want n = {n}"]
    zs = []
    for row in rows:
        try:
            re_, im_, res = (float(t) for t in row.split(","))
        except ValueError:
            return [f"zeros: unparsable row {row!r}"]
        if not all(math.isfinite(v) for v in (re_, im_, res)):
            return [f"zeros: non-finite row {row!r}"]
        zs.append(complex(re_, im_))
    problems = []
    m = float(n + alpha)
    s1 = sum(zs)
    s2 = sum(z * z for z in zs)
    want2 = float((n + alpha) ** 2 - (n - 1) * (n + alpha) * (n + alpha - 1) / n)
    if not _close(s1, m, MOMENT_RTOL):
        problems.append(f"zeros: sum z = {s1}, want n + alpha = {m}")
    if not _close(s2, want2, MOMENT_RTOL):
        problems.append(f"zeros: sum z^2 = {s2}, want {want2}")
    positive = sum(1 for z in zs if z.imag == 0.0 and z.real > 0)
    want_pos = n - math.floor(-alpha)
    if positive != want_pos:
        problems.append(f"zeros: {positive} positive real zeros, want {want_pos}")
    return problems


def check_verify(argv, out: str, schema: dict) -> List[str]:
    f = _flags(argv)
    n, alpha = int(f["--n"]), Fraction(f["--alpha"])
    try:
        rep = json.loads(out)
        jsonschema.validate(rep, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return [f"verify: report is not schema-valid JSON: {str(exc)[:200]}"]
    problems = []
    if rep["n"] != n or Fraction(rep["alpha"]) != alpha:
        problems.append(f"verify: report is for n={rep['n']} alpha={rep['alpha']}")
    origin = rep["origin_multiplicity"]
    want_origin = int(-alpha) if alpha.denominator == 1 else 0
    if origin != want_origin:
        problems.append(f"verify: origin_multiplicity {origin}, want {want_origin}")
    total = rep["loop_count"] + rep["interval_count"] + rep["outlier_count"] + origin
    if total != n:
        problems.append(f"verify: counts sum to {total}, want n = {n}")
    for row in rep.get("sweep", []):
        t = row["loop"] + row["interval"] + row["outlier"] + origin
        if t != n:
            problems.append(f"verify: sweep delta={row['delta']} sums to {t}, want {n}")
    if rep["valid"] is not True:
        problems.append("verify: valid is not true")
    return problems


def check_betas(argv, out: str) -> List[str]:
    A = float(Fraction(_flags(argv)["--A"]))
    try:
        doc = json.loads(out)
        b1, b2 = float(doc["beta1"]), float(doc["beta2"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"betas: unreadable output: {exc}"]
    problems = []
    if not _close(b1 * b2, A * A, BETAS_RTOL):
        problems.append(f"betas: beta1*beta2 = {b1 * b2}, want A^2 = {A * A}")
    if not _close(b1 + b2, 2 * (2 - A), BETAS_RTOL):
        problems.append(f"betas: beta1+beta2 = {b1 + b2}, want 2(2-A) = {2 * (2 - A)}")
    return problems


def check_contour(argv, out: str) -> List[str]:
    lines = out.splitlines()
    if not lines or lines[0] != "re,im,arclength":
        return ["contour: missing header re,im,arclength"]
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    if lines[1:len(data) + 1] != data:
        return ["contour: comment rows inside the polyline"]
    if len(data) < 4:
        return [f"contour: only {len(data)} vertices"]
    try:
        rows = [tuple(float(t) for t in ln.split(",")) for ln in data]
    except ValueError:
        return ["contour: unparsable vertex row"]
    problems = []
    if rows[0][:2] != rows[-1][:2]:
        problems.append("contour: polyline is not closed (last vertex != first)")
    arcs = [r[2] for r in rows]
    if arcs[0] != 0.0 or any(b < a for a, b in zip(arcs, arcs[1:])):
        problems.append("contour: arclength does not rise from 0")
    if "# winding,-1," not in footer:
        problems.append("contour: footer `# winding,-1,` missing")
    return problems


def check_asymp(argv, out: str) -> List[str]:
    points = [t.strip() for t in _flags(argv)["--points"].split(",")]
    lines = out.splitlines()
    if not lines or lines[0] != "point,exact,predicted,rel_error":
        return ["asymp: missing header"]
    rows = [ln.split(",") for ln in lines[1:]]
    if [r[0] for r in rows] != points:
        return [f"asymp: {len(rows)} rows do not match the {len(points)} points"]
    problems = []
    for r in rows:
        try:
            finite = len(r) == 4 and math.isfinite(float(r[3]))
        except ValueError:
            finite = False
        if not finite:
            problems.append(f"asymp: rel_error not finite at {r[0]}: {','.join(r[1:])}")
    return problems


def check(argv: Sequence[str], out: str, schema: dict) -> List[str]:
    cmd = argv[0]
    if cmd == "verify":
        return check_verify(argv, out, schema)
    return {
        "zeros": check_zeros,
        "betas": check_betas,
        "contour": check_contour,
        "asymp": check_asymp,
    }[cmd](argv, out)
