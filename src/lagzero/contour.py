"""Tracing of the level curves Gamma_r = {z : Re phi(z) = r/2}.

The curves are closed, encircle the origin once clockwise, and avoid
(beta1, inf); together with [beta1, beta2] they form the predicted limit
set for the zeros.  Tracing runs in float64: Re phi is the landscape
module's closed form evaluated with cmath, within 1e-13 of the mpmath
phase, far below the 1e-9 level tolerance.

Only the upper half of each curve is actually traced.  Both real-axis
crossings are known by bisection (the negative-axis crossing x_r and the
positive crossing in (0, beta1], which degenerates to beta1 when r = 0),
so the lower half is the conjugate mirror and closure is structural.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from lagzero.errors import (
    BracketError,
    ClosureError,
    DomainError,
    OnBoundary,
    StepCollapse,
)
from lagzero.landscape import PotentialContext, phi_closed_form

DEFAULT_LEVEL_TOL = 1e-9
_STEP_FLOOR = 1e-8
_STEP_BUDGET = 100_000


@dataclass(frozen=True)
class ContourPolyline:
    """Closed polyline approximation of Gamma_r.

    points[-1] == points[0]; arclengths are cumulative and share the
    indexing.  Every vertex satisfies |Re phi - r/2| <= level_tol.
    """

    points: Tuple[complex, ...]
    r: float
    arclengths: Tuple[float, ...]
    max_step: float
    level_tol: float

    @property
    def re_max(self) -> float:
        return max(p.real for p in self.points)

    @property
    def im_max(self) -> float:
        return max(p.imag for p in self.points)

    @property
    def length(self) -> float:
        return self.arclengths[-1]

    @property
    def upper_arc(self) -> Tuple[complex, ...]:
        """The traced half, x_r to the positive crossing; every later
        vertex is the conjugate of one of these."""
        return self.points[: len(self.points) // 2 + 1]

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.array(self.points, dtype=np.complex128),
            np.array(self.arclengths, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# float64 evaluation of Re phi


class _FastPhase:
    """Double-precision Re phi evaluator bound to one context."""

    def __init__(self, ctx: PotentialContext):
        self.A = float(ctx.A)
        self.b1 = float(ctx.beta1)
        self.b2 = float(ctx.beta2)

    def re_phi(self, z: complex) -> float:
        # Re phi is conjugate-symmetric and continuous across both cuts;
        # folding into the upper half-plane also turns a -0.0 imaginary
        # part into +0.0
        if z == 0:
            return math.inf
        w = complex(z.real, abs(z.imag))
        return phi_closed_form(self.A, self.b1, self.b2, w,
                               cmath.sqrt, cmath.log).real

    def psi(self, z: complex) -> complex:
        # phi'(z) = R(z)/(2z), principal branches (upper half plane use)
        r = np.sqrt(complex(z - self.b1)) * np.sqrt(complex(z - self.b2))
        return r / (2 * z)


def _bisect_level(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    level: float,
    tol: float,
) -> float:
    # f(lo) < level < f(hi); plain bisection to float resolution
    flo, fhi = f(lo), f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if abs(fm - level) <= tol / 10:
            return mid
        if fm < level:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def axis_crossing(ctx: PotentialContext, r: float) -> float:
    """The unique x_r < 0 with Re phi(x_r) = r/2.

    Re phi is strictly increasing toward 0 along the negative axis
    (d/dx Re phi = R(x)/(2x) > 0 there), so a two-sided expanding
    bracket followed by bisection cannot miss.  BracketError if the
    expansion fails, which signals a mis-scaled r.
    """
    if r < 0 or not math.isfinite(r):
        raise DomainError("the level r must be finite and nonnegative")
    fast = _FastPhase(ctx)
    level = r / 2
    f = fast.re_phi

    hi = -fast.b1
    for _ in range(600):
        if f(hi) > level:
            break
        hi /= 2
    else:
        raise BracketError("no Re phi > r/2 found approaching 0-")
    lo = 2 * hi if hi < -1 else -1.0
    for _ in range(120):
        if f(lo) < level:
            break
        lo *= 2
    else:
        raise BracketError("no Re phi < r/2 found going to -inf")
    return _bisect_level(f, lo, hi, level, DEFAULT_LEVEL_TOL)


def _positive_crossing(fast: _FastPhase, r: float) -> float:
    # crossing of Re phi = r/2 in (0, beta1]; equals beta1 when r = 0
    if r == 0:
        return fast.b1
    level = r / 2
    f = fast.re_phi
    hi = fast.b1 * (1 - 1e-15)
    lo = hi
    for _ in range(600):
        if f(lo) > level:
            break
        hi = lo
        lo /= 2
    else:
        raise BracketError("no Re phi > r/2 found approaching 0+")
    # now f(lo) > level >= f(hi); flip to the increasing orientation
    return _bisect_level(lambda x: -f(x), lo, hi, -level, DEFAULT_LEVEL_TOL)


def trace_gamma(
    ctx: PotentialContext,
    r: float,
    max_step: Optional[float] = None,
) -> ContourPolyline:
    """Trace Gamma_r by predictor-corrector continuation.

    Predictor: midpoint rule along the unit tangent i*conj(psi)/|psi|
    with psi = R/(2z); this direction is +i at the start x_r, which makes
    the traversal clockwise about the origin.  Corrector: 1-D Newton on
    Re phi = r/2 along the normal.  Steps adapt on two signals: the
    corrector displacement must stay under max_step/10, and the tangent
    turn per step under max_step/(beta2-beta1) radians (so small loops
    near the origin keep full angular resolution).

    For r = 0 the curve ends in a corner at beta1 (a branch point where
    the tangent field is singular); the tracer grades its step down
    geometrically and inserts beta1 exactly.  The lower half is the
    conjugate mirror of the traced upper half.

    Raises DomainError when beta2 = beta1 (A = 1) or max_step <= 0,
    StepCollapse below a 1e-8 step floor and ClosureError when the step
    budget is exhausted.
    """
    fast = _FastPhase(ctx)
    span = fast.b2 - fast.b1
    if span <= 0:
        raise DomainError(f"beta2 - beta1 = {span} at A = {ctx.A}; Gamma_r needs A < 1")
    if max_step is None:
        max_step = span / 400
    if not max_step > 0:
        raise DomainError(f"max_step must be positive, got {max_step}")
    level = r / 2
    level_tol = DEFAULT_LEVEL_TOL
    theta_max = max_step / span
    corner_stop = 3e-6 * span

    x_r = axis_crossing(ctx, r)
    x_end = _positive_crossing(fast, r)

    def tangent(z: complex) -> complex:
        p = fast.psi(z)
        return 1j * p.conjugate() / abs(p)

    def correct(z: complex) -> Optional[complex]:
        for _ in range(8):
            fval = fast.re_phi(z) - level
            if abs(fval) <= level_tol:
                return z
            p = fast.psi(z)
            n_hat = p.conjugate() / abs(p)
            z = z - (fval / abs(p)) * n_hat
        fval = fast.re_phi(z) - level
        return z if abs(fval) <= level_tol else None

    upper = [complex(x_r, 0.0)]
    z = complex(x_r, 0.0)
    t_prev = 1j
    h = max_step / 4
    corner_mode = False
    steps = 0

    while True:
        steps += 1
        if steps > _STEP_BUDGET:
            raise ClosureError(
                f"Gamma_{r} failed to close within {_STEP_BUDGET} steps"
            )
        if r == 0 and not corner_mode:
            corner_mode = abs(z - fast.b1) < 10 * max_step
        if corner_mode:
            gap = abs(z - fast.b1)
            if gap <= corner_stop:
                upper.append(complex(fast.b1, 0.0))
                break
            h = min(h, gap / 3)
        if h < _STEP_FLOOR:
            raise StepCollapse(
                f"step collapsed below {_STEP_FLOOR} near {z:.6g}"
            )

        t0 = tangent(z)
        z_mid = z + 0.5 * h * t0
        if z_mid.imag <= 0:
            z_mid = z + 0.5 * h * 1j * abs(t0)  # keep probes off the axis
        t_half = tangent(z_mid)
        z_pred = z + h * t_half

        if z_pred.imag <= 0 and not corner_mode and z.real > 0:
            # crossed into the lower half: terminate at the known
            # positive-axis crossing
            upper.append(complex(x_end, 0.0))
            break

        if z_pred.imag <= 0:
            h /= 2
            continue

        z_new = correct(z_pred)
        if z_new is None or z_new.imag <= 0:
            h /= 2
            continue
        disp = abs(z_new - z_pred)
        turn = abs(math.remainder(math.atan2(t_half.imag, t_half.real)
                                  - math.atan2(t_prev.imag, t_prev.real),
                                  2 * math.pi))
        # the turn cap keeps angular resolution on the smooth arc; in the
        # corner wedge the tangent field itself rotates without bound, and
        # the geometric grading h ~ gap/3 is the controlling rule there
        turn_ok = corner_mode or turn <= theta_max
        if (disp > max_step / 10 or not turn_ok) and h > _STEP_FLOOR:
            h /= 2
            continue
        upper.append(z_new)
        z = z_new
        t_prev = tangent(z_new)
        if disp < max_step / 40 and turn < theta_max / 2 and not corner_mode:
            h = min(h * 1.25, max_step)

    # mirror the interior vertices for the lower half and close the loop;
    # builtin complex throughout (numpy scalars would leak into reprs)
    upper = [complex(p) for p in upper]
    points = upper + [p.conjugate() for p in reversed(upper[1:-1])]
    points.append(points[0])

    arcs = [0.0]
    for i in range(1, len(points)):
        arcs.append(arcs[-1] + float(abs(points[i] - points[i - 1])))

    return ContourPolyline(
        points=tuple(points),
        r=float(r),
        arclengths=tuple(arcs),
        max_step=float(max_step),
        level_tol=level_tol,
    )


# ---------------------------------------------------------------------------
# geometry


def project_to_loop(
    gamma: ContourPolyline, zs
) -> Tuple[np.ndarray, np.ndarray]:
    """Per point of zs: (arclength of the nearest polyline point, distance
    to it), as float64 arrays; ties go to the first segment.

    Distances use hypot on the componentwise difference, which rounds like
    abs() of a builtin complex.  Each point is projected onto all segments
    at once; points go one at a time, so the working set stays a few
    vertex-length arrays rather than points x vertices.
    """
    z = np.asarray(zs, dtype=np.complex128).reshape(-1)
    pts, arcs = gamma.as_arrays()
    ax, ay = pts.real[:-1], pts.imag[:-1]
    dx, dy = np.diff(pts.real), np.diff(pts.imag)
    L2 = dx * dx + dy * dy
    moving = L2 > 0
    s = np.empty(len(z))
    dist = np.empty(len(z))
    for k, (x, y) in enumerate(zip(z.real, z.imag)):
        t = np.zeros_like(L2)
        np.divide((x - ax) * dx + (y - ay) * dy, L2, out=t, where=moving)
        np.clip(t, 0.0, 1.0, out=t)
        d = np.hypot(x - (ax + t * dx), y - (ay + t * dy))
        i = int(np.argmin(d))
        s[k] = arcs[i] + t[i] * (arcs[i + 1] - arcs[i])
        dist[k] = d[i]
    return s, dist


def interval_gap(ctx: PotentialContext, zs) -> np.ndarray:
    """Distance from each point of zs to the real segment [beta1, beta2]."""
    z = np.asarray(zs, dtype=np.complex128)
    x = np.clip(z.real, float(ctx.beta1), float(ctx.beta2))
    return np.hypot(z.real - x, z.imag)


def limit_set_distance(
    ctx: PotentialContext, gamma: Optional[ContourPolyline], z: complex
) -> float:
    """Distance from z to Gamma_r union [beta1, beta2]; gamma=None stands
    for r = inf, whose loop is the atom at the origin."""
    z = complex(z)
    loop = abs(z) if gamma is None else project_to_loop(gamma, z)[1][0]
    return float(min(interval_gap(ctx, z), loop))


def point_in_loop(gamma: ContourPolyline, z: complex) -> bool:
    """Even-odd test for z against the closed polyline.

    OnBoundary if z lies within level_tol of the curve (the test is
    meaningless there).
    """
    z = complex(z)
    if project_to_loop(gamma, z)[1][0] <= gamma.level_tol:
        raise OnBoundary(f"{z} lies on the traced curve")
    pts = gamma.points
    inside = False
    x, y = z.real, z.imag
    for i in range(len(pts) - 1):
        p, q = pts[i], pts[i + 1]
        if (p.imag > y) != (q.imag > y):
            x_cross = p.real + (y - p.imag) * (q.real - p.real) / (
                q.imag - p.imag
            )
            if x < x_cross:
                inside = not inside
    return inside


def winding_number(gamma: ContourPolyline, z: complex = 0j) -> int:
    """Signed winding of the polyline about z; -1 means clockwise."""
    total = 0.0
    pts = gamma.points
    for i in range(len(pts) - 1):
        a = pts[i] - z
        b = pts[i + 1] - z
        total += math.atan2(
            a.real * b.imag - a.imag * b.real,
            a.real * b.real + a.imag * b.imag,
        )
    return round(total / (2 * math.pi))


def polyline_csv(gamma: ContourPolyline) -> str:
    """CSV dump: header re,im,arclength, one vertex per row, explicit
    closure (final row duplicates the first vertex), and a footer comment
    row recording the winding number."""
    lines = ["re,im,arclength"]
    for p, s in zip(gamma.points, gamma.arclengths):
        lines.append(f"{p.real!r},{p.imag!r},{s!r}")
    lines.append(f"# winding,{winding_number(gamma)},")
    return "\n".join(lines) + "\n"
