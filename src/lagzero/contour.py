"""Tracing of the level curves Gamma_r = {z : Re phi(z) = r/2}.

The curves are closed, encircle the origin once clockwise, and avoid
(beta1, inf); together with [beta1, beta2] they form the predicted limit
set for the zeros.  Tracing runs in float64 on the landscape module's
closed-form phi, evaluated with cmath, within 1e-13 of the mpmath phase
and far below the 1e-9 level tolerance.

Only the upper half of each curve is traced, and in w = log z: it is the
preimage of r/2 + i t, t in [-A pi/2, 0], under phi, and d phi/dw = R/2
stays bounded away from 0 near the origin, so a loop shrunk to 1e-40 by a
large r costs what Gamma_0 costs.  Both real-axis crossings come from
Newton in log|x| (the negative-axis crossing x_r and the positive crossing
in (0, beta1], which is beta1 itself when r = 0), so the lower half is
the conjugate mirror and closure is structural.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from lagzero.errors import BracketError, ClosureError, DomainError, OnBoundary
from lagzero.landscape import PotentialContext, phi_closed_form, phi_origin_constant

DEFAULT_LEVEL_TOL = 1e-9
_NEWTON_TOL = 1e-13
_NEWTON_ITERS = 60
_STEP_BUDGET = 100_000
# log of the smallest normal double: a loop below it underflows
_LOG_TINY = math.log(sys.float_info.min)


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
# tracing in w = log z


def _phase(A: float, b1: float, b2: float, z: complex) -> Tuple[complex, complex]:
    # phi(z) and R(z) = 2 d phi/dw, in cmath
    R = cmath.sqrt(z - b1) * cmath.sqrt(z - b2)
    return phi_closed_form(A, b1, b2, z, cmath.sqrt, cmath.log), R


def _real_crossing(A: float, b1: float, b2: float, level: float,
                   u: float, sign: int) -> float:
    # Newton in u = log|x| for Re phi(sign e^u) = level.  On both rays
    # d Re phi/du = R/2 is real and negative; Re phi is concave in u on
    # x < 0 and convex on (0, beta1), where a start with Re phi > level
    # climbs to the root without passing it (and so never reaches beta1)
    tol = _NEWTON_TOL * max(1.0, level)
    for _ in range(_NEWTON_ITERS):
        if u < _LOG_TINY:
            side = "-" if sign < 0 else "+"
            raise BracketError(f"no Re phi > r/2 found approaching 0{side}")
        f, R = _phase(A, b1, b2, complex(sign * math.exp(u), 0.0))
        if abs(f.real - level) <= tol:
            return u
        u -= 2 * (f.real - level) / R.real
    raise ClosureError(f"Newton for the level {level} stalled on the real axis")


def axis_crossing(ctx: PotentialContext, r: float) -> float:
    """The unique x_r < 0 with Re phi(x_r) = r/2.

    Newton in u = log|x| on the ray Im log z = pi.  Re phi(-e^u) is
    decreasing and concave in u (its slope R/2 < 0 steepens as |x| grows),
    so Newton converges from any start; it starts from the small-|z| law
    Re phi = K - (A/2) log|x|.  BracketError when x_r underflows float64
    (r/A above about 700).
    """
    if r < 0 or not math.isfinite(r):
        raise DomainError("the level r must be finite and nonnegative")
    A, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    K = phi_origin_constant(A, b1, b2, math.log)
    u = _real_crossing(A, b1, b2, r / 2, min((2 * K - r) / A, 0.0), -1)
    return -math.exp(u)


def trace_gamma(
    ctx: PotentialContext,
    r: float,
    max_step: Optional[float] = None,
) -> ContourPolyline:
    """Trace the upper half of Gamma_r by inverting phi in w = log z.

    Along the upper arc Im phi rises monotonically from -A pi/2 at x_r to
    0 at the positive crossing, so the arc is phi^{-1}(r/2 + i t) for t in
    [-A pi/2, 0].  Continuation in t: the predictor is w + i dt 2/R (the
    derivative d phi/dw = R/2 is bounded, and |R| -> A at the origin, so a
    loop of radius 1e-40 costs what Gamma_0 costs), the corrector is Newton
    on phi(e^w) = r/2 + i t.  Each step is a chord of length
    h = min(max_step, theta |z|, theta/kappa), theta = max_step/(beta2 -
    beta1) capped at 1/4, with kappa the curvature of the level line;
    dt = h |phi'(z)|.  Both real-axis crossings come from Newton in log|x|.

    For r = 0 the curve ends in a corner at beta1, a branch point where R
    vanishes; within 10 max_step of it the chord is graded to a third of
    the gap down to 3e-6 min(beta2 - beta1, beta1), and beta1 is inserted
    exactly.  The lower half is the conjugate mirror of the upper half.

    Raises DomainError when beta2 = beta1 (A = 1) or max_step <= 0,
    BracketError when x_r underflows, and ClosureError when Newton fails
    or the step budget is exhausted.
    """
    A, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    span = b2 - b1
    if span <= 0:
        raise DomainError(f"beta2 - beta1 = {span} at A = {ctx.A}; Gamma_r needs A < 1")
    if max_step is None:
        max_step = span / 400
    if not max_step > 0:
        raise DomainError(f"max_step must be positive, got {max_step}")
    x_r = axis_crossing(ctx, r)
    level = r / 2
    # chords of at most a quarter radian keep a coarse trace a loop, with
    # its last vertex right of the origin
    theta = min(max_step / span, 0.25)
    c = 2 - A
    tol = _NEWTON_TOL * max(1.0, level)

    z = complex(x_r, 0.0)
    w = complex(math.log(-x_r), math.pi)
    R = _phase(A, b1, b2, z)[1]
    t = -A * math.pi / 2
    upper = [z]
    for _ in range(_STEP_BUDGET):
        gap = abs(z - b1)
        if r == 0 and gap < 10 * max_step:
            if gap <= 3e-6 * min(span, b1):
                break
            h = min(max_step, theta * abs(z), gap / 3)
        else:
            kappa = abs(((c * z - A * A) / R ** 3).real) * abs(R) / abs(z)
            h = min(max_step, theta * abs(z), theta / kappa if kappa else math.inf)
        dt = h * abs(R) / (2 * abs(z))
        if t + dt >= 0:
            break
        t += dt
        w += 2j * dt / R
        target = complex(level, t)
        for _ in range(_NEWTON_ITERS):
            z = cmath.exp(w)
            f, R = _phase(A, b1, b2, z)
            if abs(f - target) <= tol:
                break
            w -= 2 * (f - target) / R
        else:
            raise ClosureError(f"Newton for Gamma_{r} stalled near {z:.6g}")
        if not 0 < w.imag < math.pi:
            raise ClosureError(f"Gamma_{r} left the upper half-plane near {z:.6g}")
        upper.append(z)
    else:
        raise ClosureError(f"Gamma_{r} failed to close within {_STEP_BUDGET} steps")
    # the arc reaches the axis from the left, so Re z is left of x_end
    x_end = b1 if r == 0 else math.exp(
        _real_crossing(A, b1, b2, level, math.log(z.real), 1))
    upper.append(complex(x_end, 0.0))

    # mirror the interior vertices for the lower half and close the loop
    points = upper + [p.conjugate() for p in reversed(upper[1:-1])]
    points.append(points[0])

    arcs = [0.0]
    for i in range(1, len(points)):
        arcs.append(arcs[-1] + abs(points[i] - points[i - 1]))

    return ContourPolyline(
        points=tuple(points),
        r=float(r),
        arclengths=tuple(arcs),
        max_step=float(max_step),
        level_tol=DEFAULT_LEVEL_TOL,
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
        # the angle of b/a does not underflow on loops of radius 1e-200
        if a and b:
            total += cmath.phase(b / a)
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
