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

The polyline serves distances, projections and the loop CDF; which side
of the loop a point lies on is read off phi itself (point_in_loop).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Tuple

from lagzero.debuglog import debug
from lagzero.errors import BracketError, ClosureError, DomainError, OnBoundary
from lagzero.landscape import PotentialContext, phi_from_root, phi_origin_constant

DEFAULT_LEVEL_TOL = 1e-9
_NEWTON_TOL = 1e-13
_NEWTON_ITERS = 60
_STEP_BUDGET = 100_000
SPAN_STEPS = 400  # trace_gamma's default max_step is (beta2 - beta1) / SPAN_STEPS
# log of the smallest normal double: a loop below it underflows
_LOG_TINY = math.log(sys.float_info.min)


@dataclass(frozen=True)
class ContourPolyline:
    """Closed polyline approximation of Gamma_r.

    points[-1] == points[0]; arclengths are cumulative and share the
    indexing.  Every vertex satisfies |Re phi - r/2| <= DEFAULT_LEVEL_TOL.
    upper_mass holds Im phi/pi + A/2 at each vertex of upper_arc, the nu_r
    mass from x_r to it: 0 at x_r, A/2 at the positive crossing, and the
    tracer's own phi at the vertices between (empty for a polyline built
    by hand).
    """

    points: Tuple[complex, ...]
    r: float
    arclengths: Tuple[float, ...]
    max_step: float
    upper_mass: Tuple[float, ...] = ()

    @property
    def upper_arc(self) -> Tuple[complex, ...]:
        """The traced half, x_r to the positive crossing; every later
        vertex is the conjugate of one of these."""
        return self.points[: len(self.points) // 2 + 1]


# ---------------------------------------------------------------------------
# tracing in w = log z


def _phase(A: float, b1: float, b2: float, z: complex) -> Tuple[complex, complex]:
    # phi(z) and R(z) = 2 d phi/dw, in cmath
    R = cmath.sqrt(z - b1) * cmath.sqrt(z - b2)
    return phi_from_root(A, b1, b2, z, R, cmath.log), R


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
        max_step = span / SPAN_STEPS
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
    upper, mass = [z], [0.0]
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
        mass.append(f.imag / math.pi + A / 2)
    else:
        raise ClosureError(f"Gamma_{r} failed to close within {_STEP_BUDGET} steps")
    # the arc reaches the axis from the left, so Re z is left of x_end
    x_end = b1 if r == 0 else math.exp(
        _real_crossing(A, b1, b2, level, math.log(z.real), 1))
    upper.append(complex(x_end, 0.0))
    mass.append(A / 2)

    # mirror the interior vertices for the lower half and close the loop
    points = upper + [p.conjugate() for p in reversed(upper[1:-1])]
    points.append(points[0])

    arcs = [0.0]
    for i in range(1, len(points)):
        arcs.append(arcs[-1] + abs(points[i] - points[i - 1]))
    debug(__name__, "Gamma_%s: %d vertices at max_step %.3g", r, len(points), max_step)

    return ContourPolyline(
        points=tuple(points),
        r=float(r),
        arclengths=tuple(arcs),
        max_step=float(max_step),
        upper_mass=tuple(mass),
    )


# ---------------------------------------------------------------------------
# geometry


def _as_points(zs) -> List[complex]:
    # one point or an iterable of points
    if isinstance(zs, numbers.Number):
        return [complex(zs)]
    return [complex(z) for z in zs]


def project_to_loop(
    gamma: ContourPolyline, zs
) -> Tuple[List[float], List[float]]:
    """Per point of zs (one point or an iterable): the arclength of the
    nearest polyline point and the distance to it, as lists of floats;
    ties go to the first segment.

    Exact, and equal bit for bit to a loop over every segment: distances
    are abs() of a builtin complex, which rounds like hypot.  Every polyline
    point within arclength L past a vertex v lies within L of v, so the
    walk along the polyline skips the segments that end less than
    |z - v| - best - margin of arclength past v, best being the nearest
    distance so far (at first that of the nearest of about sqrt(len)
    evenly spaced vertices).  The margin, 1e-13 |z| + 1e-9 (|pts[0]| + 2
    length), covers the float64 rounding: ulps of |z| and of the vertices in
    the distances, up to an ulp of the length per vertex in the arclengths.
    """
    pts, arcs = gamma.points, gamma.arclengths
    last = len(pts) - 1
    sample = pts[::max(1, math.isqrt(last))]
    # every vertex lies within the loop's length of pts[0]
    size = 1e-9 * (abs(pts[0]) + 2 * arcs[-1])
    s_out, d_out = [], []
    for z in _as_points(zs):
        x, y = z.real, z.imag
        margin = 1e-13 * abs(z) + size
        bound = min(abs(z - p) for p in sample)
        best, k, tk, i = math.inf, 0, 0.0, 0
        while i < last:
            a = pts[i]
            j = bisect_left(arcs, arcs[i] + abs(z - a) - bound - margin, i + 1) - 1
            if j > i:
                i = j
                continue
            b = pts[i + 1]
            ax, ay = a.real, a.imag
            dx, dy = b.real - ax, b.imag - ay
            L2 = dx * dx + dy * dy
            t = 0.0
            if L2 > 0:
                t = min(max(((x - ax) * dx + (y - ay) * dy) / L2, 0.0), 1.0)
            d = abs(complex(x - (ax + t * dx), y - (ay + t * dy)))
            if d < best:
                best, k, tk = d, i, t
                bound = min(bound, d)
            i += 1
        s_out.append(arcs[k] + tk * (arcs[k + 1] - arcs[k]))
        d_out.append(best)
    return s_out, d_out


def interval_gap(ctx: PotentialContext, zs) -> List[float]:
    """Distance from each point of zs (one point or an iterable) to the
    real segment [beta1, beta2]."""
    b1, b2 = float(ctx.beta1), float(ctx.beta2)
    return [abs(complex(z.real - min(max(z.real, b1), b2), z.imag))
            for z in _as_points(zs)]


def limit_set_distance(
    ctx: PotentialContext, gamma: ContourPolyline, z: complex
) -> float:
    """Distance from z to Gamma_r union [beta1, beta2]."""
    z = complex(z)
    return min(interval_gap(ctx, z)[0], project_to_loop(gamma, z)[1][0])


def point_in_loop(ctx: PotentialContext, r: float, z: complex) -> bool:
    """Whether z lies inside Gamma_r, from phi, which defines the loop.

    Every Gamma_r lies in the disk |z| <= beta1, and inside that disk
    Re phi > r/2 holds exactly inside the loop (Re phi grows like
    -(A/2) log|z| at the origin): so True at z = 0, False where
    |z| >= beta1, and otherwise whether Re phi(z) > r/2, from the
    tracer's float64 phase.  OnBoundary where |Re phi - r/2| is within
    DEFAULT_LEVEL_TOL, the tolerance the traced vertices hold.
    """
    z = complex(z)
    A, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    if z == 0:
        return True
    if abs(z) >= b1:
        return False
    f = _phase(A, b1, b2, z)[0].real - r / 2
    if abs(f) <= DEFAULT_LEVEL_TOL:
        raise OnBoundary(f"{z} lies on Gamma_{r}")
    return f > 0


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
