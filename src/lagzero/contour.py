"""Tracing of the level curves Gamma_r = {z : Re phi(z) = r/2}.

The curves are closed, encircle the origin once clockwise, and avoid
(beta1, inf); together with [beta1, beta2] they form the predicted limit
set for the zeros.  Everything here runs on the closed-form phi in cmath,
within 1e-13 of the mpmath phase, far below the 1e-9 level tolerance.

Only the upper half of each curve is traced, and in w = log z: it is the
preimage of r/2 + i t, t in [-A pi/2, 0], under phi, and d phi/dw = R/2
stays bounded away from 0 near the origin, so a loop shrunk to 1e-40 by a
large r costs what Gamma_0 costs.  Chords are bounded by angle alone
(trace_gamma), so a loop next to A = 1, where beta2 - beta1 -> 0 but
Gamma_0 stays about 3 long, takes about as many vertices as one at
A = 1/2: 2,500-3,000 at the default step.  Both real-axis crossings come from
Newton in log|x| (the negative-axis crossing x_r and the positive crossing
in (0, beta1], which is beta1 itself when r = 0), so the lower half is
the conjugate mirror and closure is structural.  The polyline seeds the
foot points (foot_points), where phi gives each zero's distance to the
loop and its loop CDF; the inside of the loop is read off phi itself
(point_in_loop).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from bisect import bisect_left, bisect_right
from typing import List, NamedTuple, Optional, Tuple

from lagzero.debuglog import debug
from lagzero.errors import BracketError, ClosureError, DomainError, OnBoundary
from lagzero.landscape import PotentialContext, phi_from_root, phi_origin_constant

DEFAULT_LEVEL_TOL = 1e-9
_NEWTON_TOL = 1e-13
_NEWTON_ITERS = 60
_STEP_BUDGET = 100_000
_FOOT_ITERS = 10
# trace_gamma's default max_step, (beta2 - beta1) / SPAN_STEPS, makes each
# chord subtend at most 1/SPAN_STEPS radians
SPAN_STEPS = 400
# log of the smallest normal double: a loop below it underflows
_LOG_TINY = math.log(sys.float_info.min)


class ContourPolyline(NamedTuple):
    """Closed polyline approximation of Gamma_r.

    points[-1] == points[0]; arclengths are cumulative and share the
    indexing.  Every vertex satisfies |Re phi - r/2| <= DEFAULT_LEVEL_TOL.
    upper_mass holds the nu_r mass from x_r, Im phi/pi + A/2, at each vertex
    of upper_arc: 0 at x_r, A/2 at the positive crossing (empty for a
    polyline built by hand).
    """

    points: Tuple[complex, ...]
    r: float
    arclengths: Tuple[float, ...]
    upper_mass: Tuple[float, ...] = ()

    @property
    def upper_arc(self) -> Tuple[complex, ...]:
        """The traced half, x_r to the positive crossing; the rest mirror it."""
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
    [-A pi/2, 0].  Continuation in t: the predictor is w + i dt 2/R (|R| -> A
    at the origin), the corrector is Newton on phi(e^w) = r/2 + i t.  Each
    step is a chord bounded by angle alone: h = min(theta |z|, theta/kappa),
    with kappa the curvature of the level line and theta = max_step/(beta2 -
    beta1) radians, capped at 1/4; dt = h |phi'(z)|.  A chord of length h
    on a curve of curvature kappa strays kappa h^2/8 from it, so each chord
    stays within theta^2 |z|/8 of Gamma_r, on the loop's own scale, and
    the vertex count does not grow as the span shrinks toward A = 1.

    For r = 0 the curve ends in a corner at beta1, a branch point where R
    vanishes; within 10 max_step of it the chord is min(theta |z|, gap/3),
    graded to a third of the gap down to 3e-6 min(beta2 - beta1, beta1),
    and beta1 is inserted exactly.

    Raises DomainError when beta2 = beta1 (A = 1) or max_step <= 0,
    BracketError when x_r underflows or when 0 < A < 1 but beta2 - beta1
    rounds to 0 in float64, and ClosureError when Newton fails or the step
    budget is exhausted.
    """
    A, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    span = b2 - b1
    if ctx.beta2 <= ctx.beta1:
        raise DomainError(f"beta2 - beta1 = {span} at A = {ctx.A}; Gamma_r needs A < 1")
    if span <= 0:
        raise BracketError(
            f"beta2 - beta1 rounds to 0 in float64 at 1 - A = {float(1 - ctx.A):.3g}")
    if max_step is None:
        max_step = span / SPAN_STEPS
    if not max_step > 0:
        raise DomainError(f"max_step must be positive, got {max_step}")
    x_r = axis_crossing(ctx, r)
    level = r / 2
    # chords of at most a quarter radian keep a coarse trace a loop, with
    # its last vertex right of the origin
    theta = min(0.25, max_step / span)
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
            h = min(theta * abs(z), gap / 3)
        else:
            kappa = abs(((c * z - A * A) / R ** 3).real) * abs(R) / abs(z)
            h = min(theta * abs(z), theta / kappa if kappa else math.inf)
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
        upper_mass=tuple(mass),
    )


def trace_coarse(ctx: PotentialContext, r: float) -> ContourPolyline:
    """Gamma_r at 8 times the default max_step, the one trace of zeros and
    verify (seeds and foot points) and of g_eval's Gamma_0 guard; at 16
    times, (80, -64.7741) took a 9th sweep."""
    return trace_gamma(ctx, r, 8 * (float(ctx.beta2) - float(ctx.beta1)) / SPAN_STEPS)


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

    Exact, and equal bit for bit to a loop over every segment (abs() of a
    builtin complex rounds like hypot).  Every polyline point within
    arclength L past a vertex v lies within L of v, so the walk skips the
    segments that end less than |z - v| - best - margin past v, best being
    the nearest distance so far (at first that of the nearest of about
    sqrt(len) evenly spaced vertices).  The margin, 1e-13 |z| + 1e-9
    (|pts[0]| + 2 length), covers the float64 rounding of distances and
    arclengths.
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


def foot_points(ctx: PotentialContext, gamma: ContourPolyline,
                zs) -> Tuple[List[complex], List[complex]]:
    """Per point z of zs (one point or an iterable): its foot p, the
    nearest point of Gamma_r, and phi(p), as two lists.

    Newton in float64 on Re phi(p) = r/2 and Im[(z - p) phi'(p)] = 0, with
    phi' = R/(2p), phi'' = (p R' - R)/(2p^2) and R' = (p - (beta1 + beta2)/2)/R,
    from the projection of z onto the polyline (the global nearest point),
    until the step is at most 1e-12 |p|.  A real z starts on the axis and
    stays there (Im p = +0.0, x_r on the upper side of the cut).  ClosureError
    past _FOOT_ITERS steps; DomainError at r = 0 (phi' = 0 at beta1).
    """
    if not gamma.r > 0:
        raise DomainError(f"foot points need r > 0, got {gamma.r}")
    A, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    pts, arcs, zs = gamma.points, gamma.arclengths, _as_points(zs)
    feet, phis = [], []
    for z, s in zip(zs, project_to_loop(gamma, zs)[0]):
        k = min(bisect_right(arcs, s), len(arcs) - 1) - 1
        p = pts[k] + (s - arcs[k]) / (arcs[k + 1] - arcs[k]) * (pts[k + 1] - pts[k])
        p = complex(p.real, 0.0) if z.imag == 0 else p
        for _ in range(_FOOT_ITERS):
            f, R = _phase(A, b1, b2, p)
            d1 = R / (2 * p)
            dg = (z - p) * ((p - (b1 + b2) / 2) / R - R / p) / (2 * p) - d1
            # solve Re(d1 dp) = r/2 - Re f and Im(dg dp) = -Im((z - p) d1)
            u, v = gamma.r / 2 - f.real, -((z - p) * d1).imag
            det = d1.real * dg.real + d1.imag * dg.imag
            dp = complex(u * dg.real + v * d1.imag, v * d1.real - u * dg.imag) / det
            if abs(dp) <= 1e-12 * abs(p):
                break
            p += dp
        else:
            raise ClosureError(f"the foot of {z:.6g} on Gamma_{gamma.r} did not converge")
        feet.append(p)
        phis.append(f)
    return feet, phis


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

    Every Gamma_r lies in |z| <= beta1, and in that disk Re phi > r/2
    (-(A/2) log|z| at the origin) holds exactly inside the loop: True at
    z = 0, False where |z| >= beta1, else Re phi(z) > r/2 in float64.
    OnBoundary where |Re phi - r/2| <= DEFAULT_LEVEL_TOL, as on the vertices.
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
    """CSV dump: header re,im,arclength, one vertex per row, the first
    repeated last, and a footer comment row with the winding number."""
    lines = ["re,im,arclength"]
    for p, s in zip(gamma.points, gamma.arclengths):
        lines.append(f"{p.real!r},{p.imag!r},{s!r}")
    lines.append(f"# winding,{winding_number(gamma)},")
    return "\n".join(lines) + "\n"
