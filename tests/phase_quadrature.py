"""Quadrature reference for the phase phi, phi~, the interval CDF, the
loop mass and CDF, and the potentials ell, g and U; the inside of a
traced polyline by the even-odd rule; the loop CDF interpolated along a
traced polyline, the oracle for the foot points' distances and CDF; the
two densities of mu_r; and the one-sided values of the closed-form phi
on the real axis.

Test-only: these are path integrals of the definitions, evaluated with
landscape.quad_seg or summed over a traced polyline, against which the
closed forms in landscape and measure are checked.  phi is computed in
pole-subtracted form,

    phi(z) = (1/2) I(z) - (A/2) (Log z - log beta1),
    I(z)   = Integral (R(s) + A)/s ds along the path,

which is regular at s = 0 because R(0) = -A.  Off the axis the path is
beta1 -> beta1 + i*delta -> z with delta = min(0.1, Im z/2), mirrored by
conjugation in the lower half-plane; real queries use real-axis
reductions of the same integral with square-root substitutions.

On the real axis phi jumps across (-inf, 0) and [beta1, inf), and side
picks the one-sided limit: ABOVE or BELOW.  mpmath has no signed zero,
so landscape.phi_closed_form at a real x gives the limit from above only
on (beta1, beta2); closed_phi takes it |x| 2^-300 above the axis instead.
"""

import cmath
import math
from bisect import bisect_right

import numpy as np
from mpmath import mp

from lagzero import landscape
from lagzero.errors import DomainError
from lagzero.landscape import quad_seg

GUARD_BITS = 24

# the one-sided limit on the real axis: the sign of the imaginary part
# it is approached from
ABOVE, BELOW = 1, -1

# the oracles' own precision: the bits interval_integral meets QUAD_TOL at,
# plus guard bits for the cancellation in pole-subtracted phi
ORACLE_BITS = landscape.QUAD_BITS + GUARD_BITS


def _leg_from_branch_point(ctx, base, other, delta, tol):
    # vertical leg base -> base + i*delta; s = base + i*delta*tau^2 absorbs
    # the square-root zero of R at the branch point
    A = ctx.A
    c = mp.sqrt(mp.mpc(0, delta))

    def f(tau):
        s = base + mp.mpc(0, delta) * tau * tau
        r = c * tau * mp.sqrt(s - other)
        return (r + A) / s * (2 * mp.mpc(0, delta) * tau)

    return quad_seg(f, 0, 1, tol)


def _leg_segment(ctx, a_pt, z, tol):
    # straight segment strictly inside the open upper half plane
    A = ctx.A
    b1, b2 = ctx.beta1, ctx.beta2
    d = z - a_pt

    def f(t):
        s = a_pt + t * d
        r = mp.sqrt(s - b1) * mp.sqrt(s - b2)
        return (r + A) / s * d

    return quad_seg(f, 0, 1, tol)


def _upper(ctx, base, other, z):
    # (1/2) Integral_{base}^{z} R(s)/s ds for Im z > 0
    delta = min(mp.mpf("0.1"), mp.im(z) / 2)
    tol = landscape.QUAD_TOL / 4
    i1 = _leg_from_branch_point(ctx, base, other, delta, tol)
    i2 = _leg_segment(ctx, base + mp.mpc(0, delta), z, tol)
    return (i1 + i2) / 2 - ctx.A / 2 * (mp.log(z) - mp.log(base))


def _left_integral(ctx, x):
    # Integral_{beta1}^{x} (R(s) + A)/s ds for real x < beta1; s = beta1 - u^2
    A = ctx.A
    b1, b2 = ctx.beta1, ctx.beta2

    def f(u):
        s = b1 - u * u
        return (A - u * mp.sqrt(b2 - s)) / s * (-2 * u)

    return quad_seg(f, 0, mp.sqrt(b1 - x), landscape.QUAD_TOL / 2)


def _cut_integral(ctx, x):
    # Integral_{beta1}^{x} sqrt((s-beta1)(beta2-s))/s ds, beta1 < x < beta2
    b1, b2 = ctx.beta1, ctx.beta2

    def f(u):
        s = b1 + u * u
        return 2 * u * u * mp.sqrt(b2 - s) / s

    return quad_seg(f, 0, mp.sqrt(x - b1), landscape.QUAD_TOL / 2)


def _right_integral(ctx, x):
    # Integral_{beta2}^{x} sqrt((s-beta1)(s-beta2))/s ds, x > beta2
    b1, b2 = ctx.beta1, ctx.beta2

    def f(u):
        s = b2 + u * u
        return 2 * u * u * mp.sqrt(s - b1) / s

    return quad_seg(f, 0, mp.sqrt(x - b2), landscape.QUAD_TOL / 2)


def closed_phi(ctx, z, side=ABOVE):
    """landscape.phi_closed_form in mpmath at LANDSCAPE_BITS.  Off the
    real axis its value at z; on it the limit from side, read at
    x + i |x| 2^-300 from above and as the conjugate of that from below,
    an offset on x's own scale, so that it stays negligible next to the
    2e-108 crossings of Gamma_12 at A = 0.05."""
    with mp.workprec(landscape.LANDSCAPE_BITS):
        w = mp.mpc(z)
        on_axis = mp.im(w) == 0
        if on_axis:
            w = mp.mpc(mp.re(w), mp.ldexp(abs(mp.re(w)), -300))
        v = landscape.phi_closed_form(ctx.A, ctx.beta1, ctx.beta2, w, mp.sqrt, mp.log)
        return mp.conj(v) if on_axis and side == BELOW else v


def branch_root(ctx, z):
    """R(z) = sqrt(z - beta1) sqrt(z - beta2), principal roots, as
    phi_closed_form forms it, at LANDSCAPE_BITS."""
    with mp.workprec(landscape.LANDSCAPE_BITS):
        w = mp.mpc(z)
        return mp.sqrt(w - ctx.beta1) * mp.sqrt(w - ctx.beta2)


def phi(ctx, z, side=None):
    """phi(z) by quadrature; on the cuts of the real axis side (ABOVE or
    BELOW) picks the one-sided limit, and None raises DomainError."""
    with mp.workprec(ORACLE_BITS):
        w = mp.mpc(z)
        if w == 0:
            raise DomainError("phi has a logarithmic singularity at 0")
        y = mp.im(w)
        if y > 0:
            return _upper(ctx, ctx.beta1, ctx.beta2, w)
        if y < 0:
            return mp.conj(_upper(ctx, ctx.beta1, ctx.beta2, mp.conj(w)))
        x = mp.re(w)
        b1, b2, A = ctx.beta1, ctx.beta2, ctx.A
        if x == b1:
            return mp.mpc(0)
        if 0 < x < b1:
            j = _left_integral(ctx, x)
            return mp.mpc(j / 2 - A / 2 * (mp.log(x) - mp.log(b1)))
        if side is None:
            raise DomainError("phi is two-valued on the real axis here; pass side")
        sgn = side
        if x < 0:
            j = _left_integral(ctx, x)
            log_term = mp.log(-x) + sgn * mp.mpc(0, mp.pi)
            return j / 2 - A / 2 * (log_term - mp.log(b1))
        if x < b2:
            return mp.mpc(0, sgn * _cut_integral(ctx, x) / 2)
        full = mp.pi * (1 - A)
        if x == b2:
            return mp.mpc(0, sgn * full)
        return mp.mpc(_right_integral(ctx, x) / 2, sgn * full)


def phi_tilde(ctx, z):
    """phi~(z) = (1/2) Integral_{beta2}^{z} R(s)/s ds by quadrature."""
    # compared with beta2 at the endpoints' precision: rounded to
    # ORACLE_BITS first, z = beta2 would land below it
    with mp.workprec(landscape.LANDSCAPE_BITS):
        w = mp.mpc(z)
        if mp.im(w) == 0 and mp.re(w) < ctx.beta2:
            raise DomainError("phi~ is not defined on (-inf, beta2)")
        if w == ctx.beta2:
            return mp.mpc(0)
    with mp.workprec(ORACLE_BITS):
        w = mp.mpc(z)
        y = mp.im(w)
        if y == 0:
            return mp.mpc(_right_integral(ctx, mp.re(w)) / 2)
        if y < 0:
            return mp.conj(_upper(ctx, ctx.beta2, ctx.beta1, mp.conj(w)))
        return _upper(ctx, ctx.beta2, ctx.beta1, w)


def mp_density(ctx, x):
    """The interval density sqrt((x-beta1)(beta2-x)) / (2 pi x) on
    [beta1, beta2], at LANDSCAPE_BITS: 0 at both endpoints."""
    with mp.workprec(landscape.LANDSCAPE_BITS):
        x = mp.mpf(x)
        return mp.sqrt((x - ctx.beta1) * (ctx.beta2 - x)) / (2 * mp.pi * x)


def nu_density_at(ctx, p):
    """Arclength density |R(p)/p| / (2 pi) of nu_r at p on Gamma_r (not
    checked), in float64: positive but at the r = 0 corner beta1, where R = 0."""
    b1, b2 = float(ctx.beta1), float(ctx.beta2)
    rp = cmath.sqrt(p - b1) * cmath.sqrt(p - b2)
    return abs(rp / p) / (2 * math.pi)


def cdf_interval(ctx, x):
    """Integral of the interval density from beta1 to x, beta1 <= x <= beta2."""
    with mp.workprec(ORACLE_BITS):
        b1, b2 = ctx.beta1, ctx.beta2
        x = mp.mpf(x)

        def f(u):
            s = b1 + u * u
            return 2 * u * u * mp.sqrt(b2 - s) / (2 * mp.pi * s)

        return quad_seg(f, 0, mp.sqrt(x - b1), landscape.QUAD_TOL)


def cdf_from_beta2(ctx, x):
    """Signed tail Integral_{beta2}^{x} of the interval density,
    nonpositive on [beta1, beta2]; substituted at beta2."""
    # beta2 - x at the endpoints' precision: at fewer bits x = beta2 leaves
    # a nonzero length, and at 53 bits a negative one under the sqrt
    with mp.workprec(landscape.LANDSCAPE_BITS):
        top = mp.sqrt(ctx.beta2 - mp.mpf(x))
    with mp.workprec(ORACLE_BITS):
        b1, b2 = ctx.beta1, ctx.beta2

        def f(u):
            s = b2 - u * u
            return 2 * u * u * mp.sqrt(s - b1) / (2 * mp.pi * s)

        return -quad_seg(f, 0, top, landscape.QUAD_TOL)


def ell_richardson(ctx):
    """ell from 2g = A log z + z + ell - 2 phi + 2 (1-A) pi i on the
    imaginary axis at |z| = 1e3, 1e4, 1e5.

    The raw bracket carries an O(1/z^2) tail (the 1/z terms cancel
    because the first moment of mu_0 is 1 - A), so successive Richardson
    elimination of that tail gives two independent estimates, which must
    agree to 10 * QUAD_TOL.  Odd powers of 1/z feed the imaginary part
    only and decay one order slower, hence its looser 1e-8 bound.
    """
    with mp.workprec(ORACLE_BITS):
        ys = [mp.mpf(10) ** 3, mp.mpf(10) ** 4, mp.mpf(10) ** 5]
        off = 2 * (1 - ctx.A) * mp.pi * mp.mpc(0, 1)
        raw = []
        for y in ys:
            z = mp.mpc(0, y)
            raw.append(2 * landscape.g_eval(ctx, z) - ctx.A * mp.log(z) - z
                       + 2 * closed_phi(ctx, z) - off)

        def rich(e0, e1, y0, y1):
            return (y1 * y1 * e1 - y0 * y0 * e0) / (y1 * y1 - y0 * y0)

        first = rich(raw[0], raw[1], ys[0], ys[1])
        second = rich(raw[1], raw[2], ys[1], ys[2])
        assert abs(mp.re(second) - mp.re(first)) <= 10 * mp.mpf(landscape.QUAD_TOL)
        assert abs(mp.im(second)) <= mp.mpf("1e-8")
        return mp.re(second)


def loop_log_trapezoid(ctx, gamma, z):
    """Integral log(z - s) dnu_0(s) over the traced Gamma_0 for z outside it.

    A*log(z) plus a trapezoid sum of log(1 - s/z) against the arclength
    density; the rebased factor never reaches the negative reals for z
    outside the loop, so every sample stays on the principal sheet.
    """
    with mp.workprec(ORACLE_BITS):
        z = mp.mpc(z)
        pts = gamma.points
        total = mp.mpc(0)
        for p, q in zip(pts, pts[1:]):
            fp = mp.log(1 - mp.mpc(p) / z) * nu_density_at(ctx, p)
            fq = mp.log(1 - mp.mpc(q) / z) * nu_density_at(ctx, q)
            total += (fp + fq) / 2 * abs(q - p)
        return ctx.A * mp.log(z) + total


def as_arrays(gamma):
    """(vertices, arclengths) of a traced polyline as numpy arrays."""
    return (
        np.array(gamma.points, dtype=np.complex128),
        np.array(gamma.arclengths, dtype=np.float64),
    )


def even_odd(gamma, zs):
    """Per point of zs: inside the closed polyline by the even-odd rule,
    the parity of the edges that the ray from z toward +x crosses.

    Loop and point are first scaled by a power of 2 to a loop of size
    near 1, exactly, so that on a loop of radius 1e-178 the product in
    the crossing does not underflow."""
    pts, _ = as_arrays(gamma)
    scale = 2.0 ** -math.frexp(float(np.abs(pts).max()))[1]
    pts = pts * scale
    p, q = pts[:-1], pts[1:]
    out = []
    for z in zs:
        z = complex(z) * scale
        straddle = (p.imag > z.imag) != (q.imag > z.imag)
        ps, qs = p[straddle], q[straddle]
        x_cross = ps.real + (z.imag - ps.imag) * (qs.real - ps.real) / (qs.imag - ps.imag)
        out.append(bool(np.count_nonzero(z.real < x_cross) % 2))
    return out


def _vertex_densities(ctx, gamma):
    pts, arcs = as_arrays(gamma)
    dens = np.array(
        [nu_density_at(ctx, complex(p)) for p in pts], dtype=np.float64
    )
    return dens, arcs


def _simpson_irregular(x, y):
    """Composite parabolic rule on an irregular grid.

    Pairs of adjacent panels are integrated with the quadratic through
    their three samples; a trailing odd panel falls back to trapezoid.
    Sampling error is O(h^4), which leaves the chord-versus-arc O(h^2)
    geometry error of the polyline as the accuracy limit.
    """
    n = len(x)
    total = 0.0
    i = 0
    while i + 2 < n:
        h0 = x[i + 1] - x[i]
        h1 = x[i + 2] - x[i + 1]
        s = h0 + h1
        if h0 <= 0 or h1 <= 0:
            total += (y[i] + y[i + 1]) / 2 * h0 + (y[i + 1] + y[i + 2]) / 2 * h1
            i += 2
            continue
        total += (s / 6) * (
            y[i] * (2 - h1 / h0)
            + y[i + 1] * s * s / (h0 * h1)
            + y[i + 2] * (2 - h0 / h1)
        )
        i += 2
    if i + 1 < n:
        total += (y[i] + y[i + 1]) / 2 * (x[i + 1] - x[i])
    return float(total)


def loop_mass(ctx, gamma):
    """Integral of the nu_r density over the polyline arclength (= A)."""
    dens, arcs = _vertex_densities(ctx, gamma)
    return _simpson_irregular(arcs, dens)


def loop_cdf_points(gamma):
    """(arclengths, cumulative nu_r mass) at each vertex, clockwise from x_r.

    The upper arc carries the tracer's closed-form mass Im phi/pi + A/2
    (gamma.upper_mass), exactly 0 at x_r and A/2 at the positive crossing;
    the lower half is A minus the mirror, with A twice the last upper mass.
    """
    half = list(gamma.upper_mass)
    A = 2 * half[-1]
    return list(gamma.arclengths), half + [A - m for m in reversed(half[:-1])]


def interp(x, xp, fp):
    """Piecewise-linear interpolation, as slope * (x - xp[j]) + fp[j] on the
    last segment with xp[j] <= x; xp increasing and x in [xp[0], xp[-1]]."""
    j = bisect_right(xp, x) - 1
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


def loop_cdf_trapezoid(ctx, gamma):
    """(arclengths, cumulative nu_r mass) at each vertex, clockwise from
    x_r, by the trapezoid rule on the arclength density."""
    dens, arcs = _vertex_densities(ctx, gamma)
    seg = np.diff(arcs) * (dens[:-1] + dens[1:]) / 2
    return arcs, np.concatenate([[0.0], np.cumsum(seg)])


def log_potential(ctx, gamma, z):
    """Integral log|z - s| dmu_r(s) for finite r: the parabolic rule over
    the polyline for the loop, quadrature against the density for the
    interval."""
    z = complex(z)
    pts, _ = as_arrays(gamma)
    dens, arcs = _vertex_densities(ctx, gamma)
    loop_part = _simpson_irregular(
        arcs, np.log(np.abs(z - pts)) * dens)
    with mp.workprec(ORACLE_BITS):
        w = mp.mpc(z)
        interval_part = landscape.interval_integral(
            ctx, lambda s: mp.log(abs(w - s)), landscape.QUAD_TOL)
    return loop_part + float(interval_part)
