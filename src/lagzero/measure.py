"""Limit measures mu_r = nu_r + MP.

nu_r lives on the loop Gamma_r with arclength density |R(p)/p|/(2*pi)
and total mass A; the interval part is the Marchenko-Pastur-type density
sqrt((x-beta1)(beta2-x))/(2*pi*x) on [beta1, beta2] with mass 1-A.  The
r = infinity case replaces the loop by an atom of mass A at the origin.
No type holds mu_r: the interval part is the PotentialContext, nu_r the
traced Gamma_r (contour.trace_gamma), and None the atom.

Both CDFs are closed forms in the landscape module's phi.  On the
interval F(x) = Im phi_+(x)/pi.  interval_phase evaluates Im phi_+ in
cmath, for the interval quantiles (the root finder's seeds) and the
harness's interval KS statistic; cdf_interval evaluates F in mpmath at
LANDSCAPE_BITS, for the oscillatory asymptotics only.  Along Gamma_r,
where Re phi = r/2, dnu_r = d(Im phi)/pi: the mass clockwise from x_r is
Im phi/pi + A/2 on both halves, kept at every upper vertex by the tracer
(gamma.upper_mass) for the loop quantiles, and read off phi at each
zero's foot (contour.foot_points) for the harness's loop KS.  The log
potential follows from phi and the constant ell, so nothing here
integrates against a density.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from typing import List, Union

from mpmath import mp
from mpmath.libmp import mpf_log_hypot, round_nearest

from lagzero import contour
from lagzero.errors import DomainError
from lagzero.landscape import (
    LANDSCAPE_BITS,
    PotentialContext,
    ell_constant,
    phi_closed_form,
    phi_origin_constant,
)

# ---------------------------------------------------------------------------
# CDFs


def _clamp_to_interval(ctx: PotentialContext, x: mp.mpf) -> mp.mpf:
    # tolerate float64 rounding of the mpf endpoints
    b1, b2 = ctx.beta1, ctx.beta2
    eps = (b2 - b1) * mp.mpf("1e-12") + mp.mpf("1e-300")
    if b1 - eps <= x < b1:
        return b1
    if b2 < x <= b2 + eps:
        return b2
    if x < b1 or x > b2:
        raise DomainError(f"{x} outside [beta1, beta2]")
    return x


def interval_phase(A: float, b1: float, b2: float, x: float) -> float:
    """Im phi_+(x) = pi F(x) in float64, with A, b1 and b2 the context's
    as floats: exactly 0 at x <= b1 and pi (1 - A) at x >= b2.  Between
    them, divided by pi, it lies within about 1e-15 of cdf_interval."""
    if x <= b1:
        return 0.0
    if x >= b2:
        return math.pi * (1 - A)
    # the +0 imaginary part selects the limit from above
    return phi_closed_form(A, b1, b2, complex(x, 0.0), cmath.sqrt, cmath.log).imag


def _log_abs(u: mp.mpc) -> mp.mpf:
    # Re Log u, bit for bit mpmath's, with no atan2: phi_closed_form given
    # this log keeps the real part of phi and drops the imaginary one
    return mp.make_mpf(mpf_log_hypot(*u._mpc_, mp.prec, round_nearest))


def _i_arg(u: mp.mpc) -> mp.mpc:
    # i Im Log u, bit for bit mpmath's, with no log of |u|: phi_closed_form
    # given this log keeps the imaginary part of phi
    return mp.mpc(0, mp.arg(u))


def cdf_interval(ctx: PotentialContext, x: Union[float, mp.mpf]) -> mp.mpf:
    """Integral of the interval density from beta1 to x, in closed form as
    Im phi_+(x)/pi; equals 1-A at x = beta2."""
    with mp.workprec(LANDSCAPE_BITS):
        x = _clamp_to_interval(ctx, mp.mpf(x))
        if x == ctx.beta2:
            return 1 - ctx.A
        # mpmath has no signed zero: its principal sqrt and log of a negative
        # real take the limit from above, phi_+ on the cut
        phi = phi_closed_form(ctx.A, ctx.beta1, ctx.beta2, mp.mpc(x), mp.sqrt, _i_arg)
        return mp.im(phi) / mp.pi


# ---------------------------------------------------------------------------
# log potential


def log_potential(ctx: PotentialContext, r: float, z: complex) -> float:
    """U(z) = Integral log|z - s| dmu_r(s), z off the support, in closed form.

    With B(z) = (Re z + A log|z| + ell)/2, the real part of g's identity
    gives U = B - Re phi wherever the loop part is A log|z|: outside
    Gamma_r, and everywhere for the r = inf atom.  Inside Gamma_r,
    U = B + Re phi - r, which is harmonic (Re phi ~ -(A/2) log|z| at 0)
    and meets the outside value on Gamma_r, where Re phi = r/2.  Inside
    is |z| < beta1 (the disk that holds every Gamma_r) and 2 Re phi > r
    (never for the atom); at z = 0 the inside value is its limit.  No loop
    is traced: DomainError for r not >= 0, on [beta1, beta2], at the atom,
    and on Gamma_r (|z| < beta1, |Re phi - r/2| <= contour.DEFAULT_LEVEL_TOL).
    The precision grows with log2|z|, which B - Re phi loses at large |z|.
    """
    if not r >= 0:
        raise DomainError(f"r must be nonnegative, got {r}")
    A, b1, b2 = ctx.A, ctx.beta1, ctx.beta2
    w = mp.mpc(z)
    with mp.workprec(LANDSCAPE_BITS + max(0, mp.mag(w))):
        if mp.im(w) == 0 and b1 <= mp.re(w) <= b2:
            raise DomainError("z on the interval support")
        if math.isinf(r) and abs(w) < 1e-12:
            raise DomainError("z at the atom")
        ell = ell_constant(ctx)
        if w == 0:
            return float(ell / 2 + phi_origin_constant(A, b1, b2, mp.log) - r)
        b = (mp.re(w) + A * _log_abs(w) + ell) / 2
        re_phi = mp.re(phi_closed_form(A, b1, b2, w, mp.sqrt, _log_abs))
        if abs(w) < b1 and abs(re_phi - r / 2) <= contour.DEFAULT_LEVEL_TOL:
            raise DomainError(f"z on Gamma_{r}")
        inside = abs(w) < b1 and 2 * re_phi > r
        return float(b + re_phi - r if inside else b - re_phi)


# ---------------------------------------------------------------------------
# quantiles (seed generation and classification support)


def loop_quantiles(gamma: contour.ContourPolyline, k: int) -> List[complex]:
    """k points on the polyline at nu-mass (j+1/2)A/k for even k and
    jA/k for odd k, symmetric under conjugation: the upper-arc points, then
    x_r (exactly real) when k is odd, then their exact conjugates."""
    if k <= 0:
        return []
    pts, cum = gamma.upper_arc, gamma.upper_mass
    A = 2 * cum[-1]
    top = []
    for j in range(k // 2):
        target = (j + (1.0 if k % 2 else 0.5)) * A / k
        i = min(max(bisect_right(cum, target) - 1, 0), len(pts) - 2)
        t = (target - cum[i]) / (cum[i + 1] - cum[i])
        top.append(pts[i] + t * (pts[i + 1] - pts[i]))
    return top + [pts[0]] * (k % 2) + [p.conjugate() for p in top]


def interval_quantiles(ctx: PotentialContext, k: int) -> List[float]:
    """k real points at Marchenko-Pastur quantiles (j+1/2)/k.

    Bisection on pi F(x) = interval_phase(x) per target, until a halving
    leaves the bracket as it was, as every later one would.
    """
    if k <= 0:
        return []
    A, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    out = []
    for j in range(k):
        target = (j + 0.5) / k * (1 - A) * math.pi
        lo, hi = b1, b2
        # 64 halvings shrink beta2 - beta1 < 4 below 2^-62
        for _ in range(64):
            mid = (lo + hi) / 2
            if interval_phase(A, b1, b2, mid) < target:
                if lo == mid:
                    break
                lo = mid
            else:
                if hi == mid:
                    break
                hi = mid
        out.append((lo + hi) / 2)
    return out
