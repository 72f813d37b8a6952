"""The A-dependent potential landscape.

Everything downstream (contours, measures, asymptotics) is driven by the
branch function R, the phase

    phi(z) = (1/2) Integral_{beta1}^{z} R(s)/s ds,

and the g-function of the limit measure.  This module owns those objects
together with the endpoints beta1, beta2, the constant c_n and the
g-function normalization constant ell.

These objects depend on A alone and leave the program as float64, so
they run at one precision, LANDSCAPE_BITS, whatever n and alpha_n are.

phi has an elementary antiderivative (phi_closed_form), written once
(phi_from_root) and evaluated in mpmath at LANDSCAPE_BITS here and in
float64 by the contour tracer, which takes its R from the same square
roots, and the interval quantiles; ell is closed form too.
The one adaptive quadrature, Gauss-Legendre with recursive bisection
(quad_seg), is left for integrals against the interval density
(interval_integral, used by g), whose cosine substitution absorbs the
square-root endpoint zeros.  It runs at the precision its result needs:
QUAD_BITS = 96, or more for a finer tolerance.
mpmath raises the Gauss-Legendre degree until its error estimate meets
mpmath's own working precision, whatever tol asks: at 96 bits a panel
stops at the 48-node rule, at LANDSCAPE_BITS only the 96-node rule would
do.  The rule's nodes are mpmath's, found by Newton on Python integers
once per process (_FixedGaussLegendre), and interval_integral keeps the
density at each node per context and precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Union

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from lagzero.debuglog import debug
from lagzero.errors import DomainError, QuadratureError

Scalar = Union[int, float, str, Fraction]

# working precision of every landscape value outside interval_integral:
# endpoints, phi, c_n, g and ell
LANDSCAPE_BITS = 256

# bits interval_integral adds to the ones a tolerance finer than QUAD_BITS
# asks for; its quadrature sums lose a few trailing bits to cancellation
_GUARD_BITS = 24

# absolute tolerance of every quad_seg integral against the interval density;
# interval_integral meets it at QUAD_BITS, and raises the bits for a finer one
QUAD_TOL = 1e-12

# working precision of interval_integral: a double's 53 bits, up to 11 bits
# lost to the n*g amplification in e^{-n g} (n <= 2048), and 32 bits of
# margin.  65 bits moves the last printed digit of asymp's outer regime
QUAD_BITS = 96


class PotentialContext(NamedTuple):
    """Immutable bundle of the landscape parameters for one value of A.

    beta1 and beta2 are the endpoints 2 - A -+ 2*sqrt(1-A); they satisfy
    beta1*beta2 = A^2 and beta1 + beta2 = 2*(2-A).
    """

    A: mp.mpf
    beta1: mp.mpf
    beta2: mp.mpf


def _to_mpf(value: Scalar) -> mp.mpf:
    # a Fraction is rounded once, as mpf rounds a decimal string
    if isinstance(value, Fraction):
        return mp.make_mpf(from_rational(value.numerator, value.denominator,
                                         LANDSCAPE_BITS, round_nearest))
    return mp.mpf(value)


def make_context(A: Scalar) -> PotentialContext:
    """Build the landscape context for A in (0, 1], at LANDSCAPE_BITS.

    A = 1 is allowed only as a degenerate case (beta1 = beta2 = 1); the
    theorems of interest live on (0, 1).  Values outside (0, 1] raise
    DomainError.
    """
    with mp.workprec(LANDSCAPE_BITS):
        a = _to_mpf(A)
        if not (0 < a <= 1):
            raise DomainError(f"A must lie in (0, 1], got {a}")
        beta2 = 2 - a + 2 * mp.sqrt(1 - a)
        # beta1 beta2 = A^2; 2 - A - 2 sqrt(1 - A) cancels at small A
        beta1 = a * a / beta2
    return PotentialContext(A=a, beta1=beta1, beta2=beta2)


# ---------------------------------------------------------------------------
# quadrature core


class _FixedGaussLegendre(GaussLegendre):
    """mpmath's Gauss-Legendre rule with its nodes found in fixed point.
    mp.quad makes a new rule object per call given a class, so the node
    tables are the class's: one per process, keyed like mpmath's."""

    _tables: tuple = ({}, {}, {})

    def __init__(self, ctx):
        self.ctx = ctx
        self.standard_cache, self.transformed_cache, self.interval_count = self._tables

    def calc_nodes(self, degree, prec, verbose=False):
        """mpmath's 3*2^(degree-1)-point rule: Newton on the three-term
        recurrence from mpmath's guess, in float64 and then on integers
        scaled by 2^(int(1.5 prec) + 16), until |step| < 2^-(prec+8); each
        root, its mirror and its weight (from P' at the root, not before
        the last step as mpmath's) rounded at int(1.5 prec) bits."""
        if degree == 1:
            return GaussLegendre.calc_nodes(self, degree, prec)
        bits = int(1.5 * prec)
        word = bits + 16
        one = 1 << word
        n = 3 * 2 ** (degree - 1)
        nodes = []
        for j in range(1, n // 2 + 1):
            r = math.cos(math.pi * (j - 0.25) / (n + 0.5))
            step = 1.0
            while abs(step) > 1e-12:
                p, q = 1.0, 0.0
                for k in range(1, n + 1):
                    p, q = ((2 * k - 1) * r * p - (k - 1) * q) / k, p
                step = p * (r * r - 1) / (n * (r * p - q))
                r -= step
            x, done = int(math.ldexp(r, word)), False
            while True:
                p, q = one, 0
                for k in range(1, n + 1):
                    p, q = ((2 * k - 1) * (x * p >> word) - (k - 1) * q) // k, p
                # d = (x^2 - 1) P'(x) and u = 1 - x^2, scaled by 2^word
                d = n * ((x * p >> word) - q)
                u = one - (x * x >> word)
                if done:
                    break
                step = p * u // d
                x += step
                done = abs(step) < 1 << (word - prec - 8)
            # w = 2 / ((1 - x^2) P'(x)^2) = 2 u / d^2
            w = mp.make_mpf(from_man_exp((u << (2 * word + 1)) // (d * d),
                                         -word, bits, round_nearest))
            nodes += [(mp.make_mpf(from_man_exp(v, -word, bits, round_nearest)), w)
                      for v in (x, -x)]
        return nodes


def quad_seg(
    f: Callable[[mp.mpf], Union[mp.mpf, mp.mpc]],
    a: Scalar,
    b: Scalar,
    tol: mp.mpf,
    max_depth: int = 120,
    panels: Optional[List[int]] = None,
) -> Union[mp.mpf, mp.mpc]:
    """Integrate f over [a, b] to absolute tolerance tol.

    Gauss-Legendre panels with recursive bisection; the per-panel error
    estimate comes from mpmath's internal degree refinement, on the
    nodes of _FixedGaussLegendre.  A single
    long panel can fool the estimator near a barely-resolved feature, so
    callers must substitute away any endpoint singularity first.  The
    depth cap is generous: a residual square-root kink at distance d from
    a panel endpoint needs roughly 2*log2(1/(tol*d)) levels.  A list
    passed as panels gets the bisection depth of each panel appended.
    """
    a = mp.mpf(a)
    b = mp.mpf(b)

    def rec(lo: mp.mpf, hi: mp.mpf, budget: mp.mpf, depth: int):
        val, err = mp.quad(
            f, [lo, hi], method=_FixedGaussLegendre, maxdegree=6, error=True
        )
        if panels is not None:
            panels.append(depth)
        if err <= budget or depth >= max_depth:
            if err > budget:
                raise QuadratureError(achieved_tol=float(err))
            return val
        mid = (lo + hi) / 2
        return rec(lo, mid, budget / 2, depth + 1) + rec(
            mid, hi, budget / 2, depth + 1
        )

    return rec(a, b, mp.mpf(tol), 0)


# ---------------------------------------------------------------------------
# phase function phi


def phi_closed_form(A, beta1, beta2, z, sqrt, log):
    """phi(z) = (1/2) Integral_{beta1}^{z} R(s)/s ds in closed form,

        phi = (R - c Log((c - z - R)/rho) + A Log((A^2 - c z - A R)/(rho z)))/2

    with c = 2 - A = (beta1 + beta2)/2, rho = (beta2 - beta1)/2, principal
    Log and R = sqrt(z - beta1) * sqrt(z - beta2).  sqrt and log are the
    caller's elementary functions (mpmath at the caller's precision, or
    cmath in float64), so one formula serves every precision.

    Both Log arguments have modulus > 1 off [beta1, beta2] and reach the
    negative reals only on the real axis, so the value is exact off the
    real axis in both half-planes and, with a +0 imaginary part, equals
    the limit from above on the open cut (beta1, beta2).  Elsewhere on
    the real axis only the real part is meaningful.
    """
    return phi_from_root(A, beta1, beta2, z, sqrt(z - beta1) * sqrt(z - beta2), log)


def phi_from_root(A, beta1, beta2, z, R, log):
    """phi_closed_form given its R, which the contour tracer needs too."""
    c = 2 - A
    rho = (beta2 - beta1) / 2
    return (R - c * log((c - z - R) / rho)
            + A * log((A * A - c * z - A * R) / (rho * z))) / 2


def phi_origin_constant(A, beta1, beta2, log):
    """K = lim_{z->0} (Re phi(z) + (A/2) log|z|), with c and rho as in
    phi_closed_form and log the caller's (mpmath or math)."""
    c = 2 - A
    rho = (beta2 - beta1) / 2
    return (-A - c * log(2 / rho) + A * log(2 * A * A / rho)) / 2


# ---------------------------------------------------------------------------
# the constant c_n


def c_constant(n: int, A_n: Union[Fraction, int, str, mp.mpf]) -> mp.mpc:
    """c_n = 2i sin(n A_n pi).

    The argument reduction of n*A_n happens exactly (Fraction) or at
    LANDSCAPE_BITS (mpf); Python floats are rejected because a binary
    rounding of A_n destroys near-integer distances.
    """
    if isinstance(A_n, float):
        raise TypeError("A_n must be Fraction, str, int or mpf, not float")
    with mp.workprec(LANDSCAPE_BITS):
        if isinstance(A_n, (Fraction, int)):
            t = Fraction(n) * Fraction(A_n)
            k = t.numerator // t.denominator
            s = _to_mpf(t - k)
        else:
            if isinstance(A_n, str):
                A_n = mp.mpf(A_n)
            t = mp.mpf(n) * A_n
            k = int(mp.floor(t))
            s = t - k
        if s == 0:
            return mp.mpc(0)
        val = mp.sinpi(s)
        if k % 2:
            val = -val
        return mp.mpc(0, 2 * val)


# ---------------------------------------------------------------------------
# g-function


def interval_integral(
    ctx: PotentialContext,
    f: Callable[[mp.mpf], Union[mp.mpf, mp.mpc]],
    tol: mp.mpf,
) -> Union[mp.mpf, mp.mpc]:
    """Integral over [beta1, beta2] of f(s) against the Marchenko-Pastur
    density sqrt((s-beta1)(beta2-s))/(2 pi s), to absolute tolerance tol.

    Runs at max(QUAD_BITS, ceil(log2(1/tol)) + _GUARD_BITS) bits, not at
    LANDSCAPE_BITS, so f sees arguments rounded to those bits.
    The substitution s = mid - half*cos(t) absorbs both square-root
    endpoint zeros of the density.  s and the density at each node are
    computed once per (ctx, bits) and kept for the next integral.
    """
    bits = max(QUAD_BITS, math.ceil(-math.log2(tol)) + _GUARD_BITS)
    panels = []
    density = _interval_density(ctx, bits)
    with mp.workprec(bits):
        b1, b2 = ctx.beta1, ctx.beta2
        mid = (b1 + b2) / 2
        half = (b2 - b1) / 2

        def g(t):
            node = density.get(t)
            if node is None:
                s = mid - half * mp.cos(t)
                w = half * mp.sin(t)
                node = density[t] = s, w * w / (2 * mp.pi * s)
            return f(node[0]) * node[1]

        value = quad_seg(g, 0, mp.pi, tol, panels=panels)
    debug(__name__, "interval integral at %d bits, tol %.3g: %d panels",
          bits, tol, len(panels))
    return value


@lru_cache(maxsize=32)
def _interval_density(ctx: PotentialContext, bits: int) -> dict:
    """node t -> (s, density at s) of interval_integral, for (ctx, bits)."""
    return {}


@lru_cache(maxsize=32)
def _gamma0_for(ctx: PotentialContext):
    from lagzero import contour

    return contour.trace_coarse(ctx, 0.0)


def g_eval(
    ctx: PotentialContext, z: Union[complex, mp.mpc, Scalar]
) -> mp.mpc:
    """g(z) = Integral log(z - s) dmu_0(s), principal branch per sample.

    mu_0 is the r = 0 limit measure: the loop measure nu_0 on Gamma_0
    plus the Marchenko-Pastur density on [beta1, beta2].  On Gamma_0,
    dnu_0 = R(s) ds / (2 pi i s), and for z outside the loop
    log(1 - s/z) is analytic inside it (s/z reaches [1, inf) only on
    the ray beyond z) and vanishes at the pole s = 0; so by Cauchy's
    theorem Integral log(1 - s/z) dnu_0(s) = 0 and the loop part is
    exactly A*Log z.  The interval part is quadrature against the
    density.  Conjugate symmetry holds off the real axis; the
    realization carries the standard log cut on (-inf, 0].

    g(z) - log z -> 0 at infinity.  DomainError on the support of mu_0
    (loop and interval) with a guard band of 2 (beta2 - beta1) /
    contour.SPAN_STEPS, measured by the one projection onto Gamma_0
    traced at the coarse step (contour.trace_coarse); and inside the
    loop, where Re phi > 0 (contour.point_in_loop) and no single-valued
    branch exists.
    """
    from lagzero import contour as _contour

    with mp.workprec(LANDSCAPE_BITS):
        w = mp.mpc(z)
        if mp.im(w) == 0 and ctx.beta1 <= mp.re(w) <= ctx.beta2:
            raise DomainError("g is singular on the support [beta1, beta2]")
        dist = _contour.limit_set_distance(ctx, _gamma0_for(ctx), complex(w))
        if dist < 2 * (float(ctx.beta2) - float(ctx.beta1)) / _contour.SPAN_STEPS:
            raise DomainError("query point too close to the cut system of g")
        if _contour.point_in_loop(ctx, 0.0, complex(w)):
            raise DomainError(
                "g has no single-valued branch inside the loop "
                "(the log cut must reach the origin)"
            )
        interval_part = interval_integral(
            ctx, lambda s: mp.log(w - s), QUAD_TOL / 2
        )
        return ctx.A * mp.log(w) + interval_part


# ---------------------------------------------------------------------------
# the constant ell


@lru_cache(maxsize=32)
def ell_constant(ctx: PotentialContext) -> mp.mpf:
    """The constant ell in 2g(z) = A log z + z + ell - A pi i - 2 phi(z),

        ell = A - 2 + (1 - A) log(1 - A).

    The interval Stieltjes transform is (z - R - A)/(2z) and phi' = R/(2z),
    so the interval part of g is (z - A Log z - 2 phi~(z) + ell)/2; ell is
    the constant that makes it log z + O(1/z) at infinity.  Kept per
    context: the log potential and the oscillatory value ask for it at
    every point.
    """
    with mp.workprec(LANDSCAPE_BITS):
        return ctx.A - 2 + (1 - ctx.A) * mp.log(1 - ctx.A)
