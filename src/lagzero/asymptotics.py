"""Strong-asymptotic formulas for the scaled polynomials.

Three regimes, each a plain mpmath value that the CLI and the tests
compare against exact evaluation:

* outer: the normalized ratio P_n(z) e^{-n g_n(z)} approaches
  N11(z) = (a + 1/a)/2 away from the limit set.
* oscillatory: leading cosine term on the open interval (beta1, beta2).
* nth_root: (1/n) log|P_n(z)| against the logarithmic potential of the
  limit measure.

Each formula takes the PotentialContext of A_n = -alpha/n (nth_root
also the level r of its measure mu_r), built once by the caller, and
evaluates its prediction at LANDSCAPE_BITS. The exact side they are compared with is
P_n from laguerre.evaluate.

The oscillatory value restores the exponential growth envelope
e^{n(x + A log x + ell)/2} * n^n / n! that the bare cosine term needs to
be comparable with L_n^{(alpha_n)}(nx).  Its amplitude 2|N11_+(x)| and
the phase term -arg N11_+(x) are read off the boundary value of the same
N11 (n11): with a_+ = t e^{i pi/4}, t^4 = (beta2 - x)/(x - beta1), they are
sqrt(beta2 - beta1) ((beta2 - x)(x - beta1))^{-1/4} and asin((2x - beta1 -
beta2)/(beta2 - beta1))/2.  Correction terms of order 1/n are dropped
throughout; the O(1/n) decay of the relative error is what the tests check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from mpmath import mp

from . import contour, measure
from .errors import DomainError
from .landscape import LANDSCAPE_BITS, PotentialContext, ell_constant

# closest approach to the support that the outer formula accepts
OUTER_CLEARANCE = 0.2
# oscillatory window margin, as a fraction of beta2 - beta1
WINDOW_FRACTION = 0.1


def n11(ctx: PotentialContext, z) -> mp.mpc:
    """Outer-parametrix value N11(z) = (a(z) + a(z)^{-1})/2 at
    LANDSCAPE_BITS, a(z) = ((z - beta2)/(z - beta1))^{1/4} with cut
    [beta1, beta2] and a -> 1 at infinity; at a real x on the cut, the
    boundary value N11_+(x) from the upper half plane."""
    with mp.workprec(LANDSCAPE_BITS):
        # (z-b2)/(z-b1) maps the cut plane off the negative reals, so the
        # principal fourth root, two principal square roots, realizes the
        # a -> 1 normalization; on the cut the ratio is negative, and its
        # root is a_+ = t e^{i pi/4}
        zc = mp.mpc(z)
        a = mp.sqrt(mp.sqrt((zc - ctx.beta2) / (zc - ctx.beta1)))
        return (a + 1 / a) / 2


def outer_ratio(ctx_n: PotentialContext, z) -> mp.mpc:
    """N11(z), the outer parametrix (n11).

    The intended comparison is P_n(z) e^{-n g_n(z)} ~ N11(z) with error
    O(1/n); callers must stay at distance >= 0.2 from the interval and
    from the loop region.
    """
    zc = mp.mpc(z)
    gap = contour.interval_gap(ctx_n, complex(zc))[0]
    # Gamma_0 stays inside |z| <= beta1, so clearance from that disk
    # covers every Gamma_r
    loop_gap = float(abs(zc)) - float(ctx_n.beta1)
    if min(gap, loop_gap) < OUTER_CLEARANCE:
        raise DomainError(
            f"z={complex(zc)} is within {OUTER_CLEARANCE} of the limit set"
        )
    return n11(ctx_n, zc)


@lru_cache(maxsize=32)
def _growth(n: int) -> mp.mpf:
    # n^n / n!, the factor oscillatory_value's envelope takes at every x
    with mp.workprec(LANDSCAPE_BITS):
        return mp.power(n, n) / mp.factorial(n)


def oscillatory_value(ctx: PotentialContext, n: int, x: float) -> mp.mpf:
    """Leading oscillatory term for L_n^{(alpha)}(n x) on (beta1, beta2),
    with ctx the context of A_n = -alpha/n.

    Valid on the compact window [beta1 + d, beta2 - d] with
    d = 0.1 (beta2 - beta1); raises DomainError outside.
    """
    b1, b2 = float(ctx.beta1), float(ctx.beta2)
    span = b2 - b1
    margin = WINDOW_FRACTION * span
    if not b1 + margin <= x <= b2 - margin:
        raise DomainError(
            f"x={x} outside the window [{b1 + margin:.6f}, {b2 - margin:.6f}]"
        )
    ell = ell_constant(ctx)
    with mp.workprec(LANDSCAPE_BITS):
        xm = mp.mpf(x)
        n11_x = n11(ctx, xm)
        envelope = _growth(n) * mp.exp(n * (xm + ctx.A * mp.log(xm) + ell) / 2)
        if n % 2:
            envelope = -envelope
        return envelope * 2 * abs(n11_x) * mp.cos(_phase(ctx, n, x, n11_x))


def oscillatory_phase(ctx: PotentialContext, n: int, x: float) -> mp.mpf:
    """Phase of the cosine in oscillatory_value, for zero counting."""
    return _phase(ctx, n, x, n11(ctx, x))


def _phase(ctx: PotentialContext, n: int, x: float, n11_x: mp.mpc) -> mp.mpf:
    # n pi * signed CDF from beta2 (nonpositive), minus arg N11_+(x), given
    # n11_x = N11_+(x); the integral term vanishes at x = beta2
    with mp.workprec(LANDSCAPE_BITS):
        phase = n * mp.pi * (measure.cdf_interval(ctx, x) - (1 - ctx.A))
        return phase - mp.arg(n11_x)


def nth_root_exponent(ctx: PotentialContext, r: float, n: int, z,
                      p) -> Tuple[float, float]:
    """((1/n) log|P_n(z)|, U_mu(z)) for the monic scaled polynomial.

    p is the value P_n(z), from laguerre.evaluate, so the first entry is
    exact up to its one rounding; the second is the logarithmic potential
    of the limit measure mu_r, read off phi with no loop traced. Their
    difference tends to 0 as n grows, at fixed z off the limit set.
    """
    if p == 0:
        raise DomainError(f"P_n({z}) = 0; nth-root exponent undefined")
    with mp.workprec(LANDSCAPE_BITS):
        empirical = float(mp.log(abs(p)) / n)
    predicted = measure.log_potential(ctx, r, complex(z))
    return empirical, predicted
