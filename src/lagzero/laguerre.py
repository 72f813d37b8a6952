"""Generalized Laguerre polynomials L_n^(a)(z) for arbitrary real parameters.

Coefficients come from the explicit monomial representation

    L_n^(a)(z) = sum_{k=0}^{n} binom(n+a, n-k) (-z)^k / k!

built in exact rational arithmetic. The parameter is carried as a
fractions.Fraction parsed from a decimal string, never through binary floating
point: the experiments downstream depend on dist(alpha, Z) values as small as
1e-300, which a float cannot represent and a gamma-function quotient cannot
recover (catastrophic cancellation near negative integers). Rounding to the
working precision happens once, after the exact product is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import mpmath as mp

from .errors import DomainError

AlphaLike = Union[str, int, Fraction]


def parse_alpha(alpha: AlphaLike) -> Fraction:
    """Exact parameter from a decimal string (or int/Fraction passthrough).

    Floats are rejected: '0.81' is not representable in binary and the
    difference matters here.
    """
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    if isinstance(alpha, float):
        raise DomainError("alpha must be a decimal string, int, or Fraction, not float")
    try:
        return Fraction(alpha.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse alpha {alpha!r} as an exact decimal") from exc


def default_precision(n: int) -> int:
    return max(256, 4 * n + 64)


def theorem_ratio(n: int, alpha: AlphaLike) -> Fraction:
    """A_n = -alpha/n exactly; DomainError unless n >= 1 and A_n in (0,1),
    the range every limit-set and asymptotic statement assumes."""
    if n < 1:
        raise DomainError(f"degree n must be >= 1, got {n}")
    a_n = Fraction(-parse_alpha(alpha), n)
    if not 0 < a_n < 1:
        raise DomainError(f"-alpha/n = {a_n} outside (0,1)")
    return a_n


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree, exact parameter, and working precision for one polynomial."""

    n: int
    alpha: Fraction
    precision_bits: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"degree n must be >= 0, got {self.n}")
        if self.precision_bits < 64:
            raise DomainError("precision_bits must be >= 64")

    @classmethod
    def create(cls, n: int, alpha: AlphaLike, precision_bits: int | None = None) -> "LaguerreSpec":
        bits = default_precision(n) if precision_bits is None else precision_bits
        return cls(n, parse_alpha(alpha), bits)


@dataclass(frozen=True)
class CoefficientList:
    """Monomial coefficients c_0..c_n, exact and rounded views.

    coeffs holds mpf values rounded at precision_bits, for mpmath
    evaluation; exact holds the Fractions they came from, which the root
    finder rounds to its own fixed-point scale.
    """

    coeffs: tuple
    exact: tuple
    precision_bits: int

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _round_fractions(fracs: Sequence[Fraction], precision_bits: int) -> tuple:
    with mp.workprec(precision_bits):
        return tuple(mp.mpf(f.numerator) / mp.mpf(f.denominator) for f in fracs)


def _exact_coefficients(n: int, alpha: Fraction) -> list:
    # binom(n+alpha, n-k) = prod_{j=1}^{n-k} (alpha+k+j) / (n-k)!
    # built backwards so each k reuses the previous product
    coeffs = [Fraction(0)] * (n + 1)
    prod = Fraction(1)
    coeffs[n] = Fraction(-1) ** n / math.factorial(n)
    for k in range(n - 1, -1, -1):
        prod *= alpha + k + 1
        binom = prod / math.factorial(n - k)
        coeffs[k] = binom * Fraction(-1) ** k / math.factorial(k)
    return coeffs


def build_coefficients(spec: LaguerreSpec) -> CoefficientList:
    """Coefficients of L_n^(alpha)(z); leading coefficient (-1)^n/n! exactly."""
    exact = tuple(_exact_coefficients(spec.n, spec.alpha))
    return CoefficientList(
        _round_fractions(exact, spec.precision_bits), exact, spec.precision_bits
    )


def eval_poly(coeffs: Sequence, z, precision_bits: int):
    """Horner evaluation at the given precision. Accepts mpf/mpc/complex z."""
    with mp.workprec(precision_bits):
        zz = mp.mpmathify(z)
        acc = mp.mpf(0)
        for c in reversed(coeffs):
            acc = acc * zz + c
        return acc


def monic_rescaled(spec: LaguerreSpec, scale: int | None = None) -> CoefficientList:
    """Coefficients of the monic P(z) = (n!/(-s)^n) L_n^(alpha)(s z), s = scale.

    scale defaults to spec.n (the standard rescaling). The integer-reduction
    pipeline passes the original degree as scale so the reduced polynomial is
    still evaluated on the original s*z grid.
    """
    s = spec.n if scale is None else scale
    if s < 1:
        raise DomainError("scale must be a positive integer")
    n = spec.n
    base = _exact_coefficients(n, spec.alpha)
    lead = base[n]  # (-1)^n / n!
    powers = Fraction(1)
    monic = []
    for k in range(n + 1):
        # c_k * s^k / (lead * s^n) ; accumulate s^k, divide by s^n via lead
        monic.append(base[k] * powers / (lead * Fraction(s) ** n))
        powers *= s
    exact = tuple(monic)
    assert exact[n] == 1
    return CoefficientList(
        _round_fractions(exact, spec.precision_bits), exact, spec.precision_bits
    )


def integer_reduction(n: int, alpha: AlphaLike) -> tuple[int, LaguerreSpec]:
    """Reduce integer alpha in {-n..-1}: zero of order |alpha| at the origin.

    L_n^(alpha)(z) = ((n+alpha)!/n!) (-z)^{-alpha} L_{n+alpha}^{(-alpha)}(z),
    so the returned spec has degree n+alpha and parameter -alpha.
    """
    a = parse_alpha(alpha)
    if a.denominator != 1:
        raise DomainError(f"integer_reduction needs integer alpha, got {a}")
    ai = int(a)
    if not (-n <= ai <= -1):
        raise DomainError(f"alpha {ai} outside {{-n..-1}} for n={n}")
    multiplicity = -ai
    # reduced degree may be 0 (alpha = -n: every zero sits at the origin)
    return multiplicity, LaguerreSpec(n + ai, Fraction(-ai), default_precision(n))
