"""Generalized Laguerre polynomials L_n^(a)(n z) for arbitrary real parameters.

The explicit monomial representation

    L_n^(a)(z) = sum_{k=0}^{n} binom(n+a, n-k) (-z)^k / k!

gives the monic P(z) = (n!/(-n)^n) L_n^(a)(n z) (monic_rescaled): with
a = p/q, c_k = (-1)^{n-k} C(n,k) prod_{j>k} (p + j q) / (q n)^{n-k}, so
each c_k is c_{k+1} times the small ratio -(k+1)(p + (k+1) q) / ((n-k) q n).
For integer a = -m in {-n..-1} the product vanishes for every k < m, so
the zero low coefficients are the zero of order m at the origin; the root
finder counts them.

The parameter is carried as a fractions.Fraction parsed from a decimal
string, never through binary floating point: the experiments downstream
depend on dist(alpha, Z) values as small as 1e-300, which a float cannot
represent and a gamma-function quotient cannot recover (catastrophic
cancellation near negative integers). A polynomial is the tuple of its
exact Fraction coefficients. evaluate computes its value at dyadic points
exactly and rounds it once; the root finder rounds the coefficients
itself, at the working precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import mpmath as mp
from mpmath.libmp import from_rational, mpf_shift, round_nearest

from .errors import DomainError

AlphaLike = Union[str, int, Fraction]


def parse_alpha(alpha: AlphaLike) -> Fraction:
    """Exact parameter from a decimal string (or int/Fraction passthrough);
    the CLI parses A by the same rule.

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
        raise DomainError(f"cannot parse {alpha!r} as an exact decimal") from exc


def theorem_ratio(n: int, alpha: AlphaLike) -> Fraction:
    """A_n = -alpha/n exactly; DomainError unless n >= 1 and A_n in (0,1),
    the range every limit-set and asymptotic statement assumes."""
    if n < 1:
        raise DomainError(f"degree n must be >= 1, got {n}")
    a_n = Fraction(-parse_alpha(alpha), n)
    if not 0 < a_n < 1:
        raise DomainError(f"-alpha/n = {a_n} outside (0,1)")
    return a_n


def evaluate(coeffs: Sequence[Fraction], points: Iterable) -> list:
    """P(z) at each point, each part rounded once at mpmath's working precision.

    A point is an int, a finite float, a Fraction with a power-of-two
    denominator or a complex with finite parts. So z = (a + ib)/2^s, and an
    integer Horner over the numerators of one common denominator d gives
    d 2^{sn} P(z) exactly, every power of two a shift. Any other point
    raises DomainError. A complex point gives an mpc, the others an mpf.
    """
    d = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (d // c.denominator) for c in coeffs]
    n, prec, values = len(nums) - 1, mp.mp.prec, []
    for z in points:
        is_complex = isinstance(z, complex)
        try:
            re, im = map(Fraction, (z.real, z.imag) if is_complex else (z, 0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"cannot evaluate exactly at {z!r}") from exc
        den = math.lcm(re.denominator, im.denominator)
        if den & (den - 1):
            raise DomainError(f"{z!r} is not a dyadic rational; no exact evaluation")
        a, b, s = int(re * den), int(im * den), den.bit_length() - 1
        acc_re, acc_im = nums[n], 0
        for k in range(n - 1, -1, -1):
            acc_re, acc_im = (acc_re * a - acc_im * b + (nums[k] << (s * (n - k))),
                              acc_re * b + acc_im * a)
        # round v/d once, then divide by 2^{sn} exactly
        acc_re, acc_im = (mp.mpf(mpf_shift(from_rational(v, d, prec, round_nearest), -s * n))
                          for v in (acc_re, acc_im))
        values.append(mp.mpc(acc_re, acc_im) if is_complex else acc_re)
    return values


def monic_rescaled(n: int, alpha: AlphaLike) -> tuple:
    """Exact coefficients c_0..c_n of the monic P(z) = (n!/(-n)^n) L_n^(alpha)(n z).

    From c_n = 1 down, each c_k is c_{k+1} times a small ratio (see the
    module docstring), so each reduction is a gcd of a big by a small
    integer. For alpha = -m in {-n..-1}, c_0..c_{m-1} are 0 and c_m..c_n
    are the monic L_{n-m}^{(m)}(n z).
    """
    if n < 0:
        raise DomainError(f"degree n must be >= 0, got {n}")
    a = parse_alpha(alpha)
    p, q = a.numerator, a.denominator
    coeffs = [Fraction(1)] * (n + 1)
    for k in range(n - 1, -1, -1):
        coeffs[k] = coeffs[k + 1] * Fraction(-(k + 1) * (p + (k + 1) * q), (n - k) * q * n)
    return tuple(coeffs)


def real_zero_split(n: int, alpha: AlphaLike) -> tuple:
    """(positive, negative): how many zeros of L_n^(alpha) are real and
    positive and how many real and negative, the origin's not counted
    (Szego, Orthogonal Polynomials, Thm 6.73). For alpha = -m in {-n..-1}
    the origin holds m zeros and L_{n-m}^(m) the n - m positive others."""
    a = parse_alpha(alpha)
    if a > -1:
        return n, 0
    if a < -n:
        return 0, n % 2
    m = math.floor(-a)
    return n - m, 0 if a == -m else m % 2
