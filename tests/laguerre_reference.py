"""Test-only reference coefficients of L_n^(alpha), from the binomial sum

    L_n^(a)(z) = sum_{k=0}^{n} binom(n+a, n-k) (-z)^k / k!

in Fractions, by a path independent of laguerre.monic_rescaled's ratio
recurrence; monic rescales them to z -> s z, as laguerre.monic_rescaled does
with s = n.
"""

import math
from fractions import Fraction

from lagzero.errors import DomainError
from lagzero.laguerre import parse_alpha


def build_coefficients(n: int, alpha) -> tuple:
    """Exact coefficients c_0..c_n of L_n^(alpha)(z); c_n = (-1)^n/n!."""
    if n < 0:
        raise DomainError(f"degree n must be >= 0, got {n}")
    a = parse_alpha(alpha)
    # binom(n+alpha, n-k) = prod_{j=1}^{n-k} (alpha+k+j) / (n-k)!
    # built backwards so each k reuses the previous product
    coeffs = [Fraction(0)] * (n + 1)
    prod = Fraction(1)
    coeffs[n] = Fraction(-1) ** n / math.factorial(n)
    for k in range(n - 1, -1, -1):
        prod *= a + k + 1
        binom = prod / math.factorial(n - k)
        coeffs[k] = binom * Fraction(-1) ** k / math.factorial(k)
    return tuple(coeffs)


def monic(coeffs, s: int) -> tuple:
    """Coefficients of the monic p(s z) / (c_n s^n), c_k = coeffs[k]."""
    lead = coeffs[-1] * s ** (len(coeffs) - 1)
    return tuple(c * s ** k / lead for k, c in enumerate(coeffs))
