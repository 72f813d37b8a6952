"""Coefficient construction and evaluation against independent oracles."""

from fractions import Fraction

import math

import mpmath as mp
import pytest

import lagzero
import laguerre_reference as reference
from lagzero import contour, errors, harness, laguerre, landscape, measure, rootfinder
from lagzero.errors import DomainError


def test_parse_alpha_exact_forms():
    assert laguerre.parse_alpha("-32.4") == Fraction(-162, 5)
    assert laguerre.parse_alpha("-31.999999") == Fraction(-31999999, 1000000)
    assert laguerre.parse_alpha(-7) == Fraction(-7)
    assert laguerre.parse_alpha(Fraction(3, 7)) == Fraction(3, 7)


def test_parse_alpha_rejects_binary_floats():
    # a float has already destroyed dist(alpha, Z); refuse it loudly
    with pytest.raises(DomainError):
        laguerre.parse_alpha(-32.4)
    with pytest.raises(DomainError):
        laguerre.parse_alpha("not a number")


def test_degree_one_closed_form():
    # L_1^(a)(z) = 1 + a - z
    coeffs = reference.build_coefficients(1, Fraction(-5, 3))
    assert coeffs == (Fraction(-2, 3), Fraction(-1))


def test_degree_two_closed_form():
    # L_2^(a)(z) = z^2/2 - (a+2) z + (a+1)(a+2)/2, checked at a = -3/2
    coeffs = reference.build_coefficients(2, Fraction(-3, 2))
    assert coeffs == (Fraction(-1, 8), Fraction(-1, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "n,alpha,x",
    [
        (5, Fraction(-5, 2), 1.3),
        (8, Fraction(-17, 4), 0.7),
        (12, Fraction(7, 3), 2.25),
    ],
)
def test_eval_against_mpmath_laguerre(n, alpha, x):
    # mpmath computes L_n^(a) through the confluent hypergeometric series,
    # a fully independent code path from the binomial-sum coefficients
    coeffs = reference.build_coefficients(n, alpha)
    with mp.workprec(320):
        mine, = laguerre.evaluate(coeffs, [x])
        ref = mp.laguerre(n, mp.mpf(alpha.numerator) / alpha.denominator, mp.mpf(x))
        assert abs(mine - ref) <= mp.mpf(2) ** -240 * abs(ref)


def test_evaluate_is_exact_at_the_roots():
    coeffs = (Fraction(2), Fraction(-3), Fraction(1))  # (z-1)(z-2)
    with mp.workprec(64):
        assert laguerre.evaluate(coeffs, [1, 2.0, 0, Fraction(3, 2)]) == [0, 0, 2, -0.25]
        # (2+i)^2 - 3(2+i) + 2 = -1 + i, and a complex point gives an mpc
        assert laguerre.evaluate(coeffs, [complex(2, 1)]) == [mp.mpc(-1, 1)]
        # the float 0.1 is not the root 1/10 of (z - 1/10)(z - 3/10): the
        # value there is tiny, and still right to one rounding
        tenths = (Fraction(3, 100), Fraction(-2, 5), Fraction(1))
        tiny, = laguerre.evaluate(tenths, [0.1])
        want = (Fraction(0.1) - Fraction(1, 10)) * (Fraction(0.1) - Fraction(3, 10))
    with mp.workprec(256):
        want = mp.mpf(want.numerator) / want.denominator
        assert want != 0 and abs(tiny - want) <= mp.mpf(2) ** -63 * abs(want)


@pytest.mark.parametrize("point", [Fraction(1, 3), "0.1", math.nan,
                                   math.inf, complex(1, math.inf), mp.mpf(1)])
def test_evaluate_refuses_points_it_cannot_take_exactly(point):
    with pytest.raises(DomainError):
        laguerre.evaluate((Fraction(2), Fraction(-3), Fraction(1)), [point])


def test_integer_parameter_reduction_identity():
    # L_7^(-3)(z) = (4!/7!) (-z)^3 L_4^(3)(z) pointwise
    c7 = reference.build_coefficients(7, -3)
    c4 = reference.build_coefficients(4, 3)
    with mp.workprec(320):
        for z in (0.9, complex(2, 1)):
            (lhs,), (l4,) = laguerre.evaluate(c7, [z]), laguerre.evaluate(c4, [z])
            rhs = mp.mpf(24) / 5040 * (-mp.mpmathify(z)) ** 3 * l4
            assert abs(lhs - rhs) <= mp.mpf(2) ** -200


def test_integer_reduction_bookkeeping():
    # the zero of order 3 at the origin is c_0 = c_1 = c_2 = 0, and the
    # rest is the monic L_4^(3)(7z)
    mon = laguerre.monic_rescaled(7, -3)
    mult = next(k for k, c in enumerate(mon) if c)
    reduced_n = len(mon) - 1 - mult
    assert mult == 3
    assert reduced_n == 4
    assert mon[mult:] == reference.monic(reference.build_coefficients(4, Fraction(3)), 7)
    # a non-integer alpha has no zero at the origin
    assert all(laguerre.monic_rescaled(7, Fraction(-1, 2)))


def test_monic_rescaled_is_monic_and_consistent():
    mon = laguerre.monic_rescaled(6, Fraction(1, 2))
    assert mon[-1] == 1
    assert len(mon) - 1 == 6
    # P(z) = (-1)^n n!/n^n L_n(n z)
    lag = reference.build_coefficients(6, Fraction(1, 2))
    with mp.workprec(320):
        z = Fraction(0.83)
        pv, = laguerre.evaluate(mon, [z])
        lv = laguerre.evaluate(lag, [6 * z])[0] * mp.mpf(720) / 6**6
        assert abs(pv - lv) <= mp.mpf(2) ** -200


def test_monic_rescaled_explicit_scale():
    # past its two zero low coefficients, the monic L_4^(-2)(4z) is the
    # reduced L_2^(2), still evaluated at the original n*z scaling
    mon4 = laguerre.monic_rescaled(4, Fraction(-2))[2:]
    lag = reference.build_coefficients(2, Fraction(2))
    with mp.workprec(256):
        z = Fraction(0.6)
        pv, = laguerre.evaluate(mon4, [z])
        lv = laguerre.evaluate(lag, [4 * z])[0] * mp.mpf(2) / 16
        assert abs(pv - lv) <= mp.mpf(2) ** -200


def _monic_grid():
    cases = []
    for n in (1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 21, 27, 40):
        cases += [(n, Fraction(-m)) for m in range(1, min(n, 12) + 1)]
        cases += [(n, Fraction(-m)) for m in (n // 2, n - 1, n) if m > 12]
        cases += [(n, a) for a in (Fraction(0), Fraction(3), Fraction(1, 2), Fraction(7, 3),
                                   Fraction(-1, 2), Fraction(-81 * n, 100),
                                   Fraction(-n - 1), Fraction(-2 * n + 1, 2))]
    # 30-digit near-integer decimals, on both sides of -31 and -12
    cases += [(40, Fraction("-31." + "9" * 29 + "7")), (40, Fraction("-31." + "0" * 29 + "3")),
              (16, Fraction("-12." + "0" * 29 + "1")), (16, Fraction("-11." + "9" * 30))]
    return cases


def test_monic_rescaled_matches_the_binomial_sum():
    cases = _monic_grid()
    assert len(set(cases)) >= 200
    for n, alpha in cases:
        mon = laguerre.monic_rescaled(n, alpha)
        if alpha.denominator == 1 and -n <= alpha <= -1:
            m = -int(alpha)
            want = (0,) * m + reference.monic(reference.build_coefficients(n - m, m), n)
        else:
            want = reference.monic(reference.build_coefficients(n, alpha), n)
        assert mon == want, (n, alpha)


def test_spec_validation():
    with pytest.raises(DomainError):
        laguerre.monic_rescaled(-1, Fraction(1, 2))
    with pytest.raises(DomainError):
        harness.compute_zeros(3, Fraction(1, 2), precision_bits=32)
    with pytest.raises(DomainError):
        # 0 is a precision, not "use the default"
        harness.compute_zeros(3, Fraction(1, 2), precision_bits=0)
    with pytest.raises(DomainError):
        # run_comparison's options refuse it before any work
        harness.RunOptions(precision_bits=32)
    assert laguerre.theorem_ratio(40, "-32.4") == Fraction(81, 100)
    for n, alpha in ((40, "-80"), (40, "-40"), (40, "2"), (0, "-1")):
        with pytest.raises(DomainError):
            laguerre.theorem_ratio(n, alpha)


@pytest.mark.parametrize("owner,names", [
    # a polynomial is the tuple of its exact coefficients; no wrapper
    # types, and one exact evaluator in place of rounding and Horner
    (laguerre, ("LaguerreSpec", "CoefficientList", "round_coefficients", "eval_poly",
                "build_coefficients", "integer_reduction")),
    # phi is phi_closed_form alone: no side-taking front end, and no R or
    # phi~ of its own; the densities live in the test oracle
    (landscape, ("BoundarySide", "R_eval", "phi_eval", "phi_tilde_eval")),
    (errors, ("BranchCutError",)),
    (measure, ("mp_density", "nu_density_at", "interval_mass")),
    # fields and properties only tests read
    (rootfinder.ZeroSet, ("count",)),
    (contour.ContourPolyline, ("max_step",)),
], ids=["laguerre", "landscape", "errors", "measure", "ZeroSet", "ContourPolyline"])
def test_public_exports(owner, names):
    # vars, not hasattr: a NamedTuple has tuple's count
    for gone in names:
        assert not hasattr(lagzero, gone)
        assert gone not in vars(owner)
