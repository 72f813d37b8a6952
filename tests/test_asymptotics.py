"""Asymptotic formulas checked against exact polynomial evaluation."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

import phase_quadrature
from lagzero import asymptotics, harness, laguerre, landscape
from lagzero.errors import DomainError


def test_outer_value_frozen(ctx80):
    pred = asymptotics.outer_ratio(ctx80, 4.0)
    assert abs(pred - mp.mpf("1.0137281948387775")) <= 1e-12
    assert mp.im(pred) == 0


def test_outer_far_field(ctx80):
    # a(z) -> 1, so N11 -> 1
    pred = asymptotics.outer_ratio(ctx80, 1e6)
    assert abs(pred - 1) <= 1e-12


def test_outer_clearance(ctx80):
    # beta2 ~ 2.0944 and the loop disk has radius beta1 ~ 0.3056; both
    # probes sit closer than the 0.2 clearance
    with pytest.raises(DomainError):
        asymptotics.outer_ratio(ctx80, 2.2)
    with pytest.raises(DomainError):
        asymptotics.outer_ratio(ctx80, 0.3)
    asymptotics.outer_ratio(ctx80, 2.3)


def test_outer_convergence(ctx80):
    # integer alpha = -0.8 n keeps A_n fixed while n doubles
    errs = {}
    for n in (30, 60):
        bits = max(256, 4 * n + 64)
        coeffs = laguerre.monic_rescaled(n, Fraction(-4 * n, 5))
        with mp.workprec(bits):
            p, = laguerre.evaluate(coeffs, [complex(4)])
            g = landscape.g_eval(ctx80, 4.0)
            ratio = p * mp.e ** (-n * g)
            n11 = asymptotics.outer_ratio(ctx80, 4.0)
            errs[n] = float(abs(ratio - n11))
    assert errs[30] <= 5e-4
    assert errs[60] <= 0.7 * errs[30]


def test_oscillatory_decay():
    # relative error at a fixed interior point should drop like 1/n
    errs = {}
    for n in (40, 80):
        alpha = Fraction(-81 * n, 100)
        ctx = landscape.make_context(laguerre.theorem_ratio(n, alpha))
        pred = asymptotics.oscillatory_value(ctx, n, 1.3)
        with mp.workprec(4 * n + 256):
            a_mp = mp.mpf(alpha.numerator) / alpha.denominator
            exact = mp.laguerre(n, a_mp, n * mp.mpf("1.3"))
            errs[n] = float(abs((pred - exact) / exact))
    assert errs[40] <= 0.05
    assert errs[80] <= 0.7 * errs[40]


def test_oscillatory_window(ctx81):
    # (40, -32.4): the window is [beta1 + 0.1 span, beta2 - 0.1 span],
    # about [0.49, 1.89]
    with pytest.raises(DomainError):
        asymptotics.oscillatory_value(ctx81, 40, 0.35)
    with pytest.raises(DomainError):
        asymptotics.oscillatory_value(ctx81, 40, 2.0)
    asymptotics.oscillatory_value(ctx81, 40, 1.3)


def test_phase_at_midpoint(ctx81):
    # the arcsine term vanishes at the midpoint of [beta1, beta2]
    mid = float((ctx81.beta1 + ctx81.beta2) / 2)
    ph = asymptotics.oscillatory_phase(ctx81, 40, mid)
    with mp.workprec(256):
        want = 40 * mp.pi * phase_quadrature.cdf_from_beta2(ctx81, mid)
        assert abs(ph - want) <= 1e-12


def test_n11_fourth_root_from_square_roots(ctx81):
    # two principal square roots against the complex power ** 0.25 (an exp
    # of a log), off the cut and on it, where the root is a_+ = t e^{i pi/4}
    b1, b2 = ctx81.beta1, ctx81.beta2
    off = [complex(x / 2, y / 2) for x in range(-4, 8) for y in (-3, -1, 1, 2)]
    on = [float(b1 + (b2 - b1) * k / 16) for k in range(1, 16)]
    with mp.workprec(landscape.LANDSCAPE_BITS):
        for z in off + on:
            w = mp.mpc(z)
            a = ((w - b2) / (w - b1)) ** mp.mpf("0.25")
            want = (a + 1 / a) / 2
            assert abs(asymptotics.n11(ctx81, z) - want) <= mp.ldexp(abs(want), -250), z


def test_sign_changes_count_real_zeros():
    # the cosine's sign changes inside the window should match the exact
    # real zeros there, off by at most one (window-edge zeros)
    zset = harness.compute_zeros(25, "-10.5")
    ctx = landscape.make_context(Fraction(21, 50))
    b1, b2 = float(ctx.beta1), float(ctx.beta2)
    lo = b1 + 0.1 * (b2 - b1)
    hi = b2 - 0.1 * (b2 - b1)
    inside = [z for z in zset.zeros
              if z.imag == 0 and lo < float(z.real) < hi]
    grid = [lo + (hi - lo) * k / 400 for k in range(401)]
    vals = [asymptotics.oscillatory_value(ctx, 25, x) for x in grid]
    signs = [1 if v > 0 else -1 for v in vals]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert abs(changes - len(inside)) <= 1


def _exponent(ctx, r, n, alpha, z):
    # nth_root_exponent with P_n(z) evaluated exactly
    with mp.workprec(landscape.LANDSCAPE_BITS):
        p, = laguerre.evaluate(laguerre.monic_rescaled(n, alpha), [z])
    return asymptotics.nth_root_exponent(ctx, r, n, z, p)


def test_nth_root_converges(ctx80):
    diffs = {}
    for n in (20, 40):
        alpha = Fraction(-4 * n, 5) - Fraction(3, 10)
        emp, prd = _exponent(ctx80, 0.0, n, alpha, 4.0)
        diffs[n] = abs(emp - prd)
    assert diffs[20] <= 6e-3
    assert diffs[40] <= diffs[20]


def test_nth_root_prediction_r_insensitive(ctx80):
    # U_mu at an exterior point does not depend on r
    preds = []
    for r in (0.0, 3.0, math.inf):
        _, prd = _exponent(ctx80, r, 20, -16, 4.0)
        preds.append(prd)
    assert max(preds) - min(preds) <= 2e-6


def test_nth_root_far_field(ctx80):
    # U_mu(z) ~ log|z| for large z since mu has total mass 1
    _, prd = _exponent(ctx80, 0.0, 20, -16, 1e3)
    assert abs(prd - math.log(1e3)) <= 1e-2
