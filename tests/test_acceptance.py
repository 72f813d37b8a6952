"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each test prints `criterion NN: PASS (...)` or `criterion NN: FAIL (...)`
before asserting, so a -s run gives a compact scoreboard. Tolerances and
runtime budgets are part of the criteria and are asserted, not logged.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

import laguerre_reference as reference
import phase_quadrature
from lagzero import asymptotics, contour, harness, laguerre, measure
from lagzero.landscape import (
    LANDSCAPE_BITS,
    QUAD_TOL,
    interval_integral,
    make_context,
    phi_closed_form,
)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_endpoints():
    t0 = time.time()
    ctx = make_context("0.799999975")
    b1, b2 = float(ctx.beta1), float(ctx.beta2)
    took = time.time() - t0
    ok = 0.305 <= b1 <= 0.315 and 2.09 <= b2 <= 2.10 and took < 1.0
    assert _verdict(1, ok, f"beta1={b1:.6f}, beta2={b2:.6f}, {took:.2f}s")


def test_criterion_02_near_integer_cluster():
    t0 = time.time()
    rep = harness.run_comparison(40, "-31.999999")
    took = time.time() - t0
    loop_re = [x for x, _, lab in rep.zeros if lab == "loop"]
    int_re = [x for x, _, lab in rep.zeros if lab == "interval"]
    rightmost = max(loop_re)
    separated = bool(loop_re) and bool(int_re) and max(loop_re) < min(int_re)
    ok = separated and abs(rightmost - 0.14) <= 0.01 and took < 30.0
    assert _verdict(
        2, ok,
        f"rightmost cluster Re={rightmost:.5f}, gap to interval="
        f"{min(int_re) - rightmost:.3f}, {took:.1f}s")


def test_criterion_03_positive_zero_count():
    cases = [(40, "-32.4"), (25, "-10.5"), (60, "-45.25")]
    details = []
    ok = True
    for n, alpha in cases:
        zset = harness.compute_zeros(n, alpha)
        expected = n - math.floor(-laguerre.parse_alpha(alpha))
        pos = sum(1 for z in zset.zeros if z.imag == 0 and z.real > 0)
        neg = sum(1 for z in zset.zeros if z.imag == 0 and z.real < 0)
        ok = ok and pos == expected and neg <= 1
        details.append(f"({n},{alpha}): {pos}/{expected} pos, {neg} neg")
    assert _verdict(3, ok, "; ".join(details))


def test_criterion_04_measure_masses():
    t0 = time.time()
    worst_loop = worst_int = 0.0
    for A in (Fraction(1, 2), Fraction(4, 5), Fraction(99, 100)):
        ctx = make_context(A)
        mass = interval_integral(ctx, lambda s: 1, QUAD_TOL)
        worst_int = max(worst_int, abs(float(mass - (1 - ctx.A))))
        for r in (0.0, 1.0, 3.0):
            gamma = contour.trace_gamma(ctx, r)
            worst_loop = max(worst_loop,
                             abs(phase_quadrature.loop_mass(ctx, gamma) - float(A)))
    took = time.time() - t0
    ok = worst_loop <= 1e-6 and worst_int <= 1e-8 and took < 60.0
    assert _verdict(
        4, ok,
        f"max|loop-A|={worst_loop:.2e}, max|int-(1-A)|={worst_int:.2e}, "
        f"{took:.1f}s")


def test_criterion_05_zero_accumulation():
    t0 = time.time()
    devs = []
    outliers = {}
    for n in (20, 40, 80):
        rep = harness.run_comparison(n, Fraction(-81 * n, 100),
                                     harness.RunOptions(sweep=(0.15,)))
        devs.append(rep.max_deviation)
        outliers[n] = rep.sweep[0][3]
    took = time.time() - t0
    ok = (devs[0] <= 0.2 and devs[0] > devs[1] > devs[2]
          and outliers[40] == 0 and outliers[80] == 0 and took < 300.0)
    assert _verdict(
        5, ok,
        f"max_dev={'/'.join(f'{d:.4f}' for d in devs)}, "
        f"outliers@0.15={outliers[40]},{outliers[80]}, {took:.1f}s")


def test_criterion_06_distribution_convergence():
    plan = harness.make_plan(Fraction(4, 5), 0.0, [20, 40, 80])
    reports = [harness.run_comparison(n, a)
               for n, a in zip(plan.n_values, plan.alphas)]
    ks_i = [r.ks_interval for r in reports]
    ks_l = [r.ks_loop for r in reports]
    mass = [r.mass_error for r in reports]
    trend = all(b <= 1.2 * a for a, b in zip(ks_i, ks_i[1:]))
    trend = trend and all(b <= 1.2 * a for a, b in zip(ks_l, ks_l[1:]))
    mass_ok = mass[0] > mass[1] > mass[2] and mass[2] <= 0.01
    ok = trend and mass_ok
    assert _verdict(
        6, ok,
        f"ks_int={'/'.join(f'{v:.4f}' for v in ks_i)}, "
        f"ks_loop={'/'.join(f'{v:.4f}' for v in ks_l)}, "
        f"mass={'/'.join(f'{v:.4f}' for v in mass)}")


def test_criterion_07_potential_r_independence():
    ctx = make_context(Fraction(4, 5))
    points = [4 + 0j, 3 + 2j, -1 + 2j]
    worst = 0.0
    for r in (0.0, 1.0, 3.0):
        for z in points:
            diff = abs(measure.log_potential(ctx, 0.0, z)
                       - measure.log_potential(ctx, r, z))
            worst = max(worst, diff)
    ok = worst <= 1e-6
    assert _verdict(7, ok, f"max|U_mu0-U_mur|={worst:.2e}")


def test_criterion_08_nth_root_convergence():
    ctx = make_context(Fraction(4, 5))
    diffs = []
    for n in (20, 40, 80, 160):
        alpha = Fraction(-4 * n, 5) - Fraction(3, 10)
        with mp.workprec(LANDSCAPE_BITS):
            p, = laguerre.evaluate(laguerre.monic_rescaled(n, alpha), [4.0])
        emp, prd = asymptotics.nth_root_exponent(ctx, 0.0, n, 4.0, p)
        diffs.append(abs(emp - prd))
    ok = all(b <= 1.1 * a for a, b in zip(diffs, diffs[1:]))
    assert _verdict(
        8, ok, "diff=" + "/".join(f"{d:.5f}" for d in diffs))


def test_criterion_09_oscillatory_decay():
    t0 = time.time()
    ctx = make_context(Fraction(81, 100))
    b1, b2 = float(ctx.beta1), float(ctx.beta2)
    meds = {}
    for n in (80, 160):
        alpha = Fraction(-81 * n, 100)
        bits = 4 * n + 64
        ctx_n = make_context(laguerre.theorem_ratio(n, alpha))
        coeffs = reference.build_coefficients(n, alpha)
        rels = []
        for k in range(20):
            x = (b1 + 0.2) + (b2 - b1 - 0.4) * k / 19
            if abs(mp.cos(asymptotics.oscillatory_phase(ctx_n, n, x))) <= 0.2:
                continue
            pred = asymptotics.oscillatory_value(ctx_n, n, x)
            with mp.workprec(bits):
                exact, = laguerre.evaluate(coeffs, [n * Fraction(x)])
                rels.append(float(abs(pred / exact - 1)))
        meds[n] = statistics.median(rels)
    took = time.time() - t0
    ok = meds[160] <= 0.6 * meds[80] and took < 300.0
    assert _verdict(
        9, ok,
        f"median rel err n=80: {meds[80]:.5f}, n=160: {meds[160]:.5f}, "
        f"ratio {meds[160] / meds[80]:.2f}, {took:.1f}s")


def test_criterion_10_branch_and_jump_suite():
    # read off the program's phi_closed_form and its R: 2^-300 above and
    # below the negative axis, and at real x on the cut (beta1, beta2)
    ctx = make_context(Fraction(81, 100))
    A, b1, b2 = ctx.A, ctx.beta1, ctx.beta2
    checks = []

    def R(z):
        return mp.sqrt(z - b1) * mp.sqrt(z - b2)

    def phi(z):
        return phi_closed_form(A, b1, b2, mp.mpc(z), mp.sqrt, mp.log)

    with mp.workprec(256):
        nudge = mp.ldexp(1, -300)
        # jump across the negative axis
        worst_jump = 0.0
        for j in range(10):
            x = -mp.mpf(10) ** (-2 + mp.mpf(3 * j) / 9)
            jump = (phi(mp.mpc(x, nudge)) - phi(mp.mpc(x, -nudge))
                    + A * mp.pi * 1j)
            worst_jump = max(worst_jump, float(abs(jump)))
        checks.append(("jump", worst_jump, 1e-10))

        checks.append(("R(0)+A", float(abs(R(mp.mpc(0)) + A)), 1e-30))

        worst_re = 0.0
        for k in range(1, 6):
            x = b1 + (b2 - b1) * k / 6
            worst_re = max(worst_re, float(abs(mp.re(phi(x)))))
        checks.append(("Re phi on cut", worst_re, 1e-30))

        checks.append(("b1*b2-A^2",
                       float(abs(ctx.beta1 * ctx.beta2 - ctx.A ** 2)), 1e-30))

    # finite-difference phi' against R/(2z), off axis and cut
    rng = random.Random(20260815)
    h = mp.mpf(2) ** -60
    worst_fd = 0.0
    with mp.workprec(380):
        for _ in range(20):
            z = mp.mpc(rng.uniform(-3, 4), rng.uniform(0.35, 2.5))
            fd = (phi(z + h) - phi(z - h)) / (2 * h)
            worst_fd = max(worst_fd, float(abs(fd - R(z) / (2 * z))))
    checks.append(("FD phi'", worst_fd, 1e-8))

    ok = all(got <= tol for _, got, tol in checks)
    assert _verdict(
        10, ok,
        ", ".join(f"{name}={got:.1e}" for name, got, _ in checks))


def _angles_clockwise(points) -> bool:
    # strictly monotone angle about an interior point implies the closed
    # polyline is simple (star-shaped)
    ang = np.unwrap(np.angle(np.asarray(points[:-1], dtype=complex)))
    steps = np.diff(ang)
    total = ang[-1] - ang[0]
    return bool(np.all(steps < 0) and abs(total + 2 * math.pi) < 0.1)


def _conj_hausdorff(points) -> float:
    v = np.asarray(points[:-1], dtype=complex)
    worst = 0.0
    for i in range(0, len(v), 512):
        chunk = np.conj(v[i:i + 512])
        d = np.abs(chunk[:, None] - v[None, :]).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


def test_criterion_11_contour_integrity():
    details = []
    ok = True
    for A in (Fraction(81, 100), Fraction(99, 100)):
        ctx = make_context(A)
        step = (float(ctx.beta2) - float(ctx.beta1)) / contour.SPAN_STEPS
        gamma = contour.trace_gamma(ctx, 0.0)
        halved = contour.trace_gamma(ctx, 0.0, max_step=step / 2)
        closed = gamma.points[0] == gamma.points[-1]
        simple = _angles_clockwise(gamma.points)
        sym = _conj_hausdorff(gamma.points)
        wind = contour.winding_number(gamma, 0j)
        hit_b1 = min(abs(p - float(ctx.beta1)) for p in gamma.points)
        dlen = abs(halved.arclengths[-1] - gamma.arclengths[-1]) \
            / gamma.arclengths[-1]
        ok = ok and closed and simple and wind == -1
        ok = ok and sym <= 2 * step
        ok = ok and hit_b1 <= step and dlen < 0.01
        details.append(
            f"A={float(A)}: wind={wind}, sym={sym:.1e}, "
            f"b1 gap={hit_b1:.1e}, dL={dlen:.2e}")
    assert _verdict(11, ok, "; ".join(details))
