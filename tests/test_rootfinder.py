"""Aberth iteration checked against mpmath.polyroots and hand-built polynomials."""

import logging
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest

import lagzero
import rootfinder_reference as reference
from lagzero import harness, laguerre, rootfinder, tropical
from lagzero.errors import NonConvergence


def _expand(roots):
    # prod (z - r) over roots, expanded exactly
    poly = [Fraction(1)]
    for r in roots:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return tuple(poly)


def _wilkinson(k):
    return _expand(range(1, k + 1))


def test_recovers_integer_roots():
    coeffs = _wilkinson(6)
    zset = rootfinder.find_zeros(coeffs, 256)
    assert len(zset.zeros) + zset.origin_multiplicity == 6
    with mp.workprec(256):
        for j, z in enumerate(sorted(zset.zeros, key=lambda w: mp.re(w)), start=1):
            assert abs(z - j) <= mp.mpf(2) ** -70
            assert mp.im(z) == 0


def _polyroots_gap(mon, zeros, bits, extraprec):
    # largest distance to mp.polyroots, both sorted by their printed doubles
    with mp.workprec(bits):
        ref = mp.polyroots(
            [mp.mpf(f.numerator) / f.denominator for f in reversed(mon)],
            maxsteps=200,
            extraprec=extraprec,
        )
        ref = sorted((mp.mpc(r) for r in ref),
                     key=lambda w: (float(mp.re(w)), float(mp.im(w))))
        return max(abs(a - b) for a, b in zip(zeros, ref))


def test_matches_polyroots_on_laguerre():
    mon = laguerre.monic_rescaled(6, Fraction(1, 2))
    zset = rootfinder.find_zeros(mon, 320)
    assert _polyroots_gap(mon, zset.zeros, 320, 200) <= mp.mpf(2) ** -280
    assert zset.suspect == ()
    assert max(zset.residuals) <= float(mp.mpf(2) ** -280)


def test_matches_polyroots_near_integer():
    # dist(alpha, Z) = 1e-15 pulls the constant coefficient down to about
    # 2^-75: P's rounded coefficients carry that many extra guard bits, and
    # the scaled words of the sweeps, the lift and the certificate do not
    mon = laguerre.monic_rescaled(12, "-9.000000000000001")
    assert abs(mon[0]) < Fraction(1, 2 ** 74)
    zset = rootfinder.find_zeros(mon, 320)
    assert _polyroots_gap(mon, zset.zeros, 320, 400) <= mp.mpf(2) ** -280
    assert zset.suspect == ()


@pytest.mark.parametrize("n, alpha, bits, sweeps", [
    pytest.param(40, "-32.3564", 256, 5, id="-32.3564-256-5"),
    pytest.param(40, "-31.99999886", 360, 9, id="-31.99999886-360-9"),
    (88, "-71.2909", 416, 5),
    (96, "-76.0000011", 584, 5),
    (80, "-64.7741", 384, 8),
])
def test_sweep_counts_and_moments(n, alpha, bits, sweeps):
    # the counts come from the seeding: one seed per zero of the exact
    # real/complex split, the loop seeds in exact conjugate pairs, so the
    # odd case no longer waits for float rounding to break a symmetry;
    # the sweeps run at LOW_BITS, to 2^-64 instead of 2^-(bits/2), with
    # the pair sums in float64 (the last three are the fixed-point
    # kernel's counts, which the float rows keep)
    zset = harness.compute_zeros(n, alpha, precision_bits=bits)
    assert zset.precision_bits == bits
    assert zset.iterations == sweeps
    # sum z = -c_{n-1} and sum z^2 = c_{n-1}^2 - 2 c_{n-2} (Newton's identities)
    mon = laguerre.monic_rescaled(n, alpha)
    with mp.workprec(bits):
        c1, c2 = (mp.mpf(c.numerator) / c.denominator
                  for c in (mon[-2], mon[-3]))
        tol = mp.mpf(2) ** -(bits // 2)
        assert abs(mp.fsum(zset.zeros) + c1) <= tol
        assert abs(mp.fsum(z * z for z in zset.zeros) - (c1 * c1 - 2 * c2)) <= tol


def _per_root_sum(roots, i, prec):
    # sum_{k != i} 1/(z_i - z_k), one term and one division at a time
    x, y = roots[i]
    sx = sy = 0
    for k, (wx, wy) in enumerate(roots):
        if k != i:
            ex, ey = x - wx, y - wy
            r = (1 << (3 * prec)) // (ex * ex + ey * ey)
            sx += ex * r
            sy -= ey * r
    return sx >> prec, sy >> prec


def test_pair_sums_match_per_root_loop():
    # two active roots share one division; the terms must come out as if
    # every active root had summed over all the others on its own
    prec = 300
    rng = random.Random(5)
    zs = [(rng.randint(-3 << prec, 3 << prec), rng.randint(-3 << prec, 3 << prec))
          for _ in range(9)]
    active = [0, 2, 3, 7]
    sums = rootfinder._pair_sums(zs, [False] * 9, active, prec, floor=1)
    assert sorted(sums) == active
    for i in active:
        assert sums[i] == _per_root_sum(zs, i, prec)

    # representatives: the roots are zs plus the conjugate of each twin;
    # 3 (active) and 5 are real, and a real root's sum is exactly real
    twin = [True] * 9
    for i in (3, 5):
        zs[i] = (zs[i][0], 0)
        twin[i] = False
    zs = [(x, abs(y)) for x, y in zs]
    roots = zs + [(x, -y) for (x, y), t in zip(zs, twin) if t]
    sums = rootfinder._pair_sums(zs, twin, active, prec, floor=1)
    assert sorted(sums) == active
    for i in active:
        assert sums[i] == _per_root_sum(roots, i, prec)
    assert sums[3][1] == 0


def _paired_points(rng, prec, pairs, reals):
    # well-separated representatives: pairs in the upper half plane (twins)
    # and real points, all within |z| < 3
    pts = []
    while len(pts) < pairs + reals:
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2) if len(pts) < pairs else 0)
        if all(abs(z - w) > 0.1 and abs(z - w.conjugate()) > 0.1 for w in pts):
            pts.append(z)
    zs = [(int(Fraction(z.real) * 2 ** prec), int(Fraction(z.imag) * 2 ** prec)) for z in pts]
    return zs, [k < pairs for k in range(len(zs))]


def test_float_pair_sums_hold_their_bound():
    # every row of well-separated points is summed in float64, within the
    # bound it states of the exact sum (the floors add two units); a real
    # row's sum is exactly real
    prec = 150
    rng = random.Random(11)
    zs, twin = _paired_points(rng, prec, 12, 6)
    roots = zs + [(x, -y) for (x, y), t in zip(zs, twin) if t]
    active = [0, 1, 4, 5, 9, 12, 13, 17]
    sums, slack = rootfinder._float_pair_sums(zs, twin, active, prec, floor=1)
    assert sorted(sums) == sorted(slack) == active
    for i in active:
        sx, sy = _per_root_sum(roots, i, prec)
        bound = 1 << (slack[i] + prec)
        assert abs(sums[i][0] - sx) <= bound + 2 and abs(sums[i][1] - sy) <= bound + 2
        # the bound is a bound, not noise: within 2^-40 |S| of the sum
        assert bound < math.hypot(sx, sy) * 2 ** -40
    assert [sums[i][1] for i in (12, 13, 17)] == [0, 0, 0]


def test_rows_float64_cannot_separate_are_summed_exactly():
    # coincident approximations (parted by the floor offset), real points
    # 2^-100 apart (one float64) and 2^-45 apart (two), and a twin whose
    # y = 2^-1200 underflows float64: each such row is _pair_sums' own, bit
    # for bit, and the rest stay float
    prec = 1200
    rng = random.Random(7)
    zs, twin = _paired_points(rng, prec, 5, 3)
    one = 1 << prec
    zs += [(one // 3, 0), (one // 3, 0), (-one, 0), (-one + (one >> 100), 0),
           (one // 5, 0), (one // 5 + (one >> 45), 0), (one // 2, 1)]
    twin += [False] * 6 + [True]
    active = list(range(len(zs)))
    sums, slack = rootfinder._float_pair_sums(zs, twin, active, prec, floor=one >> 64)
    flagged = [i for i in active if i not in slack]
    assert flagged == list(range(8, 15))
    exact = rootfinder._pair_sums(zs, twin, active, prec, one >> 64)
    assert all(sums[i] == exact[i] for i in flagged)
    assert all(sums[i] != exact[i] for i in range(8))


def test_ill_conditioned_row_is_taken_again_in_fixed_point():
    # roots 0 and 3 with S_0 = -1/3, and a contrived Newton step N at 0 for
    # which 1 - N S = 2^-40: float64's error in S would move the step in
    # its 14th bit, so the row is summed again in fixed point first
    prec = 128
    one = 1 << prec
    n0 = -3 * one + (3 * one >> 40)

    def newton(x, y):
        return ((n0, 0) if x == 0 else (0, 0)), True

    zs = [(0, 0), (3 * one, 0)]
    sweeps, exact, rows = rootfinder._aberth_fixed(zs, [False, False], prec, one >> 64, 1, newton)
    assert (sweeps, exact, rows) == (None, 1, 2)
    s = rootfinder._pair_sums([(0, 0), (3 * one, 0)], [False, False], [0], prec, 1)[0]
    cx, cy = rootfinder._fixed_div(n0, 0, *rootfinder._one_minus(n0, 0, s, prec), prec)
    assert zs[0] == (-cx, -cy)
    float_s, _ = rootfinder._float_pair_sums([(0, 0), (3 * one, 0)], [False, False], [0], prec, 1)
    assert float_s[0] != s


def test_real_roots_stay_real_through_the_nudge():
    # z^2 - 1 from 0, its critical point, and 3: the nudge off 0 runs
    # along the axis, so both roots stay exactly real
    prec = 128
    one = 1 << prec
    zs = [(0, 0), (3 * one, 0)]
    it, _, _ = rootfinder._aberth_fixed(zs, [False, False], prec, one >> 40, 50,
                                        partial(reference.plain_newton, [-one, 0, one], prec))
    assert it is not None
    assert [y for _, y in zs] == [0, 0]
    assert abs(zs[0][0] + one) <= 2 and abs(zs[1][0] - one) <= 2


def test_real_zeros_carry_no_imaginary_dust():
    mon = laguerre.monic_rescaled(25, "-10.5")
    zset = rootfinder.find_zeros(mon, 256)
    real = [z for z in zset.zeros if mp.im(z) == 0]
    # 25 - 10 positive real zeros, exactly, with im == 0 after the snap
    assert sum(1 for z in real if mp.re(z) > 0) == 15
    genuine = [z for z in zset.zeros if mp.im(z) != 0]
    assert all(abs(mp.im(z)) > 1e-6 for z in genuine)


def test_zeros_come_back_in_exact_conjugate_pairs():
    # (96, -76.0000011): 20 positive zeros and 38 pairs (Szego, Thm 6.73);
    # each pair is iterated once, so the twins are exact conjugates
    zset = harness.compute_zeros(96, "-76.0000011")
    assert sum(1 for z in zset.zeros if z.imag == 0) == 20
    values = {(z.real, z.imag) for z in zset.zeros}
    with mp.workprec(zset.precision_bits):
        assert all((z.real, -z.imag) in values for z in zset.zeros)


def test_horner_calls_per_representative(monkeypatch):
    # (88, -71.2909) has 17 positive zeros, one negative and 35 pairs: 53
    # representatives, each evaluated at most once per pass: per sweep at
    # LOW_BITS, at each of the two lift levels (208, then the full 416
    # bits) and in the certificate, on the last level's ring words
    calls = []
    for name in ("_fixed_horner", "_quadratic_horner"):
        def counted(*args, evaluate=getattr(rootfinder, name)):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(rootfinder, name, counted)
    zset = harness.compute_zeros(88, "-71.2909", precision_bits=416)
    assert len(zset.zeros) == 88
    assert zset.precision_bits == 416
    assert len(calls) <= (zset.iterations + 4) * (88 + 18) // 2


@pytest.mark.parametrize("n, alpha, reps, roundings", [(88, "-71.2909", 53, 62),
                                                       (96, "-76.0000011", 58, 68)],
                         ids=["88", "96"])
def test_certificate_rounds_no_ring_of_its_own(monkeypatch, n, alpha, reps, roundings):
    # the certificate bounds each representative once, in its ring, on the
    # coefficients the lift rounded for its last word: no more ring
    # roundings than the sweeps and the lift take without it (62 and 68),
    # and one complex Horner pass per representative (17 + 1 + 35 and
    # 20 + 38, Szego's real split)
    calls = Counter()
    for mod, name in ((rootfinder, "_fixed_horner"), (tropical, "_scaled_coefficients")):
        def counted(*args, evaluate=getattr(mod, name), name=name):
            calls[name] += 1
            return evaluate(*args)

        monkeypatch.setattr(mod, name, counted)
    zset = harness.compute_zeros(n, alpha)
    assert len(zset.zeros) == n and zset.suspect == ()
    assert calls["_fixed_horner"] == reps
    assert calls["_scaled_coefficients"] <= roundings


def test_certificate_horner_matches_the_derivative_pass():
    # the certificate's P-only Horner gives P bit for bit as the complex
    # P-and-P' pass, and on the real axis the kernel's real pass gives both
    rng = random.Random(3)
    prec = 200
    cs = [rng.randint(-1 << (prec + 8), 1 << (prec + 8)) for _ in range(30)] + [1 << prec]
    for y in (0, rng.randint(1, 1 << prec)):
        x = rng.randint(-2 << prec, 2 << prec)
        full = reference.complex_horner(cs, x, y, prec)
        assert rootfinder._fixed_horner(cs, x, y, prec) == full[:2]
    assert rootfinder._quadratic_horner(cs, x, 0, prec) == reference.complex_horner(cs, x, 0, prec)


def _horner_bounds(coeffs, fixed, prec):
    # a complex Horner pass on P's coefficients rounded to prec bits, as a
    # residual bound on those words: (|P~(z)| + 1 + 2 (n + 1)
    # max(1, |z|)^n) / max(1, |z|)^n in 2^-prec units, rounded up
    n, out = len(coeffs) - 1, []
    cs = [round(c * (1 << prec)) for c in coeffs]
    for x, y in fixed:
        px, py = reference.complex_horner(cs, x, abs(y), prec)[:2]
        bound, m = math.isqrt(px * px + py * py) + 1, math.isqrt(x * x + y * y)
        if m >> prec:
            bound = -(-(bound << (n * prec)) // m ** n)
        out.append(bound + 2 * (n + 1))
    return out


@pytest.mark.parametrize("n, alpha, few", [(88, "-71.2909", 218), (96, "-76.0000011", 254)],
                         ids=["88", "96"])
def test_certificate_matches_the_full_distance_matrix(n, alpha, few):
    # one log |z_i - z_j| per conjugate orbit gives the radii and suspect
    # set of every distance taken on its own, bit for bit: at the returned
    # zeros, and at them cut to few bits, where some neighbouring disks
    # meet and others do not (with a tolerance of 1 for the radii)
    zset = harness.compute_zeros(n, alpha)
    coeffs = laguerre.monic_rescaled(n, alpha)
    prec = zset.precision_bits + rootfinder._guard_bits(coeffs) + 16
    fixed = rootfinder._to_fixed(zset.zeros, prec)
    for bits, log_tol in ((prec, -(zset.precision_bits // 2) * math.log(2)), (few, 0.0)):
        # cut toward 0, so that exact conjugates stay exact
        cut = [(x >> (prec - bits), (abs(y) >> (prec - bits)) * (1 if y >= 0 else -1))
               for x, y in fixed]
        bounds = _horner_bounds(coeffs, cut, bits)
        log_r, suspect = rootfinder._certificate(cut, bits, bounds, bits, log_tol)
        assert (log_r, suspect) == reference.certificate_radii(cut, bounds, bits, log_tol)
    assert 0 < len(suspect) < n


def test_integer_case_rounds_every_part_correctly():
    # (112, -89) leaves 23 real zeros that lose 40-56 bits to cancellation:
    # with the coefficients widened by it, each of the 46 parts at 512 bits
    # is a 1024-bit run's rounded to 512 bits
    zset = harness.compute_zeros(112, "-89", precision_bits=512)
    ref = harness.compute_zeros(112, "-89", precision_bits=1024)
    assert zset.precision_bits == 512 and len(zset.zeros) == 23
    with mp.workprec(512):
        assert [(z.real, z.imag) for z in zset.zeros] == \
            [(+w.real, +w.imag) for w in ref.zeros]


@pytest.mark.parametrize("n, alpha", [
    (88, "-71.2909"),
    (96, "-76.0000011"),
    (80, "-63.9" + "9" * 99),
], ids=["88", "96", "80-small-loop"])
def test_lift_matches_full_precision_sweeps(monkeypatch, n, alpha):
    # sweeps at LOW_BITS plus the Newton lift print the same doubles as the
    # sweeps at the full working precision from the same seeds, followed by
    # one full-precision Newton step per root
    find, runs = rootfinder.find_zeros, []

    def spy(coeffs, bits, **kwargs):
        runs.append((coeffs, bits, kwargs["seeds"]))
        return find(coeffs, bits, **kwargs)

    monkeypatch.setattr(rootfinder, "find_zeros", spy)
    zset = harness.compute_zeros(n, alpha)
    (coeffs, bits, seeds), = runs
    assert bits > rootfinder.LOW_BITS
    assert zset.suspect == ()

    prec = bits + rootfinder._guard_bits(coeffs) + 16
    cs = [round(c * (1 << prec)) for c in coeffs]
    with mp.workprec(bits):
        reps, twin = rootfinder._conjugate_classes([mp.mpc(s) for s in seeds])
        fixed = rootfinder._to_fixed(reps, prec)
        tol = 1 << (prec - bits // 2)  # 2^-(bits // 2), as find_zeros derives it
        newton = partial(reference.plain_newton, cs, prec)
        sweeps, _, _ = rootfinder._aberth_fixed(fixed, twin, prec, tol, rootfinder.MAX_ITERATIONS,
                                                newton)
        assert sweeps is not None
        for i, (x, y) in enumerate(fixed):
            step, _ = newton(x, y)
            if step is not None:
                fixed[i] = (x - step[0], y - step[1])
        fixed += [(x, -y) for (x, y), t in zip(fixed, twin) if t]
        ref = sorted((float(mp.mpf((x, -prec))), float(mp.mpf((y, -prec))))
                     for x, y in fixed)
    assert sorted((float(z.real), float(z.imag)) for z in zset.zeros) == ref


def test_ladder_escalates_on_zeros_128_bits_cannot_separate(caplog):
    # 1 and 1 + 2^-100: 148-bit words move a double zero by about 2^-72,
    # so a 128-bit run returns them 3.6e-21 either side of 1, both suspect;
    # the ladder's 128-bit pass fails its lift and the 256-bit pass parts them
    mon = _expand([Fraction(1), 1 + Fraction(1, 2 ** 100), Fraction(-1, 2),
                   Fraction(3, 2), Fraction(-2)])
    low = rootfinder.find_zeros(mon, 128)
    assert low.suspect == (2, 3)
    assert abs(low.zeros[3] - low.zeros[2]) > 2 ** -70

    caplog.set_level(logging.DEBUG, logger=rootfinder.__name__)
    zset = rootfinder.find_zeros(mon, 320)
    assert any(r.getMessage().startswith("escalating from 128 bits")
               for r in caplog.records)
    assert zset.suspect == ()
    assert all(z.imag == 0 for z in zset.zeros)
    assert _polyroots_gap(mon, zset.zeros, 640, 400) <= mp.mpf(2) ** -200
    with mp.workprec(320):
        gap = zset.zeros[3] - zset.zeros[2]
        assert abs(gap - mp.mpf(2) ** -100) <= mp.mpf(2) ** -200


def test_exact_zero_on_a_short_word_is_not_sized():
    # zeros 1/2 and 1/2 + 2^-30 cancel about 29 bits of Q'(w) at w = 1 in
    # the ring of 1/2, which no evaluation has measured yet: its 88-bit word
    # for 64 bits is short, though Q(w) comes out exactly 0 there. A sweep's
    # step stands but is not sized; a final one is taken again on the
    # widened word, where it is
    mon = _expand([Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2 ** 30), Fraction(-1)])
    prec = 128
    rings = tropical.Rings(rootfinder._rounded(mon, prec), prec, tropical.hull(mon))
    x = 1 << (prec - 1)
    j = rings.ring(x, 0, prec)
    a, t = rings.scale(j)
    assert rings.cancellation == {}
    word, _, _, step, sized = rootfinder._ring_newton(rings, j, 64, x, 0, prec - t, a, False)
    assert (word, step, sized) == (88, (0, 0), False)
    word, _, _, step, sized = rootfinder._ring_newton(rings, j, 64, x, 0, prec - t, a, True)
    assert (word, step, sized) == (112, (0, 0), True)


def test_stage_boundaries_are_logged(caplog):
    caplog.set_level(logging.DEBUG, logger=rootfinder.__name__)
    harness.compute_zeros(40, "-32.3564")
    msgs = [r.getMessage() for r in caplog.records if r.name == rootfinder.__name__]
    assert msgs[:2] == ["5 sweeps at 128 bits (16 rings, 152-176-bit words, "
                        "0 of 115 rows in fixed point)",
                        "lifted to 256 bits in 1 Newton levels (280-304-bit words)"]
    # each zero is bounded in its ring, on the lift's last word
    assert msgs[2].startswith("certificate at 280-304-bit words: worst log radius ")
    assert msgs[2].endswith(", 0 suspect")
    assert len(msgs) == 3


@pytest.mark.parametrize("n, alpha", [(88, "-71.2909"), (96, "-76.0000011")])
def test_lift_starts_from_the_sweeps_bits(caplog, n, alpha):
    # a root frozen after a step of at most 2^-64 holds about 128 bits, so
    # one Newton level takes it to 256, and nothing escalates or retries
    caplog.set_level(logging.DEBUG, logger="lagzero")
    harness.compute_zeros(n, alpha)
    msgs = [r.getMessage() for r in caplog.records]
    assert sum(m.startswith("lifted to 256 bits in 1 Newton levels ") for m in msgs) == 1
    assert not [m for m in msgs if m.startswith(("escalating", "retrying"))]


def test_import_leaves_logging_unloaded():
    # the records go nowhere until a caller imports logging, and importing
    # it would add to the start-up of every command
    src = os.path.dirname(os.path.dirname(lagzero.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lagzero.cli; print('logging' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are NamedTuples and a __slots__ class: dataclasses would
    # load inspect, dis, ast and tokenize in every command's start-up
    src = os.path.dirname(os.path.dirname(lagzero.__file__))
    script = "import sys, lagzero.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False False\n"


def test_commands_leave_numpy_unloaded():
    # every command runs in a fresh process, and importing numpy would
    # cost each more start-up than most of them spend computing
    src = os.path.dirname(os.path.dirname(lagzero.__file__))
    script = """
import contextlib, io, sys
import lagzero.cli as cli
print('numpy' in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["betas", "--A", "0.81"],
                 ["contour", "--A", "0.81", "--r", "1"],
                 ["zeros", "--n", "12", "--alpha", "-9.6"],
                 ["verify", "--n", "12", "--alpha", "-9.6"],
                 ["verify", "--n", "12", "--alpha", "-9"],
                 ["asymp", "--n", "12", "--alpha", "-9.6", "--regime", "nth_root",
                  "--r", "0.5", "--points=3+1j"],
                 ["asymp", "--n", "12", "--alpha", "-9.6", "--regime", "outer",
                  "--points=3+1j"]):
        assert cli.main(argv) == 0, argv
print('numpy' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\nFalse\n"


def test_conjugate_pairing():
    mon = laguerre.monic_rescaled(12, "-9.6")
    zset = rootfinder.find_zeros(mon, 256)
    with mp.workprec(256):
        key = lambda w: (float(mp.re(w)), float(mp.im(w)))  # noqa: E731
        pts = sorted(zset.zeros, key=key)
        mirrored = sorted((mp.conj(z) for z in zset.zeros), key=key)
        assert all(abs(a - b) < mp.mpf(2) ** -70 for a, b in zip(pts, mirrored))


def test_origin_multiplicity_bookkeeping():
    coeffs = (Fraction(0),) * 5 + (Fraction(-1), Fraction(1))  # z^5 (z - 1)
    zset = rootfinder.find_zeros(coeffs, 128)
    assert zset.origin_multiplicity == 5
    assert len(zset.zeros) + zset.origin_multiplicity == 6
    assert len(zset.zeros) == 1


def test_seed_count_must_match_degree():
    coeffs = _wilkinson(3)
    with pytest.raises(ValueError):
        rootfinder.find_zeros(coeffs, 128, seeds=[mp.mpc(1)])


def test_non_monic_polynomial_is_refused():
    # a ValueError, not an assert, so that python -O refuses it too
    coeffs = tuple(2 * c for c in _wilkinson(3))
    with pytest.raises(ValueError, match="monic"):
        rootfinder.find_zeros(coeffs, 128)


def test_max_iterations_raises(monkeypatch):
    coeffs = _wilkinson(8)
    monkeypatch.setattr(rootfinder, "MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergence):
        rootfinder.find_zeros(coeffs, 256)


def test_clean_roots_are_isolated():
    # the radii meet the tolerance find_zeros derives, 2^-(256 // 2)
    coeffs = _wilkinson(5)
    tol = mp.mpf(2) ** -128
    zset = rootfinder.find_zeros(coeffs, 256)
    assert zset.suspect == ()
    assert len(zset.zeros) + zset.origin_multiplicity == 5
    radii = [mp.exp(r) for r in zset.log_radii]
    assert len(radii) == 5
    assert all(0 < r <= tol * max(1, abs(z)) for r, z in zip(radii, zset.zeros))


_EDGE = 1 + Fraction(1, 2 ** 200)


def _ring_edges(middle):
    # zeros 2^-200 past the outer edges 1/2, 2 and 4 of their rings (n <= 8:
    # one ring per octave), and the pair of z^2 + middle z + 4 e^2, as far
    # past the edge 2
    e = _EDGE
    real = _expand([e / 2, 2 * e, 4 * e, Fraction(-3), Fraction(5, 4)])
    quad = (4 * e * e, middle, Fraction(1))
    return tuple(sum(quad[j] * real[k - j] for j in range(3) if 0 <= k - j < len(real))
                 for k in range(len(real) + 2))


def _sound_case(name):
    if name == "wilkinson6":
        mon = _wilkinson(6)
        return mon, rootfinder.find_zeros(mon, 256)
    if name == "compute_zeros":
        zset = harness.compute_zeros(40, "-31.99999886")
        return laguerre.monic_rescaled(40, "-31.99999886"), zset
    if name == "ring-edges":
        # the pair (6 +- 8i) e / 5, of modulus 2e
        mon = _ring_edges(-Fraction(12, 5) * _EDGE)
        return mon, rootfinder.find_zeros(mon, 256)
    n, alpha = name
    mon = laguerre.monic_rescaled(n, alpha)
    return mon, rootfinder.find_zeros(mon, 256)


@pytest.mark.parametrize("name", ["wilkinson6", (12, "-9.6"), (25, "-10.5"),
                                  "compute_zeros", "ring-edges"],
                         ids=["wilkinson6", "12,-9.6", "25,-10.5", "40,-31.99999886",
                              "ring-edges"])
def test_inclusion_disks_hold_the_zeros(name):
    # each disk holds a zero of P: the polyroots zero nearest to z_i, 64
    # bits past the working precision, lies within radii[i] of it. The
    # residual bounds come from each zero's ring (rootfinder._certify); the
    # ring-edges zeros are swept inside their rings' outer edges and lifted
    # past them, so each is bounded in the next ring out
    mon, zset = _sound_case(name)
    bits = zset.precision_bits + 64
    with mp.workprec(bits):
        ref = mp.polyroots(
            [mp.mpf(f.numerator) / f.denominator for f in reversed(mon)],
            maxsteps=400, extraprec=128)
        radii = [mp.exp(r) for r in zset.log_radii]
        for z, r in zip(zset.zeros, radii):
            assert min(abs(w - z) for w in ref) <= r
        for i, (z, r) in enumerate(zip(zset.zeros, radii)):
            for w, s in zip(zset.zeros[:i], radii[:i]):
                assert abs(z - w) > r + s
    assert zset.suspect == ()


def test_a_zero_past_a_rounding_midpoint_waits_for_its_double():
    # 1 + 2^-53 is the midpoint between the doubles 1 and 1 + 2^-52, and
    # prints as 1.0 (ties to even). The zero 2^-300 past it comes back at
    # 256 bits as that midpoint, whose disk reaches both doubles: suspect,
    # though it meets no other disk. At 512 bits the disk lies above the
    # midpoint, and the double printed is the zero's
    mon = _expand([1 + Fraction(1, 2 ** 53) + Fraction(1, 2 ** 300), Fraction(-1, 2),
                   Fraction(3, 2), Fraction(-2)])
    low = rootfinder.find_zeros(mon, 256)
    assert repr(complex(low.zeros[2]).real) == "1.0"
    with mp.workprec(256):
        assert low.zeros[2].real == 1 + mp.mpf(2) ** -53
    assert low.suspect == (2,)
    high = rootfinder.find_zeros(mon, 512)
    assert repr(complex(high.zeros[2]).real) == "1.0000000000000002"
    assert high.suspect == ()


def test_noise_in_a_zero_part_is_suspect():
    # +-2ie: P is real and not even, so nothing proves their real part 0,
    # and from unpaired seeds a 256-bit run returns it as 1.03e-84, inside
    # disks that meet no other but reach past 0; no disk fixes that
    # printed double, so both zeros are suspect. At 384 bits the real
    # parts come back exactly 0, and nothing is
    mon = _ring_edges(Fraction(0))
    zset = rootfinder.find_zeros(mon, 256)
    assert zset.suspect == (1, 2)
    with mp.workprec(256):
        radii = [mp.exp(r) for r in zset.log_radii]
        for i in zset.suspect:
            z, r = zset.zeros[i], zset.log_radii[i]
            assert 0 < abs(z.real) < radii[i] and complex(z).imag in (-2.0, 2.0)
            assert all(abs(z - w) > radii[i] + s
                       for j, (w, s) in enumerate(zip(zset.zeros, radii)) if j != i)
            assert not rootfinder.fixes_double(z, r)
            assert rootfinder.fixes_double(mp.mpc(0, z.imag), r)
    zset = rootfinder.find_zeros(mon, 384)
    assert zset.suspect == ()
    assert [complex(z).real for z in zset.zeros[1:3]] == [0.0, 0.0]


# the old ceil(n A) layout for (60, -45.25): 46 loop seeds at trapezoid-CDF
# quantiles (j + 1/2)/k of a predictor-corrector Gamma_0.0231 polyline,
# mirror images only to float64 rounding, then 14 interval quantiles;
# frozen as doubles so that the test does not follow the tracer's vertices
_TRAPEZOID_LAYOUT_SEEDS = (
    (-0.10304827164051325, 0.005809492667167232), (-0.10195663029047086, 0.017396546512077973),
    (-0.09977115232697306, 0.028887380149202373), (-0.09648743486783566, 0.04021641732278558),
    (-0.09209826756900538, 0.051315745640306824), (-0.08659462361861937, 0.06211431125471963),
    (-0.07996431820147182, 0.0725364821564671), (-0.0721925146760853, 0.0825008303000146),
    (-0.06326161432253713, 0.09191861895034291), (-0.05314995013843978, 0.10069128385906431),
    (-0.04183241045363856, 0.10870834549739869), (-0.029279162434070836, 0.11584366779086326),
    (-0.015454868031797188, 0.12195084347805003), (-0.0003176382157140354, 0.12685690056910143),
    (0.016182350111360305, 0.1303535220722811), (0.0341058689135442, 0.13218295376200956),
    (0.05352788345672153, 0.13201743194360968), (0.07454374334800012, 0.1294241891133199),
    (0.09727916879189169, 0.12380395708640902), (0.12190929351237655, 0.11426844137036943),
    (0.1486958468594199, 0.09935972240812747), (0.17805814955535929, 0.07622439697163866),
    (0.21029748463983874, 0.036632572592739894), (0.21029748463983775, -0.036632572592741594),
    (0.17805814955535815, -0.07622439697163974), (0.1486958468594198, -0.09935972240812754),
    (0.12190929351237595, -0.1142684413703697), (0.09727916879189129, -0.12380395708640915),
    (0.07454374334800086, -0.12942418911331977), (0.053527883456723456, -0.13201743194360954),
    (0.03410586891354743, -0.1321829537620097), (0.01618235011136409, -0.13035352207228168),
    (-0.00031763821570973146, -0.12685690056910257), (-0.01545486803179306, -0.12195084347805163),
    (-0.02927916243406711, -0.11584366779086515), (-0.041832410453635505, -0.10870834549740063),
    (-0.0531499501384372, -0.10069128385906634), (-0.06326161432253513, -0.09191861895034482),
    (-0.07219251467608383, -0.08250083030001631), (-0.07996431820147058, -0.07253648215646885),
    (-0.08659462361861847, -0.06211431125472119), (-0.09209826756900469, -0.051315745640308365),
    (-0.09648743486783513, -0.04021641732278713), (-0.09977115232697273, -0.02888738014920377),
    (-0.10195663029047071, -0.017396546512079118), (-0.10304827164051322, -0.005809492667167732),
    (0.32138807858855645, 0.0), (0.4106095304843952, 0.0),
    (0.494724739924848, 0.0), (0.5802514323059167, 0.0),
    (0.6694508290827892, 0.0), (0.7637366533325411, 0.0),
    (0.8643404794285257, 0.0), (0.9725844236974588, 0.0),
    (1.0900930162853788, 0.0), (1.2190730940375079, 0.0),
    (1.3628229673175127, 0.0), (1.5268911833545227, 0.0),
    (1.7225236608683616, 0.0), (1.9841599666566423, 0.0),
)


@pytest.mark.parametrize("bits", [224, 256])
def test_guardless_run_flags_its_wrong_zeros(monkeypatch, bits):
    # without guard bits the smallest coefficients of (60, -45.25) lose
    # most of their digits: from the seeds above the sweep still
    # converges, with residuals far below tol, to zeros wrong by far more
    # than tol (up to 1.5e-27 against 1.9e-34 at 224 bits)
    ref = harness.compute_zeros(60, "-45.25", precision_bits=512)
    seeds = [mp.mpc(*z) for z in _TRAPEZOID_LAYOUT_SEEDS]
    coeffs = laguerre.monic_rescaled(60, "-45.25")
    drop = rootfinder._guard_bits(coeffs) + 16

    class StarvedRings(tropical.Rings):
        # the scaled words rounded from coefficients held to
        # 2^-precision_bits, as if with no guard bits; the certificate
        # reads the same rings, and its term for the rounding of cs, sized
        # by their prec, is what flags the wrong zeros
        def __init__(self, cs, prec, hull):
            super().__init__([c >> drop for c in cs], prec - drop, hull)

        def widen(self, cs, prec):
            # nor the bits find_zeros adds for the cancellation it measures,
            # which alone would part these zeros correctly
            pass

    monkeypatch.setattr(tropical, "Rings", StarvedRings)
    tol = mp.mpf(2) ** -(bits // 2)
    zset = rootfinder.find_zeros(coeffs, bits, seeds=seeds)
    with mp.workprec(512):
        wrong = [i for i, z in enumerate(zset.zeros)
                 if min(abs(w - z) for w in ref.zeros) > tol * max(1, abs(z))]
    assert len(wrong) > 10
    assert set(wrong) <= set(zset.suspect)
    # the certificate reads the starved rings: each residual carries their
    # rounding of cs, (n + 1) 2^-(prec + 1) at their prec = bits
    assert min(zset.residuals) >= 61 * mp.mpf(2) ** -(bits + 1)
    # compute_zeros retries a suspect (or unconverged) first pass
    got = harness.compute_zeros(60, "-45.25", precision_bits=bits)
    with mp.workprec(512):
        assert all(min(abs(w - z) for w in ref.zeros) <= tol * max(1, abs(z))
                   for z in got.zeros)


@pytest.mark.parametrize("n, alpha, bits", [(88, "-71.2909", 416), (96, "-76.0000011", 584)],
                         ids=["88", "96"])
def test_scaled_horner_is_within_its_bound(n, alpha, bits):
    # in Q's units at |w| <= 1, against the exact P: the certificate's
    # complex Horner is off by at most 2 (n + 1) 2^-W, and the kernel's
    # division by the real quadratic by 2 (n + 1) + 1 units in Q(w) and
    # (n + 1)^2 (1 + n/1536) + 2 in Q'(w), the bounds _quadratic_horner
    # derives; near the real axis (arg w down to 1e-12), anywhere in the
    # disk and next to |w| = 1, in rings from the loop to the top of the
    # interval, on the words of the sweeps and of the first lift level.
    # The seeded dyadic points are checked against laguerre.evaluate; at
    # them |w|^2 fits the word, so full-word points, where it does not,
    # are checked against mpmath at four times the bits
    coeffs = laguerre.monic_rescaled(n, alpha)
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    first = -(-bits >> (math.ceil(math.log2(bits / rootfinder.LOW_BITS)) - 1))
    prec = bits + rootfinder._guard_bits(coeffs) + 16
    rings = tropical.Rings([round(c * (1 << prec)) for c in coeffs], prec,
                           tropical.hull(coeffs))
    rng = random.Random(n)

    def check(q, wx, wy, word, m, s, exact, slope):
        unit = mp.mpf(2) ** (m - word)
        px, py = rootfinder._fixed_horner(q, wx, wy, word)
        assert abs(mp.mpc(px, py) * unit - exact) <= 2 * (n + 1) * unit
        px, py, dx, dy = rootfinder._quadratic_horner(q, wx, wy, word)
        assert abs(mp.mpc(px, py) * unit - exact) <= (2 * (n + 1) + 1) * unit
        # Q'(w) = s P'(s w) 2^-m
        assert abs(mp.mpc(dx, dy) * unit / s - slope) <= \
            ((n + 1) ** 2 * (1 + mp.mpf(n) / 1536) + 2) * unit / s

    for modulus in (0.11, 0.16, 0.2, 0.45, 1.0, 1.7):
        j = rings.ring(round(modulus * 2 ** 60), 0, 60)
        for acc in (rootfinder.LOW_BITS, first):
            word = rings.word(j, acc)
            a, t, m, q = rings.coefficients(j, word)
            # the guarded coefficients' own rounding stays below 2^-8 of
            # a unit of Q's last place, so P's exact values stand for them
            assert word - prec + max(0, -m) + (n + 1).bit_length() <= -8
            for k in range(12):
                # w = (u + i v 2^-e) 2^-36; s w is exact in doubles (a has 16 bits)
                e = 0
                if k % 3 == 0:
                    e = (20, 30, 40, 40)[k // 3]
                    u, v = (rng.randint(2 ** 35, 2 ** 36) for _ in range(2))
                    u *= rng.choice((-1, 1))
                elif k % 3 == 1:
                    while True:
                        u, v = (rng.randint(-2 ** 36, 2 ** 36) for _ in range(2))
                        v = v if k > 1 else 0
                        if u * u + v * v <= 2 ** 72:
                            break
                else:
                    theta = rng.uniform(0, 2 * math.pi)
                    u, v = (math.floor(2 ** 36 * f(theta)) for f in (math.cos, math.sin))
                z = complex(math.ldexp(a * u, -36 - t), math.ldexp(a * v, -36 - e - t))
                with mp.workprec(3 * prec):
                    check(q, u << (word - 36), v << (word - 36 - e), word, m,
                          mp.mpf(a) * mp.mpf(2) ** -t, *laguerre.evaluate(coeffs, [z]),
                          *laguerre.evaluate(deriv, [z]))
            for k in range(6):
                # every bit of the word random, at arg w from 1e-12 on
                theta = rng.uniform(1e-12, 1e-9) if k % 2 else rng.uniform(0, math.pi)
                r = 1 - 2.0 ** -40 if k > 3 else rng.uniform(0.5, 1)
                wx, wy = ((math.floor(r * f(theta) * 2 ** 60) << (word - 60))
                          + rng.randrange(1 << (word - 60)) for f in (math.cos, math.sin))
                with mp.workprec(4 * prec):
                    s = mp.mpf(a) * mp.mpf(2) ** -t
                    z = mp.mpc(wx, wy) * mp.mpf(2) ** -word * s
                    check(q, wx, wy, word, m, s,
                          *(mp.polyval([mp.mpf(c.numerator) / c.denominator
                                        for c in reversed(cs)], z) for cs in (coeffs, deriv)))


@pytest.mark.parametrize("n, alpha", [(88, "-71.2909"), (96, "-76.0000011")],
                         ids=["88", "96"])
def test_ring_certificate_bound_holds(n, alpha):
    # rootfinder._certify's bound on |P(z)| / max(1, |z|)^n, in 2^-(prec + 1)
    # units, against P's exact value (laguerre.evaluate at double points,
    # mpmath at four times the bits at the zeros): it holds, and it exceeds
    # the value by at most twice its own slack, plus n 2^-62 of it where
    # |z| > 1 (max(1, |z|)^n is taken on 64-bit factors). The points: near the real
    # axis (arg z down to 1e-12), anywhere in rings from the loop to the top
    # of the interval, at |w| = 1 (w = +-1, +-i, exact), where w = z/s is
    # floored (every other point), at the returned zeros, where |Q(w)| is
    # mostly far below the slack, which then carries the bound, and outside
    # the ring they are certified in: those are bounded in their own ring,
    # which keeps no rounding afterwards
    coeffs = laguerre.monic_rescaled(n, alpha)
    zset = harness.compute_zeros(n, alpha)
    bits = zset.precision_bits
    prec = bits + rootfinder._guard_bits(coeffs) + 16
    rings = tropical.Rings([round(c * (1 << prec)) for c in coeffs], prec,
                           tropical.hull(coeffs))
    rng = random.Random(n)
    # (z, exact |P(z)|, the ring z is certified in, the ring it is bounded in)
    points = []
    for modulus in (0.11, 0.16, 0.2, 0.45, 1.0, 1.7):
        j = rings.ring(round(modulus * 2 ** 60), 0, 60)
        a, t = rings.scale(j)
        s = math.ldexp(a, -t)
        zs = [complex(s * u, s * v) for u, v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        for k in range(8):
            r = s * 2 ** -(1 / rings.per_octave) * rng.uniform(
                1, 1.01 if k < 4 else 2 ** (1 / rings.per_octave))
            theta = rng.uniform(1e-12, 1e-9) if k % 2 else rng.uniform(0, math.pi)
            zs.append(complex(r * math.cos(theta), r * math.sin(theta)))
        # two mid-ring points certified one ring in, past its s
        zs += [complex(0.96 * s * math.cos(theta), 0.96 * s * math.sin(theta))
               for theta in (rng.uniform(0, math.pi), rng.uniform(0, math.pi))]
        for k, z in enumerate(zs):
            with mp.workprec(3 * prec):
                value = abs(laguerre.evaluate(coeffs, [z])[0])
            points.append((mp.mpc(z), value, j - (k >= 12), j))
    with mp.workprec(4 * prec):
        cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        for z in zset.zeros[::4]:
            j = rings.ring(*rootfinder._to_fixed([z], 2 * bits)[0], 2 * bits)
            points.append((z, abs(mp.polyval(cs, z)), j, j))
    for z, value, j, own in points:
        ((x, y),), e = rootfinder._exact_fixed([(z.real._mpf_, z.imag._mpf_)])
        with mp.workprec(bits):
            w, word, bound = rootfinder._certify(rings, j, x, y, e, bits)
        assert w == z
        assert word == rings.word(own, bits)
        if j != own:
            assert own not in rings.rounded
        m = rings.coefficients(own, word)[2]
        with mp.workprec(4 * prec):
            big = max(1, abs(z)) ** n
            got = mp.ldexp(bound, -(prec + 1))
            slack = (mp.ldexp(2 * (n + 1) + 3 * n * (n + 1) // 2 + 2, m - word) / big
                     + mp.ldexp(n + 2, -(prec + 1)))
            assert value / big <= got <= value / big * (1 + mp.ldexp(n, -62)) + 2 * slack


@pytest.mark.parametrize("n, alpha", [(40, "5.5"), (40, "-50.3"), (41, "-50.3"),
                                      (12, "-9.6"), (25, "-10.5"), (20, "0"),
                                      (8, "-8.5"), (9, "-9.01")])
def test_newton_polygon_seeds_follow_the_real_zeros(n, alpha):
    # exact conjugate pairs, and as many real seeds on each side of 0 as
    # the polynomial has real zeros there, so that the paired sweeps can
    # reach every zero
    real = laguerre.real_zero_split(n, alpha)
    seeds = rootfinder.initial_guesses(laguerre.monic_rescaled(n, alpha), real)
    assert len(seeds) == n
    on_axis = [z.real for z in seeds if z.imag == 0]
    _, twin = rootfinder._conjugate_classes(seeds)
    assert 2 * sum(twin) == n - len(on_axis)
    assert (sum(1 for x in on_axis if x > 0), sum(1 for x in on_axis if x < 0)) == real


@pytest.mark.parametrize("n, alpha", [(n, a) for n in (1, 2, 5, 8, 9) for a in (
    "0.5", "-0.5", "-1", "-2.5", f"-{n - 1}.999", f"-{n}", f"-{n}.5", f"-{n + 1}",
    f"-{n + 1}.5", f"-{3 * n}.3")])
def test_real_zero_split_counts_the_real_zeros(n, alpha):
    # Szego's split against the zeros mp.polyroots finds, away from the origin
    mon = laguerre.monic_rescaled(n, alpha)
    mon = mon[next(k for k, c in enumerate(mon) if c):]
    with mp.workprec(400):
        roots = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(mon)],
                             maxsteps=400, extraprec=800) if len(mon) > 1 else []
        real = [mp.re(z) for z in roots if abs(mp.im(z)) < mp.mpf(2) ** -200]
    assert laguerre.real_zero_split(n, alpha) == (sum(1 for x in real if x > 0),
                                                  sum(1 for x in real if x < 0))


def test_seeds_split_a_pair_for_a_missing_real_zero():
    # the hull of this polynomial holds one real binomial root for its
    # three negative zeros: a pair becomes two real seeds, and the paired
    # sweeps reach every zero from them
    pairs = [(Fraction(-7, 4), Fraction(11, 4)), (Fraction(11, 3), Fraction(3)),
             (Fraction(19, 3), Fraction(8))]
    real = [Fraction(-23, 3), Fraction(-13), Fraction(-23, 7)]
    mon = _expand(real)
    for a, b in pairs:
        quadratic = (a * a + b * b, -2 * a, Fraction(1))
        mon = tuple(sum(mon[i] * quadratic[k - i] for i in range(len(mon))
                        if 0 <= k - i < 3) for k in range(len(mon) + 2))
    seeds = rootfinder.initial_guesses(mon, (0, 3))
    on_axis = [z.real for z in seeds if z.imag == 0]
    assert len(on_axis) == 3 and all(x < 0 for x in on_axis)
    zset = rootfinder.find_zeros(mon, 256, seeds=seeds)
    assert zset.suspect == ()
    with mp.workprec(256):
        q = lambda f: mp.mpf(f.numerator) / f.denominator  # noqa: E731
        want = sorted([mp.mpc(q(x)) for x in real]
                      + [mp.mpc(q(a), s * q(b)) for a, b in pairs for s in (1, -1)],
                      key=rootfinder._sorted_key)
        assert all(abs(z - w) <= mp.mpf(2) ** -120 for z, w in zip(zset.zeros, want))
    with pytest.raises(ValueError):
        rootfinder.initial_guesses(mon, (0, 2))


def test_nonconvergence_message_is_short(monkeypatch):
    # the worst residual prints to three digits, not to the working precision
    monkeypatch.setattr(rootfinder, "MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergence) as info:
        rootfinder.find_zeros(_wilkinson(8), 256)
    message = str(info.value)
    assert message.startswith("no convergence after 2 iterations (worst residual ")
    assert len(message) < 64


def test_determinism():
    mon = laguerre.monic_rescaled(15, "-12.3")
    a = rootfinder.find_zeros(mon, 256)
    b = rootfinder.find_zeros(mon, 256)
    assert a.zeros == b.zeros
    assert a.residuals == b.residuals


def test_initial_guesses_circle_fallback():
    coeffs = (Fraction(-2 ** 7),) + (Fraction(0),) * 6 + (Fraction(1),)
    guesses = rootfinder.initial_guesses(coeffs)
    assert len(guesses) == 7
    assert len(set(guesses)) == 7


@pytest.mark.parametrize("coeffs", [_wilkinson(6), laguerre.monic_rescaled(8, "-8.5")],
                         ids=["wilkinson6", "8,-8.5"])
def test_seeds_without_a_real_count_run_unpaired(coeffs):
    # no seed is real and none has its conjugate among the seeds, so the
    # kernel runs each on its own and may move it onto or off the axis
    seeds = rootfinder.initial_guesses(coeffs)
    assert all(z.imag != 0 for z in seeds)
    reps, twin = rootfinder._conjugate_classes(seeds)
    assert reps == seeds and not any(twin)
    zset = rootfinder.find_zeros(coeffs, 256)
    assert zset.suspect == ()
