"""Aberth iteration checked against mpmath.polyroots and hand-built polynomials."""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import phase_quadrature
from lagzero import harness, laguerre, landscape, measure, rootfinder
from lagzero.errors import NonConvergence
from lagzero.laguerre import CoefficientList, LaguerreSpec


def _from_fractions(exact, bits):
    with mp.workprec(bits):
        coeffs = tuple(mp.mpf(f.numerator) / f.denominator for f in exact)
    return CoefficientList(coeffs=coeffs, exact=tuple(exact), precision_bits=bits)


def _wilkinson(k):
    # prod_{j=1..k} (z - j), expanded exactly
    poly = [Fraction(1)]
    for j in range(1, k + 1):
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= j * poly[i + 1]
    return poly


def test_recovers_integer_roots():
    coeffs = _from_fractions(_wilkinson(6), 256)
    zset = rootfinder.find_zeros(coeffs, 256, mp.mpf(2) ** -80)
    assert zset.count == 6
    with mp.workprec(256):
        for j, z in enumerate(sorted(zset.zeros, key=lambda w: mp.re(w)), start=1):
            assert abs(z - j) <= mp.mpf(2) ** -70
            assert mp.im(z) == 0


def _polyroots_gap(mon, zeros, bits, extraprec):
    # largest distance to mp.polyroots, both sorted by their printed doubles
    with mp.workprec(bits):
        ref = mp.polyroots(
            [mp.mpf(f.numerator) / f.denominator for f in reversed(mon.exact)],
            maxsteps=200,
            extraprec=extraprec,
        )
        ref = sorted((mp.mpc(r) for r in ref),
                     key=lambda w: (float(mp.re(w)), float(mp.im(w))))
        return max(abs(a - b) for a, b in zip(zeros, ref))


def test_matches_polyroots_on_laguerre():
    spec = LaguerreSpec.create(6, Fraction(1, 2), 320)
    mon = laguerre.monic_rescaled(spec)
    zset = rootfinder.find_zeros(mon, 320, mp.mpf(2) ** -100)
    assert _polyroots_gap(mon, zset.zeros, 320, 200) <= mp.mpf(2) ** -280
    assert zset.suspect == ()
    assert max(zset.residuals) <= float(mp.mpf(2) ** -280)


def test_matches_polyroots_near_integer():
    # dist(alpha, Z) = 1e-15 pulls the constant coefficient down to about
    # 2^-75, so the fixed-point sweep runs with that many extra guard bits
    spec = LaguerreSpec.create(12, "-9.000000000000001", 320)
    mon = laguerre.monic_rescaled(spec)
    assert abs(mon.exact[0]) < Fraction(1, 2 ** 74)
    zset = rootfinder.find_zeros(mon, 320, mp.mpf(2) ** -100)
    assert _polyroots_gap(mon, zset.zeros, 320, 400) <= mp.mpf(2) ** -280
    assert zset.suspect == ()


@pytest.mark.parametrize("alpha, bits, sweeps", [
    ("-32.3564", 256, 6),
    ("-31.99999886", 360, 10),
])
def test_sweep_counts_and_moments(alpha, bits, sweeps):
    # the counts come from the seeding: one seed per zero of the exact
    # real/complex split, the loop seeds in exact conjugate pairs, so the
    # odd case no longer waits for float rounding to break a symmetry
    zset, _, _, _ = harness.compute_zeros(40, alpha)
    assert zset.precision_bits == bits
    assert zset.iterations == sweeps
    # sum z = -c_{n-1} and sum z^2 = c_{n-1}^2 - 2 c_{n-2} (Newton's identities)
    mon = laguerre.monic_rescaled(LaguerreSpec.create(40, alpha, bits))
    with mp.workprec(bits):
        c1, c2 = (mp.mpf(c.numerator) / c.denominator
                  for c in (mon.exact[-2], mon.exact[-3]))
        tol = mp.mpf(2) ** -(bits // 2)
        assert abs(mp.fsum(zset.zeros) + c1) <= tol
        assert abs(mp.fsum(z * z for z in zset.zeros) - (c1 * c1 - 2 * c2)) <= tol


def test_pair_sums_match_per_root_loop():
    # two active roots share one division; the terms must come out as if
    # every active root had summed over all the others on its own
    prec = 300
    rng = random.Random(5)
    zs = [(rng.randint(-3 << prec, 3 << prec), rng.randint(-3 << prec, 3 << prec))
          for _ in range(9)]
    active = [0, 2, 3, 7]
    sums = rootfinder._pair_sums(zs, active, prec, floor=1)
    assert sorted(sums) == active
    for i in active:
        x, y = zs[i]
        sx = sy = 0
        for j, (wx, wy) in enumerate(zs):
            if j != i:
                ex, ey = x - wx, y - wy
                r = (1 << (3 * prec)) // (ex * ex + ey * ey)
                sx += ex * r
                sy -= ey * r
        assert sums[i] == (sx >> prec, sy >> prec)


def test_real_zeros_carry_no_imaginary_dust():
    spec = LaguerreSpec.create(25, "-10.5", 256)
    mon = laguerre.monic_rescaled(spec)
    zset = rootfinder.find_zeros(mon, 256, mp.mpf(2) ** -80)
    real = [z for z in zset.zeros if mp.im(z) == 0]
    # 25 - 10 positive real zeros, exactly, with im == 0 after the snap
    assert sum(1 for z in real if mp.re(z) > 0) == 15
    genuine = [z for z in zset.zeros if mp.im(z) != 0]
    assert all(abs(mp.im(z)) > 1e-6 for z in genuine)


def test_conjugate_pairing():
    spec = LaguerreSpec.create(12, "-9.6", 256)
    mon = laguerre.monic_rescaled(spec)
    zset = rootfinder.find_zeros(mon, 256, mp.mpf(2) ** -80)
    with mp.workprec(256):
        key = lambda w: (float(mp.re(w)), float(mp.im(w)))  # noqa: E731
        pts = sorted(zset.zeros, key=key)
        mirrored = sorted((mp.conj(z) for z in zset.zeros), key=key)
        assert all(abs(a - b) < mp.mpf(2) ** -70 for a, b in zip(pts, mirrored))


def test_origin_multiplicity_bookkeeping():
    coeffs = _from_fractions([Fraction(-1), Fraction(1)], 128)  # z - 1
    zset = rootfinder.find_zeros(coeffs, 128, mp.mpf(2) ** -40,
                                 origin_multiplicity=5)
    assert zset.origin_multiplicity == 5
    assert zset.count == 6
    assert len(zset.zeros) == 1


def test_tolerance_floor_enforced():
    coeffs = _from_fractions(_wilkinson(3), 128)
    with pytest.raises(ValueError):
        rootfinder.find_zeros(coeffs, 128, mp.mpf(2) ** -80)


def test_seed_count_must_match_degree():
    coeffs = _from_fractions(_wilkinson(3), 128)
    with pytest.raises(ValueError):
        rootfinder.find_zeros(coeffs, 128, mp.mpf(2) ** -40, seeds=[mp.mpc(1)])


def test_max_iterations_raises():
    coeffs = _from_fractions(_wilkinson(8), 256)
    with pytest.raises(NonConvergence):
        rootfinder.find_zeros(coeffs, 256, mp.mpf(2) ** -80, max_iterations=1)


def test_clean_roots_are_isolated():
    coeffs = _from_fractions(_wilkinson(5), 256)
    tol = mp.mpf(2) ** -80
    zset = rootfinder.find_zeros(coeffs, 256, tol)
    assert zset.suspect == ()
    assert zset.count == 5
    assert len(zset.radii) == 5
    assert all(0 < r <= tol * max(1, abs(z)) for r, z in zip(zset.radii, zset.zeros))


def _monic(n, alpha, bits):
    return laguerre.monic_rescaled(LaguerreSpec.create(n, alpha, bits))


def _sound_case(name):
    tol = mp.mpf(2) ** -80
    if name == "wilkinson6":
        mon = _from_fractions(_wilkinson(6), 256)
        return mon, rootfinder.find_zeros(mon, 256, tol)
    if name == "compute_zeros":
        zset, _, _, _ = harness.compute_zeros(40, "-31.99999886")
        return _monic(40, "-31.99999886", zset.precision_bits), zset
    n, alpha = name
    mon = _monic(n, alpha, 256)
    return mon, rootfinder.find_zeros(mon, 256, tol)


@pytest.mark.parametrize("name", ["wilkinson6", (12, "-9.6"), (25, "-10.5"),
                                  "compute_zeros"],
                         ids=["wilkinson6", "12,-9.6", "25,-10.5", "40,-31.99999886"])
def test_inclusion_disks_hold_the_zeros(name):
    # each disk holds a zero of P: the polyroots zero nearest to z_i, 64
    # bits past the working precision, lies within radii[i] of it
    mon, zset = _sound_case(name)
    bits = zset.precision_bits + 64
    with mp.workprec(bits):
        ref = mp.polyroots(
            [mp.mpf(f.numerator) / f.denominator for f in reversed(mon.exact)],
            maxsteps=400, extraprec=128)
        for z, r in zip(zset.zeros, zset.radii):
            assert min(abs(w - z) for w in ref) <= r
        for i, (z, r) in enumerate(zip(zset.zeros, zset.radii)):
            for w, s in zip(zset.zeros[:i], zset.radii[:i]):
                assert abs(z - w) > r + s
    assert zset.suspect == ()


def _trapezoid_layout_seeds(n, alpha, bits):
    # ceil(n A) loop seeds at trapezoid-CDF quantiles (j + 1/2)/k, mirror
    # images only to float64 rounding, plus interval quantiles for the rest
    alpha_f = laguerre.parse_alpha(alpha)
    ctx = landscape.make_context(Fraction(-alpha_f, n), precision_bits=max(bits, 256))
    spec = measure.make_measure(ctx, harness.r_hat_from(n, alpha_f))
    k = math.ceil(n * float(ctx.A))
    _, cum = phase_quadrature.loop_cdf_trapezoid(spec)
    pts, _ = spec.gamma.as_arrays()
    targets = (np.arange(k) + 0.5) / k * cum[-1]
    i = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(pts) - 2)
    t = (targets - cum[i]) / (cum[i + 1] - cum[i])
    loop = [complex(p) for p in pts[i] + t * (pts[i + 1] - pts[i])]
    return [mp.mpc(s) for s in loop + measure.interval_quantiles(ctx, n - k)]


@pytest.mark.parametrize("bits", [224, 256])
def test_guardless_run_flags_its_wrong_zeros(monkeypatch, bits):
    # without guard bits the smallest coefficients of (60, -45.25) lose
    # most of their digits: from the seeds above the sweep still
    # converges, with residuals far below tol, to zeros wrong by far more
    # than tol (up to 1.4e-26 against 1.9e-34 at 224 bits)
    ref, _, _, _ = harness.compute_zeros(60, "-45.25", precision_bits=512)
    seeds = _trapezoid_layout_seeds(60, "-45.25", bits)
    monkeypatch.setattr(rootfinder, "_guard_bits", lambda exact: -16)
    tol = mp.mpf(2) ** -(bits // 2)
    zset = rootfinder.find_zeros(_monic(60, "-45.25", bits), bits, tol, seeds=seeds)
    with mp.workprec(512):
        wrong = [i for i, z in enumerate(zset.zeros)
                 if min(abs(w - z) for w in ref.zeros) > tol * max(1, abs(z))]
    assert len(wrong) > 10
    assert set(wrong) <= set(zset.suspect)
    # compute_zeros retries a suspect (or unconverged) first pass
    got, _, _, _ = harness.compute_zeros(60, "-45.25", precision_bits=bits)
    with mp.workprec(512):
        assert all(min(abs(w - z) for w in ref.zeros) <= tol * max(1, abs(z))
                   for z in got.zeros)


def test_determinism():
    spec = LaguerreSpec.create(15, "-12.3", 256)
    mon = laguerre.monic_rescaled(spec)
    a = rootfinder.find_zeros(mon, 256, mp.mpf(2) ** -80)
    b = rootfinder.find_zeros(mon, 256, mp.mpf(2) ** -80)
    assert a.zeros == b.zeros
    assert a.residuals == b.residuals


def test_initial_guesses_circle_fallback():
    guesses = rootfinder.initial_guesses(7)
    assert len(guesses) == 7
    assert len(set(guesses)) == 7
