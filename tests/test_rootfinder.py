"""Aberth iteration checked against mpmath.polyroots and hand-built polynomials."""

from fractions import Fraction

import mpmath as mp
import pytest

from lagzero import laguerre, rootfinder
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


def test_matches_polyroots_on_laguerre():
    spec = LaguerreSpec.create(6, Fraction(1, 2), 320)
    mon = laguerre.monic_rescaled(spec)
    zset = rootfinder.find_zeros(mon, 320, mp.mpf(2) ** -100)
    with mp.workprec(320):
        ref = mp.polyroots(
            [mp.mpf(f.numerator) / f.denominator for f in reversed(mon.exact)],
            maxsteps=200,
            extraprec=200,
        )
        ref = sorted((mp.mpc(r) for r in ref),
                     key=lambda w: (float(mp.re(w)), float(mp.im(w))))
        worst = max(abs(a - b) for a, b in zip(zset.zeros, ref))
        assert worst <= mp.mpf(2) ** -280
    assert zset.suspect == ()
    assert max(zset.residuals) <= float(mp.mpf(2) ** -280)


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


def test_certify_keeps_clean_roots():
    coeffs = _from_fractions(_wilkinson(5), 256)
    zset = rootfinder.find_zeros(coeffs, 256, mp.mpf(2) ** -80)
    certified = rootfinder.certify(coeffs, zset)
    assert certified.suspect == ()
    assert certified.count == zset.count


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
