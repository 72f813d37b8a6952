"""Masses, CDFs, quantiles and potentials of the limit measures."""

import math
from fractions import Fraction

import random

import mpmath as mp
import numpy as np
import pytest

import phase_quadrature
from lagzero import contour, landscape, measure
from lagzero.errors import DomainError


@pytest.fixture(scope="module")
def gamma81_r0(ctx81):
    return contour.trace_gamma(ctx81, 0.0)


def test_mp_density_frozen_value(ctx75):
    # sqrt(0.75 * 1.25) / (2 pi)
    v = phase_quadrature.mp_density(ctx75, 1)
    assert abs(v - mp.mpf("0.15410111101537495")) <= 1e-15


def test_mp_density_vanishes_at_endpoints(ctx75):
    assert phase_quadrature.mp_density(ctx75, ctx75.beta1) == 0
    assert phase_quadrature.mp_density(ctx75, ctx75.beta2) == 0


def test_interval_mass_is_one_minus_a(ctx81, ctx75, ctx99):
    # by quadrature against the density, never the closed-form shortcut
    for ctx in (ctx81, ctx75, ctx99):
        mass = landscape.interval_integral(ctx, lambda s: 1, landscape.QUAD_TOL)
        assert abs(mass - (1 - ctx.A)) <= 1e-10


def test_loop_mass_is_a(ctx80):
    for r in (0.0, 1.0, 3.0):
        gamma = contour.trace_gamma(ctx80, r)
        assert abs(phase_quadrature.loop_mass(ctx80, gamma) - 0.8) <= 1e-6


def test_loop_mass_halving_tightens(ctx80):
    g = contour.trace_gamma(ctx80, 1.0)
    step = (float(ctx80.beta2) - float(ctx80.beta1)) / contour.SPAN_STEPS
    g2 = contour.trace_gamma(ctx80, 1.0, max_step=step / 2)
    e1 = abs(phase_quadrature.loop_mass(ctx80, g) - 0.8)
    e2 = abs(phase_quadrature.loop_mass(ctx80, g2) - 0.8)
    assert e2 <= e1 / 2


def test_nu_density_positive_off_the_corner(ctx81, gamma81_r0):
    b1 = float(ctx81.beta1)
    for p in gamma81_r0.points[::17]:
        d = phase_quadrature.nu_density_at(ctx81, p)
        assert d >= 0
        if abs(p - b1) > 1e-9:
            assert d > 0


def test_nu_density_hand_value_at_crossing(ctx81):
    # |R(x_0)/x_0| / (2 pi) against the mpmath R
    x0 = contour.axis_crossing(ctx81, 0.0)
    d = phase_quadrature.nu_density_at(ctx81, complex(x0))
    with mp.workprec(256):
        ref = abs(phase_quadrature.branch_root(ctx81, x0) / x0) / (2 * mp.pi)
        assert abs(d - float(ref)) <= 1e-12


def test_cdf_interval_range_and_monotonicity(ctx81):
    with mp.workprec(256):
        b1, b2 = ctx81.beta1, ctx81.beta2
        assert measure.cdf_interval(ctx81, b1) == 0
        assert measure.cdf_interval(ctx81, b2) == 1 - ctx81.A
        grid = [b1 + (b2 - b1) * mp.mpf(k) / 6 for k in range(7)]
        vals = [measure.cdf_interval(ctx81, x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cdf_from_beta2_consistency(ctx81):
    # cdf_interval(x) - (1 - A) equals the signed tail integral from beta2
    b1, b2 = ctx81.beta1, ctx81.beta2
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)):
        x = b1 + (b2 - b1) * mp.mpf(t.numerator) / t.denominator
        lhs = measure.cdf_interval(ctx81, x) - (1 - ctx81.A)
        rhs = phase_quadrature.cdf_from_beta2(ctx81, x)
        assert rhs <= 0
        assert abs(lhs - rhs) <= 1e-12
    assert phase_quadrature.cdf_from_beta2(ctx81, b2) == 0


@pytest.mark.parametrize("A", [Fraction(81, 100), Fraction(42, 100),
                               Fraction(99, 100)])
def test_cdf_interval_matches_quadrature(A):
    # seeded points across the interval, with both endpoint neighbourhoods
    ctx = landscape.make_context(A)
    b1, b2 = ctx.beta1, ctx.beta2
    rng = random.Random(20261018)
    ts = [mp.mpf("1e-9"), mp.mpf("1e-4")] + [mp.mpf(rng.random()) for _ in range(5)]
    xs = [b1 + (b2 - b1) * t for t in ts] + [b2 - (b2 - b1) * t for t in ts[:2]]
    for x in xs:
        want = phase_quadrature.cdf_interval(ctx, x)
        assert abs(measure.cdf_interval(ctx, x) - want) <= landscape.QUAD_TOL


@pytest.mark.parametrize("A", [Fraction(1, 20), Fraction(1, 2), Fraction(81, 100),
                               Fraction(99, 100), Fraction(999, 1000)])
def test_interval_phase_matches_cdf_interval(A):
    # the float64 Im phi_+ / pi against the 256-bit cdf_interval on a
    # uniform grid and at 1e-15, 1e-12 and 1e-9 of the span from each end
    ctx = landscape.make_context(A)
    a, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    span = b2 - b1
    grid = [b1 + span * k / 400 for k in range(401)]
    ends = [x for t in (1e-15, 1e-12, 1e-9) for x in (b1 + t * span, b2 - t * span)]
    for x in grid + ends:
        got = measure.interval_phase(a, b1, b2, x) / math.pi
        assert abs(got - float(measure.cdf_interval(ctx, x))) <= 1e-14
    assert measure.interval_phase(a, b1, b2, b1) == 0
    assert measure.interval_phase(a, b1, b2, b2) == math.pi * (1 - a)
    vals = [measure.interval_phase(a, b1, b2, x) for x in grid]
    assert all(u < v for u, v in zip(vals, vals[1:]))


def test_phi_halves_match_the_complex_phi(ctx81):
    # log_potential keeps Re phi (log |u|) and cdf_interval Im phi (i arg u),
    # each from the one phi formula, against its full 256-bit evaluation:
    # inside Gamma_0 (|z| < 0.1), outside it, and on the cut from above
    A, b1, b2 = ctx81.A, ctx81.beta1, ctx81.beta2
    inside = [complex(0.02 * k, 0.03 * j) for k in (-3, -1, 2) for j in (-2, 1, 2)]
    outside = [complex(x / 2, y / 2) for x in range(-4, 7) for y in (-3, -1, 1, 2)]
    cut = [float(b1 + (b2 - b1) * k / 16) for k in range(1, 16)]
    with mp.workprec(landscape.LANDSCAPE_BITS):
        for z in inside + outside + cut:
            w = mp.mpc(z)
            full = landscape.phi_closed_form(A, b1, b2, w, mp.sqrt, mp.log)
            re = mp.re(landscape.phi_closed_form(A, b1, b2, w, mp.sqrt, measure._log_abs))
            im = mp.im(landscape.phi_closed_form(A, b1, b2, w, mp.sqrt, measure._i_arg))
            assert abs(re - mp.re(full)) <= mp.ldexp(abs(full), -240), z
            assert abs(im - mp.im(full)) <= mp.ldexp(abs(full), -240), z
            assert measure._log_abs(w) == mp.re(mp.log(w)), z


def test_loop_cdf_points(gamma81_r0):
    arcs, cum = phase_quadrature.loop_cdf_points(gamma81_r0)
    assert len(arcs) == len(cum) == len(gamma81_r0.points)
    assert cum[0] == 0
    assert cum[len(gamma81_r0.upper_arc) - 1] == 0.81 / 2
    assert cum[-1] == 0.81
    assert all(b > a for a, b in zip(cum, cum[1:]))


_LOOP_CASES = [(Fraction(81, 100), 0.0), (Fraction(81, 100), 3.0),
               (Fraction(81, 100), 7.0), (Fraction(42, 100), 0.0)]


@pytest.mark.parametrize("A,r", _LOOP_CASES)
def test_loop_cdf_is_im_phi(A, r):
    # the tracer's mass from x_r is Im phi/pi + A/2 on the upper arc,
    # against the 256-bit phi at every vertex, endpoints included
    ctx = landscape.make_context(A)
    gamma = contour.trace_gamma(ctx, r)
    for p, m in zip(gamma.upper_arc, gamma.upper_mass):
        phi = phase_quadrature.closed_phi(ctx, p)
        assert abs(m - (mp.im(phi) / mp.pi + ctx.A / 2)) <= 1e-12


@pytest.mark.parametrize("A,r", _LOOP_CASES)
def test_loop_cdf_matches_trapezoid(A, r):
    # the cumulative trapezoid of the arclength density, whose own error
    # is the polyline's
    ctx = landscape.make_context(A)
    gamma = contour.trace_gamma(ctx, r)
    _, cum = phase_quadrature.loop_cdf_points(gamma)
    _, want = phase_quadrature.loop_cdf_trapezoid(ctx, gamma)
    assert max(abs(cum - want)) <= 5e-6


def test_loop_quantiles(gamma81_r0):
    qs = measure.loop_quantiles(gamma81_r0, 9)
    assert len(qs) == 9
    assert len(set(qs)) == 9
    _, dist = contour.project_to_loop(gamma81_r0, qs)
    assert all(d <= 1e-9 for d in dist)


@pytest.mark.parametrize("k", [8, 9])
def test_loop_quantiles_are_conjugate_symmetric(gamma81_r0, k):
    qs = measure.loop_quantiles(gamma81_r0, k)
    assert len(qs) == k
    assert sorted(qs, key=lambda q: (q.real, q.imag)) == sorted(
        (q.conjugate() for q in qs), key=lambda q: (q.real, q.imag))
    x_r = gamma81_r0.points[0]
    assert [q for q in qs if q.imag == 0] == [x_r] * (k % 2)
    # masses (j + 1/2) A/k for even k, j A/k for odd k
    arcs, cum = phase_quadrature.loop_cdf_points(gamma81_r0)
    s, _ = contour.project_to_loop(gamma81_r0, qs)
    got = sorted(np.interp(s, arcs, cum))
    want = (np.arange(k) + (0.0 if k % 2 else 0.5)) * 0.81 / k
    assert max(abs(got - want)) <= 1e-9


def test_interval_quantiles(ctx81):
    qs = measure.interval_quantiles(ctx81, 8)
    b1, b2 = float(ctx81.beta1), float(ctx81.beta2)
    assert all(b1 < q < b2 for q in qs)
    assert all(a < b for a, b in zip(qs, qs[1:]))
    # midpoint rule targets: F(q_j) = (j + 1/2)/8 * (1 - A), to the
    # quantile solver's own tolerance
    for j, q in enumerate(qs):
        target = (j + 0.5) / 8 * (1 - 0.81)
        assert abs(float(measure.cdf_interval(ctx81, q)) - target) <= 1e-6


# repr of the interval seeds, bit for bit:
# the root finder starts from them, so they pin the zeros' last digits
_SEEDS_81_8 = (
    "[0.42016873380036446, 0.5623636117745172, 0.7035351065482793, "
    "0.8548530248500317, 1.0226781131615361, 1.2147915563338376, "
    "1.4454600908699033, 1.756997908394089]")
_SEEDS_80_16 = (
    "[0.36693334423349977, 0.4451609389161577, 0.5163594005042806, "
    "0.5867525120113704, 0.658375005063764, 0.7323505773053995, "
    "0.8095138331534881, 0.8906281336297861, 0.9765030848526972, "
    "1.0680938383214933, 1.1666251721128118, 1.2737924757355517, "
    "1.3921512834093326, 1.5260194387815562, 1.6841751915590932, "
    "1.893589974598377]")


def test_interval_quantiles_frozen(ctx81, ctx80):
    # the 16 are the interval seeds of (80, -64)
    assert repr(measure.interval_quantiles(ctx81, 8)) == _SEEDS_81_8
    assert repr(measure.interval_quantiles(ctx80, 16)) == _SEEDS_80_16


def test_log_potential_r_independent_outside(ctx80):
    u = [measure.log_potential(ctx80, r, 3 + 2j) for r in (0.0, 3.0)]
    assert abs(u[0] - u[1]) <= 1e-6


def test_log_potential_atom_case_agrees(ctx80):
    u0 = measure.log_potential(ctx80, 0.0, 4 + 0j)
    uinf = measure.log_potential(ctx80, math.inf, 4 + 0j)
    assert abs(u0 - uinf) <= 2e-6


def test_log_potential_far_field(ctx80):
    z = 1e6 + 0j
    assert abs(measure.log_potential(ctx80, math.inf, z) - math.log(abs(z))) <= 1e-5


def test_log_potential_far_field_finite_r(ctx80):
    # mu_0 has mass exactly 1, so U(z) - log|z| = O(1/|z|); a loop mass
    # off A by 3e-7 would show as 2e-4 at |z| = 1e300
    z = 1e300 + 1j
    assert abs(measure.log_potential(ctx80, 0.0, z) - math.log(abs(z))) <= 1e-12


@pytest.mark.parametrize("r", [0.0, 1.0, 3.0])
def test_log_potential_inside_loop(ctx80, r):
    # inside Gamma_r, and at its limit point 0, against the polyline
    # Simpson oracle, whose own error is the polyline's
    gamma = contour.trace_gamma(ctx80, r)
    x_r = contour.axis_crossing(ctx80, r)
    for z in (0j, complex(x_r / 2), 0.5j * max(p.imag for p in gamma.points)):
        assert phase_quadrature.even_odd(gamma, [z]) == [True]
        want = phase_quadrature.log_potential(ctx80, gamma, z)
        assert abs(measure.log_potential(ctx80, r, z) - want) <= 1e-5


def test_g_eval_and_log_potential_project_once(ctx80, monkeypatch):
    # g_eval's support guard projects once a point; the log potential
    # reads inside, outside and its support off phi and projects never
    im_max = max(p.imag for p in contour.trace_gamma(ctx80, 1.0).points)
    landscape.g_eval(ctx80, 4 + 0j)  # traces Gamma_0 before counting
    calls = []
    project = contour.project_to_loop

    def counting(gamma, zs):
        calls.append(zs)
        return project(gamma, zs)

    monkeypatch.setattr(contour, "project_to_loop", counting)
    x_r = contour.axis_crossing(ctx80, 1.0)
    for z in (complex(x_r / 2), 0.5j * im_max, 4 + 0j, -2 + 3j):
        measure.log_potential(ctx80, 1.0, z)
    assert len(calls) == 0
    for z in (4 + 0j, -2 + 3j):
        landscape.g_eval(ctx80, z)
    with pytest.raises(DomainError):
        landscape.g_eval(ctx80, complex(x_r / 2))
    assert len(calls) == 3


def test_log_potential_rejects_support(ctx80):
    # r >= 0, the interval, the atom and Gamma_r, all read off phi
    x_1 = complex(contour.axis_crossing(ctx80, 1.0))
    for r, z in [(1.0, 1.0 + 0j), (math.inf, 1.0 + 0j), (math.inf, 0j),
                 (1.0, x_1), (math.nan, 3 + 2j), (-1.0, 3 + 2j)]:
        with pytest.raises(DomainError):
            measure.log_potential(ctx80, r, z)


@pytest.mark.parametrize("r", [0.0, 1.0, math.inf])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_log_potential_is_continuous_onto_the_interval(ctx80, r, x):
    # 1e-9 off the interval U is within reach of its value there,
    # 2U = x + A log x + ell, which the support guard no longer refuses
    A, ell = float(ctx80.A), float(landscape.ell_constant(ctx80))
    want = (x + A * math.log(x) + ell) / 2
    assert abs(measure.log_potential(ctx80, r, complex(x, 1e-9)) - want) <= 1e-8
