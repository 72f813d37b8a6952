"""Endpoints, R, phi, g and the ell constant.

Frozen reference values were computed from closed forms and verified by
quadrature at 256 bits before being written down here.
"""

import inspect
import logging
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.calculus.quadrature import GaussLegendre

import phase_quadrature
from lagzero import contour, landscape
from lagzero.errors import DomainError, QuadratureError


# ---------------------------------------------------------------------------
# context and endpoints


def test_betas_exact_at_three_quarters(ctx75):
    assert ctx75.beta1 == mp.mpf("0.25")
    assert ctx75.beta2 == mp.mpf("2.25")


@pytest.mark.parametrize("A", [Fraction(81, 100), Fraction(1, 10 ** 6),
                               Fraction(1, 10 ** 40)], ids=["0.81", "1e-6", "1e-40"])
def test_beta_relations(A):
    # the product check is relative: at small A, beta1 ~ A^2/4 is what a
    # cancelling 2 - A - 2 sqrt(1 - A) loses
    ctx = landscape.make_context(A)
    with mp.workprec(256):
        assert abs(ctx.beta1 * ctx.beta2 - ctx.A ** 2) <= mp.mpf(2) ** -240 * ctx.A ** 2
        assert abs(ctx.beta1 + ctx.beta2 - 2 * (2 - ctx.A)) <= mp.mpf(2) ** -240


def test_degenerate_edge_allowed():
    ctx = landscape.make_context(1)
    assert ctx.beta1 == 1 and ctx.beta2 == 1


def test_context_is_the_landscape_of_A_alone():
    # the landscape owns its precision: no caller passes one in
    assert list(landscape.PotentialContext._fields) == ["A", "beta1", "beta2"]
    assert list(inspect.signature(landscape.make_context).parameters) == ["A"]
    assert list(inspect.signature(landscape.c_constant).parameters) == ["n", "A_n"]


def test_make_context_domain():
    with pytest.raises(DomainError):
        landscape.make_context("1.5")
    with pytest.raises(DomainError):
        landscape.make_context(0)


def test_make_context_rounds_a_fraction_once():
    # past 256 bits, numerator / denominator as two mpfs rounds three times
    s = "0." + "3" * 90
    exact, parsed = landscape.make_context(Fraction(s)), landscape.make_context(s)
    for name in landscape.PotentialContext._fields:
        assert getattr(exact, name) == getattr(parsed, name), name


# ---------------------------------------------------------------------------
# quadrature core


def test_quad_seg_smooth():
    with mp.workprec(256):
        val = landscape.quad_seg(mp.sin, mp.mpf(0), mp.pi, mp.mpf(1e-20))
        assert abs(val - 2) <= 1e-19


def test_quad_seg_nonintegrable_raises():
    # pole strictly inside every dyadic refinement: tolerance is never met
    with mp.workprec(128):
        sing = mp.mpf(3) / 10
        with pytest.raises(QuadratureError):
            landscape.quad_seg(lambda x: 1 / (x - sing), mp.mpf(0), mp.mpf(1),
                               mp.mpf(1e-12))



@pytest.mark.parametrize("prec", [96, 157, 256])
@pytest.mark.parametrize("degree", range(1, 7))
def test_fixed_point_rule_matches_mpmath(degree, prec):
    # the nodes against mpmath's table at the same bits; the weights
    # against mpmath's table at twice the bits, because mpmath's own
    # weight takes P' from before its last Newton step and is 2^-263 off
    # at (3, 256 bits), where the new one takes it at the root
    nodes = landscape._FixedGaussLegendre(mp.mp).calc_nodes(degree, prec)
    ref = GaussLegendre(mp.mp).calc_nodes(degree, prec)
    fine = GaussLegendre(mp.mp).calc_nodes(degree, 2 * prec)
    n = 3 * 2 ** (degree - 1)
    assert len(nodes) == n
    with mp.workprec(2 * prec):
        eps = mp.ldexp(1, -(prec + 8))
        for (x, w), (x_ref, _), (_, w_fine) in zip(nodes, ref, fine):
            assert abs(x - x_ref) <= eps
            assert abs(w - w_fine) <= eps
        # exact for every polynomial of degree < 2n; odd moments vanish
        # by the rule's symmetry
        powers = [mp.mpf(1)] * n
        squares = [x * x for x, _ in nodes]
        for j in range(0, 2 * n, 2):
            moment = mp.fsum(w * p for (_, w), p in zip(nodes, powers))
            assert abs(moment - mp.mpf(2) / (j + 1)) <= mp.ldexp(1, -prec)
            powers = [p * x2 for p, x2 in zip(powers, squares)]


def test_second_quad_seg_builds_no_node_table(monkeypatch):
    # mp.quad builds a new rule object per call; the tables are shared
    monkeypatch.setattr(landscape._FixedGaussLegendre, "_tables", ({}, {}, {}))
    built = []
    calc_nodes = landscape._FixedGaussLegendre.calc_nodes

    def counted(self, degree, prec, verbose=False):
        built.append((degree, prec))
        return calc_nodes(self, degree, prec, verbose)

    monkeypatch.setattr(landscape._FixedGaussLegendre, "calc_nodes", counted)
    with mp.workprec(100):
        first = landscape.quad_seg(mp.exp, 0, 1, mp.mpf(1e-20))
        assert built and len(set(built)) == len(built)
        built.clear()
        assert landscape.quad_seg(mp.exp, 0, 1, mp.mpf(1e-20)) == first
        assert built == []
        assert abs(first - (mp.e - 1)) <= 1e-20


# ---------------------------------------------------------------------------
# R


def test_r_at_zero_is_minus_a(ctx81):
    with mp.workprec(256):
        assert abs(phase_quadrature.branch_root(ctx81, 0) + ctx81.A) <= mp.mpf(2) ** -240


def test_r_hand_value(ctx75):
    # R(-1) = -sqrt(1.25 * 3.25) = -sqrt(65)/4
    with mp.workprec(256):
        v = phase_quadrature.branch_root(ctx75, -1)
        assert abs(v + mp.sqrt(65) / 4) <= mp.mpf(2) ** -240


def test_r_asymptotically_linear(ctx81):
    with mp.workprec(256):
        z = mp.mpc(1e8)
        assert abs(phase_quadrature.branch_root(ctx81, z) / z - 1) <= 1e-7


def test_r_conjugate_symmetry(ctx81):
    # conj must run at full precision: at the ambient 53 bits it would
    # round the high-precision operand and fake an asymmetry
    with mp.workprec(256):
        z = mp.mpc("1.7", "0.9")
        assert phase_quadrature.branch_root(ctx81, mp.conj(z)) == mp.conj(
            phase_quadrature.branch_root(ctx81, z))


# ---------------------------------------------------------------------------
# phi, read off landscape.phi_closed_form (phase_quadrature.closed_phi)


def test_phi_base_point(ctx81):
    with mp.workprec(256):
        assert abs(phase_quadrature.closed_phi(ctx81, ctx81.beta1)) <= mp.mpf(2) ** -240


def test_phi_singular_at_origin(ctx81):
    # Re phi + (A/2) log|z| -> phi_origin_constant at 0, from every side
    A, b1, b2 = ctx81.A, ctx81.beta1, ctx81.beta2
    with mp.workprec(256):
        K = landscape.phi_origin_constant(A, b1, b2, mp.log)
        for ang in (0.3, 1.6, 3.1, -2.2):
            z = mp.mpf("1e-30") * mp.expj(ang)
            v = mp.re(phase_quadrature.closed_phi(ctx81, z))
            assert v > 20
            assert abs(v + A / 2 * mp.log(abs(z)) - K) <= 1e-25


def test_phi_jump_on_negative_axis(ctx81):
    # phi_+ - phi_- = -A pi i
    ABOVE, BELOW = phase_quadrature.ABOVE, phase_quadrature.BELOW
    with mp.workprec(256):
        expected = -ctx81.A * mp.pi * mp.mpc(0, 1)
        for x in (mp.mpf("-0.4"), mp.mpf("-2.5")):
            d = (phase_quadrature.closed_phi(ctx81, x, ABOVE)
                 - phase_quadrature.closed_phi(ctx81, x, BELOW))
            assert abs(d - expected) <= 1e-30


def test_phi_purely_imaginary_on_support(ctx81):
    # at a real x in (beta1, beta2), where mpmath's principal branches
    # take the limit from above
    A, b1, b2 = ctx81.A, ctx81.beta1, ctx81.beta2
    with mp.workprec(256):
        for t in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
            x = b1 + (b2 - b1) * mp.mpf(t.numerator) / t.denominator
            v = landscape.phi_closed_form(A, b1, b2, mp.mpc(x), mp.sqrt, mp.log)
            assert abs(mp.re(v)) <= 1e-30 and mp.im(v) > 0


def test_phi_value_at_beta2(ctx75):
    # phi_+(beta2) = i pi (1 - A); the imaginary part is the interval mass
    with mp.workprec(256):
        v = phase_quadrature.closed_phi(ctx75, ctx75.beta2)
        assert abs(v - mp.mpc(0, mp.pi) / 4) <= 1e-30


def test_phi_constant_imaginary_right_of_beta2(ctx81):
    with mp.workprec(256):
        im = mp.pi * (1 - ctx81.A)
        v3 = phase_quadrature.closed_phi(ctx81, mp.mpf(3))
        v5 = phase_quadrature.closed_phi(ctx81, mp.mpf(5))
        assert abs(mp.im(v3) - im) <= 1e-30
        assert abs(mp.im(v5) - im) <= 1e-30
        assert mp.re(v5) > mp.re(v3) > 0


def test_phi_conjugate_symmetry(ctx81):
    with mp.workprec(256):
        z = mp.mpc("-1.3", "0.8")
        a = phase_quadrature.closed_phi(ctx81, z)
        b = phase_quadrature.closed_phi(ctx81, mp.conj(z))
        assert abs(b - mp.conj(a)) <= 1e-30


def test_phi_boundary_values_are_limits(ctx81):
    x = mp.mpf("-1.1")
    lim = phase_quadrature.closed_phi(ctx81, mp.mpc(x, mp.mpf("1e-9")))
    bnd = phase_quadrature.closed_phi(ctx81, x, phase_quadrature.ABOVE)
    assert abs(lim - bnd) <= 1e-6


def test_phi_derivative_matches_integrand(ctx81):
    # central difference vs R/(2z) at seeded off-axis points
    rng = random.Random(20260815)
    with mp.workprec(380):
        h = mp.mpf(2) ** -60
        for _ in range(8):
            z = mp.mpc(rng.uniform(-3, 3),
                       rng.choice([-1, 1]) * rng.uniform(0.25, 3))
            fd = (phase_quadrature.closed_phi(ctx81, z + h)
                  - phase_quadrature.closed_phi(ctx81, z - h)) / (2 * h)
            an = phase_quadrature.branch_root(ctx81, z) / (2 * z)
            assert abs(fd - an) <= 1e-12


def _phi_tilde(ctx, z):
    # phi~ = phi -+ i pi (1 - A) in the upper/lower half-plane, continued
    # from above onto the real axis
    with mp.workprec(landscape.LANDSCAPE_BITS):
        w = mp.mpc(z)
        sgn = -1 if mp.im(w) < 0 else 1
        return phase_quadrature.closed_phi(ctx, w) - mp.mpc(0, sgn * mp.pi * (1 - ctx.A))


def _off_axis_points(ctx):
    # seeded: |z| from 1e-6 to 1e5 in both half-planes, plus points within
    # 1e-6 and 1e-2 of beta1 and beta2 from above and below
    rng = random.Random(20261018)
    pts = []
    for k, e in enumerate((-6, -3, -1, 0, 0.3, 1, 2, 5)):
        ang = rng.uniform(0.05, 3.1) * (1 if k % 2 else -1)
        pts.append(mp.mpf(10) ** e * mp.expj(ang))
    for b in (ctx.beta1, ctx.beta2):
        for d in (mp.mpf("1e-6"), mp.mpf("1e-2")):
            for sgn in (1, -1):
                pts.append(mp.mpc(b + d * rng.uniform(-1, 1), sgn * d))
    return pts


def _real_points(ctx):
    # one or more points on each real segment, and within 1e-6 of the
    # branch points
    b1, b2 = ctx.beta1, ctx.beta2
    tiny = mp.mpf("1e-6")
    return [mp.mpf(-10) ** 5, mp.mpf("-2.5"), -tiny, tiny, b1 / 2, b1 - tiny,
            b1 + tiny, (b1 + b2) / 2, b2 - tiny, b2, b2 + tiny, mp.mpf(3),
            mp.mpf(10) ** 5]


def test_phi_closed_form_matches_quadrature(ctx81):
    ABOVE, BELOW = phase_quadrature.ABOVE, phase_quadrature.BELOW
    with mp.workprec(256):
        for z in _off_axis_points(ctx81):
            want = phase_quadrature.phi(ctx81, z)
            assert abs(phase_quadrature.closed_phi(ctx81, z) - want) <= landscape.QUAD_TOL
        for x in _real_points(ctx81):
            sides = (None,) if 0 < x <= ctx81.beta1 else (ABOVE, BELOW)
            for side in sides:
                want = phase_quadrature.phi(ctx81, x, side)
                got = phase_quadrature.closed_phi(ctx81, x, side or ABOVE)
                assert abs(got - want) <= landscape.QUAD_TOL, (x, side)


def test_phi_tilde_closed_form_matches_quadrature(ctx81):
    with mp.workprec(256):
        right = [x for x in _real_points(ctx81) if x >= ctx81.beta2]
        for z in _off_axis_points(ctx81) + right:
            want = phase_quadrature.phi_tilde(ctx81, z)
            assert abs(_phi_tilde(ctx81, z) - want) <= landscape.QUAD_TOL


# ---------------------------------------------------------------------------
# phi tilde


def test_phi_tilde_real_increasing_right_of_beta2(ctx81):
    with mp.workprec(256):
        v3 = _phi_tilde(ctx81, mp.mpf(3))
        v5 = _phi_tilde(ctx81, mp.mpf(5))
        assert abs(mp.im(v3)) <= 1e-30 and abs(mp.im(v5)) <= 1e-30
        assert 0 < mp.re(v3) < mp.re(v5)


def test_phi_minus_phi_tilde_constant(ctx81):
    # phi - phi~ = i pi (1 - A) on (beta2, inf) from above, against phi~
    # by quadrature from beta2, real there
    with mp.workprec(256):
        for x in (mp.mpf(3), mp.mpf("4.5")):
            d = (phase_quadrature.closed_phi(ctx81, x)
                 - phase_quadrature.phi_tilde(ctx81, x))
            assert abs(mp.re(d)) <= landscape.QUAD_TOL
            assert abs(mp.im(d) - mp.pi * (1 - ctx81.A)) <= 1e-30


# ---------------------------------------------------------------------------
# c_n and the rate


def test_c_constant_exact_cases():
    with mp.workprec(256):
        # n A_n = 32.4: c = 2i sin(0.4 pi)
        c = landscape.c_constant(40, Fraction(81, 100))
        assert abs(c - mp.mpc(0, 2 * mp.sinpi(mp.mpf(2) / 5))) <= mp.mpf(2) ** -240
        # odd integer part flips the sign: n A_n = 3.5 gives exactly -2i
        assert landscape.c_constant(5, Fraction(7, 10)) == mp.mpc(0, -2)
        assert landscape.c_constant(5, Fraction(2, 5)) == 0


def test_c_constant_near_integer_taylor():
    # dist 1e-6: |c| = 2 sin(pi e-6) = 2 pi e-6 (1 + O(1e-12))
    c = landscape.c_constant(40, Fraction(31999999, 40000000))
    assert abs(abs(c) - 2 * mp.pi * mp.mpf("1e-6")) <= 1e-16


def test_c_constant_rejects_float():
    with pytest.raises(TypeError):
        landscape.c_constant(40, 0.81)


# ---------------------------------------------------------------------------
# g and ell


def test_g_far_field(ctx81):
    with mp.workprec(256):
        z = mp.mpc(1000, 1000)
        assert abs(landscape.g_eval(ctx81, z) - mp.log(z)) <= 2 / abs(z)


def test_g_conjugate_symmetry(ctx81):
    with mp.workprec(256):
        z = mp.mpc(2, 3)
        a = landscape.g_eval(ctx81, z)
        b = landscape.g_eval(ctx81, mp.conj(z))
        assert abs(b - mp.conj(a)) <= 1e-20


def test_g_guard_band_is_twice_the_default_step(ctx81):
    # g_eval projects onto Gamma_0 traced once at the coarse step, and its
    # band stays 2 (beta2 - beta1) / SPAN_STEPS, not twice that step: left
    # of x_0, where the loop crosses the axis at a vertex, the distance is
    # the gap to x_0
    assert landscape._gamma0_for(ctx81) == contour.trace_coarse(ctx81, 0.0)
    band = 2 * (float(ctx81.beta2) - float(ctx81.beta1)) / contour.SPAN_STEPS
    x_0 = contour.axis_crossing(ctx81, 0.0)
    with pytest.raises(DomainError, match="too close"):
        landscape.g_eval(ctx81, mp.mpc(x_0 - 0.9 * band))
    landscape.g_eval(ctx81, mp.mpc(x_0 - 1.1 * band))


def test_g_defined_right_of_support(ctx81):
    v = landscape.g_eval(ctx81, mp.mpf(4))
    assert mp.im(v) == 0
    assert mp.re(v) > 0


def test_g_branch_structure_at_minus_one(ctx81):
    # loop and interval both sit to the right of -1; the trapezoid path
    # and the principal log agree there: Im g(-1) = pi
    with mp.workprec(256):
        v = landscape.g_eval(ctx81, mp.mpc(-1))
        assert abs(mp.im(v) - mp.pi) <= 1e-20


def test_g_shadow_region_branch(ctx81):
    # -1 + 0.05i sits in the horizontal shadow of the loop; the
    # trapezoid over the traced Gamma_0 confirms that the loop part is
    # A*Log z there too, up to the polyline quadrature error
    with mp.workprec(256):
        z = mp.mpc(-1, mp.mpf("0.05"))
        loop = phase_quadrature.loop_log_trapezoid(
            ctx81, contour.trace_gamma(ctx81, 0.0), z)
        interval = landscape.interval_integral(
            ctx81, lambda s: mp.log(z - s), landscape.QUAD_TOL / 2)
        assert abs(landscape.g_eval(ctx81, z) - (loop + interval)) <= 1e-4


@pytest.mark.parametrize("A", [Fraction(81, 100), Fraction(21, 50)])
def test_g_interval_part_identity(A):
    # Integral log(z - s) dMP(s) = (z - A Log z - 2 phi~(z) + ell)/2,
    # with phi~ continued from above onto (-inf, 0); written with phi
    # instead, the imaginary parts would differ by exactly +-pi (1 - A)
    ctx = landscape.make_context(A)
    ell = landscape.ell_constant(ctx)
    points = [mp.mpc(2, 3), mp.mpc(2, -3), mp.mpc("1.5", "1e-3"),
              mp.mpc("1.5", "-1e-3"), mp.mpc(-1), mp.mpc(ctx.beta2 + 1)]
    with mp.workprec(landscape.LANDSCAPE_BITS):
        for z in points:
            want = (z - ctx.A * mp.log(z) - 2 * _phi_tilde(ctx, z) + ell) / 2
            got = landscape.interval_integral(
                ctx, lambda s: mp.log(z - s), landscape.QUAD_TOL / 2)
            assert abs(mp.re(got) - mp.re(want)) <= landscape.QUAD_TOL
            assert abs(mp.im(got) - mp.im(want)) <= landscape.QUAD_TOL


@pytest.mark.parametrize("A,bound", [
    (Fraction(21, 50), 1e-25), (Fraction(81, 100), 1e-25),
    (Fraction(99, 100), 1e-25),
    # at A = 1/20 the density's 1/s peaks next to beta1 = 6.1e-4 and the
    # one Gauss-Legendre panel is 2e-17 to 5e-17 off at 96 bits and at 280
    # bits alike: the rule's own error, not the precision's
    (Fraction(1, 20), 1e-16),
])
def test_interval_integral_accuracy_at_quad_bits(A, bound):
    # g's interval part at the tolerance g_eval asks for, against the
    # closed form: asymp's outer regime prints e^{-n g} to the last digit
    # of a double, which needs far more than QUAD_TOL from this value
    ctx = landscape.make_context(A)
    ell = landscape.ell_constant(ctx)
    points = [mp.mpc("0.2246", "-3.7387"), mp.mpc("2.8090", "3.9585"),
              mp.mpc("-2.0780", "2.7755"), mp.mpc("-4.2", "-2.5"),
              mp.mpc("1.3", "2.3")]
    with mp.workprec(landscape.LANDSCAPE_BITS):
        for z in points:
            assert 2.6 <= abs(z) <= 5
            want = (z - ctx.A * mp.log(z) - 2 * _phi_tilde(ctx, z) + ell) / 2
            got = landscape.interval_integral(
                ctx, lambda s: mp.log(z - s), landscape.QUAD_TOL / 2)
            assert abs(got - want) <= bound


def _per_node_interval_integral(ctx, f, tol):
    # interval_integral with the density computed at every node, as it
    # was before the density cache
    bits = max(landscape.QUAD_BITS, math.ceil(-math.log2(tol)) + landscape._GUARD_BITS)
    with mp.workprec(bits):
        mid = (ctx.beta1 + ctx.beta2) / 2
        half = (ctx.beta2 - ctx.beta1) / 2

        def g(t):
            s = mid - half * mp.cos(t)
            w = half * mp.sin(t)
            return f(s) * w * w / (2 * mp.pi * s)

        return landscape.quad_seg(g, 0, mp.pi, tol)


@pytest.mark.parametrize("A", [Fraction(21, 50), Fraction(81, 100), Fraction(1, 20)])
def test_interval_density_cache_matches_the_per_node_formula(A):
    ctx = landscape.make_context(A)
    points = [mp.mpc("0.2246", "-3.7387"), mp.mpc("2.8090", "3.9585"),
              mp.mpc("-2.0780", "2.7755"), mp.mpc("-4.2", "-2.5"),
              mp.mpc("1.3", "2.3")]
    tol = landscape.QUAD_TOL / 2
    for z in points:
        got = landscape.interval_integral(ctx, lambda s: mp.log(z - s), tol)
        want = _per_node_interval_integral(ctx, lambda s: mp.log(z - s), tol)
        assert abs(got - want) <= 1e-28


def test_interval_density_is_computed_once_per_node(monkeypatch):
    ctx = landscape.make_context(Fraction(333, 1000))
    cos = landscape.mp.cos
    calls = []

    def counted(t):
        calls.append(t)
        return cos(t)

    monkeypatch.setattr(landscape.mp, "cos", counted)
    first = landscape.interval_integral(ctx, lambda s: s, landscape.QUAD_TOL)
    assert calls
    calls.clear()
    again = landscape.interval_integral(ctx, lambda s: s, landscape.QUAD_TOL)
    assert calls == [] and again == first
    # Integral s dMP(s) = (beta2 - beta1)^2 / 16 = 1 - A
    assert abs(first - (1 - ctx.A)) <= landscape.QUAD_TOL


def test_interval_density_cache_stays_bounded():
    bound = landscape._interval_density.cache_info().maxsize
    for k in range(40):
        ctx = landscape.make_context(Fraction(500 + k, 1000))
        landscape.interval_integral(ctx, lambda s: 1, landscape.QUAD_TOL)
    assert landscape._interval_density.cache_info().currsize == bound


def test_interval_integral_precision_follows_a_fine_tolerance(ctx81):
    # 1e-40 is beyond what QUAD_BITS can resolve: the precision rises to
    # meet it instead of bisecting until QuadratureError
    got = landscape.interval_integral(ctx81, lambda s: 1, 1e-40)
    with mp.workprec(landscape.LANDSCAPE_BITS):
        assert abs(got - (1 - ctx81.A)) <= mp.mpf("1e-40")


def test_interval_integral_logs_bits_tolerance_and_panels(ctx81, caplog):
    caplog.set_level(logging.DEBUG, logger=landscape.__name__)
    landscape.interval_integral(ctx81, lambda s: 1, landscape.QUAD_TOL)
    landscape.interval_integral(ctx81, lambda s: 1, 1e-40)
    msgs = [r.getMessage() for r in caplog.records if r.name == landscape.__name__]
    assert msgs == ["interval integral at 96 bits, tol 1e-12: 1 panels",
                    "interval integral at 157 bits, tol 1e-40: 1 panels"]


def test_g_rejected_on_support_and_inside(ctx81):
    mid = (ctx81.beta1 + ctx81.beta2) / 2
    for z in (mid, ctx81.beta1, ctx81.beta2, mp.mpc(0), mp.mpc("0.04", "0.02")):
        with pytest.raises(DomainError):
            landscape.g_eval(ctx81, z)


ELL_FROZEN = {
    Fraction(1, 2): "-1.8465735902799727",
    Fraction(3, 4): "-1.5965735902799727",
    Fraction(81, 100): "-1.5055389292961137",
}


@pytest.mark.parametrize("A", sorted(ELL_FROZEN))
def test_ell_constant_frozen(A):
    ctx = landscape.make_context(A)
    ell = landscape.ell_constant(ctx)
    assert mp.im(mp.mpc(ell)) == 0
    assert abs(ell - mp.mpf(ELL_FROZEN[A])) <= 1e-12
    # the Richardson fit of the g identity, an independent bracket check
    assert abs(ell - phase_quadrature.ell_richardson(ctx)) <= 1e-10


def test_ell_identity_plugback(ctx81):
    # 2 g = ell + A log z + z - 2 phi + 2 (1-A) pi i off the cuts
    with mp.workprec(256):
        z = mp.mpc(5, 5)
        lhs = 2 * landscape.g_eval(ctx81, z)
        rhs = (landscape.ell_constant(ctx81) + ctx81.A * mp.log(z) + z
               - 2 * phase_quadrature.closed_phi(ctx81, z)
               + 2 * (1 - ctx81.A) * mp.pi * mp.mpc(0, 1))
        assert abs(lhs - rhs) <= 1e-11


def test_ell_constant_cached(ctx81):
    assert landscape.ell_constant(ctx81) is landscape.ell_constant(ctx81)
