"""Level-curve tracing: crossings, closure, orientation, CSV output."""

import bisect
import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import phase_quadrature
from lagzero import contour, landscape
from lagzero.errors import BracketError, ClosureError, DomainError, OnBoundary


def test_axis_crossing_frozen_values(ctx81):
    assert contour.axis_crossing(ctx81, 0.0) == pytest.approx(
        -0.12999102572667, abs=1e-9)
    assert contour.axis_crossing(ctx81, 1.0) == pytest.approx(
        -0.04395955424439, abs=1e-9)


def test_axis_crossing_sits_on_the_level(ctx81):
    # the float64 search result is verified against the mpmath phi
    for r in (0.0, 0.7, 2.0):
        x = contour.axis_crossing(ctx81, r)
        v = phase_quadrature.closed_phi(ctx81, x)
        assert abs(float(mp.re(v)) - r / 2) <= 1e-9
        assert x < 0


def test_axis_crossing_monotone_shrinks(ctx81):
    xs = [contour.axis_crossing(ctx81, r) for r in (0.0, 1.0, 3.0, 6.0)]
    assert all(a < b < 0 for a, b in zip(xs, xs[1:]))
    assert abs(xs[-1]) < 1e-3


def test_trace_is_closed_and_clockwise(ctx75):
    g = contour.trace_gamma(ctx75, 1.0)
    assert g.points[0] == g.points[-1]
    assert contour.winding_number(g) == -1
    assert contour.winding_number(g, 10 + 0j) == 0


def test_trace_conjugate_symmetric_vertex_set(ctx75):
    g = contour.trace_gamma(ctx75, 1.0)
    pts = set(g.points)
    assert {p.conjugate() for p in pts} == pts


def test_float_re_phi_matches_mp_phi(ctx81):
    # the tracer's float64 Re phi (the closed form in cmath) against the
    # mpmath phase, on seeded points in both half-planes, on every real
    # segment and near the branch points
    A, f1, f2 = float(ctx81.A), float(ctx81.beta1), float(ctx81.beta2)
    rng = random.Random(20261018)
    b1, b2 = ctx81.beta1, ctx81.beta2
    pts = [mp.mpc(rng.uniform(-4, 4), rng.uniform(-3, 3)) for _ in range(40)]
    pts += [mp.mpc(b + d, s * abs(d)) for b in (b1, b2)
            for d in (mp.mpf("-1e-7"), mp.mpf("1e-4")) for s in (1, -1)]
    pts += [mp.mpc(x) for x in (mp.mpf("-3.5"), mp.mpf("-1e-6"), mp.mpf("1e-6"),
                                b1 / 2, b1, (b1 + b2) / 2, b2, mp.mpf(3))]
    with mp.workprec(256):
        for p in pts:
            ref = mp.re(phase_quadrature.closed_phi(ctx81, p))
            got = landscape.phi_closed_form(A, f1, f2, complex(p),
                                            cmath.sqrt, cmath.log).real
            assert abs(got - float(ref)) <= 1e-13 * max(1.0, abs(float(ref))), p


def test_trace_vertices_sit_on_the_level(ctx81):
    g = contour.trace_gamma(ctx81, 0.5)
    for p in g.points[5:-5:40]:
        if p.imag == 0:
            continue
        v = phase_quadrature.closed_phi(ctx81, p)
        assert abs(float(mp.re(v)) - 0.25) <= 2e-9


def test_trace_r0_reaches_beta1(ctx81):
    g = contour.trace_gamma(ctx81, 0.0)
    assert min(abs(p - float(ctx81.beta1)) for p in g.points) == 0.0


@pytest.mark.parametrize("A", ["0.001", "0.01"])
def test_r0_corner_scales_with_a_small_loop(A):
    # at small A the whole Gamma_0 is smaller than beta2 - beta1; the
    # corner grading must still end within 3e-6 beta1 of beta1
    ctx = landscape.make_context(Fraction(A))
    g = contour.trace_gamma(ctx, 0.0)
    b1 = float(ctx.beta1)
    assert contour.winding_number(g) == -1
    assert g.upper_arc[-1] == b1
    assert 0 < abs(g.upper_arc[-2] - b1) <= 3e-6 * b1
    # near a circle on the diameter [x_0, beta1]
    assert g.arclengths[-1] == pytest.approx(math.pi * (b1 - g.points[0].real), rel=0.2)


def test_positive_r_stays_left_of_beta1(ctx81):
    g = contour.trace_gamma(ctx81, 1.0)
    assert max(p.real for p in g.points) < float(ctx81.beta1)


def test_arclengths_cumulative(ctx75):
    g = contour.trace_gamma(ctx75, 1.0)
    assert len(g.arclengths) == len(g.points)
    assert g.arclengths[0] == 0.0
    diffs = [b - a for a, b in zip(g.arclengths, g.arclengths[1:])]
    assert all(d > 0 for d in diffs)
    seg = [abs(b - a) for a, b in zip(g.points, g.points[1:])]
    assert all(abs(d - s) < 1e-12 for d, s in zip(diffs, seg))


def test_nested_levels(ctx99):
    # each loop lies inside the one of the lower level, by the polyline's
    # own even-odd rule and by phi
    gs = {r: contour.trace_gamma(ctx99, r) for r in (0.0, 0.5, 1.0)}
    for outer, inner in ((0.0, 0.5), (0.5, 1.0)):
        pts = gs[inner].points[::9]
        assert all(phase_quadrature.even_odd(gs[outer], pts))
        assert all(contour.point_in_loop(ctx99, outer, p) for p in pts)
    re_max = [max(p.real for p in gs[r].points) for r in (0.0, 0.5, 1.0)]
    assert re_max[0] > re_max[1] > re_max[2]


def test_point_in_loop(ctx81):
    g = contour.trace_gamma(ctx81, 0.0)
    assert contour.point_in_loop(ctx81, 0.0, 0j)
    assert not contour.point_in_loop(ctx81, 0.0, 4 + 0j)
    assert not contour.point_in_loop(ctx81, 0.0, -float(ctx81.beta1))
    with pytest.raises(OnBoundary):
        contour.point_in_loop(ctx81, 0.0, g.points[0])


def test_point_in_loop_inside_a_tiny_loop():
    # x_r/2 lies inside Gamma_20 at A = 1/2, whose radius is 2e-19; a
    # distance to the polyline measured against the level tolerance
    # called it a boundary point
    ctx = landscape.make_context(Fraction(1, 2))
    x_r = contour.axis_crossing(ctx, 20.0)
    assert contour.point_in_loop(ctx, 20.0, x_r / 2)
    assert not contour.point_in_loop(ctx, 20.0, 2 * x_r)


def _off_loop_points(ctx, gamma, rng):
    # vertices pushed off the loop, points near |z| = beta1 and near
    # beta1, and points around the loop at its own scale; each kept only
    # at least 1e-6 |z| from the polyline
    b1 = float(ctx.beta1)
    size = max(abs(p) for p in gamma.points)
    zs = [p + abs(p) * d * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
          for p in gamma.upper_arc[::max(1, len(gamma.upper_arc) // 12)]
          for d in (1e-2, 1e-4)]
    zs += [b1 * (1 + d) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
           for d in (-1e-3, -1e-9, 0.0, 1e-9)]
    zs += [b1 + b1 * d * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
           for d in (1e-2, 1e-4)] + [b1 * (1 - 1e-4), b1 * (1 + 1e-4)]
    zs += [size * complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
           for _ in range(6)]
    pts = np.array(gamma.points)
    # distances on the loop scaled by a power of 2 to a size near 1
    scale = 2.0 ** -math.frexp(size)[1]
    a, d = pts[:-1] * scale, np.diff(pts) * scale
    out = []
    for z in zs:
        w = z * scale - a
        t = np.clip((w.real * d.real + w.imag * d.imag) / abs(d) ** 2, 0, 1)
        if np.abs(w - t * d).min() >= 1e-6 * abs(z * scale):
            out.append(z)
    return out


@pytest.mark.parametrize("A", ["0.01", "0.05", "0.3", "0.5", "0.81", "0.95",
                               "0.999", "0.99999"])
def test_point_in_loop_agrees_with_the_even_odd_rule(A):
    ctx = landscape.make_context(Fraction(A))
    rng = random.Random(A)
    for r in (0.0, 0.01, 0.1, 1.0, 4.6, 20.0):
        try:
            gamma = contour.trace_gamma(ctx, r)
        except BracketError:
            continue  # x_r underflows: A = 0.01, r = 20
        zs = _off_loop_points(ctx, gamma, rng)
        assert len(zs) >= 20
        want = phase_quadrature.even_odd(gamma, zs)
        got = [contour.point_in_loop(ctx, r, z) for z in zs]
        assert got == want, (r, [z for z, a, b in zip(zs, got, want) if a != b])
        assert any(want) and not all(want)


def test_limit_set_distance(ctx81):
    g = contour.trace_gamma(ctx81, 0.0)
    b2 = float(ctx81.beta2)
    assert contour.limit_set_distance(ctx81, g, b2 + 1.0) == pytest.approx(1.0)
    mid = (float(ctx81.beta1) + b2) / 2
    assert contour.limit_set_distance(ctx81, g, mid) == 0.0
    assert contour.limit_set_distance(ctx81, g, g.points[3]) == 0.0


def _reference_projection(gamma, z):
    # plain per-segment loop; strict < keeps the first of equal minima
    pts, arcs = gamma.points, gamma.arclengths
    best = (0.0, math.inf)
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        d = b - a
        L2 = d.real * d.real + d.imag * d.imag
        t = 0.0
        if L2 > 0:
            t = ((z - a).real * d.real + (z - a).imag * d.imag) / L2
            t = max(0.0, min(1.0, t))
        dist = abs(z - (a + t * d))
        if dist < best[1]:
            best = (arcs[i] + t * (arcs[i + 1] - arcs[i]), dist)
    return best


def _reference_gap(ctx, z):
    return abs(z - min(max(z.real, float(ctx.beta1)), float(ctx.beta2)))


def _assert_kernel_matches_reference(ctx, gamma, zs):
    s, d = contour.project_to_loop(gamma, zs)
    gaps = contour.interval_gap(ctx, zs)
    for k, z in enumerate(zs):
        ref_s, ref_d = _reference_projection(gamma, z)
        assert (s[k], d[k]) == (ref_s, ref_d)
        assert gaps[k] == _reference_gap(ctx, z)
        assert contour.limit_set_distance(ctx, gamma, z) == min(
            _reference_gap(ctx, z), ref_d)


@pytest.mark.parametrize("r", [0.0, 3.0])
def test_project_to_loop_matches_segment_loop(ctx81, r):
    # bit for bit: points just off Gamma_r, on its vertices and far away
    g = contour.trace_gamma(ctx81, r)
    size = max(abs(p) for p in g.points)
    rng = random.Random(7)
    zs = [p + size * 1e-2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
          for p in g.points[::23]]
    zs += list(g.points[::97])
    zs += [0j, 5 + 3j, -4 - 2j, 1e3j, float(ctx81.beta2) + 1.0,
           (float(ctx81.beta1) + float(ctx81.beta2)) / 2 + 0.01j]
    _assert_kernel_matches_reference(ctx81, g, zs)


def test_project_to_loop_zero_length_segment(ctx81):
    # a repeated vertex makes a zero-length segment; equidistant segments
    # resolve to the first one, as in the loop
    pts = (-0.5 + 0j, 0.5j, 0.5j, 0.5 + 0j, -0.5j, -0.5 + 0j)
    arcs = [0.0]
    for a, b in zip(pts, pts[1:]):
        arcs.append(arcs[-1] + abs(b - a))
    g = contour.ContourPolyline(points=pts, r=0.0, arclengths=tuple(arcs))
    zs = [0.6j, 0.5j, 0.1 + 0.55j, -0.1 + 0.7j, 0j, 2 + 2j, -0.5 + 0j]
    _assert_kernel_matches_reference(ctx81, g, zs)


def test_project_to_loop_far_points_match_segment_loop(ctx81):
    # far from the loop the rounding of |z - v| outgrows any fixed margin;
    # the pruned walk must still find the reference's segment
    g = contour.trace_gamma(ctx81, 0.0, max_step=0.05)
    rng = random.Random(1)
    zs = [10.0 ** e * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
          for e in (3, 6, 9, 12, 15) for _ in range(12)]
    _assert_kernel_matches_reference(ctx81, g, zs)


def test_project_to_loop_prunes_a_loop_far_smaller_than_the_point(ctx81, monkeypatch):
    # Gamma_20 at A = 0.81 is about 6e-12 across: against points at
    # |z| ~ 0.5 the margin must stay below that for the walk to skip most
    # segments, and the result must still match the loop over every
    # segment, bit for bit
    g = contour.trace_gamma(ctx81, 20.0)
    assert max(abs(p) for p in g.points) < 1e-11
    zs = [0.5 * cmath.exp(1j * (k + 0.5)) for k in range(6)] + [0.5 + 0j, -0.5 + 0j]
    steps = []
    monkeypatch.setattr(contour, "bisect_left",
                        lambda *args: steps.append(1) or bisect.bisect_left(*args))
    contour.project_to_loop(g, zs)
    assert len(steps) < len(zs) * len(g.points) / 4
    monkeypatch.undo()
    _assert_kernel_matches_reference(ctx81, g, zs)


def test_project_to_loop(ctx81):
    gamma = contour.trace_gamma(ctx81, 0.0)
    s, dist = contour.project_to_loop(gamma, gamma.points[12])
    assert dist[0] == 0.0
    assert abs(s[0] - gamma.arclengths[12]) <= 1e-12
    _, d0 = contour.project_to_loop(gamma, 0j)
    assert abs(d0[0] - min(abs(p) for p in gamma.points)) <= 1e-6


def test_halving_max_step_is_consistent(ctx81):
    g = contour.trace_gamma(ctx81, 1.0)
    step = (float(ctx81.beta2) - float(ctx81.beta1)) / contour.SPAN_STEPS
    g2 = contour.trace_gamma(ctx81, 1.0, max_step=step / 2)
    assert len(g2.points) > len(g.points)
    length, length2 = g.arclengths[-1], g2.arclengths[-1]
    assert abs(length2 - length) / length < 0.01


@pytest.mark.parametrize("A", ["0.81", "0.999"])
@pytest.mark.parametrize("r", [0.0, 5.0])
def test_coarse_step_still_traces_a_loop(A, r):
    # a max_step far above beta2 - beta1 still gives a closed clockwise
    # polygon on the level, not [x_r, x_end, x_r]
    ctx = landscape.make_context(Fraction(A))
    g = contour.trace_gamma(ctx, r, max_step=10.0)
    assert contour.winding_number(g) == -1
    assert len(g.points) >= 25


def test_polyline_csv_format(ctx75):
    g = contour.trace_gamma(ctx75, 1.0)
    text = contour.polyline_csv(g)
    lines = text.strip().splitlines()
    assert lines[0] == "re,im,arclength"
    assert lines[-1] == "# winding,-1,"
    assert len(lines) == len(g.points) + 2
    first = lines[1].split(",")
    last = lines[-2].split(",")
    assert first[0] == last[0] and first[1] == last[1]
    for row in lines[1:-1]:
        re_s, im_s, arc_s = row.split(",")
        float(re_s), float(im_s), float(arc_s)  # parses cleanly
        assert "np." not in row


def test_polyline_csv_deterministic(ctx75):
    a = contour.polyline_csv(contour.trace_gamma(ctx75, 1.0))
    b = contour.polyline_csv(contour.trace_gamma(ctx75, 1.0))
    assert a == b


def test_degenerate_level_rejected(ctx81):
    with pytest.raises(DomainError):
        contour.trace_gamma(ctx81, math.inf)
    with pytest.raises(DomainError):
        contour.trace_gamma(ctx81, -0.5)


def test_small_loop_far_level(ctx81):
    # r = 6 shrinks the loop by two orders of magnitude; the tracer must
    # still close it and keep the orientation
    g = contour.trace_gamma(ctx81, 6.0)
    assert contour.winding_number(g) == -1
    assert max(abs(p) for p in g.points) < 5e-4


def test_closed_phi_reads_the_axis_on_the_loop_scale():
    # both real crossings of Gamma_12 at A = 0.05 lie 2e-108 from 0; a
    # fixed 2^-300 step off the axis, 5e-91, read Re phi - r/2 = -1.0005
    # there, and closed_phi's |x| 2^-300 step reads the level from either side
    ctx = landscape.make_context(Fraction(1, 20))
    g = contour.trace_gamma(ctx, 12.0)
    for x in (g.upper_arc[0], g.upper_arc[-1]):
        assert x.imag == 0 and abs(x) < 1e-107
        for side in (phase_quadrature.ABOVE, phase_quadrature.BELOW):
            v = phase_quadrature.closed_phi(ctx, x, side)
            assert abs(float(mp.re(v)) - 6.0) <= contour.DEFAULT_LEVEL_TOL


@pytest.mark.parametrize("A", ["0.05", "0.2", "0.81", "0.99", "0.999", "0.99999",
                               "0.99999999998"])
@pytest.mark.parametrize("r", [0.0, 0.1, 3.0, 4.6, 12.0, 20.0])
def test_trace_holds_down_to_tiny_loops(A, r):
    # at A = 0.2, r = 20 the loop has radius 2e-46, and next to A = 1
    # beta2 - beta1 shrinks to 1.8e-5 while Gamma_0 stays about 3 long; the
    # trace must still close in a few thousand vertices, wind once
    # clockwise, mirror exactly and sit on the level
    ctx = landscape.make_context(Fraction(A))
    g = contour.trace_gamma(ctx, r)
    assert g.points[0] == g.points[-1]
    assert len(g.points) < 3500
    assert contour.winding_number(g) == -1
    assert {p.conjugate() for p in g.points} == set(g.points)
    for p in g.upper_arc[::50] + (g.upper_arc[-1],):
        v = phase_quadrature.closed_phi(ctx, p)
        assert abs(float(mp.re(v)) - r / 2) <= contour.DEFAULT_LEVEL_TOL
    # each chord's midpoint m lies near the level line on the loop's own
    # scale: its first-order distance |Re phi(m) - r/2| / |phi'(m)|, with
    # phi' = R/(2m), is about theta^2 |m|/8 = 7.8e-7 |m| at the default
    # step, and larger where the r = 0 corner at beta1 bends the line
    a, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    tol = 1e-5 if r == 0 else 1e-6
    for p, q in zip(g.upper_arc, g.upper_arc[1:]):
        m = (p + q) / 2
        R = cmath.sqrt(m - b1) * cmath.sqrt(m - b2)
        f = landscape.phi_from_root(a, b1, b2, m, R, cmath.log)
        assert abs(f.real - r / 2) * abs(2 * m / R) <= tol * abs(m), (p, q)


def test_winding_number_of_a_loop_below_1e_154():
    # cross products of 1e-200 vertices underflow; the winding must not
    pts = tuple(1e-200 * complex(math.cos(-k * math.pi / 3), math.sin(-k * math.pi / 3))
                for k in range(7))
    g = contour.ContourPolyline(points=pts, r=0.0, arclengths=tuple(range(7)))
    assert contour.winding_number(g) == -1


def _coarse_step(ctx):
    # 8 times the default step, the trace foot points start from
    return 8 * (float(ctx.beta2) - float(ctx.beta1)) / contour.SPAN_STEPS


def _coarse(ctx, r):
    return contour.trace_gamma(ctx, r, _coarse_step(ctx))


@pytest.mark.parametrize("r", [0.5, 6.0])
def test_foot_points_are_the_nearest_points_of_the_level(ctx81, r):
    # points off both halves, inside and outside: phi is on the level at
    # the foot, z - p is normal to the loop there (along the gradient
    # conj(phi') of Re phi), and the distance matches the one to a trace 64
    # times finer than the default, whose chords lie within about 1e-10 of
    # the loop's size
    g = _coarse(ctx81, r)
    rng = random.Random(5)
    zs = [p * (1 + rng.uniform(-0.2, 0.2)) for p in g.upper_arc[1:-1:7]]
    zs += [z.conjugate() for z in zs]
    feet, phis = contour.foot_points(ctx81, g, zs)
    _, want = contour.project_to_loop(contour.trace_gamma(ctx81, r, _coarse_step(ctx81) / 512), zs)
    b1, b2 = float(ctx81.beta1), float(ctx81.beta2)
    size = max(abs(p) for p in g.points)
    for z, p, f, d in zip(zs, feet, phis, want):
        assert abs(f.real - r / 2) <= 1e-12 * max(1.0, r)
        slope = cmath.sqrt(p - b1) * cmath.sqrt(p - b2) / (2 * p)
        assert abs(((z - p) * slope).imag) <= 1e-9 * abs(z - p) * abs(slope)
        assert abs(abs(z - p) - d) <= 1e-9 * size


def test_a_real_point_has_its_foot_on_the_axis(ctx81):
    # a negative real zero (odd floor(-alpha)) lies next to x_r, inside or
    # outside the loop: its foot is x_r on the upper side of the cut
    # (Im p = +0.0), where the loop CDF 1/2 + Im phi/(A pi) is 0.  A real
    # point right of the loop has its foot at the positive crossing
    g = _coarse(ctx81, 0.5)
    x_r, x_c = g.points[0].real, g.upper_arc[-1].real
    feet, phis = contour.foot_points(ctx81, g, [x_r - 0.01, x_r + 0.01, x_c + 0.5])
    for p, want in zip(feet, (x_r, x_r, x_c)):
        assert p.imag == 0 and math.copysign(1.0, p.imag) == 1.0
        assert p.real == pytest.approx(want, rel=1e-12)
    cdf = [0.5 + f.imag / (0.81 * math.pi) for f in phis]
    assert cdf == pytest.approx([0.0, 0.0, 0.5], abs=1e-15)


def test_foot_points_raise_at_the_cap_and_refuse_gamma_0(ctx81, monkeypatch):
    # from the coarse projection Newton meets its 1e-12 |p| stop within 4
    # steps here; at the cap it raises ClosureError, with no other path.
    # Gamma_0 has its corner at beta1, where phi' = 0
    g = _coarse(ctx81, 0.5)
    zs = [1.05 * p for p in g.upper_arc[1:-1:9]]
    monkeypatch.setattr(contour, "_FOOT_ITERS", 4)
    contour.foot_points(ctx81, g, zs)
    monkeypatch.setattr(contour, "_FOOT_ITERS", 1)
    with pytest.raises(ClosureError):
        contour.foot_points(ctx81, g, zs)
    with pytest.raises(DomainError):
        contour.foot_points(ctx81, contour.trace_gamma(ctx81, 0.0), zs)
