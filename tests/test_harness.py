"""Plans, zero runs, classification reports, serialization."""

import importlib.resources
import json
import logging
import math
from fractions import Fraction

import jsonschema
import mpmath as mp
import pytest

import phase_quadrature
from lagzero import contour, harness, laguerre, landscape, measure, rootfinder
from lagzero.errors import DomainError, NonConvergence, PlanError


def test_dist_to_integers_exact():
    assert harness.dist_to_integers("-32.4") == Fraction(2, 5)
    assert harness.dist_to_integers("-31.999999") == Fraction(1, 10 ** 6)
    assert harness.dist_to_integers(Fraction(-63, 2)) == Fraction(1, 2)
    assert harness.dist_to_integers(-32) == 0


def test_r_hat_frozen():
    assert harness.r_hat_from(40, "-32.4") == pytest.approx(
        0.022907268296853876, abs=1e-15)
    assert harness.r_hat_from(40, "-31.999999") == pytest.approx(
        0.34538776394910686, abs=1e-15)
    assert harness.r_hat_from(40, -32) == math.inf


def test_decimal_str():
    assert harness.decimal_str(Fraction(-162, 5)) == "-32.4"
    assert harness.decimal_str(Fraction(-63, 2)) == "-31.5"
    assert harness.decimal_str(Fraction(5)) == "5"
    assert harness.decimal_str(Fraction(1, 8)) == "0.125"
    # non-terminating fractions fall back to a 40-digit rendering
    assert harness.decimal_str(Fraction(1, 3)).startswith("0.333333")


def test_make_plan_r0_saturates():
    plan = harness.make_plan(Fraction(4, 5), 0.0, [20, 40, 80])
    assert plan.alphas == (Fraction(-31, 2), Fraction(-63, 2),
                           Fraction(-127, 2))
    for a in plan.alphas:
        assert harness.dist_to_integers(a) == Fraction(1, 2)


def test_make_plan_r1_hits_rate():
    plan = harness.make_plan(Fraction(4, 5), 1.0, [20, 40])
    for n, a in zip(plan.n_values, plan.alphas):
        assert abs(harness.r_hat_from(n, a) - 1.0) <= 1e-12


def test_make_plan_r_inf_integers():
    plan = harness.make_plan(Fraction(4, 5), math.inf, [20, 40])
    assert plan.alphas == (Fraction(-16), Fraction(-32))


def test_make_plan_rejects_bad_input():
    # a plan the theorem cannot hold is a domain error, exit 2 in the CLI
    assert issubclass(PlanError, DomainError)
    with pytest.raises(PlanError):
        harness.make_plan(Fraction(4, 5), 0.0, [1, 20])
    with pytest.raises(PlanError):
        harness.make_plan(Fraction(3, 2), 0.0, [20])
    with pytest.raises(PlanError):
        harness.make_plan(Fraction(4, 5), 0.0, [20, 40], overrides=["-16.5"])
    # a negative rate would get the r = 0 alphas, NaN no alphas at all
    with pytest.raises(PlanError):
        harness.make_plan("0.8", -1.0, [40, 200])
    with pytest.raises(PlanError):
        harness.make_plan("0.8", math.nan, [40, 200])


def test_make_plan_overrides():
    plan = harness.make_plan(Fraction(4, 5), 0.0, [40], overrides=["-32.4"])
    assert plan.alphas == (Fraction(-162, 5),)
    with pytest.raises(PlanError):
        harness.make_plan(Fraction(4, 5), 0.0, [40], overrides=[0])
    with pytest.raises(PlanError):
        harness.make_plan(Fraction(4, 5), 0.0, [40], overrides=[-40])
    with pytest.raises(PlanError):
        # integer override contradicts a finite rate
        harness.make_plan(Fraction(4, 5), 0.0, [40], overrides=[-32])
    with pytest.raises(PlanError):
        # -alpha/n = 0.7625 is more than 1/40 away from A
        harness.make_plan(Fraction(4, 5), 0.0, [40], overrides=["-30.5"])


def test_run_comparison_frozen_noninteger():
    rep = harness.run_comparison(40, "-32.4",
                                 harness.RunOptions(classify_tol=0.15))
    assert (rep.loop_count, rep.interval_count, rep.outlier_count) == (32, 8, 0)
    assert rep.alpha == "-32.4"
    assert rep.mass_error == pytest.approx(0.01, abs=1e-12)
    # the loop geometry of the zeros' foot points on Gamma_r
    assert rep.max_deviation == pytest.approx(0.016018785997521389, abs=1e-9)
    assert rep.ks_interval == pytest.approx(0.08690135070094654, abs=1e-9)
    assert rep.ks_loop == pytest.approx(0.023263861018927412, abs=1e-9)
    assert rep.origin_multiplicity == 0
    assert rep.valid
    assert rep.residual_max < 1e-60
    assert rep.sweep == ((0.05, 32, 8, 0), (0.1, 32, 8, 0), (0.2, 32, 8, 0))


@pytest.mark.parametrize("n,alpha", [(40, "-32.4"), (80, -64), (40, "-31.99999886")])
def test_ks_interval_is_float64_and_matches_cdf_interval(monkeypatch, n, alpha):
    # the interval KS takes the float64 phase, never the 256-bit CDF,
    # and lands within 1e-14 of the KS that CDF gives
    cdf_interval = measure.cdf_interval

    def refuse(*args):
        raise AssertionError("run_comparison called measure.cdf_interval")

    monkeypatch.setattr(measure, "cdf_interval", refuse)
    rep = harness.run_comparison(n, alpha)
    ctx = landscape.make_context(laguerre.theorem_ratio(n, alpha))
    b1, b2 = float(ctx.beta1), float(ctx.beta2)
    xs = sorted(x for x, _, lab in rep.zeros if lab == "interval")
    assert len(xs) == rep.interval_count > 0
    want = harness._ks([float(cdf_interval(ctx, min(max(x, b1), b2))) / (1 - float(ctx.A))
                        for x in xs])
    assert abs(rep.ks_interval - want) <= 1e-14


def _traced(caplog):
    # contour's DEBUG lines, one per traced Gamma_r
    return [r.getMessage() for r in caplog.records if r.name == contour.__name__]


def test_run_comparison_and_trace_log_counts(caplog):
    caplog.set_level(logging.DEBUG, logger=harness.__name__)
    caplog.set_level(logging.DEBUG, logger=contour.__name__)
    harness.run_comparison(40, "-32.4")
    traced = _traced(caplog)
    assert len(traced) == 1
    assert traced[0].startswith("Gamma_0.0229") and " vertices at max_step " in traced[0]
    # compute_zeros' start, read off the Newton polygon, and no retry
    counts = [r.getMessage() for r in caplog.records if r.name == harness.__name__]
    assert counts == ["n=40 alpha=-32.4: starting at 256 bits; the Newton polygon "
                      "puts the smallest zero near 2^-6",
                      "n=40 alpha=-32.4: 32 loop, 8 interval, 0 outlier zeros; "
                      "KS over 32 loop and 8 interval points"]


def test_compute_zeros_seeds_from_a_coarse_trace(caplog):
    # the seeds only interpolate Gamma_r and the foot points only start from
    # it, so compute_zeros and run_comparison each trace it once, at 8 times
    # the default step
    def step(A):
        ctx = landscape.make_context(A)
        return (float(ctx.beta2) - float(ctx.beta1)) / contour.SPAN_STEPS

    def traced():
        return [m.split(" vertices at ")[1] for m in _traced(caplog)]

    caplog.set_level(logging.DEBUG, logger=contour.__name__)
    harness.compute_zeros(88, "-71.2909")
    coarse = 8 * step(Fraction("71.2909") / 88)
    assert traced() == [f"max_step {coarse:.3g}"]
    # "Gamma_<r>: <count> vertices at max_step <step>"
    assert int(_traced(caplog)[0].split()[1]) < 400
    caplog.clear()
    harness.run_comparison(40, "-32.4")
    assert traced() == [f"max_step {8 * step(Fraction(81, 100)):.3g}"]


def test_compute_zeros_traces_few_vertices_next_to_a_equal_1(caplog):
    # at A_n = 1 - 2e-11 the coarse trace of Gamma_4.6 is bounded by angle,
    # not by beta2 - beta1 = 1.8e-5, so it takes a few hundred vertices
    caplog.set_level(logging.DEBUG, logger=contour.__name__)
    zset = harness.compute_zeros(5, "-4.9999999999")
    traced = _traced(caplog)
    assert len(traced) == 1
    # "Gamma_<r>: <count> vertices at max_step <step>"
    assert int(traced[0].split()[1]) < 500
    assert len(zset.zeros) == 5


def test_report_geometry_is_step_converged():
    # max_deviation and ks_loop read phi at each zero's foot point; the
    # oracle projects the zeros onto a trace 64 times finer than the default
    # and interpolates the loop CDF there.  Its chords are off the exact
    # distances by about 4e-11, and its CDF, which converges at first
    # order, by about 1e-7
    opts = harness.RunOptions(classify_tol=0.15)
    rep = harness.run_comparison(40, "-32.4", opts)
    ctx = landscape.make_context(Fraction(81, 100))
    span = float(ctx.beta2) - float(ctx.beta1)
    fine = contour.trace_gamma(ctx, rep.r_hat, span / (64 * contour.SPAN_STEPS))
    zs = [complex(x, y) for x, y, _ in rep.zeros]
    s, d_loop = contour.project_to_loop(fine, zs)
    max_dev = max(map(min, contour.interval_gap(ctx, zs), d_loop))
    arcs, cum = phase_quadrature.loop_cdf_points(fine)
    cdf = sorted(phase_quadrature.interp(u, arcs, cum) / cum[-1]
                 for u, (_, _, lab) in zip(s, rep.zeros) if lab == "loop")
    assert len(cdf) == rep.loop_count == 32
    assert abs(rep.max_deviation - max_dev) <= 1e-9
    assert abs(rep.ks_loop - harness._ks(cdf)) <= 5e-7


def test_run_comparison_integer_atom():
    rep = harness.run_comparison(40, -32)
    assert (rep.loop_count, rep.interval_count, rep.outlier_count) == (0, 8, 0)
    assert rep.origin_multiplicity == 32
    assert rep.r_hat == math.inf
    assert rep.ks_loop == 0.0
    assert rep.mass_error == 0.0


def test_run_comparison_near_integer():
    rep = harness.run_comparison(40, "-31.999999")
    assert (rep.loop_count, rep.interval_count, rep.outlier_count) == (32, 8, 0)
    loops = [x for x, y, lab in rep.zeros if lab == "loop"]
    ints = [x for x, y, lab in rep.zeros if lab == "interval"]
    assert max(loops) == pytest.approx(0.1399523048826555, abs=1e-6)
    assert min(ints) == pytest.approx(0.4336336830986336, abs=1e-6)


@pytest.mark.parametrize("n,alpha,tol", [(25, "-10.5", 0.05), (40, -32, 0.2)])
def test_sweep_row_at_classify_tol_matches_headline(n, alpha, tol):
    rep = harness.run_comparison(n, alpha, harness.RunOptions(classify_tol=tol))
    rows = {d: (lo, iv, ou) for d, lo, iv, ou in rep.sweep}
    assert rows[tol] == (rep.loop_count, rep.interval_count, rep.outlier_count)


def test_run_comparison_projects_each_zero_once(monkeypatch):
    # every tolerance thresholds one foot point per zero, each started
    # from one projection of all zeros onto the coarse trace
    calls = []
    project = contour.project_to_loop

    def counting(gamma, zs):
        calls.append(len(zs))
        return project(gamma, zs)

    monkeypatch.setattr(contour, "project_to_loop", counting)
    rep = harness.run_comparison(25, "-10.5")
    assert calls == [25]
    assert len(rep.sweep) == 3


@pytest.mark.parametrize("n,alpha", [(40, "-32.3564"), (80, "-64.7741"), (112, "-89"),
                                     (40, "-31.99999886"), (96, "-76.0000011")])
def test_zeros_satisfy_the_stieltjes_relation(n, alpha):
    # the Laguerre equation x y'' + (alpha + 1 - x) y' + n y = 0 at the
    # zeros of L_n^(alpha)(n z): sum_{j != k} 1/(z_k - z_j) + m/z_k =
    # n (z_k + a)/(2 z_k), a = -(alpha + 1)/n, m zeros at the origin.  It
    # checks laguerre.monic_rescaled and the root finder against the
    # differential equation, apart from the certificate
    zset = harness.compute_zeros(n, alpha)
    a = -(laguerre.parse_alpha(alpha) + 1) / n
    m = zset.origin_multiplicity
    with mp.workprec(300):
        zs = [mp.mpc(z) for z in zset.zeros]
        a = mp.mpf(a.numerator) / a.denominator
        worst = max(abs(mp.fsum(1 / (zk - zj) for j, zj in enumerate(zs) if j != k)
                        - n * (zk + a) / (2 * zk) + m / zk) * abs(zk) / n
                    for k, zk in enumerate(zs))
    assert worst <= mp.mpf("1e-60")


def test_min_modulus_tracks_distance():
    # each two decades closer to the integer pulls the innermost zero
    # strictly further toward the origin
    mins = []
    for a in ("-31.99", "-31.9999", "-31.999999"):
        zset = harness.compute_zeros(40, a)
        mins.append(min(abs(complex(z)) for z in zset.zeros))
    assert mins[0] > mins[1] > mins[2]


@pytest.mark.parametrize("n,alpha", [(80, "-64"), (112, "-89")])
def test_integer_alpha_seeds_on_the_interval(n, alpha, caplog):
    # past the origin factor every zero is real and on [beta1, beta2];
    # seeded at interval quantiles the sweeps converge at once, where the
    # Cauchy-circle start took 89 (n=80) and 177 (n=112) sweeps.  r = inf
    # has an atom, not a loop, so no Gamma_r is traced
    caplog.set_level(logging.DEBUG, logger=contour.__name__)
    zset = harness.compute_zeros(n, alpha)
    assert harness.r_hat_from(n, alpha) == math.inf and _traced(caplog) == []
    assert zset.origin_multiplicity == -int(alpha)
    assert zset.iterations <= 10
    ctx = landscape.make_context(Fraction(-int(alpha), n))
    b1, b2 = ctx.beta1, ctx.beta2
    assert all(z.imag == 0 and b1 <= z.real <= b2 for z in zset.zeros)


@pytest.mark.parametrize("alpha", ["-32.4", "-31.99999886", "-32.7", "-31.3"])
def test_seeds_follow_the_real_complex_split(alpha):
    # round(n + alpha) seeds on [beta1, beta2], mu_r's interval share; x_r
    # exactly when floor(-alpha) is odd and the loop's positive crossing
    # exactly when frac(-alpha) > 1/2, so that each side of 0 holds
    # Szego's count of real seeds; exact conjugate pairs for the rest
    n, alpha_f = 40, laguerre.parse_alpha(alpha)
    ctx = landscape.make_context(Fraction(-alpha_f, n))
    loop = contour.trace_gamma(ctx, harness.r_hat_from(n, alpha_f))
    seeds = harness._seeds_for(n, alpha_f, ctx, loop)
    m = math.floor(-alpha_f)
    assert len(seeds) == n
    real = [s for s in seeds if s.imag == 0]
    on_interval = [s for s in real if ctx.beta1 <= s.real <= ctx.beta2]
    assert len(on_interval) == round(n + alpha_f)
    x_r, crossing = loop.upper_arc[0], loop.upper_arc[-1]
    assert [s for s in real if s not in on_interval] == (
        [x_r] * (m % 2) + [crossing] * (-alpha_f - m > Fraction(1, 2)))
    assert (sum(s.real > 0 for s in real), sum(s.real < 0 for s in real)) == (
        laguerre.real_zero_split(n, alpha_f))
    key = lambda w: (float(w.real), float(w.imag))  # noqa: E731
    assert sorted(seeds, key=key) == sorted((mp.conj(s) for s in seeds), key=key)


@pytest.mark.parametrize("n", [20, 40, 80])
@pytest.mark.parametrize("frac", ["6", "9", "999999"])
def test_the_extra_positive_zero_seeded_on_the_loop_converges_at_once(caplog, n, frac):
    # frac(-alpha) > 1/2 at A near 1/2: with the smallest positive zero
    # seeded at the loop's positive crossing, no interval seed starts a
    # spacing off its zero, and the sweeps end in 5, where seeding that
    # zero on the interval took 6-14
    caplog.set_level(logging.DEBUG, logger="lagzero")
    zset = harness.compute_zeros(n, f"-{n // 2 - 1}.{frac}")
    assert zset.iterations <= 5
    assert zset.suspect == ()
    msgs = [r.getMessage() for r in caplog.records]
    assert not [m for m in msgs if m.startswith(("escalating", "retrying"))]


def test_run_comparison_deterministic():
    a = harness.run_comparison(25, "-10.5")
    b = harness.run_comparison(25, "-10.5")
    assert a == b


def test_report_json_shape():
    rep = harness.run_comparison(40, -32)
    doc = json.loads(harness.report_json(rep))
    assert set(doc) == {
        "n", "alpha", "r_hat", "max_deviation", "loop_count",
        "interval_count", "outlier_count", "ks_interval", "ks_loop",
        "mass_error", "residual_max", "origin_multiplicity", "valid",
        "sweep",
    }
    assert "zeros" not in doc
    assert doc["r_hat"] == "inf"
    assert doc["alpha"] == "-32"
    assert all(set(row) == {"delta", "loop", "interval", "outlier"}
               for row in doc["sweep"])


def test_report_json_matches_schema():
    ref = importlib.resources.files("lagzero") / "schemas" / \
        "comparison_report.schema.json"
    schema = json.loads(ref.read_text())
    for alpha in ("-10.5", -10):
        rep = harness.run_comparison(25, alpha)
        jsonschema.validate(json.loads(harness.report_json(rep)), schema)


def test_study_outputs():
    plan = harness.make_plan(Fraction(4, 5), 0.0, [10, 20])
    reports = harness.convergence_study(plan)
    assert len(reports) == 2
    assert reports[0].n == 10
    csv = harness.study_csv(reports)
    lines = csv.splitlines()
    assert lines[0] == "n,alpha,r_hat,max_deviation,ks_interval,ks_loop,mass_error"
    assert len(lines) == 3
    assert lines[1].startswith("10,-7.5,")
    docs = json.loads(harness.study_json(reports))
    assert [d["n"] for d in docs] == [10, 20]


def test_run_comparison_domain_errors():
    with pytest.raises(DomainError):
        harness.run_comparison(10, -20)
    with pytest.raises(DomainError):
        harness.run_comparison(10, "2.5")


def test_compute_zeros_outside_theorem_range(caplog):
    # positive alpha: no limit-set machinery, zeros still come back
    caplog.set_level(logging.DEBUG, logger=contour.__name__)
    zset = harness.compute_zeros(3, Fraction(5, 2))
    assert _traced(caplog) == []
    assert len(zset.zeros) == 3
    assert all(z.imag == 0 and z.real > 0 for z in zset.zeros)


def _start(n, alpha):
    # the default precision compute_zeros starts from
    return rootfinder.start_precision(laguerre.monic_rescaled(n, alpha))[0]


@pytest.mark.parametrize("n, alpha, real", [(40, "5.5", 40), (80, "-100.3", 0)])
def test_compute_zeros_outside_theorem_range_at_scale(n, alpha, real, caplog):
    # seeded from the Newton polygon: alpha > -1 has n positive zeros, and
    # alpha < -n with n even has none real (Szego, Thm 6.73); every zero is
    # certified, with no suspect disk, at the first precision tried
    caplog.set_level(logging.DEBUG, logger=contour.__name__)
    zset = harness.compute_zeros(n, alpha)
    assert _traced(caplog) == []
    assert zset.precision_bits == _start(n, alpha)
    assert len(zset.zeros) == n
    assert zset.suspect == ()
    assert sum(1 for z in zset.zeros if z.imag == 0) == real
    values = {(z.real, z.imag) for z in zset.zeros}
    with mp.workprec(zset.precision_bits):
        assert all((z.real, -z.imag) in values for z in zset.zeros)


def test_compute_zeros_just_below_minus_n(caplog):
    # alpha in (-n - 1, -n): the Newton polygon's binomials have real roots
    # where L_n^(alpha) has no real zero but one negative for odd n (Szego,
    # Thm 6.73); the seeds follow Szego's split, and every zero is
    # certified at the first precision tried
    caplog.set_level(logging.DEBUG, logger=contour.__name__)
    for n in range(2, 61):
        alpha = f"-{n}.5"
        zset = harness.compute_zeros(n, alpha)
        assert _traced(caplog) == [], n
        assert zset.precision_bits == _start(n, alpha), n
        assert zset.suspect == (), n
        assert len(zset.zeros) == n
        assert [z.real < 0 for z in zset.zeros if z.imag == 0] == [True] * (n % 2), n


def _retries(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == harness.__name__ and r.getMessage().startswith("retrying")]


def test_small_zeros_raise_the_start(caplog):
    # dist(alpha, Z) = 1e-301 puts eight zeros near 2^-127.5, the Newton
    # polygon's first slope: compute_zeros starts at 2 * 128 + 128 = 384
    # bits, and prints the zeros of a run at four times that
    caplog.set_level(logging.DEBUG, logger=harness.__name__)
    alpha = "-8." + "0" * 300 + "1"
    assert rootfinder.start_precision(laguerre.monic_rescaled(10, alpha)) == (384, 128)
    zset = harness.compute_zeros(10, alpha)
    ref = harness.compute_zeros(10, alpha, precision_bits=4 * 384)
    assert caplog.records[0].getMessage() == (
        f"n=10 alpha={alpha}: starting at 384 bits; the Newton polygon puts the "
        "smallest zero near 2^-128")
    assert min(abs(z) for z in zset.zeros) < mp.mpf(2) ** -100
    assert zset.precision_bits in (384, 768) and zset.suspect == ()
    assert [complex(z) for z in zset.zeros] == [complex(z) for z in ref.zeros]


def test_compute_zeros_retries_at_doubled_precision(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger=harness.__name__)
    find = rootfinder.find_zeros
    calls = []

    def first_fails(coeffs, bits, **kwargs):
        calls.append(bits)
        if len(calls) == 1:
            raise NonConvergence(rootfinder.MAX_ITERATIONS, mp.mpf(1))
        return find(coeffs, bits, **kwargs)

    monkeypatch.setattr(rootfinder, "find_zeros", first_fails)
    zset = harness.compute_zeros(12, "-9.6")
    bits = _start(12, "-9.6")
    assert calls == [bits, 2 * bits]
    assert zset.precision_bits == 2 * bits
    assert len(zset.zeros) + zset.origin_multiplicity == 12
    assert zset.suspect == ()
    assert _retries(caplog) == [f"retrying at {2 * bits} bits: NonConvergence "
                                f"(no convergence after {rootfinder.MAX_ITERATIONS} "
                                "iterations (worst residual 1.0))"]


def test_compute_zeros_retries_a_suspect_set(monkeypatch, caplog):
    # a first pass whose disks are not all certified goes through the
    # same single retry as one that does not converge
    caplog.set_level(logging.DEBUG, logger=harness.__name__)
    find = rootfinder.find_zeros
    calls, results = [], []

    def first_suspect(coeffs, bits, **kwargs):
        calls.append(bits)
        zset = find(coeffs, bits, **kwargs)
        if len(calls) == 1:
            zset = zset._replace(suspect=(0,))
        results.append(zset)
        return zset

    monkeypatch.setattr(rootfinder, "find_zeros", first_suspect)
    zset = harness.compute_zeros(12, "-9.6")
    bits = _start(12, "-9.6")
    assert calls == [bits, 2 * bits]
    assert zset is results[1]
    assert zset.precision_bits == 2 * bits
    # zero 0's disk fixes its doubles: only the replaced suspect list fired
    assert _retries(caplog) == [f"retrying at {2 * bits} bits: 0 suspect zeros whose "
                                "disk does not fix a printed double, 1 in disks that "
                                "overlap or exceed tol"]
