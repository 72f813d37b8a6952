"""End-to-end CLI runs through main(argv), checking text and exit codes."""

import importlib.resources
import json

import jsonschema
import pytest

from lagzero import cli, contour, harness, rootfinder


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betas_happy_path(capsys):
    code, out, err = run_cli(capsys, "betas", "--A", "0.799999975")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["A"] == "0.799999975"
    assert 0.305 <= doc["beta1"] <= 0.315
    assert 2.09 <= doc["beta2"] <= 2.10


def test_betas_degenerate_and_domain(capsys):
    code, out, _ = run_cli(capsys, "betas", "--A", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta1"] == doc["beta2"] == 1.0

    code, _, err = run_cli(capsys, "betas", "--A", "1.5")
    assert code == cli.EXIT_DOMAIN
    assert err.startswith("error:")


def test_betas_schema(capsys):
    ref = importlib.resources.files("lagzero") / "schemas" / "betas.schema.json"
    schema = json.loads(ref.read_text())
    _, out, _ = run_cli(capsys, "betas", "--A", "0.75")
    jsonschema.validate(json.loads(out), schema)


def test_zeros_integer_reduction_rows(capsys):
    # L_2^{(-1)}(2z) = 2z^2 - 2z has zeros exactly at 0 and 1
    code, out, _ = run_cli(capsys, "zeros", "--n", "2", "--alpha", "-1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,residual"
    assert lines[1] == "0.0,0.0,0.0"
    assert lines[2].startswith("1.0,0.0,")


# stdout of zeros at integer alpha in {-n..-1}, frozen from the pipeline
# that found the zeros of the reduced L_{n+alpha}^{(-alpha)}(nz): the
# -alpha origin rows come first, then the interval zeros
ZEROS_40_32_FROZEN = "re,im,residual\n" + "0.0,0.0,0.0\n" * 32 + (
    "0.4336335851843287,0.0,3.4985940998568643e-81\n"
    "0.5695069939856084,0.0,5.469787436964948e-81\n"
    "0.7090703691099995,0.0,2.6798004156131036e-81\n"
    "0.8599038801983246,0.0,7.231956789741553e-82\n"
    "1.0274232615393817,0.0,2.8128524947853645e-81\n"
    "1.218475919151815,0.0,7.185956777425318e-82\n"
    "1.4450329336762084,0.0,1.0708029476853144e-81\n"
    "1.7369530571543335,0.0,1.4060039145473154e-80\n"
)


def test_zeros_integer_alpha_bytes_frozen(capsys):
    code, out, err = run_cli(capsys, "zeros", "--n", "40", "--alpha", "-32")
    assert code == 0 and err == ""
    assert out == ZEROS_40_32_FROZEN


def test_zeros_at_alpha_minus_n_finds_no_root(capsys, monkeypatch):
    # L_12^(-12)(12z) is a multiple of z^12: every zero is an origin row
    def no_sweeps(*args):
        raise AssertionError("alpha = -n needs no root finding")

    monkeypatch.setattr(rootfinder, "_aberth_fixed", no_sweeps)
    code, out, err = run_cli(capsys, "zeros", "--n", "12", "--alpha", "-12")
    assert code == 0 and err == ""
    assert out == "re,im,residual\n" + "0.0,0.0,0.0\n" * 12


def test_zeros_precision_stability(capsys):
    # neither doubling the precision nor a precision below LOW_BITS, where
    # the one rung of sweeps is lifted too, may move the printed coordinates
    _, base, _ = run_cli(capsys, "zeros", "--n", "8", "--alpha", "-6.4")
    strip = lambda text: [",".join(row.split(",")[:2])
                          for row in text.splitlines()[1:]]
    for bits in ("512", "100"):
        _, other, _ = run_cli(capsys, "zeros", "--n", "8", "--alpha", "-6.4",
                              "--precision", bits)
        assert strip(other) == strip(base)


@pytest.mark.parametrize("n, alpha, bits", [("96", "-76.0000011", "584"),
                                           ("40", "-31.99999886", "360"),
                                           ("40", "-31." + "9" * 30, "1160")])
def test_zeros_default_prints_what_more_bits_print(capsys, n, alpha, bits):
    # the default, 256 bits on these three, prints the coordinates of a run
    # at the bits a rule of 4n + 64, raised by 10 per bit of
    # -log2 dist(alpha, Z), used to give them; and its residual bounds,
    # which that rule drove below float64 at (40, -31.<30 nines>), stay
    # readable for every zero off the origin
    _, base, _ = run_cli(capsys, "zeros", "--n", n, "--alpha", alpha)
    _, ref, _ = run_cli(capsys, "zeros", "--n", n, "--alpha", alpha, "--precision", bits)
    rows = [row.split(",") for row in base.splitlines()[1:]]
    assert [row[:2] for row in rows] == [row.split(",")[:2] for row in ref.splitlines()[1:]]
    assert len(rows) == int(n)
    assert all(float(res) > 0 for re, im, res in rows if (float(re), float(im)) != (0, 0))


@pytest.mark.parametrize("n,alpha", [("12", "-9.6"), ("25", "-10.5")])
def test_zeros_conjugate_pairs_print_minus_first(capsys, n, alpha):
    _, out, _ = run_cli(capsys, "zeros", "--n", n, "--alpha", alpha)
    rows = [tuple(float(v) for v in row.split(",")[:2])
            for row in out.splitlines()[1:]]
    pairs = 0
    for k, (re, im) in enumerate(rows):
        if im > 0:
            mate = rows.index((re, -im))
            assert mate < k, f"{(re, im)} prints before its conjugate"
            pairs += 1
    assert pairs > 0


def test_zeros_byte_deterministic(capsys):
    _, a, _ = run_cli(capsys, "zeros", "--n", "12", "--alpha", "-9.7")
    _, b, _ = run_cli(capsys, "zeros", "--n", "12", "--alpha", "-9.7")
    assert a == b


def test_contour_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "contour", "--A", "0.81", "--r", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,arclength"
    assert lines[-1].startswith("# winding,-1,")
    first = lines[1].split(",")
    assert float(first[2]) == 0.0
    assert "np." not in out


def test_contour_traces_next_to_a_equal_1(capsys):
    # A = 1 - 1e-11: beta2 - beta1 is 1.3e-5, but the chords are bounded by
    # angle alone, so Gamma_4.6 closes within the step budget
    code, out, err = run_cli(capsys, "contour", "--A", "0.99999999999", "--r", "4.6")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "re,im,arclength"
    assert lines[-1].startswith("# winding,-1,")
    rows = [tuple(map(float, line.split(","))) for line in lines[1:-1]]
    assert rows[0][:2] == rows[-1][:2]
    arcs = [row[2] for row in rows]
    assert arcs[0] == 0.0 and all(a < b for a, b in zip(arcs, arcs[1:]))


def test_contour_rejects_infinite_r(capsys):
    code, _, err = run_cli(capsys, "contour", "--A", "0.81", "--r", "inf")
    assert code == cli.EXIT_DOMAIN
    assert "degenerates" in err


def test_contour_rejects_collapsed_interval(capsys):
    # A = 1 gives beta1 = beta2 = 1, so the default step would be 0
    code, out, err = run_cli(capsys, "contour", "--A", "1", "--r", "0")
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: beta2 - beta1 = 0")


@pytest.mark.parametrize("step", ["0", "-1"])
def test_contour_rejects_nonpositive_step(capsys, step):
    code, out, err = run_cli(capsys, "contour", "--A", "0.81", "--r", "0",
                             "--step", step)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: max_step must be positive")


@pytest.mark.parametrize("argv", [
    ("contour", "--A", "0.81", "--r", "1000"),
])
def test_unbracketed_level_exit_code(capsys, argv):
    # Re phi never reaches r/2 = 500 on the float64 negative axis
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_CLOSURE
    assert out == ""
    assert err.startswith("error: no Re phi > r/2")


@pytest.mark.parametrize("argv", [
    ("contour", "--A", "0.9999999999999999999999999999999999", "--r", "1"),
    ("zeros", "--n", "10", "--alpha", "-9.999999999999999999999999999999999"),
    ("verify", "--n", "10", "--alpha", "-9.999999999999999999999999999999999"),
])
def test_span_below_float64_exit_code(capsys, argv):
    # 0 < A < 1, but beta2 - beta1 = 4e-17 rounds to 0 in float64: the
    # loop cannot be traced there, as where x_r underflows
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_CLOSURE
    assert out == ""
    assert err == "error: beta2 - beta1 rounds to 0 in float64 at 1 - A = 1e-34\n"


def test_nth_root_needs_no_loop_below_float64(capsys):
    # Gamma_1000 underflows float64, but the potential outside it is the
    # r = inf atom's, and nth_root reads it off phi
    preds = []
    for r in ("1000", "inf"):
        code, out, err = run_cli(capsys, "asymp", "--n", "40", "--alpha", "-32.4",
                                 "--regime", "nth_root", "--points", "3", "--r", r)
        assert code == 0 and err == ""
        preds.append(out.splitlines()[1].split(",")[2])
    assert preds[0] == preds[1]


@pytest.mark.parametrize("argv,code", [
    (("contour", "--A", "0.81"), cli.EXIT_DOMAIN),
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "nth_root",
      "--points", "3"), cli.EXIT_ASYMP_DOMAIN),
])
def test_nan_level_is_a_parse_error(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv, "--r", "nan")
    assert got == code
    assert out == ""
    assert err == "error: r must be nonnegative, got nan\n"


@pytest.mark.parametrize("argv,code", [
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "oscillatory",
      "--points=abc"), cli.EXIT_ASYMP_DOMAIN),
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "outer",
      "--points=abc"), cli.EXIT_ASYMP_DOMAIN),
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "nth_root",
      "--points=abc"), cli.EXIT_ASYMP_DOMAIN),
    (("verify", "--n", "40", "--alpha", "-32.4", "--sweep", "a,b"), cli.EXIT_DOMAIN),
    (("verify", "--n", "40", "--alpha", "-32.4", "--sweep", "0.1,nan"), cli.EXIT_DOMAIN),
    (("verify", "--n", "40", "--alpha", "-32.4", "--sweep", "0.1,0"), cli.EXIT_DOMAIN),
    (("verify", "--n", "40", "--alpha", "-32.4", "--classify-tol", "-1"), cli.EXIT_DOMAIN),
    (("verify", "--n", "40", "--alpha", "-32.4", "--classify-tol", "inf"), cli.EXIT_DOMAIN),
    (("zeros", "--n", "12", "--alpha", "-9.6", "--precision", "10"), cli.EXIT_DOMAIN),
    (("verify", "--n", "12", "--alpha", "-9.6", "--precision", "10"), cli.EXIT_DOMAIN),
    (("zeros", "--n", "0", "--alpha", "-1"), cli.EXIT_DOMAIN),
    # non-finite points are malformed points
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "outer",
      "--points=nan"), cli.EXIT_ASYMP_DOMAIN),
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "outer",
      "--points=inf+1j"), cli.EXIT_ASYMP_DOMAIN),
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "nth_root",
      "--points=nan"), cli.EXIT_ASYMP_DOMAIN),
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "nth_root",
      "--points=1e400"), cli.EXIT_ASYMP_DOMAIN),
    (("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "nth_root",
      "--r", "0.5", "--points=infj"), cli.EXIT_ASYMP_DOMAIN),
    # A is an exact decimal, like alpha
    (("betas", "--A", "abc"), cli.EXIT_DOMAIN),
    (("contour", "--A", "x", "--r", "0"), cli.EXIT_DOMAIN),
])
def test_malformed_numeric_flags_exit_code(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error:")


# betas, contour and asymp take no --precision flag, but refuse the
# variable too
@pytest.mark.parametrize("argv,via_env", [
    pytest.param(argv, via_env, id=f"{argv[0]}-{'env' if via_env else 'flag'}")
    for argv in [
        ("betas", "--A", "0.81"),
        ("contour", "--A", "0.81", "--r", "0"),
        ("zeros", "--n", "12", "--alpha", "-9.6"),
        ("verify", "--n", "12", "--alpha", "-9.6"),
        ("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "nth_root",
         "--points", "3"),
    ]
    for via_env in (False, True)
    if via_env or argv[0] not in ("betas", "contour", "asymp")
])
def test_precision_zero_is_refused(capsys, monkeypatch, argv, via_env):
    # 0 bits is a precision below the floor, not "use the default"
    if via_env:
        monkeypatch.setenv(cli.ENV_PRECISION, "0")
    else:
        argv += ("--precision", "0")
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:")


def test_verify_integer_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "40", "--alpha", "-32")
    assert code == 0
    doc = json.loads(out)
    assert doc["origin_multiplicity"] == 32
    assert doc["alpha"] == "-32"
    assert doc["r_hat"] == "inf"
    ref = importlib.resources.files("lagzero") / "schemas" / \
        "comparison_report.schema.json"
    jsonschema.validate(doc, json.loads(ref.read_text()))


@pytest.mark.parametrize("alpha,r_hat,loops", [
    ("-4." + "0" * 29 + "1", 3.45, 4),      # A = 0.2: x_r = -1.9e-10
    ("-16." + "0" * 79 + "1", 9.21, 16),    # r_hat > 8: x_r = -1.6e-6
])
def test_verify_runs_the_small_loop_regime(capsys, alpha, r_hat, loops):
    code, out, err = run_cli(capsys, "verify", "--n", "20", "--alpha", alpha)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["r_hat"] == pytest.approx(r_hat, abs=0.01)
    assert doc["valid"]
    assert (doc["loop_count"], doc["outlier_count"]) == (loops, 0)


def test_verify_runs_next_to_a_equal_1(capsys):
    # A_n = 1 - 2e-11: verify traces Gamma_4.6 only at the coarse step,
    # which closes, and reads the zeros' distances off phi at their feet
    code, out, err = run_cli(capsys, "verify", "--n", "5", "--alpha", "-4.9999999999")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["valid"] and (doc["loop_count"], doc["outlier_count"]) == (5, 0)
    assert doc["max_deviation"] == pytest.approx(1.0e-4, rel=0.05)


def test_zeros_run_next_to_a_equal_1(capsys):
    # A_n = 1 - 1e-24: the seeding trace of Gamma_5.07 closes
    code, out, err = run_cli(capsys, "zeros", "--n", "10",
                             "--alpha", "-9.9999999999999999999999")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 10


def test_verify_defaults_are_run_options(capsys):
    # without flags, verify runs RunOptions' own sweep and classify_tol
    _, out, _ = run_cli(capsys, "verify", "--n", "12", "--alpha", "-9.6")
    defaults = harness.RunOptions()
    assert [row["delta"] for row in json.loads(out)["sweep"]] == list(defaults.sweep)
    _, given, _ = run_cli(capsys, "verify", "--n", "12", "--alpha", "-9.6",
                          "--classify-tol", repr(defaults.classify_tol),
                          "--sweep", ",".join(map(repr, defaults.sweep)))
    assert out == given


def test_verify_ratio_out_of_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "10", "--alpha", "-20")
    assert code == cli.EXIT_DOMAIN
    assert "outside (0,1)" in err


def test_asymp_outer(capsys):
    code, out, _ = run_cli(capsys, "asymp", "--n", "30", "--alpha", "-24",
                           "--regime", "outer", "--points", "4,5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point,exact,predicted,rel_error"
    assert len(lines) == 3
    for row in lines[1:]:
        rel = float(row.split(",")[-1])
        assert rel < 1e-2


# stdout of the outer regime at four points, frozen from the run that
# integrated g's interval part at 408 bits; the quadrature's
# own QUAD_BITS must leave every printed digit where it was
ASYMP_OUTER_FROZEN = (
    "point,exact,predicted,rel_error\n"
    "0.2246-3.7387j,(0.9945101239295575-0.0028994384042669965j),"
    "(0.9945316209308903-0.002911490846718438j),2.4781070319434776e-05\n"
    "2.8090+3.9585j,(0.9963080087063809-0.003516441102618972j),"
    "(0.9962912265088643-0.003502040090515931j),2.2195861352213005e-05\n"
    "0.8840-3.8088j,(0.9937620581085814-0.0009504397497803652j),"
    "(0.9937763470145247-0.0009729544630409087j),2.6833553774408798e-05\n"
    "-2.0780+2.7755j,(1.0006915045442308+0.005168193797442525j),"
    "(1.000697287238987+0.00515315731218128j),1.6098756685458176e-05\n"
)


def test_asymp_outer_bytes_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "asymp", "--n", "80", "--alpha", "-64.7653", "--regime", "outer",
        "--points=0.2246-3.7387j,2.8090+3.9585j,0.8840-3.8088j,-2.0780+2.7755j")
    assert code == 0
    assert out == ASYMP_OUTER_FROZEN


ASYMP_OSCILLATORY_FROZEN = (
    "point,exact,predicted,rel_error\n"
    "0.94362,2.240290106950787e+22,2.2307909455531475e+22,0.004240147902348473\n"
    "1.48471,-3.838278406802432e+37,-3.939931493737652e+37,0.026484031683335966\n"
    "1.77576,-1.586484677150468e+46,-1.6452429897018487e+46,0.03703679802121908\n"
    "0.93483,2.54559138322844e+22,2.5489715560962314e+22,0.0013278536728485771\n"
)


def test_asymp_oscillatory_bytes_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "asymp", "--n", "80", "--alpha", "-64.7653", "--regime", "oscillatory",
        "--points=0.94362,1.48471,1.77576,0.93483")
    assert code == 0
    assert out == ASYMP_OSCILLATORY_FROZEN


def test_asymp_nth_root(capsys):
    code, out, _ = run_cli(capsys, "asymp", "--n", "20", "--alpha", "-16.3",
                           "--regime", "nth_root", "--points", "4", "--r", "0")
    assert code == 0
    rel = float(out.splitlines()[1].split(",")[-1])
    assert rel < 1e-2


# stdout of nth_root at points inside and outside Gamma_0.5 (A = 0.80891,
# beta1 = 0.3168), frozen from the run whose inside test walked the
# polyline; reading the inside off phi must leave every byte
ASYMP_NTH_ROOT_INSIDE_FROZEN = (
    "point,exact,predicted,rel_error\n"
    "0.01+0.01j,-1.4780503484713998,-1.9754377586273189,0.2517859183280676\n"
    "-0.03,-1.5288757779187383,-2.0247297580292587,0.24489884546032092\n"
    "0.02j,-1.4908988099376024,-1.987871772205714,0.2500025249197425\n"
    "-0.05-0.02j,-1.5541233619934147,-2.0492461449292736,0.24161215779812883\n"
    "0.1+0.05j,-1.3614737577581142,-1.8168856820652397,0.250655244192063\n"
    "0.15-0.01j,-1.2927138951300714,-1.5927903799817766,0.18839672101431104\n"
    "0.3+0.2j,-0.911059562351414,-0.9137105543274072,0.0029013476570209917\n"
)


def test_asymp_nth_root_inside_the_loop_bytes_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "asymp", "--n", "40", "--alpha", "-32.3564", "--regime", "nth_root",
        "--r", "0.5",
        "--points=0.01+0.01j,-0.03,0.02j,-0.05-0.02j,0.1+0.05j,0.15-0.01j,0.3+0.2j")
    assert code == 0
    assert out == ASYMP_NTH_ROOT_INSIDE_FROZEN


def test_asymp_nth_root_traces_no_loop(capsys, monkeypatch):
    # the potential and its support guard read phi, never the polyline
    def refuse(*args, **kwargs):
        raise AssertionError("nth_root consulted Gamma_r")

    monkeypatch.setattr(contour, "trace_gamma", refuse)
    monkeypatch.setattr(contour, "project_to_loop", refuse)
    code, out, _ = run_cli(
        capsys, "asymp", "--n", "40", "--alpha", "-32.3564", "--regime", "nth_root",
        "--r", "0.5",
        "--points=0.01+0.01j,-0.03,0.02j,-0.05-0.02j,0.1+0.05j,0.15-0.01j,0.3+0.2j")
    assert code == 0
    assert out == ASYMP_NTH_ROOT_INSIDE_FROZEN


# 16 points on |z| = 0.5, at the angles 2 pi (k + 1/2)/16, against mu_20
# of A = 0.80891, whose loop has radius about 3e-12; frozen from the run
# whose support guard projected each point onto the traced Gamma_20
ASYMP_NTH_ROOT_R20_POINTS = (
    "0.4903926402016152+0.09754516100806412j,0.4157348061512726+0.2777851165098011j,"
    "0.27778511650980114+0.4157348061512726j,0.09754516100806417+0.4903926402016152j,"
    "-0.0975451610080641+0.4903926402016152j,-0.277785116509801+0.41573480615127273j,"
    "-0.4157348061512727+0.2777851165098011j,-0.4903926402016152+0.0975451610080643j,"
    "-0.4903926402016152-0.09754516100806418j,-0.41573480615127273-0.277785116509801j,"
    "-0.2777851165098011-0.4157348061512726j,-0.09754516100806433-0.49039264020161516j,"
    "0.09754516100806415-0.4903926402016152j,0.2777851165098009-0.41573480615127273j,"
    "0.4157348061512726-0.2777851165098011j,0.49039264020161516-0.09754516100806436j")
ASYMP_NTH_ROOT_R20_FROZEN = (
    "point,exact,predicted,rel_error\n"
    "0.4903926402016152+0.09754516100806412j,-0.7366785056352702,-0.735886567433916,0.001076168850473458\n"
    "0.4157348061512726+0.2777851165098011j,-0.6601371185302479,-0.6604873260057909,0.0005302258828504547\n"
    "0.27778511650980114+0.4157348061512726j,-0.6041583167289616,-0.6048038701172496,0.001067376417685284\n"
    "0.09754516100806417+0.4903926402016152j,-0.5626994975163379,-0.5635000650748241,0.0014207053523230817\n"
    "-0.0975451610080641+0.4903926402016152j,-0.5324208158334073,-0.533320187109572,0.001686362710249134\n"
    "-0.277785116509801+0.41573480615127273j,-0.5111959954632254,-0.5121574107263096,0.001877187058019536\n"
    "-0.4157348061512727+0.2777851165098011j,-0.4976870865845643,-0.49868469156075224,0.0020004724289123255\n"
    "-0.4903926402016152+0.0975451610080643j,-0.4911126164622343,-0.49212688136680943,0.0020609825290546224\n"
    "-0.4903926402016152-0.09754516100806418j,-0.49111261646223436,-0.4921268813668095,0.0020609825290546224\n"
    "-0.41573480615127273-0.277785116509801j,-0.49768708658456434,-0.49868469156075224,0.0020004724289122144\n"
    "-0.2777851165098011-0.4157348061512726j,-0.5111959954632255,-0.5121574107263096,0.001877187058019314\n"
    "-0.09754516100806433-0.49039264020161516j,-0.5324208158334073,-0.533320187109572,0.001686362710249134\n"
    "0.09754516100806415-0.4903926402016152j,-0.5626994975163379,-0.5635000650748241,0.0014207053523230817\n"
    "0.2777851165098009-0.41573480615127273j,-0.6041583167289616,-0.6048038701172496,0.001067376417685284\n"
    "0.4157348061512726-0.2777851165098011j,-0.6601371185302479,-0.6604873260057909,0.0005302258828504547\n"
    "0.49039264020161516-0.09754516100806436j,-0.73667850563527,-0.735886567433916,0.0010761688504732358\n"
)


def test_asymp_nth_root_small_loop_bytes_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "asymp", "--n", "40", "--alpha", "-32.3564", "--regime", "nth_root",
        "--r", "20", "--points=" + ASYMP_NTH_ROOT_R20_POINTS)
    assert code == 0
    assert out == ASYMP_NTH_ROOT_R20_FROZEN


ASYMP_ARGV = {
    "outer": ("--alpha", "-32.4", "--regime", "outer", "--points=4,-2+3j"),
    "oscillatory": ("--alpha", "-32.4", "--regime", "oscillatory",
                    "--points=1.0,1.3"),
    # P_n(1.0+0.001j) cancels: with coefficients rounded to 64 bits its
    # exact digits would move
    "nth_root": ("--alpha", "-32.36", "--regime", "nth_root", "--r", "inf",
                 "--points=3,1+1j,1.0+0.001j"),
}


@pytest.mark.parametrize("regime", sorted(ASYMP_ARGV))
def test_asymp_output_ignores_precision(capsys, monkeypatch, regime):
    # the predictions come from the landscape at LANDSCAPE_BITS and the
    # exact column from exact evaluation; no working precision enters
    outs = []
    for bits in ("64", "1024"):
        monkeypatch.setenv(cli.ENV_PRECISION, bits)
        code, out, err = run_cli(capsys, "asymp", "--n", "40", *ASYMP_ARGV[regime])
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == len(ASYMP_ARGV[regime][-1].split(",")) + 1


def test_asymp_never_sizes_a_working_precision(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("asymp asked for a working precision")

    monkeypatch.setattr(rootfinder, "start_precision", refuse)
    for regime in sorted(ASYMP_ARGV):
        code, out, err = run_cli(capsys, "asymp", "--n", "40", *ASYMP_ARGV[regime])
        assert code == 0 and err == "" and out.startswith("point,exact")


def test_asymp_oscillatory_grid(capsys):
    code, out, _ = run_cli(capsys, "asymp", "--n", "40", "--alpha", "-32.4",
                           "--regime", "oscillatory", "--grid", "1.0:1.6:4")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_asymp_domain_exit_code(capsys):
    # x = 0.31 sits outside the oscillatory window
    code, _, err = run_cli(capsys, "asymp", "--n", "40", "--alpha", "-32.4",
                           "--regime", "oscillatory", "--points", "0.31")
    assert code == cli.EXIT_ASYMP_DOMAIN
    assert "window" in err


@pytest.mark.parametrize("regime", ["outer", "oscillatory", "nth_root"])
def test_asymp_ratio_outside_range_exit_code(capsys, regime):
    # -alpha/n = 1 is outside (0,1) for every regime, not only oscillatory
    code, _, err = run_cli(capsys, "asymp", "--n", "40", "--alpha", "-40",
                           "--regime", regime, "--points", "3")
    assert code == cli.EXIT_ASYMP_DOMAIN
    assert "outside (0,1)" in err


def test_asymp_needs_points(capsys):
    code, _, err = run_cli(capsys, "asymp", "--n", "40", "--alpha", "-32.4",
                           "--regime", "oscillatory")
    assert code == cli.EXIT_ASYMP_DOMAIN
    assert "--points or --grid" in err


def test_env_precision(capsys, monkeypatch):
    _, base, _ = run_cli(capsys, "zeros", "--n", "8", "--alpha", "-6.4",
                         "--precision", "512")
    monkeypatch.setenv(cli.ENV_PRECISION, "512")
    _, env_out, _ = run_cli(capsys, "zeros", "--n", "8", "--alpha", "-6.4")
    assert env_out == base

    monkeypatch.setenv(cli.ENV_PRECISION, "not-a-number")
    code, _, err = run_cli(capsys, "zeros", "--n", "8", "--alpha", "-6.4")
    assert code == cli.EXIT_DOMAIN
    assert "LAGZERO_PRECISION" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "betas.json"
    code, out, _ = run_cli(capsys, "betas", "--A", "0.75", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["beta1"] == pytest.approx(0.25)
    assert doc["beta2"] == pytest.approx(2.25)
