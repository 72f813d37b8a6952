"""Tests of the benchmark itself: generator, output checks, tracer, contract.

    python3 -m pytest -q perfbench

The real outputs the checks start from come from small, cheap lagzero
commands run through child.py, the same way the benchmark runs them.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SCHEMA_PATH = os.path.join(SRC, "lagzero", "schemas", "comparison_report.schema.json")

SMALL = {
    "zeros": ("zeros", "--n", "12", "--alpha", "-9.4"),
    "verify": ("verify", "--n", "12", "--alpha", "-9.4"),
    "betas": ("betas", "--A", "0.81"),
    "contour": ("contour", "--A", "0.81", "--r", "0"),
    "asymp": ("asymp", "--n", "12", "--alpha", "-9.4", "--regime", "nth_root",
              "--r", "inf", "--points=-3+1j,2.5-2j"),
}


def child(argv, trace=False):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), SRC,
         "1" if trace else "0", "case", "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["rc"] == 0 and rec["error"] is None, rec
    return rec


@pytest.fixture(scope="module")
def outputs():
    return {cmd: child(argv)["out"] for cmd, argv in SMALL.items()}


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


# -- generator ---------------------------------------------------------------


def _alpha(case):
    return Fraction(checks._flags(case.argv)["--alpha"])


def _dist(alpha):
    frac = alpha - math.floor(alpha)
    return min(frac, 1 - frac)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    seeded = {tuple(c.argv for c in workloads.generate(workload, s)) for s in range(8)}
    assert len(seeded) > 1


@pytest.mark.parametrize("workload", ["verify-grid", "zeros-large"])
def test_generator_keeps_n_regime_and_parity(workload):
    first = {c.id: c for c in workloads.generate(workload, 0)}
    for seed in range(1, 40):
        for case in workloads.generate(workload, seed):
            ref = first[case.id]
            flags, ref_flags = checks._flags(case.argv), checks._flags(ref.argv)
            assert case.argv[0] == ref.argv[0] and flags["--n"] == ref_flags["--n"]
            assert case.regime == ref.regime
            alpha, n = _alpha(case), int(flags["--n"])
            assert math.floor(-alpha) % 2 == math.floor(-_alpha(ref)) % 2
            dist = _dist(alpha)
            if case.regime == "integer":
                assert dist == 0
            elif case.regime == "near_integer":
                # fixed working precision: ceil(-log2 dist) = 20
                assert Fraction(1, 2 ** 20) <= dist < Fraction(1, 2 ** 19)
                assert -math.log(dist) / n <= 8    # verify refuses r_hat > 8
            else:
                assert dist >= Fraction(1, 5)
            assert 0 < -alpha / n < 1


def test_landscape_slots_stay_in_their_regimes():
    for seed in range(40):
        cases = {c.id: c for c in workloads.generate("landscape", seed)}
        for case in cases.values():
            r = checks._flags(case.argv).get("--r")
            if r is None:
                assert case.regime == "generic"
            elif r == "inf":
                assert case.regime == "integer"
            else:
                assert case.regime == ("generic" if float(r) == 0 else "near_integer")
        pts = checks._flags(cases["asymp-nth-root-inf"].argv)["--points"].split(",")
        assert len(pts) == 48 and all(abs(complex(p)) >= 2.6 for p in pts)


# -- output checks -----------------------------------------------------------


@pytest.mark.parametrize("cmd", sorted(SMALL))
def test_real_outputs_pass(outputs, schema, cmd):
    assert checks.check(SMALL[cmd], outputs[cmd], schema) == []


def _zero_rows(out):
    lines = out.splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _join(header, rows):
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def test_zeros_check_catches_a_perturbed_zero(outputs):
    header, rows = _zero_rows(outputs["zeros"])
    rows[3][0] = repr(float(rows[3][0]) + 1e-6)
    problems = checks.check_zeros(SMALL["zeros"], _join(header, rows))
    assert any("sum z" in p for p in problems)


def test_zeros_check_catches_a_dropped_row(outputs):
    header, rows = _zero_rows(outputs["zeros"])
    assert checks.check_zeros(SMALL["zeros"], _join(header, rows[:-1]))


def test_zeros_check_catches_a_lost_positive_zero(outputs):
    header, rows = _zero_rows(outputs["zeros"])
    i = next(i for i, r in enumerate(rows) if float(r[1]) == 0 and float(r[0]) > 0)
    rows[i][1] = "1e-300"
    problems = checks.check_zeros(SMALL["zeros"], _join(header, rows))
    assert any("positive real" in p for p in problems)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(loop_count=r["loop_count"] + 1),
    lambda r: r["sweep"][1].update(outlier=r["sweep"][1]["outlier"] + 1),
    lambda r: r.update(valid=False),
    lambda r: r.update(origin_multiplicity=1),
    lambda r: r.update(alpha="-9.5"),
    lambda r: r.update(extra=1),
])
def test_verify_check_catches_a_corrupted_report(outputs, schema, edit):
    rep = json.loads(outputs["verify"])
    edit(rep)
    assert checks.check_verify(SMALL["verify"], json.dumps(rep), schema)


def test_betas_check_catches_a_shifted_endpoint(outputs):
    doc = json.loads(outputs["betas"])
    doc["beta2"] += 1e-9
    assert checks.check_betas(SMALL["betas"], json.dumps(doc))


def test_contour_check_catches_an_unclosed_polyline(outputs):
    lines = outputs["contour"].splitlines()
    last = max(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    unclosed = "\n".join(lines[:last] + lines[last + 1:]) + "\n"
    problems = checks.check_contour(SMALL["contour"], unclosed)
    assert any("not closed" in p for p in problems)


def test_contour_check_catches_falling_arclength_and_lost_footer(outputs):
    lines = outputs["contour"].splitlines()
    lines[5], lines[6] = lines[6], lines[5]
    swapped = "\n".join(lines) + "\n"
    assert any("arclength" in p for p in checks.check_contour(SMALL["contour"], swapped))
    no_footer = outputs["contour"].replace("# winding,-1,\n", "")
    assert any("winding" in p for p in checks.check_contour(SMALL["contour"], no_footer))


def test_asymp_check_catches_infinite_error_and_missing_row(outputs):
    lines = outputs["asymp"].splitlines()
    bad = lines[:-1] + [",".join(lines[-1].split(",")[:3] + ["inf"])]
    assert checks.check_asymp(SMALL["asymp"], "\n".join(bad) + "\n")
    assert checks.check_asymp(SMALL["asymp"], "\n".join(lines[:-1]) + "\n")


# -- tracer ------------------------------------------------------------------


def test_tracer_wraps_from_imported_names():
    # outer regime: cli calls its own from-imported make_context and g_eval
    argv = ("asymp", "--n", "12", "--alpha", "-9.4", "--regime", "outer",
            "--points=-3+1j")
    dump = child(argv, trace=True)["trace"]
    names = [dump["names"][s[0]] for s in dump["spans"]]
    assert {"cli.main", "cli.cmd_asymp", "landscape.make_context",
            "landscape.g_eval", "landscape.quad_seg",
            "asymptotics.outer_ratio"} <= set(names)
    for callee in ("landscape.g_eval", "landscape.make_context"):
        callers = {names[s[3]] for s, name in zip(dump["spans"], names) if name == callee}
        assert "cli.cmd_asymp" in callers
    metrics = tracer.layer_metrics([dump])
    assert metrics["landscape.quad_panels"] > 0
    assert metrics["contour.trace_gamma.calls"] >= 1
    assert metrics["landscape.self_s"] > 0


def test_layer_metrics_self_time_subtracts_children():
    dump = {"names": ["cli.main", "rootfinder.find_zeros"],
            "spans": [[0, 0.0, 10.0, -1, 1], [1, 1.0, 4.0, 0, 1], [1, 2.0, 3.0, 1, 0]],
            "counters": {"rootfinder.iterations": 6}}
    m = tracer.layer_metrics([dump])
    assert m["cli.self_s"] == 7.0
    assert m["rootfinder.self_s"] == 3.0
    assert m["rootfinder.find_zeros.s"] == 3.0       # outermost call only
    assert m["rootfinder.find_zeros.calls"] == 2
    assert m["rootfinder.sweep_ms"] == 500.0


# -- host probes -------------------------------------------------------------


def test_untraced_child_probes_the_host_and_traced_child_does_not():
    argv = ("zeros", "--n", "12", "--alpha", "-9.4")
    rec = child(argv)
    # one probe before the command, one after, and one per timer tick
    assert len(rec["probes"]) >= 2 and all(p > 0 for p in rec["probes"])
    assert child(argv, trace=True)["probes"] is None


def test_host_scale_is_the_mean_speed_share():
    assert run.host_scale([run.PROBE_REF_S] * 3) == pytest.approx(1.0)
    # half the time at full speed, half at half speed: 3/4 of the work
    assert run.host_scale([run.PROBE_REF_S, 2 * run.PROBE_REF_S]) == pytest.approx(0.75)


# -- contract ----------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(tracer.PER_LAYER)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "landscape",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
