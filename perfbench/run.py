"""Cold-process benchmark of the lagzero command line.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (the directory holding src/lagzero);
nothing needs to be installed or built. Each case is one `lagzero`
command run as its users run it: in a fresh Python process, so the
library's lru_caches and mpmath's quadrature-node cache start cold every
time. This process never imports lagzero, and the children's environment
drops LAGZERO_PRECISION, so the default precision policy is measured.
The loop is closed: one child at a time, the next only after the last
one exited.

--trace 0 (end-to-end metrics): seven fresh interpreters that only import
  lagzero.cli give setup_s (their median import time). Then every case
  runs once; while the time left under --seconds allows, the cases that
  still fit are run again, and each repeat's output must be
  byte-identical to the first. A case's time is the median of its
  `cli.main` times, interpreter start and import excluded; wall_s sums
  them over cases and case_s.<regime> over the cases of one regime.
  These times, and setup_s, are in reference-host seconds. The host is
  shared: its speed switches between a fast and a slow state, about 1.6x
  apart, every 0.02-5 s, so one 3 s case took 2.95-4.22 s in fourteen
  runs. The child times a fixed 1.5 ms loop every 50 ms while it works
  (child.py); a time is scaled by the mean of PROBE_REF_S / (loop time)
  over its run, which is the work divided by the speed at which the loop
  takes PROBE_REF_S, about the reference host's fast state. Those
  fourteen runs then read 2.75-2.93 s. The raw times are printed with
  the metrics.
--trace 1 (per-layer metrics): every case runs untraced, then traced, with
  byte-identical output. The traced child wraps lagzero's public
  functions (see tracer.py) and does not probe the host, so per-layer
  times are raw; trace.overhead_s is the traced minus the raw untraced
  sum of `cli.main` times.

Every output is checked against closed forms (checks.py). A case fails on
a nonzero exit, an exception, a timeout or a failed check; fail_ratio,
failed over attempted executions, is printed with the metrics and
carried by the result's `attempted` and `failed` (it is 0 in a good
run, so it is no metric of its own). Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 7
# the probe loop's time at the reference speed: 2-vCPU Xeon at 2.0 GHz,
# Python 3.11.7, in the host's fast state
PROBE_REF_S = 0.001
# every run must exit within 180 s; children still running past this are killed
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("case_s.generic", "s"),
    ("case_s.near_integer", "s"),
    ("case_s.integer", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def host_scale(probes: List[float]) -> float:
    """Mean share of the reference speed the host gave while probed."""
    return statistics.fmean(PROBE_REF_S / p for p in probes)


class Runner:
    """Runs cases in fresh child processes and keeps the failure count."""

    def __init__(self, root: str, hard_deadline: float):
        self.root = root
        self.src = os.path.join(root, "src")
        with open(os.path.join(self.src, "lagzero", "schemas",
                               "comparison_report.schema.json")) as fh:
            self.schema = json.load(fh)
        self.env = {k: v for k, v in os.environ.items() if k != "LAGZERO_PRECISION"}
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.first_out: Dict[str, str] = {}

    def _child(self, args: List[str]) -> dict:
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        proc = subprocess.run(
            [sys.executable, CHILD, self.src, *args], cwd=self.root,
            env=self.env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-400:]}")
        rec = json.loads(proc.stdout)
        rec["stderr"] = proc.stderr
        return rec

    def setup_time(self) -> float:
        """Import time of lagzero.cli in a fresh interpreter that does nothing else."""
        self._child(["import-only"])    # first import writes the bytecode caches
        recs = [self._child(["import-only"]) for _ in range(SETUP_SAMPLES)]
        return statistics.median(r["import_s"] * host_scale(r["probes"]) for r in recs)

    def run(self, case: workloads.Case, trace: bool) -> Optional[dict]:
        """One execution of case; the child's record, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rec = self._child(["1" if trace else "0", case.id, "--", *case.argv])
        except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            rec["elapsed_s"] = time.perf_counter() - t0
            problems = self._problems(case, rec)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {case.id} ({' '.join(case.argv)[:160]}): {p}",
                      file=sys.stderr)
            return None
        return rec

    def _problems(self, case: workloads.Case, rec: dict) -> List[str]:
        if rec["error"]:
            return ["exception: " + rec["error"].strip().splitlines()[-1]]
        if rec["rc"] != 0:
            return [f"exit code {rec['rc']}: {rec['stderr'].strip()[-300:]}"]
        if not os.path.abspath(rec["module"]).startswith(self.src + os.sep):
            return [f"lagzero imported from {rec['module']}, not {self.src}"]
        problems = checks.check(case.argv, rec["out"], self.schema)
        first = self.first_out.setdefault(case.id, rec["out"])
        if rec["out"] != first:
            problems.append("output differs from the first execution of the case")
        return problems


def _regime_sums(cases, per_case: Dict[str, float]) -> Dict[str, float]:
    out = {"wall_s": sum(per_case.values())}
    for regime in workloads.REGIMES:
        out[f"case_s.{regime}"] = sum(
            per_case.get(c.id, 0.0) for c in cases if c.regime == regime)
    return out


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Measure one workload; returns the result plus per-case details."""
    start = time.perf_counter()
    deadline = start + seconds
    cases = workloads.generate(workload, seed)
    runner = Runner(root, start + HARD_LIMIT_S)
    samples: Dict[str, List[float]] = {c.id: [] for c in cases}
    raw: Dict[str, List[float]] = {c.id: [] for c in cases}
    elapsed: Dict[str, List[float]] = {c.id: [] for c in cases}
    rss_kb: List[int] = []

    def once(case, traced=False):
        rec = runner.run(case, traced)
        if rec is not None and not traced:
            samples[case.id].append(rec["main_s"] * host_scale(rec["probes"]))
            raw[case.id].append(rec["main_s"])
            elapsed[case.id].append(rec["elapsed_s"])
            rss_kb.append(rec["maxrss_kb"])
        return rec

    details: dict = {"workload": workload, "seed": seed, "trace": int(trace)}
    if not trace:
        setup_s = runner.setup_time()
        for case in cases:
            once(case)
        # repeats fill the time left, in rounds over the cases that still
        # fit, cheapest first: a short case's one sample is the most
        # exposed to a passing slowdown of the host
        done = [c for c in cases if samples[c.id]]
        done.sort(key=lambda c: statistics.median(elapsed[c.id]))
        progress = True
        while progress:
            progress = False
            for case in done:
                if time.perf_counter() + statistics.median(elapsed[case.id]) <= deadline:
                    once(case)
                    progress = True
    else:
        for case in cases:
            once(case)
        dumps, traced_s, out_bytes = [], {}, 0
        for case in cases:
            rec = once(case, traced=True)
            if rec is None:
                continue
            dumps.append(rec["trace"])
            traced_s[case.id] = rec["main_s"]
            out_bytes += len(rec["out"].encode())
            details.setdefault("cases_layers", {})[case.id] = {
                k: v for k, v in tracer.layer_metrics([rec["trace"]]).items() if v}

    per_case = {cid: statistics.median(s) for cid, s in samples.items() if s}
    per_case_raw = {cid: statistics.median(s) for cid, s in raw.items() if s}
    if trace:
        metrics = tracer.layer_metrics(dumps)
        metrics["cli.out_bytes"] = out_bytes
        both = [cid for cid in traced_s if cid in per_case_raw]
        metrics["trace.overhead_s"] = sum(traced_s[c] - per_case_raw[c] for c in both)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = _regime_sums(cases, per_case)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = max(rss_kb, default=0) / 1024
        units = dict(END_TO_END)
        details["raw"] = _regime_sums(cases, per_case_raw)
    details["cases"] = [
        {"id": c.id, "regime": c.regime, "argv": list(c.argv),
         "main_s": samples[c.id], "raw_s": raw[c.id]} for c in cases]
    details["run_s"] = time.perf_counter() - start
    return {
        "correct": runner.failed == 0 and len(per_case) == len(cases),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "details": details,
    }


def summary_lines(result: dict) -> List[str]:
    d = result["details"]
    lines = [f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
             f"run {d['run_s']:.1f} s"]
    for c in d["cases"]:
        times = c["main_s"]
        med = f"{statistics.median(times):8.3f} s" if times else "    FAILED"
        lines.append(f"  {c['id']:<20} {c['regime']:<13} {med}  x{len(times)}  "
                     f"{' '.join(c['argv'])[:70]}")
    for cid, layers in d.get("cases_layers", {}).items():
        top = sorted(((k, v) for k, v in layers.items() if k.endswith(".s")),
                     key=lambda kv: -kv[1])[:4]
        lines.append(f"  {cid:<20} " + "  ".join(f"{k} {v:.3f}" for k, v in top))
    for name, m in result["metrics"].items():
        raw = d.get("raw", {}).get(name)
        lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}"
                     + (f"  (raw {raw:.6g} s)" if raw is not None else ""))
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_ratio':<34} {ratio:>14.6g} "
                 f"({result['failed']}/{result['attempted']} executions)")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "lagzero", "cli.py")):
        print(f"error: no lagzero sources under {root}/src", file=sys.stderr)
        return 2
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(result)))
    result.pop("details")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
