"""Compare the command-line output of two source checkouts, byte for byte.

    python3 tools/cli_bytes.py PARENT CHANGE --seeds 1,3,7 [--only PREFIX,...]

Every command of perfbench's workloads (perfbench/workloads.generate, for
each seed), then once each the edge commands of EDGE, as cases edge-1,
edge-2, ... in EDGE order, run as `python -m lagzero.cli ARGV` in both
checkouts, with PYTHONPATH=<checkout>/src and without LAGZERO_PRECISION,
one process at a time. Exit code, stdout and stderr must match; --only
keeps the cases whose id starts with one of its comma-separated prefixes
(`--only z,v` runs every root-finding command of the workloads, `--only
edge-` every edge command; `edge-1` also selects edge-10 onward). The
first lines that differ are printed for each command that differs, and
the exit status is 1 if any does.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# what the workloads leave out: outside the theorem range, integer alpha,
# --grid, --step, --sweep, r = inf and each error exit, zeros at the
# origin too close for float64, which only the exact pair sums separate,
# loops next to A = 1, where beta2 - beta1 -> 0, and frac(-alpha) > 1/2
# away from A = 0.81, where the loop seeds the smallest positive zero
EDGE = (
    ("zeros", "--n", "12", "--alpha", "3.5"),
    ("zeros", "--n", "10", "--alpha", "-8." + "0" * 300 + "1"),
    ("zeros", "--n", "20", "--alpha", "-30.5"),
    ("verify", "--n", "20", "--alpha", "-16"),
    ("verify", "--n", "20", "--alpha", "-15.2", "--sweep", "0.1,0.2"),
    ("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "oscillatory",
     "--grid", "0.6:1.6:5"),
    ("contour", "--A", "0.81", "--r", "1", "--step", "0.05"),
    ("contour", "--A", "0.81", "--r", "inf"),
    ("contour", "--A", "0.81", "--r", "800"),
    ("betas", "--A", "1.5"),
    ("verify", "--n", "20", "--alpha", "-30"),
    ("zeros", "--n", "12", "--alpha", "-9.6", "--precision", "32"),
    ("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "outer",
     "--points=0.05+0.02j"),
    ("asymp", "--n", "40", "--alpha", "-32.4", "--regime", "nth_root"),
    ("contour", "--A", "0.99999999999", "--r", "4.6"),
    ("zeros", "--n", "10", "--alpha", "-9.9999999999999999999999"),
    ("verify", "--n", "5", "--alpha", "-4.9999999999"),
    ("zeros", "--n", "20", "--alpha", "-2.999999"),
    ("verify", "--n", "40", "--alpha", "-38.9"),
)


def load_workloads():
    """perfbench/workloads.py of this checkout, imported without writing
    bytecode under perfbench/."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def run(tree: Path, argv) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("LAGZERO_PRECISION", None)
    proc = subprocess.run([sys.executable, "-m", "lagzero.cli", *argv],
                          cwd=tree, env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def differences(old: tuple, new: tuple, context: int = 10) -> list:
    """The exit codes if they differ, and the first differing lines of
    each stream that differs; empty when the two runs match."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"  exit code {old[0]} -> {new[0]}")
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            diff = difflib.unified_diff(
                a.decode(errors="replace").splitlines(keepends=True),
                b.decode(errors="replace").splitlines(keepends=True), n=0)
            lines.append(f"  {name}, parent (-) against change (+):")
            lines += ["    " + line.rstrip("\n") for line in list(diff)[2:2 + context]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", default="1,3,7",
                    help="comma-separated workload seeds (default 1,3,7)")
    ap.add_argument("--only", default="",
                    help="comma-separated prefixes: run only the cases whose id "
                         "starts with one of them")
    args = ap.parse_args(argv)
    workloads = load_workloads()
    parent, change = args.parent.resolve(), args.change.resolve()
    for tree in (parent, change):
        if not (tree / "src" / "lagzero").is_dir():
            ap.error(f"no lagzero sources under {tree}/src")
    seeds = [int(s) for s in args.seeds.split(",")]
    only = tuple(args.only.split(","))
    cases = [(f"seed {seed} {name} {case.id}", case.id, case.argv)
             for seed in seeds for name in workloads.WORKLOADS
             for case in workloads.generate(name, seed)]
    cases += [(f"edge-{k} {' '.join(argv)}", f"edge-{k}", argv)
              for k, argv in enumerate(EDGE, 1)]
    commands = differ = 0
    for label, case_id, argv in cases:
        if not case_id.startswith(only):
            continue
        commands += 1
        lines = differences(run(parent, argv), run(change, argv))
        print(f"{label}: " + ("DIFFERS" if lines else "same"))
        for line in lines:
            print(line)
        differ += bool(lines)
    print(f"{commands} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
