"""tools/reach.py: the functions of src/lagzero that no command runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "reach.py"

# kept on purpose: two error constructors that no command triggers,
# c_constant for the finite-n offsets, oscillatory_phase for the
# oscillatory acceptance criterion, and the convergence-study functions
KEPT = [
    "asymptotics.oscillatory_phase",
    "errors.QuadratureError.__init__",
    "errors.NonConvergence.__init__",
    "harness._round_frac",
    "harness._exp_fraction",
    "harness.make_plan",
    "harness.convergence_study",
    "harness.study_json",
    "harness.study_csv",
    "landscape.c_constant",
]


def test_only_the_kept_functions_go_unrun():
    # a decorated function (ell_constant) and a nested one (quad_seg's
    # rec) that run must match their code objects, or they would show here
    proc = subprocess.run([sys.executable, str(TOOL), "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *rows, total = proc.stdout.splitlines()
    assert [row.split(":")[0] for row in rows] == KEPT
    assert total.startswith(f"36 commands: {len(KEPT)} of ")
