"""tools/cli_bytes.py: byte-for-byte comparison of two checkouts' commands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_bytes.py"


def _run(parent, change, only="betas"):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--seeds", "1", "--only", only],
        capture_output=True, text=True, timeout=300)


def test_same_checkout_reports_no_difference():
    proc = _run(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["seed 1 landscape betas: same",
                                        "1 commands, 0 differ"]


def test_only_takes_a_comma_list_of_prefixes():
    proc = _run(ROOT, ROOT, only="betas,contour-rm")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["seed 1 landscape betas: same",
                                        "seed 1 landscape contour-rmid: same",
                                        "2 commands, 0 differ"]


def test_edge_commands_run_once_after_the_workloads():
    # edge-3 is EDGE's third command; a prefix, so edge-1 would select
    # edge-10 onward too
    proc = _run(ROOT, ROOT, only="edge-3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "edge-3 zeros --n 20 --alpha -30.5: same", "1 commands, 0 differ"]


def test_a_different_output_is_printed_and_fails(tmp_path):
    package = tmp_path / "src" / "lagzero"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys\nprint('{')\nprint('  \"A\": \"other\"')\nsys.exit(2)\n")
    proc = _run(ROOT, tmp_path)
    assert proc.returncode == 1
    out = proc.stdout
    assert "seed 1 landscape betas: DIFFERS" in out
    assert "  exit code 0 -> 2" in out
    assert "  stdout, parent (-) against change (+):" in out
    assert '    +  "A": "other"' in out
    assert out.rstrip().endswith("1 commands, 1 differ")
