"""List the functions of src/lagzero that no command runs.

    python3 tools/reach.py [--seeds 1,3,7]

Every command of perfbench's workloads (perfbench/workloads.generate, for
each seed) and the edge commands of cli_bytes.EDGE run in this process, as
lagzero.cli.main(ARGV) with their output discarded and without
LAGZERO_PRECISION, under sys.settrace. Each function, method and nested
function defined in src/lagzero of this checkout that none of them calls
is printed with its line count; a nested one only when the function that
holds it ran, since its lines are counted there otherwise. The last line
gives the totals.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

from cli_bytes import EDGE, ROOT, load_workloads

PACKAGE = ROOT / "src" / "lagzero"


class Function(NamedTuple):
    key: Tuple[str, int]  # (file, first line): the code object's
    name: str
    lines: int
    outer: Optional[Tuple[str, int]]  # the key of the function holding it


def functions(package: Path = PACKAGE) -> list:
    """Every def under package, in file and line order."""
    out = []

    def visit(node, path, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (path, first)
                out.append(Function(key, prefix + child.name,
                                    child.end_lineno - first + 1, outer))
                visit(child, path, prefix + child.name + ".", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".", outer)
            else:
                visit(child, path, prefix, outer)

    for file in sorted(package.glob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")), str(file), "", None)
    return out


def run(commands) -> set:
    """The (file, first line) of every code object under PACKAGE that
    runs while lagzero.cli.main runs each command in turn."""
    package = str(PACKAGE) + os.sep
    sys.path.insert(0, str(ROOT / "src"))
    seen = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            seen.add((code.co_filename, code.co_firstlineno))

    os.environ.pop("LAGZERO_PRECISION", None)
    sys.settrace(tracer)
    try:
        from lagzero import cli

        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
    finally:
        sys.settrace(None)
    return seen


def unreached(defs, seen) -> list:
    """The defs that never ran, less those inside a def that never ran."""
    ran = {d.key for d in defs if d.key in seen}
    return [d for d in defs
            if d.key not in ran and (d.outer is None or d.outer in ran)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,3,7",
                    help="comma-separated workload seeds (default 1,3,7)")
    args = ap.parse_args(argv)
    workloads = load_workloads()
    commands = [case.argv for seed in (int(s) for s in args.seeds.split(","))
                for name in workloads.WORKLOADS
                for case in workloads.generate(name, seed)] + list(EDGE)
    defs = functions()
    gone = unreached(defs, run(commands))
    for d in gone:
        module = Path(d.key[0]).stem
        print(f"{module}.{d.name}: {d.lines} lines")
    print(f"{len(commands)} commands: {len(gone)} of {len(defs)} functions, "
          f"{sum(d.lines for d in gone)} lines, never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
