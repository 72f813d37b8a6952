"""Run one lagzero command in this fresh interpreter; report it as JSON.

    python3 perfbench/child.py SRC TRACE CASE_ID -- ARGV...
    python3 perfbench/child.py SRC import-only

SRC is the directory holding the lagzero package. The child times
`import lagzero.cli` and the call `lagzero.cli.main(ARGV)` separately,
captures what the command writes to stdout, and prints one JSON record:
exit code, the two times, max RSS, the command's output and, with
TRACE=1, the spans of every public lagzero function called. Interpreter
start-up is outside both times. The `import-only` form stops after the
import: its time is the benchmark's set-up time.

Untraced, the child also samples the host's speed while it works: the
host is shared, and its speed switches between a fast and a slow state,
about 1.6x apart, every 0.02-5 s. A timer interrupts the import and the
command every PROBE_EVERY_S and times a fixed loop (probe), and one probe
runs just before and one just after each; the record lists their times
in `probes`. The two reported times leave the probes out.
"""

import io
import json
import os
import resource
import signal
import sys
import time
import traceback


PROBE_EVERY_S = 0.05
_M = (1 << 447) | 0x9E3779B97F4A7C15


def probe() -> float:
    """Wall time of a fixed loop of 448-bit integer products, about 1.5 ms."""
    t0 = time.perf_counter()
    a = _M
    for i in range(2000):
        a = ((a * _M) >> 447) ^ i
    return time.perf_counter() - t0


class Timed:
    """Times a block. With probing on, probes the host before, after and
    on a timer inside it, and leaves the probes out of the time."""

    def __init__(self, probing: bool):
        self.probes = [] if probing else None

    def _tick(self, signum, frame):
        self.probes.append(probe())

    def __enter__(self):
        if self.probes is not None:
            self.probes.append(probe())
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.probes is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self.t0
        if self.probes is not None:
            self.seconds -= sum(self.probes[1:])
            self.probes.append(probe())
        return False


def main() -> None:
    src, mode = sys.argv[1], sys.argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    # only lagzero's own directory on the path, ahead of anything installed
    sys.path[:] = [src] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    with Timed(probing=mode != "1") as timed_import:
        import lagzero.cli as cli
    import_s = timed_import.seconds
    real_stdout = sys.stdout
    if mode == "import-only":
        json.dump({"import_s": import_s, "module": cli.__file__,
                   "probes": timed_import.probes}, real_stdout)
        return

    case_id, argv = sys.argv[3], sys.argv[5:]
    tracer = None
    if mode == "1":
        sys.path.append(here)
        from tracer import Tracer

        tracer = Tracer(case_id)
        tracer.install()

    buf = io.StringIO()
    sys.stdout = buf
    rc, error = None, None
    timed_main = Timed(probing=tracer is None)
    try:
        with timed_main:
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        error = traceback.format_exc()
    finally:
        sys.stdout = real_stdout
    record = {
        "rc": rc,
        "error": error,
        "import_s": import_s,
        "main_s": timed_main.seconds,
        "probes": timed_main.probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
        "out": buf.getvalue(),
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    json.dump(record, real_stdout)


if __name__ == "__main__":
    main()
