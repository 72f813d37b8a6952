"""Per-module spans around lagzero's public functions, from outside the package.

Child side: `Tracer.install()` wraps every public function of the eight
modules and rebinds the wrapper everywhere the original is bound, the
from-imports included (cli.make_context, cli.g_eval, harness.make_context,
asymptotics.ell_constant, asymptotics.make_context, measure.quad_seg, ...),
so no call slips past it. Each call records a span (name, start, end,
parent, case id) in memory; `Tracer.dump()` returns them when the case
ends. A few wrappers also count what the call returned: Aberth sweeps,
precision, zeros, suspect zeros, contour vertices, and every mp.quad
panel.

Parent side: `layer_metrics()` turns the dumped spans of one or more
cases into the per-layer metrics named in PER_LAYER. This module imports
nothing from lagzero at module level, so the benchmark process stays
free of the library's in-process caches.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, Iterable, List

MODULES = ("cli", "harness", "laguerre", "rootfinder", "landscape",
           "contour", "measure", "asymptotics")

# inclusive time (s) of the outermost calls into these functions
TIMED = (
    "rootfinder.find_zeros", "rootfinder.certify",
    "measure.project_to_loop", "contour.limit_set_distance",
    "measure.cdf_interval",
    "measure.loop_quantiles", "measure.interval_quantiles",
    "measure.loop_cdf_points",
    "contour.trace_gamma",
    "landscape.ell_constant", "landscape.phi_eval", "landscape.g_eval",
    "landscape.quad_seg",
    "measure.cdf_from_beta2", "measure.log_potential",
    "laguerre.monic_rescaled", "laguerre.build_coefficients",
)

# number of calls, nested ones included
COUNTED = (
    "rootfinder.find_zeros", "measure.project_to_loop",
    "contour.limit_set_distance", "measure.cdf_interval",
    "contour.trace_gamma", "landscape.quad_seg", "measure.log_potential",
    "laguerre.build_coefficients",
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{f}.s", "s", "lower") for f in TIMED]
    + [(f"{f}.calls", "count", "lower") for f in COUNTED]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("rootfinder.iterations", "count", "lower"),
        ("rootfinder.sweep_ms", "ms", "lower"),
        ("rootfinder.precision_bits", "bits", "lower"),
        ("rootfinder.zeros", "count", "higher"),
        ("rootfinder.nonconvergence", "count", "lower"),
        ("rootfinder.suspect", "ratio", "lower"),
        ("contour.vertices", "count", "lower"),
        ("landscape.quad_panels", "count", "lower"),
        ("cli.out_bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Span recorder for one case in one child process."""

    def __init__(self, case_id: str):
        self.case_id = case_id
        self.spans: List[list] = []    # [name, start, end, parent, outermost, case]
        self._open: List[int] = []     # indices of the spans still running
        self.counters: Dict[str, float] = {}

    def _count(self, key: str, value=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name: str, fn, on_return=None, on_raise=None):
        spans, open_, case_id = self.spans, self._open, self.case_id
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1,
                    depth[0] == 0, case_id]
            open_.append(len(spans))
            spans.append(span)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                span[2] = clock()
                depth[0] -= 1
                open_.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _hooks(self, name: str):
        def zero_set(z):
            self._count("rootfinder.iterations", z.iterations)
            self._count("rootfinder.zeros", len(z.zeros))
            bits = self.counters.get("rootfinder.precision_bits", 0)
            self.counters["rootfinder.precision_bits"] = max(bits, z.precision_bits)

        def nonconvergence(exc):
            if type(exc).__name__ == "NonConvergence":
                self._count("rootfinder.nonconvergence")

        def certified(z):
            self._count("rootfinder.suspect_zeros", len(z.suspect))
            self._count("rootfinder.certified_zeros", len(z.zeros))

        def polyline(g):
            self._count("contour.vertices", len(g.points))

        return {
            "rootfinder.find_zeros": (zero_set, nonconvergence),
            "rootfinder.certify": (certified, None),
            "contour.trace_gamma": (polyline, None),
        }.get(name, (None, None))

    def install(self) -> None:
        """Wrap the public functions of lagzero's modules wherever bound."""
        mods = {m: importlib.import_module(f"lagzero.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("lagzero")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self._wrap(name, obj, *self._hooks(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)

        from mpmath import mp

        quad = mp.quad

        def counted_quad(*args, **kwargs):
            self._count("landscape.quad_panels")
            return quad(*args, **kwargs)

        mp.quad = counted_quad

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "case": self.case_id,
            "names": names,
            # [name index, start, end, parent index, outermost call of name]
            "spans": [[index[s[0]], s[1], s[2], s[3], int(s[4])] for s in self.spans],
            "counters": self.counters,
        }


def layer_metrics(dumps: Iterable[dict]) -> Dict[str, float]:
    """Per-layer metrics summed over the dumped cases (max for precision).

    `<f>.s` sums the outermost calls into f, `<f>.calls` counts all of
    them, and `<module>.self_s` sums, over the module's spans, the span's
    duration minus the durations of its direct child spans.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    suspect = certified = 0
    for d in dumps:
        names, spans = d["names"], d["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (k, start, end, _, outermost) in enumerate(spans):
            name = names[k]
            dur = end - start
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] += dur - child_time[i]
            if outermost and f"{name}.s" in out:
                out[f"{name}.s"] += dur
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
        c = d["counters"]
        for key in ("rootfinder.iterations", "rootfinder.zeros",
                    "rootfinder.nonconvergence", "contour.vertices",
                    "landscape.quad_panels"):
            out[key] += c.get(key, 0)
        out["rootfinder.precision_bits"] = max(
            out["rootfinder.precision_bits"], c.get("rootfinder.precision_bits", 0))
        suspect += c.get("rootfinder.suspect_zeros", 0)
        certified += c.get("rootfinder.certified_zeros", 0)
    if out["rootfinder.iterations"]:
        out["rootfinder.sweep_ms"] = (
            1000 * out["rootfinder.find_zeros.s"] / out["rootfinder.iterations"])
    if certified:
        out["rootfinder.suspect"] = suspect / certified
    return out
