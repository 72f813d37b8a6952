"""Run every workload at one seed, untraced and traced, and print all metrics.

    python3 perfbench/baseline.py [--seed 1] [--seconds 36] [--write]

Prints, per workload, the per-case table, the end-to-end metrics by name
with their units, fail_ratio, and the per-layer split of the traced run.
--write stores the numbers, with the machine they were measured on, in
perfbench/baseline.json. Exits 1 if any output check failed.
"""

import argparse
import json
import os
import platform
import sys

import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    root = os.path.dirname(run.HERE)
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {"python": platform.python_version(),
                    "cpus": os.cpu_count(), "platform": platform.platform()},
        "workloads": {},
    }
    ok = True
    for name in workloads.WORKLOADS:
        plain = run.run_workload(root, name, args.seed, args.seconds, False)
        traced = run.run_workload(root, name, args.seed, args.seconds, True)
        for result in (plain, traced):
            print("\n".join(run.summary_lines(result)), flush=True)
            ok = ok and result["correct"]
        entry = {
            "end_to_end": {k: m["value"] for k, m in plain["metrics"].items()},
            "fail_ratio": plain["failed"] / plain["attempted"],
            "cases": plain["details"]["cases"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "per_case_layers": traced["details"].get("cases_layers", {}),
        }
        doc["workloads"][name] = entry
    if args.write:
        with open(os.path.join(run.HERE, "baseline.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
