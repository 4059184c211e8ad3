"""One cold pass of a workload, in its own interpreter.

    python3 perfbench/child.py --root . --workload tables --seed 1 --mode full [--trace]

Imports coxnorm from ``<root>/src`` and prints one JSON object as its last
line of standard output.  ``run.py`` starts this script once per pass, so the
library's module-level memo tables (root systems, shape catalogs) start empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=["full", "setup"], default="full")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import coxnorm
    import numpy
    if not os.path.abspath(coxnorm.__file__).startswith(src + os.sep):
        print(f"coxnorm imported from {coxnorm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from probe import SpeedProbe

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with SpeedProbe() as probe:
        passed = workloads.run_pass(args.workload, args.mode, tracer, args.seed)
    if tracer is not None:
        tracer.uninstall()

    result = {k: passed[k] for k in ("attempted", "failed", "mismatches", "problems")}
    for name in ("setup", "solve"):
        if name in passed:
            start, end = passed[name]
            result[name + "_s"] = probe.scaled(start, end)
            result[name + "_wall_s"] = end - start
    if passed.get("ops"):
        result["op_s"] = [probe.scaled(a, b) for a, b in passed["ops"]]
        result["row_max_wall_s"] = max(b - a for a, b in passed["ops"])
    result["probes"] = len(probe.durations)
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["nesting_errors"] = len(tracer.check_nesting())
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
