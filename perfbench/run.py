"""coxnorm benchmark: cold-start workloads, golden-checked, one JSON line out.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 5 --trace 0

Run from the root of a coxnorm checkout.  Every pass of a workload runs in a
fresh interpreter (``child.py``) because the library memoizes root systems
and shape catalogs per process.

``--trace 0`` repeats cold full passes until ``--seconds`` of them have been
measured (at least ``FULL_PASSES``), then adds set-up-only passes until
set-up has been sampled ``SETUP_SAMPLES`` times.  It reports the median
set-up time, the least solve time over the passes, and the slowest operation
with each operation timed at its best over the passes.
Times are scaled to a reference CPU speed by ``probe.SpeedProbe`` (the
wall-clock medians are printed with the provenance).  Peak RSS is read from
each full pass's own rusage (``wait4``).

``--trace 1`` runs one traced and one untraced full pass and reports the
per-layer metrics of the traced pass, plus the tracing overhead (traced minus
untraced ``solve_s``).

The last line of standard output is the result object; the lines before it
give provenance, the correctness summary and, when traced, every span name's
calls and times.  The exit code is 0 only when every output was correct, and
2 when the checkout holds no coxnorm sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# Full passes per run.  A lattice pass is short enough to make two; the run
# reports the lesser time, which discards a pass that ran in a slow stretch.
FULL_PASSES = {"tables": 1, "lattice": 2, "e8-query": 1}
WORKLOADS = tuple(FULL_PASSES)
# The longest one pass may take.  An e8-query pass takes over two minutes, so
# that workload is run by hand and is not declared in BENCHMARK.json.
PASS_TIMEOUT_S = {"tables": 170, "lattice": 170, "e8-query": 600}
END_TO_END = {"setup_s": "s", "solve_s": "s", "row_max_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 2
RUN_BUDGET_S = 150      # stop starting passes that could end past this

# Per-layer metrics of a traced pass.  Span times are inclusive of the
# layer's callees, self times exclude every wrapped callee.
SPAN_TIMES = {
    "rootsys.build_s": "rootsys.build",
    "parabolic.shape_catalog_s": "parabolic.shape_catalog",
    "parabolic.class_of_roots_s": "parabolic.class_of_roots",
    "parabolic.pointwise_stabilizer_s": "parabolic.pointwise_stabilizer",
    "parabolic.fixed_space_s": "parabolic.fixed_space",
    "groups.orbit_s": "groups.orbit",
    "galois.orthogonal_complement_s": "galois.orthogonal_complement",
    "linalg.rref_s": "linalg.rref",
}
SELF_TIMES = ["rootsys", "parabolic", "groups", "normalizer", "galois", "linalg"]
SPAN_CALLS = {
    "parabolic.class_of_roots_calls": "parabolic.class_of_roots",
    "groups.transversal_calls": "groups.transversal",
    "groups.generate_calls": "groups.generate",
    "normalizer.decompose_calls": "normalizer.decompose",
    "normalizer.descend_calls": "normalizer.descend",
    "normalizer.normalizer_order_calls": "normalizer.normalizer_order",
    "galois.orthogonal_complement_calls": "galois.orthogonal_complement",
    "galois.parabolic_concepts_calls": "galois.parabolic_concepts",
    "galois.shape_closure_graph_calls": "galois.shape_closure_graph",
    "actions.invariant_split_calls": "actions.invariant_split",
    "actions.matrix_calls": "actions.matrix",
    "actions.reflection_line_calls": "actions.reflection_line",
    "linalg.rref_calls": "linalg.rref",
    "involutions.classes_calls": "involutions.classes",
    "involutions.section8_calls": "involutions.section8",
    "verify.galois_calls": "verify.galois",
    "verify.section8_calls": "verify.section8",
    "oracle.diff_fixture_calls": "oracle.diff_fixture",
}
COUNTS = ["rootsys.orthogonal_calls", "qsqrt5.q5_new", "groups.orbit_states",
          "groups.schreier_yielded", "groups.generate_elements"]


class PassFailed(Exception):
    pass


def run_child(root, workload, seed, mode, trace):
    """Run one pass in a new interpreter; returns (result, peak RSS in MB, wall s)."""
    cmd = [sys.executable, CHILD, "--root", root, "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--trace"] if trace else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
    timer = threading.Timer(PASS_TIMEOUT_S[workload], proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()  # interrupted (SIGTERM, Ctrl-C): stop the pass, then reap it
        raise
    finally:
        proc.stdout.close()
        # wait4 reaps the child and gives its own rusage, not the running
        # maximum over every child that RUSAGE_CHILDREN would report.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    wall = time.perf_counter() - start
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited with {proc.returncode}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0, wall


def source_fingerprint(root):
    """Short hash of the library sources and fixtures the run imported."""
    h = hashlib.sha256()
    base = os.path.join(root, "src", "coxnorm")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root):
    """HEAD's commit from the checkout's own .git, or None outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(trace):
    metrics = {}
    for name, span in SPAN_TIMES.items():
        metrics[name] = (trace["incl_s"].get(span, 0.0), "s")
    for layer in SELF_TIMES:
        metrics[layer + ".self_s"] = (trace["layer_self_s"].get(layer, 0.0), "s")
    for name, span in SPAN_CALLS.items():
        metrics[name] = (trace["calls"].get(span, 0), "count")
    for name in COUNTS:
        metrics[name] = (trace["counts"].get(name, 0), "count")
    calls = trace["calls"].get("normalizer.descend", 0)
    metrics["normalizer.d_useful_ratio"] = (
        trace["descend_distinct"] / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_s"] = (trace.get("overhead_s", 0.0), "s")
    return metrics


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coxnorm", "__init__.py")):
        print(f"no coxnorm sources under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    full, setup_s, rss = [], [], []
    passes_failed = 0
    problems = []

    def attempt(mode, trace=False):
        nonlocal passes_failed
        try:
            result, peak_mb, wall = run_child(root, args.workload, args.seed, mode, trace)
        except (PassFailed, ValueError) as exc:
            passes_failed += 1
            problems.append(str(exc))
            return None, 0.0
        problems.extend(result["problems"])
        if not trace:
            setup_s.append(result["setup_s"])
        if mode == "full" and not trace:
            full.append(result)
            rss.append(peak_mb)
        return result, wall

    traced = None
    if args.trace:
        traced, _ = attempt("full", trace=True)
        attempt("full")
    else:
        measured = 0.0
        while measured < args.seconds or len(full) < FULL_PASSES[args.workload]:
            _, wall = attempt("full")
            measured += wall
            if passes_failed or time.perf_counter() - started + wall > RUN_BUDGET_S:
                break
        setup_wall = min(r["setup_wall_s"] for r in full) + 0.5 if full else 0.0
        while (len(setup_s) < SETUP_SAMPLES and not passes_failed
               and time.perf_counter() - started + setup_wall < RUN_BUDGET_S):
            attempt("setup")

    checked = full + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in checked) + passes_failed
    failed = sum(r["failed"] for r in checked) + passes_failed
    mismatches = sum(r["mismatches"] for r in checked)
    correct = (bool(full) and not failed and not mismatches
               and (traced is not None or not args.trace))

    numpy_version = next((r["numpy"] for r in checked), None)
    samples = {"full_passes": len(full), "setup_samples": len(setup_s)}
    print("# provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_sha": git_sha(root), "source_sha256": source_fingerprint(root),
        "machine": platform.machine(), "samples": samples,
        "statistic": "setup_s: median of the set-up samples; solve_s: least over "
                     "the full passes; row_max_s: slowest operation, each at its "
                     "least over the passes; peak_rss_mb: largest over the passes",
        "time_scale": "seconds at the reference speed of perfbench/probe.py",
        "wall_medians_s": {
            k: statistics.median(r[k] for r in full) if full else None
            for k in ("setup_wall_s", "solve_wall_s", "row_max_wall_s")}}))
    print("# correctness " + json.dumps({
        "mismatches": mismatches, "failed": failed, "attempted": attempted,
        "failed_frac": f"{failed}/{attempted}", "problems": problems[:10]}))

    metrics = {}
    if correct and not args.trace:
        # each operation at its best over the passes, then the slowest of them
        best_ops = [min(times) for times in zip(*(r["op_s"] for r in full))]
        values = {"setup_s": statistics.median(setup_s),
                  "solve_s": min(r["solve_s"] for r in full),
                  "row_max_s": max(best_ops), "peak_rss_mb": max(rss)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif correct:
        trace = traced["trace"]
        untraced = full[0]
        overhead = trace["overhead_s"] = traced["solve_s"] - untraced["solve_s"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(trace).items()}
        dominant = max(trace["layer_self_s"], key=trace["layer_self_s"].get)
        print("# trace " + json.dumps({
            "traced_solve_s": traced["solve_s"], "untraced_solve_s": untraced["solve_s"],
            "overhead_s": overhead, "dominant_layer": dominant,
            "spans": trace["spans"], "nesting_errors": trace["nesting_errors"],
            "layer_self_s": trace["layer_self_s"],
            "by_name": {name: {"calls": trace["calls"][name],
                               "incl_s": trace["incl_s"].get(name, 0.0),
                               "self_s": trace["self_s"][name]}
                        for name in sorted(trace["calls"])}}))
        correct = trace["nesting_errors"] == 0
        if not correct:
            metrics = {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
