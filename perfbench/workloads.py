"""The benchmark's workloads: one cold pass each, checked against golden data.

Each workload has a set-up phase (build every root system and its shape
catalog) and a solve phase (every operation computed and checked).  An
operation is one decomposition row or one suite call.  An operation that
raises counts as failed; a computed value that differs from the golden or
pinned data counts as a mismatch.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import re
import time
from contextlib import nullcontext

# The package re-exports a function named ``normalizer``, so the submodules
# are fetched by their full names.
galois, involutions, normalizer, oracle, parabolic, rootsys, verify = (
    importlib.import_module("coxnorm." + name) for name in
    ("galois", "involutions", "normalizer", "oracle", "parabolic", "rootsys", "verify"))

TABLE_GROUPS = ["A7", "B5", "B6", "D5", "D6", "E6", "E7", "F4", "H3", "H4",
                "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(9)", "I2(10)",
                "I2(11)", "I2(12)"]
LATTICE_GROUPS = ["F4", "H4", "E6", "B6", "D6", "A7", "E7"]
LATTICE_SUITES = ["concepts", "graph", "involutions", "section8", "galois"]
# Two E8 rows that finish in well under a minute each.  A4A1 is criterion 3
# (C of order 2); D7's action cells enumerate all 322,560 elements of P.
E8_QUERIES = ["A4A1", "D7"]

WORKLOADS = {"tables": TABLE_GROUPS, "lattice": LATTICE_GROUPS, "e8-query": ["E8"]}

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "lattice.json")


class Run:
    """Timings, operation counts and mismatches of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.problems = []     # the first few mismatches and errors, for the log
        self.op_intervals = []  # (start, end) of each operation that returned

    def phase(self, name):
        return self.tracer.span("bench." + name) if self.tracer else nullcontext()

    def op(self, label, fn):
        """Run one operation; returns its result, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.phase("op"):
                result = fn()
        except Exception as exc:  # an operation that raises is a failure, not a crash
            self.failed += 1
            self.note(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.op_intervals.append((start, time.perf_counter()))
        return result

    def mismatch(self, label, detail):
        self.mismatches += 1
        self.note(f"{label}: {detail}")

    def note(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)


def setup(groups, run):
    """Build every root system and shape catalog, cold."""
    with run.phase("setup"):
        built = {}
        for g in groups:
            rs = rootsys.build_root_system(g)
            parabolic.shape_catalog(rs)
            built[g] = rs
    return built


# -- tables ---------------------------------------------------------------------


def solve_tables(built, run, seed=0, fixtures=None):
    """Every row of every golden fixture except E8, diffed cell by cell.

    Exhaustive, so the seed is not used.
    """
    for g, rs in built.items():
        catalog = parabolic.shape_catalog(rs)
        rows = [run.op(f"{g} row {s.index}", lambda s=s: normalizer.decomposition_row(
                    normalizer.decompose(rs, s))) for s in catalog]
        if any(r is None for r in rows):
            continue  # the failed rows are counted; the diff needs all of them
        fixture = (fixtures or {}).get(g) or oracle.load_fixture(g)
        with run.phase("check"):
            result = oracle.diff_fixture(fixture, rows, catalog)
        for m in result["mismatches"]:
            run.mismatch(f"{g} row {m['row']} {m['column']}",
                         f"fixture {m['fixture']!r} computed {m['computed']!r}")


# -- e8-query -------------------------------------------------------------------


def _shape_key(label, partition):
    """A shape's label without primes or signs, with its partition."""
    return oracle._strip_decoration(label), partition


def diff_rows_by_label(fixture, rows, catalog):
    """Mismatched cells of some computed rows against their fixture rows.

    ``oracle.diff_fixture`` binds every fixture row and so needs the whole
    table.  Here each computed row is matched to the fixture row with the same
    shape key, which must be unique in the group (it is in E8), and the
    catalog indices in ``q_index`` and ``closure`` are translated to fixture
    indices through the same keys.  Returns (row, column, fixture, computed)
    tuples.
    """
    fixture_rows = {}
    for frow in fixture.rows:
        fixture_rows.setdefault(_shape_key(frow.label, frow.partition), []).append(frow)
    to_fixture = {}
    for s in catalog:
        matches = fixture_rows.get(_shape_key(s.type_label, s.partition), [])
        if len(matches) != 1:
            raise ValueError(f"{s.type_label}: {len(matches)} fixture rows share its label")
        to_fixture[s.index] = matches[0]

    def closure(cell):
        m = re.fullmatch(r"(\()?(\d+)(\))?", cell)
        if not m:
            return cell
        k = to_fixture[int(m.group(2))].index
        return f"({k})" if m.group(1) else str(k)

    out = []
    for row in rows:
        frow = to_fixture[row["index"]]
        got = dict(row, q_index=to_fixture[row["q_index"]].index,
                   closure=closure(row["closure"]))
        for col in oracle._COMPARED:
            if getattr(frow, col) != got[col]:
                out.append((frow.index, col, getattr(frow, col), got[col]))
    return out


def solve_e8_query(built, run, seed=0, fixtures=None):
    """The E8 query rows, in an order drawn from the seed, checked by label."""
    rs = built["E8"]
    catalog = parabolic.shape_catalog(rs)
    queries = random.Random(seed).sample(E8_QUERIES, len(E8_QUERIES))
    rows = []
    for label in queries:
        row = run.op(f"E8 {label}", lambda label=label: normalizer.decomposition_row(
            normalizer.decompose(rs, catalog.by_selector(label))))
        if row is not None:
            rows.append(row)
    fixture = (fixtures or {}).get("E8") or oracle.load_fixture("E8")
    with run.phase("check"):
        diff = diff_rows_by_label(fixture, rows, catalog)
    for index, col, want, got in diff:
        run.mismatch(f"E8 row {index} {col}", f"fixture {want!r} computed {got!r}")


# -- lattice --------------------------------------------------------------------


def _concepts(rs):
    """Concepts as criterion 4 pins them: stripped labels, partitions, same class."""
    catalog = parabolic.shape_catalog(rs)
    out = []
    for i, j in galois.parabolic_concepts(rs):
        left = (oracle._strip_decoration(catalog[i].type_label), catalog[i].partition)
        right = (oracle._strip_decoration(catalog[j].type_label), catalog[j].partition)
        out.append([sorted([list(left), list(right)]), i == j])
    return _jsonable(sorted(out))


def _involutions(rs):
    return [[r.shape_index, r.degree, r.centralizer_order,
             hashlib.sha256(r.element.img.tobytes()).hexdigest()[:16]]
            for r in involutions.involution_class_representatives(rs)]


def _suite(name):
    def run_suite(rs):
        report = getattr(verify, name)(rs)  # looked up per call, so a tracer sees it
        return {"ok": report["ok"], "checks": sorted(report["checks"])}
    return run_suite


LATTICE_CALLS = {
    "concepts": _concepts,
    "graph": lambda rs: _jsonable(galois.shape_closure_graph(rs)),
    "involutions": _involutions,
    "section8": _suite("verify_section8"),
    "galois": _suite("verify_galois"),
}


def _jsonable(x):
    return json.loads(json.dumps(x))


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def solve_lattice(built, run, seed=0, reference=None):
    """The five suite calls per group, each equal to the pinned reference.

    Exhaustive, so the seed is not used.
    """
    reference = reference or load_reference()
    for g, rs in built.items():
        for suite in LATTICE_SUITES:
            got = run.op(f"{g} {suite}", lambda: LATTICE_CALLS[suite](rs))
            if got is None:
                continue
            want = reference[g][suite]
            if got != want:  # the pinned suite reports carry ok = true
                run.mismatch(f"{g} {suite}", "differs from the pinned reference")


SOLVERS = {"tables": solve_tables, "lattice": solve_lattice, "e8-query": solve_e8_query}


def run_pass(workload, mode, tracer=None, seed=0, **check_data):
    """One cold pass: set-up, then (mode "full") the checked solve phase.

    Returns the wall intervals (perf_counter start, end) of the set-up, the
    solve phase and each operation, with the operation and mismatch counts.
    """
    run = Run(tracer)
    start = time.perf_counter()
    built = setup(WORKLOADS[workload], run)
    out = {"setup": (start, time.perf_counter())}
    if mode == "full":
        start = time.perf_counter()
        with run.phase("solve"):
            SOLVERS[workload](built, run, seed, **check_data)
        out["solve"] = (start, time.perf_counter())
        out["ops"] = run.op_intervals
    out.update(attempted=run.attempted, failed=run.failed,
               mismatches=run.mismatches, problems=run.problems)
    return out
