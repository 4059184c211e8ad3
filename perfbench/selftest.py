"""Self-test of the benchmark's gates, speed probe and tracer.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that a corrupted golden cell or pinned value is counted as a mismatch
on each workload's checker (the e8-query row checker is tried on E6, whose
labels are unique like E8's), that an operation which raises is counted as
failed, that the probe rescales wall time by the local speed, that traced
spans nest inside their parents, and that the reported metrics are the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
import time
import unittest

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def corrupt(fixture, index, column, value):
    """A copy of a golden table with one cell replaced."""
    rows = [dataclasses.replace(r, **{column: value}) if r.index == index else r
            for r in fixture.rows]
    return dataclasses.replace(fixture, rows=rows)


def built(*groups):
    return {g: workloads.rootsys.build_root_system(g) for g in groups}


class GateTest(unittest.TestCase):
    def test_clean_tables_pass(self):
        run = workloads.Run()
        workloads.solve_tables(built("F4", "I2(5)"), run)
        self.assertEqual((run.attempted, run.failed, run.mismatches), (15, 0, 0))

    def test_corrupted_table_cell_is_a_mismatch(self):
        fixture = workloads.oracle.load_fixture("F4")
        bad = corrupt(fixture, 3, "d_order", fixture.rows[2].d_order + 1)
        run = workloads.Run()
        workloads.solve_tables(built("F4"), run, fixtures={"F4": bad})
        self.assertEqual(run.mismatches, 1)
        self.assertIn("F4 row 3 d_order", run.problems[0])

    def test_corrupted_lattice_reference_is_a_mismatch(self):
        reference = workloads.load_reference()
        run = workloads.Run()
        workloads.solve_lattice(built("F4"), run, reference=reference)
        self.assertEqual((run.attempted, run.mismatches), (5, 0))
        bad = copy.deepcopy(reference)
        bad["F4"]["concepts"].pop()
        bad["F4"]["graph"]["hasse"][0][1] += 1
        run = workloads.Run()
        workloads.solve_lattice(built("F4"), run, reference=bad)
        self.assertEqual(run.mismatches, 2)

    def test_rows_checked_by_label_agree_with_the_full_diff(self):
        # E6 labels are unique, like E8's, so a few rows can be checked alone
        rs = workloads.rootsys.build_root_system("E6")
        catalog = workloads.parabolic.shape_catalog(rs)
        rows = [workloads.normalizer.decomposition_row(workloads.normalizer.decompose(rs, s))
                for s in catalog]
        fixture = workloads.oracle.load_fixture("E6")
        self.assertTrue(workloads.oracle.diff_fixture(fixture, rows, catalog)["ok"])
        self.assertEqual(workloads.diff_rows_by_label(fixture, rows[5:9], catalog), [])
        frow = next(r for r in fixture.rows if r.label == "A2A1")
        bad = corrupt(fixture, frow.index, "closure", "W")
        diff = workloads.diff_rows_by_label(bad, rows, catalog)
        self.assertEqual([(i, col) for i, col, _, _ in diff], [(frow.index, "closure")])

    def test_shared_labels_are_refused(self):
        rs = workloads.rootsys.build_root_system("F4")   # F4 has A1' and A1''
        catalog = workloads.parabolic.shape_catalog(rs)
        with self.assertRaises(ValueError):
            workloads.diff_rows_by_label(workloads.oracle.load_fixture("F4"), [], catalog)

    def test_raising_operation_counts_as_failed(self):
        run = workloads.Run()
        self.assertIsNone(run.op("boom", lambda: 1 // 0))
        self.assertEqual((run.attempted, run.failed), (1, 1))


class TracerTest(unittest.TestCase):
    def test_spans_nest_inside_their_parents(self):
        tracer = Tracer()
        tracer.install()
        try:
            run = workloads.Run(tracer)
            workloads.solve_tables(built("B5", "H3"), run)
        finally:
            tracer.uninstall()
        self.assertEqual(run.mismatches, 0)
        self.assertEqual(tracer.check_nesting(), [])
        names = {sid: name for sid, name, _, _, _ in tracer.spans}
        parents = {names[p] for _, name, _, _, p in tracer.spans
                   if name == "groups.transversal"}
        self.assertIn("normalizer.decompose", parents)
        summary = tracer.summary()
        self.assertGreater(summary["counts"]["qsqrt5.q5_new"], 0)
        self.assertEqual(summary["calls"]["normalizer.decompose"], 19 + 6)
        for name, total in summary["incl_s"].items():
            self.assertLessEqual(summary["self_s"][name], total + 1e-9, name)

    def test_uninstall_restores_the_library(self):
        before = workloads.normalizer.decompose
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(workloads.normalizer.decompose, before)
        tracer.uninstall()
        self.assertIs(workloads.normalizer.decompose, before)

    def test_misplaced_span_is_reported(self):
        tracer = Tracer()
        tracer.spans = [(1, "outer", 0.0, 1.0, 0), (2, "inner", 0.5, 1.5, 1)]
        self.assertEqual(tracer.check_nesting(), [2])


class ProbeTest(unittest.TestCase):
    def test_scaling_removes_probe_time_and_rescales(self):
        probe = SpeedProbe()
        probe.starts = [1.0 + 0.01 * k for k in range(20)]
        probe.durations = [2 * REFERENCE_S] * 20   # the machine runs at half speed
        scaled = probe.scaled(1.0, 1.2)
        self.assertAlmostEqual(scaled, (0.2 - 20 * 2 * REFERENCE_S) / 2)
        # too few probes inside: the nearest ones give the speed
        self.assertAlmostEqual(probe.scaled(5.0, 6.0), 0.5)
        probe.starts += [2.0 + 0.01 * k for k in range(20)]
        probe.durations += [REFERENCE_S] * 20       # then at full speed
        self.assertAlmostEqual(probe.scaled(2.1, 2.101), 0.001 - REFERENCE_S)
        self.assertAlmostEqual(probe.scaled(1.1, 1.101), (0.001 - 2 * REFERENCE_S) / 2)

    def test_probe_samples_a_running_pass(self):
        with SpeedProbe() as probe:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        self.assertGreater(len(probe.durations), 5)


class DeclarationTest(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        empty = {"incl_s": {}, "layer_self_s": {}, "calls": {}, "counts": {},
                 "descend_distinct": 0}
        reported = {name: unit for name, (_, unit) in run.layer_metrics(empty).items()}
        self.assertEqual(reported, {m["name"]: m["unit"] for m in declared["per_layer"]})
        self.assertEqual(run.END_TO_END,
                         {m["name"]: m["unit"] for m in declared["end_to_end"]})
        # e8-query is run by hand only; see README.md
        self.assertEqual(set(run.WORKLOADS) - {"e8-query"},
                         {w["name"] for w in declared["workloads"]})


if __name__ == "__main__":
    unittest.main()
