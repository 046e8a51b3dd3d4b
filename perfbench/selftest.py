"""Tests of the benchmark itself: every output check fires on a wrong
answer, the tracer accounts for its time, and BENCHMARK.json lists the
metrics run.py prints.

    python3 perfbench/selftest.py

The file name keeps it out of the library's pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import run
import tracer as tracing
import workloads
from worker import Checker, import_times

workloads.import_library()
from ghostgraph import DecoratedGraph, Multigraph, classify, cochains, ghosts  # noqa: E402

EVEN = cochains.EvenFunction


def scratch_dir() -> Path:
    base = workloads.ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


class SnapshotCopy:
    """Point the workloads at a copy of snapshots/ that a test may edit."""

    def __enter__(self):
        self.saved = workloads.SNAPSHOTS
        self.dir = scratch_dir()
        shutil.copytree(self.saved, self.dir, dirs_exist_ok=True)
        workloads.SNAPSHOTS = self.dir
        return self.dir

    def __exit__(self, *exc):
        workloads.SNAPSHOTS = self.saved
        shutil.rmtree(self.dir)


def perturb_row(path: Path, line: int = 1):
    """Change the age column of one data row."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[line].split("\t")
    fields[3] = "0/1"
    lines[line] = "\t".join(fields)
    path.write_text("".join(lines))


MAX5 = ((5, None, True),)
ALL5 = ((5, None, False),)


class ClassifyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.maximal = cls.all = workloads.Classify(1)
        cls.max5 = cls.maximal.run(MAX5)
        cls.all5 = cls.all.run(ALL5)

    def test_maximal_tables_pass(self):
        self.assertIsNone(self.maximal.check(MAX5, self.max5))

    def test_maximal_fires_on_perturbed_snapshot_row(self):
        for k in (0, 1):
            with SnapshotCopy() as snaps:
                perturb_row(snaps / f"ell5_k{k}.tsv")
                self.assertIn(f"k={k}", self.maximal.check(MAX5, self.max5))

    def test_maximal_fires_on_missing_class(self):
        self.assertIsNotNone(self.maximal.check(MAX5, [self.max5[0][1:]]))

    def test_all_listing_passes(self):
        self.assertIsNone(self.all.check(ALL5, self.all5))

    def test_all_fires_on_wrong_age(self):
        bad = list(self.all5[0])
        bad[0] = dataclasses.replace(bad[0], age=bad[0].age + Fraction(1, 5))
        self.assertIn("age", self.all.check(ALL5, [bad]))

    def test_all_fires_on_witness_that_does_not_lift(self):
        c = self.all5[0][0]
        g = c.decorated.graph
        # a nonzero function on one edge of a graph with no bridges never lifts
        one_edge = EVEN(g, 5, {e: int(e == g.edge_ids[0]) for e in g.edge_ids})
        bad = [dataclasses.replace(c, witness=one_edge)] + list(self.all5[0][1:])
        self.assertIn("does not lift", self.all.check(ALL5, [bad]))

    def test_all_fires_on_perturbed_snapshot_row(self):
        with SnapshotCopy() as snaps:
            perturb_row(snaps / "ell5_k1.tsv", line=3)
            self.assertIn("k=1", self.all.check(ALL5, self.all5))

    def test_cold_cache_guard(self):
        cached = classify._classify_cached
        self.maximal.run(MAX5)
        cached.cache_clear = lambda: None  # shadows the method: the cache stays warm
        try:
            with self.assertRaises(RuntimeError):
                self.maximal.run(MAX5)
        finally:
            del cached.cache_clear
        self.maximal.run(MAX5 + MAX5)


class AgeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.AgeQueries(3)
        prime = [r for r in cls.wl.requests if workloads.AGE_LEVELS[r[0].ell]]
        cls.junior = next(r for r in prime if ghosts.stratum_age(r[0]) < 1)
        cls.senior = next(
            r for r in prime if 1 <= ghosts.stratum_age(r[0]) < float("inf")
        )

    def answer(self, request):
        return self.wl.run(request)

    def test_correct_reports_pass(self):
        for request in self.wl.requests[:40] + [self.junior, self.senior]:
            self.assertIsNone(self.wl.check(request, self.answer(request)))

    def test_fires_on_wrong_age(self):
        report = self.answer(self.junior)
        report["stratum_age"] = "1/2" if report["stratum_age"] != "1/2" else "1/3"
        self.assertIn("stratum age", self.wl.check(self.junior, report))

    def test_fires_on_wrong_junior_flag(self):
        for request in (self.junior, self.senior):
            report = self.answer(request)
            report["junior"] = not report["junior"]
            self.assertIn("junior", self.wl.check(request, report))

    def test_fires_on_wrong_group_order(self):
        report = self.answer(self.junior)
        report["ghost_group_order"] *= self.junior[0].ell
        self.assertIn("group order", self.wl.check(self.junior, report))

    def test_fires_on_witness_that_does_not_lift(self):
        d = self.junior[0]
        real = ghosts.minimal_age_report
        core = ghosts.reduced_core(d).graph
        bogus = EVEN(core, d.ell, {e: int(e == core.edge_ids[0]) for e in core.edge_ids})
        ghosts.minimal_age_report = lambda d, *a: ghosts.AgeReport(
            bogus, ghosts.age(bogus), 1
        )
        try:
            self.assertIn("does not lift", self.wl.check(self.junior, self.answer(self.junior)))
        finally:
            ghosts.minimal_age_report = real

    def test_inputs_follow_the_quota(self):
        counts = {}
        for ell, nv, edges, twists, _ in workloads.age_cases(5):
            if workloads.AGE_LEVELS[ell]:
                cell = workloads.core_edge_count(nv, edges, twists)
                counts[cell] = counts.get(cell, 0) + 1
        n_prime = sum(workloads.AGE_LEVELS.values())
        self.assertEqual(counts, {c: q * n_prime for c, q in workloads.CORE_QUOTA.items()})
        self.assertEqual(workloads.age_cases(5), workloads.age_cases(5))

    def test_core_size_matches_the_library(self):
        rng = random.Random(0)
        for _ in range(300):
            nv, edges, twists = workloads.random_graph(rng, 7)
            d = DecoratedGraph.from_edge_values(
                Multigraph(range(nv), edges), 7, dict(enumerate(twists))
            )
            self.assertEqual(
                workloads.core_edge_count(nv, edges, twists),
                ghosts.reduced_core(d).graph.n_edges,
            )


class CliChecks(unittest.TestCase):
    def setUp(self):
        self.dir = scratch_dir()
        self.wl = workloads.CliCold(1, self.dir)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_fires_on_failure(self):
        analyze = next(r for r in self.wl.requests if r[0][0] == "analyze")
        classify_call = next(r for r in self.wl.requests if r[0][0] == "classify")
        good = json.dumps({"ell": analyze[1], "stratum_age": None})
        self.assertIsNone(self.wl.check(analyze, (0, good, "")))
        self.assertIn("exited 3", self.wl.check(analyze, (3, good, "parse error")))
        self.assertIn("not JSON", self.wl.check(analyze, (0, "ell: 5", "")))
        snapshot = (workloads.SNAPSHOTS / "ell5_k1.tsv").read_text()
        self.assertIsNone(self.wl.check(classify_call, (0, snapshot, "")))
        self.assertIn("differs", self.wl.check(classify_call, (0, snapshot[:-5], "")))

    def test_real_calls_pass(self):
        for request in self.wl.requests[:2]:
            self.assertIsNone(self.wl.check(request, self.wl.run(request)))


class CheckerReuse(unittest.TestCase):
    def test_repeated_answer_is_not_rechecked_but_a_new_one_is(self):
        calls = []

        class Fake:
            requests = ["r"]

            def fingerprint(self, request, answer):
                return str(answer)

            def check(self, request, answer):
                calls.append(answer)
                return None if answer == 1 else "wrong"

        checker = Checker(Fake())
        self.assertTrue(checker.verdict(0, "r", 1, None))
        self.assertTrue(checker.verdict(0, "r", 1, None))
        self.assertFalse(checker.verdict(0, "r", 2, None))
        self.assertFalse(checker.verdict(0, "r", 1, "raised"))
        self.assertEqual(calls, [1, 2])


class TracerAccounting(unittest.TestCase):
    def test_self_times_add_up_and_uninstall_restores(self):
        wl = workloads.AgeQueries(2)
        originals = (ghosts.minimal_age_report, ghosts.GhostGroup.__dict__["elements"])
        t = tracing.Tracer()
        t.install()
        self.assertIsNot(ghosts.minimal_age_report, originals[0])
        try:
            for i, request in enumerate(wl.requests[:60]):
                t.request(i, wl.run, request)
        finally:
            t.uninstall()
        self.assertIs(ghosts.minimal_age_report, originals[0])
        self.assertIs(ghosts.GhostGroup.__dict__["elements"], originals[1])
        op_total = t.stats["op"][1]
        self_sum = sum(v[2] for v in t.stats.values())
        self.assertAlmostEqual(self_sum, op_total, delta=1e-6 * max(1, op_total))
        self.assertEqual(t.stats["cli.build_report"][0], 60)
        by_id = {s[0]: s for s in t.spans}
        for span_id, parent, op, name, start, end in t.spans:
            if parent:
                self.assertEqual(by_id[parent][2], op)
                self.assertLessEqual(by_id[parent][4], start)
                self.assertLessEqual(end, by_id[parent][5])


class Declarations(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(sorted(run.WORKLOADS), sorted(workloads.WORKLOADS))

    def test_import_times(self):
        text = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |   ghostgraph.graphs\n"
            "import time:      2000 |      90000 |     numpy\n"
            "import time:       300 |      92400 | ghostgraph\n"
            "import time:        50 |       1000 | click\n"
        )
        times = import_times(text)
        self.assertEqual(times["numpy_s"], 0.09)
        self.assertEqual(times["click_s"], 0.001)
        self.assertEqual(times["ghostgraph_s"], 0.0004)
        self.assertEqual(times["total_s"], 0.00245)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
