#!/usr/bin/env python3
"""Fast tests of the benchmark itself, on the driver's tiny spec.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does (the first run compiles the
library, about a minute), then runs a few seconds of tiny sweeps.
"""

import hashlib
import json
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.traced = run.drive("warm_matrix", 5, "--tiny", "--trace",
                               keep=True)
        cls.shard = run.drive("shard_matrix", 5, "--tiny", "--trace",
                              keep=True)

    @classmethod
    def tearDownClass(cls):
        for sample in (cls.traced, cls.shard):
            shutil.rmtree(sample["workdir"], ignore_errors=True)

    @staticmethod
    def spans(sample):
        path = Path(sample["workdir"]) / "spans.jsonl"
        return [json.loads(line) for line in path.read_text().splitlines()]

    def assertNested(self, spans):
        for s in spans:
            self.assertLessEqual(s["start"], s["end"])
            if s["parent"] < 0:
                continue
            parent = spans[s["parent"]]
            self.assertLessEqual(parent["start"], s["start"], s)
            self.assertLessEqual(s["end"], parent["end"], s)

    def test_names_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        # The driver emits every per-layer metric but the two run.py
        # derives from several driver processes.
        derived = {"trace_overhead_frac", "task_fail_ratio"}
        self.assertEqual(set(self.traced["layers"]),
                         set(run.PER_LAYER) - derived)

    def test_perturbed_report_trips_digest_gate(self):
        report = self.traced["report_bytes"]
        digest = hashlib.md5(report).hexdigest()
        expected = {"matrix": {"5": digest}}
        self.assertTrue(run.digest_gate("shard_matrix", 5, report,
                                        expected, {}))
        perturbed = report.replace(b"0.0", b"0.1", 1)
        self.assertNotEqual(perturbed, report)
        self.assertFalse(run.digest_gate("shard_matrix", 5, perturbed,
                                         expected, {}))
        # Without a pinned digest, iterations must still agree.
        seen = {}
        self.assertTrue(run.digest_gate("warm_matrix", 5, report, {}, seen))
        self.assertFalse(run.digest_gate("service_matrix", 5, perturbed,
                                          {}, seen))
        # The committed digests pin the real workloads.
        self.assertFalse(run.digest_gate("cold_simpoint", 0, report,
                                         run.expected_digests(), {}))
        sample = dict(self.traced, report_bytes=perturbed)
        self.assertEqual(run.check(sample, expected, {}), sample["tasks"])

    def test_child_spans_nest_within_parents(self):
        spans = self.spans(self.traced)
        names = {s["name"] for s in spans}
        for layer in ("materialize", "TraceArena::publish",
                      "TraceArena::tryLoad", "runLockstep",
                      "LockstepGroup::run", "ResultStore::put",
                      "TaskPlan", "ThreadPoolBackend::execute"):
            self.assertIn(layer, names)
        self.assertNested(spans)
        kids = [s for s in spans if s["name"] == "LockstepGroup::run"]
        self.assertTrue(kids)
        for s in kids:
            self.assertEqual(spans[s["parent"]]["name"], "runLockstep")

    def test_worker_spans_derived_from_streams_nest(self):
        spans = self.spans(self.shard)
        tasks = [s for s in spans if s["name"] == "worker.task"]
        self.assertEqual(len(tasks), self.shard["tasks"])
        for s in tasks:
            self.assertEqual(spans[s["parent"]]["name"],
                             "ProcessShardBackend::execute")
        self.assertNested(spans)

    def test_task_times_cover_every_run(self):
        for sample in (self.traced, self.shard):
            times = sample["task_times"]
            runs = [k for k in times if k[1] == "run"]
            self.assertEqual(len(runs), sample["tasks"])
            self.assertTrue(all(t >= 0 for t in times.values()))

    def test_host_scales_take_each_piece_at_its_fastest(self):
        a = {"task_times": {("s", 1): 1.0, ("s", 2): 2.0}}
        b = {"task_times": {("s", 1): 1.5, ("s", 2): 1.0}}
        self.assertEqual(run.host_scales([a, b]), [2.0 / 3.0, 2.0 / 2.5])
        # Static shards: the busiest stream sets the sweep time.
        a = {"task_times": {("x", 1): 2.0, ("y", 1): 1.0}}
        b = {"task_times": {("x", 1): 1.0, ("y", 1): 3.0}}
        self.assertEqual(run.host_scales([a, b]), [1.0 / 2.0, 1.0 / 3.0])
        self.assertEqual(run.host_scales([a]), [1.0])

    def test_tiny_runs_are_correct_on_every_backend(self):
        seen = {}
        for workload in run.MATRIX:
            sample = run.drive(workload, 5, "--tiny")
            self.assertEqual(run.check(sample, {}, seen), 0, workload)
            self.assertEqual(sample["oracle_checked"], 2)
            self.assertGreater(sample["sweep_s"], 0)


if __name__ == "__main__":
    unittest.main()
