"""Tests of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s perfbench -v
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the rtosim sources on sys.path)
import workloads  # noqa: E402
from rtosim import transport  # noqa: E402
from tracer import MissingBoundary, Tracer  # noqa: E402

TINY = (workloads.long_transfer(packets=300),
        workloads.wide_window(packets=300),
        workloads.sweep_grid(seeds=1, chain_packets=100))


def printed_result(name, trace, result) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(name, 3, trace, result)
    return json.loads(out.getvalue().splitlines()[-1])


class DeclaredMetrics(unittest.TestCase):
    def test_benchmark_json_matches_the_emitted_names_and_units(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


class UntracedRun(unittest.TestCase):
    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        for workload in TINY:
            with self.subTest(workload.name):
                result = run.measure(workload, 3, 0, False, setup_runs=1)
                self.assertTrue(result.correct, result.mismatches)
                printed = printed_result(workload.name, False, result)
                self.assertEqual(set(printed), {"correct", "attempted",
                                                "failed", "metrics"})
                self.assertEqual(
                    {key: m["unit"] for key, m in printed["metrics"].items()},
                    run.END_TO_END)
                self.assertTrue(all(m["value"] > 0
                                    for m in printed["metrics"].values()))
                self.assertEqual(printed["failed"], 0)

    def test_a_tampered_digest_or_count_makes_operations_fail(self):
        workload = TINY[0]
        honest = run.measure(workload, 3, 0, False, setup_runs=0)
        digests = json.loads(json.dumps(honest.digests))
        digests["run"]["trace"] = "0" * 64
        tampered = run.measure(workload, 3, 0, False,
                               {"digests": digests, "counts": honest.counts},
                               setup_runs=1)
        self.assertFalse(tampered.correct)
        self.assertEqual(tampered.failed, tampered.attempted)
        self.assertTrue(any("run.trace" in text
                            for text in tampered.mismatches))
        printed = printed_result(workload.name, False, tampered)
        self.assertGreater(printed["failed"] / printed["attempted"], 0)

        counts = dict(honest.counts, timeouts=honest.counts["timeouts"] + 1)
        tampered = run.measure(workload, 3, 0, False,
                               {"digests": honest.digests, "counts": counts},
                               setup_runs=0)
        self.assertGreater(tampered.failed, 0)
        self.assertTrue(any("timeouts" in text
                            for text in tampered.mismatches))


class TracedRun(unittest.TestCase):
    def test_every_per_layer_metric_and_unchanged_digests(self):
        for workload in TINY:
            with self.subTest(workload.name):
                result = run.measure(workload, 3, 0, True)
                self.assertTrue(result.correct, result.mismatches)
                printed = printed_result(workload.name, True, result)
                self.assertEqual(
                    {key: m["unit"] for key, m in printed["metrics"].items()},
                    run.PER_LAYER)
                traced = [it for it in result.iterations if it.layers]
                self.assertTrue(traced)
                for it in result.iterations:
                    self.assertEqual(it.digests, result.digests)

    def test_a_missing_boundary_stops_the_install_by_name(self):
        original = transport.layer1_update
        tracer = Tracer(boundaries=(
            ("estimators.layer1_update", "rtosim.transport", None,
             "layer1_update"),
            ("transport.gone", "rtosim.transport", None, "no_such_function"),
        ))
        with self.assertRaisesRegex(MissingBoundary, "transport.gone"):
            tracer.install()
        self.assertIs(transport.layer1_update, original)

    def test_a_boundary_never_reached_is_named(self):
        with Tracer() as tracer:
            run.run_iteration("probe", TINY[1].groups(3), Path("."), tracer)
        with self.assertRaisesRegex(MissingBoundary, "cli.main"):
            tracer.require(frozenset())
        tracer.require(TINY[1].unused)


class WithoutTheProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".work-*"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "long_transfer", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
