"""Self-test of the benchmark on a few small items.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs `run.py` as a subprocess, as the benchmark is meant to be run,
and takes about half a minute.  Its scratch copies of the checkout go
to `perfbench/.work-*` and are removed at the end.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the smallest item of each kind; the inputs are those of the full list
TINY = {
    "series": "verify-th12",
    "analyze": "chain-k8,random-v16-0,fiber-E6",
    "sweep": "sweep-v6-0",
}


def bench(*args, cwd=ROOT, python=(sys.executable,)):
    proc = subprocess.run([*python, "perfbench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result(lines):
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    return doc


def fail_frac(lines):
    return float(lines[0].rsplit("fail_frac ", 1)[1])


def copy_checkout(tmp, with_package=True):
    """Copy BENCHMARK.json, perfbench/ and, if asked, src/ into tmp."""
    ignore = shutil.ignore_patterns("out", ".work-*", "__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=ignore)
    if with_package:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=ignore)


def unattributed_from_spans(path, wall):
    """The traced wall time not in any layer's self time, from the raw
    spans: the time outside the root spans plus every other span's
    wrapper bookkeeping."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    root = sum(float(end) - float(start)
               for _, _, start, end, parent, _, _ in rows if parent == "-1")
    bookkeeping = sum(float(wrapper)
                      for *_, parent, _, wrapper in rows if parent != "-1")
    return wall - root + bookkeeping


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class SelfTest(unittest.TestCase):
    def test_tiny_runs_emit_every_metric(self):
        for workload, items in TINY.items():
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, lines = bench("--workload", workload, "--items", items,
                                        "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    doc = result(lines)
                    self.assertTrue(doc["correct"])
                    self.assertEqual(doc["failed"], 0)
                    self.assertGreaterEqual(doc["attempted"], 1)
                    units = {k: m["unit"] for k, m in doc["metrics"].items()}
                    self.assertEqual(units, declared(kind))
                    self.assertEqual(fail_frac(lines), 0)

    def test_layer_self_times_add_up_to_traced_wall(self):
        # --seconds 0: a single traced pass, the one whose spans are written
        proc, lines = bench("--workload", "analyze", "--items", TINY["analyze"],
                            "--trace", "1", "--seconds", "0")
        m = {k: v["value"] for k, v in result(lines)["metrics"].items()}
        spans = os.path.join(HERE, "out",
                             f"spans-analyze-{workloads.DEFAULT_SEED}.tsv")
        self.assertAlmostEqual(m["trace.unattributed_s"],
                               unattributed_from_spans(spans, m["trace.wall_s"]),
                               delta=1e-5)
        # spans cover the work: what no layer claims is harness and counting
        self.assertGreaterEqual(m["trace.unattributed_s"], 0)
        self.assertLess(m["trace.unattributed_s"], 0.25 * m["trace.wall_s"])
        self.assertEqual(m["lattices.is_isometric.calls"], 0)
        self.assertGreater(m["homology.region_cohomology.calls"], 0)

    def test_corrupted_golden_fails(self):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            copy_checkout(tmp)
            path = os.path.join(tmp, "perfbench", "goldens.json")
            with open(path) as fh:
                goldens = json.load(fh)
            goldens["items"]["chain-k8"]["output"] = "0" * 64
            goldens["items"]["fiber-E6"]["input"] = "0" * 64
            with open(path, "w") as fh:
                json.dump(goldens, fh)
            proc, lines = bench("--workload", "analyze", "--items", TINY["analyze"],
                                "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        doc = result(lines)
        self.assertFalse(doc["correct"])
        self.assertGreater(doc["failed"], 0)
        self.assertGreater(fail_frac(lines), 0)
        self.assertIn("chain-k8: output differs from the golden", proc.stdout)
        self.assertIn("fiber-E6: input differs from the golden", proc.stdout)

    def test_refuses_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            copy_checkout(tmp, with_package=False)
            proc, lines = bench("--workload", "series", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(lines, [])

    def test_refuses_optimized_python(self):
        proc, lines = bench("--workload", "series", "--items", TINY["series"],
                            python=(sys.executable, "-O"))
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
