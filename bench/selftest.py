"""Self-tests of the benchmark.  Run from the checkout root:

    python3 bench/selftest.py

Every workload gets two traced passes (about a minute in all on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

OUT = run.ROOT / ".bench_out" / "selftest"

# Per-layer metrics that must repeat exactly from one process to the next.
COUNTS = [e["name"] for e in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
          if e["name"].endswith((".calls", ".useful_frac"))
          or e["name"] in ("transform.cmacs", "kernels.table_bytes")]


def counts(procs: list[dict]) -> dict:
    trace = run.merge_traces(procs)
    return {name: run.layer_metric(name, trace) for name in COUNTS}


class TracedPasses(unittest.TestCase):
    def test_counts_repeat_and_outputs_check(self):
        digests = run.load_digests()
        for w in workloads.WORKLOADS.values():
            with self.subTest(workload=w.name):
                out_dir = OUT / w.name
                cold = run.run_pass(w, workloads.DEFAULT_SEED, 1, out_dir)
                cold_counts = counts(cold)
                self.assertEqual(run.check_pass(w, 0, 0, cold, out_dir, digests), (0, []))
                # A second child in the same directory: no state may carry over.
                repeat = run.run_pass(w, workloads.DEFAULT_SEED, 1, out_dir)
                self.assertEqual(run.check_pass(w, 0, 1, repeat, out_dir, digests), (0, []))
                self.assertEqual(counts(repeat), cold_counts)
                self.assertGreater(sum(cold_counts.values()), 0)

                if w.name in digests:
                    wrong = json.loads(json.dumps(digests))
                    name = next(iter(wrong[w.name]["sha256"]))
                    wrong[w.name]["sha256"][name] = "0" * 64
                    failed, problems = run.check_pass(w, 0, 1, repeat, out_dir, wrong)
                    self.assertEqual(failed, w.ops, problems)


class InProcessRepeat(unittest.TestCase):
    def test_warm_caches_change_counts(self):
        """The counts see cache reuse, so equal counts across children mean none."""
        from vilenkin import cli

        tracer = tracing.Tracer()
        tracer.instrument()
        cfg = cli.RunConfig(m=(2, 2, 2), claims=("theorem1", "lemma4"), p=(2.0,))
        builds = []
        for _ in range(2):
            cli.compute_rows(cfg)
            builds.append(tracer.report()["spans"]["verify.family_build"]["calls"])
        self.assertGreater(builds[0], 0)
        self.assertEqual(builds[1], builds[0])  # the second run built nothing new


class Inputs(unittest.TestCase):
    def test_default_seed_is_cli_default(self):
        from vilenkin import GroupContext, cli

        for w in workloads.WORKLOADS.values():
            if w.kind == "sweep":
                self.assertEqual(workloads.families(w, workloads.DEFAULT_SEED),
                                 cli.default_families(GroupContext(w.m)))

    def test_seeds_keep_the_work_and_repeat(self):
        for w in workloads.WORKLOADS.values():
            if w.kind != "sweep":
                continue
            base = workloads.families(w, workloads.DEFAULT_SEED)
            for seed in (1, 2, 99):
                labels = workloads.families(w, seed)
                self.assertEqual(len(labels), len(base))
                self.assertEqual(len(set(labels)), len(labels))
                self.assertEqual(labels, workloads.families(w, seed))
                self.assertNotEqual(labels, base)


class SelfTime(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(tracing._covered([(1, 3), (2, 4), (6, 12)], 0, 10), 7.0)
        self.assertEqual(tracing._covered([], 0, 10), 0.0)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "moduli",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
