"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that corrupted inputs and forged expectations count as failed
jobs, that two traced runs give identical counts, that the tracer leaves
every cch module attribute as it found it, and that BENCHMARK.json names
exactly the metrics the benchmark reports.  Work files go under
.bench_build/perfbench/selftest/.
"""
import json
import os
import sys
import unittest
from pathlib import Path
from unittest import mock

import run
import tracing
import workloads

WORK = run.WORK / "selftest"


def _tiny(workload, seed=1, trace=0, seconds=0):
    return run.run_workload(workload, seed, seconds, trace, size=workloads.TINY[workload], work=WORK)


def _rewrite(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_passes_its_oracle(self):
        for workload in workloads.WORKLOADS:
            result = _tiny(workload)["result"]
            self.assertEqual((result["correct"], result["failed"]), (True, 0), workload)
            self.assertGreater(result["metrics"]["wall_s"]["value"], 0)

    def test_same_seed_same_inputs(self):
        a = workloads.generate("complex_dense", 7, WORK / "a", workloads.TINY["complex_dense"])
        b = workloads.generate("complex_dense", 7, WORK / "b", workloads.TINY["complex_dense"])
        self.assertEqual(a, b)
        self.assertEqual((WORK / "a" / "scenario.json").read_text(), (WORK / "b" / "scenario.json").read_text())

    def test_seeds_keep_the_work_size(self):
        items = {json.dumps(_tiny("search", seed)["items"]) for seed in (1, 2, 3)}
        self.assertEqual(len(items), 1)


class CorruptedInputs(unittest.TestCase):
    def _job(self, workload, corrupt):
        in_dir = WORK / f"corrupt-{workload}"
        spec = workloads.generate(workload, 3, in_dir, workloads.TINY[workload])
        corrupt(in_dir, spec)
        return run._job([str(in_dir)], dict(os.environ, PYTHONHASHSEED="0"))

    def test_flipped_sign_fails(self):
        def flip(in_dir, spec):
            _rewrite(in_dir / workloads.SCENARIO, lambda d: d["counts"][0].update(sign=-d["counts"][0]["sign"]))

        problems = self._job("complex_dense", flip)["problems"]
        self.assertIn("delta-kappa-delta is not zero", problems)

    def test_forged_homology_fails(self):
        def forge(in_dir, spec):
            _rewrite(in_dir / workloads.SPEC, lambda d: d["homology"][0].__setitem__(2, d["homology"][0][2] + 1))

        for workload in ("complex_dense", "complex_zero"):
            self.assertTrue(self._job(workload, forge)["problems"], workload)

    def test_forged_certificate_count_fails(self):
        def forge(in_dir, spec):
            _rewrite(in_dir / workloads.SPEC, lambda d: d.update(certificates=d["certificates"] + 1))

        self.assertTrue(self._job("sweep", forge)["problems"])

    def test_digest_mismatch_fails(self):
        run._digest_log(WORK, "selftest/forged", "0" * 64)
        result = run.run_workload(
            "search", 5, 0, 0, size=workloads.TINY["search"], work=WORK, digest_key="selftest/forged"
        )
        self.assertFalse(result["result"]["correct"])

    def test_failed_jobs_count_in_the_result(self):
        real = workloads.generate

        def forged(workload, seed, out_dir, size):
            spec = real(workload, seed, out_dir, size)
            _rewrite(Path(out_dir) / workloads.SPEC, lambda d: d.update(generators=0))
            return spec

        with mock.patch.object(workloads, "generate", forged):
            result = _tiny("complex_dense", seed=9)["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class Tracing(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        for workload in workloads.WORKLOADS:
            first, second = (_tiny(workload, trace=1)["result"] for _ in range(2))
            self.assertTrue(first["correct"] and second["correct"], workload)
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"} for r in (first, second)
            ]
            self.assertEqual(counts[0], counts[1], workload)
            self.assertTrue(any(counts[0].values()), workload)

    def test_certificates_count_the_work_done(self):
        run_ = _tiny("sweep", trace=1)
        spec = workloads.load_spec(WORK / "sweep-1")
        self.assertEqual(run_["result"]["metrics"]["writhe.certificates"]["value"], spec["certificates"])

    def test_tracer_restores_module_attributes(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import cch.cli  # noqa: F401
        from cch.scenario import Scenario

        def snapshot():
            state = {(name, attr): value for name, module in sys.modules.items()
                     if name == "cch" or name.startswith("cch.")
                     for attr, value in vars(module).items()}
            state.update({("Scenario", k): v for k, v in vars(Scenario).items()})
            return state

        before = snapshot()
        with tracing.Tracer():
            during = snapshot()
        after = snapshot()
        self.assertNotEqual(before, during)
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            {**tracing.LAYER_METRICS, **run.TRACE_ONLY},
        )


if __name__ == "__main__":
    WORK.mkdir(parents=True, exist_ok=True)
    unittest.main()
