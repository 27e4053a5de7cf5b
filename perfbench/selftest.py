"""Quick self-tests of the benchmark: toy-size runs and checks fed broken outputs.

    python3 perfbench/selftest.py        (from the root of a checkout)

Each workload runs once at toy size and must pass; then each correctness
check is handed a deliberately broken copy of real program output (a flipped
answer letter, a wrong theta_hat, a miscounted marker, a wrong difficulty, a
mis-scored live reply) and must report it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def toy_round(workload: str, seed: int = 5) -> tuple[str, str, dict, dict]:
    """Run one toy round; returns (inputs, outputs, manifest, worker result)."""
    inputs, manifest = run.cached_inputs(ROOT, workload, seed, "toy")
    work = os.path.join(ROOT, ".perfbench", "selftest", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out, result = run.run_round(ROOT, work, workload, inputs, manifest, 0, False)
    return inputs, out, manifest, result


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def tearDownModule():
    shutil.rmtree(os.path.join(ROOT, ".perfbench", "selftest"), ignore_errors=True)


class ToyRuns(unittest.TestCase):
    def bench(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "0", "--trace", str(trace), "--size", "toy"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_passes_at_toy_size(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.bench(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), {"setup_s", "wall_s", "peak_rss_mb"})
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        result = self.bench("pipeline", 1)
        self.assertEqual(set(result["metrics"]), set(tracing.PER_LAYER))
        self.assertGreater(result["metrics"]["scoring.extract_metrics.s"]["value"], 0)

    def test_benchmark_json_names_what_the_runs_report(self):
        spec = checks.load_json(os.path.join(ROOT, "BENCHMARK.json"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, tracing.unit_of(name)) for name in tracing.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_bare_benchmark_directory_fails_fast(self):
        bare = os.path.join(ROOT, ".perfbench", "selftest", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Generators(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        outs = [os.path.join(ROOT, ".perfbench", "selftest", f"gen{k}") for k in range(2)]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
            gen.generate("pipeline", out, 9, "toy", os.path.join(ROOT, "src"))
        for name in sorted(os.listdir(outs[0])):
            with open(os.path.join(outs[0], name), "rb") as a, open(os.path.join(outs[1], name), "rb") as b:
                self.assertEqual(a.read(), b.read(), name)
        for out in outs:
            shutil.rmtree(out)

    def test_planted_markers_are_counted_by_construction(self):
        import random

        vocab = gen.load_vocabulary(os.path.join(ROOT, "src"))
        text, expected = gen.make_trace(random.Random(1), vocab, "en", 400, "B")
        self.assertEqual(expected["token_count"], len(text.split()))
        self.assertEqual(expected["segment_count"], text.count("\n\n") + 1)


class BrokenOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harden = toy_round("harden")
        cls.pipeline = toy_round("pipeline")
        cls.live = toy_round("live")

    def test_flipped_answer_letter(self):
        inputs, out, _, _ = self.harden
        comb_path = os.path.join(out, "comb.json")
        self.assertEqual(checks.check_comb_bank(comb_path, os.path.join(inputs, "atomic.json")), [])
        bank = checks.load_json(comb_path)
        question = bank["questions"][0]
        letters = [o["letter"] for o in question["options"]]
        wrong = next(letter for letter in letters if letter not in question["answer_set"])
        question["answer_set"] = sorted(question["answer_set"][1:] + [wrong])
        broken = os.path.join(out, "comb_broken.json")
        write_json(broken, bank)
        problems = checks.check_comb_bank(broken, os.path.join(inputs, "atomic.json"))
        self.assertTrue(any("answer set" in p for p in problems), problems)

    def test_answer_letter_no_option_has(self):
        inputs, out, _, _ = self.harden
        bank = checks.load_json(os.path.join(out, "comb.json"))
        bank["questions"][0]["answer_set"].append("Z")
        broken = os.path.join(out, "comb_z.json")
        write_json(broken, bank)
        self.assertNotEqual(checks.check_comb_bank(broken, os.path.join(inputs, "atomic.json")), [])

    def test_wrong_difficulty(self):
        inputs, out, _, _ = self.harden
        items = checks.load_json(os.path.join(out, "comb_items.json"))
        items["items"][0]["b"] += 0.01
        broken = os.path.join(out, "items_broken.json")
        write_json(broken, items)
        comb = checks.load_json(os.path.join(out, "comb.json"))["questions"]
        questions = {q["id"]: {"tier": q["tier"], "n_options": len(q["options"])} for q in comb}
        features = {q["id"]: q for q in checks.load_json(os.path.join(inputs, "atomic.json"))["questions"]}
        self.assertEqual(checks.check_items(os.path.join(out, "comb_items.json"), questions, features), [])
        self.assertEqual(len(checks.check_items(broken, questions, features)), 1)

    def test_miscounted_marker(self):
        inputs, out, _, _ = self.pipeline
        scores = os.path.join(out, "scores.jsonl")
        expected = checks.load_json(os.path.join(inputs, "expected_metrics.json"))
        self.assertEqual(checks.check_scores(scores, os.path.join(inputs, "expected_metrics.json")), [])
        miscounted = copy.deepcopy(expected)
        first = sorted(miscounted)[0]
        miscounted[first]["pivot_count"] += 1
        broken = os.path.join(out, "expected_broken.json")
        write_json(broken, miscounted)
        problems = checks.check_scores(scores, broken)
        self.assertEqual(len(problems), 1)
        self.assertIn("pivot_count", problems[0])

    def test_wrong_theta_hat(self):
        _, out, _, _ = self.pipeline
        log, report_path = os.path.join(out, "run", "run.jsonl"), os.path.join(out, "run", "report.json")
        banks = run._items_by_label(os.path.join(out, "base_items.json"), os.path.join(out, "comb_items.json"))
        self.assertEqual(checks.check_cat_run(log, report_path, banks), [])
        report = checks.load_json(report_path)
        report["dual"]["base"]["theta_hat"] += 0.05
        broken = os.path.join(out, "run", "report_broken.json")
        write_json(broken, report)
        self.assertTrue(any("theta_hat" in p for p in checks.check_cat_run(log, broken, banks)))

    def test_pick_that_is_not_the_most_informative(self):
        _, out, _, _ = self.pipeline
        log = os.path.join(out, "run", "run.jsonl")
        banks = run._items_by_label(os.path.join(out, "base_items.json"), os.path.join(out, "comb_items.json"))
        rows = checks.read_rows(log)
        step = next(r for r in rows if r.get("kind") == "cat_step" and r["subset"] == "base")
        other = next(i["item_id"] for i in banks["base"] if i["item_id"] != step["item_id"])
        step["item_id"] = other
        broken = os.path.join(out, "run", "run_broken.jsonl")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows)
        problems = checks.check_cat_run(broken, os.path.join(out, "run", "report.json"), banks)
        self.assertTrue(any("most informative" in p for p in problems), problems)

    def test_items_scanned_counts_every_eligible_item(self):
        inputs, manifest = run.cached_inputs(ROOT, "pipeline", 5, "toy")
        work = os.path.join(ROOT, ".perfbench", "selftest", "traced")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        out, result = run.run_round(ROOT, work, "pipeline", inputs, manifest, 0, True)
        banks = run._items_by_label(os.path.join(out, "base_items.json"), os.path.join(out, "comb_items.json"))
        administered = {label: 0 for label in banks}
        expected = 0
        for step in checks.read_rows(os.path.join(out, "run", "run.jsonl")):
            if step.get("kind") == "cat_step":  # each pick scans the subset's not yet administered items
                expected += len(banks[step["subset"]]) - administered[step["subset"]]
                administered[step["subset"]] += 1
        self.assertGreater(expected, 0)
        self.assertEqual(result["layers"]["irt.items_scanned"], expected)

    def test_live_reply_scored_against_the_stub(self):
        inputs, out, manifest, result = self.live
        script = checks.load_json(os.path.join(inputs, "stub_script.json"))
        rows = run.live_rows(out)
        self.assertEqual(run.check_round("live", inputs, manifest, out, result), [])
        response = next(r for r in rows if r.get("kind") == "response")
        response["exact"] = not response["exact"]
        self.assertEqual(len(checks.check_live(rows, script)), 1)


if __name__ == "__main__":
    unittest.main()
