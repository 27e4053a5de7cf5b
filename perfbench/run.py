#!/usr/bin/env python3
"""Benchmark for the combicat pipeline: one command, three workloads.

    python3 perfbench/run.py --workload {pipeline,harden,live} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from the seed (and cached under ``.perfbench/``) before
any measured process starts. Each round runs the workload once in a fresh
worker process (``worker.py``) with its own PYTHONHASHSEED; rounds repeat
until ``--seconds`` have passed, and at least three run. After each round,
``IMPORT_SAMPLES`` more fresh processes time the set-up alone. The first
round's outputs are checked for correctness (``checks.py``), later rounds
must reproduce its deterministic outputs byte for byte.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the medians of setup_s (over every set-up sample), wall_s and peak_rss_mb
(over rounds); with ``--trace 1`` they are the per-layer metrics of
``tracing.py``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("pipeline", "harden", "live")
MIN_ROUNDS = 3
LAST_ROUND_START_S = 120.0  # keeps a run well inside three minutes
ROUND_TIMEOUT_S = 150.0
GEN_VERSION = 3
KEEP_INPUTS = 12  # cached input sets per workload
IMPORT_SAMPLES = 2  # extra set-up samples per round
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def cached_inputs(root: str, workload: str, seed: int, size: str) -> tuple[str, dict]:
    base = os.path.join(root, ".perfbench", "inputs")
    path = os.path.join(base, f"{workload}-{size}-v{GEN_VERSION}-seed{seed}")
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        tmp = f"{path}.tmp{os.getpid()}"
        try:
            gen.generate(workload, tmp, seed, size, os.path.join(root, "src"))
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
        siblings = sorted(
            (os.path.join(base, d) for d in os.listdir(base) if d.startswith(f"{workload}-") and ".tmp" not in d),
            key=os.path.getmtime,
        )
        for old in siblings[:-KEEP_INPUTS]:
            shutil.rmtree(old, ignore_errors=True)
    return path, checks.load_json(manifest_path)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def start_stub(inputs: str) -> tuple[subprocess.Popen, int]:
    stub = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "stub.py"), "--inputs", inputs],
        stdout=subprocess.PIPE, text=True,
    )
    line = stub.stdout.readline()
    if not line.startswith("PORT "):
        stub.kill()
        stub.wait()
        raise BenchError("stub did not start")
    return stub, int(line.split()[1])


def stub_stats(port: int) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats", timeout=10) as response:
        return json.load(response)


def run_round(root: str, work: str, workload: str, inputs: str, manifest: dict, k: int, trace: bool) -> tuple[str, dict]:
    out = os.path.join(work, f"round{k}")
    os.makedirs(out)
    spec = {
        "workload": workload, "src": os.path.join(root, "src"), "inputs": inputs, "manifest": manifest,
        "out": out, "trace": trace, "result": os.path.join(out, "result.json"),
    }
    stub = None
    try:
        if workload == "live":
            stub, port = start_stub(inputs)
            spec["endpoint"] = os.path.join(out, "endpoint.json")
            with open(spec["endpoint"], "w", encoding="utf-8") as fh:
                json.dump({"base_url": f"http://127.0.0.1:{port}/v1/chat/completions", "model_name": "stub",
                           "timeout_seconds": 10, "max_retries": 2, "temperature": 0.0}, fh)
        spec_path = os.path.join(out, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, PYTHONHASHSEED=str(k + 1))
        stderr_path = os.path.join(out, "worker_stderr.txt")
        with open(stderr_path, "w", encoding="utf-8") as err:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=ROUND_TIMEOUT_S,
            )
        if proc.returncode != 0:
            with open(stderr_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
        result = checks.load_json(spec["result"])
        if stub is not None:
            result["stub"] = stub_stats(port)
        return out, result
    finally:
        if stub is not None:
            stub.terminate()
            stub.wait()
            stub.stdout.close()


def import_samples(root: str, k: int) -> list[float]:
    """Set-up times of ``IMPORT_SAMPLES`` fresh processes that only import combicat."""
    env = dict(os.environ, PYTHONHASHSEED=str(k + 1))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--import-only", os.path.join(root, "src")],
            cwd=root, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up sample exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout))
    return samples


# ---------------------------------------------------------------------------
# Operations, correctness and determinism per workload
# ---------------------------------------------------------------------------


def _items_by_label(*paths: str) -> dict[str, list[dict]]:
    base, comb = (checks.load_json(p)["items"] for p in paths)
    return {"base": base, "comb": comb}


def live_rows(out: str) -> list[dict]:
    return [row for mode in ("static", "cat") if os.path.exists(os.path.join(out, mode, "run.jsonl"))
            for row in checks.read_rows(os.path.join(out, mode, "run.jsonl"))]


def operations(workload: str, manifest: dict, out: str, result: dict) -> tuple[int, int]:
    """(attempted, failed) for one round; the operation is defined in README.md."""
    codes = result["codes"]
    if workload in ("pipeline", "harden"):
        steps = 6 if workload == "pipeline" else 2
        ok = len(codes) == steps and not any(codes)
        return manifest["questions"], 0 if ok else manifest["questions"]
    attempted = 3 * manifest["questions"] + 2 * manifest["max_items"]
    done = sum(1 for r in live_rows(out) if r.get("kind") == "response" and r["transport_status"] == "ok")
    return attempted, attempted - min(done, attempted)


def check_round(workload: str, inputs: str, manifest: dict, out: str, result: dict) -> list[str]:
    i = lambda name: os.path.join(inputs, name)  # noqa: E731
    o = lambda *names: os.path.join(out, *names)  # noqa: E731
    problems: list[str] = []
    if any(result["codes"]):
        problems.append(f"program exit codes {result['codes']}")
        return problems
    if workload == "pipeline":
        problems += checks.check_comb_bank(o("comb.json"), i("atomic.json"))
        problems += checks.check_scores(o("scores.jsonl"), i("expected_metrics.json"))
        scores = {r["question_id"]: r for r in checks.read_rows(o("scores.jsonl"))}
        features = {qid: {"gold_score": r["gold_score"], **r["metrics"]} for qid, r in scores.items()}
        base_q = {qid: {"tier": r["tier"], "n_options": 4} for qid, r in scores.items()}
        comb_q = {q["id"]: {"tier": q["tier"], "n_options": len(q["options"])}
                  for q in checks.load_json(o("comb.json"))["questions"]}
        problems += checks.check_items(o("base_items.json"), base_q, features)
        problems += checks.check_items(o("comb_items.json"), comb_q, features)
        problems += checks.check_cat_run(o("run", "run.jsonl"), o("run", "report.json"),
                                         _items_by_label(o("base_items.json"), o("comb_items.json")))
    elif workload == "harden":
        problems += checks.check_comb_bank(o("comb.json"), i("atomic.json"))
        atomic = checks.load_json(i("atomic.json"))["questions"]
        features = {q["id"]: q for q in atomic}
        comb_q = {q["id"]: {"tier": q["tier"], "n_options": len(q["options"])}
                  for q in checks.load_json(o("comb.json"))["questions"]}
        problems += checks.check_items(o("comb_items.json"), comb_q, features)
    else:
        script = checks.load_json(i("stub_script.json"))
        rows = live_rows(out)
        problems += checks.check_live(rows, script)
        problems += checks.check_cat_run(o("cat", "run.jsonl"), o("cat", "report.json"),
                                         _items_by_label(i("base_items.json"), i("comb_items.json")),
                                         max_items=manifest["max_items"], se_target=0.01)
        stats = result["stub"]
        scheduled = sum(1 for action in script["faults"].values() if action in ("429", "503"))
        responses = sum(1 for r in rows if r.get("kind") == "response")
        if stats["errors"] != scheduled or stats["requests"] != responses + scheduled:
            problems.append(f"stub saw {stats}, expected {responses} replies after {scheduled} faults")
    return problems


def output_digest(workload: str, out: str) -> str:
    """Digest of the round's outputs that must not depend on the hash seed."""
    names = {
        "pipeline": ["comb.json", "scores.jsonl", "base_items.json", "comb_items.json",
                     os.path.join("run", "run.jsonl"), os.path.join("run", "report.json")],
        "harden": ["comb.json", "comb_items.json"],
        "live": [],
    }[workload]
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    if workload == "live":  # latencies vary; everything else in the log must not
        for row in live_rows(out):
            row.pop("latency_ms", None)
            digest.update(json.dumps(row, sort_keys=True).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="combicat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full", help="toy is for the self-tests")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "combicat", "cli.py")):
        print("perfbench: run from a combicat checkout (src/combicat not found)", file=sys.stderr)
        return 2

    inputs, manifest = cached_inputs(root, args.workload, args.seed, args.size)
    work = os.path.join(root, ".perfbench", "runs", f"{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    try:
        rounds: list[dict] = []
        setups: list[float] = []
        problems: list[str] = []
        attempted = failed = 0
        reference = None
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if len(rounds) >= MIN_ROUNDS and (elapsed >= args.seconds or elapsed > LAST_ROUND_START_S):
                break
            k = len(rounds)
            out, result = run_round(root, work, args.workload, inputs, manifest, k, bool(args.trace))
            round_attempted, round_failed = operations(args.workload, manifest, out, result)
            attempted += round_attempted
            failed += round_failed
            digest = output_digest(args.workload, out) if not any(result["codes"]) else None
            if k == 0:
                try:
                    problems += check_round(args.workload, inputs, manifest, out, result)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:  # unreadable output
                    problems.append(f"check could not read the program's output: {exc!r}")
                reference = digest
            elif digest != reference:
                problems.append(f"round {k} (PYTHONHASHSEED={k + 1}) output differs from round 0")
            rounds.append(result)
            shutil.rmtree(out)
            if not args.trace:
                setups += [result["setup_s"], *import_samples(root, k)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    walls = [r["wall_s"] for r in rounds]
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} wall_s={[round(w, 4) for w in walls]} "
          f"setup_s={[round(t, 4) for t in setups]} problems={len(problems)}")
    if args.trace:
        metrics = tracing.median_metrics([r["layers"] for r in rounds])
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(setups),
                   **{name: statistics.median(r[name] for r in rounds) for name in ("wall_s", "peak_rss_mb")}}
        units = UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
