"""The measured process: one round of one workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json
    python3 perfbench/worker.py --import-only SRC

SPEC names the workload, the checkout's ``src`` directory, the generated
inputs, an output directory and whether to trace. The worker imports
combicat (the set-up), runs the timed phase, and writes setup_s, wall_s,
cpu_s, peak_rss_mb and per-round facts to the result path in SPEC. The
program's own printing goes to a file. ``--import-only`` times the set-up
alone and prints its seconds.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _cli(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse errors
        return int(exc.code or 1)


# ---------------------------------------------------------------------------
# pipeline: the offline CLI chain
# ---------------------------------------------------------------------------


def pipeline_run(spec: dict) -> dict:
    from combicat import cli

    i, o, m = spec["inputs"], spec["out"], spec["manifest"]
    p = lambda *names: os.path.join(o, *names)  # noqa: E731
    atomic, traces = os.path.join(i, "atomic.json"), os.path.join(i, "traces.jsonl")
    steps = [
        ["synthesize", "--bank", atomic, "--out", p("comb.json"), "--tier-split", m["tier_split"],
         "--seed", str(m["seed"])],
        ["score-traces", "--traces", traces, "--out", p("scores.jsonl"), "--stats-out", p("stats.json")],
        ["calibrate", "--bank", atomic, "--scores", p("scores.jsonl"), "--out", p("base_items.json")],
        ["calibrate", "--bank", p("comb.json"), "--scores", p("scores.jsonl"), "--out", p("comb_items.json")],
        ["evaluate", "--base-bank", atomic, "--comb-bank", p("comb.json"), "--base-items", p("base_items.json"),
         "--comb-items", p("comb_items.json"), "--mode", "cat",
         "--simulator", f"3pl:{m['theta_base']},{m['theta_comb']}", "--seed", str(m["seed"]), "--out", p("run")],
        ["report", "--log", p("run", "run.jsonl"), "--report", p("run", "report.json")],
    ]
    codes = []
    for argv in steps:
        codes.append(_cli(cli, argv))
        if codes[-1] != 0:
            break
    return {"codes": codes}


# ---------------------------------------------------------------------------
# harden: synthesize a large bank, then calibrate (re-parse) it
# ---------------------------------------------------------------------------


def harden_run(spec: dict) -> dict:
    from combicat import cli

    i, o, m = spec["inputs"], spec["out"], spec["manifest"]
    comb = os.path.join(o, "comb.json")
    codes = [_cli(cli, ["synthesize", "--bank", os.path.join(i, "atomic.json"), "--out", comb,
                        "--tier-split", m["tier_split"], "--seed", str(m["seed"])])]
    if codes[0] == 0:
        codes.append(_cli(cli, ["calibrate", "--bank", comb, "--out", os.path.join(o, "comb_items.json")]))
    return {"codes": codes}


# ---------------------------------------------------------------------------
# live: evaluate --endpoint against the localhost stub, static then CAT
# ---------------------------------------------------------------------------


def live_run(spec: dict) -> dict:
    from combicat import cli

    i, o, m = spec["inputs"], spec["out"], spec["manifest"]
    seed = str(m["seed"])
    codes = [
        _cli(cli, ["evaluate", "--base-bank", os.path.join(i, "atomic_static.json"),
                   "--base-items", os.path.join(i, "base_items.json"), "--mode", "static",
                   "--endpoint", spec["endpoint"], "--baseline", "nota,shuffle", "--seed", seed,
                   "--out", os.path.join(o, "static")]),
        _cli(cli, ["evaluate", "--base-bank", os.path.join(i, "atomic.json"),
                   "--comb-bank", os.path.join(i, "comb.json"),
                   "--base-items", os.path.join(i, "base_items.json"),
                   "--comb-items", os.path.join(i, "comb_items.json"), "--mode", "cat",
                   # An SE target no session reaches: every seed sends the same number of requests.
                   "--endpoint", spec["endpoint"], "--max-items", str(m["max_items"]), "--se-target", "0.01",
                   "--seed", seed, "--out", os.path.join(o, "cat")]),
    ]
    return {"codes": codes}


WORKLOADS = {"pipeline": pipeline_run, "harden": harden_run, "live": live_run}


def import_program(src: str) -> float:
    """The set-up of every workload: importing combicat. Returns its seconds."""
    started = time.perf_counter()
    sys.path.insert(0, src)
    import combicat.cli  # noqa: F401

    return time.perf_counter() - started


def main() -> int:
    if sys.argv[1] == "--import-only":  # one more set-up sample, in a fresh process
        print(json.dumps(import_program(sys.argv[2])))
        return 0
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    run = WORKLOADS[spec["workload"]]

    with open(os.path.join(spec["out"], "program_output.txt"), "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink):
        setup_s = import_program(spec["src"])
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        facts = run(spec)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **facts,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(cpu_s)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
