#!/usr/bin/env python3
"""Run the whole offline pipeline on a generated demo bank.

Builds a synthetic atomic bank and trace corpus, hardens the bank, scores the
traces, calibrates both subsets, evaluates a simulated respondent pair in
adaptive mode, and replays the report from the log. Everything lands under
--out (default ./out/offline_demo).
"""

from __future__ import annotations

import argparse
import os
import sys

from combicat.bankio import load_json, save_atomic_bank, write_jsonl
from combicat.cli import main as combicat_main
from combicat.rng import PortableRng
from combicat.synthesis import AtomicQuestion

ANSWERS = ("I", "II", "III", "IV")

FILLER = "the stated conditions hold for the group under review without exception".split()


def demo_bank(n: int, seed: int) -> list[AtomicQuestion]:
    rng = PortableRng(seed)
    questions = []
    for i in range(n):
        questions.append(
            AtomicQuestion(
                id=f"demo{i:04d}",
                context=f"Case {i}: exactly one of the four claims is supported.",
                options={
                    "I": f"claim {i}-north holds",
                    "II": f"claim {i}-east holds",
                    "III": f"claim {i}-south holds",
                    "IV": f"claim {i}-west holds",
                },
                answer=ANSWERS[rng.below(4)],
                language="en",
                source="demo-generator",
                reasoning_type="propositional",
            )
        )
    return questions


def demo_trace(index: int, total: int, answer_letter: str, rng: PortableRng) -> str:
    fraction = index / max(1, total - 1)
    n_tokens = int(40 * (600 ** fraction))
    n_segments = max(1, int(1 + fraction * 200 * rng.random()))
    connectives = max(1, int(n_tokens * (0.01 + 0.04 * rng.random())))
    words: list[str] = []
    while len(words) < n_tokens - connectives:
        words.extend(FILLER)
    words = words[: n_tokens - connectives] + ["therefore"] * connectives
    if index % 4 == 0:
        words[:0] = ["However,", "wait;", "suppose", "not,", "then", "rule", "out", "the", "rest."]
    per = max(1, len(words) // n_segments)
    blocks = [" ".join(words[i : i + per]) for i in range(0, len(words), per)]
    return "\n\n".join(blocks) + f"\n{answer_letter}"


def run(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    atomic = os.path.join(args.out, "atomic.json")
    comb = os.path.join(args.out, "comb.json")
    traces = os.path.join(args.out, "traces.jsonl")
    scores = os.path.join(args.out, "scores.jsonl")
    base_items = os.path.join(args.out, "base_items.json")
    comb_items = os.path.join(args.out, "comb_items.json")
    run_dir = os.path.join(args.out, "run")

    questions = demo_bank(args.n_questions, args.seed)
    save_atomic_bank(atomic, questions)

    rng = PortableRng(args.seed + 1)
    rows = []
    for i, question in enumerate(questions):
        letter = "ABCD"[ANSWERS.index(question.answer)]
        rows.append({"question_id": question.id, "text": demo_trace(i, len(questions), letter, rng)})
    write_jsonl(traces, rows)

    steps = [
        ["synthesize", "--bank", atomic, "--out", comb,
         "--tier-split", "Medium:40,Hard:40,Expert:20", "--seed", str(args.seed)],
        ["score-traces", "--traces", traces, "--out", scores,
         "--stats-out", os.path.join(args.out, "stats.json")],
        ["calibrate", "--bank", atomic, "--scores", scores, "--out", base_items],
        ["calibrate", "--bank", comb, "--scores", scores, "--out", comb_items],
        ["evaluate", "--base-bank", atomic, "--comb-bank", comb,
         "--base-items", base_items, "--comb-items", comb_items,
         "--mode", "cat", "--simulator", f"3pl:{args.theta_base},{args.theta_comb}",
         "--seed", str(args.seed), "--out", run_dir],
        ["report", "--log", os.path.join(run_dir, "run.jsonl"),
         "--report", os.path.join(run_dir, "report.json")],
    ]
    for step in steps:
        print(f"\n$ combicat {' '.join(step)}")
        code = combicat_main(step)
        if code != 0:
            return code

    report = load_json(os.path.join(run_dir, "report.json"))
    dual = report["dual"]
    true_gap = args.theta_base - args.theta_comb
    print(f"\ntrue ability gap {true_gap:+.2f}, estimated {dual['delta_theta']:+.3f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/offline_demo")
    parser.add_argument("--n-questions", type=int, default=120)
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--theta-base", type=float, default=0.5)
    parser.add_argument("--theta-comb", type=float, default=-1.5)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
