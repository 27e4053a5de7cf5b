"""Shared fixture builders: synthetic atomic banks and trace corpora."""

from __future__ import annotations

import json

import pytest

from combicat.harness import PromptTask, ResponderReply
from combicat.rng import PortableRng
from combicat.synthesis import AtomicQuestion

ANSWER_LABELS = ("I", "II", "III", "IV")

# Plain filler vocabulary, free of any lexicon markers, so metric counts in
# generated traces stay controlled.
_FILLER = (
    "premise holds across the stated scenario without further qualification".split()
)


def make_atomic_question(index: int, answer: str | None = None) -> AtomicQuestion:
    answer = answer or ANSWER_LABELS[index % 4]
    return AtomicQuestion(
        id=f"q{index:04d}",
        context=f"Scenario {index}: exactly one of the four claims holds.",
        options={
            "I": f"claim {index}-a holds",
            "II": f"claim {index}-b holds",
            "III": f"claim {index}-c holds",
            "IV": f"claim {index}-d holds",
        },
        answer=answer,
        language="en",
        source="synthetic",
        reasoning_type="propositional",
    )


def make_atomic_bank(n: int, seed: int = 123) -> list[AtomicQuestion]:
    rng = PortableRng(seed)
    return [make_atomic_question(i, ANSWER_LABELS[rng.below(4)]) for i in range(n)]


def make_trace_text(
    index: int,
    total: int,
    final_letter: str,
    rng: PortableRng,
) -> str:
    """Deterministic trace whose size features sweep a wide difficulty range.

    Token counts are log-spaced across the corpus and segment counts grow with
    length, so calibrated difficulties spread over roughly [-3, +2].
    """
    fraction = index / max(1, total - 1)
    n_tokens = int(30 * (1000 ** fraction))  # 30 .. 30000, log-spaced
    n_segments = max(1, int(1 + fraction * 299 * rng.random()))
    connectives = max(1, int(n_tokens * (0.01 + 0.03 * rng.random())))

    words: list[str] = []
    while len(words) < n_tokens - connectives:
        words.extend(_FILLER)
    words = words[: n_tokens - connectives]
    words.extend(["therefore"] * connectives)

    # A few reversal/hypothesis markers on some traces for metric variety.
    if index % 3 == 0:
        words[:0] = ["However,", "wait."]
    if index % 5 == 0:
        words[:0] = ["Suppose", "this;", "rule", "out", "the", "rest."]

    per_segment = max(1, len(words) // n_segments)
    segments = [
        " ".join(words[i : i + per_segment]) for i in range(0, len(words), per_segment)
    ]
    return "\n\n".join(segments) + f"\n{final_letter}"


def make_trace_corpus(questions: list[AtomicQuestion], seed: int = 321) -> list[dict]:
    rng = PortableRng(seed)
    rows = []
    for i, question in enumerate(questions):
        final = "ABCD"[ANSWER_LABELS.index(question.answer)]
        rows.append(
            {
                "question_id": question.id,
                "text": make_trace_text(i, len(questions), final, rng),
            }
        )
    return rows


class ScriptedResponder:
    """Replays canned raw texts keyed by question id."""

    def __init__(self, responses: dict[str, str]) -> None:
        self._responses = dict(responses)

    def respond(self, task: PromptTask) -> ResponderReply:
        return ResponderReply(self._responses.get(task.question_id, ""))


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


@pytest.fixture
def small_bank() -> list[AtomicQuestion]:
    return make_atomic_bank(12, seed=5)
