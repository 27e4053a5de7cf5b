"""Versioned file formats: question banks, item banks, traces, and JSONL logs."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .irt import ItemParams
from .scoring import ThinkingTrace
from .synthesis import AtomicQuestion, CombinatorialQuestion, verify

SCHEMA_VERSION = 1

T = TypeVar("T")


class BankFormatError(ValueError):
    """An input file is not valid JSON or does not match its expected schema."""


def _records(path: str, key: str) -> list:
    """The records of a versioned wrapper object or of a bare record array."""
    data = load_json(path)
    if isinstance(data, list):
        return data
    if not (isinstance(data, dict) and key in data):
        raise BankFormatError(f"{path}: expected a list or an object with {key!r}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise BankFormatError(f"{path}: schema_version {data.get('schema_version')!r} is not {SCHEMA_VERSION}")
    return list(data[key])


def parse_at(where: str, from_record: Callable[[Any], T], record: Any) -> T:
    """``from_record(record)``, with a missing key or a bad value reported at ``where``."""
    try:
        return from_record(record)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise BankFormatError(f"{where}: {detail}") from None


def load_object(path: str, from_dict: Callable[[Any], T]) -> T:
    """A file holding one JSON object (an endpoint config, corpus stats), read through ``from_dict``."""
    return parse_at(path, from_dict, load_json(path))


def _save(path: str, key: str, records: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, key: records}, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _verified(record: Any) -> CombinatorialQuestion:
    question = CombinatorialQuestion.from_record(record)
    violations = verify(question).violations
    if violations:
        raise BankFormatError(f"question {question.id!r}: " + "; ".join(f"{v.rule}: {v.message}" for v in violations))
    return question


def load_bank(path: str) -> list[AtomicQuestion] | list[CombinatorialQuestion]:
    """Every question of a bank file, parsed once.

    The first record decides the kind: one with an ``answer_set`` makes the
    bank combinatorial, and then every question must pass ``verify``.
    """
    records = _records(path, "questions")
    combinatorial = bool(records) and isinstance(records[0], dict) and "answer_set" in records[0]
    from_record = _verified if combinatorial else AtomicQuestion.from_record
    return [parse_at(f"{path}: record {i}", from_record, record) for i, record in enumerate(records)]


def _load_kind(path: str, cls: type, kind: str) -> list:
    questions = load_bank(path)
    if questions and not isinstance(questions[0], cls):
        raise BankFormatError(f"{path}: not {kind}")
    return questions


def load_atomic_bank(path: str) -> list[AtomicQuestion]:
    return _load_kind(path, AtomicQuestion, "an atomic bank")


def save_atomic_bank(path: str, questions: Sequence[AtomicQuestion]) -> None:
    _save(path, "questions", [q.to_record() for q in questions])


def load_comb_bank(path: str) -> list[CombinatorialQuestion]:
    return _load_kind(path, CombinatorialQuestion, "a combinatorial bank")


def save_comb_bank(path: str, questions: Sequence[CombinatorialQuestion]) -> None:
    _save(path, "questions", [q.to_record() for q in questions])


@dataclass(frozen=True)
class CalibratedItem:
    """One calibrated bank entry joining a question to its 3PL parameters."""

    item_id: str
    question_id: str
    subset: str
    tier: str
    a: float
    b: float
    c: float
    n_options: int

    def item_params(self) -> ItemParams:
        return ItemParams(item_id=self.item_id, a=self.a, b=self.b, c=self.c, subset=self.subset)

    def to_record(self) -> dict[str, Any]:
        return {
            "item_id": self.item_id,
            "question_id": self.question_id,
            "subset": self.subset,
            "tier": self.tier,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "n_options": self.n_options,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "CalibratedItem":
        return cls(
            item_id=str(record["item_id"]),
            question_id=str(record["question_id"]),
            subset=str(record["subset"]),
            tier=str(record["tier"]),
            a=float(record["a"]),
            b=float(record["b"]),
            c=float(record["c"]),
            n_options=int(record["n_options"]),
        )


def load_item_bank(path: str) -> list[CalibratedItem]:
    records = _records(path, "items")
    return [parse_at(f"{path}: record {i}", CalibratedItem.from_record, record) for i, record in enumerate(records)]


def save_item_bank(path: str, items: Sequence[CalibratedItem]) -> None:
    _save(path, "items", [i.to_record() for i in items])


def load_traces(path: str) -> list[ThinkingTrace]:
    """Traces arrive as JSONL rows of {question_id, text}, one row per question."""
    numbered = []
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if line.strip():
                numbered.append((line_number, parse_at(f"{path}:{line_number}", _trace_from_line, line)))
    check_unique_ids(path, ((line_number, trace.question_id) for line_number, trace in numbered))
    return [trace for _, trace in numbered]


def _trace_from_line(line: str) -> ThinkingTrace:
    row = json.loads(line)
    question_id = question_id_of(row)
    text = row.get("text", "")
    if not isinstance(text, str):
        raise ValueError(f"text must be a string, not {text!r}")
    return ThinkingTrace.from_text(question_id, text)


def question_id_of(row: Mapping[str, Any]) -> str:
    """The ``question_id`` of a trace or score row: a non-empty string, never coerced."""
    question_id = row["question_id"]
    if not isinstance(question_id, str) or not question_id:
        raise ValueError(f"question_id must be a non-empty string, not {question_id!r}")
    return question_id


def check_unique_ids(path: str, numbered_ids: Iterable[tuple[int, str]]) -> None:
    """Reject a question id that two lines of ``path`` share, naming both lines."""
    first_line: dict[str, int] = {}
    for line_number, question_id in numbered_ids:
        if question_id in first_line:
            raise BankFormatError(
                f"{path}:{line_number}: question_id {question_id!r} repeats line {first_line[question_id]}"
            )
        first_line[question_id] = line_number


def read_jsonl(path: str) -> tuple[list[tuple[int, dict[str, Any]]], int]:
    """Each row with its line number, plus the count of corrupt lines skipped.

    A row is a line holding a JSON object; a line holding invalid JSON or any
    other JSON value is corrupt.
    """
    rows: list[tuple[int, dict[str, Any]]] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            if isinstance(row, dict):
                rows.append((line_number, row))
            else:
                skipped += 1
    return rows, skipped


def write_jsonl(path: str, rows: Iterable[Mapping[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def save_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **payload}, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise BankFormatError(f"{path}: invalid JSON ({exc})") from None
