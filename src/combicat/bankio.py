"""Versioned file formats: question banks, item banks, traces, and JSONL logs."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NoReturn, Sequence, TypeVar

from .irt import ItemParams
from .scoring import ThinkingTrace
from .synthesis import AtomicQuestion, CombinatorialQuestion, finite, typed, verify

SCHEMA_VERSION = 2

T = TypeVar("T")


class BankFormatError(ValueError):
    """An input file is not valid JSON or does not match its expected schema."""


def _records(path: str, key: str) -> list:
    """The records of a versioned wrapper object."""
    data = load_json(path)
    _check_version(path, data)
    return parse_at(path, lambda wrapper: typed(key, wrapper[key], list, "a list"), data)


def _check_version(path: str, data: Any) -> None:
    """Reject a file that is not an object of a version up to this ``SCHEMA_VERSION``, the integer 1 or 2
    (so ``true`` is not 1). Version 1 differs only in layout and in keys that no reader reads."""
    version = data.get("schema_version") if isinstance(data, dict) else None
    if type(version) is not int or version not in (1, 2):
        raise BankFormatError(f"{path}: schema_version {version!r} is not 1 or 2")


def parse_at(where: str, from_record: Callable[[Any], T], record: Any) -> T:
    """``from_record(record)``, with a missing key or a bad value reported at ``where``."""
    try:
        return from_record(record)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise BankFormatError(f"{where}: {detail}") from None


def load_object(path: str, from_dict: Callable[[Any], T], versioned: bool = False) -> T:
    """A file holding one JSON object, read through ``from_dict``.

    A ``versioned`` file (corpus stats, a report), written by ``save_json``,
    must carry a version this reader reads; an endpoint config carries none.
    """
    data = load_json(path)
    if versioned:
        _check_version(path, data)
    return parse_at(path, from_dict, data)


def _save(path: str, key: str, records: Iterable[Any]) -> None:
    """Write ``{"schema_version": 2, key: [records]}``: the wrapper on the first line, then each record on
    its own line as ``json.dumps(record, ensure_ascii=False)``, encoded and written one at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"schema_version": {SCHEMA_VERSION}, {json.dumps(key)}: [')
        separator = "\n"
        for record in records:
            fh.write(separator + json.dumps(record, ensure_ascii=False))
            separator = ",\n"
        fh.write("\n]}\n")


def _verified(record: Any) -> CombinatorialQuestion:
    question = CombinatorialQuestion.from_record(record)
    violations = verify(question)
    if violations:
        raise BankFormatError(f"question {question.id!r}: " + "; ".join(f"{v.rule}: {v.message}" for v in violations))
    return question


def _unique(path: str, records: Sequence[Any], keys: Sequence[str]) -> None:
    """Reject the first record that repeats an earlier one's value of any of ``keys``."""
    first: dict[tuple[str, Any], int] = {}
    for i, record in enumerate(records):
        for key in keys:
            value = getattr(record, key)
            if (key, value) in first:
                raise BankFormatError(f"{path}: record {i}: {key} {value!r} repeats record {first[key, value]}")
            first[key, value] = i


def load_bank(path: str) -> list[AtomicQuestion] | list[CombinatorialQuestion]:
    """Every question of a bank file, parsed once; no two share an ``id``.

    The first record decides the kind: one with an ``answer_set`` makes the
    bank combinatorial, and then every question must pass ``verify``.
    """
    records = _records(path, "questions")
    combinatorial = bool(records) and isinstance(records[0], dict) and "answer_set" in records[0]
    from_record = _verified if combinatorial else AtomicQuestion.from_record
    questions = [parse_at(f"{path}: record {i}", from_record, record) for i, record in enumerate(records)]
    _unique(path, questions, ("id",))
    return questions


def _load_kind(path: str, cls: type, kind: str) -> list:
    questions = load_bank(path)
    if questions and not isinstance(questions[0], cls):
        raise BankFormatError(f"{path}: not {kind}")
    return questions


def load_atomic_bank(path: str) -> list[AtomicQuestion]:
    return _load_kind(path, AtomicQuestion, "an atomic bank")


def save_atomic_bank(path: str, questions: Sequence[AtomicQuestion]) -> None:
    _save(path, "questions", (q.to_record() for q in questions))


def load_comb_bank(path: str) -> list[CombinatorialQuestion]:
    return _load_kind(path, CombinatorialQuestion, "a combinatorial bank")


def save_comb_bank(path: str, questions: Sequence[CombinatorialQuestion]) -> None:
    _save(path, "questions", (q.to_record() for q in questions))


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
        """An item bank row; each field must already have its type, none is coerced, and the 3PL parameters
        must pass ``ItemParams``' range checks."""
        item = cls(
            item_id=typed("item_id", record["item_id"], str, "a string"),
            question_id=typed("question_id", record["question_id"], str, "a string"),
            subset=typed("subset", record["subset"], str, "a string"),
            tier=typed("tier", record["tier"], str, "a string"),
            a=finite("a", record["a"]),
            b=finite("b", record["b"]),
            c=finite("c", record["c"]),
            n_options=typed("n_options", record["n_options"], int, "an integer"),
        )
        item.item_params()
        return item


def load_item_bank(path: str) -> list[CalibratedItem]:
    """The items of an item bank file; no two share an ``item_id`` or a ``question_id``."""
    records = _records(path, "items")
    items = [parse_at(f"{path}: record {i}", CalibratedItem.from_record, record) for i, record in enumerate(records)]
    _unique(path, items, ("item_id", "question_id"))
    return items


def save_item_bank(path: str, items: Sequence[CalibratedItem]) -> None:
    _save(path, "items", (i.to_record() for i in items))


def load_traces(path: str) -> list[ThinkingTrace]:
    """Traces arrive as JSONL rows of {question_id, text}, one row per question."""
    return [parse_at(where, _trace_from_row, row) for where, row in question_rows(path).values()]


def _trace_from_row(row: Mapping[str, Any]) -> ThinkingTrace:
    return ThinkingTrace.from_text(row["question_id"], typed("text", row.get("text", ""), str, "a string"))


def question_id_of(row: Mapping[str, Any]) -> str:
    """The ``question_id`` of a trace, score or log row: a non-empty string, never coerced."""
    question_id = row["question_id"]
    if not isinstance(question_id, str) or not question_id:
        raise ValueError(f"question_id must be a non-empty string, not {question_id!r}")
    return question_id


def question_rows(path: str) -> dict[str, tuple[str, dict[str, Any]]]:
    """The rows of a trace or score file by ``question_id``, in file order, each with its ``<path>:<line>``.

    Every row names its question with ``question_id_of``, and no two lines name the same one.
    """
    rows: dict[str, tuple[str, dict[str, Any]]] = {}
    first_line: dict[str, int] = {}
    for line, row in read_jsonl(path):
        where = f"{path}:{line}"
        question_id = parse_at(where, question_id_of, row)
        if question_id in rows:
            raise BankFormatError(f"{where}: question_id {question_id!r} repeats line {first_line[question_id]}")
        rows[question_id] = where, row
        first_line[question_id] = line
    return rows


def read_jsonl(path: str) -> list[tuple[int, dict[str, Any]]]:
    """Each row of a JSONL file with its line number; blank lines are not rows.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, as in a file read as text (not at
    a raw U+2028 in a string, as ``str.splitlines`` would). Every other line
    must be UTF-8 holding one JSON object; one that is not, or is torn, fails
    as ``<path>:<line>: ...``.
    """
    rows = []
    number = 0
    with open(path, "rb") as fh:
        for chunk in fh:  # a binary file yields chunks that end at b"\n" only
            for line in chunk.removesuffix(b"\n").removesuffix(b"\r").split(b"\r"):
                number += 1
                row = parse_at(f"{path}:{number}", _json_object, line)
                if row is not None:
                    rows.append((number, row))
    return rows


def _json_object(line: bytes) -> dict[str, Any] | None:
    """The JSON object a line holds, or ``None`` for a blank line."""
    text = _utf8(line)
    if not text.strip():
        return None
    try:
        row = json.loads(text, parse_constant=_not_json)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(row, dict):
        raise ValueError(f"a row must be a JSON object, not {row!r}")
    return row


def write_jsonl(path: str, rows: Iterable[Mapping[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def save_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **payload}, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "rb") as fh:
        text = parse_at(path, _utf8, fh.read())
    return parse_at(path, _json_document, text)


def _json_document(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_not_json)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc})") from None


def _not_json(token: str) -> NoReturn:
    """``parse_constant`` for ``json.loads``, which would read ``NaN``, ``Infinity`` and ``-Infinity``."""
    raise ValueError(f"invalid JSON ({token} is not a JSON number)")


def _utf8(data: bytes) -> str:
    """``data`` decoded as UTF-8, or an error that gives the first bad byte and its offset (``json.loads``
    of the bytes would also read UTF-16 and UTF-32)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 (byte {data[exc.start]:#04x} at offset {exc.start}: {exc.reason})") from None
