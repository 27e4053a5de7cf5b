"""File format round-trips and tolerant readers."""

import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combicat.bankio import (
    BankFormatError,
    CalibratedItem,
    load_atomic_bank,
    load_bank,
    load_comb_bank,
    load_item_bank,
    load_json,
    load_traces,
    read_jsonl,
    save_atomic_bank,
    save_comb_bank,
    save_item_bank,
    write_jsonl,
)
from combicat.synthesis import assemble, tier_config
from conftest import make_atomic_bank, make_atomic_question
from oracle import reference_read_jsonl, reference_save


def test_atomic_bank_round_trip(tmp_path):
    questions = make_atomic_bank(5, seed=1)
    path = tmp_path / "bank.json"
    save_atomic_bank(str(path), questions)
    assert load_atomic_bank(str(path)) == questions
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1


def test_bare_array_accepted(tmp_path):
    questions = make_atomic_bank(3, seed=2)
    path = tmp_path / "bare.json"
    path.write_text(json.dumps([q.to_record() for q in questions]))
    assert load_atomic_bank(str(path)) == questions


def test_comb_bank_round_trip(tmp_path):
    combinatorial = [
        assemble(make_atomic_question(i), tier_config("Hard"), i) for i in range(4)
    ]
    path = tmp_path / "comb.json"
    save_comb_bank(str(path), combinatorial)
    assert load_comb_bank(str(path)) == combinatorial


def test_load_bank_takes_kind_from_first_record(tmp_path):
    atomic_path = tmp_path / "a.json"
    atomic = make_atomic_bank(2, seed=3)
    save_atomic_bank(str(atomic_path), atomic)
    assert load_bank(str(atomic_path)) == atomic
    comb_path = tmp_path / "c.json"
    combinatorial = [assemble(make_atomic_question(0), tier_config("Medium"), 1)]
    save_comb_bank(str(comb_path), combinatorial)
    assert load_bank(str(comb_path)) == combinatorial
    empty = tmp_path / "e.json"
    empty.write_text("[]")
    assert load_bank(str(empty)) == []


def test_bank_of_the_wrong_kind_rejected(tmp_path):
    atomic_path = tmp_path / "a.json"
    save_atomic_bank(str(atomic_path), make_atomic_bank(2, seed=3))
    comb_path = tmp_path / "c.json"
    save_comb_bank(str(comb_path), [assemble(make_atomic_question(0), tier_config("Medium"), 1)])
    with pytest.raises(BankFormatError, match=f"{comb_path}: not an atomic bank"):
        load_atomic_bank(str(comb_path))
    with pytest.raises(BankFormatError, match=f"{atomic_path}: not a combinatorial bank"):
        load_comb_bank(str(atomic_path))


def test_comb_bank_is_verified_on_read(tmp_path):
    question = assemble(make_atomic_question(0), tier_config("Hard"), 4)
    record = question.to_record()
    distractor = next(letter for letter in question.letters() if letter not in question.answer_set)
    record["answer_set"].append(distractor)
    path = tmp_path / "comb.json"
    path.write_text(json.dumps({"schema_version": 1, "questions": [record]}))
    with pytest.raises(BankFormatError) as exc_info:
        load_comb_bank(str(path))
    message = str(exc_info.value)
    assert message.startswith(f"{path}: record 0: question {question.id!r}: ")
    assert f"truth-mismatch: option {distractor} evaluates False but is labelled correct" in message


@pytest.mark.parametrize(
    "kind, key, value, message",
    [
        ("comb", "answer_set", "CDF", "answer_set must be a list of strings, not 'CDF'"),
        ("comb", "seed", True, "seed must be an integer, not True"),
        ("comb", "context", None, "context must be a string, not None"),
        ("comb", "statements", ["a", "b", "c"], "statements must be a list of 4 strings, not ['a', 'b', 'c']"),
        ("comb", "tier", 3, "tier must be a string, not 3"),
        ("atomic", "id", 5, "id must be a string, not 5"),
        ("atomic", "context", None, "context must be a string, not None"),
        ("atomic", "options", [["I", "a"]], "options must be an object, not [['I', 'a']]"),
        ("atomic", "options", {"I": 1, "II": "b", "III": "c", "IV": "d"}, "option I must be a string, not 1"),
        ("atomic", "id", "q0000", "id 'q0000' repeats record 0"),
        ("comb", "id", f"q0000::Hard::{4:016x}", f"id 'q0000::Hard::{4:016x}' repeats record 0"),
    ],
    ids=[
        "letter-string-answer-set", "bool-seed", "null-context", "three-statements", "int-tier",
        "int-id", "null-atomic-context", "pair-list-options", "int-option-text", "repeated-id", "repeated-comb-id",
    ],
)
def test_bank_field_of_another_type_names_the_record(tmp_path, kind, key, value, message):
    if kind == "comb":
        questions = [assemble(make_atomic_question(i), tier_config("Hard"), 4) for i in range(2)]
    else:
        questions = make_atomic_bank(2, seed=3)
    records = [question.to_record() for question in questions]
    records[1][key] = value
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"schema_version": 1, "questions": records}))
    with pytest.raises(BankFormatError) as exc_info:
        load_bank(str(path))
    assert str(exc_info.value) == f"{path}: record 1: {message}"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("letter", 5, "letter must be a string, not 5"),
        ("formula", 3, "formula must be a string, not 3"),
        ("text", None, "text must be a string, not None"),
    ],
)
def test_option_field_of_another_type_names_the_record(tmp_path, key, value, message):
    records = [assemble(make_atomic_question(i), tier_config("Hard"), 4).to_record() for i in range(2)]
    records[1]["options"][2][key] = value
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"schema_version": 1, "questions": records}))
    with pytest.raises(BankFormatError) as exc_info:
        load_bank(str(path))
    assert str(exc_info.value) == f"{path}: record 1: {message}"


def test_other_schema_version_rejected(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"schema_version": 2, "questions": []}))
    with pytest.raises(BankFormatError, match="schema_version 2 is not 1"):
        load_atomic_bank(str(path))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_schema_version_is_the_integer_one(tmp_path, version):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"schema_version": version, "questions": []}))
    with pytest.raises(BankFormatError) as exc_info:
        load_atomic_bank(str(path))
    assert str(exc_info.value) == f"{path}: schema_version {version!r} is not 1"


@pytest.mark.parametrize("records", [None, {}, "q1", 3], ids=["null", "object", "string", "number"])
def test_records_that_are_not_a_list_rejected_naming_file(tmp_path, records):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"schema_version": 1, "questions": records}))
    with pytest.raises(BankFormatError) as exc_info:
        load_atomic_bank(str(path))
    assert str(exc_info.value) == f"{path}: questions must be a list, not {records!r}"


def test_item_record_without_a_key_names_file_and_key(tmp_path):
    path = tmp_path / "items.json"
    save_item_bank(str(path), [CalibratedItem("Base:q1", "q1", "Base", "Hard", 1.6, -0.5, 0.25, 4)])
    data = json.loads(path.read_text())
    del data["items"][0]["b"]
    path.write_text(json.dumps(data))
    with pytest.raises(BankFormatError, match=f"{path}: record 0: missing key 'b'"):
        load_item_bank(str(path))


def test_malformed_bank_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"something": 1}')
    with pytest.raises(BankFormatError):
        load_atomic_bank(str(path))


def test_item_bank_round_trip(tmp_path):
    items = [
        CalibratedItem("Base:q1", "q1", "Base", "Hard", 1.6, -0.5, 0.25, 4),
        CalibratedItem("Combinatorial:q2", "q2", "Combinatorial", "Expert", 2.0, 0.3, 1 / 6, 6),
    ]
    path = tmp_path / "items.json"
    save_item_bank(str(path), items)
    restored = load_item_bank(str(path))
    assert restored == items
    params = restored[0].item_params()
    assert params.subset == "Base" and params.a == 1.6


@pytest.mark.parametrize(
    "line, message",
    [
        ("not json", "invalid JSON (Expecting value)"),
        ("42", "a row must be a JSON object, not 42"),
        ('["c"]', "a row must be a JSON object, not ['c']"),
        ("null", "a row must be a JSON object, not None"),
        ('{"b": ', "invalid JSON (Expecting value)"),
    ],
    ids=["not-json", "number", "array", "null", "torn"],
)
def test_read_jsonl_names_each_corrupt_line(tmp_path, line, message):
    """Invalid JSON and JSON values other than objects fail at their line; blank lines are not rows."""
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n\n' + line + '\n{"b": 2}\n')
    with pytest.raises(BankFormatError) as caught:
        read_jsonl(str(path))
    assert str(caught.value) == f"{path}:3: {message}"


# Rows whose strings hold, raw, breaks that str.splitlines ends a line at and text mode does not.
LINES = [json.dumps(row, ensure_ascii=False) for row in ({"a": 1}, {"t": "x\u2028y"}, {"t": "\u0085\u2029中文"})]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["", " ", *LINES]), st.sampled_from(["\n", "\r\n", "\r"]))),
    st.booleans(),
)
def test_read_jsonl_ends_lines_as_text_mode_does(lines, last_ended):
    """Lines end at ``\\n``, ``\\r\\n`` and ``\\r`` only, with the text-mode reader's line numbers."""
    text = "".join(line + end for line, end in lines)
    if lines and not last_ended:
        text = text[: -len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.jsonl")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        assert read_jsonl(path) == reference_read_jsonl(path)


@pytest.mark.parametrize(
    "data, where, detail",
    [
        (b'{"a": 1}\r\n\n{"t": "\xff"}\n', ":3", "byte 0xff at offset 7: invalid start byte"),
        (b'{"a": 1}\r{"t": "\xe4\xb8"}', ":2", "byte 0xe4 at offset 7: invalid continuation byte"),
        (b'{"a": 1}\n{"t": "\xe4\xb8', ":2", "byte 0xe4 at offset 7: unexpected end of data"),
    ],
    ids=["bad-byte", "cut-character", "cut-at-end"],
)
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, data, where, detail):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(data)
    with pytest.raises(BankFormatError) as caught:
        read_jsonl(str(path))
    assert str(caught.value) == f"{path}{where}: not UTF-8 ({detail})"
    path.write_bytes(data)  # a JSON file is decoded whole, before it is parsed
    with pytest.raises(BankFormatError) as caught:
        load_json(str(path))
    assert str(caught.value).startswith(f"{path}: not UTF-8 (byte ")


def test_json_file_in_another_encoding_rejected(tmp_path):
    """``json.loads`` would read these bytes as UTF-16; a bank is UTF-8."""
    path = tmp_path / "bank.json"
    path.write_bytes('{"questions": []}'.encode("utf-16"))
    with pytest.raises(BankFormatError) as caught:
        load_json(str(path))
    assert str(caught.value) == f"{path}: not UTF-8 (byte 0xff at offset 0: invalid start byte)"


def test_write_jsonl_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"x": 1}, {"y": [1, 2]}]
    write_jsonl(str(path), rows)
    assert read_jsonl(str(path)) == list(enumerate(rows, start=1))


def test_traces_loader(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text('{"question_id": "q1", "text": "one two three"}\n')
    traces = load_traces(str(path))
    assert traces[0].question_id == "q1"
    assert traces[0].token_count == 3


def test_traces_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text("oops\n")
    with pytest.raises(BankFormatError):
        load_traces(str(path))


def test_trace_row_without_question_id_names_file_and_line(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text('{"question_id": "q1", "text": "a b"}\n{"text": "no id"}\n')
    with pytest.raises(BankFormatError, match=f"{path}:2: missing key 'question_id'"):
        load_traces(str(path))


# Strings json must escape (quotes, backslashes, control characters) or may
# keep (non-ASCII, U+2028 and U+2029, which ensure_ascii=False writes raw).
JSON_TEXT = st.one_of(
    st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\r", "\u2028", "\u2029",
                             "é", "陈", "😀", "a", " ", "/"]), max_size=8),
    st.text(max_size=8),
)
FLOATS = st.one_of(st.floats(), st.sampled_from([1e-07, -0.0, 0.0, 1e16, 2.0, -3.0, 1e300, 5e-324, 0.1]))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(min_value=-(2**80), max_value=2**80), FLOATS, JSON_TEXT)
# json turns keys that are numbers, booleans or None into strings; the writer must too.
KEYS = st.one_of(JSON_TEXT, st.integers(), st.booleans(), st.none(), FLOATS)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=3),
        st.dictionaries(KEYS, inner, max_size=3),
    ),
    max_leaves=10,
)
EXTRAS = st.dictionaries(st.one_of(JSON_TEXT, KEYS), VALUES, max_size=4)

COMB_BASES = [assemble(make_atomic_question(i, answer), tier_config(tier), i) for i, (answer, tier) in
              enumerate([("I", "Easy"), ("II", "Medium"), ("III", "Hard"), ("IV", "Expert")])]


def _same_bytes(save, key, rows, records):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = os.path.join(tmp, "ours.json"), os.path.join(tmp, "theirs.json")
        save(ours, rows)
        reference_save(theirs, key, records)
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()


@given(st.lists(st.tuples(st.sampled_from(COMB_BASES), EXTRAS), max_size=3))
@settings(max_examples=300, deadline=None)
def test_comb_bank_bytes_match_json_dump(drawn):
    """The hand-laid writer against ``json.dump(..., indent=2)``, the empty bank included."""
    questions = [replace(question, extras=extras) for question, extras in drawn]
    _same_bytes(save_comb_bank, "questions", questions, [q.to_record() for q in questions])


@given(st.lists(st.tuples(st.integers(0, 50), EXTRAS), max_size=3))
@settings(max_examples=100, deadline=None)
def test_atomic_bank_bytes_match_json_dump(drawn):
    questions = [replace(make_atomic_question(i), extras=extras) for i, extras in drawn]
    _same_bytes(save_atomic_bank, "questions", questions, [q.to_record() for q in questions])


ITEMS = st.builds(
    CalibratedItem,
    item_id=JSON_TEXT, question_id=JSON_TEXT, subset=JSON_TEXT, tier=JSON_TEXT,
    a=FLOATS, b=FLOATS, c=FLOATS, n_options=st.integers(min_value=-(2**70), max_value=2**70),
)


@given(st.lists(ITEMS, max_size=4))
@settings(max_examples=200, deadline=None)
def test_item_bank_bytes_match_json_dump(items):
    _same_bytes(save_item_bank, "items", items, [item.to_record() for item in items])
