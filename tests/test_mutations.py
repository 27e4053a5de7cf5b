"""Mutation oracle for the files the pipeline reads back: question banks, traces, scores, corpus stats, item
banks, run logs, reports and endpoint configs.

A valid file gets one change: a field (at any depth) takes a value of another
JSON type or another value of its own (a number 0, negative or huge, an id
another record's id), a list of records becomes null or an object, or a line
is torn as a crash leaves it. The command that reads the file must then do
one of two things: parse it exactly as before (a field it does not read), or
end with exit status 1 and one ``error:`` line that names the file and, in a
JSONL file, the changed line. A value of the field's own type may also be one
the command accepts and reads differently. A repeated id may be found on the
later of its two lines, whose message then names the changed one. A number
changed in a CAT log may instead fail the replay check against the report's
``dual`` block, whose message names the report. An endpoint config that fails
does so before a request is sent. A byte replaced by one that UTF-8 never holds
fails naming the file and, in a JSONL file, the line.
"""

import io
import json
import os
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from combicat.bankio import save_atomic_bank
from combicat.cli import main
from combicat.synthesis import AtomicQuestion
from conftest import MockChatHandler, make_atomic_bank, make_trace_corpus, write_jsonl

# Each input under test: its file in the fixture directory, and the command that reads it. In
# the command, {input} is the changed copy, {dir} the fixture directory and {out} a scratch one.
READERS = {
    "atomic": ("atomic.json", ["calibrate", "--bank", "{input}", "--scores", "{dir}/scores.jsonl",
                               "--out", "{out}/items.json"]),
    "comb": ("comb.json", ["calibrate", "--bank", "{input}", "--scores", "{dir}/scores.jsonl",
                           "--out", "{out}/items.json"]),
    "traces": ("traces.jsonl", ["score-traces", "--traces", "{input}", "--out", "{out}/s.jsonl",
                                "--stats-out", "{out}/stats.json"]),
    "scores": ("scores.jsonl", ["calibrate", "--bank", "{dir}/atomic.json", "--scores", "{input}",
                                "--out", "{out}/items.json"]),
    "stats": ("stats.json", ["score-traces", "--traces", "{dir}/traces.jsonl", "--stats", "{input}",
                             "--out", "{out}/s.jsonl", "--stats-out", "{out}/stats-out.json"]),
    "items": ("base_items.json", ["evaluate", "--base-bank", "{dir}/atomic.json", "--base-items", "{input}",
                                  "--mode", "cat", "--simulator", "3pl:0.5", "--out", "{out}"]),
    "log": ("run/run.jsonl", ["report", "--log", "{input}", "--report", "{dir}/run/report.json"]),
    "report": ("run/report.json", ["report", "--log", "{dir}/run/run.jsonl", "--report", "{input}"]),
    "endpoint": ("endpoint.json", ["evaluate", "--base-bank", "{dir}/atomic.json", "--endpoint", "{input}",
                                   "--out", "{out}"]),
}

# One value of each JSON type; a field is changed to one of another type.
JSON_TYPES = (type(None), bool, (int, float), str, list, dict)
VALUES = [None, True, 0, 2.5, "", "x", [], ["A"], {}, {"k": 1}]
# What a list of records becomes.
NOT_A_LIST = [None, {}]


def json_type(value):
    return next(i for i, kind in enumerate(JSON_TYPES) if isinstance(value, kind))


def places(value, prefix=()):
    """The key and index paths of every value nested in ``value``."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from places(child, prefix + (key,))


class Inputs:
    """The fixture directory, and each reader's result on its unchanged file."""

    def __init__(self, root):
        self.root = root
        self.unchanged = {
            kind: run_reader(root, kind, (root / name).read_bytes()) for kind, (name, _) in READERS.items()
        }

    def __repr__(self):
        return f"Inputs({self.root})"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, mock_server):
    """A small pipeline's traces, scores, stats, item banks, CAT log and report, and an endpoint config."""
    root = tmp_path_factory.mktemp("inputs")
    endpoint = {"base_url": f"{mock_server}/echo", "model_name": "m", "api_key_env": "", "temperature": 0.0,
                "max_tokens": 64, "timeout_seconds": 10, "max_retries": 2}
    (root / "endpoint.json").write_text(json.dumps(endpoint, indent=2))
    # One Chinese question, whose trace is Chinese too, so that both oracles change and tear multi-byte text.
    questions = make_atomic_bank(6, seed=21)
    questions[2] = AtomicQuestion(
        id="zh1",
        context="以下哪项陈述成立？",
        options={"I": "甲队获胜", "II": "乙队获胜", "III": "丙队获胜", "IV": "丁队获胜"},
        answer=questions[2].answer,
        language="zh",
    )
    traces = make_trace_corpus(questions, seed=22)
    traces[2]["text"] = "甲队没有获胜，因此乙队获胜。\n" + traces[2]["text"]
    save_atomic_bank(str(root / "atomic.json"), questions)
    write_jsonl(root / "traces.jsonl", traces)
    steps = [
        ["score-traces", "--traces", "traces.jsonl", "--out", "scores.jsonl", "--stats-out", "stats.json"],
        ["synthesize", "--bank", "atomic.json", "--out", "comb.json", "--tier-split", "Easy:1,Hard:1,Expert:1"],
        ["calibrate", "--bank", "atomic.json", "--scores", "scores.jsonl", "--out", "base_items.json"],
        ["calibrate", "--bank", "comb.json", "--scores", "scores.jsonl", "--out", "comb_items.json"],
        ["evaluate", "--base-bank", "atomic.json", "--comb-bank", "comb.json", "--base-items", "base_items.json",
         "--comb-items", "comb_items.json", "--mode", "cat", "--simulator", "3pl:0.5,-0.5", "--out", "run"],
    ]
    with redirect_stdout(io.StringIO()):
        for argv in steps:
            assert main([str(root / arg) if arg.endswith((".json", ".jsonl", "run")) else arg for arg in argv]) == 0
    return Inputs(root)


def run_reader(root, kind, data):
    """The exit status, output, error output and written files of ``kind``'s command on the bytes ``data``."""
    name, argv = READERS[kind]
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    path = work / os.path.basename(name)
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(input=path, dir=root, out=work) for arg in argv])
    # A live log's latencies are the one thing that differs between two runs.
    written = {f.name: re.sub(rb'"latency_ms": \d+', b'"latency_ms": 0', f.read_bytes())
               for f in sorted(work.iterdir()) if f != path}
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_changed_or_torn_input_parses_the_same_or_fails_naming_where(inputs, data):
    root, unchanged = inputs.root, inputs.unchanged
    kind = data.draw(st.sampled_from(sorted(READERS)), label="input")
    name = READERS[kind][0]
    text = (root / name).read_text(encoding="utf-8")
    path = root / "work" / os.path.basename(name)
    tear = data.draw(st.booleans(), label="tear")
    in_type = False
    if name.endswith(".jsonl"):
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        if tear:
            lines[i] = lines[i][: data.draw(st.integers(1, len(lines[i]) - 1), label="cut")]
        else:
            row, in_type = changed(data, json.loads(lines[i]), [json.loads(line) for line in lines])
            lines[i] = json.dumps(row, ensure_ascii=False)
        # A torn last line has no newline, as a crash mid-write leaves it.
        text = "\n".join(lines) + ("" if tear and i == len(lines) - 1 else "\n")
        where = f"{path}:{i + 1}:"
        # A repeated id is found on the later of its two lines, and the message names the earlier one.
        repeat = re.compile(rf"error: {re.escape(str(path))}:\d+: .*\bline {i + 1}\b")
    else:
        if tear:
            text = text[: data.draw(st.integers(1, len(text.rstrip()) - 1), label="cut")]
        else:
            value, in_type = changed(data, json.loads(text), json.loads(text))
            text = json.dumps(value, indent=2)
        where = f"{path}:"
        repeat = None
    requests = len(MockChatHandler.posts)
    result = run_reader(root, kind, text.encode("utf-8"))
    code, _, err, _ = result
    same = result == unchanged[kind]
    # A value of the field's own type may be one the reader accepts, and then it may read it differently.
    accepted = same or (in_type and code == 0)
    event(f"{kind}: {'same parse' if same else 'accepted' if accepted else 'error'}")
    # A changed estimate in a CAT log is found by the replay check, which names the report.
    replayed = kind == "log" and in_type and err.startswith(f"error: {root}/run/report.json: replay mismatch: dual.")
    if not accepted:
        assert code == 1 and err.count("\n") == 1, (kind, result)
        named = err.startswith(f"error: {where}") or (in_type and repeat and repeat.match(err))
        assert named or replayed, (kind, result)
        assert len(MockChatHandler.posts) == requests, (kind, result)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_byte_that_is_not_utf8_fails_naming_the_file_and_line(inputs, data):
    """One byte of a valid input replaced by 0xff, which UTF-8 never holds: the reader fails naming the
    file, and in a JSONL file the line and the offset in it (the fixture's lines end at ``\\n``)."""
    root = inputs.root
    kind = data.draw(st.sampled_from(sorted(READERS)), label="input")
    name = READERS[kind][0]
    raw = (root / name).read_bytes()
    # Any byte, or as often a byte of a multi-byte character where the file has one.
    multi_byte = [j for j, byte in enumerate(raw) if byte >= 0x80]
    any_byte = st.integers(0, len(raw) - 1)
    i = data.draw(any_byte | st.sampled_from(multi_byte) if multi_byte else any_byte, label="byte")
    event(f"{kind}: {'an ASCII' if raw[i] < 0x80 else 'a multi-byte'} character's byte")
    path = root / "work" / os.path.basename(name)
    if name.endswith(".jsonl"):
        line = raw.count(b"\n", 0, i) + 1
        where, offset = f"{path}:{line}:", i - (raw.rfind(b"\n", 0, i) + 1)
    else:
        where, offset = f"{path}:", i
    requests = len(MockChatHandler.posts)
    code, _, err, _ = run_reader(root, kind, raw[:i] + b"\xff" + raw[i + 1 :])
    # A changed ASCII byte or first byte is the first bad one; a changed later byte of a multi-byte
    # character makes the decoder stop at that character's first byte.
    start = i
    while raw[start] & 0xC0 == 0x80:
        start -= 1
    bad, reason = (0xFF, "invalid start byte") if start == i else (raw[start], "invalid continuation byte")
    assert code == 1, (kind, err)
    assert err == f"error: {where} not UTF-8 (byte {bad:#04x} at offset {offset - (i - start)}: {reason})\n"
    assert len(MockChatHandler.posts) == requests, (kind, err)


def changed(data, value, whole):
    """``value`` with one nested field set to a value of another JSON type or to another value of its own
    type, or with one list of records set to null or an object; and whether the new value has the old
    one's type. An id may become the id of another record in ``whole``, the file's content."""
    all_places = list(places(value))
    record_lists = [place for place in all_places if _is_record_list(_at(value, place))]
    fields = st.tuples(st.sampled_from(all_places), st.just(False))
    if record_lists:
        fields = fields | fields | fields | st.tuples(st.sampled_from(record_lists), st.just(True))
    place, whole_list = data.draw(fields, label="field")
    old = _at(value, place)
    if whole_list:
        others = NOT_A_LIST
    else:
        others = [other for other in VALUES if json_type(other) != json_type(old)]
        if isinstance(old, (int, float)) and not isinstance(old, bool):
            others += [0, -1 - abs(old), 1e308]
        elif isinstance(old, str) and str(place[-1]).endswith("id"):
            ids = {_at(whole, p) for p in places(whole) if p[-1] == place[-1]}
            others += sorted({i for i in ids if isinstance(i, str)} - {old})
    new = data.draw(st.sampled_from(others), label="to")
    _at(value, place[:-1])[place[-1]] = new
    return value, json_type(new) == json_type(old)


def _at(value, place):
    for key in place:
        value = value[key]
    return value


def _is_record_list(value):
    return isinstance(value, list) and bool(value) and all(isinstance(item, dict) for item in value)
