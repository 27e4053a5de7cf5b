"""Mutation oracle for the files the pipeline reads back: question banks, traces, scores, corpus stats, item
banks, run logs and reports.

A valid file gets one change: a field (at any depth) takes a value of another
JSON type, or a line is torn as a crash leaves it. The command that reads the
file must then do one of two things: parse it exactly as before (a field it
does not read), or end with exit status 1 and one ``error:`` line that names
the file and, in a JSONL file, the changed line.
"""

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from combicat.bankio import save_atomic_bank
from combicat.cli import main
from conftest import make_atomic_bank, make_trace_corpus, write_jsonl

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
}

# One value of each JSON type; a field is changed to one of another type.
JSON_TYPES = (type(None), bool, (int, float), str, list, dict)
VALUES = [None, True, 0, 2.5, "", "x", [], ["A"], {}, {"k": 1}]


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
            kind: run_reader(root, kind, (root / name).read_text()) for kind, (name, _) in READERS.items()
        }

    def __repr__(self):
        return f"Inputs({self.root})"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small pipeline's traces, scores, stats, item banks, CAT log and report."""
    root = tmp_path_factory.mktemp("inputs")
    questions = make_atomic_bank(6, seed=21)
    save_atomic_bank(str(root / "atomic.json"), questions)
    write_jsonl(root / "traces.jsonl", make_trace_corpus(questions, seed=22))
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


def run_reader(root, kind, text):
    """The exit status, output, error output and written files of ``kind``'s command on ``text``."""
    name, argv = READERS[kind]
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    path = work / os.path.basename(name)
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(input=path, dir=root, out=work) for arg in argv])
    written = {f.name: f.read_bytes() for f in sorted(work.iterdir()) if f != path}
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_changed_or_torn_input_parses_the_same_or_fails_naming_where(inputs, data):
    root, unchanged = inputs.root, inputs.unchanged
    kind = data.draw(st.sampled_from(sorted(READERS)), label="input")
    name = READERS[kind][0]
    text = (root / name).read_text(encoding="utf-8")
    path = root / "work" / os.path.basename(name)
    tear = data.draw(st.booleans(), label="tear")
    if name.endswith(".jsonl"):
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        if tear:
            lines[i] = lines[i][: data.draw(st.integers(1, len(lines[i]) - 1), label="cut")]
        else:
            row = json.loads(lines[i])
            lines[i] = json.dumps(changed(data, row), ensure_ascii=False)
        # A torn last line has no newline, as a crash mid-write leaves it.
        text = "\n".join(lines) + ("" if tear and i == len(lines) - 1 else "\n")
        where = f"{path}:{i + 1}:"
    else:
        if tear:
            text = text[: data.draw(st.integers(1, len(text.rstrip()) - 1), label="cut")]
        else:
            text = json.dumps(changed(data, json.loads(text)), indent=2)
        where = f"{path}:"
    result = run_reader(root, kind, text)
    same = result == unchanged[kind]
    event(f"{kind}: {'same parse' if same else 'error'}")
    if not same:
        code, _, err, _ = result
        assert code == 1 and err.startswith(f"error: {where}") and err.count("\n") == 1, (kind, result)


def changed(data, value):
    """``value`` with one nested field set to a value of another JSON type."""
    place = data.draw(st.sampled_from(list(places(value))), label="field")
    parent = value
    for key in place[:-1]:
        parent = parent[key]
    others = [other for other in VALUES if json_type(other) != json_type(parent[place[-1]])]
    parent[place[-1]] = data.draw(st.sampled_from(others), label="to")
    return value
