"""End-to-end subcommand behavior on temporary working directories."""

import argparse
import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import combicat
from combicat.bankio import (
    SCHEMA_VERSION,
    CalibratedItem,
    load_comb_bank,
    load_item_bank,
    load_json,
    read_jsonl,
    save_atomic_bank,
    save_item_bank,
    save_json,
)
from combicat.cli import build_parser, main
from combicat.harness import EvalBanks, PromptTask, ResponderReply, log_dual, read_run, run_benchmark, run_record
from combicat.irt import CatSession, ItemParams
from combicat.scoring import SCORED_METRICS
from combicat.synthesis import NOTA_TEXT, verify
from conftest import ScriptedResponder, make_atomic_bank, make_trace_corpus, write_jsonl


@pytest.fixture
def bank_file(tmp_path):
    questions = make_atomic_bank(16, seed=9)
    path = tmp_path / "atomic.json"
    save_atomic_bank(str(path), questions)
    return path, questions


class TestSynthesize:
    def test_outputs_verified_and_deterministic(self, tmp_path, bank_file, capsys):
        bank_path, _ = bank_file
        out_a = tmp_path / "comb_a.json"
        out_b = tmp_path / "comb_b.json"
        for out in (out_a, out_b):
            code = main(
                [
                    "synthesize",
                    "--bank", str(bank_path),
                    "--out", str(out),
                    "--tier-split", "Expert:1",
                    "--seed", "11",
                ]
            )
            assert code == 0
        assert out_a.read_text() == out_b.read_text()
        questions = load_comb_bank(str(out_a))
        assert len(questions) == 16
        assert all(q.tier == "Expert" and not verify(q) for q in questions)
        assert "regenerations" in capsys.readouterr().out

    def test_tier_split_reports_distribution(self, tmp_path, bank_file, capsys):
        bank_path, _ = bank_file
        out = tmp_path / "comb.json"
        code = main(
            [
                "synthesize",
                "--bank", str(bank_path),
                "--out", str(out),
                "--tier-split", "Easy:20,Medium:40,Hard:30,Expert:10",
                "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "synthesized 16 questions" in output
        tiers = {q.tier for q in load_comb_bank(str(out))}
        assert tiers <= {"Easy", "Medium", "Hard", "Expert"}

    def test_unknown_tier_fails(self, tmp_path, bank_file, capsys):
        """``--tier`` is gone, and is not read as an abbreviation of ``--tier-split``; a tier comes from the split."""
        bank_path, _ = bank_file
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc_info:
            main(["synthesize", "--bank", str(bank_path), "--out", str(out), "--tier", "Expert"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --tier Expert" in capsys.readouterr().err
        assert main(["synthesize", "--bank", str(bank_path), "--out", str(out), "--tier-split", "Impossible:1"]) == 1
        assert capsys.readouterr().err == "error: --tier-split names an unknown tier 'Impossible'\n"
        assert not out.exists()

    def test_default_split_puts_every_question_in_hard(self, tmp_path, bank_file):
        bank_path, _ = bank_file
        default, hard = tmp_path / "default.json", tmp_path / "hard.json"
        assert main(["synthesize", "--bank", str(bank_path), "--out", str(default), "--seed", "4"]) == 0
        assert main(["synthesize", "--bank", str(bank_path), "--out", str(hard), "--seed", "4",
                     "--tier-split", "Hard:1"]) == 0
        assert default.read_bytes() == hard.read_bytes()
        assert {q.tier for q in load_comb_bank(str(default))} == {"Hard"}

    def test_bad_tier_split_fails(self, tmp_path, bank_file, capsys):
        """Each weight must be a finite number at least 0, and their sum finite and positive."""
        bank_path, _ = bank_file
        out = tmp_path / "comb.json"
        for split, message in [
            ("Foo:1", "--tier-split names an unknown tier 'Foo'"),
            ("Easy:inf,Hard:1", "--tier-split weight of Easy must be a finite number, not 'inf'"),
            ("Easy:nan,Hard:1", "--tier-split weight of Easy must be a finite number, not 'nan'"),
            ("Easy:1e308,Hard:1e308", "--tier-split weights must have a finite, positive sum"),
            ("Easy:0,Hard:0", "--tier-split weights must have a finite, positive sum"),
            ("Easy:-1,Hard:2", "--tier-split weight of Easy must be at least 0, not '-1'"),
            ("Easy:abc", "--tier-split weight of Easy must be a finite number, not 'abc'"),
            ("Easy", "--tier-split weight of Easy must be a finite number, not ''"),
            ("Hard:1,Hard:0,Easy:1", "--tier-split names Hard twice"),
        ]:
            code = main(["synthesize", "--bank", str(bank_path), "--out", str(out), "--tier-split", split])
            assert code == 1, split
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("count", ["4", "9", "0"])
    def test_option_count_outside_its_range_fails_before_the_bank_is_read(self, tmp_path, count, capsys):
        """The flag is checked first: the bank named here does not exist."""
        out = tmp_path / "comb.json"
        assert main(["synthesize", "--bank", str(tmp_path / "missing.json"), "--out", str(out), "--m", count]) == 1
        assert capsys.readouterr().err == f"error: --m must be from 5 to 8, not {count}\n"
        assert not out.exists()

    def test_non_json_constant_in_the_bank_fails_before_any_output(self, tmp_path, capsys):
        """``json.loads`` would read ``NaN`` and ``Infinity``; copied into the hardened bank, they failed only
        at ``calibrate``."""
        source = make_atomic_bank(2, seed=9)
        source[1] = replace(source[1], extras={"gold_score": float("nan"), "logic_density": float("inf")})
        bank_path = tmp_path / "atomic.json"
        save_atomic_bank(str(bank_path), source)
        out = tmp_path / "comb.json"
        assert main(["synthesize", "--bank", str(bank_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bank_path}: invalid JSON (NaN is not a JSON number)\n"
        assert not out.exists()

    def test_inline_source_tier_does_not_overwrite_synthesized_tier(self, tmp_path):
        source = make_atomic_bank(4, seed=9)
        source[0] = replace(source[0], extras={"tier": "Easy", "note": "kept"})
        bank_path = tmp_path / "atomic.json"
        save_atomic_bank(str(bank_path), source)
        out = tmp_path / "comb.json"
        code = main(["synthesize", "--bank", str(bank_path), "--out", str(out), "--tier-split", "Expert:1"])
        assert code == 0
        record = load_json(str(out))["questions"][0]
        assert record["tier"] == "Expert"
        assert record["note"] == "kept"


class TestScoreTraces:
    def test_two_trace_corpus_gives_unit_z_columns(self, tmp_path, capsys):
        rows = [
            {"question_id": "a", "text": "However the claim fails. However, wait."},
            {"question_id": "b", "text": "plain words only here."},
        ]
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, rows)
        out = tmp_path / "scores.jsonl"
        stats_out = tmp_path / "stats.json"
        code = main(
            [
                "score-traces",
                "--traces", str(traces),
                "--out", str(out),
                "--stats-out", str(stats_out),
            ]
        )
        assert code == 0
        scored = [row for _, row in read_jsonl(str(out))]
        z_values = sorted(row["z"]["oscillation"] for row in scored)
        assert z_values == pytest.approx([-1.0, 1.0])

    def test_empty_trace_scores_zero_row(self, tmp_path):
        rows = [
            {"question_id": "a", "text": ""},
            {"question_id": "b", "text": "therefore and because"},
        ]
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, rows)
        out = tmp_path / "scores.jsonl"
        code = main(["score-traces", "--traces", str(traces), "--out", str(out)])
        assert code == 0
        scored = [row for _, row in read_jsonl(str(out))]
        empty_row = next(r for r in scored if r["question_id"] == "a")
        assert empty_row["metrics"]["token_count"] == 0
        assert empty_row["metrics"]["uncertainty_entropy"] == 0.0

    def test_single_trace_corpus_rejected(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, [{"question_id": "a", "text": "something"}])
        code = main(["score-traces", "--traces", str(traces), "--out", str(tmp_path / "s.jsonl")])
        assert code == 1

    def test_frozen_stats_reproduce_scores(self, tmp_path):
        corpus = make_trace_corpus(make_atomic_bank(6, seed=2), seed=4)
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, corpus)
        first = tmp_path / "first.jsonl"
        stats = tmp_path / "stats.json"
        assert main(["score-traces", "--traces", str(traces), "--out", str(first), "--stats-out", str(stats)]) == 0
        second = tmp_path / "second.jsonl"
        assert main(
            ["score-traces", "--traces", str(traces), "--out", str(second), "--stats", str(stats)]
        ) == 0
        assert first.read_text() == second.read_text()

    def test_version_1_stats_file_scores_the_same(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, make_trace_corpus(make_atomic_bank(4, seed=2), seed=4))
        stats = tmp_path / "stats.json"
        assert main(["score-traces", "--traces", str(traces), "--out", str(tmp_path / "a.jsonl"),
                     "--stats-out", str(stats)]) == 0
        v1 = tmp_path / "stats-v1.json"
        v1.write_text(json.dumps({**load_json(str(stats)), "schema_version": 1}, indent=2, sort_keys=True) + "\n")
        for name, path in (("b.jsonl", stats), ("c.jsonl", v1)):
            assert main(["score-traces", "--traces", str(traces), "--out", str(tmp_path / name), "--stats", str(path)]) == 0
        assert (tmp_path / "b.jsonl").read_text() == (tmp_path / "c.jsonl").read_text()


    def test_stats_file_without_stats_key_rejected(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, [{"question_id": "a", "text": "x y"}, {"question_id": "b", "text": "therefore z"}])
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"schema_version": 1}))
        out = tmp_path / "s.jsonl"
        assert main(["score-traces", "--traces", str(traces), "--out", str(out), "--stats", str(stats)]) == 1
        assert capsys.readouterr().err == f"error: {stats}: missing key 'stats'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda data: data["stats"]["means"].pop("logic_density"), "missing key 'logic_density'"),
            (
                lambda data: data["stats"]["stds"].update(dict.fromkeys(SCORED_METRICS, 0.0)),
                "std of oscillation is below the floor 1e-08",
            ),
            (
                lambda data: data["stats"]["means"].update(chain_steps="0.5"),
                "mean of chain_steps must be a finite number, not '0.5'",
            ),
            (lambda data: data["stats"].update(corpus_size="12"), "corpus_size must be an integer, not '12'"),
            (lambda data: data["stats"].update(corpus_size=True), "corpus_size must be an integer, not True"),
            (lambda data: data["stats"].update(corpus_size=7.9), "corpus_size must be an integer, not 7.9"),
            (lambda data: data["stats"].update(stds=[1.0]), "stds must be an object, not [1.0]"),
            (lambda data: data.update(stats=None), "stats must be an object, not None"),
            (lambda data: data.update(schema_version=99), "schema_version 99 is not 1 or 2"),
            (lambda data: data.pop("schema_version"), "schema_version None is not 1 or 2"),
            (lambda data: data.update(scoring={"model": "other"}), "scoring is not the scoring model of this version"),
            (lambda data: data["scoring"].update(offset=20.0), "scoring is not the scoring model of this version"),
        ],
        ids=["missing-mean", "zero-stds", "string-mean", "string-size", "bool-size", "float-size", "list-stds",
             "null-stats", "other-version", "no-version", "other-model", "other-offset"],
    )
    def test_malformed_stats_file_rejected(self, tmp_path, capsys, corrupt, message):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, [{"question_id": "a", "text": "x y"}, {"question_id": "b", "text": "therefore z"}])
        stats = tmp_path / "stats.json"
        first = ["score-traces", "--traces", str(traces), "--out", str(tmp_path / "a.jsonl"), "--stats-out", str(stats)]
        assert main(first) == 0
        data = load_json(str(stats))
        corrupt(data)
        stats.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "b.jsonl"
        assert main(["score-traces", "--traces", str(traces), "--out", str(out), "--stats", str(stats)]) == 1
        assert capsys.readouterr().err == f"error: {stats}: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize("text", [None, 5, ["a", "b"], {"t": "x"}], ids=["null", "number", "list", "object"])
    def test_non_string_text_rejected_naming_file_and_line(self, tmp_path, capsys, text):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, [{"question_id": "a", "text": "x y"}, {"question_id": "b", "text": text}])
        out = tmp_path / "s.jsonl"
        assert main(["score-traces", "--traces", str(traces), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {traces}:2: text must be a string, not {text!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("question_id", [None, 7, ""], ids=["null", "number", "empty"])
    def test_question_id_not_a_string_rejected_naming_file_and_line(self, tmp_path, capsys, question_id):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, [{"question_id": "a", "text": "x y"}, {"question_id": question_id, "text": "z"}])
        out = tmp_path / "s.jsonl"
        assert main(["score-traces", "--traces", str(traces), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {traces}:2: question_id must be a non-empty string, not {question_id!r}\n"
        )
        assert not out.exists()

    def test_row_without_text_scores_as_empty_trace(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, [{"question_id": "a"}, {"question_id": "b", "text": "therefore and because"}])
        out = tmp_path / "s.jsonl"
        assert main(["score-traces", "--traces", str(traces), "--out", str(out)]) == 0
        scored = {row["question_id"]: row for _, row in read_jsonl(str(out))}
        assert scored["a"]["metrics"]["token_count"] == 0
        assert scored["a"]["metrics"]["segment_count"] == 0

    def test_repeated_question_id_rejected_naming_both_lines(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        rows = [{"question_id": qid, "text": f"therefore {i}"} for i, qid in enumerate(["q", "r", "q", "q"])]
        write_jsonl(traces, rows)
        out = tmp_path / "s.jsonl"
        assert main(["score-traces", "--traces", str(traces), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {traces}:3: question_id 'q' repeats line 1\n"
        assert not out.exists()


class TestCalibrate:
    def test_fixture_parameter_triple(self, tmp_path, bank_file):
        bank_path, questions = bank_file
        comb_path = tmp_path / "comb.json"
        assert main(
            ["synthesize", "--bank", str(bank_path), "--out", str(comb_path), "--tier-split", "Hard:1", "--seed", "2"]
        ) == 0
        score_rows = [
            {
                "question_id": q.id,
                "gold_score": 25.0,
                "tier": "Hard",
                "metrics": {"logic_density": 2.0, "token_count": 1000, "segment_count": 100},
            }
            for q in questions
        ]
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, score_rows)
        out = tmp_path / "items.json"
        assert main(
            ["calibrate", "--bank", str(comb_path), "--scores", str(scores), "--out", str(out)]
        ) == 0
        items = load_item_bank(str(out))
        assert len(items) == 16
        for item in items:
            assert item.a == pytest.approx(1.6)
            assert item.b == pytest.approx(-1.0404, abs=1e-3)
            assert item.c == pytest.approx(1.0 / 6.0)
            assert item.subset == "Combinatorial"

    def test_tampered_comb_bank_rejected(self, tmp_path, bank_file, capsys):
        bank_path, _ = bank_file
        comb_path = tmp_path / "comb.json"
        assert main(["synthesize", "--bank", str(bank_path), "--out", str(comb_path)]) == 0
        question_id, letter = _add_distractor_to_answer_set(comb_path)
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(comb_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {comb_path}: record 0: question {question_id!r}: ")
        assert f"truth-mismatch: option {letter} evaluates False but is labelled correct" in err
        assert not out.exists()

    def test_option_of_no_shape_rejected(self, tmp_path, bank_file, capsys):
        bank_path, _ = bank_file
        comb_path = tmp_path / "comb.json"
        assert main(["synthesize", "--bank", str(bank_path), "--out", str(comb_path)]) == 0
        data = load_json(str(comb_path))
        question = data["questions"][0]
        option = next(o for o in question["options"] if o["letter"] not in question["answer_set"])
        option["formula"] = "AND(VAR(I),VAR(II))"  # false in every question's row, and of no option shape
        comb_path.write_text(json.dumps(data))
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(comb_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {comb_path}: record 0: question {question['id']!r}: unknown-shape: option {option['letter']}"
            " formula AND(VAR(I),VAR(II)) is none of the 21 option shapes"
        )
        assert not out.exists()

    def test_atomic_bank_gets_quarter_guessing(self, tmp_path, bank_file):
        bank_path, questions = bank_file
        score_rows = [
            {
                "question_id": q.id,
                "gold_score": 21.0,
                "tier": "Easy",
                "metrics": {"logic_density": 1.0, "token_count": 500, "segment_count": 40},
            }
            for q in questions
        ]
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, score_rows)
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]) == 0
        items = load_item_bank(str(out))
        assert all(item.c == pytest.approx(0.25) for item in items)
        assert all(item.a == pytest.approx(0.8) for item in items)
        assert all(item.subset == "Base" for item in items)

    def test_inline_features_calibrate_without_scores_file(self, tmp_path):
        records = []
        for i in range(4):
            record = {
                "id": f"inline{i}",
                "context": "c",
                "options": {"I": "a", "II": "b", "III": "c", "IV": "d"},
                "answer": "I",
                "gold_score": 26.0,
                "tier": "Hard",
                "logic_density": 2.5,
                "token_count": 800,
                "segment_count": 90,
            }
            records.append(record)
        bank = tmp_path / "scored_bank.json"
        bank.write_text(json.dumps({"schema_version": 1, "questions": records}))
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank), "--out", str(out)]) == 0
        items = load_item_bank(str(out))
        assert len(items) == 4
        assert all(item.tier == "Hard" for item in items)

    def test_missing_features_skip_with_warning(self, tmp_path, bank_file, caplog):
        bank_path, questions = bank_file
        score_rows = [
            {
                "question_id": q.id,
                "gold_score": 25.0,
                "tier": "Hard",
                "metrics": {"logic_density": 2.0, "token_count": 1000, "segment_count": 100},
            }
            for q in questions[:10]
        ]
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, score_rows)
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]) == 0
        assert len(load_item_bank(str(out))) == 10

    @pytest.mark.parametrize(
        "source, key, value, message",
        [
            ("scores", "gold_score", True, "gold_score must be a finite number, not True"),
            ("scores", "gold_score", "31.5", "gold_score must be a finite number, not '31.5'"),
            # json.dumps spells NaN as NaN, which the reader refuses before any field is read
            ("scores", "token_count", float("nan"), "invalid JSON (NaN is not a JSON number)"),
            ("scores", "metrics", [2.0], "metrics must be an object, not [2.0]"),
            ("scores", "tier", 3, "tier must be a string, not 3"),
            ("bank", "gold_score", "31.5", "gold_score must be a finite number, not '31.5'"),
            ("bank", "segment_count", None, "segment_count must be a finite number, not None"),
            ("scores", "tier", "Hardest", "unknown tier 'Hardest'"),
            ("bank", "tier", "Hardest", "unknown tier 'Hardest'"),
            ("bank", "tier", 3, "tier must be a string, not 3"),
            ("record-under-scores", "tier", 3, "tier must be a string, not 3"),
        ],
        ids=[
            "bool-score", "string-score", "nan-count", "list-metrics", "int-tier", "bank-string-score", "bank-null",
            "unknown-tier", "bank-unknown-tier", "bank-int-tier", "fallback-int-tier",
        ],
    )
    def test_feature_of_another_type_names_the_row(self, tmp_path, bank_file, capsys, source, key, value, message):
        """A feature that is present is read as written; only a missing one skips its question.

        A score row without a tier takes its bank record's, and a bad one there names the record."""
        bank_path, questions = bank_file
        row = {"gold_score": 25.0, "tier": "Hard"}
        metrics = {"logic_density": 2.0, "token_count": 1000, "segment_count": 100}
        out = tmp_path / "items.json"
        if source == "record-under-scores":
            records = [{**q.to_record(), "tier": "Hard"} for q in questions[:3]]
            records[0][key] = value
            bank_path.write_text(json.dumps({"schema_version": 1, "questions": records}))
            scores = tmp_path / "scores.jsonl"
            write_jsonl(scores, [{"question_id": q.id, "gold_score": 25.0, "metrics": metrics} for q in questions[:3]])
            argv = ["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]
            where = f"{bank_path}: record 0"
        elif source == "scores":
            rows = [{"question_id": q.id, **row, "metrics": dict(metrics)} for q in questions[:3]]
            (rows[2]["metrics"] if key in metrics else rows[2])[key] = value
            scores = tmp_path / "scores.jsonl"
            write_jsonl(scores, rows)
            argv = ["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]
            where = f"{scores}:3"
        else:
            records = [{**q.to_record(), **row, **metrics} for q in questions[:3]]
            records[1][key] = value
            bank_path.write_text(json.dumps({"schema_version": 1, "questions": records}))
            argv = ["calibrate", "--bank", str(bank_path), "--out", str(out)]
            where = f"{bank_path}: record 1"
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {where}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("42", "a row must be a JSON object, not 42"),
            ('{"question_id": "q', "invalid JSON (Unterminated string starting at)"),
        ],
        ids=["number", "torn"],
    )
    def test_corrupt_score_line_rejected_naming_line(self, tmp_path, bank_file, capsys, line, message):
        bank_path, questions = bank_file
        row = {
            "question_id": questions[0].id,
            "gold_score": 25.0,
            "tier": "Hard",
            "metrics": {"logic_density": 2.0, "token_count": 1000, "segment_count": 100},
        }
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps(row) + "\n" + line)
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scores}:2: {message}\n"
        assert not out.exists()

    def test_repeated_score_question_id_rejected_naming_both_lines(self, tmp_path, bank_file, capsys):
        bank_path, questions = bank_file
        rows = [
            {
                "question_id": questions[i].id,
                "gold_score": score,
                "tier": "Hard",
                "metrics": {"logic_density": 2.0, "token_count": 1000, "segment_count": 100},
            }
            for i, score in [(0, 25.0), (1, 26.0), (0, 27.0)]
        ]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scores}:3: question_id {questions[0].id!r} repeats line 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ({"qid": "q0003"}, "missing key 'question_id'"),
            ({"question_id": None}, "question_id must be a non-empty string, not None"),
            ({"question_id": 7}, "question_id must be a non-empty string, not 7"),
            ({"question_id": ""}, "question_id must be a non-empty string, not ''"),
        ],
        ids=["qid", "null", "number", "empty"],
    )
    def test_score_row_without_a_question_id_rejected_naming_line(
        self, tmp_path, bank_file, capsys, bad_row, message
    ):
        bank_path, questions = bank_file
        features = {
            "gold_score": 25.0,
            "tier": "Hard",
            "metrics": {"logic_density": 2.0, "token_count": 1000, "segment_count": 100},
        }
        scores = tmp_path / "scores.jsonl"
        rows = [{"question_id": questions[0].id, **features}, {"question_id": questions[1].id, **features}]
        write_jsonl(scores, rows + [{**bad_row, **features}])
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scores}:3: {message}\n"
        assert not out.exists()

    def test_config_flag_rejected(self, tmp_path, bank_file, capsys):
        """Flags are the only settings: no subcommand takes a config file, and removed settings stay removed."""
        bank_path, questions = bank_file
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, make_trace_corpus(questions))
        log = tmp_path / "run.jsonl"
        log.write_text("")
        commands = {
            "comb.json": ["synthesize", "--bank", str(bank_path), "--out", str(tmp_path / "comb.json")],
            "scores.jsonl": ["score-traces", "--traces", str(traces), "--out", str(tmp_path / "scores.jsonl")],
            "items.json": ["calibrate", "--bank", str(bank_path), "--out", str(tmp_path / "items.json")],
            "run": [
                "evaluate", "--base-bank", str(bank_path), "--simulator", "memorization",
                "--out", str(tmp_path / "run"),
            ],
            None: ["report", "--log", str(log)],
        }
        removed = {
            "synthesize": [["--tier", "Hard"]],
            "score-traces": [["--weights-config", "x.json"], ["--lexicon", "x.json"], ["--locale", "en"]],
            "calibrate": [["--m", "6"], ["--subset", "Base"]],
            "evaluate": [["--strict-incorrect"]],
        }
        for output, argv in commands.items():
            for flag in [["--config", str(tmp_path / "nonexistent.json")]] + removed.get(argv[0], []):
                with pytest.raises(SystemExit) as exc_info:
                    main(argv + flag)
                assert exc_info.value.code == 2, flag
                assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err, flag
                if output:
                    assert not (tmp_path / output).exists(), flag

    def test_flags_are_accepted_only_as_spelled(self, tmp_path, bank_file, capsys):
        """argparse would read a unique prefix as the flag it begins; here it is an unrecognized argument."""
        bank_path, _ = bank_file
        out = tmp_path / "comb.json"
        for argv in (
            ["report", "--log", str(tmp_path / "run.jsonl"), "--rep", "report.json"],
            ["synthesize", "--bank", str(bank_path), "--out", str(out), "--tier-s", "Hard:1"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["synthesize", "--seed", "abc"], 2, "argument --seed: invalid int value: 'abc'"),
            (["synthesize", "--m", "abc"], 2, "argument --m: invalid int value: 'abc'"),
            (["evaluate", "--mode", "foo"], 2, "argument --mode: invalid choice: 'foo' (choose from 'static', 'cat')"),
            (["evaluate", "--max-items", "abc"], 2, "argument --max-items: invalid int value: 'abc'"),
            (["evaluate", "--se-target", "abc"], 2, "argument --se-target: invalid float value: 'abc'"),
            (["evaluate", "--no-such-flag"], 2, "unrecognized arguments: --no-such-flag"),
            (["synthesize", "--m", "9"], 1, "--m must be from 5 to 8, not 9"),
            (["evaluate", "--max-items", "0"], 1, "--max-items must be at least 1, not 0"),
        ],
        ids=["seed-abc", "m-abc", "mode-foo", "max-items-abc", "se-target-abc", "unknown-flag", "m-9", "max-items-0"],
    )
    def test_exit_status_of_a_bad_flag(self, tmp_path, bank_file, capsys, argv, code, message):
        """An unknown flag or a value argparse cannot convert exits with 2 after its usage; one out of range with 1."""
        bank_path, _ = bank_file
        out = tmp_path / "out"
        command, *flag = argv
        required = {
            "synthesize": ["--bank", str(bank_path), "--out", str(out)],
            "evaluate": ["--base-bank", str(bank_path), "--simulator", "memorization", "--out", str(out)],
        }
        argv = [command, *required[command], *flag]
        if code == 2:
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: combicat ") and err.endswith(f": error: {message}\n")
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_each_subcommand_takes_only_its_pinned_flags(self):
        """Adding a setting means adding it here."""
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: [flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")]
            for name, sub in subparsers.choices.items()
        }
        assert flags == {
            "synthesize": ["--bank", "--out", "--tier-split", "--seed", "--m"],
            "score-traces": ["--traces", "--out", "--stats-out", "--stats"],
            "calibrate": ["--bank", "--scores", "--out"],
            "evaluate": [
                "--base-bank", "--comb-bank", "--base-items", "--comb-items", "--mode", "--simulator",
                "--endpoint", "--baseline", "--seed", "--max-items", "--se-target", "--out",
            ],
            "report": ["--log", "--report"],
        }
        assert sum(map(len, flags.values())) == 26

    def test_every_readme_command_parses(self):
        """The README shows no removed or misspelt flag: each ``combicat`` line of its bash blocks parses."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        blocks = re.findall(r"^ *```bash\n(.*?)^ *```", readme, re.MULTILINE | re.DOTALL)
        commands = [
            argv[1:]
            for block in blocks
            for line in re.sub(r"\\\n", " ", block).splitlines()
            if (argv := shlex.split(line, comments=True))[:1] == ["combicat"]
        ]
        assert [argv[0] for argv in commands] == [
            "synthesize", "score-traces", "calibrate", "calibrate", "evaluate", "evaluate", "report"
        ]
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: combicat {shlex.join(argv)}")


def _add_distractor_to_answer_set(comb_path):
    """Label one wrong option of the first question correct; returns its id and letter."""
    data = load_json(str(comb_path))
    question = data["questions"][0]
    letter = next(o["letter"] for o in question["options"] if o["letter"] not in question["answer_set"])
    question["answer_set"].append(letter)
    comb_path.write_text(json.dumps(data))
    return question["id"], letter


def _relabel_items(items_path, out_path, subset):
    """Copy an item bank with every item calibrated for ``subset``, as a hand edit would."""
    data = load_json(str(items_path))
    for item in data["items"]:
        item["subset"] = subset
        item["item_id"] = f"{subset}:{item['question_id']}"
    out_path.write_text(json.dumps(data))


def _pipeline(tmp_path, n_questions=40, seed=13):
    """synthesize + score + calibrate, returning all artifact paths."""
    questions = make_atomic_bank(n_questions, seed=seed)
    atomic = tmp_path / "atomic.json"
    save_atomic_bank(str(atomic), questions)
    comb = tmp_path / "comb.json"
    assert main(
        [
            "synthesize", "--bank", str(atomic), "--out", str(comb),
            "--tier-split", "Easy:10,Medium:40,Hard:35,Expert:15", "--seed", str(seed),
        ]
    ) == 0
    traces = tmp_path / "traces.jsonl"
    write_jsonl(traces, make_trace_corpus(questions, seed=seed + 1))
    scores = tmp_path / "scores.jsonl"
    assert main(["score-traces", "--traces", str(traces), "--out", str(scores)]) == 0
    base_items = tmp_path / "base_items.json"
    comb_items = tmp_path / "comb_items.json"
    assert main(["calibrate", "--bank", str(atomic), "--scores", str(scores), "--out", str(base_items)]) == 0
    assert main(["calibrate", "--bank", str(comb), "--scores", str(scores), "--out", str(comb_items)]) == 0
    return atomic, comb, base_items, comb_items


class TestEvaluate:
    def test_static_with_baseline_columns(self, tmp_path, capsys):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path)
        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate",
                "--base-bank", str(atomic),
                "--comb-bank", str(comb),
                "--base-items", str(base_items),
                "--comb-items", str(comb_items),
                "--mode", "static",
                "--simulator", "3pl:0.5,-0.5",
                "--baseline", "nota,shuffle",
                "--seed", "7",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        report = load_json(str(out_dir / "report.json"))
        assert {"base", "nota", "shuffle", "comb"} <= set(report["subsets"])
        assert "dual" not in report  # static mode has no adaptive fields
        assert report["config_hash"]

    def test_baseline_names_are_hashed_as_parsed(self, tmp_path):
        """Spaces around a name change neither the log nor the config hash; the golden chain's hash holds."""
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=8)
        runs = {}
        for spec in ("nota,shuffle", " nota , shuffle", ""):
            out_dir = tmp_path / f"run{len(runs)}"
            assert main(
                ["evaluate", "--base-bank", str(atomic), "--base-items", str(base_items), "--simulator",
                 "3pl:0.5", "--baseline", spec, "--out", str(out_dir)]
            ) == 0
            runs[spec] = (out_dir / "run.jsonl").read_bytes(), (out_dir / "report.json").read_bytes()
        assert runs["nota,shuffle"] == runs[" nota , shuffle"]
        assert runs["nota,shuffle"] != runs[""]

    @pytest.mark.parametrize("spec", [",", "nota,,shuffle", " ", "nota,", "bogus", "nota,nota", "shuffle, nota ,shuffle"])
    def test_bad_baseline_rejected_before_the_log_opens(self, tmp_path, bank_file, capsys, spec):
        """An empty, unknown or repeated name fails; before, only an unknown one did."""
        bank_path, _ = bank_file
        out_dir = tmp_path / "run"
        argv = ["evaluate", "--base-bank", str(bank_path), "--simulator", "memorization", "--out", str(out_dir)]
        assert main(argv + ["--baseline", spec]) == 1
        message = f"--baseline must name nota, shuffle or both, each once, not {spec!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_cat_mode_emits_dual_fields(self, tmp_path):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path)
        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate",
                "--base-bank", str(atomic),
                "--comb-bank", str(comb),
                "--base-items", str(base_items),
                "--comb-items", str(comb_items),
                "--mode", "cat",
                "--simulator", "3pl:0.5,-1.5",
                "--seed", "7",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        report = load_json(str(out_dir / "report.json"))
        assert report["dual"]["base"]["n_administered"] <= 60
        assert report["dual"]["comb"]["n_administered"] <= 60
        assert "delta_theta" in report["dual"]

    def test_cat_mode_rejects_mislabeled_subset(self, tmp_path, capsys):
        atomic, comb, calibrated, comb_items = _pipeline(tmp_path, n_questions=12)
        base_items = tmp_path / "mislabeled_items.json"
        _relabel_items(calibrated, base_items, "Combinatorial")
        code = main(
            [
                "evaluate",
                "--base-bank", str(atomic),
                "--comb-bank", str(comb),
                "--base-items", str(base_items),
                "--comb-items", str(comb_items),
                "--mode", "cat",
                "--simulator", "3pl:0.5,-1.5",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: item 'Combinatorial:")
        assert "'Combinatorial'" in err and "'Base'" in err

    def test_item_bank_of_another_option_count_rejected_before_the_log_opens(self, tmp_path, capsys):
        """Banks synthesized from one atomic bank and seed at --m 5 and --m 8 share their question ids, so the
        items of one would join the questions of the other, with a guessing parameter of 1/8 for 5 options."""
        atomic, _, _, _ = _pipeline(tmp_path, n_questions=12)
        comb5, comb8, comb8_items = tmp_path / "comb5.json", tmp_path / "comb8.json", tmp_path / "comb8_items.json"
        for m, out in ((5, comb5), (8, comb8)):
            assert main(["synthesize", "--bank", str(atomic), "--out", str(out), "--m", str(m), "--seed", "7"]) == 0
        scores = tmp_path / "scores.jsonl"
        assert main(["calibrate", "--bank", str(comb8), "--scores", str(scores), "--out", str(comb8_items)]) == 0
        question_id = load_comb_bank(str(comb5))[0].id
        assert question_id in {item.question_id for item in load_item_bank(str(comb8_items))}
        out_dir = tmp_path / "run"
        capsys.readouterr()
        code = main(["evaluate", "--comb-bank", str(comb5), "--comb-items", str(comb8_items),
                     "--simulator", "3pl:0,0", "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {comb8_items}: question {question_id!r} has 5 options, but its item was calibrated for 8\n"
        )
        assert not out_dir.exists()

    def test_rejected_run_keeps_the_earlier_run(self, tmp_path, capsys):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=12)
        out_dir = tmp_path / "run"
        args = [
            "evaluate", "--base-bank", str(atomic), "--comb-bank", str(comb), "--comb-items", str(comb_items),
            "--mode", "cat", "--simulator", "3pl:0.5,-1.5", "--seed", "7", "--out", str(out_dir),
        ]
        assert main(args + ["--base-items", str(base_items)]) == 0
        log, report = (out_dir / "run.jsonl").read_bytes(), (out_dir / "report.json").read_bytes()
        assert log
        mislabeled = tmp_path / "mislabeled_items.json"
        _relabel_items(base_items, mislabeled, "Combinatorial")
        assert main(args + ["--base-items", str(mislabeled)]) == 1
        assert (out_dir / "run.jsonl").read_bytes() == log
        assert (out_dir / "report.json").read_bytes() == report
        capsys.readouterr()
        assert main(["report", "--log", str(out_dir / "run.jsonl"), "--report", str(out_dir / "report.json")]) == 0
        assert "replay check: ok" in capsys.readouterr().out

    def test_missing_api_key_rejected_before_the_log_opens(self, tmp_path, bank_file, monkeypatch, capsys):
        bank_path, _ = bank_file
        monkeypatch.delenv("COMBICAT_TEST_KEY", raising=False)
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(
            json.dumps({"base_url": "http://127.0.0.1:9/never", "model_name": "m", "api_key_env": "COMBICAT_TEST_KEY"})
        )
        out_dir = tmp_path / "run"
        code = main(
            ["evaluate", "--base-bank", str(bank_path), "--endpoint", str(endpoint), "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {endpoint}: environment variable 'COMBICAT_TEST_KEY' is not set\n"
        assert not out_dir.exists()

    def test_tampered_comb_bank_rejected_before_the_log_opens(self, tmp_path, capsys):
        _, comb, _, comb_items = _pipeline(tmp_path, n_questions=12)
        question_id, letter = _add_distractor_to_answer_set(comb)
        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate", "--comb-bank", str(comb), "--comb-items", str(comb_items),
                "--simulator", "3pl:0.5", "--out", str(out_dir),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {comb}: record 0: question {question_id!r}: ")
        assert f"truth-mismatch: option {letter} evaluates False but is labelled correct" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--base-bank", "--comb-bank"])
    def test_empty_bank_rejected_before_the_log_opens(self, tmp_path, capsys, flag):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema_version": 1, "questions": []}))
        out_dir = tmp_path / "run"
        code = main(["evaluate", flag, str(empty), "--simulator", "memorization", "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: bank holds no questions\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", ["endpoint", "items"])
    def test_missing_key_rejected_before_the_log_opens(self, tmp_path, bank_file, capsys, source):
        bank_path, questions = bank_file
        if source == "endpoint":
            path, key = tmp_path / "endpoint.json", "base_url"
            path.write_text(json.dumps({"model_name": "m"}))
            args = ["--endpoint", str(path)]
        else:
            path, key = tmp_path / "items.json", "b"
            save_item_bank(str(path), [CalibratedItem(f"Base:{q.id}", q.id, "Base", "Easy", 0.8, 0.0, 0.25, 4) for q in questions])
            data = load_json(str(path))
            del data["items"][0]["b"]
            path.write_text(json.dumps(data))
            args = ["--base-items", str(path), "--simulator", "3pl:0.5"]
        out_dir = tmp_path / "run"
        assert main(["evaluate", "--base-bank", str(bank_path), "--out", str(out_dir)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and f"missing key {key!r}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("item_id", 5, "item_id must be a string, not 5"),
            ("question_id", None, "question_id must be a string, not None"),
            ("subset", ["Base"], "subset must be a string, not ['Base']"),
            ("tier", 3, "tier must be a string, not 3"),
            ("a", "1.6", "a must be a finite number, not '1.6'"),
            ("a", True, "a must be a finite number, not True"),
            ("b", float("nan"), "invalid JSON (NaN is not a JSON number)"),
            ("b", float("-inf"), "invalid JSON (-Infinity is not a JSON number)"),
            ("c", 10**400, f"c must be a finite number, not {10**400!r}"),
            ("n_options", 6.9, "n_options must be an integer, not 6.9"),
            ("n_options", "4", "n_options must be an integer, not '4'"),
            ("a", 0.0, "item {item}: discrimination must be positive"),
            ("a", -1.6, "item {item}: discrimination must be positive"),
            ("c", 1.0, "item {item}: guessing parameter must lie in [0, 1)"),
            ("c", -0.25, "item {item}: guessing parameter must lie in [0, 1)"),
            ("item_id", "Base:q0000", "item_id 'Base:q0000' repeats record 0"),
            ("question_id", "q0000", "question_id 'q0000' repeats record 0"),
        ],
        ids=[
            "int-item-id", "null-question-id", "list-subset", "int-tier", "string-a", "bool-a", "nan-b", "inf-b",
            "huge-c", "float-n-options", "string-n-options", "zero-a", "negative-a", "certain-c", "negative-c",
            "repeated-item-id", "repeated-question-id",
        ],
    )
    def test_bad_item_row_rejected_without_coercion(self, tmp_path, bank_file, capsys, key, value, message):
        """A row is read without coercion, must hold 3PL parameters in range, and may not repeat an earlier row's
        item or question."""
        bank_path, questions = bank_file
        path = tmp_path / "items.json"
        items = [CalibratedItem(f"Base:{q.id}", q.id, "Base", "Easy", 0.8, 0.0, 0.25, 4) for q in questions]
        save_item_bank(str(path), items)
        data = load_json(str(path))
        data["items"][1][key] = value
        # json.dumps spells NaN and -inf as NaN and -Infinity, which the reader refuses before any record is read
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "run"
        code = main(["evaluate", "--base-bank", str(bank_path), "--base-items", str(path), "--simulator", "3pl:0.5",
                     "--out", str(out_dir)])
        assert code == 1
        where = f"{path}:" if message.startswith("invalid JSON") else f"{path}: record 1:"
        assert capsys.readouterr().err == f"error: {where} {message.format(item=repr(items[1].item_id))}\n"
        assert not out_dir.exists()

    def test_item_row_with_int_parameters_loads_as_floats(self, tmp_path):
        path = tmp_path / "items.json"
        path.write_text(json.dumps({"schema_version": 1, "items": [
            {"item_id": "Base:q", "question_id": "q", "subset": "Base", "tier": "Hard", "a": 2, "b": -1, "c": 0,
             "n_options": 4}]}))
        (item,) = load_item_bank(str(path))
        assert (item.a, item.b, item.c) == (2.0, -1.0, 0.0)
        assert all(type(value) is float for value in (item.a, item.b, item.c))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("temperature", float("nan"), "invalid JSON (NaN is not a JSON number)"),
            ("temperature", float("inf"), "invalid JSON (Infinity is not a JSON number)"),
            ("temperature", "0.5", "temperature must be a number, not '0.5'"),
            ("base_url", "localhost:9/v1", "base_url must be an http(s) URL with a host, not 'localhost:9/v1'"),
            ("base_url", "http:///v1", "base_url must be an http(s) URL with a host, not 'http:///v1'"),
            ("base_url", "ftp://127.0.0.1/v1", "base_url must be an http(s) URL with a host, not 'ftp://127.0.0.1/v1'"),
            ("base_url", 5, "base_url must be a string, not 5"),
            *(
                ("base_url", url, "base_url must hold no space or control character, and no non-ASCII character in"
                 f" its path or query (percent-encode them), not {url!r}")
                for url in ("http://127.0.0.1:9/v1 chat", "http://127.0.0.1:9/v1\tchat", "http://127.0.0.1:9/x?q=ü")
            ),
            ("base_url", "http://a..ü/x", "base_url must have a host that IDNA can encode, not 'http://a..ü/x'"),
            ("model_name", None, "model_name must be a string, not None"),
            ("timeout_seconds", 2.7, "timeout_seconds must be an integer, not 2.7"),
            ("timeout_seconds", True, "timeout_seconds must be an integer, not True"),
            ("max_tokens", 0, "max_tokens must be at least 1, not 0"),
            ("max_retries", -1, "max_retries must be at least 0, not -1"),
            ("temprature", 0.0, "unknown key 'temprature'"),
            ("max_token", 5, "unknown key 'max_token'"),
            ("api_key_env", "COMBICAT_NO_SUCH_KEY", "environment variable 'COMBICAT_NO_SUCH_KEY' is not set"),
        ],
        ids=[
            "nan-temperature", "inf-temperature", "string-temperature", "url-without-scheme", "url-without-host",
            "ftp-url", "int-url", "space-in-url", "tab-in-url", "non-ascii-url", "idna-host", "null-model", "float-timeout",
            "bool-timeout", "zero-max-tokens", "negative-retries", "misspelt-temperature", "misspelt-max-tokens",
            "unset-api-key-env",
        ],
    )
    def test_bad_endpoint_file_rejected_before_any_request(
        self, tmp_path, bank_file, capsys, monkeypatch, key, value, message
    ):
        bank_path, _ = bank_file
        monkeypatch.delenv("COMBICAT_NO_SUCH_KEY", raising=False)
        path = tmp_path / "endpoint.json"
        # json.dumps spells NaN and inf as NaN and Infinity, which the reader refuses
        path.write_text(json.dumps({"base_url": "http://127.0.0.1:9/x", "model_name": "m", key: value}))
        out_dir = tmp_path / "run"
        code = main(
            ["evaluate", "--base-bank", str(bank_path), "--endpoint", str(path), "--mode", "static", "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, flag, kind",
        [
            ("evaluate", "--base-bank", "an atomic bank"),
            ("evaluate", "--comb-bank", "a combinatorial bank"),
            ("synthesize", "--bank", "an atomic bank"),
        ],
    )
    def test_bank_of_the_wrong_kind_rejected(self, tmp_path, capsys, command, flag, kind):
        atomic, comb, _, _ = _pipeline(tmp_path, n_questions=8)
        wrong = comb if kind == "an atomic bank" else atomic
        out = tmp_path / "out"
        rest = ["--simulator", "memorization"] if command == "evaluate" else []
        capsys.readouterr()
        assert main([command, flag, str(wrong), "--out", str(out)] + rest) == 1
        assert capsys.readouterr().err == f"error: {wrong}: not {kind}\n"
        assert not out.exists()

    def test_invalid_baseline_variant_rejected_before_the_log_opens(self, tmp_path, capsys):
        questions = make_atomic_bank(4, seed=9)
        wrong = next(label for label in ("I", "II") if label != questions[0].answer)
        questions[0] = replace(questions[0], options={**questions[0].options, wrong: NOTA_TEXT})
        bank_path = tmp_path / "atomic.json"
        save_atomic_bank(str(bank_path), questions)
        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate", "--base-bank", str(bank_path), "--simulator", "memorization",
                "--baseline", "nota", "--out", str(out_dir),
            ]
        )
        assert code == 1
        assert f"error: question {questions[0].id!r}: options" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unsimulated_subset_rejected_before_the_log_opens(self, tmp_path, bank_file, capsys):
        bank_path, questions = bank_file
        items = tmp_path / "items.json"
        save_item_bank(
            str(items), [CalibratedItem(f"Foo:{q.id}", q.id, "Foo", "Easy", 0.8, 0.0, 0.25, 4) for q in questions]
        )
        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate", "--base-bank", str(bank_path), "--base-items", str(items),
                "--simulator", "3pl:0.5", "--out", str(out_dir),
            ]
        )
        assert code == 1
        assert "error: no simulated ability for subset 'Foo'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_runs_are_byte_identical_given_a_seed(self, tmp_path):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=20)
        args = [
            "evaluate",
            "--base-bank", str(atomic),
            "--comb-bank", str(comb),
            "--base-items", str(base_items),
            "--comb-items", str(comb_items),
            "--mode", "cat",
            "--simulator", "3pl:0.0,-1.0",
            "--seed", "19",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_text() == (out_b / "report.json").read_text()
        assert (out_a / "run.jsonl").read_text() == (out_b / "run.jsonl").read_text()

    def test_memorization_simulator_runs_static(self, tmp_path):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=20)
        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate",
                "--comb-bank", str(comb),
                "--mode", "static",
                "--simulator", "memorization",
                "--seed", "3",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        report = load_json(str(out_dir / "report.json"))
        assert report["subsets"]["comb"]["n"] == 20

    def test_baseline_under_cat_mode_rejected_before_the_log_opens(self, tmp_path, capsys):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=8)
        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate", "--base-bank", str(atomic), "--comb-bank", str(comb),
                "--base-items", str(base_items), "--comb-items", str(comb_items),
                "--mode", "cat", "--simulator", "3pl:0.5,-1.5", "--baseline", "bogus", "--out", str(out_dir),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --baseline applies to --mode static only\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--base-bank", "atomic.json", "--max-items", "0"], "--max-items must be at least 1, not 0"),
            (
                ["--comb-bank", "comb.json", "--baseline", "nota"],
                "--baseline needs --base-bank: a baseline is a variant of the base bank",
            ),
            ([], "provide --base-bank, --comb-bank or both"),
        ],
        ids=["max-items", "baseline", "no-bank"],
    )
    def test_run_that_administers_nothing_rejected_before_the_log_opens(self, tmp_path, capsys, flags, message):
        _pipeline(tmp_path, n_questions=8)
        flags = [str(tmp_path / flag) if flag.endswith(".json") else flag for flag in flags]
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(["evaluate", *flags, "--simulator", "memorization", "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("target", ["inf", "nan", "-1", "1", "0.99999999"])
    def test_se_target_outside_its_range_rejected_before_the_log_opens(self, tmp_path, bank_file, capsys, target):
        """A target at or above the prior's standard error would administer nothing; below 0 it would act as 0."""
        bank_path, _ = bank_file
        out_dir = tmp_path / "run"
        argv = ["evaluate", "--base-bank", str(bank_path), "--simulator", "memorization", "--out", str(out_dir)]
        assert main(argv + ["--se-target", target]) == 1
        prior_se = CatSession.start().estimate.se
        message = f"--se-target must be at least 0 and below the prior's SE {prior_se}, not {float(target)}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_se_target_zero_runs_to_the_item_budget(self, tmp_path):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=12)
        out_dir = tmp_path / "run"
        assert main(
            [
                "evaluate", "--base-bank", str(atomic), "--comb-bank", str(comb),
                "--base-items", str(base_items), "--comb-items", str(comb_items), "--mode", "cat",
                "--simulator", "3pl:0.5,-1.5", "--se-target", "0", "--max-items", "5", "--out", str(out_dir),
            ]
        ) == 0
        dual = load_json(str(out_dir / "report.json"))["dual"]
        assert dual["base"]["n_administered"] == dual["comb"]["n_administered"] == 5

    def test_rejects_simulator_and_endpoint_together(self, tmp_path):
        code = main(
            [
                "evaluate",
                "--mode", "static",
                "--simulator", "3pl:0",
                "--endpoint", "whatever.json",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1

    def test_bad_simulator_spec_rejected(self, tmp_path, bank_file, capsys):
        """An ability must be finite: at NaN the simulator would answer every question wrong."""
        bank_path, _ = bank_file
        usage = "(use '3pl:<base>,<comb>' or 'memorization')"
        for spec, message in [
            ("magic", f"cannot parse --simulator spec 'magic' {usage}"),
            ("3pl:1,2,3", f"cannot parse --simulator spec '3pl:1,2,3' {usage}"),
            ("3pl:nan", "--simulator ability must be a finite number, not 'nan'"),
            ("3pl:0.5,inf", "--simulator ability must be a finite number, not 'inf'"),
            ("3pl:-inf,0", "--simulator ability must be a finite number, not '-inf'"),
            ("3pl:abc", "--simulator ability must be a finite number, not 'abc'"),
            ("3pl:1,", "--simulator ability must be a finite number, not ''"),
            ("3pl:,1", "--simulator ability must be a finite number, not ''"),
        ]:
            code = main(
                ["evaluate", "--base-bank", str(bank_path), "--mode", "static", "--simulator", spec,
                 "--out", str(tmp_path / "x")]
            )
            assert code == 1, spec
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "x").exists()


def _one_item_cat_banks():
    """A Base and a Combinatorial bank of one calibrated two-option item each, ``base0`` and ``comb0``."""
    banks = EvalBanks()
    for subset, label in (("Base", "base"), ("Combinatorial", "comb")):
        params = ItemParams(f"{label}0", 1.2, 0.0, 0.25, subset=subset)
        getattr(banks, label).append(PromptTask(params.item_id, "", "", ("A", "B"), frozenset({"A"}), params))
    return banks


RESPONSE_ROW = {
    "kind": "response", "question_id": "q", "subset": "comb", "raw_text": "A",
    "parsed_set": ["A"], "gold_set": ["A"], "exact": True, "f1": 1.0,
    "latency_ms": 0, "transport_status": "ok",
}
# The version every report and stats file carries.
VERSION = {"schema_version": SCHEMA_VERSION}
# The subset record a log of RESPONSE_ROW alone gives, and the dual block of a log with no cat_step row.
COMB_RECORD = {"n": 1, "accuracy": 1.0, "mean_f1": 1.0, "overlap_rate": 1.0, "parse_failures": 0,
               "transport_failures": 0}
PRIOR_DUAL = log_dual([]).to_record()


def _stored(**changes):
    """The report of a log of RESPONSE_ROW alone, with ``changes`` to its one subset."""
    return {**VERSION, "subsets": {"comb": {**COMB_RECORD, **changes}}}


class TestReport:
    def test_replay_matches_embedded_report(self, tmp_path, capsys):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=20)
        out_dir = tmp_path / "run"
        assert main(
            [
                "evaluate",
                "--base-bank", str(atomic),
                "--comb-bank", str(comb),
                "--base-items", str(base_items),
                "--comb-items", str(comb_items),
                "--mode", "cat",
                "--simulator", "3pl:0.5,-1.5",
                "--seed", "7",
                "--out", str(out_dir),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            ["report", "--log", str(out_dir / "run.jsonl"), "--report", str(out_dir / "report.json")]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "replay check: ok" in output
        assert "delta_theta" in output

    @pytest.mark.parametrize("version", [1, 2])
    def test_report_of_either_version_passes_the_replay_check(self, tmp_path, capsys, version):
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(RESPONSE_ROW) + "\n")
        report = tmp_path / "report.json"
        report.write_text(json.dumps({**_stored(), "schema_version": version}, indent=2, sort_keys=True) + "\n")
        assert main(["report", "--log", str(log), "--report", str(report)]) == 0
        assert "replay check: ok" in capsys.readouterr().out

    def test_cat_run_that_administers_nothing_replays(self, tmp_path, capsys):
        """A standard error target the prior already meets stops both sessions before any item. ``evaluate``
        rejects such a target, so the run is made through ``run_benchmark``. Its report replays with no dual
        block, and with the priors as one."""
        banks = _one_item_cat_banks()
        log, report = tmp_path / "run" / "run.jsonl", tmp_path / "run" / "report.json"
        run_benchmark(ScriptedResponder({}), banks, str(log), mode="cat", se_target=2.0)
        _, subsets, dual = read_run(str(log))
        assert subsets == {} and dual is None and log.read_text() == ""
        for record in (run_record(subsets, dual), run_record(subsets, log_dual([]))):
            save_json(str(report), record)
            capsys.readouterr()
            assert main(["report", "--log", str(log), "--report", str(report)]) == 0
            assert "replay check: ok" in capsys.readouterr().out

    def test_cat_run_whose_comb_items_all_fail_transport(self, tmp_path, capsys):
        """A subset with no scored step has the prior and accuracy 0 in the report, and report prints its estimate."""
        banks, script = EvalBanks(), {}
        for subset, label in (("Base", "base"), ("Combinatorial", "comb")):
            for i in range(6):
                params = ItemParams(f"{label}{i}", 1.2, i - 2.5, 0.25, subset=subset)
                getattr(banks, label).append(PromptTask(params.item_id, "", "", ("A", "B"), frozenset({"A"}), params))
                script[params.item_id] = ResponderReply("", "timeout") if label == "comb" else "AB"[i % 2]
        out_dir = tmp_path / "run"
        run_benchmark(ScriptedResponder(script), banks, str(out_dir / "run.jsonl"), mode="cat")
        _, subsets, dual = read_run(str(out_dir / "run.jsonl"))
        save_json(str(out_dir / "report.json"), run_record(subsets, dual))
        prior = CatSession.start("Combinatorial").estimate
        assert load_json(str(out_dir / "report.json"))["dual"]["comb"] == prior.to_record()
        assert dual.comb_accuracy == 0
        assert subsets["comb"].transport_failures == 6
        capsys.readouterr()
        assert main(["report", "--log", str(out_dir / "run.jsonl"), "--report", str(out_dir / "report.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"comb     theta={prior.theta_hat:+.3f} se={prior.se:.3f} n=0" in lines
        assert lines[-1] == "replay check: ok"

    @staticmethod
    def _cat_run(tmp_path):
        """The log and report of a small CAT run."""
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=12)
        out_dir = tmp_path / "run"
        assert main(
            [
                "evaluate", "--base-bank", str(atomic), "--comb-bank", str(comb),
                "--base-items", str(base_items), "--comb-items", str(comb_items),
                "--mode", "cat", "--simulator", "3pl:0.5,-1.5", "--out", str(out_dir),
            ]
        ) == 0
        return out_dir / "run.jsonl", out_dir / "report.json"

    def test_changed_log_estimate_fails_the_dual_replay(self, tmp_path, capsys):
        """The last scored base step's theta_hat set to 2.5 in the log disagrees with the report's dual block."""
        log, report = self._cat_run(tmp_path)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        last = max(i for i, row in enumerate(rows) if row["kind"] == "cat_step" and row["subset"] == "base")
        assert "theta_hat" in rows[last]
        rows[last]["theta_hat"] = 2.5
        log.write_text("".join(json.dumps(row) + "\n" for row in rows))
        dual = load_json(str(report))["dual"]
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: {report}: replay mismatch: dual.base.theta_hat: report {dual['base']['theta_hat']} vs log 2.5; "
            f"dual.delta_theta: report {dual['delta_theta']} vs log {2.5 - dual['comb']['theta_hat']}\n"
        )

    @pytest.mark.parametrize(
        "place", [("base", "se"), ("comb", "n_administered"), ("base_accuracy",), ("delta_theta",)]
    )
    def test_changed_dual_number_fails_replay(self, tmp_path, capsys, place):
        log, report = self._cat_run(tmp_path)
        data = load_json(str(report))
        parent = data["dual"][place[0]] if len(place) == 2 else data["dual"]
        logged = parent[place[-1]]
        parent[place[-1]] = logged + 0.5
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        mismatch = f"dual.{'.'.join(place)}: report {logged + 0.5!r} vs log {logged!r}"
        assert capsys.readouterr().err == f"error: {report}: replay mismatch: {mismatch}\n"

    @pytest.mark.parametrize(
        "place, change, mismatch",
        [
            (("subsets", "base", "accuracy"), lambda x: math.nextafter(x, 2.0), "base.accuracy: {numbers}"),
            (("subsets", "base", "accuracy"), lambda x: x + 5e-13, "base.accuracy: {numbers}"),
            (("dual", "base", "theta_hat"), lambda x: math.nextafter(x, -9.0), "dual.base.theta_hat: {numbers}"),
            (("subsets", "base", "forged_metric"), lambda x: 0.5, "base.forged_metric missing from log"),
            (("dual", "forged"), lambda x: 0.5, "dual.forged missing from log"),
        ],
        ids=["accuracy-ulp", "accuracy-5e-13", "theta-ulp", "extra-subset-key", "extra-dual-key"],
    )
    def test_least_change_to_a_report_fails_replay(self, tmp_path, capsys, place, change, mismatch):
        """Each of these passed a check with a tolerance of 1e-12 that ignored keys the log does not give."""
        log, report = self._cat_run(tmp_path)
        data = load_json(str(report))
        parent = data
        for key in place[:-1]:
            parent = parent[key]
        old = parent.get(place[-1])
        parent[place[-1]] = new = change(old)
        assert new != old
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        message = mismatch.format(numbers=f"report {new!r} vs log {old!r}")
        assert capsys.readouterr().err == f"error: {report}: replay mismatch: {message}\n"

    def test_numbers_of_the_same_value_replay(self, tmp_path, capsys):
        """A count written as 30.0 is the count 30, as every other number of the report is read."""
        log, report = self._cat_run(tmp_path)
        data = load_json(str(report))
        data["subsets"]["base"]["n"] = float(data["subsets"]["base"]["n"])
        data["dual"]["comb"]["n_administered"] = float(data["dual"]["comb"]["n_administered"])
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--report", str(report)]) == 0
        assert capsys.readouterr().out.endswith("replay check: ok\n")

    def test_report_without_its_dual_fails_replay(self, tmp_path, capsys):
        log, report = self._cat_run(tmp_path)
        data = load_json(str(report))
        del data["dual"]
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {report}: replay mismatch: dual missing from report\n"

    def test_cat_log_of_skipped_steps_needs_its_dual(self, tmp_path, capsys):
        """A CAT log whose every step was skipped has a dual block too: the priors."""
        banks = _one_item_cat_banks()
        script = {item_id: ResponderReply("", "http_error") for item_id in ("base0", "comb0")}
        log, report = tmp_path / "run" / "run.jsonl", tmp_path / "run" / "report.json"
        run_benchmark(ScriptedResponder(script), banks, str(log), mode="cat")
        record = run_record(*read_run(str(log))[1:])
        del record["dual"]
        save_json(str(report), record)
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {report}: replay mismatch: dual missing from report\n"

    def test_tampered_report_fails_replay(self, tmp_path, capsys):
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=20)
        out_dir = tmp_path / "run"
        assert main(
            [
                "evaluate",
                "--comb-bank", str(comb),
                "--comb-items", str(comb_items),
                "--base-bank", str(atomic),
                "--base-items", str(base_items),
                "--mode", "static",
                "--simulator", "3pl:0.5,-0.5",
                "--seed", "7",
                "--out", str(out_dir),
            ]
        ) == 0
        report_path = out_dir / "report.json"
        data = json.loads(report_path.read_text())
        data["subsets"]["base"]["accuracy"] = 0.999
        report_path.write_text(json.dumps(data))
        code = main(["report", "--log", str(out_dir / "run.jsonl"), "--report", str(report_path)])
        assert code == 1

    def test_tampered_overlap_rate_fails_replay(self, tmp_path, capsys):
        _, comb, _, _ = _pipeline(tmp_path, n_questions=8)
        out_dir = tmp_path / "run"
        assert main(["evaluate", "--comb-bank", str(comb), "--simulator", "memorization", "--out", str(out_dir)]) == 0
        report_path = out_dir / "report.json"
        data = json.loads(report_path.read_text())
        data["subsets"]["comb"]["overlap_rate"] += 0.5
        report_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--log", str(out_dir / "run.jsonl"), "--report", str(report_path)]) == 1
        assert "replay mismatch: comb.overlap_rate" in capsys.readouterr().err

    def test_empty_log_prints_no_records(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", "--log", str(log)]) == 0
        assert "no records" in capsys.readouterr().out

    def test_empty_log_fails_replay_check(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        report = tmp_path / "report.json"
        report.write_text(json.dumps({**VERSION, "subsets": {"base": {"n": 30}, "comb": {"n": 30}}}))
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        captured = capsys.readouterr()
        assert "no records" in captured.out
        assert "replay check: ok" not in captured.out
        mismatches = "base missing from log; comb missing from log"
        assert captured.err == f"error: {report}: replay mismatch: {mismatches}\n"

    def test_torn_line_names_log_and_line(self, tmp_path, capsys):
        """A torn last line, as a crash leaves it, is an error: report reads whole logs only."""
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(RESPONSE_ROW) + "\n" + '{"kind": "response", "question_id"')
        assert main(["report", "--log", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {log}:2: invalid JSON (Expecting ':' delimiter)\n"
        assert captured.out == ""

    def test_non_object_line_names_log_and_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("42\n" + json.dumps(RESPONSE_ROW) + "\n")
        assert main(["report", "--log", str(log)]) == 1
        assert capsys.readouterr().err == f"error: {log}:1: a row must be a JSON object, not 42\n"

    @pytest.mark.parametrize(
        "row, key",
        [
            ({k: v for k, v in RESPONSE_ROW.items() if k != "f1"}, "f1"),
            ({k: v for k, v in RESPONSE_ROW.items() if k != "transport_status"}, "transport_status"),
            ({"kind": "cat_step", "theta_hat": 0.5, "se": 0.4}, "subset"),
            ({"kind": "cat_step", "subset": "base", "theta_hat": 0.5}, "se"),
            ({k: v for k, v in RESPONSE_ROW.items() if k != "raw_text"}, "raw_text"),
            ({k: v for k, v in RESPONSE_ROW.items() if k != "latency_ms"}, "latency_ms"),
            ({k: v for k, v in RESPONSE_ROW.items() if k != "kind"}, "kind"),
            ({"kind": "cat_step", "subset": "base", "theta_hat": 0.5, "se": 0.4}, "response"),
            # Only "skipped": true makes a step skipped; one without it is scored and needs its estimate.
            ({"kind": "cat_step", "subset": "base", "se": 0.4, "response": True}, "theta_hat"),
            ({"kind": "cat_step", "subset": "comb", "skipped": False}, "theta_hat"),
        ],
    )
    def test_row_missing_key_names_log_and_line(self, tmp_path, capsys, row, key):
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(RESPONSE_ROW) + "\n\n" + json.dumps(row) + "\n")
        assert main(["report", "--log", str(log)]) == 1
        assert capsys.readouterr().err == f"error: {log}:3: missing key {key!r}\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ({**RESPONSE_ROW, "question_id": None, "subset": 7}, "question_id must be a non-empty string, not None"),
            ({**RESPONSE_ROW, "subset": 7}, "subset must be a string, not 7"),
            ({"kind": "cat_step", "subset": 7, "theta_hat": 0.5, "se": 0.4}, "subset must be a string, not 7"),
            ({"kind": "cat_step", "subset": 7, "skipped": True}, "subset must be a string, not 7"),
            (
                {"kind": "cat_step", "subset": "zzz", "theta_hat": 0.5, "se": 0.4, "response": True},
                "subset must be 'base' or 'comb', not 'zzz'",
            ),
            ({"kind": "cat_step", "subset": "Base", "skipped": True}, "subset must be 'base' or 'comb', not 'Base'"),
        ],
        ids=["null-id", "number-subset", "cat-step-subset", "skipped-step-subset", "unknown-step-subset",
             "skipped-step-unknown-subset"],
    )
    def test_row_with_an_uncoerced_label_names_log_and_line(self, tmp_path, capsys, row, message):
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(RESPONSE_ROW) + "\n" + json.dumps(row) + "\n")
        assert main(["report", "--log", str(log)]) == 1
        assert capsys.readouterr().err == f"error: {log}:2: {message}\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("theta_hat", True, "theta_hat must be a finite number, not True"),
            ("se", "0.5", "se must be a finite number, not '0.5'"),
            ("theta_hat", float("inf"), "invalid JSON (Infinity is not a JSON number)"),
            ("response", 1, "response must be a boolean, not 1"),
            ("skipped", 1, "skipped must be a boolean, not 1"),
            # The fields have their types but contradict each other.
            ("skipped", True, "a skipped step must not hold theta_hat, se, response"),
        ],
        ids=["bool-theta", "string-se", "inf-theta", "int-response", "int-skipped", "skipped-and-scored"],
    )
    def test_cat_step_estimate_of_another_type_names_log_and_line(self, tmp_path, capsys, key, value, message):
        """``"theta_hat": true`` is an error, not an ability of +1."""
        log = tmp_path / "log.jsonl"
        step = {"kind": "cat_step", "subset": "base", "theta_hat": 0.5, "se": 0.4, "response": True}
        log.write_text(json.dumps(RESPONSE_ROW) + "\n" + json.dumps({**step, key: value}) + "\n")
        assert main(["report", "--log", str(log)]) == 1
        assert capsys.readouterr().err == f"error: {log}:2: {message}\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("exact", "no", "exact must be true or false, not 'no'"),
            ("exact", 1, "exact must be true or false, not 1"),
            ("transport_status", 7, "transport_status must be a string, not 7"),
            ("raw_text", None, "raw_text must be a string, not None"),
            ("parsed_set", "AB", "parsed_set must be a list of strings, not 'AB'"),
            ("gold_set", ["A", 1], "gold_set must be a list of strings, not ['A', 1]"),
            ("f1", "1.0", "f1 must be a finite number, not '1.0'"),
            ("f1", True, "f1 must be a finite number, not True"),
            ("latency_ms", 2.5, "latency_ms must be an integer, not 2.5"),
            ("f1", float("nan"), "invalid JSON (NaN is not a JSON number)"),
            ("kind", 7, "kind must be 'response' or 'cat_step', not 7"),
            ("kind", "reply", "kind must be 'response' or 'cat_step', not 'reply'"),
            # The fields have their types but contradict each other.
            ("parsed_set", ["A", "C"], "parsed_set ['A', 'C'] against gold_set ['A'] scores exact=False and "
             "f1=0.6666666666666666, not exact=True and f1=1.0"),
            ("parsed_set", ["B"], "parsed_set ['B'] against gold_set ['A'] scores exact=False and f1=0.0, "
             "not exact=True and f1=1.0"),
            ("f1", 0.5, "parsed_set ['A'] against gold_set ['A'] scores exact=True and f1=1.0, "
             "not exact=True and f1=0.5"),
            ("gold_set", [], "gold set must be non-empty"),
            ("parsed_set", [], "transport_status 'ok' needs a non-empty parsed_set, not []"),
            ("transport_status", "parse_failure",
             "transport_status 'parse_failure' needs an empty parsed_set, not ['A']"),
            ("transport_status", "timeout", "transport_status 'timeout' needs an empty parsed_set, not ['A']"),
            ("transport_status", "http_error", "transport_status 'http_error' needs an empty parsed_set, not ['A']"),
            ("transport_status", "done", "transport_status must be one of 'ok', 'parse_failure', 'timeout', "
             "'http_error', not 'done'"),
        ],
    )
    def test_row_field_of_the_wrong_type_names_log_and_line(self, tmp_path, capsys, field, value, message):
        """A response row is read as logged: ``"exact": "no"`` is an error, not a correct answer."""
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(RESPONSE_ROW) + "\n" + json.dumps({**RESPONSE_ROW, field: value}) + "\n")
        assert main(["report", "--log", str(log)]) == 1
        assert capsys.readouterr().err == f"error: {log}:2: {message}\n"

    def test_log_subset_missing_from_report_fails_replay(self, tmp_path, capsys):
        _, comb, _, _ = _pipeline(tmp_path, n_questions=8)
        out_dir = tmp_path / "run"
        assert main(["evaluate", "--comb-bank", str(comb), "--simulator", "memorization", "--out", str(out_dir)]) == 0
        log = out_dir / "run.jsonl"
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({**RESPONSE_ROW, "subset": "forged"}) + "\n")
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--report", str(out_dir / "report.json")]) == 1
        captured = capsys.readouterr()
        assert "replay check: ok" not in captured.out
        report = out_dir / "report.json"
        assert captured.err == f"error: {report}: replay mismatch: forged missing from report\n"

    @pytest.mark.parametrize(
        "stored, message",
        [
            ([1], "schema_version None is not 1 or 2"),
            ({"schema_version": 99, "subsets": {}}, "schema_version 99 is not 1 or 2"),
            ({"schema_version": True, "subsets": {}}, "schema_version True is not 1 or 2"),
            ({**VERSION, "subsets": []}, f"replay mismatch: subsets: report [] vs log {{'comb': {COMB_RECORD!r}}}"),
            (VERSION, "replay mismatch: subsets missing from report"),
            ({**VERSION, "subsets": {"comb": 5}}, f"replay mismatch: comb: report 5 vs log {COMB_RECORD!r}"),
            (_stored(n=[1]), "replay mismatch: comb.n: report [1] vs log 1"),
            # json.dumps spells NaN and inf as NaN and Infinity, which the reader refuses
            (_stored(accuracy=float("nan")), "invalid JSON (NaN is not a JSON number)"),
            (_stored(mean_f1=float("inf")), "invalid JSON (Infinity is not a JSON number)"),
            # A boolean is not a number, though True == 1 in Python.
            (_stored(n=True), "replay mismatch: comb.n: report True vs log 1"),
            ({**_stored(), "dual": []}, f"replay mismatch: dual: report [] vs log {PRIOR_DUAL!r}"),
            ({**_stored(), "dual": {**PRIOR_DUAL, "base": {**PRIOR_DUAL["base"], "se": "0.3"}}},
             f"replay mismatch: dual.base.se: report '0.3' vs log {PRIOR_DUAL['base']['se']!r}"),
            ({**_stored(), "dual": {**PRIOR_DUAL, "delta_theta": float("nan")}}, "invalid JSON (NaN is not a JSON number)"),
            # Each of these passed a check with a tolerance of 1e-12 that ignored keys the log does not give.
            (_stored(accuracy=math.nextafter(1.0, 0.0)),
             f"replay mismatch: comb.accuracy: report {math.nextafter(1.0, 0.0)!r} vs log 1.0"),
            (_stored(mean_f1=1.0 - 5e-13), f"replay mismatch: comb.mean_f1: report {1.0 - 5e-13!r} vs log 1.0"),
            (_stored(forged_metric=0.5), "replay mismatch: comb.forged_metric missing from log"),
            ({**_stored(), "dual": {**PRIOR_DUAL, "forged": 1}}, "replay mismatch: dual.forged missing from log"),
            ({**_stored(), "dual": {**PRIOR_DUAL, "base": {**PRIOR_DUAL["base"], "forged": 1}}},
             "replay mismatch: dual.base.forged missing from log"),
            ({**VERSION, "subsets": {"comb": {k: v for k, v in COMB_RECORD.items() if k != "n"}}},
             "replay mismatch: comb.n missing from report"),
        ],
        ids=["list", "other-version", "true-version", "subsets-list", "no-subsets", "subset-int", "value-list", "nan-value",
             "infinite-value", "true-value", "dual-list", "dual-string-value", "dual-nan-value", "ulp-value",
             "5e-13-value", "extra-subset-key", "extra-dual-key", "extra-dual-estimate-key", "missing-subset-key"],
    )
    def test_malformed_report_rejected(self, tmp_path, capsys, stored, message):
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(RESPONSE_ROW) + "\n")
        report = tmp_path / "report.json"
        report.write_text(json.dumps(stored))
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        captured = capsys.readouterr()
        assert "replay check: ok" not in captured.out
        assert captured.err == f"error: {report}: {message}\n"

    def test_per_case_f1_table_for_small_logs(self, tmp_path, capsys):
        rows = []
        cases = [(["A"], ["A"], 1.0, True), (["A", "B", "C"], ["A", "B", "C", "D"], 6 / 7, False),
                 (["A"], ["A", "B", "C"], 0.5, False), (["B"], ["B"], 1.0, True)]
        for i, (parsed, gold, f1, exact) in enumerate(cases):
            rows.append(
                {
                    "kind": "response", "question_id": f"case-{i + 1}", "subset": "comb",
                    "raw_text": "", "parsed_set": parsed, "gold_set": gold, "exact": exact,
                    "f1": f1, "latency_ms": 0, "transport_status": "ok",
                }
            )
        log = tmp_path / "cases.jsonl"
        write_jsonl(log, rows)
        assert main(["report", "--log", str(log)]) == 0
        output = capsys.readouterr().out
        for expected in ("f1=1.000", "f1=0.857", "f1=0.500"):
            assert expected in output


def _opens_to_read(node):
    """Whether ``node`` calls the builtin ``open`` with a mode that holds none of ``w``, ``a``, ``x`` and ``+``;
    a mode that is not a literal counts as reading."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"))


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports combicat from this checkout."""
    src = os.path.dirname(os.path.dirname(combicat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


# Runs main(argv) with requests unimportable: any import of it raises ModuleNotFoundError.
_MAIN_WITHOUT_REQUESTS = (
    "import sys; sys.modules['requests'] = None; from combicat.cli import main; sys.exit(main(sys.argv[1:]))"
)


class TestStartUp:
    def test_import_loads_neither_transport_nor_statistics(self):
        result = _run_python(
            "import sys, combicat.cli; print([m for m in ('requests', 'urllib3', 'urllib.request', 'http.client', "
            "'ssl', 'statistics') if m in sys.modules])"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_offline_command_runs_without_requests(self, tmp_path, bank_file):
        bank_path, _ = bank_file
        out = tmp_path / "comb.json"
        result = _run_python(_MAIN_WITHOUT_REQUESTS, "synthesize", "--bank", str(bank_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert len(load_comb_bank(str(out))) == 16

    def test_endpoint_run_needs_no_requests(self, tmp_path, bank_file, mock_server):
        bank_path, questions = bank_file
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": f"{mock_server}/echo", "model_name": "m"}))
        out_dir = tmp_path / "run"
        result = _run_python(
            _MAIN_WITHOUT_REQUESTS,
            "evaluate", "--base-bank", str(bank_path), "--endpoint", str(endpoint), "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        rows = read_jsonl(str(out_dir / "run.jsonl"))
        assert [row["question_id"] for _, row in rows] == [question.id for question in questions]
        assert {(row["raw_text"], row["transport_status"]) for _, row in rows} == {("A", "ok")}
        assert load_json(str(out_dir / "report.json"))["subsets"]["base"]["n"] == len(questions)

    def test_missing_api_key_leaves_an_earlier_log_untouched(
        self, tmp_path, bank_file, mock_server, monkeypatch, capsys
    ):
        bank_path, _ = bank_file
        monkeypatch.delenv("COMBICAT_TEST_KEY", raising=False)
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(
            json.dumps({"base_url": f"{mock_server}/echo", "model_name": "m", "api_key_env": "COMBICAT_TEST_KEY"})
        )
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        (out_dir / "run.jsonl").write_text("earlier run\n")
        code = main(["evaluate", "--base-bank", str(bank_path), "--endpoint", str(endpoint), "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {endpoint}: environment variable 'COMBICAT_TEST_KEY' is not set\n"
        assert (out_dir / "run.jsonl").read_text() == "earlier run\n"
        assert sorted(path.name for path in out_dir.iterdir()) == ["run.jsonl"]

    def test_runtime_imports_only_the_standard_library(self):
        """Also: only the two readers that decode UTF-8 and name a bad file open one for reading."""
        package = os.path.dirname(combicat.__file__)
        imported, readers = set(), set()
        for filename in sorted(os.listdir(package)):
            if filename.endswith(".py"):
                with open(os.path.join(package, filename), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=filename)
                opens, owner = [], {}  # each reading open() call, and the innermost function around each node
                for node in ast.walk(tree):  # imports inside functions too; outer functions before inner ones
                    if isinstance(node, ast.Import):
                        imported.update((filename, alias.name.partition(".")[0]) for alias in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        imported.add((filename, node.module.partition(".")[0]))
                    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owner.update((id(inner), node.name) for inner in ast.walk(node))
                    elif _opens_to_read(node):
                        opens.append(node)
                readers.update((filename, owner.get(id(call))) for call in opens)
        assert ("harness.py", "urllib") in imported
        assert [
            pair for pair in sorted(imported) if pair[1] != "combicat" and pair[1] not in sys.stdlib_module_names
        ] == []
        assert readers == {("bankio.py", "load_json"), ("bankio.py", "read_jsonl")}, readers
