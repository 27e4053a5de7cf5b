"""End-to-end subcommand behavior on temporary working directories."""

import argparse
import json
from dataclasses import replace

import pytest

from combicat.bankio import (
    CalibratedItem,
    load_comb_bank,
    load_item_bank,
    load_json,
    read_jsonl,
    save_atomic_bank,
    save_item_bank,
)
from combicat.cli import build_parser, main
from combicat.scoring import SCORED_METRICS
from combicat.synthesis import NOTA_TEXT, tier_config, verify
from conftest import make_atomic_bank, make_trace_corpus, write_jsonl


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
                    "--tier", "Expert",
                    "--seed", "11",
                ]
            )
            assert code == 0
        assert out_a.read_text() == out_b.read_text()
        questions = load_comb_bank(str(out_a))
        assert len(questions) == 16
        cfg = tier_config("Expert")
        assert all(verify(q, cfg).valid for q in questions)
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

    def test_unknown_tier_fails(self, tmp_path, bank_file):
        bank_path, _ = bank_file
        code = main(
            ["synthesize", "--bank", str(bank_path), "--out", str(tmp_path / "x.json"), "--tier", "Impossible"]
        )
        assert code == 1

    def test_bad_tier_split_fails(self, tmp_path, bank_file, capsys):
        bank_path, _ = bank_file
        out = tmp_path / "comb.json"
        code = main(["synthesize", "--bank", str(bank_path), "--out", str(out), "--tier-split", "Foo:1"])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown tier 'Foo' in split\n"
        assert not out.exists()

    def test_inline_source_tier_does_not_overwrite_synthesized_tier(self, tmp_path):
        source = make_atomic_bank(4, seed=9)
        source[0] = replace(source[0], extras={"tier": "Easy", "note": "kept"})
        bank_path = tmp_path / "atomic.json"
        save_atomic_bank(str(bank_path), source)
        out = tmp_path / "comb.json"
        code = main(["synthesize", "--bank", str(bank_path), "--out", str(out), "--tier", "Expert"])
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
        scored = [row for _, row in read_jsonl(str(out))[0]]
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
        scored = [row for _, row in read_jsonl(str(out))[0]]
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
            (lambda stats: stats["means"].pop("logic_density"), "missing key 'logic_density'"),
            (
                lambda stats: stats["stds"].update(dict.fromkeys(SCORED_METRICS, 0.0)),
                "std of oscillation is below the floor 1e-08",
            ),
            (
                lambda stats: stats["means"].update(chain_steps="0.5"),
                "mean of chain_steps must be a finite number, not '0.5'",
            ),
        ],
        ids=["missing-mean", "zero-stds", "string-mean"],
    )
    def test_malformed_stats_file_rejected(self, tmp_path, capsys, corrupt, message):
        traces = tmp_path / "traces.jsonl"
        write_jsonl(traces, [{"question_id": "a", "text": "x y"}, {"question_id": "b", "text": "therefore z"}])
        stats = tmp_path / "stats.json"
        first = ["score-traces", "--traces", str(traces), "--out", str(tmp_path / "a.jsonl"), "--stats-out", str(stats)]
        assert main(first) == 0
        data = load_json(str(stats))
        corrupt(data["stats"])
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
        scored = {row["question_id"]: row for _, row in read_jsonl(str(out))[0]}
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
            ["synthesize", "--bank", str(bank_path), "--out", str(comb_path), "--tier", "Hard", "--seed", "2"]
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
        assert main(["synthesize", "--bank", str(bank_path), "--out", str(comb_path), "--tier", "Hard"]) == 0
        question_id, letter = _add_distractor_to_answer_set(comb_path)
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(comb_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {comb_path}: record 0: question {question_id!r}: ")
        assert f"truth-mismatch: option {letter} evaluates False but is labelled correct" in err
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

    def test_non_object_score_line_skipped_as_corrupt(self, tmp_path, bank_file, caplog):
        bank_path, questions = bank_file
        row = {
            "question_id": questions[0].id,
            "gold_score": 25.0,
            "tier": "Hard",
            "metrics": {"logic_density": 2.0, "token_count": 1000, "segment_count": 100},
        }
        scores = tmp_path / "scores.jsonl"
        scores.write_text("42\n" + json.dumps(row) + "\n")
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]) == 0
        assert [item.question_id for item in load_item_bank(str(out))] == [questions[0].id]
        assert "skipped 1 corrupt score rows" in caplog.text

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
        scores.write_text("\n".join(["[1]"] + [json.dumps(row) for row in rows]) + "\n")
        out = tmp_path / "items.json"
        assert main(["calibrate", "--bank", str(bank_path), "--scores", str(scores), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scores}:4: question_id {questions[0].id!r} repeats line 2\n"
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
            "score-traces": [["--weights-config", "x.json"], ["--lexicon", "x.json"]],
            "calibrate": [["--m", "6"]],
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

    def test_each_subcommand_takes_only_its_pinned_flags(self):
        """Adding a setting means adding it here."""
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: [flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")]
            for name, sub in subparsers.choices.items()
        }
        assert flags == {
            "synthesize": ["--bank", "--out", "--tier", "--tier-split", "--seed", "--m"],
            "score-traces": ["--traces", "--out", "--stats-out", "--stats", "--locale"],
            "calibrate": ["--bank", "--scores", "--out", "--subset"],
            "evaluate": [
                "--base-bank", "--comb-bank", "--base-items", "--comb-items", "--mode", "--simulator",
                "--endpoint", "--baseline", "--seed", "--max-items", "--se-target", "--out",
            ],
            "report": ["--log", "--report"],
        }
        assert sum(map(len, flags.values())) == 29


def _add_distractor_to_answer_set(comb_path):
    """Label one wrong option of the first question correct; returns its id and letter."""
    data = load_json(str(comb_path))
    question = data["questions"][0]
    letter = next(o["letter"] for o in question["options"] if o["letter"] not in question["answer_set"])
    question["answer_set"].append(letter)
    comb_path.write_text(json.dumps(data))
    return question["id"], letter


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
        atomic, comb, _, comb_items = _pipeline(tmp_path, n_questions=12)
        scores = tmp_path / "scores.jsonl"
        base_items = tmp_path / "mislabeled_items.json"
        assert main(
            [
                "calibrate", "--bank", str(atomic), "--scores", str(scores),
                "--subset", "Combinatorial", "--out", str(base_items),
            ]
        ) == 0
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
        assert main(
            [
                "calibrate", "--bank", str(atomic), "--scores", str(tmp_path / "scores.jsonl"),
                "--subset", "Combinatorial", "--out", str(mislabeled),
            ]
        ) == 0
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
        assert "error: environment variable 'COMBICAT_TEST_KEY' is not set" in capsys.readouterr().err
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

    def test_bad_simulator_spec_rejected(self, tmp_path, bank_file):
        bank_path, _ = bank_file
        code = main(
            [
                "evaluate",
                "--base-bank", str(bank_path),
                "--mode", "static",
                "--simulator", "magic",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1


RESPONSE_ROW = {
    "kind": "response", "question_id": "q", "subset": "comb", "raw_text": "A",
    "parsed_set": ["A"], "gold_set": ["A"], "exact": True, "f1": 1.0,
    "latency_ms": 0, "transport_status": "ok",
}


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

    def test_cat_run_that_administers_nothing_replays(self, tmp_path, capsys):
        """A standard error target the prior already meets stops both sessions before any item."""
        atomic, comb, base_items, comb_items = _pipeline(tmp_path, n_questions=8)
        out_dir = tmp_path / "run"
        assert main(
            [
                "evaluate", "--base-bank", str(atomic), "--comb-bank", str(comb),
                "--base-items", str(base_items), "--comb-items", str(comb_items),
                "--mode", "cat", "--simulator", "3pl:0.5,-1.5", "--se-target", "2", "--out", str(out_dir),
            ]
        ) == 0
        assert load_json(str(out_dir / "report.json"))["subsets"] == {}
        capsys.readouterr()
        assert main(["report", "--log", str(out_dir / "run.jsonl"), "--report", str(out_dir / "report.json")]) == 0
        assert "replay check: ok" in capsys.readouterr().out

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
        report.write_text(json.dumps({"subsets": {"base": {"n": 30}, "comb": {"n": 30}}}))
        assert main(["report", "--log", str(log), "--report", str(report)]) == 1
        captured = capsys.readouterr()
        assert "no records" in captured.out
        assert "replay check: ok" not in captured.out
        assert "replay mismatch: subset 'base' missing from log" in captured.err
        assert "replay mismatch: subset 'comb' missing from log" in captured.err

    def test_truncated_line_skipped_with_count(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        good = {
            "kind": "response", "question_id": "q", "subset": "comb", "raw_text": "A",
            "parsed_set": ["A"], "gold_set": ["A"], "exact": True, "f1": 1.0,
            "latency_ms": 0, "transport_status": "ok",
        }
        log.write_text(json.dumps(good) + "\n" + '{"kind": "response", "question_id"')
        assert main(["report", "--log", str(log)]) == 0
        output = capsys.readouterr().out
        assert "skipped lines: 1" in output

    def test_non_object_line_skipped_with_count(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("42\n" + json.dumps(RESPONSE_ROW) + "\n")
        assert main(["report", "--log", str(log)]) == 0
        output = capsys.readouterr().out
        assert "comb     n=1 " in output
        assert "skipped lines: 1" in output

    @pytest.mark.parametrize(
        "row, key",
        [
            ({k: v for k, v in RESPONSE_ROW.items() if k != "f1"}, "f1"),
            ({k: v for k, v in RESPONSE_ROW.items() if k != "transport_status"}, "transport_status"),
            ({"kind": "cat_step", "theta_hat": 0.5, "se": 0.4}, "subset"),
            ({"kind": "cat_step", "subset": "base", "theta_hat": 0.5}, "se"),
        ],
    )
    def test_row_missing_key_names_log_and_line(self, tmp_path, capsys, row, key):
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(RESPONSE_ROW) + "\n\n" + json.dumps(row) + "\n")
        assert main(["report", "--log", str(log)]) == 1
        assert capsys.readouterr().err == f"error: {log}:3: missing key {key!r}\n"

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
        assert captured.err == "replay mismatch: subset 'forged' missing from report\n"

    @pytest.mark.parametrize(
        "stored, message",
        [
            ([1], "a report must be an object whose 'subsets' is an object"),
            ({"subsets": []}, "a report must be an object whose 'subsets' is an object"),
            ({"subsets": {"comb": 5}}, "subset 'comb' must be an object of numbers"),
            ({"subsets": {"comb": {"n": [1]}}}, "subset 'comb' must be an object of numbers"),
        ],
        ids=["list", "subsets-list", "subset-int", "value-list"],
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
        for i, (f1, exact) in enumerate([(1.0, True), (0.857, False), (0.5, False), (1.0, True)]):
            rows.append(
                {
                    "kind": "response", "question_id": f"case-{i + 1}", "subset": "comb",
                    "raw_text": "", "parsed_set": ["A"], "gold_set": ["A"], "exact": exact,
                    "f1": f1, "latency_ms": 0, "transport_status": "ok",
                }
            )
        log = tmp_path / "cases.jsonl"
        write_jsonl(log, rows)
        assert main(["report", "--log", str(log)]) == 0
        output = capsys.readouterr().out
        for expected in ("f1=1.000", "f1=0.857", "f1=0.500"):
            assert expected in output
