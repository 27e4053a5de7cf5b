"""Prompt construction, answer parsing, scoring, transport, and benchmark runs."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combicat.bankio import read_jsonl
from combicat.harness import (
    SYSTEM_PROMPT,
    EndpointConfig,
    EndpointResponder,
    EvalBanks,
    JsonlWriter,
    MemorizationRespondent,
    MissingApiKeyError,
    PromptTask,
    ResponderReply,
    ResponseRecord,
    RunSettings,
    SimulatedRespondent,
    administer,
    aggregate_log_records,
    build_task,
    parse_answer,
    query_model,
    run_benchmark,
    score_response,
)
from combicat.irt import ItemParams, probability_3pl
from combicat.logic import all_patterns
from combicat.synthesis import CombinatorialQuestion, OptionEntry, assemble, tier_config
from combicat.rng import PortableRng
from conftest import ScriptedResponder, make_atomic_question

LETTERS = "ABCDEFGH"


def fixture_comb_question(qid: str, m: int, answer_set: set[str]) -> CombinatorialQuestion:
    """Hand-built combinatorial question for scoring tests (not verified)."""
    patterns = all_patterns()
    options = tuple(
        OptionEntry(LETTERS[i], patterns[i].expand(), f"candidate claim {LETTERS[i]}")
        for i in range(m)
    )
    return CombinatorialQuestion(
        id=qid,
        source_id=qid,
        context="Evaluate the candidate claims.",
        statements=("s one", "s two", "s three", "s four"),
        options=options,
        answer_set=frozenset(answer_set),
        tier="Hard",
        seed=0,
        source_answer="I",
    )


# The four replayed grading vectors: prediction text against gold set, with
# the expected exact flag and F1.
REPLAY_CASES = [
    ("case-1", 5, {"B", "D"}, "reasoning about premises...\nB, D", True, 1.0),
    ("case-2", 6, {"A", "B", "E", "F"}, "long analysis...\nA, E, F", False, 6.0 / 7.0),
    ("case-3", 5, {"B", "D", "E"}, "careful elimination...\n**B**", False, 0.5),
    ("case-4", 5, {"E"}, "the assumption is required.\nE", True, 1.0),
]


class TestBuildPrompt:
    def test_system_text_contains_the_format_line(self):
        system_text = build_task(make_atomic_question(0)).system_text
        assert '- Format: "A" or "A, B" or "B, C, D"' in system_text
        assert system_text == SYSTEM_PROMPT

    def test_atomic_options_lettered_one_per_line(self):
        question = make_atomic_question(0, "II")
        lines = build_task(question).user_text.splitlines()
        assert f"A. {question.options['I']}" in lines
        assert f"D. {question.options['IV']}" in lines

    def test_combinatorial_statements_precede_options(self):
        combinatorial = assemble(make_atomic_question(1, "III"), tier_config("Hard"), 9)
        user_text = build_task(combinatorial).user_text
        assert user_text.index("I. ") < user_text.index("A. ")
        for statement in combinatorial.statements:
            assert statement in user_text

    def test_prompts_deterministic(self):
        question = make_atomic_question(2, "I")
        assert build_task(question) == build_task(question)

    def test_task_gold_set_for_atomic_maps_answer_to_letter(self):
        task = build_task(make_atomic_question(0, "III"))
        assert task.gold_set == frozenset({"C"})
        assert task.valid_letters == ("A", "B", "C", "D")


class TestParseAnswer:
    def test_plain_final_line(self):
        assert parse_answer("...reasoning...\nA, B", "ABCDEF") == {"A", "B"}

    def test_emphasis_stripped(self):
        assert parse_answer("text\n**B, D**", "ABCDEF") == {"B", "D"}

    def test_unparseable_returns_empty(self):
        assert parse_answer("no answer given", "ABCDEF") == set()

    def test_inline_fallback_takes_last_list(self):
        raw = "Maybe A, B. On reflection the answer is C, D."
        assert parse_answer(raw, "ABCDEF") == {"C", "D"}

    def test_joined_letters_accepted(self):
        assert parse_answer("final:\nBD", "ABCDEF") == {"B", "D"}

    def test_joined_lowercase_word_rejected(self):
        # "bad" must not parse as {B, A, D}
        assert parse_answer("bad", "ABCDEF") == set()

    def test_and_separator(self):
        assert parse_answer("B and D", "ABCDEF") == {"B", "D"}

    def test_last_line_wins_over_earlier_lists(self):
        raw = "A, B\nC, D"
        assert parse_answer(raw, "ABCDEF") == {"C", "D"}

    def test_letters_outside_valid_set_disqualify_line(self):
        assert parse_answer("A, Z", "ABCD") == {"A"}  # falls back to the inline letter list

    def test_case_insensitive_tokens(self):
        assert parse_answer("final\nb, d", "ABCDEF") == {"B", "D"}

    def test_empty_valid_letters_rejected(self):
        with pytest.raises(ValueError):
            parse_answer("A", "")

    def test_canonical_round_trip(self):
        for letters in ({"A"}, {"A", "B"}, {"B", "C", "D"}):
            rendered = ", ".join(sorted(letters))
            assert parse_answer(rendered, "ABCDEF") == letters


class TestScoreResponse:
    @pytest.mark.parametrize("qid, m, gold, raw, exact, f1", REPLAY_CASES)
    def test_replay_fixture_values(self, qid, m, gold, raw, exact, f1):
        pred = parse_answer(raw, LETTERS[:m])
        got_exact, got_f1 = score_response(pred, gold)
        assert got_exact is exact
        assert got_f1 == pytest.approx(f1, abs=5e-3)

    def test_empty_prediction_scores_zero(self):
        assert score_response(set(), {"A"}) == (False, 0.0)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            score_response({"A"}, set())

    @given(
        pred=st.sets(st.sampled_from("ABCDEF"), max_size=6),
        gold=st.sets(st.sampled_from("ABCDEF"), min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_symmetry_and_exactness(self, pred, gold):
        exact, f1 = score_response(pred, gold)
        assert exact == (pred == gold)
        assert (f1 == 1.0) == exact
        if pred:
            _, reverse = score_response(gold, pred)
            assert f1 == pytest.approx(reverse)


class _Handler(BaseHTTPRequestHandler):
    flaky_failures_left = 1

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        if self.path == "/echo":
            self._send(200, {"choices": [{"message": {"content": "A"}}]})
        elif self.path == "/flaky":
            if _Handler.flaky_failures_left > 0:
                _Handler.flaky_failures_left -= 1
                self._send(500, {"error": "transient"})
            else:
                self._send(200, {"choices": [{"message": {"content": "B, C"}}]})
        elif self.path == "/slow":
            time.sleep(3)
            self._send(200, {"choices": [{"message": {"content": "A"}}]})
        elif self.path == "/badbody":
            self._send(200, {"unexpected": "shape"})
        elif self.path == "/denied":
            self._send(403, {"error": "forbidden"})
        else:
            self._send(404, {"error": "not found"})

    def log_message(self, *args) -> None:  # silence test output
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):  # client hangups are expected
        pass


@pytest.fixture(scope="module")
def mock_server():
    server = _QuietServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


class TestQueryModel:
    def test_echo_round_trip(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/echo", model_name="m")
        result = query_model(endpoint, "sys", "user")
        assert result.transport_status == "ok"
        assert result.raw_text == "A"
        assert result.retries == 0

    def test_transient_error_retried_once(self, mock_server):
        _Handler.flaky_failures_left = 1
        endpoint = EndpointConfig(base_url=f"{mock_server}/flaky", model_name="m", max_retries=2)
        result = query_model(endpoint, "sys", "user")
        assert result.transport_status == "ok"
        assert result.raw_text == "B, C"
        assert result.retries == 1

    def test_timeout_reported_without_crash(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/slow", model_name="m", timeout_seconds=1)
        result = query_model(endpoint, "sys", "user")
        assert result.transport_status == "timeout"

    def test_non_retryable_http_error(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/denied", model_name="m")
        result = query_model(endpoint, "sys", "user")
        assert result.transport_status == "http_error"
        assert result.http_status == 403

    def test_malformed_body_is_http_error(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/badbody", model_name="m")
        result = query_model(endpoint, "sys", "user")
        assert result.transport_status == "http_error"

    def test_missing_api_key_rejected(self, mock_server, monkeypatch):
        monkeypatch.delenv("COMBICAT_TEST_KEY", raising=False)
        endpoint = EndpointConfig(
            base_url=f"{mock_server}/echo", model_name="m", api_key_env="COMBICAT_TEST_KEY"
        )
        with pytest.raises(MissingApiKeyError):
            query_model(endpoint, "sys", "user")

    def test_api_key_sent_when_present(self, mock_server, monkeypatch):
        monkeypatch.setenv("COMBICAT_TEST_KEY", "sekrit")
        endpoint = EndpointConfig(
            base_url=f"{mock_server}/echo", model_name="m", api_key_env="COMBICAT_TEST_KEY"
        )
        assert query_model(endpoint, "sys", "user").transport_status == "ok"

    def test_endpoint_responder_timeout_becomes_skippable_record(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/slow", model_name="m", timeout_seconds=1)
        responder = EndpointResponder(endpoint)
        record = administer(responder, build_task(make_atomic_question(0)), "base")
        assert record.transport_status == "timeout"
        assert record.parsed_set == frozenset()
        assert record.exact is False

    def test_invalid_endpoint_config_rejected(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_name="m", timeout_seconds=0)


class TestResponders:
    def test_scripted_replay_cases(self):
        responder = ScriptedResponder({qid: raw for qid, _, _, raw, _, _ in REPLAY_CASES})
        for qid, m, gold, _, exact, f1 in REPLAY_CASES:
            question = fixture_comb_question(qid, m, gold)
            record = administer(responder, build_task(question), "comb")
            assert record.exact is exact
            assert record.f1 == pytest.approx(f1, abs=5e-3)

    def test_scripted_missing_id_is_parse_failure(self):
        responder = ScriptedResponder({})
        record = administer(responder, build_task(fixture_comb_question("x", 5, {"A"})), "comb")
        assert record.transport_status == "parse_failure"

    def test_memorization_pick_is_one_valid_letter(self):
        responder = MemorizationRespondent(seed=4)
        task = build_task(fixture_comb_question("m", 6, {"A", "B"}))
        for _ in range(20):
            reply = responder.respond(task)
            assert reply.raw_text in task.valid_letters

    def test_simulator_requires_params(self):
        responder = SimulatedRespondent(0.0, seed=1)
        with pytest.raises(ValueError):
            responder.respond(build_task(fixture_comb_question("s", 5, {"A"})))

    def test_simulator_wrong_answers_never_equal_gold(self):
        params = ItemParams("s", a=1.0, b=5.0, c=0.0)  # nearly always wrong at theta 0
        responder = SimulatedRespondent(0.0, seed=2)
        task = build_task(fixture_comb_question("s", 6, {"A", "C"}), params)
        wrong_seen = 0
        for _ in range(50):
            reply = responder.respond(task)
            parsed = parse_answer(reply.raw_text, task.valid_letters)
            if parsed != {"A", "C"}:
                wrong_seen += 1
                assert parsed  # never empty
        assert wrong_seen > 40

    def test_simulator_per_subset_theta(self):
        responder = SimulatedRespondent({"Base": 9.0, "Combinatorial": -9.0}, seed=3)
        easy = build_task(
            fixture_comb_question("e", 5, {"A"}), ItemParams("e", 1.0, 0.0, 0.0, subset="Base")
        )
        hard = build_task(
            fixture_comb_question("h", 5, {"A"}),
            ItemParams("h", 1.0, 0.0, 0.0, subset="Combinatorial"),
        )
        assert parse_answer(responder.respond(easy).raw_text, easy.valid_letters) == {"A"}
        assert parse_answer(responder.respond(hard).raw_text, hard.valid_letters) != {"A"}


def logged_responses(log_path) -> list[ResponseRecord]:
    """The response rows of a run log, read back from the file."""
    rows, skipped = read_jsonl(str(log_path))
    assert skipped == 0
    return [ResponseRecord.from_record(row) for _, row in rows if row["kind"] == "response"]


def cat_banks(n: int, seed: int) -> EvalBanks:
    """Calibrated base (atomic) and combinatorial tasks for adaptive runs."""
    rng = PortableRng(seed)
    base, comb = [], []
    for i in range(n):
        base_params = ItemParams(f"B{i:02d}", 1.6, -3 + 6 * rng.random(), 0.25, subset="Base")
        base.append(build_task(make_atomic_question(i), base_params))
        comb_params = ItemParams(f"C{i:02d}", 1.6, -3 + 6 * rng.random(), 1.0 / 6.0, subset="Combinatorial")
        comb.append(build_task(fixture_comb_question(f"c{i}", 6, {"A", "C"}), comb_params))
    return EvalBanks(base=base, comb=comb)


class TestRunsAndLogs:
    def test_static_run_writes_replayable_log(self, tmp_path):
        questions = [fixture_comb_question(f"q{i}", 6, {"A", "B"}) for i in range(6)]
        responder = ScriptedResponder({q.id: "A, B" for q in questions[:4]})
        banks = EvalBanks(comb=[build_task(q) for q in questions])
        log_path = tmp_path / "run" / "run.jsonl"
        report = run_benchmark(responder, banks, str(log_path), mode="static")
        assert report.subsets["comb"].n == 6
        assert report.subsets["comb"].accuracy == pytest.approx(4 / 6)
        assert report.subsets == aggregate_log_records(logged_responses(log_path))

    def test_static_run_with_baselines_reports_the_aggregates_of_its_log(self, tmp_path):
        atomic = [make_atomic_question(i) for i in range(8)]
        comb = [fixture_comb_question(f"c{i}", 6, {"A", "C"}) for i in range(5)]
        banks = EvalBanks(
            base=[build_task(q) for q in atomic],
            comb=[build_task(q) for q in comb],
            baselines={
                "shuffle": [build_task(q) for q in atomic[:6]],
                "nota": [build_task(q) for q in atomic[2:]],
                "empty": [],
            },
        )
        script = {q.id: "ABCD"[i % 4] for i, q in enumerate(atomic[:6])}
        script.update({comb[0].id: "A, C", comb[1].id: "A", comb[2].id: "no answer"})
        log_path = tmp_path / "run.jsonl"
        report = run_benchmark(ScriptedResponder(script), banks, str(log_path), mode="static")
        # base, the baselines by name, then comb; a subset that administered nothing is not listed
        assert list(report.subsets) == ["base", "nota", "shuffle", "comb"]
        assert [report.subsets[label].n for label in report.subsets] == [8, 6, 6, 5]
        assert report.subsets == aggregate_log_records(logged_responses(log_path))

    def test_static_accuracy_converges_to_mean_probability(self, tmp_path):
        """Simulated accuracy over a large static bank approaches mean 3PL P."""
        rng = PortableRng(11)
        tasks = []
        for i in range(10000):
            params = ItemParams(f"p{i}", a=1.2, b=-2.0 + 4.0 * rng.random(), c=1.0 / 6.0)
            tasks.append(build_task(fixture_comb_question(f"p{i}", 6, {"A", "B"}), params))
        responder = SimulatedRespondent(0.3, seed=12)
        report = run_benchmark(responder, EvalBanks(comb=tasks), str(tmp_path / "run.jsonl"), mode="static")
        expected = fmean(probability_3pl(0.3, task.params) for task in tasks)
        assert report.subsets["comb"].accuracy == pytest.approx(expected, abs=0.02)

    def test_cat_mode_requires_params(self, tmp_path):
        banks = EvalBanks(
            base=[build_task(make_atomic_question(0))],
            comb=[build_task(fixture_comb_question("c", 5, {"A"}))],
        )
        with pytest.raises(ValueError, match="parameters"):
            run_benchmark(ScriptedResponder({}), banks, str(tmp_path / "run" / "run.jsonl"), mode="cat")
        assert not (tmp_path / "run").exists()

    def test_cat_mode_dual_report_and_step_log(self, tmp_path):
        responder = SimulatedRespondent({"Base": 1.0, "Combinatorial": -1.0}, seed=5)
        log_path = tmp_path / "run.jsonl"
        report = run_benchmark(
            responder, cat_banks(80, seed=21), str(log_path), mode="cat", settings=RunSettings(seed=5)
        )
        assert report.dual is not None
        assert report.dual.delta_theta > 0
        assert report.dual.base.n_administered <= 60
        rows = [json.loads(line) for line in log_path.read_text().splitlines()]
        kinds = {row["kind"] for row in rows}
        assert kinds == {"response", "cat_step"}

    def test_cat_run_with_transport_failures_reports_the_aggregates_of_its_log(self, tmp_path):
        banks = cat_banks(40, seed=23)
        script: dict[str, str | ResponderReply] = {}
        for i, task in enumerate(banks.base + banks.comb):
            if i % 3 == 0:
                script[task.question_id] = ResponderReply("", "timeout", 1000)
            elif i % 5 == 0:
                script[task.question_id] = ResponderReply("busy", "http_error", 20, http_status=503)
            elif i % 2 == 0:
                script[task.question_id] = ", ".join(sorted(task.gold_set))
            else:
                script[task.question_id] = "B"
        log_path = tmp_path / "run.jsonl"
        report = run_benchmark(ScriptedResponder(script), banks, str(log_path), mode="cat")
        assert list(report.subsets) == ["base", "comb"]
        assert all(result.transport_failures > 0 for result in report.subsets.values())
        assert report.subsets == aggregate_log_records(logged_responses(log_path))

    def test_unknown_mode_rejected(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        with pytest.raises(ValueError):
            run_benchmark(ScriptedResponder({}), EvalBanks(), str(log_path), mode="nonsense")
        assert not log_path.exists()

    def test_jsonl_writer_serializes_threads(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with JsonlWriter(str(path)) as writer:
            threads = [
                threading.Thread(target=lambda k=k: [writer.write({"k": k, "i": i}) for i in range(50)])
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        lines = path.read_text().splitlines()
        assert len(lines) == 200
        for line in lines:
            json.loads(line)


class TestMemorizationBound:
    def test_hit_rate_tracks_answer_share_smoke(self):
        """Small-scale version of the contamination bound check."""
        rng = PortableRng(31)
        questions = []
        for i in range(50):
            size = 1 + rng.below(3)
            letters = set()
            while len(letters) < size:
                letters.add(LETTERS[rng.below(6)])
            questions.append(fixture_comb_question(f"m{i}", 6, letters))
        responder = MemorizationRespondent(seed=8)
        hits = 0
        trials = 4000
        for t in range(trials):
            question = questions[t % len(questions)]
            record = administer(responder, build_task(question), "comb")
            hits += 1 if record.parsed_set & record.gold_set else 0
        expected = fmean(len(q.answer_set) / 6.0 for q in questions)
        assert hits / trials == pytest.approx(expected, abs=0.03)
