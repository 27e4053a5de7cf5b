"""Prompt construction, answer parsing, scoring, transport, and benchmark runs."""

import json
import socket
import sys
import threading
import time
import urllib.error
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import combicat
from combicat import harness
from combicat.bankio import read_jsonl
from combicat.harness import (
    SYSTEM_PROMPT,
    Backoff,
    EndpointConfig,
    EndpointResponder,
    EvalBanks,
    JsonlWriter,
    MemorizationRespondent,
    MissingApiKeyError,
    PromptTask,
    ResponderReply,
    ResponseRecord,
    SimulatedRespondent,
    administer,
    aggregate_log_records,
    build_task,
    log_dual,
    parse_answer,
    query_model,
    read_run,
    run_benchmark,
    score_response,
)
from combicat.irt import ItemParams, probability_3pl
from combicat.logic import SHAPE_LIST
from combicat.synthesis import CombinatorialQuestion, OptionEntry, apply_nota, assemble, shuffle_options, tier_config
from combicat.rng import PortableRng
from conftest import MockChatHandler, ScriptedResponder, make_atomic_question
from oracle import reference_accuracy, reference_cat_session

LETTERS = "ABCDEFGH"


def fixture_comb_question(qid: str, m: int, answer_set: set[str]) -> CombinatorialQuestion:
    """Hand-built combinatorial question for scoring tests (not verified)."""
    options = tuple(
        OptionEntry(LETTERS[i], SHAPE_LIST[i].formula, f"candidate claim {LETTERS[i]}")
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


class TestQueryModel:
    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        """Retries take no wall time."""
        monkeypatch.setattr(harness, "_BACKOFF_BASE_SECONDS", 0)

    @pytest.fixture
    def local_names(self, monkeypatch):
        """Resolve the loopback address and no other name, so no lookup leaves the machine."""
        resolve = socket.getaddrinfo

        def resolve_locally(host, *args, **kwargs):
            if host != "127.0.0.1":
                raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
            return resolve(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", resolve_locally)

    def test_echo_round_trip(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/echo", model_name="m")
        result = query_model(endpoint, "sys", "user", Backoff())
        assert result.transport_status == "ok"
        assert result.raw_text == "A"
        assert result.retries == 0

    def test_transient_error_retried_once(self, mock_server, monkeypatch):
        monkeypatch.setattr(MockChatHandler, "flaky_failures_left", 1)
        endpoint = EndpointConfig(base_url=f"{mock_server}/flaky", model_name="m", max_retries=2)
        result = query_model(endpoint, "sys", "user", Backoff())
        assert result.transport_status == "ok"
        assert result.raw_text == "B, C"
        assert result.retries == 1

    def test_rate_limit_retried_once(self, mock_server, monkeypatch):
        monkeypatch.setattr(MockChatHandler, "flaky_failures_left", 1)
        monkeypatch.setattr(MockChatHandler, "flaky_status", 429)
        endpoint = EndpointConfig(base_url=f"{mock_server}/flaky", model_name="m", max_retries=2)
        result = query_model(endpoint, "sys", "user", Backoff())
        assert (result.transport_status, result.raw_text, result.retries) == ("ok", "B, C", 1)

    def test_hangup_without_reply_retried(self, mock_server, monkeypatch):
        monkeypatch.setattr(MockChatHandler, "flaky_failures_left", 2)
        monkeypatch.setattr(MockChatHandler, "flaky_status", None)
        endpoint = EndpointConfig(base_url=f"{mock_server}/flaky", model_name="m", max_retries=2)
        result = query_model(endpoint, "sys", "user", Backoff())
        assert (result.transport_status, result.raw_text, result.retries) == ("ok", "B, C", 2)

    def test_refused_connection_is_http_error_after_every_retry(self):
        with socket.socket() as sock:  # a port that was free a moment ago, and nothing listens on now
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        endpoint = EndpointConfig(base_url=f"http://127.0.0.1:{port}/x", model_name="m", max_retries=2)
        result = query_model(endpoint, "sys", "user", Backoff())
        assert (result.transport_status, result.retries) == ("http_error", 2)
        assert "Connection refused" in result.raw_text

    def test_http_proxy_carries_a_request_for_an_unresolvable_host(self, mock_server, monkeypatch, local_names):
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", mock_server)
        harness._opener.cache_clear()  # the opener reads the proxy settings when it is built
        try:
            endpoint = EndpointConfig(base_url="http://proxied.invalid/echo", model_name="m", max_retries=0)
            result = query_model(endpoint, "sys", "user", Backoff())
        finally:
            monkeypatch.undo()
            harness._opener.cache_clear()
        assert (result.transport_status, result.raw_text) == ("ok", "A")

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_a_terminal_http_error(self, mock_server, monkeypatch, status):
        """A 3xx is neither followed nor retried: one POST, with its key, reaches ``base_url``, none the ``Location``."""
        monkeypatch.setattr(MockChatHandler, "redirect_status", status)
        monkeypatch.setattr(MockChatHandler, "redirect_location", f"{mock_server}/echo")
        monkeypatch.setattr(MockChatHandler, "posts", [])
        monkeypatch.setattr(MockChatHandler, "last_request", ("", "", {}))
        monkeypatch.setenv("COMBICAT_TEST_KEY", "sekrit")
        endpoint = EndpointConfig(
            base_url=f"{mock_server}/redirect", model_name="m", api_key_env="COMBICAT_TEST_KEY", max_retries=2
        )
        result = query_model(endpoint, "sys", "user", Backoff())
        assert (result.transport_status, result.raw_text, result.retries) == (
            "http_error", f"HTTP {status} redirect to {mock_server}/echo, not followed", 0
        )
        assert len(MockChatHandler.posts) == 1
        method, path, headers = MockChatHandler.last_request
        assert (method, path, headers["Authorization"]) == ("POST", "/redirect", "Bearer sekrit")

    def test_timeout_reported_without_crash(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/slow", model_name="m", timeout_seconds=1)
        result = query_model(endpoint, "sys", "user", Backoff())
        assert result.transport_status == "timeout"

    def test_connect_timeout_is_terminal(self, monkeypatch):
        calls = []

        class ConnectTimesOut:
            def open(self, request, timeout):
                calls.append(timeout)
                raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(harness, "_opener", ConnectTimesOut)
        endpoint = EndpointConfig(base_url="http://127.0.0.1:9/x", model_name="m", timeout_seconds=7)
        result = query_model(endpoint, "sys", "user", Backoff())
        assert (result.transport_status, result.raw_text, result.retries) == ("timeout", "", 0)
        assert calls == [7]

    def test_non_retryable_http_error(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/denied", model_name="m")
        result = query_model(endpoint, "sys", "user", Backoff())
        assert (result.transport_status, result.raw_text) == ("http_error", '{"error": "forbidden"}')

    def test_malformed_body_is_http_error(self, mock_server):
        endpoint = EndpointConfig(base_url=f"{mock_server}/badbody", model_name="m")
        result = query_model(endpoint, "sys", "user", Backoff())
        assert result.transport_status == "http_error"

    def test_missing_api_key_rejected(self, mock_server, monkeypatch):
        monkeypatch.delenv("COMBICAT_TEST_KEY", raising=False)
        endpoint = EndpointConfig(
            base_url=f"{mock_server}/echo", model_name="m", api_key_env="COMBICAT_TEST_KEY"
        )
        with pytest.raises(MissingApiKeyError):
            query_model(endpoint, "sys", "user", Backoff())

    def test_api_key_sent_when_present(self, mock_server, monkeypatch):
        monkeypatch.setenv("COMBICAT_TEST_KEY", "sekrit")
        endpoint = EndpointConfig(
            base_url=f"{mock_server}/echo", model_name="m", api_key_env="COMBICAT_TEST_KEY"
        )
        assert query_model(endpoint, "sys", "user", Backoff()).transport_status == "ok"
        headers = MockChatHandler.last_request[2]
        assert headers["Authorization"] == "Bearer sekrit"
        assert headers["User-Agent"] == f"combicat/{combicat.__version__}"
        assert headers["Content-Type"] == "application/json"

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
        responder = SimulatedRespondent({"Base": 0.0}, seed=1)
        with pytest.raises(ValueError):
            responder.respond(build_task(fixture_comb_question("s", 5, {"A"})))

    def test_simulator_wrong_answers_never_equal_gold(self):
        params = ItemParams("s", a=1.0, b=5.0, c=0.0)  # nearly always wrong at theta 0
        responder = SimulatedRespondent({"Base": 0.0}, seed=2)
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


def _float_outcome(compute):
    """What ``compute()`` gives: the exact bits of a float (so -0.0 differs from 0.0) or the error raised."""
    try:
        return compute().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestAggregateMean:
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([5e-324])
    @example([5e-324, -0.0, 2.2250738585072014e-308])
    @example([1.7976931348623157e308])
    @example([1.7976931348623157e308, 1.7976931348623157e308])
    @example([1e308, 1.0, -1e308])
    @example([0.1, 0.2, 0.3])
    @settings(max_examples=400)
    def test_mean_f1_is_statistics_fmean(self, values):
        records = [
            ResponseRecord(f"q{i}", "comb", "", frozenset(), frozenset({"A"}), False, value, 0, "ok")
            for i, value in enumerate(values)
        ]
        mean_f1 = _float_outcome(lambda: aggregate_log_records(records)["comb"].mean_f1)
        assert mean_f1 == _float_outcome(lambda: fmean(values))


class TestRunsAndLogs:
    def test_static_run_writes_replayable_log(self, tmp_path):
        questions = [fixture_comb_question(f"q{i}", 6, {"A", "B"}) for i in range(6)]
        responder = ScriptedResponder({q.id: "A, B" for q in questions[:4]})
        banks = EvalBanks(comb=[build_task(q) for q in questions])
        log_path = tmp_path / "run" / "run.jsonl"
        run_benchmark(responder, banks, str(log_path), mode="static")
        responses, subsets, dual = read_run(str(log_path))
        assert [record.question_id for record in responses] == [q.id for q in questions]
        assert subsets["comb"].n == 6
        assert subsets["comb"].accuracy == pytest.approx(4 / 6)
        assert dual is None

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
        run_benchmark(ScriptedResponder(script), banks, str(log_path), mode="static")
        _, subsets, _ = read_run(str(log_path))
        # base, the baselines by name, then comb; a subset that administered nothing is not listed
        assert list(subsets) == ["base", "nota", "shuffle", "comb"]
        assert [subsets[label].n for label in subsets] == [8, 6, 6, 5]

    def test_static_accuracy_converges_to_mean_probability(self, tmp_path):
        """Simulated accuracy over a large static bank approaches mean 3PL P."""
        rng = PortableRng(11)
        tasks = []
        for i in range(10000):
            params = ItemParams(f"p{i}", a=1.2, b=-2.0 + 4.0 * rng.random(), c=1.0 / 6.0)
            tasks.append(build_task(fixture_comb_question(f"p{i}", 6, {"A", "B"}), params))
        responder = SimulatedRespondent({"Base": 0.3}, seed=12)
        run_benchmark(responder, EvalBanks(comb=tasks), str(tmp_path / "run.jsonl"), mode="static")
        expected = fmean(probability_3pl(0.3, task.params) for task in tasks)
        assert read_run(str(tmp_path / "run.jsonl"))[1]["comb"].accuracy == pytest.approx(expected, abs=0.02)

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
        run_benchmark(responder, cat_banks(80, seed=21), str(log_path), mode="cat")
        _, _, dual = read_run(str(log_path))
        assert dual is not None
        assert dual.delta_theta > 0
        assert dual.base.n_administered <= 60
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
                script[task.question_id] = ResponderReply("busy", "http_error", 20)
            elif i % 2 == 0:
                script[task.question_id] = ", ".join(sorted(task.gold_set))
            else:
                script[task.question_id] = "B"
        log_path = tmp_path / "run.jsonl"
        run_benchmark(ScriptedResponder(script), banks, str(log_path), mode="cat")
        _, subsets, _ = read_run(str(log_path))
        assert list(subsets) == ["base", "comb"]
        assert all(result.transport_failures > 0 for result in subsets.values())

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


def most_in_flight(posts) -> int:
    """The largest number of the mock server's logged POSTs that it was serving at once."""
    events = sorted([(arrived, 1) for arrived, *_ in posts] + [(replied, -1) for _, replied, *_ in posts])
    most = current = 0
    for _, change in events:
        current += change
        most = max(most, current)
    return most


def lane_banks(mode: str) -> EvalBanks:
    """Static base, nota, shuffle and combinatorial tasks, or the two calibrated banks of a CAT run."""
    if mode == "cat":
        return cat_banks(10, seed=31)
    atomic = [make_atomic_question(i) for i in range(6)]
    return EvalBanks(
        base=[build_task(q) for q in atomic],
        comb=[build_task(fixture_comb_question(f"c{i}", 6, {"A", "C"})) for i in range(4)],
        baselines={
            "nota": [build_task(apply_nota(q)) for q in atomic],
            "shuffle": [build_task(shuffle_options(q, i)) for i, q in enumerate(atomic)],
        },
    )


class PacedResponder(ScriptedResponder):
    """A scripted responder on two lanes that takes 0 to 8 ms per question, so its lanes finish out of order."""

    lanes = 2

    def respond(self, task: PromptTask) -> ResponderReply:
        time.sleep(0.002 * (sum(map(ord, task.question_id)) % 5))
        return super().respond(task)


class TestLanes:
    @pytest.mark.parametrize("lanes", [2, 4])
    @pytest.mark.parametrize("mode", ["static", "cat"])
    def test_more_lanes_log_the_bytes_of_one_lane(self, tmp_path, mode, lanes):
        """Rows are held until every earlier question or session has finished, then logged in its order.

        Four lanes, more than the cores of a small host, and a short thread switch interval give a lost
        or misplaced row every chance to show.
        """
        banks = lane_banks(mode)
        tasks = banks.base + banks.comb + [task for bank in banks.baselines.values() for task in bank]
        script: dict[str, str | ResponderReply] = {}
        for i, task in enumerate(tasks):
            script[task.question_id] = ResponderReply("", "timeout") if i % 7 == 3 else "ABC"[i % 3]
        logs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for n in (1, lanes):
                responder = PacedResponder(script)
                responder.lanes = n
                log_path = tmp_path / f"lanes{n}.jsonl"
                run_benchmark(responder, banks, str(log_path), mode=mode)
                logs.append((log_path.read_bytes(), read_run(str(log_path))))
        finally:
            sys.setswitchinterval(interval)
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("mode", ["static", "cat"])
    def test_endpoint_on_two_lanes_logs_the_rows_of_one_lane(self, mock_server, tmp_path, monkeypatch, mode):
        """Apart from ``latency_ms``, a live run on two lanes logs what a run on one lane logs.

        On two lanes, the first question waits until a second one is asked alongside it; on one lane,
        the server never serves two requests at once.
        """
        monkeypatch.setattr(MockChatHandler, "latency_s", 0.01)
        banks = lane_banks(mode)
        endpoint = EndpointConfig(base_url=f"{mock_server}/echo", model_name="m")

        class Paired(EndpointResponder):
            def __init__(self, endpoint: EndpointConfig) -> None:
                super().__init__(endpoint)
                self.first_two = threading.Semaphore(2)
                self.both_asked = threading.Barrier(2, timeout=10)

            def respond(self, task: PromptTask) -> ResponderReply:
                if self.first_two.acquire(blocking=False):
                    self.both_asked.wait()
                return super().respond(task)

        rows = []
        for lanes in (2, 1):
            monkeypatch.setattr(MockChatHandler, "posts", [])
            responder = Paired(endpoint) if lanes == 2 else EndpointResponder(endpoint)
            responder.lanes = lanes
            log_path = tmp_path / f"lanes{lanes}.jsonl"
            run_benchmark(responder, banks, str(log_path), mode=mode)
            rows.append(([{k: v for k, v in row.items() if k != "latency_ms"} for _, row in read_jsonl(str(log_path))],
                         read_run(str(log_path))[1:]))
        assert rows[0] == rows[1]
        assert most_in_flight(MockChatHandler.posts) == 1

    def test_no_question_starts_while_a_request_backs_off(self, mock_server, tmp_path, monkeypatch):
        """Between a 429 and its retry, the only other request the server may read is one already in flight.

        Without the shared backoff, the other lane would send about eight requests while the retry waits.
        """
        backoff_s = 0.4
        monkeypatch.setattr(harness, "_BACKOFF_BASE_SECONDS", backoff_s)
        monkeypatch.setattr(MockChatHandler, "latency_s", 0.05)
        monkeypatch.setattr(MockChatHandler, "posts", [])
        monkeypatch.setattr(MockChatHandler, "flaky_failures_left", 1)
        monkeypatch.setattr(MockChatHandler, "flaky_status", 429)
        monkeypatch.setattr(MockChatHandler, "flaky_match", "Scenario 3:")
        responder = EndpointResponder(EndpointConfig(base_url=f"{mock_server}/flaky", model_name="m"))
        banks = EvalBanks(base=[build_task(make_atomic_question(i)) for i in range(16)])
        run_benchmark(responder, banks, str(tmp_path / "run.jsonl"), mode="static")
        assert read_run(str(tmp_path / "run.jsonl"))[1]["base"].transport_failures == 0
        posts = MockChatHandler.posts
        assert len(posts) == 17
        (fault,) = [post for post in posts if post[2] == 429]
        retry = next(post for post in posts if "Scenario 3:" in post[3] and post[0] > fault[1])
        assert retry[0] - fault[1] >= backoff_s
        assert len([post for post in posts if fault[1] < post[0] < retry[0]]) <= 1

    def test_lanes_released_together_start_apart(self):
        """Two questions waiting out one backoff start ``_START_SPACING_SECONDS`` apart, not in step.

        Lanes in step would send two requests at once, and thread timing would decide which one the
        endpoint reads first: on a rate-limited endpoint, which one meets the next fault.
        """
        backoff = Backoff()
        backoff.add(1)
        started: list[float] = []
        lanes = [threading.Thread(target=lambda: (backoff.wait_clear(), started.append(time.monotonic())))
                 for _ in range(2)]
        for lane in lanes:
            lane.start()
        time.sleep(0.05)
        assert started == []
        released = time.monotonic()
        backoff.add(-1)
        for lane in lanes:
            lane.join(10)
        assert len(started) == 2
        assert max(started) - released >= harness._START_SPACING_SECONDS

    def test_an_interrupt_ends_the_run_without_waiting_for_the_other_lane(self, tmp_path):
        """A ``KeyboardInterrupt`` on the calling thread is raised while the helper lane still sleeps."""
        helper_asked, release = threading.Event(), threading.Event()
        answered = []

        class Interrupted(PacedResponder):
            def respond(self, task: PromptTask) -> ResponderReply:
                if threading.current_thread() is threading.main_thread():
                    helper_asked.wait(10)
                    raise KeyboardInterrupt
                helper_asked.set()
                release.wait(10)
                answered.append(task.question_id)
                return super().respond(task)

        banks = EvalBanks(base=[build_task(make_atomic_question(i)) for i in range(4)])
        try:
            with pytest.raises(KeyboardInterrupt):
                run_benchmark(Interrupted({}), banks, str(tmp_path / "run.jsonl"), mode="static")
            assert helper_asked.is_set() and answered == []
        finally:
            release.set()

    @pytest.mark.parametrize("failing", ["q0000", "q0001", "q0006"])
    def test_an_error_on_either_lane_ends_the_run(self, tmp_path, failing):
        class Failing(PacedResponder):
            def respond(self, task: PromptTask) -> ResponderReply:
                if task.question_id == failing:
                    raise RuntimeError("lane failed")
                return super().respond(task)

        banks = EvalBanks(base=[build_task(make_atomic_question(i)) for i in range(8)])
        with pytest.raises(RuntimeError, match="lane failed"):
            run_benchmark(Failing({}), banks, str(tmp_path / "run.jsonl"), mode="static")


# One scripted bank item: 3PL parameters, often extreme or repeated, a
# uniform draw that decides the response at the respondent's ability, and the
# transport failure, if any, of its request.
CAT_ITEMS = st.tuples(
    st.sampled_from([0.8, 1.6, 2.0]) | st.floats(0.3, 2.5),
    st.sampled_from([-12.0, -6.0, 0.0, 6.0, 12.0]) | st.floats(-12.0, 12.0),
    st.sampled_from([0.0, 1.0 / 6.0, 0.25]) | st.floats(0.0, 0.5),
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([None, None, None, "timeout", "http_error"]),
)


class TestCatLoopAgainstReference:
    @given(
        theta=st.sampled_from([-8.0, 8.0]) | st.floats(-8.0, 8.0),
        base=st.lists(CAT_ITEMS, min_size=1, max_size=10),
        comb=st.lists(CAT_ITEMS, min_size=1, max_size=10),
        max_items=st.integers(1, 12),
        se_target=st.sampled_from([0.0, 0.3]) | st.floats(0.0, 1.2),
    )
    @settings(max_examples=300, deadline=None)
    def test_sessions_match_the_reference_loop(self, tmp_path_factory, theta, base, comb, max_items, se_target):
        """Picks, skips and every estimate of both sessions equal the reference loop's exactly."""
        script: dict[str, str | ResponderReply] = {}
        outcomes: dict[str, bool | None] = {}
        banks = EvalBanks()
        for subset, label, items in (("Base", "base", base), ("Combinatorial", "comb", comb)):
            for i, (a, b, c, draw, failure) in enumerate(items):
                params = ItemParams(f"{label}{i}", a, b, c, subset=subset)
                correct = draw < probability_3pl(theta, params)
                script[params.item_id] = ResponderReply("", failure) if failure else "A" if correct else "B"
                outcomes[params.item_id] = None if failure else correct
                task = PromptTask(params.item_id, "", "", ("A", "B"), frozenset({"A"}), params)
                getattr(banks, label).append(task)
        log_path = tmp_path_factory.getbasetemp() / "cat_oracle" / "run.jsonl"
        run_benchmark(ScriptedResponder(script), banks, str(log_path), mode="cat", max_items=max_items,
                      se_target=se_target)
        rows = [row for _, row in read_jsonl(str(log_path))]
        dual = read_run(str(log_path))[2] or log_dual([])  # a log with no step holds both priors
        for subset, label, estimate, accuracy in (
            ("Base", "base", dual.base, dual.base_accuracy),
            ("Combinatorial", "comb", dual.comb, dual.comb_accuracy),
        ):
            expected, expected_steps = reference_cat_session(
                [task.params for task in getattr(banks, label)], lambda item: outcomes[item.item_id],
                subset, max_items, se_target,
            )
            steps = [
                {k: v for k, v in row.items() if k not in ("kind", "subset")}
                for row in rows
                if row["kind"] == "cat_step" and row["subset"] == label
            ]
            responses = [row["question_id"] for row in rows if row["kind"] == "response" and row["subset"] == label]
            assert steps == expected_steps
            assert responses == [step["item_id"] for step in expected_steps]
            assert estimate == expected.estimate
            assert accuracy == reference_accuracy(expected)


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
