"""Shared fixture builders: synthetic atomic banks, trace corpora and a mock chat endpoint."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

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
    """Replays canned raw texts, or whole replies such as transport failures, keyed by question id."""

    lanes = 1

    def __init__(self, responses: dict[str, str | ResponderReply]) -> None:
        self._responses = dict(responses)

    def respond(self, task: PromptTask) -> ResponderReply:
        reply = self._responses.get(task.question_id, "")
        return reply if isinstance(reply, ResponderReply) else ResponderReply(reply)


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


@pytest.fixture
def small_bank() -> list[AtomicQuestion]:
    return make_atomic_bank(12, seed=5)


class MockChatHandler(BaseHTTPRequestHandler):
    """A chat-completions endpoint whose path picks the reply.

    ``/echo`` answers "A". ``/flaky`` fails ``flaky_failures_left`` times
    with ``flaky_status``, or hangs up without a reply when that is ``None``,
    and then answers; it fails only a request whose body holds
    ``flaky_match``. A request through a proxy names an absolute URL, whose
    path picks alike. ``/redirect`` answers ``redirect_status`` with
    ``redirect_location``. A GET gets a 405. Every POST reply waits
    ``latency_s`` first. ``last_request`` holds the method, the path as sent
    and the headers of the latest request. Each POST appends an
    ``[arrived, replied, status, body]`` entry to ``posts`` before its reply
    goes out: the ``time.monotonic`` times at which it was read and its reply
    began, and the status sent, ``None`` until then and for a hang-up. Two
    requests may be served at once: the class counters change under ``lock``.
    """

    lock = threading.Lock()
    flaky_failures_left = 1
    flaky_status: int | None = 500
    flaky_match = ""
    redirect_status = 307
    redirect_location = "/echo"
    latency_s = 0.0
    last_request: tuple[str, str, dict[str, str]] = ("", "", {})
    posts: list[list] = []

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        with MockChatHandler.lock:
            MockChatHandler.last_request = ("GET", self.path, dict(self.headers))
        self._send(405, {"error": "method not allowed"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        arrived = time.monotonic()
        with MockChatHandler.lock:
            MockChatHandler.last_request = ("POST", self.path, dict(self.headers))
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length).decode("utf-8")
        time.sleep(MockChatHandler.latency_s)
        # Logged before the reply goes out, so a client that has its reply finds the entry.
        entry = [arrived, time.monotonic(), None, body]
        with MockChatHandler.lock:
            MockChatHandler.posts.append(entry)
        entry[2] = self._reply(urlsplit(self.path).path, body)

    def _reply(self, path: str, body: str) -> int | None:
        """Answer a POST to ``path``; the status sent, or ``None`` for a hang-up."""
        if path == "/echo":
            self._send(200, {"choices": [{"message": {"content": "A"}}]})
            return 200
        if path == "/flaky":
            with MockChatHandler.lock:
                fail = MockChatHandler.flaky_failures_left > 0 and MockChatHandler.flaky_match in body
                if fail:
                    MockChatHandler.flaky_failures_left -= 1
            if not fail:
                self._send(200, {"choices": [{"message": {"content": "B, C"}}]})
                return 200
            if MockChatHandler.flaky_status is None:
                self.close_connection = True
            else:
                self._send(MockChatHandler.flaky_status, {"error": "transient"})
            return MockChatHandler.flaky_status
        if path == "/redirect":
            self.send_response(MockChatHandler.redirect_status)
            self.send_header("Location", MockChatHandler.redirect_location)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return MockChatHandler.redirect_status
        if path == "/slow":
            time.sleep(3)
            self._send(200, {"choices": [{"message": {"content": "A"}}]})
            return 200
        if path == "/badbody":
            self._send(200, {"unexpected": "shape"})
            return 200
        if path == "/denied":
            self._send(403, {"error": "forbidden"})
            return 403
        self._send(404, {"error": "not found"})
        return 404

    def log_message(self, *args) -> None:  # silence test output
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):  # client hangups are expected
        pass


@pytest.fixture(scope="module")
def mock_server():
    """The base URL of a ``MockChatHandler`` served on localhost."""
    server = _QuietServer(("127.0.0.1", 0), MockChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
