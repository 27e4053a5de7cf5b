"""Drives responders through question banks and scores their answers.

A responder maps a rendered prompt task to raw answer text; implementations
cover a live chat-completions endpoint, an ability-parameterized simulator and
a memorization-only guesser. Each names how many lanes it is run on: two for
the endpoint, one for a simulator, whose random stream fixes the order it
answers in. Static runs administer a whole bank in order.
Adaptive runs step one CAT session per subset: ``run_benchmark`` asks
``irt.select_next`` for each item, administers it and folds the response in
with ``irt.eap_update``, or skips it on a transport failure. It appends every
administration and every CAT step to a JSONL log. A report's per-subset
aggregates and ``dual`` block are ``aggregate_log_records`` and ``log_dual``
of the rows it logged, so ``combicat report`` gets the same numbers back from
the log alone. On any number of lanes, the log holds a one-lane run's rows.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence
from urllib.parse import urlsplit

from . import __version__
from .bankio import question_id_of
from .irt import (
    BASE_SUBSET,
    COMBINATORIAL_SUBSET,
    DEFAULT_MAX_ITEMS,
    DEFAULT_SE_TARGET,
    AbilityEstimate,
    CatSession,
    DualReport,
    ItemParams,
    check_dual_banks,
    eap_update,
    probability_3pl,
    select_next,
)
from .rng import PortableRng
from .synthesis import OPTION_LETTERS, AtomicQuestion, CombinatorialQuestion, finite, string_list, typed

log = logging.getLogger(__name__)

SYSTEM_PROMPT = (
    "You are taking a multiple-choice logic test.\n"
    "\n"
    "Instructions:\n"
    "- Read the context carefully (may contain statements I, II, III, IV)\n"
    "- Evaluate each option (A, B, C, D, etc.)\n"
    "- Select ALL options that are correct (may be one or more)\n"
    "- You may show your reasoning, but put your FINAL ANSWER as just the letter(s) on the last line\n"
    '- Format: "A" or "A, B" or "B, C, D"'
)


# The log's label for each calibrated subset.
_SUBSET_LABELS = {BASE_SUBSET: "base", COMBINATORIAL_SUBSET: "comb"}

# Reply statuses that mean the responder was never heard, not that it was wrong.
_TRANSPORT_FAILURES = ("timeout", "http_error")
# Every status a response row may log.
_STATUSES = ("ok", "parse_failure", *_TRANSPORT_FAILURES)


class MissingApiKeyError(RuntimeError):
    """The configured API key environment variable is not set."""


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptTask:
    """One administration: rendered prompts plus the metadata simulators need."""

    question_id: str
    system_text: str
    user_text: str
    valid_letters: tuple[str, ...]
    gold_set: frozenset[str]
    params: ItemParams | None = None


def build_task(
    question: AtomicQuestion | CombinatorialQuestion, params: ItemParams | None = None
) -> PromptTask:
    """The administered form of a question; the one place that dispatches on its kind.

    The system text is the fixed instruction block. The user text carries the
    context, the atomized statements (combinatorial questions only, listed
    before the options), and one lettered option per line.
    """
    lines = [question.context, ""] if question.context else []
    if isinstance(question, CombinatorialQuestion):
        lines.append("Statements:")
        for label, statement in zip(("I", "II", "III", "IV"), question.statements):
            lines.append(f"{label}. {statement}")
        lines.append("")
        options = [(entry.letter, entry.text) for entry in question.options]
        gold_set = question.answer_set
    else:
        options = list(zip(OPTION_LETTERS, question.option_list()))
        gold_set = frozenset({OPTION_LETTERS[question.answer_index() - 1]})
    lines.append("Options:")
    lines += [f"{letter}. {text}" for letter, text in options]
    return PromptTask(
        question_id=question.id,
        system_text=SYSTEM_PROMPT,
        user_text="\n".join(lines),
        valid_letters=tuple(letter for letter, _ in options),
        gold_set=gold_set,
        params=params,
    )


# ---------------------------------------------------------------------------
# Answer parsing and scoring
# ---------------------------------------------------------------------------

_EMPHASIS_CHARS = "*_`~\"'“”‘’"
_PUNCT_CHARS = ".,:;!?()[]{}<>"
_AND_RE = re.compile(r"\band\b|&", re.IGNORECASE)
_LETTER_LIST_RE = re.compile(r"(?<![A-Za-z])[A-H](?:\s*(?:,|and|&)\s*[A-H])*(?![A-Za-z])")


def _strip_decoration(text: str) -> str:
    previous = None
    while previous != text:
        previous = text
        text = text.strip().strip(_EMPHASIS_CHARS).strip(_PUNCT_CHARS)
    return text


def _letters_from_line(line: str, valid: frozenset[str]) -> set[str] | None:
    content = _strip_decoration(line)
    if not content:
        return None
    tokens = [t for t in re.split(r"[,\s]+", _AND_RE.sub(",", content)) if t]
    if tokens and all(token.upper() in valid for token in tokens):
        return {token.upper() for token in tokens}
    if len(tokens) == 1:
        token = tokens[0]
        # Run-together answers like "BD" must be uppercase and duplicate-free
        # to avoid swallowing ordinary words.
        if token.isupper() and len(set(token)) == len(token) and all(ch in valid for ch in token):
            return set(token)
    return None


def parse_answer(raw: str, valid_letters: Iterable[str]) -> set[str]:
    """Extract the answered letter set from raw model output.

    Lines are scanned from the last upward for one that is nothing but valid
    letters separated by commas, spaces, or "and" (after shedding emphasis and
    punctuation). Failing that, the last letter-list pattern anywhere in the
    text is used. An empty result means the response was unparseable.
    """
    valid = frozenset(letter.upper() for letter in valid_letters)
    if not valid:
        raise ValueError("valid_letters must be non-empty")
    for line in reversed(raw.splitlines()):
        letters = _letters_from_line(line, valid)
        if letters:
            return letters
    last: set[str] | None = None
    for match in _LETTER_LIST_RE.finditer(raw):
        letters = {t for t in re.split(r"[,\s]+", _AND_RE.sub(",", match.group(0))) if t}
        if letters <= valid:
            last = letters
    return last or set()


def score_response(pred: set[str] | frozenset[str], gold: set[str] | frozenset[str]) -> tuple[bool, float]:
    """Exact-set match and set-overlap F1; an empty prediction scores zero."""
    if not gold:
        raise ValueError("gold set must be non-empty")
    return pred == gold, (2.0 * len(pred & gold) / (len(pred) + len(gold)) if pred else 0.0)


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings for an OpenAI-style chat-completions endpoint."""

    base_url: str
    model_name: str
    api_key_env: str = ""
    temperature: float = 1.0
    max_tokens: int = 65536
    timeout_seconds: int = 600
    max_retries: int = 2

    def __post_init__(self) -> None:
        """Reject settings that would fail every request, before any is sent."""
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http(s) URL with a host, not {self.base_url!r}")
        if re.search(r"[\x00-\x20\x7f]", self.base_url) or not (url.path + url.query).isascii():
            raise ValueError(
                "base_url must hold no space or control character, and no non-ASCII character in its path or"
                f" query (percent-encode them), not {self.base_url!r}"
            )
        try:
            url.hostname.encode("idna")
        except UnicodeError:
            raise ValueError(f"base_url must have a host that IDNA can encode, not {self.base_url!r}") from None
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and at least 0, not {self.temperature!r}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be at least 1, not {self.max_tokens!r}")
        if self.timeout_seconds <= 0:
            raise ValueError(f"timeout_seconds must be positive, not {self.timeout_seconds!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be at least 0, not {self.max_retries!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EndpointConfig":
        """An endpoint file's object; each field must already have its type, none is coerced and no other key is allowed."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        return cls(
            base_url=typed("base_url", data["base_url"], str, "a string"),
            model_name=typed("model_name", data["model_name"], str, "a string"),
            api_key_env=typed("api_key_env", data.get("api_key_env", ""), str, "a string"),
            temperature=float(typed("temperature", data.get("temperature", 1.0), (int, float), "a number")),
            max_tokens=typed("max_tokens", data.get("max_tokens", 65536), int, "an integer"),
            timeout_seconds=typed("timeout_seconds", data.get("timeout_seconds", 600), int, "an integer"),
            max_retries=typed("max_retries", data.get("max_retries", 2), int, "an integer"),
        )


@dataclass(frozen=True)
class ResponderReply:
    """One reply; only the live endpoint sets the transport fields."""

    raw_text: str
    transport_status: str = "ok"  # ok | timeout | http_error
    latency_ms: int = 0
    retries: int = 0


def _request_headers(endpoint: EndpointConfig) -> dict[str, str]:
    """Request headers, with the API key read from its environment variable."""
    headers = {"Content-Type": "application/json", "User-Agent": f"combicat/{__version__}"}
    if endpoint.api_key_env:
        key = os.environ.get(endpoint.api_key_env)
        if not key:
            raise MissingApiKeyError(f"environment variable {endpoint.api_key_env!r} is not set")
        headers["Authorization"] = f"Bearer {key}"
    return headers


_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_BACKOFF_BASE_SECONDS = 0.5
_START_SPACING_SECONDS = 0.005  # between two questions, so lanes a backoff releases together do not send in step


@lru_cache(maxsize=None)
def _opener() -> Any:
    """The live transport's ``urllib`` opener, built once, on first use.

    It sends each chat request through the proxy that ``http_proxy`` or
    ``https_proxy`` names at that moment, except to the hosts in ``no_proxy``.
    It follows no redirect: a chat endpoint answers at ``base_url`` itself,
    so a 3xx reply raises ``HTTPError`` like any other reply outside 2xx, and
    the request and its API key go nowhere else.
    """
    import urllib.request

    class NoRedirectHandler(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(NoRedirectHandler)


class Backoff:
    """How many requests to one endpoint are backing off after a retryable failure.

    A new question starts only while none is, as a client of a rate-limited
    API should behave. So between a failure and its retry, only a request
    that was already in flight can reach the endpoint.
    """

    def __init__(self) -> None:
        self._count = 0
        self._next_start = 0.0
        self._changed = threading.Condition()

    def add(self, change: int) -> None:
        with self._changed:
            self._count += change
            self._changed.notify_all()

    def wait_clear(self) -> None:
        """Block until no request is backing off and ``_START_SPACING_SECONDS`` after the last question started."""
        with self._changed:
            while self._count or (delay := self._next_start - time.monotonic()) > 0:
                self._changed.wait(None if self._count else delay)
            self._next_start = time.monotonic() + _START_SPACING_SECONDS


def query_model(endpoint: EndpointConfig, system_text: str, user_text: str, backoff: Backoff) -> ResponderReply:
    """Single chat request with bounded retries on transient failures.

    Timeouts are terminal (the per-query deadline is the whole budget), and so
    is a redirect, which is never followed; 5xx and 429 responses and dropped
    connections retry with exponential backoff up to ``max_retries``. The
    request starts once ``backoff.wait_clear`` lets it, and counts in
    ``backoff`` from its first backoff sleep until it returns.
    Each attempt opens and closes its own connection, through ``_opener``, and
    ``timeout_seconds`` bounds the connect and each read. The API key is read
    from the configured environment variable and never logged. Only live runs
    reach the network, so the transport modules are imported here rather than with this module.
    """
    import http.client
    import urllib.error
    import urllib.request

    headers = _request_headers(endpoint)
    payload = {
        "model": endpoint.model_name,
        "messages": [
            {"role": "system", "content": system_text},
            {"role": "user", "content": user_text},
        ],
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_tokens,
    }
    body = json.dumps(payload).encode("utf-8")
    backoff.wait_clear()
    started = time.monotonic()

    def elapsed_ms() -> int:
        return int((time.monotonic() - started) * 1000)

    attempt = 0
    try:
        while True:
            try:
                # A fresh request each attempt: opening one rewrites it for the proxy it goes through.
                request = urllib.request.Request(endpoint.base_url, data=body, headers=headers, method="POST")
                try:
                    reply = _opener().open(request, timeout=endpoint.timeout_seconds)
                except urllib.error.HTTPError as error:  # a reply outside 2xx, a redirect included
                    reply = error
                with reply:
                    status, text = reply.status, reply.read().decode("utf-8", errors="replace")
                if 300 <= status < 400:
                    text = f"HTTP {status} redirect to {reply.headers.get('Location')}, not followed"
            except (OSError, http.client.HTTPException) as exc:
                reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
                if isinstance(reason, TimeoutError):
                    log.warning("request to %s timed out after %ss", endpoint.base_url, endpoint.timeout_seconds)
                    return ResponderReply("", "timeout", elapsed_ms(), retries=attempt)
                log.warning("request to %s failed: %s", endpoint.base_url, exc)
                if attempt >= endpoint.max_retries:
                    return ResponderReply(str(exc), "http_error", elapsed_ms(), retries=attempt)
            else:
                if 200 <= status < 300:
                    try:
                        content = json.loads(text)["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError):
                        log.warning("malformed response body: %.200s", text)
                        return ResponderReply(text, "http_error", elapsed_ms(), retries=attempt)
                    return ResponderReply(str(content), "ok", elapsed_ms(), retries=attempt)
                log.warning("HTTP %s from %s: %.500s", status, endpoint.base_url, text)
                if status not in _RETRYABLE_STATUS or attempt >= endpoint.max_retries:
                    return ResponderReply(text, "http_error", elapsed_ms(), retries=attempt)
            attempt += 1
            if attempt == 1:
                backoff.add(1)
            time.sleep(_BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)))
    finally:
        if attempt:
            backoff.add(-1)


# ---------------------------------------------------------------------------
# Responders
# ---------------------------------------------------------------------------


class Responder(Protocol):
    lanes: int  # how many questions ``run_benchmark`` may have it answer at once

    def respond(self, task: PromptTask) -> ResponderReply: ...


class EndpointResponder:
    """Live responder backed by a chat-completions endpoint.

    It answers on two lanes, which share one ``Backoff``: a question waits
    to start until no request is backing off, while a request's own retries
    do not wait.
    """

    # Not a tuned value: the most that the benchmark's stub, which places its faults
    # by arrival order, tolerates without a retry landing on a later fault.
    lanes = 2

    def __init__(self, endpoint: EndpointConfig) -> None:
        self.endpoint = endpoint
        self.backoff = Backoff()

    def respond(self, task: PromptTask) -> ResponderReply:
        return query_model(self.endpoint, task.system_text, task.user_text, self.backoff)


class SimulatedRespondent:
    """Answers correctly with the 3PL probability at a fixed true ability per subset.

    ``theta`` maps each subset label to its ability, so a dual run can
    simulate a different ability per subset. A correct draw emits the gold
    letters; an incorrect draw emits a uniformly chosen non-gold, non-empty
    letter set.
    """

    lanes = 1

    def __init__(self, theta: Mapping[str, float], seed: int = 0) -> None:
        self._theta = theta
        self._rng = PortableRng(seed)

    def theta_for(self, params: ItemParams) -> float:
        try:
            return self._theta[params.subset]
        except KeyError:
            raise ValueError(f"no simulated ability for subset {params.subset!r}") from None

    def respond(self, task: PromptTask) -> ResponderReply:
        if task.params is None:
            raise ValueError(f"question {task.question_id!r} has no item parameters to simulate against")
        p = probability_3pl(self.theta_for(task.params), task.params)
        if self._rng.random() < p:
            answer = ", ".join(sorted(task.gold_set))
        else:
            m = len(task.valid_letters)
            while True:
                mask = 1 + self._rng.below((1 << m) - 1)
                chosen = {task.valid_letters[i] for i in range(m) if mask & (1 << i)}
                if chosen != set(task.gold_set):
                    break
            answer = ", ".join(sorted(chosen))
        return ResponderReply(answer)


class MemorizationRespondent:
    """Knows only the original single answer; picks one option letter uniformly.

    Models the contamination ceiling: with the atomic answer memorized but the
    formulas unread, each of the m options is equally attractive.
    """

    lanes = 1

    def __init__(self, seed: int = 0) -> None:
        self._rng = PortableRng(seed)

    def respond(self, task: PromptTask) -> ResponderReply:
        return ResponderReply(self._rng.choice(task.valid_letters))


# ---------------------------------------------------------------------------
# Records, logs, and aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResponseRecord:
    question_id: str
    subset: str
    raw_text: str
    parsed_set: frozenset[str]
    gold_set: frozenset[str]
    exact: bool
    f1: float
    latency_ms: int
    transport_status: str

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "response",
            "question_id": self.question_id,
            "subset": self.subset,
            "raw_text": self.raw_text,
            "parsed_set": sorted(self.parsed_set),
            "gold_set": sorted(self.gold_set),
            "exact": self.exact,
            "f1": self.f1,
            "latency_ms": self.latency_ms,
            "transport_status": self.transport_status,
        }

    @classmethod
    def from_record(cls, row: Mapping[str, Any]) -> "ResponseRecord":
        """A logged response row; each field must already have its type, and none is coerced.

        The row must agree with itself: only an ``ok`` row parsed any letter,
        and ``exact`` and ``f1`` are ``score_response(parsed_set, gold_set)``.
        """
        record = cls(
            question_id=question_id_of(row),
            subset=typed("subset", row["subset"], str, "a string"),
            raw_text=typed("raw_text", row["raw_text"], str, "a string"),
            parsed_set=frozenset(string_list("parsed_set", row["parsed_set"])),
            gold_set=frozenset(string_list("gold_set", row["gold_set"])),
            exact=typed("exact", row["exact"], bool, "true or false"),
            f1=finite("f1", row["f1"]),
            latency_ms=typed("latency_ms", row["latency_ms"], int, "an integer"),
            transport_status=typed("transport_status", row["transport_status"], str, "a string"),
        )
        status = record.transport_status
        if status not in _STATUSES:
            raise ValueError(f"transport_status must be one of {', '.join(map(repr, _STATUSES))}, not {status!r}")
        if bool(record.parsed_set) != (status == "ok"):
            wanted = "a non-empty" if status == "ok" else "an empty"
            raise ValueError(f"transport_status {status!r} needs {wanted} parsed_set, not {sorted(record.parsed_set)}")
        scored = score_response(record.parsed_set, record.gold_set)
        if (record.exact, record.f1) != scored:
            raise ValueError(
                f"parsed_set {sorted(record.parsed_set)} against gold_set {sorted(record.gold_set)} scores "
                f"exact={scored[0]} and f1={scored[1]!r}, not exact={record.exact} and f1={record.f1!r}"
            )
        return record


class JsonlWriter:
    """Append-only JSONL sink; appends are serialized across threads."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._lock = threading.Lock()
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, ensure_ascii=False, sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def administer(responder: Responder, task: PromptTask, subset: str) -> ResponseRecord:
    """Run one prompt through a responder and score the reply."""
    reply = responder.respond(task)
    if reply.transport_status != "ok":
        parsed: set[str] = set()
        status = reply.transport_status
    else:
        parsed = parse_answer(reply.raw_text, task.valid_letters)
        status = "ok" if parsed else "parse_failure"
    exact, f1 = score_response(parsed, task.gold_set)
    return ResponseRecord(
        question_id=task.question_id,
        subset=subset,
        raw_text=reply.raw_text,
        parsed_set=frozenset(parsed),
        gold_set=frozenset(task.gold_set),
        exact=exact,
        f1=f1,
        latency_ms=reply.latency_ms,
        transport_status=status,
    )


@dataclass(frozen=True)
class SubsetResult:
    n: int
    accuracy: float
    mean_f1: float
    overlap_rate: float
    parse_failures: int
    transport_failures: int

    def to_record(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "mean_f1": self.mean_f1,
            "overlap_rate": self.overlap_rate,
            "parse_failures": self.parse_failures,
            "transport_failures": self.transport_failures,
        }


def _summarize(records: Sequence[ResponseRecord]) -> SubsetResult:
    """Aggregate one subset's records; unparseable responses count as wrong.

    Each mean is ``math.fsum`` over the count, the float ``statistics.fmean`` returns.
    """
    n = len(records)
    return SubsetResult(
        n=n,
        accuracy=math.fsum(1.0 if r.exact else 0.0 for r in records) / n,
        mean_f1=math.fsum(r.f1 for r in records) / n,
        overlap_rate=math.fsum(1.0 if r.parsed_set & r.gold_set else 0.0 for r in records) / n,
        parse_failures=sum(1 for r in records if r.transport_status == "parse_failure"),
        transport_failures=sum(1 for r in records if r.transport_status in _TRANSPORT_FAILURES),
    )


def aggregate_log_records(records: Iterable[ResponseRecord]) -> dict[str, SubsetResult]:
    """Per-subset aggregates of logged responses, in order of first appearance.

    This is the only aggregation: ``run_benchmark`` builds its report with it
    from the records it logs, and ``combicat report`` from the log it reads.
    """
    grouped: dict[str, list[ResponseRecord]] = {}
    for record in records:
        grouped.setdefault(record.subset, []).append(record)
    return {subset: _summarize(records) for subset, records in grouped.items()}


def log_entry(row: Mapping[str, Any]) -> ResponseRecord | tuple[str, float, float, bool] | None:
    """A log row: a response's record, or a ``cat_step``'s subset label, ability estimate, standard
    error and response; ``None`` for a step that carries ``"skipped": true``, which holds none of the three."""
    kind = row["kind"]
    if kind == "response":
        return ResponseRecord.from_record(row)
    if kind != "cat_step":
        raise ValueError(f"kind must be 'response' or 'cat_step', not {kind!r}")
    subset = typed("subset", row["subset"], str, "a string")
    if subset not in _SUBSET_LABELS.values():
        raise ValueError(f"subset must be {' or '.join(map(repr, _SUBSET_LABELS.values()))}, not {subset!r}")
    if typed("skipped", row.get("skipped", False), bool, "a boolean"):
        if held := [key for key in ("theta_hat", "se", "response") if key in row]:
            raise ValueError(f"a skipped step must not hold {', '.join(held)}")
        return None
    theta_hat, se = finite("theta_hat", row["theta_hat"]), finite("se", row["se"])
    return subset, theta_hat, se, typed("response", row["response"], bool, "a boolean")


def log_dual(steps: Sequence[tuple[str, float, float, bool]]) -> DualReport:
    """The ``dual`` record of a CAT log's scored steps as ``log_entry`` reads them, for both
    ``run_benchmark`` and ``combicat report``: per subset, the last step's estimate, the number of
    steps and the share answered correctly; a subset with none has the prior and 0."""
    estimates, accuracies = [], []
    for subset, label in _SUBSET_LABELS.items():
        scored = [step for step in steps if step[0] == label]
        if scored:
            _, theta, se, _ = scored[-1]
            estimates.append(AbilityEstimate(theta, se, len(scored)))
            accuracies.append(sum(response for *_, response in scored) / len(scored))
        else:
            estimates.append(CatSession.start(subset).estimate)
            accuracies.append(0.0)
    return DualReport(*estimates, *accuracies)


# ---------------------------------------------------------------------------
# Benchmark runs
# ---------------------------------------------------------------------------


@dataclass
class EvalBanks:
    """Everything one evaluation run may administer."""

    base: list[PromptTask] = field(default_factory=list)
    comb: list[PromptTask] = field(default_factory=list)
    baselines: dict[str, list[PromptTask]] = field(default_factory=dict)


@dataclass(frozen=True)
class RunSettings:
    seed: int = 0
    max_items: int = DEFAULT_MAX_ITEMS
    se_target: float = DEFAULT_SE_TARGET
    config_hash: str = ""


@dataclass
class ScoreReport:
    """Aggregates for one run: its subsets and ``dual`` are derived from the run's log."""

    mode: str
    seed: int
    config_hash: str
    subsets: dict[str, SubsetResult]
    dual: DualReport | None = None

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "mode": self.mode,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "subsets": {label: result.to_record() for label, result in self.subsets.items()},
        }
        if self.dual is not None:
            record["dual"] = self.dual.to_record()
        return record


def check_run(responder: Responder, banks: EvalBanks, mode: str) -> None:
    """Every input check of a run, made before anything is administered or logged."""
    if mode not in ("static", "cat"):
        raise ValueError(f"unknown mode {mode!r}")
    tasks = banks.base + banks.comb
    if mode == "static":
        tasks += [task for bank in banks.baselines.values() for task in bank]
    simulated = isinstance(responder, SimulatedRespondent)
    if mode == "cat" or simulated:
        missing = [task.question_id for task in tasks if task.params is None]
        if missing:
            raise ValueError(
                f"item parameters missing for {len(missing)} question(s), e.g. {missing[0]!r}; "
                "cat mode and the ability simulator need them"
            )
    if simulated:
        for task in tasks:
            responder.theta_for(task.params)
    if mode == "cat":
        check_dual_banks([task.params for task in banks.base], [task.params for task in banks.comb])
    if isinstance(responder, EndpointResponder):
        _request_headers(responder.endpoint)


class _LaneStopped(Exception):
    """Another lane raised, so this one ends at its next row."""


def _run_on_lanes(
    jobs: Sequence[Callable[[Callable[[Any], None]], None]], lanes: int, write: Callable[[Any], None]
) -> None:
    """Run ``jobs`` on ``lanes`` lanes, and ``write`` their rows in the order one lane would.

    The calling thread is one lane and each other lane a helper thread. A free
    lane takes the next job in order and calls it with an ``emit`` for its
    rows. The rows of the earliest unfinished job are written as they come. A
    later job's rows are held until every earlier job has finished. An
    exception on a lane stops the others at their next row or job, and is
    raised here once every helper has ended. One that is not an ``Exception``,
    such as ``KeyboardInterrupt``, is raised on the calling thread at once.
    """
    lock = threading.Lock()
    held: list[list[Any]] = [[] for _ in jobs]
    finished = [False] * len(jobs)
    head = 0  # the earliest unfinished job
    pending = iter(range(len(jobs)))
    errors: list[BaseException] = []

    def emit(i: int, row: Any) -> None:
        with lock:
            if errors:
                raise _LaneStopped
            if i == head:
                write(row)
            else:
                held[i].append(row)

    def lane() -> None:
        nonlocal head
        try:
            while True:
                with lock:
                    i = next(pending, None)
                    if i is None or errors:
                        return
                jobs[i](partial(emit, i))
                with lock:
                    finished[i] = True
                    while head < len(jobs) and finished[head]:
                        head += 1
                        for row in held[head] if head < len(jobs) else ():
                            write(row)
        except _LaneStopped:
            pass
        except BaseException as exc:
            with lock:
                errors.append(exc)
            if not isinstance(exc, Exception):
                raise  # such as KeyboardInterrupt, which ends the calling thread's lane and the run at once

    helpers = [threading.Thread(target=lane, daemon=True) for _ in range(lanes - 1)]
    for helper in helpers:
        helper.start()
    lane()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


def run_benchmark(
    responder: Responder,
    banks: EvalBanks,
    log_path: str,
    mode: str = "static",
    settings: RunSettings | None = None,
) -> ScoreReport:
    """Run a full evaluation in static or adaptive mode, logging it to ``log_path``.

    Static mode administers every supplied bank (base, the baseline variants
    by name, then combinatorial) in order. Adaptive mode steps one CAT session
    on each of the base and combinatorial banks, which need item parameters on
    every question. Each step logs a ``cat_step`` row after its response row;
    a transport failure skips the item rather than scoring it. Inputs pass
    ``check_run`` before the log's directory is made and the log is opened,
    so a rejected run leaves an earlier run's files intact. The report's
    subsets and ``dual`` are ``aggregate_log_records`` and ``log_dual`` of its rows.

    The run uses the responder's ``lanes``: static questions go to them in
    order, and the two CAT sessions run on their own lanes. Rows are logged
    in the order of a run on one lane, all base rows before all
    combinatorial ones.
    """
    check_run(responder, banks, mode)
    settings = settings or RunSettings()
    records: list[ResponseRecord] = []
    steps: list[tuple[str, float, float, bool]] = []
    os.makedirs(os.path.dirname(log_path) or ".", exist_ok=True)
    with JsonlWriter(log_path) as writer:

        def write(row: ResponseRecord | dict[str, Any]) -> None:
            if isinstance(row, ResponseRecord):
                records.append(row)
                row = row.to_record()
            elif (step := log_entry(row)) is not None:
                steps.append(step)
            writer.write(row)

        def administer_one(task: PromptTask, subset: str, emit: Callable[[Any], None]) -> None:
            emit(administer(responder, task, subset))

        def run_session(subset: str, tasks: list[PromptTask], emit: Callable[[Any], None]) -> None:
            label = _SUBSET_LABELS[subset]
            session = CatSession.start(subset, settings.max_items, settings.se_target)
            bank = [task.params for task in tasks]
            tasks_by_id = {task.params.item_id: task for task in tasks}
            while (item := select_next(session, bank)) is not None:
                step = len(session.administered) + len(session.skipped)
                row = {"kind": "cat_step", "subset": label, "step": step, "item_id": item.item_id}
                record = administer(responder, tasks_by_id[item.item_id], label)
                emit(record)
                if record.transport_status in _TRANSPORT_FAILURES:
                    session.skipped.add(item.item_id)
                    row["skipped"] = True
                else:
                    eap_update(session, item, record.exact)
                    row.update(theta_hat=session.estimate.theta_hat, se=session.estimate.se, response=record.exact)
                emit(row)

        if mode == "static":
            subsets = [("base", banks.base), *sorted(banks.baselines.items()), ("comb", banks.comb)]
            jobs = [partial(administer_one, task, subset) for subset, tasks in subsets for task in tasks]
        else:
            jobs = [partial(run_session, subset, tasks)
                    for subset, tasks in ((BASE_SUBSET, banks.base), (COMBINATORIAL_SUBSET, banks.comb))]
        _run_on_lanes(jobs, responder.lanes, write)

    return ScoreReport(
        mode=mode,
        seed=settings.seed,
        config_hash=settings.config_hash,
        subsets=aggregate_log_records(records),
        dual=log_dual(steps) if mode == "cat" else None,
    )
