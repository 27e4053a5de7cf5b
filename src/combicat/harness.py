"""Drives responders through question banks and scores their answers.

A responder maps a rendered prompt task to raw answer text; implementations
cover a live chat-completions endpoint, an ability-parameterized simulator and
a memorization-only guesser. Static runs administer a whole bank in order;
adaptive runs delegate selection to the CAT engine. ``run_benchmark`` appends
every administration to a JSONL log, and a report's per-subset aggregates are
``aggregate_log_records`` of the rows it logged, so ``combicat report`` gets
the same numbers back from the log alone.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from statistics import fmean
from typing import Any, Iterable, Mapping, Protocol, Sequence

import requests

from .irt import (
    BASE_SUBSET,
    COMBINATORIAL_SUBSET,
    DEFAULT_MAX_ITEMS,
    DEFAULT_SE_TARGET,
    DualReport,
    ItemParams,
    check_dual_banks,
    probability_3pl,
    run_dual_session,
)
from .rng import PortableRng
from .synthesis import OPTION_LETTERS, AtomicQuestion, CombinatorialQuestion

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
    pred = set(pred)
    gold = set(gold)
    exact = pred == gold
    f1 = 0.0 if not pred else 2.0 * len(pred & gold) / (len(pred) + len(gold))
    return exact, f1


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
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EndpointConfig":
        return cls(
            base_url=str(data["base_url"]),
            model_name=str(data["model_name"]),
            api_key_env=str(data.get("api_key_env", "")),
            temperature=float(data.get("temperature", 1.0)),
            max_tokens=int(data.get("max_tokens", 65536)),
            timeout_seconds=int(data.get("timeout_seconds", 600)),
            max_retries=int(data.get("max_retries", 2)),
        )


@dataclass(frozen=True)
class ResponderReply:
    """One reply; only the live endpoint sets the transport fields."""

    raw_text: str
    transport_status: str = "ok"  # ok | timeout | http_error
    latency_ms: int = 0
    retries: int = 0
    http_status: int | None = None


def _request_headers(endpoint: EndpointConfig) -> dict[str, str]:
    """Request headers, with the API key read from its environment variable."""
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key_env:
        key = os.environ.get(endpoint.api_key_env)
        if not key:
            raise MissingApiKeyError(f"environment variable {endpoint.api_key_env!r} is not set")
        headers["Authorization"] = f"Bearer {key}"
    return headers


_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_BACKOFF_BASE_SECONDS = 0.5


def query_model(endpoint: EndpointConfig, system_text: str, user_text: str) -> ResponderReply:
    """Single chat request with bounded retries on transient failures.

    Timeouts are terminal (the per-query deadline is the whole budget); 5xx
    and 429 responses and connection drops retry with exponential backoff up
    to ``max_retries``. The API key is read from the configured environment
    variable and never logged.
    """
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
    started = time.monotonic()

    def elapsed_ms() -> int:
        return int((time.monotonic() - started) * 1000)

    attempt = 0
    while True:
        try:
            response = requests.post(
                endpoint.base_url, json=payload, headers=headers, timeout=endpoint.timeout_seconds
            )
        except requests.Timeout:
            log.warning("request to %s timed out after %ss", endpoint.base_url, endpoint.timeout_seconds)
            return ResponderReply("", "timeout", elapsed_ms(), retries=attempt)
        except requests.RequestException as exc:
            log.warning("request to %s failed: %s", endpoint.base_url, exc)
            if attempt >= endpoint.max_retries:
                return ResponderReply(str(exc), "http_error", elapsed_ms(), retries=attempt)
        else:
            if response.ok:
                try:
                    data = response.json()
                    content = data["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError):
                    log.warning("malformed response body: %.200s", response.text)
                    return ResponderReply(
                        response.text, "http_error", elapsed_ms(), retries=attempt,
                        http_status=response.status_code,
                    )
                return ResponderReply(
                    str(content), "ok", elapsed_ms(), retries=attempt, http_status=response.status_code
                )
            log.warning("HTTP %s from %s: %.500s", response.status_code, endpoint.base_url, response.text)
            if response.status_code not in _RETRYABLE_STATUS or attempt >= endpoint.max_retries:
                return ResponderReply(
                    response.text, "http_error", elapsed_ms(), retries=attempt,
                    http_status=response.status_code,
                )
        time.sleep(_BACKOFF_BASE_SECONDS * (2**attempt))
        attempt += 1


# ---------------------------------------------------------------------------
# Responders
# ---------------------------------------------------------------------------


class Responder(Protocol):
    def respond(self, task: PromptTask) -> ResponderReply: ...


class EndpointResponder:
    """Live responder backed by a chat-completions endpoint."""

    def __init__(self, endpoint: EndpointConfig) -> None:
        self.endpoint = endpoint

    def respond(self, task: PromptTask) -> ResponderReply:
        return query_model(self.endpoint, task.system_text, task.user_text)


class SimulatedRespondent:
    """Answers correctly with the 3PL probability at a fixed true ability.

    ``theta`` may be a single float or a mapping from subset label to float so
    a dual run can simulate different abilities per subset. A correct draw
    emits the gold letters; an incorrect draw emits a uniformly chosen
    non-gold, non-empty letter set.
    """

    def __init__(self, theta: float | Mapping[str, float], seed: int = 0) -> None:
        self._theta = theta
        self._rng = PortableRng(seed)

    def theta_for(self, params: ItemParams) -> float:
        if isinstance(self._theta, Mapping):
            try:
                return float(self._theta[params.subset])
            except KeyError:
                raise ValueError(f"no simulated ability for subset {params.subset!r}") from None
        return float(self._theta)

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
        return cls(
            question_id=str(row["question_id"]),
            subset=str(row["subset"]),
            raw_text=str(row.get("raw_text", "")),
            parsed_set=frozenset(row["parsed_set"]),
            gold_set=frozenset(row["gold_set"]),
            exact=bool(row["exact"]),
            f1=float(row["f1"]),
            latency_ms=int(row.get("latency_ms", 0)),
            transport_status=str(row["transport_status"]),
        )


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
    """Aggregate one subset's records; unparseable responses count as wrong."""
    return SubsetResult(
        n=len(records),
        accuracy=fmean(1.0 if r.exact else 0.0 for r in records),
        mean_f1=fmean(r.f1 for r in records),
        overlap_rate=fmean(1.0 if r.parsed_set & r.gold_set else 0.0 for r in records),
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
    """Aggregates for one run: its subsets are ``aggregate_log_records`` of the run's log."""

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


def run_benchmark(
    responder: Responder,
    banks: EvalBanks,
    log_path: str,
    mode: str = "static",
    settings: RunSettings | None = None,
) -> ScoreReport:
    """Run a full evaluation in static or adaptive mode, logging it to ``log_path``.

    Static mode administers every supplied bank (base, the baseline variants
    by name, then combinatorial) in order. Adaptive mode runs the dual-subset
    protocol and requires item parameters on every question; transport
    failures are skipped and logged rather than scored. Inputs pass
    ``check_run`` before the log's directory is made and the log is opened,
    so a rejected run leaves an earlier run's files intact. The report's
    subsets are ``aggregate_log_records`` of the logged responses.
    """
    check_run(responder, banks, mode)
    settings = settings or RunSettings()
    records: list[ResponseRecord] = []
    dual: DualReport | None = None
    os.makedirs(os.path.dirname(log_path) or ".", exist_ok=True)
    with JsonlWriter(log_path) as writer:

        def administer_logged(task: PromptTask, subset: str) -> ResponseRecord:
            record = administer(responder, task, subset)
            writer.write(record.to_record())
            records.append(record)
            return record

        if mode == "static":
            for subset, tasks in [("base", banks.base), *sorted(banks.baselines.items()), ("comb", banks.comb)]:
                for task in tasks:
                    administer_logged(task, subset)
        else:
            tasks_by_id = {task.params.item_id: task for task in banks.base + banks.comb}

            def respond_to_item(params: ItemParams) -> bool | None:
                record = administer_logged(tasks_by_id[params.item_id], _SUBSET_LABELS[params.subset])
                return None if record.transport_status in _TRANSPORT_FAILURES else record.exact

            def on_step(subset: str, payload: dict) -> None:
                writer.write({"kind": "cat_step", "subset": _SUBSET_LABELS[subset], **payload})

            dual = run_dual_session(
                respond_to_item,
                [task.params for task in banks.base],
                [task.params for task in banks.comb],
                max_items=settings.max_items,
                se_target=settings.se_target,
                on_step=on_step,
            )

    return ScoreReport(
        mode=mode,
        seed=settings.seed,
        config_hash=settings.config_hash,
        subsets=aggregate_log_records(records),
        dual=dual,
    )
