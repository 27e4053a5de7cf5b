"""Trace-derived difficulty metrics, the fixed difficulty score, and tier cutoffs.

A thinking trace is scored along nine dimensions (reversals, connective
density, hypothesis-elimination cycles, dialectic structure, premise layering,
enumerated steps, epistemic entropy, pivots, abstraction level), each
operationalized as marker counts against the packaged lexicons
(``data/lexicon_en.json``, ``data/lexicon_zh.json``), which are edited in
place. The difficulty score is fixed: ``OFFSET`` plus the sum of the nine
per-corpus z-scores, minus the count of self-contradictions in the trace.
It maps onto the Easy/Medium/Hard/Expert ladder.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Iterable, Mapping, Sequence

from .synthesis import finite, typed


class CorpusError(ValueError):
    """The trace corpus cannot support the requested statistic."""


@dataclass(frozen=True)
class ThinkingTrace:
    question_id: str
    text: str
    token_count: int

    @classmethod
    def from_text(cls, question_id: str, text: str) -> "ThinkingTrace":
        return cls(question_id=question_id, text=text, token_count=len(text.split()))


SCORED_METRICS: tuple[str, ...] = (
    "oscillation",
    "logic_density",
    "abductive_depth",
    "dialectic_tension",
    "dimensional_awareness",
    "chain_steps",
    "uncertainty_entropy",
    "pivot_count",
    "abstraction_level",
)
# A trace's metrics: the nine scored dimensions and its two raw sizes.
METRIC_NAMES: tuple[str, ...] = SCORED_METRICS + ("token_count", "segment_count")


# ---------------------------------------------------------------------------
# Lexicons
# ---------------------------------------------------------------------------


_BOUNDED_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789' ,-")


def fold(text: str) -> str:
    """Case-fold one character to one character, keeping each character's ``\\w`` class.

    A character matches an ASCII marker character under ``re.IGNORECASE``
    exactly when its fold equals that character. ``str.lower`` alone agrees
    with ``re`` except on ``İ``, ``ı`` and ``ſ``, which are mapped first
    (``"İ".lower()`` is even two characters long). ``str.casefold`` would
    not do: it grows ``ß`` to ``ss`` and leaves ``İ`` and ``ı`` apart from ``i``.

    A trace is folded once, by ``trace_index``, which keeps the fold.
    """
    # Three replace calls scan much faster than one translate over non-ASCII text.
    return text.replace("\u0130", "i").replace("\u0131", "i").replace("\u017f", "s").lower()


def _is_word(ch: str) -> bool:
    """``re``'s ``\\w`` on a str pattern."""
    return ch.isalnum() or ch == "_"


@dataclass(frozen=True)
class Marker:
    """A lexicon marker as the scan looks for it.

    A bounded marker (ASCII letters, digits, spaces, commas, hyphens and
    apostrophes) holds its folded literal and matches the folded text between
    word boundaries, so it is caseless; any other marker (CJK, punctuation)
    holds its raw literal and matches the raw text as a plain substring.
    """

    literal: str
    bounded: bool

    @classmethod
    def parse(cls, marker: str) -> "Marker":
        folded = fold(marker)
        if all(ch in _BOUNDED_CHARS for ch in folded):
            return cls(folded, True)
        return cls(marker, False)

    def starts(self, text: str, folded: str) -> list[int]:
        """Start positions of the non-overlapping hits, left to right, as ``re.finditer`` finds them."""
        literal = self.literal
        haystack = folded if self.bounded else text
        width = len(literal)
        hits: list[int] = []
        at = haystack.find(literal)
        while at != -1:
            end = at + width
            if self.bounded and (
                (at > 0 and _is_word(haystack[at - 1])) == _is_word(literal[0])
                or (end < len(haystack) and _is_word(haystack[end])) == _is_word(literal[-1])
            ):
                at = haystack.find(literal, at + 1)
                continue
            hits.append(at)
            at = haystack.find(literal, end)
        return hits


# Every ASCII character that is not a word character, to a space.
_ASCII_NON_WORD = str.maketrans({chr(code): " " for code in range(128) if not _is_word(chr(code))})


@dataclass(frozen=True)
class MarkerSet:
    """The markers of one lexicon entry, split once by how a ``TraceIndex`` finds them.

    ``words`` are the bounded markers that are one word, ``phrases`` the other
    bounded markers with the set of their word runs, and ``substrings`` the
    unbounded markers with the set of their characters.
    """

    markers: tuple[Marker, ...]
    words: tuple[Marker, ...]
    phrases: tuple[tuple[Marker, frozenset[str]], ...]
    substrings: tuple[tuple[Marker, frozenset[str]], ...]

    @classmethod
    def of(cls, markers: Iterable[Marker]) -> "MarkerSet":
        markers = tuple(markers)
        words, phrases, substrings = [], [], []
        for m in markers:
            if not m.bounded:
                substrings.append((m, frozenset(m.literal)))
                continue
            runs = m.literal.translate(_ASCII_NON_WORD).split()
            if runs == [m.literal]:
                words.append(m)
            else:
                phrases.append((m, frozenset(runs)))
        return cls(markers, tuple(words), tuple(phrases), tuple(substrings))


_NO_MARKERS = MarkerSet.of(())
_ASCII_CHARS = frozenset(map(chr, range(128)))


class TraceIndex:
    """One trace's text and fold, with what rules a marker out without a scan.

    The index counts the maximal word runs of the fold, each non-ASCII
    character first read as a non-word character. At a hit of a bounded
    marker each word run of the marker is a whole run of the fold, since
    ``Marker.starts`` wants a non-word character or an end on both sides, so a
    bounded marker is scanned only if all its word runs are in the index. Where
    the fold is ASCII its runs are exactly those of the index, and a one-word
    marker is counted by a lookup. An unbounded marker is counted on the raw
    text, and only if each of its characters occurs there; ``str.count`` finds
    the hits ``Marker.starts`` finds.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.folded = folded = fold(text)
        # A superset of the text's characters: a set of an ASCII text costs more than the counts it saves.
        self.chars = _ASCII_CHARS if text.isascii() else set(text)
        # Keyed on the fold: "İf" is not ASCII, but its fold "if" is.
        self.exact = folded.isascii()
        self.runs = Counter(folded.encode("ascii", "replace").decode("ascii").translate(_ASCII_NON_WORD).split())

    def _scanned(self, entry: MarkerSet, words: bool) -> list[Marker]:
        """The bounded markers of ``entry`` that the index does not rule out, one-word ones only if ``words``."""
        runs = self.runs
        scanned = [m for m in entry.words if m.literal in runs] if words else []
        return scanned + [m for m, needed in entry.phrases if runs.keys() >= needed]

    def count(self, entry: MarkerSet) -> int:
        """Non-overlapping hits of the markers of ``entry``."""
        text, folded, runs = self.text, self.folded, self.runs
        total = sum([runs.get(m.literal, 0) for m in entry.words]) if self.exact else 0
        total += sum([len(m.starts(text, folded)) for m in self._scanned(entry, words=not self.exact)])
        return total + sum([text.count(m.literal) for m, chars in entry.substrings if chars <= self.chars])

    def positions(self, entry: MarkerSet) -> list[int]:
        """Sorted start positions of the hits of the markers of ``entry``."""
        scanned = self._scanned(entry, words=True) + [m for m, chars in entry.substrings if chars <= self.chars]
        return sorted(at for m in scanned for at in m.starts(self.text, self.folded))


@lru_cache(maxsize=1)
def trace_index(text: str) -> TraceIndex:
    """The index of ``text``.

    The last one is kept, so ``fallacy_penalty`` called right after
    ``extract_metrics`` on the same trace reads the index it built; no more
    than one index is held.
    """
    return TraceIndex(text)


def _add_markers(bucket: list[Marker], markers: Iterable[Any], where: str) -> None:
    """Parse ``markers`` into ``bucket``, rejecting what the scan cannot search for or would count twice."""
    for marker in markers:
        if not isinstance(marker, str):
            raise ValueError(f"{where}: marker {marker!r} is not a string")
        if not marker.strip():
            raise ValueError(f"{where}: empty marker {marker!r}")
        parsed = Marker.parse(marker)
        if parsed in bucket:
            raise ValueError(f"{where}: marker {marker!r} repeats a marker of the same metric")
        bucket.append(parsed)


def _level(sub: str, where: str) -> int:
    try:
        return int(sub)
    except ValueError:
        raise ValueError(f"{where}: abstraction level {sub!r} is not an integer") from None


def _merge_raw(locales: Sequence[tuple[str, Mapping[str, Any]]]) -> dict[str, Any]:
    """A ``MarkerSet`` per key (and per class, or per integer abstraction level), merged over the lexicons in order."""
    merged: dict[str, Any] = {}
    for name, raw in locales:
        for key, value in raw.items():
            if isinstance(value, dict):
                bucket = merged.setdefault(key, {})
                for sub, markers in value.items():
                    where = f"{name}: {key}.{sub}"
                    sub_key = _level(sub, where) if key == "abstraction" else sub
                    _add_markers(bucket.setdefault(sub_key, []), markers, where)
            else:
                _add_markers(merged.setdefault(key, []), value, f"{name}: {key}")
    return {
        key: {sub: MarkerSet.of(m) for sub, m in value.items()} if isinstance(value, dict) else MarkerSet.of(value)
        for key, value in merged.items()
    }


def load_lexicons(locale: str = "both") -> dict[str, Any]:
    """The packaged marker lexicons of one locale ("en", "zh") or of both, merged.

    Each lexicon key maps to the ``MarkerSet`` of its markers; ``epistemic``
    maps each class, and ``abstraction`` each integer level, to its own. A marker that is not a
    string, is empty or blank, or repeats another of the same metric, and an
    abstraction level that is not an integer, raise ``ValueError`` naming the
    lexicon file and the key.
    """
    wanted = ("en", "zh") if locale == "both" else (locale,)
    files = [f"lexicon_{name}.json" for name in wanted]
    raws = [(file, json.loads(resources.files("combicat.data").joinpath(file).read_text("utf-8"))) for file in files]
    return _merge_raw(raws)


# ---------------------------------------------------------------------------
# Metric extraction
# ---------------------------------------------------------------------------


def _ordered_chains(*stages: list[int]) -> int:
    """Non-overlapping in-order chains, one hit per stage, greedy left-to-right matching.

    At equal positions a hit of an earlier stage comes first.
    """
    reached = [0] * len(stages)  # reached[k]: chains matched through stage k
    for _, stage in sorted((pos, k) for k, positions in enumerate(stages) for pos in positions):
        if stage == 0:
            reached[0] += 1
        elif reached[stage - 1] > 0:
            reached[stage - 1] -= 1
            reached[stage] += 1
    return reached[-1]


_NUMBERED_STEP_RE = re.compile(r"^\s*(?:step\s+\d+|\d+[.)])\s", re.IGNORECASE | re.MULTILINE)
_SEGMENT_SPLIT_RE = re.compile(r"\n\s*\n")


def shannon_entropy(counts: Iterable[int]) -> float:
    """Entropy in nats of the empirical distribution over positive counts."""
    positive = [c for c in counts if c > 0]
    total = sum(positive)
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in positive)


def extract_metrics(trace: ThinkingTrace, lexicons: Mapping[str, Any]) -> dict[str, float]:
    """Score one trace against the lexicons: a float for each of ``METRIC_NAMES``.

    Counts are non-overlapping marker hits (see ``Marker``). Enumerated
    steps also count numbered line heads ("1.", "2)", "Step 3"). Segments are
    blank-line-delimited blocks. An empty trace scores zero everywhere.
    """
    text = trace.text
    if not text.strip():
        return {**dict.fromkeys(METRIC_NAMES, 0.0), "token_count": float(trace.token_count)}
    index = trace_index(text)

    def hits(key: str) -> int:
        return index.count(lexicons.get(key, _NO_MARKERS))

    def positions(key: str) -> list[int]:
        return index.positions(lexicons.get(key, _NO_MARKERS))

    dialectic = _ordered_chains(positions("thesis"), positions("antithesis"), positions("synthesis"))
    epistemic = [index.count(markers) for markers in lexicons.get("epistemic", {}).values()]
    levels = [level for level, markers in lexicons.get("abstraction", {}).items() if index.count(markers)]
    return {
        "oscillation": float(hits("reversal")),
        "logic_density": 100.0 * hits("connectives") / max(1, trace.token_count),
        "abductive_depth": float(_ordered_chains(positions("hypothesis"), positions("elimination"))),
        "dialectic_tension": float(dialectic),
        "dimensional_awareness": float(hits("premise_layer")),
        "chain_steps": float(hits("deduction_step") + len(_NUMBERED_STEP_RE.findall(text))),
        "uncertainty_entropy": shannon_entropy(epistemic),
        "pivot_count": float(hits("pivot")),
        "abstraction_level": float(max([0] + levels)),
        "token_count": float(trace.token_count),
        "segment_count": float(sum(1 for block in _SEGMENT_SPLIT_RE.split(text) if block.strip())),
    }


# ---------------------------------------------------------------------------
# Normalization and the aggregate score
# ---------------------------------------------------------------------------

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class CorpusStats:
    """Frozen per-metric corpus mean/std used to score items consistently."""

    means: Mapping[str, float]
    stds: Mapping[str, float]
    corpus_size: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "means": dict(self.means),
            "stds": dict(self.stds),
            "corpus_size": self.corpus_size,
            "std_floor": STD_FLOOR,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorpusStats":
        """Read back ``to_dict``: a finite mean and a std of at least ``STD_FLOOR`` per scored metric, and an
        integer ``corpus_size``; none is coerced."""
        given_means = typed("means", data["means"], dict, "an object")
        given_stds = typed("stds", data["stds"], dict, "an object")
        means = {name: finite(f"mean of {name}", given_means[name]) for name in SCORED_METRICS}
        stds = {name: finite(f"std of {name}", given_stds[name]) for name in SCORED_METRICS}
        low = [name for name in SCORED_METRICS if stds[name] < STD_FLOOR]
        if low:
            raise ValueError(f"std of {low[0]} is below the floor {STD_FLOOR}")
        return cls(means=means, stds=stds, corpus_size=typed("corpus_size", data["corpus_size"], int, "an integer"))


def z_normalize(corpus: Sequence[Mapping[str, float]]) -> tuple[list[dict[str, float]], CorpusStats]:
    """Population z-scores of the nine scored metrics over the corpus.

    A floor on the standard deviation keeps constant metrics at z = 0 instead
    of dividing by zero.
    """
    if len(corpus) < 2:
        raise CorpusError(f"insufficient corpus: {len(corpus)} trace(s), need at least 2")
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for name in SCORED_METRICS:
        values = [metrics[name] for metrics in corpus]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        means[name] = mean
        stds[name] = max(math.sqrt(variance), STD_FLOOR)
    stats = CorpusStats(means=means, stds=stds, corpus_size=len(corpus))
    return [normalize_against(stats, m) for m in corpus], stats


def normalize_against(stats: CorpusStats, metrics: Mapping[str, float]) -> dict[str, float]:
    """Score one item against frozen corpus statistics."""
    return {name: (metrics[name] - stats.means[name]) / stats.stds[name] for name in SCORED_METRICS}


OFFSET = 23.2

# The fixed score model, recorded in every stats file and in its config_hash.
SCORING_MODEL: Mapping[str, Any] = {
    "weights": {name: 1.0 for name in SCORED_METRICS},
    "penalty_rate": 1.0,
    "offset": OFFSET,
}


def stratify(value: float) -> str:
    """Tier cutoffs: below 20 Easy, then 25 and 30 split Medium/Hard/Expert."""
    if value < 20:
        return "Easy"
    if value < 25:
        return "Medium"
    if value < 30:
        return "Hard"
    return "Expert"


def gold_score(z: Mapping[str, float], fallacy_score: float = 0.0) -> float:
    """``OFFSET`` plus the sum of the nine z-scores, minus the fallacy score."""
    if fallacy_score < 0:
        raise ValueError("fallacy score must be non-negative")
    missing = [name for name in SCORED_METRICS if name not in z]
    if missing:
        raise ValueError(f"missing z-score(s) for {', '.join(missing)}")
    return OFFSET + sum(z[name] for name in SCORED_METRICS) - fallacy_score


# ---------------------------------------------------------------------------
# Fallacy detection
# ---------------------------------------------------------------------------

# Searched over the fold, so lowercase and case-sensitive: it matches where the
# same pattern in either case matches the raw text under re.IGNORECASE.
_ASSERTION_RE = re.compile(r"(?:final answer|the answer|answer)\s*(?:is|:|should be|must be)\s*\(?([a-h])\)?(?![a-z])")
_FINAL_LETTERS_RE = re.compile(r"(?<![A-Za-z])([A-H])(?![A-Za-z])")


def _final_answer_span(text: str) -> tuple[set[str], int]:
    """Letters on the last non-empty line and that line's character offset.

    Lines are those of ``str.splitlines``, read from the end.
    """
    start = len(text)
    for line in reversed(text.splitlines(keepends=True)):
        start -= len(line)
        stripped = line.strip().strip("*_`\"'").strip()
        if stripped:
            return {m.group(1).upper() for m in _FINAL_LETTERS_RE.finditer(stripped)}, start
    return set(), len(text)


def fallacy_penalty(trace: ThinkingTrace, lexicons: Mapping[str, Any]) -> float:
    """Count internal contradictions in a trace.

    The rule totals (a) assertions "the answer is X" whose letter is absent
    from the final-line answer, and (b) explicit self-contradiction markers.
    """
    index = trace_index(trace.text)
    final_letters, final_start = _final_answer_span(trace.text)
    mismatches = 0
    if final_letters:
        for match in _ASSERTION_RE.finditer(index.folded):
            if match.start() >= final_start:
                break
            if match.group(1).upper() not in final_letters:
                mismatches += 1
    return float(mismatches + index.count(lexicons.get("contradiction", _NO_MARKERS)))
