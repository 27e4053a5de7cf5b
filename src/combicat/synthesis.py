"""Transforms single-answer questions into multi-select combinatorial questions.

The pipeline per question: restate the four options as statements, take the
truth-table row with exactly the answered statement true, enumerate the pools
of always-true and always-false option formulas allowed by the difficulty
tier, sample and shuffle a fixed number of options, and verify the result
against the truth-table semantics. Every step is a pure function of
(question, tier config, seed).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Sequence

from .logic import (
    SHAPE_LIST,
    SHAPES,
    STATEMENTS,
    Formula,
    PatternKind,
    Shape,
    Statement,
    parse_formula,
    render,
    statement_from_label,
    templates,
    truth_row,
)
from .rng import PortableRng, derive_seed

OPTION_LETTERS = "ABCDEFGH"

OPTION_COUNTS = range(5, 9)  # options per combinatorial question

LABELS = tuple(s.name for s in STATEMENTS)  # "I".."IV", read without the enum's name property


class QuestionFormatError(ValueError):
    """A source question violates the four-option single-answer contract."""


class InfeasibleTierError(RuntimeError):
    """The tier configuration cannot be satisfied by the available pools."""


@lru_cache(maxsize=None)
def _known_keys(cls: type) -> frozenset[str]:
    """The record keys a question class reads itself; every other key is kept in ``extras``."""
    return frozenset(f.name for f in fields(cls)) - {"extras"}


# The field checks of every file reader. They sit here, below bankio, because question records use them.
def typed(key: str, value: Any, kind: type | tuple[type, ...], what: str) -> Any:
    """``value`` of field ``key`` if it is a ``kind``; a bool passes only as a bool."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{key} must be {what}, not {value!r}")
    return value


def string_list(key: str, value: Any, length: int | None = None) -> list[str]:
    """``value`` of field ``key`` if it is a JSON array of strings, of ``length`` items when given."""
    strings = isinstance(value, list) and all(isinstance(item, str) for item in value)
    if not strings or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise ValueError(f"{key} must be a list of {count}strings, not {value!r}")
    return value


def finite(key: str, value: Any) -> float:
    """``value`` of field ``key`` as a float, if it is a JSON number (an int too) that a float holds."""
    if not -sys.float_info.max <= typed(key, value, (int, float), "a finite number") <= sys.float_info.max:
        raise ValueError(f"{key} must be a finite number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class AtomicQuestion:
    """A four-option single-answer source question; construction enforces the contract."""

    id: str
    context: str
    options: Mapping[str, str]
    answer: str
    language: str = "en"
    source: str = ""
    reasoning_type: str = ""
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = tuple(self.options.keys())
        if sorted(labels) != sorted(LABELS):
            raise QuestionFormatError(
                f"question {self.id!r}: not four atomic options keyed I..IV (got {labels})"
            )
        if self.answer not in self.options:
            raise QuestionFormatError(
                f"question {self.id!r}: answer {self.answer!r} not among option keys"
            )
        texts = list(self.options.values())
        repeated = [label for label in LABELS if texts.count(self.options[label]) > 1]
        if repeated:
            raise QuestionFormatError(f"question {self.id!r}: options {', '.join(repeated)} repeat one text")
        if self.language not in ("en", "zh"):
            raise QuestionFormatError(f"question {self.id!r}: unsupported language {self.language!r}")

    def answer_index(self) -> Statement:
        return statement_from_label(self.answer)

    def option_list(self) -> list[str]:
        """Option texts in statement order I..IV."""
        return [self.options[label] for label in LABELS]

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "id": self.id,
            "context": self.context,
            "options": {label: self.options[label] for label in LABELS},
            "answer": self.answer,
            "language": self.language,
            "source": self.source,
            "reasoning_type": self.reasoning_type,
        }
        record.update(self.extras)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "AtomicQuestion":
        """A bank record; each field must already have its type, and none is coerced."""
        known = _known_keys(cls)
        options = typed("options", record["options"], dict, "an object")
        for label, text in options.items():
            typed(f"option {label}", text, str, "a string")
        return cls(
            id=typed("id", record["id"], str, "a string"),
            context=typed("context", record.get("context", ""), str, "a string"),
            options=dict(options),
            answer=typed("answer", record["answer"], str, "a string"),
            language=typed("language", record.get("language", "en"), str, "a string"),
            source=typed("source", record.get("source", ""), str, "a string"),
            reasoning_type=typed("reasoning_type", record.get("reasoning_type", ""), str, "a string"),
            extras={k: v for k, v in record.items() if k not in known},
        )


@dataclass(frozen=True)
class TierConfig:
    """Operator families and answer-count range for one tier."""

    tier: str
    allowed_patterns: frozenset[PatternKind]
    required_patterns: frozenset[PatternKind]
    n_correct_min: int
    n_correct_max: int
    n_options: int = 6

    def __post_init__(self) -> None:
        if not 1 <= self.n_correct_min <= self.n_correct_max < self.n_options:
            raise ValueError(
                f"tier {self.tier!r}: answer-count range "
                f"[{self.n_correct_min}, {self.n_correct_max}] must sit inside [1, {self.n_options})"
            )
        if not self.required_patterns <= self.allowed_patterns:
            raise ValueError(f"tier {self.tier!r}: required patterns must be allowed")


@dataclass(frozen=True)
class Tier:
    """One row of the tier ladder: the operator families its options may use and must present, its
    answer-count range, its 3PL discrimination, and the lowest difficulty score ``stratify`` puts in it."""

    name: str
    allowed: frozenset[PatternKind]
    required: frozenset[PatternKind]
    answer_range: tuple[int, int]
    discrimination: float
    lowest_score: float


def _tier_list() -> tuple[Tier, ...]:
    k = PatternKind
    return (
        Tier("Easy", frozenset({k.EXACTNESS}), frozenset(), (1, 1), 0.8, -math.inf),
        Tier("Medium", frozenset({k.EXACTNESS, k.DISJUNCTION}), frozenset(), (1, 2), 1.2, 20.0),
        Tier("Hard", frozenset({k.EXACTNESS, k.DISJUNCTION, k.NEGATION}), frozenset({k.NEGATION}), (1, 3), 1.6, 25.0),
        Tier("Expert", frozenset({k.EXACTNESS, k.DISJUNCTION, k.NEGATION, k.COMPOUND_NEGATION}),
             frozenset({k.DISJUNCTION, k.NEGATION}), (2, 4), 2.0, 30.0),
    )


TIERS: dict[str, Tier] = {tier.name: tier for tier in _tier_list()}
"""The tier ladder by name, lowest tier first: each tier widens the allowed operator family."""


def tier_row(name: str) -> Tier:
    """The ladder's row for tier ``name``."""
    if name not in TIERS:
        raise ValueError(f"unknown tier {name!r}")
    return TIERS[name]


@lru_cache(maxsize=None)
def tier_config(tier: str, n_options: int = 6) -> TierConfig:
    """The assembly config of a ladder tier at ``n_options`` options.

    The Easy pools hold five formulas in total (one always-true exactness plus
    four distractors), so Easy questions carry at most five options no matter
    what is configured; the other tiers' pools hold more than eight. A config is
    frozen, so each (tier, option count) is built once and shared.
    """
    if n_options not in OPTION_COUNTS:
        raise ValueError(f"option count {n_options} is not in {OPTION_COUNTS}")
    row = tier_row(tier)
    pool_size = sum(len(pool) for pool in pools(row.allowed, Statement.I))  # the same for every answer
    return TierConfig(row.name, row.allowed, row.required, *row.answer_range, min(n_options, pool_size))


@dataclass(frozen=True)
class OptionEntry:
    letter: str
    formula: Formula
    text: str


# An option is one of a few hundred (letter, shape, wording) combinations, each built once and
# shared. The key is text: hashing a formula tree would walk it.
@lru_cache(maxsize=1024)
def _shared_option(letter: str, formula_text: str, text: str) -> OptionEntry:
    return OptionEntry(letter, parse_formula(formula_text), text)


def _loaded_option(item: Mapping[str, Any]) -> OptionEntry:
    """A record's option: its ``letter``, ``formula`` and ``text`` must be strings."""
    return _shared_option(
        typed("letter", item["letter"], str, "a string"),
        typed("formula", item["formula"], str, "a string"),
        typed("text", item["text"], str, "a string"),
    )


@dataclass(frozen=True)
class CombinatorialQuestion:
    """Multi-select question whose options are formulas over the statements."""

    id: str
    source_id: str
    context: str
    statements: tuple[str, str, str, str]
    options: tuple[OptionEntry, ...]
    answer_set: frozenset[str]
    tier: str
    seed: int
    source_answer: str
    language: str = "en"
    source: str = ""
    reasoning_type: str = ""
    extras: Mapping[str, Any] = field(default_factory=dict)

    def truth_row(self) -> int:
        return truth_row(statement_from_label(self.source_answer))

    def letters(self) -> tuple[str, ...]:
        return tuple(entry.letter for entry in self.options)

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "id": self.id,
            "source_id": self.source_id,
            "context": self.context,
            "statements": list(self.statements),
            "options": [
                {"letter": entry.letter, "formula": entry.formula.serialized, "text": entry.text}
                for entry in self.options
            ],
            "answer_set": sorted(self.answer_set),
            "tier": self.tier,
            "seed": self.seed,
            "source_answer": self.source_answer,
            "language": self.language,
            "source": self.source,
            "reasoning_type": self.reasoning_type,
        }
        # Copied source extras never overwrite a synthesized field (an inline
        # "tier" on the atomic record, say).
        for key, value in self.extras.items():
            record.setdefault(key, value)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "CombinatorialQuestion":
        """A bank record; each field must already have its type, and none is coerced."""
        known = _known_keys(cls)
        options = tuple(_loaded_option(item) for item in record["options"])
        return cls(
            id=typed("id", record["id"], str, "a string"),
            source_id=typed("source_id", record["source_id"], str, "a string"),
            context=typed("context", record.get("context", ""), str, "a string"),
            statements=tuple(string_list("statements", record["statements"], 4)),
            options=options,
            answer_set=frozenset(string_list("answer_set", record["answer_set"])),
            tier=typed("tier", record["tier"], str, "a string"),
            seed=typed("seed", record["seed"], int, "an integer"),
            source_answer=typed("source_answer", record["source_answer"], str, "a string"),
            language=typed("language", record.get("language", "en"), str, "a string"),
            source=typed("source", record.get("source", ""), str, "a string"),
            reasoning_type=typed("reasoning_type", record.get("reasoning_type", ""), str, "a string"),
            extras={k: v for k, v in record.items() if k not in known},
        )


@dataclass(frozen=True)
class Violation:
    letter: str
    rule: str
    message: str


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


# Exactness and the universal distractor are in every pool, whatever the tier allows.
_EVERY_POOL = (PatternKind.EXACTNESS, PatternKind.UNIVERSAL_NONE)


@lru_cache(maxsize=None)
def pools(allowed: frozenset[PatternKind], answer: Statement) -> tuple[tuple[Shape, ...], tuple[Shape, ...]]:
    """Enumerate (valid, distractor) pools of shapes in a fixed, documented order.

    Valid formulas are true in ``truth_row(answer)``, distractors false there.
    Both pools list the allowed shapes in ``SHAPE_LIST`` order. Valid pool:
    exactness of the answer; disjunctions pairing the answer with each other
    statement; negations of each other statement; compound negations over
    pairs excluding the answer.

    Distractor pool: exactness of each other statement; disjunctions over
    pairs excluding the answer; negation of the answer; one canonical false
    compound negation (the answer paired with the smallest other statement);
    and always the universal distractor, listed last.
    """
    row = truth_row(answer)
    shapes = [shape for shape in SHAPE_LIST if shape.kind in allowed or shape.kind in _EVERY_POOL]
    valid = tuple(shape for shape in shapes if shape.formula.mask >> row & 1)
    false = [shape for shape in shapes if not shape.formula.mask >> row & 1]
    extra_compounds = [shape for shape in false if shape.kind is PatternKind.COMPOUND_NEGATION][1:]
    return valid, tuple(shape for shape in false if shape not in extra_compounds)


_REQUIREMENT_ORDER = (PatternKind.DISJUNCTION, PatternKind.NEGATION)


@lru_cache(maxsize=64)
def _flagged_pools(allowed: frozenset[PatternKind], answer: str, language: str) -> tuple[tuple[tuple, ...], ...]:
    """``pools`` as (formula text, option text, flags), flag ``k`` set if the shape presents ``_REQUIREMENT_ORDER[k]``."""
    return tuple(
        tuple(
            (
                shape.formula.serialized,
                render(shape.formula, language),
                tuple(r in shape.presents for r in _REQUIREMENT_ORDER),
            )
            for shape in pool
        )
        for pool in pools(allowed, statement_from_label(answer))
    )


def assemble(question: AtomicQuestion, cfg: TierConfig, seed: int) -> CombinatorialQuestion:
    """Sample, label, and shuffle one combinatorial question.

    Draw order, fully determined by the seed: (1) answer count uniform in the
    tier range; (2) each required pattern satisfied from the valid pool while
    correct slots remain (falling back to the distractor pool); (3) remaining
    correct options uniform without replacement; (4) remaining distractors
    uniform without replacement; (5) one Fisher-Yates shuffle of the
    assembled options.
    """
    rng = PortableRng(seed)
    valid_pool, distractor_pool = (
        list(pool) for pool in _flagged_pools(cfg.allowed_patterns, question.answer, question.language)
    )

    n_correct = rng.randint(cfg.n_correct_min, cfg.n_correct_max)
    n_distract = cfg.n_options - n_correct
    if n_correct > len(valid_pool) or n_distract > len(distractor_pool):
        raise InfeasibleTierError(
            f"tier infeasible for this configuration: need {n_correct} valid and "
            f"{n_distract} distractor options, pools hold "
            f"{len(valid_pool)}/{len(distractor_pool)}"
        )

    correct_picks: list[tuple] = []
    distract_picks: list[tuple] = []

    # Both picks are uniform. A correct one spends a single random() draw, the
    # draw of weighted_index over equal weights that the synthesized bank bytes
    # are pinned to: its running sums are exact integers, so it returns
    # floor(target), or n - 1 when the target rounds up to n.
    def take_correct(pool: list[tuple], indices: Sequence[int]) -> tuple:
        n = len(indices)
        return pool.pop(indices[min(int(rng.random() * n), n - 1)])

    def take_distractor(pool: list[tuple], indices: Sequence[int]) -> tuple:
        return pool.pop(indices[rng.below(len(indices))])

    for k, requirement in enumerate(_REQUIREMENT_ORDER):
        if requirement not in cfg.required_patterns:
            continue
        if any(flags[k] for _, _, flags in correct_picks + distract_picks):
            continue
        valid_candidates = [i for i, (_, _, flags) in enumerate(valid_pool) if flags[k]]
        if len(correct_picks) < n_correct and valid_candidates:
            correct_picks.append(take_correct(valid_pool, valid_candidates))
            continue
        distractor_candidates = [i for i, (_, _, flags) in enumerate(distractor_pool) if flags[k]]
        if len(distract_picks) < n_distract and distractor_candidates:
            distract_picks.append(take_distractor(distractor_pool, distractor_candidates))
            continue
        raise InfeasibleTierError(
            f"tier infeasible for this configuration: cannot place required pattern "
            f"{requirement.value}"
        )

    while len(correct_picks) < n_correct:
        correct_picks.append(take_correct(valid_pool, range(len(valid_pool))))
    while len(distract_picks) < n_distract:
        distract_picks.append(take_distractor(distractor_pool, range(len(distractor_pool))))

    labelled = [(entry, True) for entry in correct_picks] + [(entry, False) for entry in distract_picks]
    rng.shuffle(labelled)

    return CombinatorialQuestion(
        id=f"{question.id}::{cfg.tier}::{seed:016x}",
        source_id=question.id,
        context=question.context,
        statements=tuple(question.option_list()),
        options=tuple(
            _shared_option(OPTION_LETTERS[position], formula_text, text)
            for position, ((formula_text, text, _), _) in enumerate(labelled)
        ),
        answer_set=frozenset(OPTION_LETTERS[position] for position, (_, correct) in enumerate(labelled) if correct),
        tier=cfg.tier,
        seed=seed,
        source_answer=question.answer,
        language=question.language,
        source=question.source,
        reasoning_type=question.reasoning_type,
        extras=dict(question.extras),
    )


def verify(question: CombinatorialQuestion) -> tuple[Violation, ...]:
    """Exhaustive semantic check of a combinatorial question: its violations, none if it is valid.

    Each option's formula is reduced once to its 16-bit truth mask. With a
    fixed four-variable valuation, the mask bit at the ground-truth row
    decides the option's truth, so the checks below are proofs rather than
    spot tests. Rules, by violation name:

    - ``unknown-language``: the question's language has option templates;
    - ``letter-order``: option letters run A, B, C... in order;
    - ``unknown-shape``: each option's formula is one of the 21 shapes (up to
      logical equivalence);
    - ``truth-mismatch``: each option's truth value matches its answer label;
    - ``text-mismatch``: each option's text is its shape's template in the
      question's language;
    - ``duplicate-formula``: no two options share a truth table;
    - ``unknown-letter``: every answer letter names an option;
    - ``missing-required-pattern``: the tier's required patterns appear;
    - ``degenerate-answer-set``: the answer set is neither empty nor every option;
    - ``answer-count``: the answer count lies in the tier's range.
    """
    tier = tier_row(question.tier)
    row = question.truth_row()
    letters = question.letters()
    violations: list[Violation] = []

    def flag(letter: str, rule: str, message: str) -> None:
        violations.append(Violation(letter, rule, message))

    templated = question.language in templates()
    if not templated:
        flag("", "unknown-language", f"no option templates for language {question.language!r}")
    if letters != tuple(OPTION_LETTERS[: len(letters)]):
        flag("", "letter-order", f"option letters {','.join(letters)} do not run A, B, C... in order")

    presented: list[PatternKind] = []  # a list: hashing an enum runs Python
    seen: dict[int, str] = {}
    for entry in question.options:
        truth_mask = entry.formula.mask
        shape = SHAPES.get(truth_mask)
        if shape is None:
            flag(entry.letter, "unknown-shape", f"option {entry.letter} formula {entry.formula.serialized} is none of the {len(SHAPES)} option shapes")
        else:
            presented += shape.presents
        value = bool(truth_mask >> row & 1)
        if value is not (entry.letter in question.answer_set):
            labelled = "incorrect" if value else "correct"
            flag(entry.letter, "truth-mismatch", f"option {entry.letter} evaluates {value} but is labelled {labelled}")
        if templated and shape is not None:
            expected_text = render(entry.formula, question.language)
            if entry.text != expected_text:
                flag(entry.letter, "text-mismatch", f"option {entry.letter} reads {entry.text!r}, not {expected_text!r}")
        if truth_mask in seen:
            flag(
                entry.letter,
                "duplicate-formula",
                f"options {seen[truth_mask]} and {entry.letter} share truth table {truth_mask:#06x}",
            )
        seen.setdefault(truth_mask, entry.letter)

    for letter in sorted(question.answer_set - set(letters)):
        flag(letter, "unknown-letter", f"answer letter {letter!r} names no option")

    for requirement in sorted(tier.required, key=lambda k: k.value):
        if requirement not in presented:
            flag("", "missing-required-pattern", f"no option presents {requirement.value}")

    n_answers = len(question.answer_set)
    if not 1 <= n_answers < len(question.options):
        flag("", "degenerate-answer-set", f"answer set size {n_answers} of {len(question.options)} options")
    low, high = tier.answer_range
    if not low <= n_answers <= high:
        flag("", "answer-count", f"{n_answers} answers outside the {tier.name} range {low}-{high}")

    return tuple(violations)


MAX_REGENERATION_ATTEMPTS = 16


def synthesize_question(
    question: AtomicQuestion, cfg: TierConfig, seed: int
) -> tuple[CombinatorialQuestion, int]:
    """Assemble with verification, bumping the seed on failure.

    Returns the verified question and the number of regenerations (0 in the
    expected case, since assembly is valid by construction).
    """
    for attempt in range(MAX_REGENERATION_ATTEMPTS):
        candidate = assemble(question, cfg, seed + attempt)
        if not verify(candidate):
            return candidate, attempt
    raise InfeasibleTierError(
        f"question {question.id!r}: no valid assembly after {MAX_REGENERATION_ATTEMPTS} attempts"
    )


@dataclass
class SynthesisSummary:
    total: int = 0
    regenerations: int = 0
    tier_counts: dict[str, int] = field(default_factory=dict)

    @property
    def regeneration_rate(self) -> float:
        return self.regenerations / self.total if self.total else 0.0


def synthesize_bank(
    questions: Iterable[AtomicQuestion],
    seed: int,
    tier_for: Callable[[AtomicQuestion], str],
    n_options: int = 6,
) -> tuple[list[CombinatorialQuestion], SynthesisSummary]:
    """Batch transform; per-question seeds derive from the run seed and question id."""
    summary = SynthesisSummary()
    output: list[CombinatorialQuestion] = []
    for question in questions:
        tier = tier_for(question)
        cfg = tier_config(tier, n_options=n_options)
        question_seed = derive_seed(seed, question.id, tier)
        combinatorial, retries = synthesize_question(question, cfg, question_seed)
        output.append(combinatorial)
        summary.total += 1
        summary.regenerations += retries
        summary.tier_counts[tier] = summary.tier_counts.get(tier, 0) + 1
    return output, summary


# ---------------------------------------------------------------------------
# Baseline transforms
# ---------------------------------------------------------------------------

NOTA_TEXT = "None of the Above"


def apply_nota(question: AtomicQuestion) -> AtomicQuestion:
    """Replace the correct option text with "None of the Above".

    The answer index is unchanged, so the correct choice becomes the inserted
    text. Idempotent.
    """
    options = dict(question.options)
    options[question.answer] = NOTA_TEXT
    return replace(question, options=options)


def shuffle_options(question: AtomicQuestion, seed: int) -> AtomicQuestion:
    """Seeded permutation of the option texts with the answer index remapped."""
    texts = question.option_list()
    order = list(range(4))
    PortableRng(seed).shuffle(order)
    shuffled = {STATEMENTS[slot].name: texts[original] for slot, original in enumerate(order)}
    answer_position = question.answer_index() - 1
    new_answer = STATEMENTS[order.index(answer_position)].name
    return replace(question, options=shuffled, answer=new_answer)
